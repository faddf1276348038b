//! The caller contract of [`System::apply_effects`], checked directly with
//! a recording sink: every downgrade comes before any invalidation, the
//! invalidation stack is popped LIFO (a DEV recall's back-invalidations
//! included), and `dirty_absorbed` fires once per Modified victim, with its
//! reason, after the protocol has taken the data — never for a clean copy.

use std::collections::HashMap;
use zerodev_common::config::{CacheGeometry, DirectoryKind, LlcDesign, SystemConfig};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, SocketId};
use zerodev_core::system::Downgrade;
use zerodev_core::{InvalReason, Invalidation, LlcLine, Op, PrivateCaches, System};

#[derive(PartialEq, Debug)]
enum Call {
    Downgrade(u16, BlockAddr),
    Invalidate(u16, BlockAddr),
    /// The victim, its reason, and its LLC line as the protocol left it.
    Dirty(u16, BlockAddr, Option<InvalReason>, Option<LlcLine>),
}

/// Socket-0 private copies plus a log of every call the contract makes.
#[derive(Default)]
struct Recorder {
    states: HashMap<(u16, BlockAddr), MesiState>,
    log: Vec<Call>,
}

impl PrivateCaches for Recorder {
    fn downgrade(&mut self, _: SocketId, core: CoreId, block: BlockAddr) -> bool {
        self.log.push(Call::Downgrade(core.0, block));
        let st = self.states.insert((core.0, block), MesiState::Shared);
        st == Some(MesiState::Modified)
    }

    fn invalidate(&mut self, _: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        self.log.push(Call::Invalidate(core.0, block));
        self.states
            .remove(&(core.0, block))
            .unwrap_or(MesiState::Invalid)
    }

    fn dirty_absorbed(
        &mut self,
        sys: &System,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        reason: Option<InvalReason>,
    ) {
        let line = sys.llc_line_of(socket, block);
        self.log.push(Call::Dirty(core.0, block, reason, line));
    }
}

fn inv(core: u16, block: BlockAddr, reason: InvalReason) -> Invalidation {
    Invalidation {
        socket: SocketId(0),
        core: CoreId(core),
        block,
        reason,
    }
}

fn down(core: u16, block: BlockAddr) -> Downgrade {
    Downgrade {
        socket: SocketId(0),
        core: CoreId(core),
        block,
    }
}

#[test]
fn downgrades_then_lifo_invalidations_with_one_dirty_report_per_modified_victim() {
    // One inclusive LLC set of two ways, so a DEV recall's fill evicts a
    // line and back-invalidates its holder mid-stack.
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.llc = CacheGeometry::new(128, 2);
    cfg.llc_banks = 1;
    cfg.llc_design = LlcDesign::Inclusive;
    cfg.directory = DirectoryKind::Unbounded;
    let mut sys = System::new(cfg).expect("valid config");
    let [x, y, z, w, u, v] = [1, 2, 3, 4, 5, 6].map(BlockAddr);

    // Core 0 holds X and core 1 holds Y; both lines fill the set, X is LRU.
    for (core, block) in [(0, x), (1, y)] {
        let r = sys.access(Cycle(0), SocketId(0), CoreId(core), block, Op::Read);
        assert_eq!(r.grant, MesiState::Exclusive);
        assert!(r.invalidations.is_empty() && r.downgrades.is_empty());
    }
    let mut caches = Recorder::default();
    caches.states.extend([
        ((0, x), MesiState::Modified),
        ((1, y), MesiState::Modified),
        ((1, u), MesiState::Shared),
        ((2, z), MesiState::Modified),
        ((3, w), MesiState::Modified),
        ((3, v), MesiState::Exclusive),
    ]);

    let mut downgrades = vec![down(1, y), down(3, v)];
    let mut invals = vec![
        inv(1, u, InvalReason::Inclusion),
        inv(3, w, InvalReason::Coherence),
        inv(2, z, InvalReason::Dev),
    ];
    sys.apply_effects(Cycle(0), &mut invals, &mut downgrades, &mut caches);

    let dirty_line = Some(LlcLine::Data { dirty: true });
    assert_eq!(
        caches.log,
        [
            // Downgrades first, front to back; only the M owner reports.
            Call::Downgrade(1, y),
            Call::Dirty(1, y, None, dirty_line),
            Call::Downgrade(3, v),
            // Then the stack from the top: the DEV victim's data is
            // recalled into the LLC, whose fill evicts X and pushes its
            // inclusion victim, which is popped before the older entries.
            Call::Invalidate(2, z),
            Call::Dirty(2, z, Some(InvalReason::Dev), dirty_line),
            Call::Invalidate(0, x),
            Call::Dirty(0, x, Some(InvalReason::Inclusion), None),
            Call::Invalidate(3, w),
            Call::Dirty(3, w, Some(InvalReason::Coherence), None),
            // A clean victim reports nothing.
            Call::Invalidate(1, u),
        ]
    );
    assert!(
        invals.is_empty() && downgrades.is_empty(),
        "buffers drained"
    );
    assert_eq!(sys.stats.dev_dirty_recalls, 1);
}
