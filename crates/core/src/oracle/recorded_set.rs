//! Completeness of the oracle's recorded set: every block whose checked
//! engine state a flow changes must be checked by the hook that ends the
//! flow. Seeded random access/evict/effect traffic over a small block pool
//! drives configurations that force LLC victims, directory victims (DEVs)
//! and `WB_DE`s; around every hook each pool block's state — everything
//! [`Oracle::check_block`] reads from the engine — is compared with its
//! state after the previous hook.

use std::collections::BTreeMap;

use crate::directory::DirEntry;
use crate::llc::LlcLine;
use crate::memdir::SocketDirEntry;
use crate::system::{EvictKind, Op, PrivateCaches, System};
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SecDirGeometry, SpillPolicy,
    SystemConfig, ZeroDevConfig,
};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, Prng, SocketId};

/// What `check_block` reads about one block in one socket: the tracking
/// entry wherever it lives, the housed segment and the LLC line.
type SocketView = (Option<DirEntry>, Option<DirEntry>, Option<LlcLine>);

/// Everything `check_block` reads about one block from the engine.
#[derive(PartialEq, Debug)]
struct BlockView {
    sockets: Vec<SocketView>,
    corrupted: bool,
    segments: Option<Vec<(SocketId, Option<DirEntry>)>>,
    socket_dir: Option<SocketDirEntry>,
}

impl BlockView {
    fn of(sys: &System, block: BlockAddr) -> Self {
        let mem = sys.memory();
        let n = sys.config().sockets;
        let sid = |s: usize| SocketId(s as u8);
        BlockView {
            sockets: (0..n)
                .map(|s| {
                    (
                        sys.entry_of(sid(s), block),
                        mem.peek_entry(block, sid(s)),
                        sys.llc_line_of(sid(s), block),
                    )
                })
                .collect(),
            corrupted: mem.is_corrupted(block),
            segments: mem
                .corrupted_block(block)
                .map(|cb| cb.sockets().iter().map(|s| (s, cb.segment(s))).collect()),
            socket_dir: mem.socket_dir_peek(sys.config().home_socket(block), block),
        }
    }
}

/// The private caches plus the bracket bookkeeping: the pool's views after
/// the previous hook and how much of the oracle's checked log that hook
/// accounted for.
struct Caches {
    lines: BTreeMap<(u8, u16, u64), MesiState>,
    pool: Vec<BlockAddr>,
    views: Vec<BlockView>,
    seen: usize,
    brackets: u64,
}

impl Caches {
    fn new(sys: &System, pool: Vec<BlockAddr>) -> Self {
        let views = pool.iter().map(|&b| BlockView::of(sys, b)).collect();
        Caches {
            lines: BTreeMap::new(),
            pool,
            views,
            seen: 0,
            brackets: 0,
        }
    }

    fn state(&self, s: u8, c: u16, b: BlockAddr) -> MesiState {
        let st = self.lines.get(&(s, c, b.0)).copied();
        st.unwrap_or(MesiState::Invalid)
    }

    fn set(&mut self, s: u8, c: u16, b: BlockAddr, st: MesiState) {
        if st == MesiState::Invalid {
            self.lines.remove(&(s, c, b.0));
        } else {
            self.lines.insert((s, c, b.0), st);
        }
    }

    /// Closes the bracket around the hook that just ran: every pool block
    /// whose view changed since the previous bracket must be in the blocks
    /// that hook checked.
    fn bracket(&mut self, sys: &System) {
        let checked = &sys.oracle().expect("audited").checked;
        let fresh = &checked[self.seen..];
        for (i, &b) in self.pool.iter().enumerate() {
            let now = BlockView::of(sys, b);
            if now != self.views[i] {
                assert!(
                    fresh.contains(&b),
                    "bracket {}: a hook changed {b:?} but did not check it\n  before {:?}\n  after  {:?}\n  checked {fresh:?}",
                    self.brackets,
                    self.views[i],
                    now
                );
                self.views[i] = now;
            }
        }
        self.seen = checked.len();
        self.brackets += 1;
    }
}

impl PrivateCaches for Caches {
    fn downgrade(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> bool {
        let st = self.state(socket.0, core.0, block);
        assert!(st.is_owned(), "downgrade of {st} line at {block:?}");
        self.set(socket.0, core.0, block, MesiState::Shared);
        st == MesiState::Modified
    }

    fn invalidate(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        let st = self.state(socket.0, core.0, block);
        self.set(socket.0, core.0, block, MesiState::Invalid);
        st
    }

    /// Runs right after the dirty-data hook (or, for a coherence victim,
    /// after no hook at all, when nothing may have changed).
    fn dirty_absorbed(
        &mut self,
        sys: &System,
        _socket: SocketId,
        _core: CoreId,
        _block: BlockAddr,
        _reason: Option<crate::system::InvalReason>,
    ) {
        self.bracket(sys);
    }
}

/// One random legal operation: an eviction, a write (silent E→M, upgrade
/// or RFO) or a read miss, followed by its effects, bracketing every hook.
fn step(sys: &mut System, d: &mut Caches, rng: &mut Prng) {
    let s = rng.below(sys.config().sockets as u64) as u8;
    let c = rng.below(sys.config().cores as u64) as u16;
    let b = d.pool[rng.below(d.pool.len() as u64) as usize];
    let st = d.state(s, c, b);
    let (socket, core) = (SocketId(s), CoreId(c));
    let (mut invals, mut downs, grant) = match rng.below(10) {
        0..=1 if st.is_valid() => {
            let kind = EvictKind::for_state(st).expect("valid copy");
            d.set(s, c, b, MesiState::Invalid);
            let invals = sys.evict(Cycle(0), socket, core, b, kind);
            (invals, Vec::new(), None)
        }
        2..=4 => match st {
            MesiState::Modified => return,
            MesiState::Exclusive => {
                d.set(s, c, b, MesiState::Modified);
                return;
            }
            MesiState::Shared | MesiState::Invalid => {
                let op = if st == MesiState::Shared {
                    Op::Upgrade
                } else {
                    Op::ReadExclusive
                };
                let r = sys.access(Cycle(0), socket, core, b, op);
                (r.invalidations, r.downgrades, Some(r.grant))
            }
        },
        _ if st.is_valid() => return,
        _ => {
            let op = if rng.chance(0.1) {
                Op::CodeRead
            } else {
                Op::Read
            };
            let r = sys.access(Cycle(0), socket, core, b, op);
            (r.invalidations, r.downgrades, Some(r.grant))
        }
    };
    d.bracket(sys);
    sys.apply_effects(Cycle(0), &mut invals, &mut downs, d);
    // The grant lands after the effects, as in the oracle's shadow.
    if let Some(grant) = grant {
        d.set(s, c, b, grant);
    }
}

/// The stress suite's tiny machine: 4 cores, a 128-line 4-way LLC in two
/// banks, under heavy pressure from a 96-block pool.
fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.l1i = CacheGeometry::new(2 << 10, 2);
    cfg.l1d = CacheGeometry::new(2 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(8 << 10, 4);
    cfg.llc_banks = 2;
    cfg.socket_dir_cache_sets = 8;
    cfg
}

/// ZeroDEV with no dedicated directory.
fn zerodev(
    mut cfg: SystemConfig,
    policy: SpillPolicy,
    design: LlcDesign,
    llc_replacement: LlcReplacement,
) -> SystemConfig {
    cfg.llc_design = design;
    cfg.with_zerodev(
        ZeroDevConfig {
            policy,
            llc_replacement,
            ..Default::default()
        },
        DirectoryKind::None,
    )
}

/// Runs `steps` random operations and returns the machine for the
/// caller's coverage assertions.
fn drive(cfg: SystemConfig, pool: Vec<BlockAddr>, steps: u64, seed: u64) -> System {
    let mut sys = System::new(cfg).expect("valid config");
    sys.enable_audit();
    let mut d = Caches::new(&sys, pool);
    let mut rng = Prng::seeded(seed);
    for _ in 0..steps {
        step(&mut sys, &mut d, &mut rng);
    }
    sys
}

fn pool(stride: u64) -> Vec<BlockAddr> {
    (0..96u64).map(|i| BlockAddr(0x1000 + i * stride)).collect()
}

const STEPS: u64 = 3000;
const POLICIES: [SpillPolicy; 3] = [
    SpillPolicy::SpillAll,
    SpillPolicy::FusePrivateSpillShared,
    SpillPolicy::FuseAll,
];

/// Plain LRU lets data fills displace spilled and fused entries, so the
/// non-inclusive and EPD points send entries home through `WB_DE`. The
/// inclusive points keep the paper's dataLRU (§III-F: an inclusive LLC
/// never evicts an entry) and displace data lines, whose victims
/// back-invalidate private copies.
#[test]
fn every_policy_and_design_checks_what_it_mutates() {
    let mut seed = 1;
    for policy in POLICIES {
        for design in [LlcDesign::NonInclusive, LlcDesign::Epd] {
            let cfg = zerodev(tiny(), policy, design, LlcReplacement::Lru);
            let sys = drive(cfg, pool(2), STEPS, seed);
            let wbde = sys.stats.dir_llc_evictions;
            assert!(wbde > 0, "{policy:?}/{design:?}: no WB_DE");
            seed += 1;
        }
        let inclusive = LlcDesign::Inclusive;
        let cfg = zerodev(tiny(), policy, inclusive, LlcReplacement::DataLru);
        let sys = drive(cfg, pool(2), STEPS, seed);
        let back = sys.stats.inclusion_invalidations;
        assert!(back > 0, "{policy:?}/Inclusive: no back-invalidation");
        seed += 1;
    }
}

/// One bank, one two-way set: spills are refused and go straight home.
#[test]
fn a_one_set_llc_checks_what_it_mutates() {
    for (seed, policy) in (20..).zip(POLICIES) {
        let mut cfg = tiny();
        cfg.llc = CacheGeometry::new(64 * 2, 2);
        cfg.llc_banks = 1;
        let cfg = zerodev(cfg, policy, LlcDesign::NonInclusive, LlcReplacement::Lru);
        let sys = drive(cfg, pool(2), STEPS, seed);
        assert!(sys.stats.dir_llc_evictions > 0, "{policy:?}: no WB_DE");
    }
}

/// `spill8`'s LLC size, policy and replacement, with every pool block in
/// the same set of the same bank, so even protected entries overflow it.
#[test]
fn a_1mb_llc_under_set_conflicts_checks_what_it_mutates() {
    let mut cfg = tiny();
    cfg.llc = CacheGeometry::new(1 << 20, 16);
    let fpss = SpillPolicy::FusePrivateSpillShared;
    let cfg = zerodev(cfg, fpss, LlcDesign::NonInclusive, LlcReplacement::DataLru);
    let stride = (cfg.llc.lines() / cfg.llc.ways) as u64;
    let sys = drive(cfg, pool(stride), STEPS, 30);
    assert!(sys.stats.dir_llc_evictions > 0, "no WB_DE");
}

#[test]
fn two_sockets_check_what_they_mutate() {
    let fpss = SpillPolicy::FusePrivateSpillShared;
    let mut cfg = zerodev(tiny(), fpss, LlcDesign::NonInclusive, LlcReplacement::Lru);
    cfg.sockets = 2;
    let sys = drive(cfg, pool(2), STEPS, 40);
    assert!(sys.stats.socket_misses > 0 && sys.stats.dir_llc_evictions > 0);
    let mut cfg = tiny();
    cfg.sockets = 2;
    let sys = drive(cfg, pool(2), STEPS, 41);
    assert!(sys.stats.socket_misses > 0);
}

#[test]
fn baseline_directories_check_their_victims() {
    let sparse = DirectoryKind::Sparse {
        ratio: Ratio::new(1, 64),
        ways: 2,
        replacement_disabled: false,
    };
    let secdir = DirectoryKind::SecDir(SecDirGeometry {
        shared_sets: 2,
        shared_ways: 2,
        private_sets: 1,
        private_ways: 2,
    });
    let mgd = DirectoryKind::MultiGrain {
        ratio: Ratio::new(1, 16),
        ways: 2,
    };
    for (seed, dir) in (50..).zip([sparse, secdir, mgd]) {
        let mut cfg = tiny();
        cfg.directory = dir.clone();
        let sys = drive(cfg, pool(2), STEPS, seed);
        assert!(sys.stats.dev_invalidations > 0, "{dir:?}: no DEV");
    }
}
