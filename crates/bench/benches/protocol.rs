//! Micro-benchmarks for the protocol engine: sustained access/evict
//! throughput under each coherence configuration. These bound how fast the
//! figure harnesses can run.
//!
//! `cargo bench -p zerodev-bench --features criterion-benches`

use zerodev_bench::microbench::{bench_function, black_box, group};
use zerodev_common::config::{DirectoryKind, LlcReplacement, SpillPolicy, ZeroDevConfig};
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, Prng, SocketId, SystemConfig};
use zerodev_core::{EvictKind, Op, PrivateCaches, System};

/// Single-socket private copies: `present[block * 8 + core]` is
/// `Some(dirty)` while the core holds the block.
struct Present<'a>(&'a mut [Option<bool>]);

impl Present<'_> {
    fn slot(&mut self, core: CoreId, block: BlockAddr) -> Option<&mut Option<bool>> {
        let i = (block.0 - 0x10_000) * 8 + u64::from(core.0);
        self.0.get_mut(i as usize)
    }
}

impl PrivateCaches for Present<'_> {
    fn downgrade(&mut self, _: SocketId, core: CoreId, block: BlockAddr) -> bool {
        self.slot(core, block)
            .is_some_and(|slot| slot.replace(false) == Some(true))
    }

    fn invalidate(&mut self, _: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        match self.slot(core, block).and_then(Option::take) {
            Some(true) => MesiState::Modified,
            Some(false) => MesiState::Shared,
            None => MesiState::Invalid,
        }
    }
}

/// Drives a random-but-legal single-socket request/evict mix.
fn drive(sys: &mut System, rng: &mut Prng, present: &mut [Option<bool>], blocks: u64) {
    let c = CoreId(rng.below(8) as u16);
    let b = rng.below(blocks);
    let idx = (b * 8 + u64::from(c.0)) as usize;
    let block = BlockAddr(0x10_000 + b);
    match present[idx] {
        None => {
            let write = rng.chance(0.3);
            let op = if write { Op::ReadExclusive } else { Op::Read };
            let mut r = sys.access(Cycle(0), SocketId(0), c, block, op);
            let (invals, downs) = (&mut r.invalidations, &mut r.downgrades);
            sys.apply_effects(Cycle(0), invals, downs, &mut Present(present));
            present[idx] = Some(write);
            black_box(r.latency);
        }
        Some(dirty) => {
            let kind = if dirty {
                EvictKind::Dirty
            } else {
                EvictKind::CleanShared
            };
            let mut invals = sys.evict(Cycle(0), SocketId(0), c, block, kind);
            present[idx] = None;
            sys.apply_effects(
                Cycle(0),
                &mut invals,
                &mut Vec::new(),
                &mut Present(present),
            );
        }
    }
}

fn bench_protocol() {
    group("protocol_access");
    let blocks = 4096u64;
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("baseline_1x", SystemConfig::baseline_8core()),
        (
            "zerodev_fpss_nodir",
            SystemConfig::baseline_8core()
                .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None),
        ),
        (
            "zerodev_spillall",
            SystemConfig::baseline_8core().with_zerodev(
                ZeroDevConfig {
                    policy: SpillPolicy::SpillAll,
                    llc_replacement: LlcReplacement::DataLru,
                    ..Default::default()
                },
                DirectoryKind::None,
            ),
        ),
        (
            "zerodev_fuseall",
            SystemConfig::baseline_8core().with_zerodev(
                ZeroDevConfig {
                    policy: SpillPolicy::FuseAll,
                    llc_replacement: LlcReplacement::DataLru,
                    ..Default::default()
                },
                DirectoryKind::None,
            ),
        ),
    ];
    for (name, cfg) in configs {
        bench_function(name, |b| {
            let mut sys = System::new(cfg.clone()).unwrap();
            let mut rng = Prng::seeded(7);
            let mut present = vec![None; (blocks * 8) as usize];
            b.iter(|| drive(&mut sys, &mut rng, &mut present, blocks));
        });
    }
}

fn bench_multisocket() {
    group("multisocket");
    bench_function("protocol_access/four_socket_zerodev", |b| {
        let cfg =
            SystemConfig::four_socket().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
        let mut sys = System::new(cfg).unwrap();
        let mut rng = Prng::seeded(11);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let s = SocketId(rng.below(4) as u8);
            let c2 = CoreId(rng.below(8) as u16);
            let block = BlockAddr(0x20_000 + (i % 2048));
            let r = sys.access(Cycle(0), s, c2, block, Op::Read);
            // Evict immediately to keep the model legal and steady-state.
            let _ = sys.evict(Cycle(0), s, c2, block, EvictKind::CleanShared);
            black_box(r.latency)
        });
    });
}

fn main() {
    bench_protocol();
    bench_multisocket();
}
