//! Randomised protocol stress: thousands of random reads/writes/evictions
//! on a tiny machine, cross-checking the directory view against a model of
//! the private caches after every operation. Shakes out entry-loss and
//! tracking bugs that directed tests miss.

mod common;

use common::Model;
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::{BlockAddr, Prng};

fn tiny(
    policy: Option<SpillPolicy>,
    design: LlcDesign,
    dir: Option<DirectoryKind>,
) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.l1i = CacheGeometry::new(2 << 10, 2);
    cfg.l1d = CacheGeometry::new(2 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(8 << 10, 4); // 128 lines: heavy pressure
    cfg.llc_banks = 2;
    cfg.llc_design = design;
    if let Some(p) = policy {
        cfg = cfg.with_zerodev(
            ZeroDevConfig {
                policy: p,
                llc_replacement: LlcReplacement::DataLru,
                ..Default::default()
            },
            dir.unwrap_or(DirectoryKind::None),
        );
    } else if let Some(d) = dir {
        cfg.directory = d;
    }
    cfg
}

fn stress(cfg: SystemConfig, steps: u64, seed: u64) {
    let mut rng = Prng::seeded(seed);
    // A small pool of blocks that heavily conflicts in the tiny LLC.
    let blocks: Vec<BlockAddr> = (0..96u64).map(|i| BlockAddr(0x1000 + i * 3)).collect();
    let mut m = Model::new(cfg);
    for _ in 0..steps {
        let b = m.step(&mut rng, &blocks);
        m.sys.check_invariants();
        m.check_block(b);
    }
}

#[test]
fn stress_baseline() {
    stress(tiny(None, LlcDesign::NonInclusive, None), 6000, 1);
}

#[test]
fn stress_baseline_tiny_dir() {
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::Sparse {
                ratio: Ratio::new(1, 64),
                ways: 2,
                replacement_disabled: false,
            }),
        ),
        6000,
        2,
    );
}

#[test]
fn stress_zerodev_fpss() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
        ),
        8000,
        3,
    );
}

#[test]
fn stress_zerodev_spillall() {
    stress(
        tiny(Some(SpillPolicy::SpillAll), LlcDesign::NonInclusive, None),
        8000,
        4,
    );
}

#[test]
fn stress_zerodev_fuseall() {
    stress(
        tiny(Some(SpillPolicy::FuseAll), LlcDesign::NonInclusive, None),
        8000,
        5,
    );
}

#[test]
fn stress_zerodev_epd() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::Epd,
            Some(DirectoryKind::Sparse {
                ratio: Ratio::new(1, 8),
                ways: 4,
                replacement_disabled: true,
            }),
        ),
        8000,
        6,
    );
}

#[test]
fn stress_zerodev_inclusive() {
    stress(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::Inclusive,
            None,
        ),
        8000,
        7,
    );
}

#[test]
fn stress_secdir() {
    let geom = zerodev_common::config::SecDirGeometry {
        shared_sets: 2,
        shared_ways: 2,
        private_sets: 1,
        private_ways: 2,
    };
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::SecDir(geom)),
        ),
        6000,
        8,
    );
}

#[test]
fn stress_mgd() {
    stress(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::MultiGrain {
                ratio: Ratio::new(1, 16),
                ways: 2,
            }),
        ),
        6000,
        9,
    );
}

#[test]
fn stress_multisocket_zerodev() {
    let mut cfg = tiny(
        Some(SpillPolicy::FusePrivateSpillShared),
        LlcDesign::NonInclusive,
        None,
    );
    cfg.sockets = 2;
    stress(cfg, 8000, 10);
}

#[test]
fn stress_multisocket_baseline() {
    let mut cfg = tiny(None, LlcDesign::NonInclusive, None);
    cfg.sockets = 4;
    stress(cfg, 6000, 11);
}

#[test]
fn stress_zerodev_hybrid_segments() {
    // The limited-pointer/coarse-vector segment format decodes to sharer
    // supersets; the protocol must stay coherent (spurious invalidations
    // are harmless).
    let mut cfg = tiny(
        Some(SpillPolicy::FusePrivateSpillShared),
        LlcDesign::NonInclusive,
        None,
    );
    if let Some(zd) = cfg.zerodev.as_mut() {
        zd.segment_format = zerodev_common::config::SegmentFormat::Hybrid {
            max_pointers: 1,
            coarse_bits: 2,
        };
    }
    stress(cfg, 8000, 12);
}

#[test]
fn stress_zerodev_hybrid_segments_multisocket() {
    let mut cfg = tiny(
        Some(SpillPolicy::FusePrivateSpillShared),
        LlcDesign::NonInclusive,
        None,
    );
    cfg.sockets = 2;
    if let Some(zd) = cfg.zerodev.as_mut() {
        zd.segment_format = zerodev_common::config::SegmentFormat::Hybrid {
            max_pointers: 2,
            coarse_bits: 2,
        };
    }
    stress(cfg, 8000, 13);
}
