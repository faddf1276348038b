//! Machine-state checkpoint round-trips: drive a machine through random
//! traffic, serialize it with [`System::snap`], restore into a freshly
//! built machine, and require (a) a byte-identical re-serialization and
//! (b) byte-identical behaviour when both machines continue under the same
//! operation stream. Exercised across every directory family, the ZeroDEV
//! spill policies, multi-socket machines, and with the audit oracle
//! attached.

mod common;

use common::Model;
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, LlcReplacement, Ratio, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::snap::{SnapReader, SnapWriter};
use zerodev_common::{BlockAddr, Prng};
use zerodev_core::System;

const MAGIC: u64 = 0x7357_5eed_5eed_7357;
const VERSION: u32 = 1;

fn snap_bytes(sys: &System) -> Vec<u8> {
    let mut w = SnapWriter::new(MAGIC, VERSION);
    sys.snap(&mut w);
    w.finish()
}

fn restore(cfg: SystemConfig, bytes: &[u8]) -> System {
    let mut sys = System::new(cfg).expect("valid config");
    let mut r = SnapReader::open(bytes, MAGIC, VERSION).expect("container valid");
    sys.unsnap(&mut r).expect("restore succeeds");
    r.expect_end().expect("image fully consumed");
    sys
}

fn round_trip(cfg: SystemConfig, seed: u64) {
    let blocks: Vec<BlockAddr> = (0..96u64).map(|i| BlockAddr(0x1000 + i * 3)).collect();
    let mut rng = Prng::seeded(seed);
    let mut m = Model::new(cfg.clone());
    m.sys.enable_audit();
    for _ in 0..2_500 {
        m.step(&mut rng, &blocks);
    }

    // Re-serializing a restored machine must reproduce the image exactly.
    let image = snap_bytes(&m.sys);
    let restored = restore(cfg, &image);
    assert!(restored.audit_enabled(), "audit flag restored");
    assert_eq!(
        image,
        snap_bytes(&restored),
        "restored machine re-serializes differently (seed {seed:#x})"
    );

    // And the restored machine must behave identically from here on.
    let mut rng2 = rng.clone();
    let mut m2 = Model {
        sys: restored,
        lines: m.lines.clone(),
    };
    for _ in 0..1_500 {
        m.step(&mut rng, &blocks);
        m2.step(&mut rng2, &blocks);
    }
    m.sys.audit_sweep();
    m2.sys.audit_sweep();
    assert_eq!(
        snap_bytes(&m.sys),
        snap_bytes(&m2.sys),
        "restored machine diverged after resume (seed {seed:#x})"
    );
}

fn tiny(
    policy: Option<SpillPolicy>,
    design: LlcDesign,
    dir: Option<DirectoryKind>,
    sockets: usize,
) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = 4;
    cfg.sockets = sockets;
    cfg.l1i = CacheGeometry::new(2 << 10, 2);
    cfg.l1d = CacheGeometry::new(2 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    cfg.llc = CacheGeometry::new(8 << 10, 4);
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

fn sparse() -> DirectoryKind {
    DirectoryKind::Sparse {
        ratio: Ratio::new(1, 64),
        ways: 2,
        replacement_disabled: false,
    }
}

#[test]
fn round_trip_baseline_sparse() {
    round_trip(tiny(None, LlcDesign::NonInclusive, Some(sparse()), 1), 0x51);
}

#[test]
fn round_trip_baseline_unbounded() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::Unbounded),
            1,
        ),
        0x52,
    );
}

#[test]
fn round_trip_secdir() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::SecDir(
                zerodev_core::DirStore::secdir_geometry(4, true),
            )),
            1,
        ),
        0x53,
    );
}

#[test]
fn round_trip_multigrain() {
    round_trip(
        tiny(
            None,
            LlcDesign::NonInclusive,
            Some(DirectoryKind::MultiGrain {
                ratio: Ratio::new(1, 64),
                ways: 2,
            }),
            1,
        ),
        0x54,
    );
}

#[test]
fn round_trip_zerodev_fpss() {
    round_trip(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
            1,
        ),
        0x55,
    );
}

#[test]
fn round_trip_zerodev_multisocket() {
    round_trip(
        tiny(
            Some(SpillPolicy::FusePrivateSpillShared),
            LlcDesign::NonInclusive,
            None,
            2,
        ),
        0x56,
    );
}

#[test]
fn fingerprint_mismatch_is_rejected() {
    let cfg = tiny(None, LlcDesign::NonInclusive, Some(sparse()), 1);
    let sys = System::new(cfg).expect("valid config");
    let image = snap_bytes(&sys);
    let other = tiny(None, LlcDesign::NonInclusive, Some(sparse()), 2);
    let mut wrong = System::new(other).expect("valid config");
    let mut r = SnapReader::open(&image, MAGIC, VERSION).expect("container valid");
    assert!(wrong.unsnap(&mut r).is_err(), "fingerprint must not match");
}
