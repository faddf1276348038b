//! Fault-injection and forward-progress watchdog integration tests: the
//! watchdog must never fire on healthy runs across the spill-policy ×
//! LLC-design × socket matrix, a NACK storm past the retry budget must
//! surface as a structured stall, and fault plans must be deterministic
//! and — for message-level faults — statistics-neutral.

use zerodev::prelude::*;

fn quick() -> RunParams {
    RunParams {
        refs_per_core: 6_000,
        warmup_refs: 1_500,
        ..Default::default()
    }
}

fn zerodev_cfg(policy: SpillPolicy, design: LlcDesign, sockets: usize) -> SystemConfig {
    let base = if sockets == 1 {
        SystemConfig::baseline_8core()
    } else {
        let mut c = SystemConfig::four_socket();
        c.sockets = sockets;
        c
    };
    let mut cfg = base.with_zerodev(
        ZeroDevConfig {
            policy,
            ..Default::default()
        },
        DirectoryKind::None,
    );
    cfg.llc_design = design;
    if design == LlcDesign::Inclusive {
        // Small enough that inclusion victims occur within the short run.
        cfg.llc = zerodev::common::config::CacheGeometry::new(1 << 21, 16);
    }
    cfg
}

/// The watchdog reads only the retirement heartbeat, so a healthy run must
/// never trip it: every spill policy × LLC design × socket count completes
/// through `try_run` without a stall verdict.
#[test]
fn watchdog_has_no_false_positives_on_clean_matrix() {
    let policies = [
        SpillPolicy::SpillAll,
        SpillPolicy::FusePrivateSpillShared,
        SpillPolicy::FuseAll,
    ];
    let designs = [
        LlcDesign::NonInclusive,
        LlcDesign::Epd,
        LlcDesign::Inclusive,
    ];
    for sockets in [1usize, 4] {
        for policy in policies {
            for design in designs {
                let cfg = zerodev_cfg(policy, design, sockets);
                let wl = multithreaded("ocean_cp", 8 * sockets, 5).unwrap();
                let sim = Simulation::new(&cfg, wl);
                let p = quick();
                if let Err(e) = sim.try_run(p.refs_per_core, p.warmup_refs) {
                    panic!("{policy:?}/{design:?}/{sockets}s: watchdog false positive: {e}");
                }
            }
        }
    }
}

/// A forced `DENF_NACK` storm longer than the retry budget is a livelock
/// by construction; `try_run` must surface it as `SimError::Stalled`
/// rather than absorbing it or looping.
#[test]
fn nack_storm_past_retry_budget_is_a_structured_stall() {
    let cfg = zerodev_cfg(SpillPolicy::SpillAll, LlcDesign::NonInclusive, 1);
    let mut sim = Simulation::new(&cfg, multithreaded("ocean_cp", 8, 5).unwrap());
    sim.set_faults(FaultConfig {
        nack_ppm: 1_000_000,
        nack_len: 10,
        retry_budget: 4,
        ..Default::default()
    });
    let p = quick();
    let SimError::Stalled { last_event, .. } = sim
        .try_run(p.refs_per_core, p.warmup_refs)
        .expect_err("a storm past the budget must stall, not complete");
    assert!(
        last_event.contains("retry budget"),
        "stall verdict must name the exhausted budget: {last_event}"
    );
}

/// The fault plan is seeded: two runs with the same `FaultConfig` inject
/// the identical event sequence and finish with identical results.
#[test]
fn fault_plans_are_deterministic() {
    let cfg = zerodev_cfg(SpillPolicy::FusePrivateSpillShared, LlcDesign::Epd, 1);
    let faults = FaultConfig {
        nack_ppm: 20_000,
        delay_ppm: 10_000,
        dup_ppm: 10_000,
        ..Default::default()
    };
    let p = RunParams {
        faults: Some(faults),
        ..quick()
    };
    let wl = || multithreaded("ocean_cp", 8, 5).unwrap();
    let a = run(&cfg, wl(), &p);
    let b = run(&cfg, wl(), &p);
    assert!(a.result.faults.total_events() > 0, "faults must fire");
    assert_eq!(a.result.faults, b.result.faults);
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.result.completion_cycles, b.result.completion_cycles);
}

/// Message-level faults are accounted virtually (backoff, lateness,
/// phantom NoC traffic) and must leave the protocol's own statistics,
/// completion time, and DRAM traffic byte-identical to a fault-free run.
#[test]
fn message_faults_are_statistics_neutral() {
    let cfg = zerodev_cfg(SpillPolicy::SpillAll, LlcDesign::Inclusive, 1);
    let wl = || multithreaded("ocean_cp", 8, 5).unwrap();
    let clean = run(&cfg, wl(), &quick());
    let p = RunParams {
        faults: Some(FaultConfig {
            nack_ppm: 20_000,
            delay_ppm: 10_000,
            dup_ppm: 10_000,
            ..Default::default()
        }),
        ..quick()
    };
    let faulted = run(&cfg, wl(), &p);
    assert!(faulted.result.faults.total_events() > 0, "faults must fire");
    assert_eq!(clean.result.stats, faulted.result.stats);
    assert_eq!(
        clean.result.completion_cycles,
        faulted.result.completion_cycles
    );
    assert_eq!(clean.result.dram_rw, faulted.result.dram_rw);
}
