//! End-to-end trace record/replay: a replayed trace must reproduce the
//! original run bit-for-bit, including through text serialisation.

use zerodev::prelude::*;
use zerodev::workloads::{Trace, WorkloadKind};

fn params() -> RunParams {
    RunParams {
        refs_per_core: 3_000,
        warmup_refs: 0,
        ..Default::default()
    }
}

#[test]
fn replayed_trace_reproduces_the_run_exactly() {
    let cfg = SystemConfig::baseline_8core();
    // Record enough references to cover the whole run.
    let mut source = multithreaded("streamcluster", 8, 77).unwrap();
    let trace = Trace::record(&mut source, 3_000);
    let replay_a = trace
        .clone()
        .into_workload("streamcluster.trace", WorkloadKind::MultiThreaded);
    let a = run(&cfg, replay_a, &params());

    // Round-trip through the text format, then run again.
    let text = trace.to_text();
    let parsed: Trace = text.parse().expect("well-formed trace");
    let replay_b = parsed.into_workload("streamcluster.trace", WorkloadKind::MultiThreaded);
    let b = run(&cfg, replay_b, &params());

    assert_eq!(a.completion_cycles, b.completion_cycles);
    assert_eq!(a.stats.core_cache_misses, b.stats.core_cache_misses);
    assert_eq!(a.stats.total_traffic_bytes(), b.stats.total_traffic_bytes());
    assert_eq!(a.dram_rw, b.dram_rw);
}

#[test]
fn replay_matches_generator_run_when_covering() {
    // Running the generator directly and running its recording must agree
    // (same reference stream, same machine, no warmup).
    let cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    let direct = run(&cfg, multithreaded("radiosity", 8, 5).unwrap(), &params());
    let mut source = multithreaded("radiosity", 8, 5).unwrap();
    let trace = Trace::record(&mut source, 3_000);
    let replay = trace.into_workload("radiosity", WorkloadKind::MultiThreaded);
    let replayed = run(&cfg, replay, &params());
    // Early finishers keep running past the recorded window (replay wraps,
    // the generator produces fresh references), so the runs agree only up
    // to that tail: within a fraction of a percent.
    let ratio = direct.completion_cycles as f64 / replayed.completion_cycles.max(1) as f64;
    assert!(
        (0.99..=1.01).contains(&ratio),
        "direct {} vs replayed {}",
        direct.completion_cycles,
        replayed.completion_cycles
    );
    assert_eq!(direct.stats.dev_invalidations, 0);
    assert_eq!(replayed.stats.dev_invalidations, 0);
}

/// The torture family rides the same determinism contract as the PARSEC /
/// SPLASH generators: every `torture.*` workload must produce an identical
/// run at any `ZERODEV_THREADS` setting (expressed through `RunParams` so
/// the test cannot race on process-global env vars). The soak driver's minimizer and repro commands depend on this.
#[test]
fn torture_workloads_are_deterministic_across_threads() {
    let cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    for app in zerodev::workloads::TORTURE {
        let fingerprint = |threads: usize| {
            let p = RunParams {
                refs_per_core: 2_000,
                warmup_refs: 200,
                threads,
                audit: true,
                ..Default::default()
            };
            let r = run(&cfg, multithreaded(app, 8, 0x7041).unwrap(), &p).result;
            format!(
                "{:?}|{:?}|{:?}|{}|{}",
                r.stats, r.core_cycles, r.core_instrs, r.completion_cycles, r.refs_retired
            )
        };
        assert_eq!(
            fingerprint(4),
            fingerprint(1),
            "{app} diverged at threads=4"
        );
    }
}

/// Torture traces round-trip through the text format: recording a torture
/// workload, serialising with `Trace::to_text`, parsing it back, and
/// replaying must reproduce the recorded run bit-for-bit. This is the
/// contract behind the soak driver's quarantine trace artifacts.
#[test]
fn torture_traces_round_trip_through_text() {
    let cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    for app in zerodev::workloads::TORTURE {
        let mut source = multithreaded(app, 8, 0x7041).unwrap();
        let trace = Trace::record(&mut source, 3_000);
        let direct = run(
            &cfg,
            trace
                .clone()
                .into_workload(app, WorkloadKind::MultiThreaded),
            &params(),
        );
        let text = trace.to_text();
        let parsed: Trace = text.parse().expect("torture trace text is well-formed");
        let replayed = run(
            &cfg,
            parsed.into_workload(app, WorkloadKind::MultiThreaded),
            &params(),
        );
        assert_eq!(
            direct.stats, replayed.stats,
            "{app}: stats diverged after text round-trip"
        );
        assert_eq!(
            direct.completion_cycles, replayed.completion_cycles,
            "{app}: completion diverged after text round-trip"
        );
        assert_eq!(direct.dram_rw, replayed.dram_rw, "{app}: dram diverged");
    }
}

#[test]
fn hand_written_trace_drives_the_machine() {
    // A tiny hand-authored trace: one thread pounding two blocks, one of
    // them written. 8 threads required by the 8-core machine — pad with
    // idle single-reference threads.
    let mut text = String::from("# hand trace\n@thread 0\n");
    for i in 0..200 {
        if i % 2 == 0 {
            text.push_str("100 w 2\n");
        } else {
            text.push_str("101 r 2\n");
        }
    }
    for t in 1..8 {
        text.push_str(&format!("@thread {t}\n{:x} r 50\n", 0x9000 + t));
    }
    let trace: Trace = text.parse().expect("valid");
    assert_eq!(trace.thread_count(), 8);
    let wl = trace.into_workload("hand", WorkloadKind::MultiThreaded);
    let r = run(
        &SystemConfig::baseline_8core(),
        wl,
        &RunParams {
            refs_per_core: 100,
            warmup_refs: 0,
            ..Default::default()
        },
    );
    assert!(r.completion_cycles > 0);
    // Thread 0's two blocks quickly become L1 hits — very few misses.
    assert!(r.stats.core_cache_misses < 100);
}
