//! A minimal, dependency-free timing harness for the micro-benchmark
//! targets in `benches/` (gated behind the off-by-default
//! `criterion-benches` feature so the tier-1 build graph stays free of
//! external crates).
//!
//! The API mirrors the criterion subset the benches use — a named
//! `bench_function` taking a closure over a [`Bencher`] whose `iter` runs
//! the workload — so the bench bodies read the same: probe one call to
//! size the batches, then measure batches against a fixed wall budget and
//! report nanoseconds per iteration.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measures one benchmark body; filled in by [`Bencher::iter`].
#[derive(Debug, Default)]
pub struct Bencher {
    ns_per_iter: f64,
    iters: u64,
}

impl Bencher {
    /// Runs `f` repeatedly (one probe call, then timed batches totalling
    /// ~200 ms) and records the mean cost per call.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let t0 = Instant::now();
        black_box(f());
        let probe = t0.elapsed().max(Duration::from_nanos(1));
        // ~10 ms batches keep timer overhead negligible for fast bodies
        // while slow bodies (full simulations) fall back to batch = 1.
        let batch =
            (Duration::from_millis(10).as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;
        let budget = Duration::from_millis(200);
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        while elapsed < budget {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            elapsed += t.elapsed();
            iters += batch;
        }
        self.ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
        self.iters = iters;
    }

    /// Mean measured cost per iteration, in nanoseconds.
    pub fn ns_per_iter(&self) -> f64 {
        self.ns_per_iter
    }

    /// Iterations executed by the last [`Self::iter`] call.
    pub fn iters(&self) -> u64 {
        self.iters
    }
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Runs and reports one named benchmark.
pub fn bench_function(name: &str, f: impl FnOnce(&mut Bencher)) {
    let _ = bench_function_value(name, f);
}

/// [`bench_function`], additionally returning the measured ns/iteration so
/// callers can derive throughput numbers (e.g. for a `BENCH_<pr>.json`
/// trajectory entry).
pub fn bench_function_value(name: &str, f: impl FnOnce(&mut Bencher)) -> f64 {
    let mut b = Bencher::default();
    f(&mut b);
    println!(
        "{name:<44} {:>12}/iter  ({} iters)",
        human(b.ns_per_iter),
        b.iters
    );
    b.ns_per_iter
}

/// A named group (printed as a header, matching the criterion layout).
pub fn group(name: &str) {
    println!("\n-- {name} --");
}
