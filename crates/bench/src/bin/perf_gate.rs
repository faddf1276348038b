//! CI perf regression gate.
//!
//! `cargo run --release -p zerodev-bench --bin perf_gate -- <BENCH_prev.json>`
//!
//! Re-measures the standardized gate probe (`zerodev_bench::report::
//! measure_gate`: a fixed serial simulation pair and a bounded
//! model-checker exploration) on the current build and
//! compares it against the `gate_*` numbers of the committed report given
//! as the argument. Exits nonzero when any gate metric regressed by more
//! than [`MAX_REGRESSION`] (throughputs: lower is worse).
//!
//! The comparison normalizes on the standardized probe *only*: the
//! committed report's full-run numbers depend on that run's `quick`/
//! `threads` mode (e.g. `BENCH_6.json` was recorded quick with 4 sweep
//! threads), so they are never compared — the gate numbers are measured
//! serially under fixed parameters on both sides, keeping the check
//! apples-to-apples regardless of how the baseline's full run was
//! configured. The baseline's mode flags are echoed so a surprising
//! verdict can be read in context.
//!
//! Baselines must carry a known schema tag (`zerodev-bench-v1` or `-v2`);
//! a missing or unknown schema, or a missing/malformed gate field, is a
//! structured failure naming the field and file — never a panic. Both
//! schemas carry the three compared `gate_*` fields; keys only `v2` has are
//! ignored.
//!
//! Skip in CI with `ZERODEV_NO_PERF_GATE=1` (handled by `scripts/ci.sh`;
//! the binary also honours it so a local invocation behaves the same).

use zerodev_bench::report::{
    json_number, json_number_required, json_string, measure_gate, SCHEMA, SCHEMA_V2,
};
use zerodev_common::env;

/// Allowed fractional throughput drop before the gate fails (0.25 = 25%).
const MAX_REGRESSION: f64 = 0.25;

fn main() {
    if env::var_flag("ZERODEV_NO_PERF_GATE") {
        println!("perf gate: skipped (ZERODEV_NO_PERF_GATE=1)");
        return;
    }
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: perf_gate <BENCH_prev.json>");
        std::process::exit(2);
    });
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("perf gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let schema = json_string(&committed, "schema").unwrap_or_else(|| {
        eprintln!("perf gate: {path}: field \"schema\" is missing or not a string");
        std::process::exit(2);
    });
    if schema != SCHEMA && schema != SCHEMA_V2 {
        eprintln!(
            "perf gate: {path}: unknown schema {schema:?} \
             (expected {SCHEMA:?} or {SCHEMA_V2:?})"
        );
        std::process::exit(2);
    }
    // Full-run numbers depend on the baseline's mode; the gate never
    // compares them, but echo the flags so the context is visible.
    let quick = if committed.contains("\"quick\": true") {
        Some(true)
    } else if committed.contains("\"quick\": false") {
        Some(false)
    } else {
        None
    };
    let threads = json_number(&committed, "threads");
    println!(
        "perf gate: baseline {path} ({schema}, quick: {}, threads: {}) — \
         comparing the standardized serial probe only",
        quick.map_or("unknown".into(), |q| q.to_string()),
        threads.map_or("unknown".into(), |t| format!("{t:.0}")),
    );
    println!("perf gate: measuring standardized probe...");
    let fresh = measure_gate();
    let checks = [
        ("gate_sim_cycles_per_sec", fresh.sim_cycles_per_sec),
        ("gate_refs_per_sec", fresh.refs_per_sec),
        ("gate_mc_states_per_sec", fresh.mc_states_per_sec),
    ];
    let mut failed = false;
    for (key, now) in checks {
        let prev = match json_number_required(&committed, key) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perf gate: {path}: {e}");
                std::process::exit(2);
            }
        };
        if prev <= 0.0 {
            println!("  {key:<24} baseline non-positive ({prev}); skipping");
            continue;
        }
        let ratio = now / prev;
        let verdict = if ratio < 1.0 - MAX_REGRESSION {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {key:<24} {prev:>14.0} -> {now:>14.0}  ({ratio:>5.2}x)  {verdict}");
    }
    if failed {
        eprintln!(
            "perf gate: throughput regressed more than {:.0}% vs {path}",
            MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
    println!("perf gate: ok");
}
