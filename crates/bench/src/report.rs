//! The `BENCH_<pr>.json` throughput report: a machine-readable record of
//! how fast the simulator runs, committed at the repo root once per PR so
//! the trajectory is visible in history and CI can gate on regressions.
//!
//! Two kinds of numbers live in a report:
//!
//! * **Full-run numbers** — whatever the `all_figures` reproduction that
//!   emitted the report actually did (simulated cycles/s, references
//!   retired/s, memo hit rate, per-figure wall time). These depend on the
//!   quick/full mode and thread count of that run, so they describe the
//!   run, not the machine.
//! * **Gate numbers** (`gate_*` keys) — a fixed, serial, standardized probe
//!   ([`measure_gate`]) re-runnable in seconds. The CI perf gate
//!   (`perf_gate` binary, wired into `scripts/ci.sh`) re-measures the probe
//!   and compares it against the committed report, so the comparison is
//!   always apples-to-apples regardless of how the report's full run was
//!   configured.
//!
//! JSON is hand-rolled (the tier-1 build graph stays dependency-free): the
//! writer emits a flat object plus a `figures` array, and the reader is a
//! key scanner that only understands the flat top-level keys — exactly what
//! the gate needs.

use std::time::{Duration, Instant};
use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_model::config::tiny;
use zerodev_model::{explore, Limits};
use zerodev_sim::parallel::SweepSummary;
use zerodev_sim::runner::{run, RunParams};

/// Identifies the report format for future readers: the format the writer
/// emits.
pub const SCHEMA: &str = "zerodev-bench-v1";

/// A superset of [`SCHEMA`] that also carried two keys of a since-removed
/// intra-run parallelism probe. Still accepted as a gate baseline; the
/// extra keys are ignored.
pub const SCHEMA_V2: &str = "zerodev-bench-v2";

/// Wall time and outcome of one figure inside an `all_figures` run.
#[derive(Clone, Debug)]
pub struct FigureTiming {
    /// Figure name (e.g. `fig19`).
    pub name: String,
    /// Wall-clock seconds the figure took.
    pub secs: f64,
    /// True when the figure panicked and was isolated.
    pub failed: bool,
}

/// The standardized serial probe the CI perf gate compares across commits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateNumbers {
    /// Simulated cycles per second of the fixed simulation probe.
    pub sim_cycles_per_sec: f64,
    /// References retired per second of the fixed simulation probe.
    pub refs_per_sec: f64,
    /// Model-checker states explored per second of the fixed exploration.
    pub mc_states_per_sec: f64,
}

/// One committed benchmark report.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// PR number the report belongs to (the `<pr>` in `BENCH_<pr>.json`).
    pub pr: u32,
    /// Sweep-engine worker count of the emitting run.
    pub threads: usize,
    /// True when the emitting run used the quick measurement window.
    pub quick: bool,
    /// Wall-clock seconds of the emitting run.
    pub wall_secs: f64,
    /// Aggregate sweep accounting of the emitting run.
    pub summary: SweepSummary,
    /// The standardized gate probe measured on the emitting machine.
    pub gate: GateNumbers,
    /// Per-figure wall times of the emitting run.
    pub figures: Vec<FigureTiming>,
}

impl BenchReport {
    /// Fraction of jobs served from the baseline memo cache.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.summary.runs_executed + self.summary.cache_hits;
        self.summary.cache_hits as f64 / (total as f64).max(1.0)
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let elapsed = Duration::from_secs_f64(self.wall_secs.max(1e-9));
        let mut out = String::from("{\n");
        let mut field = |key: &str, val: String| {
            out.push_str(&format!("  \"{key}\": {val},\n"));
        };
        field("schema", format!("\"{SCHEMA}\""));
        field("pr", self.pr.to_string());
        field("threads", self.threads.to_string());
        field("quick", self.quick.to_string());
        field("wall_secs", fmt_f64(self.wall_secs));
        field("sim_cycles", self.summary.sim_cycles.to_string());
        field("refs_retired", self.summary.refs_retired.to_string());
        field(
            "sim_cycles_per_sec",
            fmt_f64(self.summary.cycles_per_sec(elapsed)),
        );
        field("refs_per_sec", fmt_f64(self.summary.refs_per_sec(elapsed)));
        field("runs_executed", self.summary.runs_executed.to_string());
        field("cache_hits", self.summary.cache_hits.to_string());
        field("memo_hit_rate", fmt_f64(self.memo_hit_rate()));
        field("failed_points", self.summary.failed.to_string());
        field(
            "gate_sim_cycles_per_sec",
            fmt_f64(self.gate.sim_cycles_per_sec),
        );
        field("gate_refs_per_sec", fmt_f64(self.gate.refs_per_sec));
        field(
            "gate_mc_states_per_sec",
            fmt_f64(self.gate.mc_states_per_sec),
        );
        out.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            let comma = if i + 1 < self.figures.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"secs\": {}, \"failed\": {}}}{comma}\n",
                f.name,
                fmt_f64(f.secs),
                f.failed
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// One-line human digest of the report (the `all_figures` stderr line).
    pub fn digest(&self) -> String {
        let elapsed = Duration::from_secs_f64(self.wall_secs.max(1e-9));
        format!(
            "BENCH pr{}: {:.1}M sim-cycles/s, {:.0}K refs/s (full run, {} threads); \
             gate {:.1}M cyc/s, {:.0}K refs/s, {:.0}K mc-states/s; memo hit rate {:.0}%",
            self.pr,
            self.summary.cycles_per_sec(elapsed) / 1e6,
            self.summary.refs_per_sec(elapsed) / 1e3,
            self.threads,
            self.gate.sim_cycles_per_sec / 1e6,
            self.gate.refs_per_sec / 1e3,
            self.gate.mc_states_per_sec / 1e3,
            self.memo_hit_rate() * 100.0,
        )
    }
}

/// Formats a float with enough precision for a gate comparison and no
/// locale surprises.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "0.0".to_string()
    }
}

/// Reads the numeric value of a flat top-level `"key": <number>` pair out
/// of a report. Understands exactly what [`BenchReport::to_json`] writes;
/// returns `None` when the key is absent or non-numeric.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    json_number_required(text, key).ok()
}

/// What went wrong reading one gate-relevant field of a baseline report.
/// `perf_gate` surfaces this verbatim (field name plus problem) instead of
/// panicking on a hand-edited, truncated, or future-schema baseline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldError {
    /// The flat top-level key that could not be read.
    pub field: String,
    /// Human-readable description of the problem.
    pub problem: String,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field \"{}\" {}", self.field, self.problem)
    }
}

impl std::error::Error for FieldError {}

/// [`json_number`] with a structured error: distinguishes a missing key
/// from a malformed value so callers can report exactly what is bad.
pub fn json_number_required(text: &str, key: &str) -> Result<f64, FieldError> {
    let needle = format!("\"{key}\":");
    let Some(at) = text.find(&needle) else {
        return Err(FieldError {
            field: key.to_string(),
            problem: "is missing".to_string(),
        });
    };
    let rest = text[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| FieldError {
        field: key.to_string(),
        problem: format!(
            "is not a number (found {:?})",
            rest.chars().take(12).collect::<String>()
        ),
    })
}

/// Reads the string value of a flat top-level `"key": "value"` pair
/// (e.g. the `schema` tag); `None` when absent or not a string.
pub fn json_string(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The fixed simulation probe: two representative machines (the Table I
/// baseline and the paper's selected ZeroDEV configuration) each running
/// one multi-threaded workload serially for a fixed window. Kept small so
/// the gate finishes in seconds, and fixed forever so gate numbers compare
/// across commits.
fn gate_sim_probe() -> (u64, u64) {
    let params = RunParams {
        refs_per_core: 20_000,
        warmup_refs: 2_000,
        threads: 1,
        audit: false,
        faults: None,
        ..Default::default()
    };
    let mut cycles = 0u64;
    let mut refs = 0u64;
    for (cfg, app) in [
        (crate::baseline(), "ferret"),
        (crate::zerodev_default_nodir(), "canneal"),
    ] {
        let r = run(&cfg, crate::mt(app, 8), &params);
        cycles += r.result.completion_cycles;
        refs += r.result.refs_retired;
    }
    (cycles, refs)
}

/// Measures the standardized gate probe: best-of-3 timings of the fixed
/// simulation pair and a bounded model-checker exploration (best-of-N filters scheduler noise, which
/// only ever slows a run down).
pub fn measure_gate() -> GateNumbers {
    let mut sim_best = GateNumbers {
        sim_cycles_per_sec: 0.0,
        refs_per_sec: 0.0,
        mc_states_per_sec: 0.0,
    };
    for _ in 0..3 {
        let t0 = Instant::now();
        let (cycles, refs) = gate_sim_probe();
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        if cycles as f64 / dt > sim_best.sim_cycles_per_sec {
            sim_best.sim_cycles_per_sec = cycles as f64 / dt;
            sim_best.refs_per_sec = refs as f64 / dt;
        }
    }
    let mc = tiny(
        SpillPolicy::FusePrivateSpillShared,
        LlcDesign::NonInclusive,
        2,
        1,
        2,
        2,
    );
    for _ in 0..3 {
        let t0 = Instant::now();
        let ex = explore(&mc, &Limits::quick());
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        sim_best.mc_states_per_sec = sim_best.mc_states_per_sec.max(ex.states as f64 / dt);
    }
    sim_best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            pr: 6,
            threads: 4,
            quick: true,
            wall_secs: 120.5,
            summary: SweepSummary {
                runs_executed: 10,
                cache_hits: 5,
                failed: 0,
                sim_cycles: 1_000_000,
                refs_retired: 40_000,
                busy: Duration::from_secs(300),
            },
            gate: GateNumbers {
                sim_cycles_per_sec: 5.5e6,
                refs_per_sec: 2.5e5,
                mc_states_per_sec: 1.25e4,
            },
            figures: vec![
                FigureTiming {
                    name: "fig02".into(),
                    secs: 1.5,
                    failed: false,
                },
                FigureTiming {
                    name: "fig19".into(),
                    secs: 30.25,
                    failed: true,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_extractor() {
        let r = sample();
        let j = r.to_json();
        assert!(j.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert_eq!(json_number(&j, "pr"), Some(6.0));
        assert_eq!(json_number(&j, "threads"), Some(4.0));
        assert_eq!(json_number(&j, "sim_cycles"), Some(1e6));
        assert_eq!(json_number(&j, "refs_retired"), Some(40_000.0));
        assert_eq!(json_number(&j, "runs_executed"), Some(10.0));
        assert_eq!(json_number(&j, "cache_hits"), Some(5.0));
        let hit = json_number(&j, "memo_hit_rate").unwrap();
        assert!((hit - 1.0 / 3.0).abs() < 1e-3);
        let cps = json_number(&j, "sim_cycles_per_sec").unwrap();
        assert!((cps - 1e6 / 120.5).abs() < 1.0);
        assert_eq!(json_number(&j, "gate_sim_cycles_per_sec"), Some(5.5e6));
        assert_eq!(json_number(&j, "gate_refs_per_sec"), Some(2.5e5));
        assert_eq!(json_number(&j, "gate_mc_states_per_sec"), Some(1.25e4));
        assert_eq!(json_number(&j, "no_such_key"), None);
        assert_eq!(json_string(&j, "schema").as_deref(), Some(SCHEMA));
        // The writer emits exactly the v1 field set, in order.
        let keys: Vec<&str> = j
            .lines()
            .filter_map(|l| l.strip_prefix("  \""))
            .filter_map(|l| l.split('"').next())
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "pr",
                "threads",
                "quick",
                "wall_secs",
                "sim_cycles",
                "refs_retired",
                "sim_cycles_per_sec",
                "refs_per_sec",
                "runs_executed",
                "cache_hits",
                "memo_hit_rate",
                "failed_points",
                "gate_sim_cycles_per_sec",
                "gate_refs_per_sec",
                "gate_mc_states_per_sec",
                "figures",
            ]
        );
    }

    #[test]
    fn structured_reader_names_the_broken_field() {
        let j = sample().to_json();
        let missing = json_number_required(&j, "no_such_key").unwrap_err();
        assert_eq!(missing.field, "no_such_key");
        assert!(missing.problem.contains("missing"), "{missing}");
        let mangled = j.replace("\"pr\": 6", "\"pr\": oops");
        let bad = json_number_required(&mangled, "pr").unwrap_err();
        assert_eq!(bad.field, "pr");
        assert!(bad.problem.contains("not a number"), "{bad}");
        assert!(bad.to_string().contains("\"pr\""), "{bad}");
    }

    #[test]
    fn figures_array_lists_every_timing() {
        let j = sample().to_json();
        assert!(j.contains("{\"name\": \"fig02\", \"secs\": 1.5000, \"failed\": false}"));
        assert!(j.contains("{\"name\": \"fig19\", \"secs\": 30.2500, \"failed\": true}"));
    }

    #[test]
    fn digest_is_one_line() {
        let d = sample().digest();
        assert_eq!(d.lines().count(), 1);
        assert!(d.contains("BENCH pr6"));
    }
}
