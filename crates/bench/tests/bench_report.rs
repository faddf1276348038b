//! Smoke test for the committed `BENCH_<pr>.json` throughput reports: every
//! report at the repo root must carry the schema marker and the numeric
//! keys the CI perf gate and future trend tooling read. Catches a
//! hand-edited or truncated report before the gate trips over it.

use zerodev_bench::report::{json_number, json_string, SCHEMA, SCHEMA_V2};

/// Keys every committed report must expose as positive numbers.
const REQUIRED_POSITIVE: &[&str] = &[
    "pr",
    "threads",
    "wall_secs",
    "sim_cycles",
    "refs_retired",
    "sim_cycles_per_sec",
    "refs_per_sec",
    "runs_executed",
    "gate_sim_cycles_per_sec",
    "gate_refs_per_sec",
    "gate_mc_states_per_sec",
];

/// Keys that must parse but may legitimately be zero.
const REQUIRED: &[&str] = &["cache_hits", "memo_hit_rate", "failed_points"];

#[test]
fn committed_bench_reports_satisfy_the_schema() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves");
    let mut reports = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            reports.push(path);
        }
    }
    assert!(
        !reports.is_empty(),
        "no BENCH_*.json committed at {} — every PR commits its throughput report",
        root.display()
    );
    for path in reports {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let schema = json_string(&text, "schema")
            .unwrap_or_else(|| panic!("{} lacks a schema marker", path.display()));
        assert!(
            schema == SCHEMA || schema == SCHEMA_V2,
            "{}: unknown schema {schema:?} (expected {SCHEMA:?} or {SCHEMA_V2:?})",
            path.display()
        );
        for key in REQUIRED_POSITIVE {
            let v = json_number(&text, key)
                .unwrap_or_else(|| panic!("{}: key {key:?} missing", path.display()));
            assert!(
                v > 0.0,
                "{}: key {key:?} must be positive, got {v}",
                path.display()
            );
        }
        for key in REQUIRED {
            assert!(
                json_number(&text, key).is_some(),
                "{}: key {key:?} missing",
                path.display()
            );
        }
        assert!(
            text.contains("\"figures\": ["),
            "{} lacks the per-figure timing array",
            path.display()
        );
    }
}
