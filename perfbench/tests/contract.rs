//! The benchmark's own contract: every workload reports every metric that
//! `BENCHMARK.json` declares, names are well formed, a perturbed seed or
//! machine yields a failed verdict instead of a crash, and the traced
//! mirrors reproduce the untraced runs exactly. Runs are shortened so the
//! suite stays quick; the checks do not depend on run length.

use std::time::Duration;
use zerodev_common::config::CacheGeometry;
use zerodev_perfbench::mc::McSpec;
use zerodev_perfbench::sim::SimSpec;
use zerodev_perfbench::{Mode, Outcome, WORKLOADS};

const SEED: u64 = 7;

fn short(name: &str) -> SimSpec {
    let mut s = SimSpec::named(name).expect("known workload");
    let cores = (s.cfg.cores * s.cfg.sockets) as u64;
    s.refs_per_core = 12_000 / cores;
    s.warmup_refs = 2_000 / cores;
    s.probe = (s.refs_per_core, s.warmup_refs);
    s.golden = None;
    s
}

/// The nine one-address machines of the matrix: quick to explore.
fn small_matrix() -> McSpec {
    let mut m = McSpec::matrix();
    m.points
        .retain(|p| p.addrs == 1 && p.sockets == 1 && p.cores == 2);
    m
}

fn run_sim(spec: &SimSpec, seed: u64, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    zerodev_perfbench::sim::run(spec, seed, Duration::ZERO, mode, &mut out);
    out
}

fn run_mc(spec: &McSpec, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    zerodev_perfbench::mc::run(spec, SEED, Duration::ZERO, mode, &mut out);
    out
}

/// The `name` entries of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn emitted(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_emits_exactly(out: &Outcome, want: &[String], what: &str) {
    let mut got = emitted(out);
    let mut want = want.to_vec();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "{what}: emitted metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(!e2e.is_empty() && !layers.is_empty());
    assert_eq!(declared("workloads"), WORKLOADS.to_vec());
    for name in WORKLOADS.iter().filter(|w| **w != "mc_matrix") {
        let spec = short(name);
        assert_emits_exactly(&run_sim(&spec, SEED, Mode::EndToEnd), &e2e, name);
        assert_emits_exactly(&run_sim(&spec, SEED, Mode::Traced), &layers, name);
    }
    let mc = small_matrix();
    assert_emits_exactly(&run_mc(&mc, Mode::EndToEnd), &e2e, "mc_matrix");
    assert_emits_exactly(&run_mc(&mc, Mode::Traced), &layers, "mc_matrix");
}

#[test]
fn declared_names_and_units_are_well_formed() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in declared(section) {
            assert!(name_ok(&name), "bad name {name:?} in {section}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }
    for out in [
        run_sim(&short("hits8"), SEED, Mode::EndToEnd),
        run_sim(&short("hits8"), SEED, Mode::Traced),
    ] {
        for m in &out.metrics {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?}", m.unit);
        }
    }
}

fn fingerprint(out: &Outcome) -> u64 {
    let line = out
        .notes
        .iter()
        .find_map(|n| n.strip_prefix("fingerprint 0x"))
        .expect("fingerprint note");
    u64::from_str_radix(&line[..16], 16).expect("hex fingerprint")
}

#[test]
fn perturbed_seed_or_machine_fails_the_verdict_without_crashing() {
    let mut spec = short("spill8");
    let first = run_sim(&spec, SEED, Mode::EndToEnd);
    assert!(Outcome::correct(&first));
    spec.golden = Some((SEED, fingerprint(&first)));
    assert!(Outcome::correct(&run_sim(&spec, SEED, Mode::EndToEnd)));

    // The golden claims to hold for another seed: those inputs differ.
    let mut seed_moved = spec.clone();
    seed_moved.golden = Some((SEED + 1, fingerprint(&first)));
    let out = run_sim(&seed_moved, SEED + 1, Mode::EndToEnd);
    assert!(!out.correct(), "perturbed seed passed");

    let mut machine_moved = spec.clone();
    machine_moved.cfg.llc = CacheGeometry::new(512 << 10, 16);
    let out = run_sim(&machine_moved, SEED, Mode::EndToEnd);
    assert!(out.failed > 0 && out.attempted > out.failed);

    let mut mc = small_matrix();
    mc.points[0].golden.1 += 1;
    let out = run_mc(&mc, Mode::EndToEnd);
    assert!(out.failed > 0 && !out.json().contains("\"correct\": true"));
}

#[test]
fn traced_mirror_matches_run_on_every_sim_workload() {
    for name in WORKLOADS.iter().filter(|w| **w != "mc_matrix") {
        let out = run_sim(&short(name), SEED, Mode::Traced);
        assert!(Outcome::correct(&out), "{name}: {:?}", out.notes);
        let value = |n: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert_eq!(value("gen.next_ref.calls_per_kref"), 1000.0, "{name}");
        assert!(value("core_model.hit.ns") > 0.0, "{name}");
        assert!(value("trace.overhead_x") > 0.0, "{name}");
    }
}

#[test]
fn model_checker_mirror_matches_explore() {
    let out = run_mc(&small_matrix(), Mode::Traced);
    assert!(Outcome::correct(&out), "{:?}", out.notes);
    let states = out
        .metrics
        .iter()
        .find(|m| m.name == "mc.states")
        .expect("mc.states");
    let want: usize = small_matrix().points.iter().map(|p| p.golden.0).sum();
    assert_eq!(states.value, want as f64);
}
