//! `zerodev-lint` — workspace static analysis for the ZeroDEV simulator.
//!
//! Two passes over a [`model::Workspace`] (a set of in-memory source
//! files, so tests can feed mutated sources):
//!
//! 1. [`determinism`] — deny ambient nondeterminism in the deterministic
//!    crates (hash-randomized containers, wall clocks, raw threads,
//!    OS randomness), with audited inline waivers.
//! 2. [`protocol_graph`] — extract the `MsgClass` consumes→emits graph
//!    from the annotated flows and verify deadlock-freedom: vnet-monotone
//!    edges, per-rank acyclicity, full producer/consumer coverage.
//!
//! Snapshot completeness is not a pass: every `snap`/`unsnap` destructures
//! its state exhaustively, so rustc rejects a dropped field (DESIGN.md §9).
//!
//! Rule catalog, waiver grammar, and the audited `DenfNack → Request`
//! retry edge are documented in DESIGN.md §12.

pub mod determinism;
pub mod lexer;
pub mod model;
pub mod protocol_graph;
pub mod report;

pub use model::{SourceFile, Workspace};
pub use report::Report;

/// Runs both passes plus waiver accounting over `ws`.
pub fn analyze(ws: &Workspace) -> Report {
    let p = model::Parsed::build(ws);
    let mut used = vec![false; p.waivers.len()];
    let mut findings = Vec::new();
    determinism::run(&p, &mut used, &mut findings);
    let graph = protocol_graph::run(&p, &mut used, &mut findings);
    let mut report = Report {
        findings,
        waivers: Vec::new(),
        graph,
    };
    report.add_waiver_findings(&p, &used);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_meta_findings_fire() {
        let ws = Workspace {
            files: vec![SourceFile {
                krate: "core".into(),
                path: "x.rs".into(),
                text: "// lint:allow(wall_clock)\nlet t = Instant::now();\n// lint:allow(thread_spawn, justified but nothing here)\nlet u = 1;\n".into(),
            }],
        };
        let r = analyze(&ws);
        assert!(r.findings.iter().any(|f| f.rule == "waiver_no_reason"));
        assert!(r.findings.iter().any(|f| f.rule == "waiver_unused"));
        // The Instant finding itself is waived (reasonless waivers still
        // suppress — the missing reason is its own finding).
        let wc = r.findings.iter().find(|f| f.rule == "wall_clock").unwrap();
        assert!(wc.waived_by.is_some());
        assert_eq!(r.unwaived().count(), 2);
    }
}
