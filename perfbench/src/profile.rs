//! Per-layer accounting for the traced runs, and the one place that turns
//! it into the per-layer metric set. Every workload reports every name; a
//! layer a workload never calls reports zero calls, zero share and 0 ns.

use crate::Metric;
use std::time::{Duration, Instant};

/// A timed call site in the traced mirror.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// `ThreadGen::next_ref`.
    GenNextRef,
    /// `CoreModel::access_into` calls that stayed in the private hierarchy.
    CoreHit,
    /// `CoreModel::access_into` calls that entered `System::access_into`.
    CoreMiss,
    /// `CoreModel::apply_invalidation` / `apply_downgrade`.
    EngineEffects,
    /// `System::{dev_dirty_recall_into, inclusion_dirty_writeback,
    /// sharing_writeback}`.
    SystemWriteback,
    /// `System::audit_sweep`.
    OracleSweep,
    /// `ProtocolHarness::enabled_events`.
    HarnessEnabled,
    /// `ProtocolHarness::clone`.
    HarnessClone,
    /// `ProtocolHarness::apply`.
    HarnessApply,
    /// `zerodev_model::state::canonical_key`.
    CanonicalKey,
}

/// Every span, in report order.
pub const SPANS: [Span; 10] = [
    Span::GenNextRef,
    Span::CoreHit,
    Span::CoreMiss,
    Span::EngineEffects,
    Span::SystemWriteback,
    Span::OracleSweep,
    Span::HarnessEnabled,
    Span::HarnessClone,
    Span::HarnessApply,
    Span::CanonicalKey,
];

impl Span {
    /// The metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Span::GenNextRef => "gen.next_ref",
            Span::CoreHit => "core_model.hit",
            Span::CoreMiss => "core_model.miss",
            Span::EngineEffects => "engine.effects",
            Span::SystemWriteback => "system.writeback",
            Span::OracleSweep => "oracle.sweep",
            Span::HarnessEnabled => "harness.enabled_events",
            Span::HarnessClone => "harness.clone",
            Span::HarnessApply => "harness.apply",
            Span::CanonicalKey => "state.canonical_key",
        }
    }
}

/// Exact work counters, reported per 1k references. NoC load is read from
/// the protocol's message accounting in `Stats`: the mesh's own byte-hop
/// counters see only fault-injected traffic.
pub const WORK: [&str; 12] = [
    "core_model.l2_misses",
    "core_model.upgrades",
    "llc.tag_lookups",
    "dir.spills",
    "dir.fuses",
    "dir.get_de",
    "dir.wb_de",
    "noc.messages",
    "noc.bytes",
    "dram.reads",
    "dram.writes",
    "socket.misses",
];

/// Accumulated per-layer time and counts over one or more traced replays.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    calls: [u64; SPANS.len()],
    time: [Duration; SPANS.len()],
    /// References (or model-checker transitions) the traced replays retired.
    pub refs: u64,
    /// Wall time of the traced replays' measured regions.
    pub traced_wall: Duration,
    /// Wall time of the untraced runs on the same inputs.
    pub untraced_wall: Duration,
    /// Time in `Simulation::new`'s work (`System::new` plus core models).
    pub system_new: Vec<f64>,
    /// Time in the warm-up.
    pub warmup: Vec<f64>,
    /// Oracle cost per reference: audited minus plain region time.
    pub oracle_ns_per_ref: f64,
    /// Work counter totals, indexed like [`WORK`].
    pub work: [u64; WORK.len()],
    /// Distinct model-checker states (totals over the matrix).
    pub mc_states: u64,
    /// Model-checker transitions (totals over the matrix).
    pub mc_transitions: u64,
}

impl Profile {
    /// Charges one call of `span` that started at `since`; returns the end
    /// instant so consecutive spans share one clock read.
    #[inline]
    pub fn close(&mut self, span: Span, since: Instant) -> Instant {
        let now = Instant::now();
        self.calls[span as usize] += 1;
        self.time[span as usize] += now - since;
        now
    }

    fn ns_per_call(&self, span: Span) -> f64 {
        let calls = self.calls[span as usize];
        if calls == 0 {
            0.0
        } else {
            self.time[span as usize].as_nanos() as f64 / calls as f64
        }
    }

    fn per_kref(&self, count: u64) -> f64 {
        count as f64 * 1000.0 / self.refs.max(1) as f64
    }

    /// The full per-layer metric set.
    pub fn metrics(&self) -> Vec<Metric> {
        let wall = self.traced_wall.as_nanos().max(1) as f64;
        let mut m = Vec::new();
        let mut spanned = 0.0;
        for s in SPANS {
            let total = self.time[s as usize].as_nanos() as f64;
            spanned += total;
            m.push(Metric::new(
                format!("{}.ns", s.name()),
                self.ns_per_call(s),
                "ns",
            ));
            m.push(Metric::new(
                format!("{}.calls_per_kref", s.name()),
                self.per_kref(self.calls[s as usize]),
                "count",
            ));
            m.push(Metric::new(
                format!("{}.share_pct", s.name()),
                100.0 * total / wall,
                "%",
            ));
        }
        // The driver loop's own time: what no span covers, so the shares
        // sum to 100%. It includes the clock reads the tracing adds.
        let own = (wall - spanned).max(0.0);
        m.push(Metric::new(
            "driver.self.ns",
            own / self.refs.max(1) as f64,
            "ns",
        ));
        m.push(Metric::new(
            "driver.self.share_pct",
            100.0 * own / wall,
            "%",
        ));
        let hit = self.ns_per_call(Span::CoreHit);
        let miss = self.ns_per_call(Span::CoreMiss);
        m.push(Metric::new(
            "system.access.ns_est",
            if self.calls[Span::CoreMiss as usize] == 0 {
                0.0
            } else {
                miss - hit
            },
            "ns",
        ));
        m.push(Metric::new(
            "oracle.ns_per_ref",
            self.oracle_ns_per_ref,
            "ns",
        ));
        m.push(Metric::new(
            "setup.system_new.s",
            crate::median(&self.system_new),
            "s",
        ));
        m.push(Metric::new(
            "setup.warmup.s",
            crate::median(&self.warmup),
            "s",
        ));
        m.push(Metric::new(
            "trace.overhead_x",
            self.traced_wall.as_secs_f64() / self.untraced_wall.as_secs_f64().max(1e-9),
            "x",
        ));
        m.push(Metric::new("trace.refs", self.refs as f64, "count"));
        for (name, &count) in WORK.iter().zip(&self.work) {
            m.push(Metric::new(*name, self.per_kref(count), "count/kref"));
        }
        m.push(Metric::new("mc.states", self.mc_states as f64, "count"));
        m.push(Metric::new(
            "mc.transitions",
            self.mc_transitions as f64,
            "count",
        ));
        m
    }
}
