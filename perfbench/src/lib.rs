//! Same-host benchmark of the ZeroDEV simulator.
//!
//! One call of [`run`] executes one named workload serially in this
//! process (one thread, `shards = 1`) and returns every metric with its
//! unit plus a correctness verdict. Untraced runs report the end-to-end
//! metrics; traced runs ([`Mode::Traced`]) replay the same inputs through a
//! mirror of the simulator's driver loop that times each call into a
//! layer's public functions, and report the per-layer metrics. The mirror
//! is only trusted when its final statistics equal the untraced run's.
//!
//! See `README.md` beside this crate for the metric → layer → workload
//! table and why each workload exists.

pub mod mc;
mod profile;
pub mod sim;

use std::time::Duration;

/// The figure seed: workloads use it unless a seed is given.
pub const DEFAULT_SEED: u64 = 0x5eed_2021;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = ["hits8", "spill8", "socket4", "audit8", "mc_matrix"];

/// Which metric set a run reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// End-to-end metrics, tracing off.
    EndToEnd,
    /// Per-layer metrics from the traced mirror.
    Traced,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Attempts made (simulations, matrix sweeps, mirror replays, checks).
    pub attempted: u64,
    /// Attempts that panicked, returned an error, found a violation or
    /// failed a check.
    pub failed: u64,
    /// Every metric of the run's mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: the run manifest, fingerprints, and the reason
    /// for each failure.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one attempt; a failure keeps its reason as a note.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// The verdict: at least one attempt, and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a value that is not finite (a ratio over an
/// empty measurement) is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs `workload` with inputs from `seed`, measuring for about `seconds`
/// (at least one full attempt). Returns `None` for an unknown workload.
pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode) -> Option<Outcome> {
    let mut out = Outcome::default();
    out.notes.extend(host_manifest(seed));
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    if workload == "mc_matrix" {
        mc::run(&mc::McSpec::matrix(), seed, budget, mode, &mut out);
    } else {
        let spec = sim::SimSpec::named(workload)?;
        sim::run(&spec, seed, budget, mode, &mut out);
    }
    Some(out)
}

/// The median of the finite values (mean of the middle pair for even
/// counts); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A note with a sample's size, minimum, median and maximum.
fn spread_note(name: &str, values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "samples: {name} over {} runs: min {lo:.6} median {:.6} max {hi:.6}",
        values.len(),
        median(values)
    )
}

/// Rate of [`host_speed`]'s loop on the reference host, in operations per
/// second.
pub const REFERENCE_OPS_PER_S: f64 = 2.5e8;

/// The host's current speed relative to the reference host.
///
/// Times a fixed loop that lives in this benchmark, not in the simulator:
/// random read-modify-writes over a 4 MB table, bound by the cache and
/// memory latency that also bound the simulator. On a shared host, busy
/// neighbours slow every run by up to a third for seconds at a time; the
/// loop slows with them. [`Samples`] takes this between timed pieces and
/// multiplies end-to-end times by the run's median of it, giving
/// reference-speed seconds: equal to host seconds on a host running at
/// reference speed, and steady when the host's speed drifts. A change to
/// the simulator moves them in full, since the loop runs no simulator code.
pub fn host_speed() -> f64 {
    const SLOTS: usize = 1 << 19;
    const OPS: u32 = 1 << 20;
    CALIBRATION.with(|t| {
        let mut table = t.borrow_mut();
        if table.is_empty() {
            *table = (0..SLOTS as u64).collect();
        }
        let start = std::time::Instant::now();
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (SLOTS - 1);
            acc = acc.wrapping_add(table[i]);
            table[i] = acc;
        }
        std::hint::black_box(acc);
        f64::from(OPS) / start.elapsed().as_secs_f64() / REFERENCE_OPS_PER_S
    })
}

thread_local! {
    /// [`host_speed`]'s table: filled once, then resident until the process
    /// exits, so [`peak_rss_mb`] can take it out exactly.
    static CALIBRATION: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// End-to-end samples of one run: one entry per measured attempt, in host
/// time, plus the host speed sampled between attempts.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    setup: Vec<f64>,
    region: Vec<f64>,
    rate: Vec<f64>,
    wall: Vec<f64>,
    speed: Vec<f64>,
    work: u64,
}

impl Samples {
    /// Samples the host speed ([`host_speed`]); call between timed pieces.
    pub fn calibrate(&mut self) {
        self.speed.push(host_speed());
    }

    /// Records one attempt: `work` units retired in `region` after `setup`,
    /// then `rest` until the result was sealed.
    pub fn push(&mut self, setup: Duration, region: Duration, rest: Duration, work: u64) {
        self.setup.push(setup.as_secs_f64());
        self.region.push(region.as_secs_f64());
        self.rate.push(work as f64 / region.as_secs_f64());
        self.wall.push((setup + region + rest).as_secs_f64());
        self.work += work;
    }

    /// The end-to-end metric set in reference-speed time (host time times
    /// the run's median host speed): throughput over all measured regions,
    /// mean attempt wall time, median setup time, and `peak_rss_mb` read
    /// now. Totals rather than medians for the first two, because a run of
    /// `mc_matrix` holds only a handful of multi-second attempts.
    pub fn metrics(&self) -> Vec<Metric> {
        let speed = median(&self.speed);
        let attempts = self.wall.len().max(1) as f64;
        let region: f64 = self.region.iter().sum();
        vec![
            Metric::new("refs_per_s", self.work as f64 / (region * speed), "1/s"),
            Metric::new("setup_s", median(&self.setup) * speed, "s"),
            Metric::new(
                "wall_s",
                self.wall.iter().sum::<f64>() / attempts * speed,
                "s",
            ),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// Sample sizes and ranges in host time, and the host speed.
    pub fn notes(&self) -> Vec<String> {
        vec![
            spread_note("host refs_per_s", &self.rate),
            spread_note("host setup_s", &self.setup),
            spread_note("host wall_s", &self.wall),
            spread_note("host speed", &self.speed),
        ]
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string payload".to_string())
        ))
    })
}

/// Peak resident set size of this process (`VmHWM`) less the calibration
/// table, in MB.
pub fn peak_rss_mb() -> f64 {
    let table = CALIBRATION.with(|t| t.borrow().len() * std::mem::size_of::<u64>());
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| (kb * 1024.0 - table as f64) / f64::from(1 << 20))
}

/// The manifest lines every run prints: revision, host, seed. Numbers are
/// only comparable between runs on the same host.
fn host_manifest(seed: u64) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        format!("manifest: git_rev {}", git_rev()),
        format!("manifest: host cpu \"{cpu}\", nproc {nproc}"),
        format!(
            "manifest: seed {seed:#x}{}",
            if seed == DEFAULT_SEED {
                " (figure seed)"
            } else {
                ""
            }
        ),
        "manifest: host times compare only with runs on this same host; \
         numbers from another host are informational"
            .to_string(),
    ]
}

/// The checked-out revision, read from `.git` without running git; a
/// checkout that is not a git repository reports `unknown`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}
