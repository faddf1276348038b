//! The `mc_matrix` workload: the model checker's 17-config exhaustive
//! matrix (no mutation hunt), and the traced mirror of its BFS.

use crate::profile::{Profile, Span};
use crate::{guarded, median, Mode, Outcome, Samples};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use zerodev_common::config::{LlcDesign, SpillPolicy};
use zerodev_common::rng::Prng;
use zerodev_core::{ProtocolHarness, System};
use zerodev_model::config::tiny;
use zerodev_model::explore::{explore, Limits};
use zerodev_model::state::canonical_key;
use zerodev_model::ModelConfig;

/// One machine of the matrix: the arguments of
/// [`zerodev_model::config::tiny`] and its pinned `(states, transitions)`.
#[derive(Clone, Copy, Debug)]
pub struct McPoint {
    /// Spill policy.
    pub policy: SpillPolicy,
    /// LLC inclusion design.
    pub design: LlcDesign,
    /// Cores per socket.
    pub cores: usize,
    /// Sockets.
    pub sockets: usize,
    /// Block addresses per home.
    pub addrs: usize,
    /// LLC ways.
    pub ways: usize,
    /// Exhaustive `(states, transitions)` of a clean exploration.
    pub golden: (usize, usize),
}

impl McPoint {
    fn build(&self) -> ModelConfig {
        tiny(
            self.policy,
            self.design,
            self.cores,
            self.sockets,
            self.addrs,
            self.ways,
        )
    }
}

/// The matrix the `zerodev_model` binary explores in full mode.
#[derive(Clone, Debug)]
pub struct McSpec {
    /// Its machines.
    pub points: Vec<McPoint>,
}

/// Times the setup this many times per sweep and keeps the median: it
/// takes well under a millisecond, so one sample is mostly noise.
const SETUP_REPEATS: usize = 100;

impl McSpec {
    /// The 17-config matrix of `zerodev_model`: 3 policies x 3 LLC designs
    /// on the smallest machine, then the richer machines.
    pub fn matrix() -> Self {
        use LlcDesign::{Epd, Inclusive, NonInclusive};
        use SpillPolicy::{FuseAll, FusePrivateSpillShared as Fpss, SpillAll};
        let p = |policy, design, cores, sockets, addrs, ways, golden| McPoint {
            policy,
            design,
            cores,
            sockets,
            addrs,
            ways,
            golden,
        };
        McSpec {
            points: vec![
                p(SpillAll, NonInclusive, 2, 1, 1, 1, (11, 54)),
                p(SpillAll, Epd, 2, 1, 1, 1, (14, 70)),
                p(SpillAll, Inclusive, 2, 1, 1, 1, (11, 54)),
                p(Fpss, NonInclusive, 2, 1, 1, 1, (19, 92)),
                p(Fpss, Epd, 2, 1, 1, 1, (14, 70)),
                p(Fpss, Inclusive, 2, 1, 1, 1, (19, 92)),
                p(FuseAll, NonInclusive, 2, 1, 1, 1, (11, 54)),
                p(FuseAll, Epd, 2, 1, 1, 1, (24, 117)),
                p(FuseAll, Inclusive, 2, 1, 1, 1, (11, 54)),
                p(SpillAll, NonInclusive, 2, 1, 2, 2, (1027, 9734)),
                p(SpillAll, Epd, 2, 1, 2, 1, (229, 2200)),
                p(Fpss, NonInclusive, 2, 1, 2, 2, (1801, 17104)),
                p(Fpss, Epd, 2, 1, 2, 1, (229, 2200)),
                p(FuseAll, NonInclusive, 2, 1, 2, 2, (293, 2820)),
                p(FuseAll, Epd, 2, 1, 2, 1, (357, 3424)),
                p(Fpss, Inclusive, 3, 1, 1, 1, (21, 161)),
                p(Fpss, NonInclusive, 2, 2, 1, 1, (11963, 246684)),
            ],
        }
    }

    /// The points in a seed-determined order. The seed changes only the
    /// order: each exploration is exhaustive, so results do not depend on
    /// it.
    fn ordered(&self, seed: u64) -> Vec<(McPoint, ModelConfig)> {
        let mut pts: Vec<McPoint> = self.points.clone();
        let mut rng = Prng::seeded(seed);
        for i in (1..pts.len()).rev() {
            let j = usize::try_from(rng.below(i as u64 + 1)).expect("index fits");
            pts.swap(i, j);
        }
        pts.into_iter().map(|p| (p, p.build())).collect()
    }
}

/// Builds every `ModelConfig` and its initial audited `ProtocolHarness`,
/// returning the time it took.
fn setup(spec: &McSpec) -> Result<Duration, String> {
    let t = Instant::now();
    for p in &spec.points {
        let mc = p.build();
        let h = ProtocolHarness::new(mc.cfg, mc.blocks, true).map_err(|e| e.0)?;
        std::hint::black_box(h);
    }
    Ok(t.elapsed())
}

fn check(name: &str, p: &McPoint, states: usize, transitions: usize) -> Result<(), String> {
    if (states, transitions) == p.golden {
        Ok(())
    } else {
        Err(format!(
            "{name}: {states} states / {transitions} transitions, pinned {} / {}",
            p.golden.0, p.golden.1
        ))
    }
}

/// One untraced sweep of the matrix through `explore`; returns the region
/// time and the transitions explored. Samples the host speed between
/// explorations into `speed` when given (outside the timed region).
fn sweep(
    order: &[(McPoint, ModelConfig)],
    mut speed: Option<&mut Samples>,
) -> Result<(Duration, u64), String> {
    let mut region = Duration::ZERO;
    let mut transitions = 0u64;
    for (p, mc) in order {
        if let Some(s) = speed.as_deref_mut() {
            s.calibrate();
        }
        let t = Instant::now();
        let ex = explore(mc, &Limits::default());
        region += t.elapsed();
        if let Some(v) = ex.violation.as_ref().or(ex.undrainable.as_ref()) {
            return Err(format!("{}: {}", mc.name, v.message));
        }
        if ex.truncated {
            return Err(format!("{}: exploration truncated", mc.name));
        }
        check(&mc.name, p, ex.states, ex.transitions)?;
        transitions += ex.transitions as u64;
    }
    Ok((region, transitions))
}

/// Runs the matrix in `mode` for about `budget`.
pub fn run(spec: &McSpec, seed: u64, budget: Duration, mode: Mode, out: &mut Outcome) {
    let order = spec.ordered(seed);
    out.notes.push(format!(
        "manifest: workload mc_matrix: {} configs, exhaustive (no limits), no mutation hunt, \
         serial, config order from the seed",
        order.len()
    ));
    for (_, mc) in &order {
        out.notes.push(format!(
            "manifest: config fingerprint {:#018x}  {}",
            System::config_fingerprint(&mc.cfg),
            mc.name
        ));
    }
    let start = Instant::now();
    match mode {
        Mode::EndToEnd => {
            let mut samples = Samples::default();
            loop {
                let r = guarded(|| {
                    samples.calibrate();
                    let mut reps = Vec::with_capacity(SETUP_REPEATS);
                    for _ in 0..SETUP_REPEATS {
                        reps.push(setup(spec)?.as_secs_f64());
                    }
                    let setup = Duration::from_secs_f64(median(&reps));
                    let (region, transitions) = sweep(&order, Some(&mut samples))?;
                    samples.push(setup, region, Duration::ZERO, transitions);
                    Ok(())
                });
                out.attempt(r);
                if start.elapsed() >= budget {
                    break;
                }
            }
            out.metrics = samples.metrics();
            out.notes.extend(samples.notes());
        }
        Mode::Traced => {
            let mut prof = Profile::default();
            let mut plain = Profile::default();
            loop {
                let r = guarded(|| {
                    let t = Instant::now();
                    setup(spec)?;
                    prof.system_new.push(t.elapsed().as_secs_f64());
                    let (region, _) = sweep(&order, None)?;
                    prof.untraced_wall += region;
                    let (mut states, mut transitions) = (0, 0);
                    for (p, mc) in &order {
                        let (s, tr) = mirror(mc, true, &mut prof)?;
                        check(&format!("traced mirror of {}", mc.name), p, s, tr)?;
                        states += s;
                        transitions += tr;
                        let (s, tr) = mirror(mc, false, &mut plain)?;
                        check(&format!("unaudited mirror of {}", mc.name), p, s, tr)?;
                    }
                    prof.mc_states = states as u64;
                    prof.mc_transitions = transitions as u64;
                    Ok(())
                });
                out.attempt(r);
                if start.elapsed() >= budget {
                    break;
                }
            }
            // Both mirrors carry the same tracing, so their difference is
            // what the attached oracle costs per transition.
            prof.oracle_ns_per_ref = (prof.traced_wall.as_nanos() as f64
                - plain.traced_wall.as_nanos() as f64)
                / prof.refs.max(1) as f64;
            out.notes.push(format!(
                "trace: traced {:.3} s vs untraced {:.3} s over {} transitions",
                prof.traced_wall.as_secs_f64(),
                prof.untraced_wall.as_secs_f64(),
                prof.refs
            ));
            out.metrics = prof.metrics();
        }
    }
}

/// The traced mirror of `explore`'s BFS (hashed dedup over canonical keys,
/// drain check), timing each call into the harness and the state encoder.
/// Returns `(states, transitions)`, which must equal `explore`'s.
fn mirror(mc: &ModelConfig, audit: bool, prof: &mut Profile) -> Result<(usize, usize), String> {
    let region = Instant::now();
    let h0 = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), audit).map_err(|e| e.0)?;
    let a = Instant::now();
    let k0 = canonical_key(&h0);
    prof.close(Span::CanonicalKey, a);

    let mut visited: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut quiescent = vec![h0.is_quiescent()];
    let mut succs: Vec<Vec<u32>> = vec![Vec::new()];
    let mut queue: VecDeque<(ProtocolHarness, u32)> = VecDeque::new();
    visited.insert(k0, 0);
    queue.push_back((h0, 0));
    let mut transitions = 0usize;

    while let Some((h, id)) = queue.pop_front() {
        let a = Instant::now();
        let events = h.enabled_events();
        prof.close(Span::HarnessEnabled, a);
        for ev in events {
            let a = Instant::now();
            let mut next = h.clone();
            let b = prof.close(Span::HarnessClone, a);
            let res = panic::catch_unwind(AssertUnwindSafe(|| next.apply(ev)));
            let c = prof.close(Span::HarnessApply, b);
            transitions += 1;
            match res {
                Err(_) => return Err(format!("{}: machine panic on {ev}", mc.name)),
                Ok(Err(v)) => return Err(format!("{}: {v}", mc.name)),
                Ok(Ok(())) => {}
            }
            let key = canonical_key(&next);
            prof.close(Span::CanonicalKey, c);
            let to = if let Some(&existing) = visited.get(&key) {
                existing
            } else {
                let nid = u32::try_from(visited.len()).map_err(|e| e.to_string())?;
                visited.insert(key, nid);
                quiescent.push(next.is_quiescent());
                succs.push(Vec::new());
                queue.push_back((next, nid));
                nid
            };
            succs[id as usize].push(to);
        }
    }

    // Drain check: every state must reach a quiescent one.
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); succs.len()];
    for (from, outs) in succs.iter().enumerate() {
        for &to in outs {
            preds[to as usize].push(from as u32);
        }
    }
    let mut drains = quiescent.clone();
    let mut bfs: VecDeque<u32> = (0..quiescent.len() as u32)
        .filter(|&i| quiescent[i as usize])
        .collect();
    while let Some(i) = bfs.pop_front() {
        for &p in &preds[i as usize] {
            if !drains[p as usize] {
                drains[p as usize] = true;
                bfs.push_back(p);
            }
        }
    }
    if drains.iter().any(|d| !d) {
        return Err(format!("{}: undrainable state (livelock)", mc.name));
    }
    prof.traced_wall += region.elapsed();
    prof.refs += transitions as u64;
    Ok((visited.len(), transitions))
}
