//! The four simulation workloads: untraced end-to-end runs through the
//! public engine API, and the traced mirror of `PausedRun::advance`.

use crate::profile::{Profile, Span};
use crate::{guarded, Mode, Outcome, Samples, DEFAULT_SEED};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};
use zerodev_common::config::{CacheGeometry, DirectoryKind, ZeroDevConfig};
use zerodev_common::{CoreId, Cycle, MesiState, MsgClass, SocketId, Stats, SystemConfig};
use zerodev_core::{InvalReason, System};
use zerodev_sim::core_model::{AccessEffects, CoreModel};
use zerodev_sim::{RunStatus, SimResult, Simulation};
use zerodev_workloads::{multithreaded, Workload};

/// One simulation workload: a machine, an application and a run length.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Workload name.
    pub name: &'static str,
    /// The simulated machine.
    pub cfg: SystemConfig,
    /// Application run with one thread per core.
    pub app: &'static str,
    /// References each core retires in the measured region.
    pub refs_per_core: u64,
    /// Warm-up references per core before the statistics reset.
    pub warmup_refs: u64,
    /// Run with the coherence oracle attached.
    pub audit: bool,
    /// Run length `(refs/core, warm-up)` of the oracle probe: the same
    /// inputs simulated plain and audited, whose statistics must agree.
    pub probe: (u64, u64),
    /// `(seed, fingerprint)` of the pinned result, checked when the run
    /// uses that seed.
    pub golden: Option<(u64, u64)>,
}

/// 8-core ZeroDEV with FPSS + dataLRU, no dedicated directory and a 1 MB
/// LLC: entries spill and fuse into the LLC and go home through WB_DE.
fn spill_machine() -> SystemConfig {
    let mut cfg =
        SystemConfig::baseline_8core().with_zerodev(ZeroDevConfig::default(), DirectoryKind::None);
    cfg.llc = CacheGeometry::new(1 << 20, 16);
    cfg
}

impl SimSpec {
    /// The workload called `name`, or `None`.
    pub fn named(name: &str) -> Option<SimSpec> {
        let (name, cfg, app, refs_per_core, warmup_refs, audit, probe, golden) = match name {
            // Table I baseline; swaptions stays in the private hierarchy.
            "hits8" => (
                "hits8",
                SystemConfig::baseline_8core(),
                "swaptions",
                100_000,
                25_000,
                false,
                (12_500, 2_500),
                0xd1d7_b120_a9bf_bcd9,
            ),
            "spill8" => (
                "spill8",
                spill_machine(),
                "canneal",
                50_000,
                12_500,
                false,
                (12_500, 2_500),
                0x3740_07b3_1c5c_6408,
            ),
            "socket4" => (
                "socket4",
                SystemConfig::four_socket()
                    .with_zerodev(ZeroDevConfig::default(), DirectoryKind::None),
                "canneal",
                20_000,
                5_000,
                false,
                (600, 150),
                0x516c_9536_f1e0_be0b,
            ),
            // spill8's machine and seed under the oracle, shorter.
            "audit8" => (
                "audit8",
                spill_machine(),
                "canneal",
                12_500,
                2_500,
                true,
                (12_500, 2_500),
                0x3df9_03f5_95e2_2259,
            ),
            _ => return None,
        };
        Some(SimSpec {
            name,
            cfg,
            app,
            refs_per_core,
            warmup_refs,
            audit,
            probe,
            golden: Some((DEFAULT_SEED, golden)),
        })
    }

    fn cores(&self) -> usize {
        self.cfg.cores * self.cfg.sockets
    }

    fn workload(&self, seed: u64) -> Result<Workload, String> {
        multithreaded(self.app, self.cores(), seed)
            .ok_or_else(|| format!("unknown application {}", self.app))
    }
}

/// Behaviour fingerprint of a result: the full `Stats` rendering plus the
/// per-core trajectories, as the stats-parity tests take it.
fn fingerprint(stats: &Stats, cycles: &[u64], instrs: &[u64], completion: u64, refs: u64) -> u64 {
    zerodev_common::snap::fnv1a(
        format!("{stats:?}|{cycles:?}|{instrs:?}|{completion}|{refs}").as_bytes(),
    )
}

fn result_fingerprint(r: &SimResult) -> u64 {
    fingerprint(
        &r.stats,
        &r.core_cycles,
        &r.core_instrs,
        r.completion_cycles,
        r.refs_retired,
    )
}

/// One untraced run through the public engine API.
struct Timed {
    setup: Duration,
    region: Duration,
    finish: Duration,
    refs: u64,
    fingerprint: u64,
}

fn simulate(spec: &SimSpec, seed: u64, audit: bool, len: (u64, u64)) -> Result<Timed, String> {
    let wl = spec.workload(seed)?;
    let t0 = Instant::now();
    let mut sim = Simulation::new(&spec.cfg, wl);
    if audit {
        sim.enable_audit();
    }
    let mut run = sim.start(len.0, len.1);
    let t1 = Instant::now();
    let status = run.advance(u64::MAX).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    if status != RunStatus::Finished {
        return Err("unbounded advance paused".to_string());
    }
    let refs = run.refs_retired();
    let res = run.finish();
    let t3 = Instant::now();
    Ok(Timed {
        setup: t1 - t0,
        region: t2 - t1,
        finish: t3 - t2,
        refs,
        fingerprint: result_fingerprint(&res),
    })
}

/// Checks one attempt's fingerprint against the golden when one exists for
/// `seed`, otherwise against the run's first attempt; notes the first.
fn check_fingerprint(
    spec: &SimSpec,
    seed: u64,
    first: &mut Option<u64>,
    got: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let golden = spec.golden.filter(|g| g.0 == seed).map(|g| g.1);
    if first.is_none() {
        out.notes.push(format!(
            "fingerprint {got:#018x} ({})",
            match golden {
                Some(want) if want == got => "matches the golden",
                Some(_) => "DIFFERS from the golden",
                None => "no golden for this seed",
            }
        ));
    }
    let want = golden.unwrap_or(*first.get_or_insert(got));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: fingerprint {got:#018x}, expected {want:#018x}",
            spec.name
        ))
    }
}

/// The oracle probe: the same inputs plain and audited. Their results must
/// be identical; returns the oracle's cost per reference in ns.
fn oracle_probe(spec: &SimSpec, seed: u64) -> Result<f64, String> {
    let plain = simulate(spec, seed, false, spec.probe)?;
    let audited = simulate(spec, seed, true, spec.probe)?;
    if plain.fingerprint != audited.fingerprint {
        return Err(format!(
            "{}: audited run {:#018x} differs from unaudited {:#018x}",
            spec.name, audited.fingerprint, plain.fingerprint
        ));
    }
    let extra = audited.region.as_nanos() as f64 - plain.region.as_nanos() as f64;
    Ok(extra / plain.refs.max(1) as f64)
}

fn manifest(spec: &SimSpec) -> String {
    format!(
        "manifest: workload {}: {} core(s) x {} socket(s), {}x{}, {} refs/core after {} warm-up, \
         audit {}, shards 1, config fingerprint {:#018x}",
        spec.name,
        spec.cfg.cores,
        spec.cfg.sockets,
        spec.app,
        spec.cores(),
        spec.refs_per_core,
        spec.warmup_refs,
        if spec.audit { "on" } else { "off" },
        System::config_fingerprint(&spec.cfg)
    )
}

/// Runs one simulation workload in `mode` for about `budget`.
pub fn run(spec: &SimSpec, seed: u64, budget: Duration, mode: Mode, out: &mut Outcome) {
    out.notes.push(manifest(spec));
    let len = (spec.refs_per_core, spec.warmup_refs);
    let start = Instant::now();
    let mut first = None;
    match mode {
        Mode::EndToEnd => {
            let mut samples = Samples::default();
            loop {
                samples.calibrate();
                let r = guarded(|| simulate(spec, seed, spec.audit, len)).and_then(|t| {
                    samples.push(t.setup, t.region, t.finish, t.refs);
                    check_fingerprint(spec, seed, &mut first, t.fingerprint, out)
                });
                out.attempt(r);
                if start.elapsed() >= budget {
                    break;
                }
            }
            // Read before the oracle probe, whose audited machine is not
            // part of this workload.
            out.metrics = samples.metrics();
            out.notes.extend(samples.notes());
            out.attempt(guarded(|| oracle_probe(spec, seed)).map(|_| ()));
        }
        Mode::Traced => {
            let mut prof = Profile::default();
            let mut oracle = Vec::new();
            loop {
                let r = guarded(|| simulate(spec, seed, spec.audit, len)).and_then(|u| {
                    prof.untraced_wall += u.region + u.finish;
                    let verdict = check_fingerprint(spec, seed, &mut first, u.fingerprint, out);
                    let traced = guarded(|| mirror(spec, seed, &mut prof))?;
                    if traced == u.fingerprint {
                        verdict
                    } else {
                        Err(format!(
                            "{}: traced mirror {traced:#018x} differs from run() {:#018x}",
                            spec.name, u.fingerprint
                        ))
                    }
                });
                out.attempt(r);
                // One probe pair is too noisy where the oracle is cheap, so
                // every round adds one and the median is reported.
                out.attempt(guarded(|| oracle_probe(spec, seed)).map(|ns| oracle.push(ns)));
                if start.elapsed() >= budget {
                    break;
                }
            }
            prof.oracle_ns_per_ref = crate::median(&oracle);
            out.notes.push(format!(
                "trace: traced {:.3} s vs untraced {:.3} s over {} refs",
                prof.traced_wall.as_secs_f64(),
                prof.untraced_wall.as_secs_f64(),
                prof.refs
            ));
            out.metrics = prof.metrics();
        }
    }
}

/// `apply_effects_via` of the engine, calling the same public functions in
/// the same order; times each call when `prof` is given.
#[allow(clippy::too_many_arguments)]
fn apply_effects(
    sys: &mut System,
    cores: &mut [CoreModel],
    per_socket: usize,
    now: Cycle,
    fx: &mut AccessEffects,
    mlp: f64,
    mut prof: Option<&mut Profile>,
) -> u64 {
    let latency = fx.latency + (fx.uncore_latency as f64 / mlp.max(1.0)).round() as u64;
    let idx = |s: SocketId, c: CoreId| s.0 as usize * per_socket + c.0 as usize;
    for d in fx.downgrades.drain(..) {
        let a = Instant::now();
        let dirty = cores[idx(d.socket, d.core)].apply_downgrade(d.block);
        let b = close(&mut prof, Span::EngineEffects, a);
        if dirty {
            sys.sharing_writeback(now, d.socket, d.block);
            close(&mut prof, Span::SystemWriteback, b);
        }
    }
    while let Some(inv) = fx.invalidations.pop() {
        let a = Instant::now();
        let state = cores[idx(inv.socket, inv.core)].apply_invalidation(inv.block);
        let b = close(&mut prof, Span::EngineEffects, a);
        if state == MesiState::Modified {
            match inv.reason {
                InvalReason::Dev => {
                    sys.dev_dirty_recall_into(now, inv.socket, inv.block, &mut fx.invalidations);
                    close(&mut prof, Span::SystemWriteback, b);
                }
                InvalReason::Inclusion => {
                    sys.inclusion_dirty_writeback(now, inv.socket, inv.block);
                    close(&mut prof, Span::SystemWriteback, b);
                }
                InvalReason::Coherence => {}
            }
        }
    }
    latency
}

fn close(prof: &mut Option<&mut Profile>, span: Span, since: Instant) -> Instant {
    match prof {
        Some(p) => p.close(span, since),
        None => since,
    }
}

/// The traced mirror of `Simulation::new`, `start`, `PausedRun::advance`
/// and `finish`: same warm-up, same statistics reset, same `(time, core)`
/// event order, calling only public layer functions. Accumulates into
/// `prof` and returns the result fingerprint, which must equal the
/// untraced run's.
fn mirror(spec: &SimSpec, seed: u64, prof: &mut Profile) -> Result<u64, String> {
    let mut wl = spec.workload(seed)?;
    let cfg = &spec.cfg;
    let n = spec.cores();
    let t0 = Instant::now();
    let mut sys = System::new(cfg.clone()).map_err(|e| e.0)?;
    let mut cores = (0..n)
        .map(|t| {
            let socket = u8::try_from(t / cfg.cores).map_err(|e| e.to_string())?;
            let core = u16::try_from(t % cfg.cores).map_err(|e| e.to_string())?;
            Ok(CoreModel::new(cfg, SocketId(socket), CoreId(core)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    prof.system_new.push(t0.elapsed().as_secs_f64());
    if spec.audit {
        sys.enable_audit();
    }

    let t1 = Instant::now();
    let mut fx = AccessEffects::default();
    for _ in 0..spec.warmup_refs {
        for t in 0..n {
            let r = wl.threads[t].next_ref();
            let mlp = wl.threads[t].spec().mlp;
            cores[t].access_into(&mut sys, Cycle(0), r, &mut fx);
            apply_effects(
                &mut sys,
                &mut cores,
                cfg.cores,
                Cycle(0),
                &mut fx,
                mlp,
                None,
            );
        }
    }
    let mut fresh = Stats::new();
    fresh.spilled_lines_current = sys.stats.spilled_lines_current;
    fresh.spilled_lines_max = fresh.spilled_lines_current;
    fresh.dir_live_entries = sys.stats.dir_live_entries;
    fresh.dir_live_entries_max = fresh.dir_live_entries;
    sys.stats = fresh;
    prof.warmup.push(t1.elapsed().as_secs_f64());

    let (reads0, writes0) = sys.memory().dram_counts();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> =
        (0..n).map(|t| Reverse((t as u64, t))).collect();
    let mut refs_done = vec![0u64; n];
    let mut instrs = vec![0u64; n];
    let mut core_cycles = vec![0u64; n];
    let mut core_instrs = vec![0u64; n];
    let (mut finished, mut pops) = (0usize, 0u64);

    let region = Instant::now();
    while let Some(Reverse((now, t))) = queue.pop() {
        pops += 1;
        let a = Instant::now();
        let r = wl.threads[t].next_ref();
        let b = prof.close(Span::GenNextRef, a);
        let mlp = wl.threads[t].spec().mlp;
        let issue = now + u64::from(r.gap);
        let uncore = sys.stats.core_cache_misses + sys.stats.upgrades;
        cores[t].access_into(&mut sys, Cycle(issue), r, &mut fx);
        let entered = sys.stats.core_cache_misses + sys.stats.upgrades != uncore;
        prof.close(
            if entered {
                Span::CoreMiss
            } else {
                Span::CoreHit
            },
            b,
        );
        let lat = apply_effects(
            &mut sys,
            &mut cores,
            cfg.cores,
            Cycle(issue),
            &mut fx,
            mlp,
            Some(prof),
        );
        let done = issue + lat;
        instrs[t] += u64::from(r.gap) + 1;
        refs_done[t] += 1;
        if refs_done[t] == spec.refs_per_core {
            core_cycles[t] = done;
            core_instrs[t] = instrs[t];
            finished += 1;
            if finished == n {
                break;
            }
        }
        queue.push(Reverse((done, t)));
    }
    let a = Instant::now();
    sys.audit_sweep();
    prof.close(Span::OracleSweep, a);
    prof.traced_wall += region.elapsed();
    prof.refs += pops;

    let s = &sys.stats;
    let (reads, writes) = sys.memory().dram_counts();
    let work = [
        s.core_cache_misses,
        s.upgrades,
        s.llc_tag_lookups,
        s.dir_spills,
        s.dir_fuses,
        s.get_de_requests,
        s.count(MsgClass::WbDirEntry),
        s.msg_counts.iter().sum(),
        s.total_traffic_bytes(),
        reads - reads0,
        writes - writes0,
        s.socket_misses,
    ];
    for (acc, w) in prof.work.iter_mut().zip(work) {
        *acc += w;
    }
    let completion = core_cycles.iter().copied().max().unwrap_or(0);
    Ok(fingerprint(s, &core_cycles, &core_instrs, completion, pops))
}
