//! Same-host A/B performance gate.
//!
//! `cargo run --release -p zerodev-bench --bin perf_gate -- [BASE]`
//!
//! Builds `perfbench` twice from one source directory,
//! `target/perf_gate/src`, into one target dir: first with `BASE` (default
//! `HEAD`) checked out there, then with the working tree's tracked and
//! untracked-but-not-ignored files in its place. Then runs [`PAIRS`] pairs
//! of every workload named in `BENCHMARK.json` for [`SECONDS`] s each,
//! alternating which side goes first. Only `refs_per_s` is judged
//! ([`judge`]).
//!
//! One directory for both sides is what makes unchanged code build to the
//! same binary: cargo's `-C metadata` hash covers each path package's
//! location, so the same sources built from two directories differ in
//! symbol names and code layout.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Pairs of runs per workload. If unchanged code won or lost each pair at
/// random, the nine-tenths rule of [`judge`] would fail about one gate run
/// (of five workloads) in twenty at ten pairs, and one in sixty at twelve.
const PAIRS: usize = 12;
/// `--seconds` of each perfbench run.
const SECONDS: &str = "2";

/// What the gate reads from one perfbench run; the default is an
/// unreadable run, which counts as incorrect.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Run {
    refs_per_s: f64,
    correct: bool,
    failed: u64,
}

/// Parses perfbench's stdout: the `refs_per_s value unit` line and the
/// final JSON line's `correct` and `failed`. `None` if either is missing.
fn parse_run(stdout: &str) -> Option<Run> {
    let refs_per_s = stdout.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some("refs_per_s")).then(|| f.next()?.parse().ok())?
    })?;
    let json = stdout.lines().rev().find(|l| l.starts_with('{'))?;
    let field = |key: &str| {
        let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
        json[at..].split([',', '}']).next()
    };
    Some(Run {
        refs_per_s,
        correct: field("correct")? == "true",
        failed: field("failed")?.parse().ok()?,
    })
}

/// The names in the `workloads` array of `BENCHMARK.json`.
fn workload_names(benchmark_json: &str) -> Vec<String> {
    let Some(at) = benchmark_json.find("\"workloads\"") else {
        return Vec::new();
    };
    let list = &benchmark_json[at..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    let name = |s: &str| Some(s.split('"').nth(1)?.to_string());
    list.split("\"name\"").skip(1).filter_map(name).collect()
}

/// First quartile, median and third quartile of `refs_per_s`, linearly
/// interpolated.
fn quartiles(runs: &[Run]) -> [f64; 3] {
    let mut v: Vec<f64> = runs.iter().map(|r| r.refs_per_s).collect();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    })
}

/// The decision for one workload; `base[i]` and `change[i]` are pair `i`.
/// Fails if either side was incorrect, if the change failed more attempts,
/// or if the change's `refs_per_s` lost at least nine tenths of the pairs.
/// There is no effect-size clause: on a 2-CPU host the base's own
/// interquartile range reached 12%, as large as the loss of a 30% slower
/// `core_model.miss`, and does not shrink with more pairs.
fn judge(base: &[Run], change: &[Run]) -> Result<String, String> {
    if base.iter().chain(change).any(|r| !r.correct) {
        return Err("a run reported \"correct\": false".into());
    }
    let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<u64>();
    let (fb, fc) = (failed(base), failed(change));
    if fc > fb {
        return Err(format!("{fc} failed attempts against {fb}"));
    }
    let ([b_q1, b_med, b_q3], [_, c_med, _]) = (quartiles(base), quartiles(change));
    let iqr = b_q3 - b_q1;
    let pairs = base.iter().zip(change);
    let lost = pairs.filter(|(b, c)| c.refs_per_s < b.refs_per_s).count();
    let line = format!(
        "refs_per_s median {b_med:.0} -> {c_med:.0} ({:.3}x, base IQR {iqr:.0}), lost {lost}/{}",
        c_med / b_med,
        base.len()
    );
    if lost * 10 >= base.len() * 9 {
        Err(line)
    } else {
        Ok(line)
    }
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").arg("-C").arg(root).args(args).output();
    let out = out.map_err(|e| format!("git: {e}"))?;
    let text = |b: &[u8]| String::from_utf8_lossy(b).trim().to_string();
    if !out.status.success() {
        return Err(format!("git {}: {}", args.join(" "), text(&out.stderr)));
    }
    Ok(text(&out.stdout))
}

/// Empties `src`, creating it if needed.
fn reset(src: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(src);
    std::fs::create_dir_all(src).map_err(|e| format!("{}: {e}", src.display()))
}

/// Fills `src` with the tree of revision `rev`.
fn checkout(root: &Path, rev: &str, src: &Path) -> Result<(), String> {
    reset(src)?;
    let mut archive = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    // `-m` stamps the files now: with the archive's commit-time stamps,
    // cargo would take the previous gate run's artifacts for up to date.
    let tar = Command::new("tar")
        .args(["-x", "-m", "-C"])
        .arg(src)
        .stdin(archive.stdout.take().expect("piped"))
        .status();
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !archived.success() || !tar.map_err(|e| format!("tar: {e}"))?.success() {
        return Err(format!("checking out {rev} into {} failed", src.display()));
    }
    Ok(())
}

/// Fills `src` with the working tree's tracked and untracked-but-not-ignored
/// files (a tracked file deleted from the working tree stays out).
fn sync(root: &Path, src: &Path) -> Result<(), String> {
    reset(src)?;
    let files = git(
        root,
        &[
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ],
    )?;
    for rel in files.split('\0').filter(|f| !f.is_empty()) {
        let from = root.join(rel);
        if !from.is_file() {
            continue;
        }
        let to = src.join(rel);
        let copied = std::fs::create_dir_all(to.parent().expect("a file has a parent"))
            .and_then(|()| std::fs::copy(&from, &to));
        copied.map_err(|e| format!("{}: {e}", to.display()))?;
    }
    Ok(())
}

/// Builds `src`'s perfbench into `target` and returns the binary.
fn build(src: &Path, target: &Path) -> Result<PathBuf, String> {
    let manifest = src.join("perfbench/Cargo.toml");
    let status = Command::new("cargo")
        .args("build --offline --release --quiet --manifest-path".split(' '))
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target)
        .status();
    if !status.map_err(|e| format!("cargo: {e}"))?.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(target.join("release/zerodev-perfbench"))
}

/// One perfbench run.
fn bench(bin: &Path, workload: &str) -> Run {
    let args = ["--workload", workload, "--seconds", SECONDS];
    let out = Command::new(bin).args(args).output().ok();
    let stdout = out.map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    stdout.as_deref().and_then(parse_run).unwrap_or_default()
}

fn gate(base_rev: &str) -> Result<bool, String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json"));
    let workloads = workload_names(&spec.map_err(|e| format!("BENCHMARK.json: {e}"))?);
    if workloads.is_empty() {
        return Err("BENCHMARK.json names no workloads".into());
    }
    println!("perf gate: building perfbench at {base_rev} and in the working tree");
    let dir = root.join("target/perf_gate");
    let (src, target) = (dir.join("src"), dir.join("build"));
    checkout(&root, base_rev, &src)?;
    let base_bin = dir.join("zerodev-perfbench-base");
    let copied = std::fs::copy(build(&src, &target)?, &base_bin);
    copied.map_err(|e| format!("{}: {e}", base_bin.display()))?;
    sync(&root, &src)?;
    let bins = [base_bin, build(&src, &target)?];
    let mut pass = true;
    for w in &workloads {
        let mut runs = [Vec::new(), Vec::new()];
        for i in 0..PAIRS {
            for side in [i % 2, 1 - i % 2] {
                runs[side].push(bench(&bins[side], w));
            }
        }
        let verdict = judge(&runs[0], &runs[1]);
        pass &= verdict.is_ok();
        let (tag, line) = verdict.map_or_else(|l| ("FAIL", l), |l| ("ok", l));
        println!("  {w:<10} {tag:<5} {line}");
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let base_rev = std::env::args().nth(1).unwrap_or_else(|| "HEAD".into());
    let (code, msg) = match gate(&base_rev) {
        Ok(true) => (0, format!("ok against {base_rev}")),
        Ok(false) => (1, format!("the working tree fails against {base_rev}")),
        Err(e) => (2, e),
    };
    println!("perf gate: {msg}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [100., 104., 97., 101., 99., 103., 96., 102., 98., 100.];

    fn runs(refs: impl IntoIterator<Item = f64>) -> Vec<Run> {
        let run = |refs_per_s| Run {
            refs_per_s,
            correct: true,
            failed: 0,
        };
        refs.into_iter().map(run).collect()
    }

    #[test]
    fn identical_samples_pass() {
        assert!(judge(&runs(BASE), &runs(BASE)).is_ok());
    }

    #[test]
    fn a_20_percent_loss_on_every_pair_fails() {
        assert!(judge(&runs(BASE), &runs(BASE.map(|v| v * 0.8))).is_err());
    }

    #[test]
    fn losing_eight_of_ten_pairs_passes() {
        let mut slow = BASE.map(|v| v * 0.8);
        (slow[3], slow[7]) = (200.0, 200.0);
        assert!(judge(&runs(BASE), &runs(slow)).is_ok());
    }

    #[test]
    fn losing_nine_of_ten_pairs_fails_even_inside_the_iqr() {
        let mut close = BASE.map(|v| v - 1.0);
        close[3] = 200.0;
        assert!(judge(&runs(BASE), &runs(close)).is_err());
    }

    #[test]
    fn an_incorrect_run_on_either_side_fails() {
        let mut bad = runs(BASE);
        bad[5].correct = false;
        assert!(judge(&bad, &runs(BASE)).is_err());
        assert!(judge(&runs(BASE), &bad).is_err());
    }

    #[test]
    fn more_failed_attempts_on_the_change_fail() {
        let mut more = runs(BASE);
        more[0].failed = 1;
        assert!(judge(&runs(BASE), &more).is_err());
        assert!(judge(&more, &runs(BASE)).is_ok());
    }

    #[test]
    fn perfbench_output_parses() {
        let out = "seed 0x5eed2021\nrefs_per_s  2350000.5 1/s\nsetup_s 0.02 s\n\
                   {\"correct\": false, \"attempted\": 7, \"failed\": 2, \"metrics\": {}}\n";
        let mut want = runs([2_350_000.5]);
        want[0].correct = false;
        want[0].failed = 2;
        assert_eq!(parse_run(out), Some(want[0]));
        assert_eq!(parse_run("refs_per_s 1 1/s\n"), None);
    }

    #[test]
    fn benchmark_json_names_the_five_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        let want = ["hits8", "spill8", "socket4", "audit8", "mc_matrix"];
        assert_eq!(workload_names(&spec), want);
    }
}
