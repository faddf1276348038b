//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spill8 [--seed 0x5eed2021] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Prints the run manifest and one `name value unit` line per metric, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of the traced run.

use std::process::ExitCode;
use zerodev_perfbench::{run, Mode, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

fn parse_u64(v: &str) -> Option<u64> {
    let v = v.replace('_', "");
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        mode: Mode::EndToEnd,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value).ok_or("--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                args.mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(out) = run(&args.workload, args.seed, args.seconds, args.mode) else {
        return ExitCode::from(2);
    };
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "verdict: {} ({} attempted, {} failed)",
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        out.attempted,
        out.failed
    );
    println!("{}", out.json());
    ExitCode::SUCCESS
}
