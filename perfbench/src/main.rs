//! FairCap benchmark: three closed-loop workloads, five end-to-end metrics
//! each, and a separate traced run that times every layer from outside the
//! program. See `README.md` in this directory for the workloads and what
//! each metric should move.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_german|warm_sweep_so10k|serve_german_mix \
//!     [--seed 42] [--seconds 20] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, holding
//! the end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`.

mod check;
mod cold_german;
mod inputs;
mod layers;
mod probe;
mod report;
mod serve_mix;
mod stats;
mod warm_sweep;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let host_before = stats::host_calibration_us();
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "cold_german" => cold_german::run(&args),
        "warm_sweep_so10k" => warm_sweep::run(&args),
        "serve_german_mix" => serve_mix::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (cold_german, warm_sweep_so10k, serve_german_mix)"
        )),
    };
    let host_after = stats::host_calibration_us();
    println!(
        "perfbench: host calibration {host_before:.1} us before, {host_after:.1} us after \
         (fixed integer work; higher means a slower host)"
    );
    match outcome {
        Ok(mut outcome) => {
            if args.trace {
                let host = (host_before + host_after) / 2.0;
                outcome
                    .metrics
                    .push(report::metric("host.calibration_us", host, "us"));
            }
            outcome.print(&args)
        }
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            std::process::exit(1);
        }
    }
}
