//! The Zenesis benchmark: one workload per process.
//!
//! ```text
//! zenesis-perfbench --workload <interactive|volume|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the program runs untraced (`zenesis_obs` explicitly
//! `Off`) and the last line of stdout carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! Lines before it, prefixed `#`, are the human-readable report. See
//! `perfbench/README.md` for every metric's definition.

mod interactive;
mod layers;
mod pipeline;
mod serve;
mod util;
mod volume;

use std::path::PathBuf;
use std::time::Instant;

use util::{median, peak_rss_mb, result_json, Metrics};

/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Workload-specific figures printed in the report only.
    pub report: Metrics,
}

/// Scratch directory for generated inputs and outputs, inside the
/// working directory (the checkout root).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-out")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Run set-up `SETUPS` times (once when tracing) and keep the last
/// inputs; returns them with the median set-up seconds.
fn timed_setup<T>(trace: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (inputs.expect("set-up ran at least once"), median(&times))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: zenesis-perfbench --workload <interactive|volume|serve> --seed N --seconds S --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    // End-to-end runs measure the program with observability off,
    // whatever ZENESIS_OBS says; traced runs switch it on themselves.
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("cannot create {}: {e}", work_dir().display());
        std::process::exit(1);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seed = args.seed;
    let (mut outcome, setup_s) = match args.workload.as_str() {
        "interactive" => {
            let (inputs, s) = timed_setup(args.trace, || interactive::setup(seed));
            let run = if args.trace {
                interactive::trace
            } else {
                interactive::run
            };
            (run(&args, &inputs, threads), s)
        }
        "volume" => {
            let (inputs, s) = timed_setup(args.trace, || volume::setup(seed));
            let run = if args.trace {
                volume::trace
            } else {
                volume::run
            };
            (run(&args, &inputs, threads), s)
        }
        "serve" => {
            let (mut inputs, s) = timed_setup(args.trace, || serve::setup(seed));
            serve::compute_references(&mut inputs);
            let run = if args.trace { serve::trace } else { serve::run };
            (run(&args, &inputs, threads), s)
        }
        other => {
            eprintln!("unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        outcome.metrics.put("setup_s", setup_s, "s");
        outcome.metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
        // `failed_share` is 0 on a healthy program, so it is reported
        // here and through the result line's `failed`, not as a metric.
        let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.report.put("failed_share", failed_share, "ratio");
    }
    if !outcome.correct {
        eprintln!(
            "{}: an output check failed; no metrics reported",
            args.workload
        );
        std::process::exit(1);
    }
    println!(
        "# {} seed={} seconds={} threads={threads} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in outcome.metrics.0.iter().chain(outcome.report.0.iter()) {
        println!("# {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(true, outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
