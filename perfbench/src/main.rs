//! The ZKROWNN benchmark: three seeded workloads, each checked for
//! correctness, with end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one.
//!
//! ```text
//! perfbench --workload <serve-mlp|verify-cold-cnn|prove-store-mlp>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": n, "failed": n, "metrics": {...}}`;
//! a human-readable report goes to standard error. A failed correctness
//! check or negative control exits with code 1 and prints no result.
//! Scratch files go to `.bench_work/` under the working directory; traced
//! runs leave their spans in `.bench_work/traces/`.

mod cold;
mod common;
mod corpus;
mod prove_store;
mod replay;
mod serve;
mod stats;
mod trace;

use common::{Args, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve-mlp", "verify-cold-cnn", "prove-store-mlp"];

const USAGE: &str = "usage: perfbench --workload <serve-mlp|verify-cold-cnn|prove-store-mlp> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            work_dir,
        },
    ))
}

/// Writes a traced run's spans to `.bench_work/traces/`.
fn write_trace(args: &Args, workload: &str, trace: &trace::Trace) -> Result<(), String> {
    let path = PathBuf::from(".bench_work")
        .join("traces")
        .join(format!("{workload}-seed{}.tsv", args.seed));
    trace
        .write_tsv(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

/// The metrics a run reports: per-layer when traced, else end-to-end.
fn metric_table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: every metric of the run's table, by name and unit.
fn result_json(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let table = metric_table(traced);
    for name in outcome.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the metric table"));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match outcome.metrics.get(*name) {
            Some(&v) => v,
            // a per-layer metric of a layer this workload does not exercise
            None if traced => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match workload.as_str() {
        "serve-mlp" => serve::run(&args),
        "verify-cold-cnn" => cold::run(&args),
        _ => prove_store::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let line = outcome.and_then(|o| result_json(&o, args.trace).map(|line| (o, line)));
    match line {
        Ok((outcome, line)) => {
            eprintln!(
                "{workload} seed {} ({}):",
                args.seed,
                if args.trace { "traced" } else { "untraced" }
            );
            for note in &outcome.notes {
                eprintln!("  {note}");
            }
            eprintln!(
                "  attempted {} succeeded {} failed {} failed_frac {}",
                outcome.attempted,
                outcome.attempted - outcome.failed,
                outcome.failed,
                outcome.failed as f64 / outcome.attempted.max(1) as f64
            );
            for (name, unit) in metric_table(args.trace) {
                let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
                eprintln!("  {name:<30} {value:>14.4} {unit}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload} seed {}: FAILED: {e}", args.seed);
            ExitCode::FAILURE
        }
    }
}
