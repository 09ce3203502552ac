//! `perfbench`: the repository benchmark. One command runs one workload
//! through the public API, checks its outputs, and prints the metrics
//! as the last line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ppo-colocated --seed 1 --seconds 15 --trace 0
//! ```

mod bench;
mod host;
mod metrics;
mod probes;
mod rl;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Outcome, RunArgs};
use metrics::{MetricDef, END_TO_END};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["ppo-colocated", "grpo-verifier", "serve-train"];

fn parse() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs { seed: 1, seconds: 15.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok((workload, run))
}

fn run(workload: &str, args: &RunArgs, dir: &std::path::Path) -> hf_core::Result<Outcome> {
    match workload {
        "ppo-colocated" => bench::run_rl(&rl::RlWorkload::ppo_colocated(), args, dir),
        "grpo-verifier" => bench::run_rl(&rl::RlWorkload::grpo_verifier(), args, dir),
        _ => bench::run_serve(&serve::ServeTrain::workload(), args),
    }
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = host::HostEnv::capture();
    println!(
        "# env {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"profile\": \"{}\", \"audit_armed\": false, \"nproc\": {}, \
         \"loadavg\": \"{}\", \"reference_kernel_ms\": {}}}",
        args.seed,
        args.seconds,
        args.trace as u8,
        env.commit,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env.nproc,
        env.loadavg,
        metrics::json_num(env.reference_kernel_ms),
    );
    // Checkpoints go to a scratch directory inside the working directory.
    let dir = PathBuf::from(".perfbench_run").join(std::process::id().to_string());
    let outcome = run(&workload, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_run");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs: &[MetricDef] = if args.trace { metrics::per_layer() } else { END_TO_END };
    for d in defs {
        let v = outcome.report.get(d.name).map_or("absent".into(), |v| format!("{v:.6}"));
        let clock = match d.clock {
            metrics::Clock::Host => "host",
            metrics::Clock::Virtual => "virtual",
        };
        println!("# {:<36} {:>18} {:<6} {clock}", d.name, v, d.unit);
    }
    for (name, values) in &outcome.chunks {
        let v: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        println!("# chunks {name}: {}", v.join(" "));
    }
    for (name, ok) in &outcome.checks {
        println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("# absent: {}", outcome.report.absent(defs).join(" "));
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.report.metrics_json(defs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
