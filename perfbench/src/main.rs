//! The repository benchmark: one workload per process, end-to-end metrics
//! by default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_suite --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when an output fails a correctness check.

mod common;
mod compile_suite;
mod exact_oracle;
mod layers;
mod relabel;
mod serve_warm;
mod traced;

use common::{Config, Metrics, Outcome};
use std::process::ExitCode;

/// Executor and caller threads every workload loads the program with.
const LOAD_THREADS: usize = 2;

const WORKLOADS: [&str; 3] = ["compile_suite", "exact_oracle", "serve_warm"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.verdict.failed == 0 && outcome.verdict.attempted > 0,
        outcome.verdict.attempted,
        outcome.verdict.failed,
        metrics.join(", ")
    )
}

fn print_table(workload: &str, metrics: &Metrics) {
    println!("workload {workload}");
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
}

fn run_workload(workload: &str, cfg: &Config) -> Outcome {
    match workload {
        "compile_suite" => compile_suite::run(cfg),
        "exact_oracle" => exact_oracle::run(cfg),
        "serve_warm" => serve_warm::run(cfg),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

fn main() -> ExitCode {
    let knobs = common::set_env_knobs();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to measure with {knobs:?} set; unset them and rerun");
        return ExitCode::from(2);
    }
    if std::env::args().nth(1).as_deref() == Some("--write-verdicts") {
        print!("{}", exact_oracle::write_verdicts());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        threads: LOAD_THREADS,
        min_passes: 5,
        setup_reps: 3,
    };
    let outcome = if args.trace {
        traced::run(&args.workload, &cfg)
    } else {
        run_workload(&args.workload, &cfg)
    };
    print_table(&args.workload, &outcome.metrics);
    if !outcome.extra.0.is_empty() {
        print_table("(not reported)", &outcome.extra);
    }
    println!("{}", json_line(&outcome));
    if outcome.verdict.failed == 0 && outcome.verdict.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multivliw::schedcache::canonicalize;

    /// Metrics that depend only on the inputs, never on timing.
    const DETERMINISTIC: [&str; 4] = [
        "sim_cycles",
        "ii_over_mii",
        "decided_share",
        "success_share",
    ];

    fn short_run(workload: &str, seed: u64, threads: usize) -> Vec<f64> {
        let cfg = Config {
            seed,
            seconds: 0.0,
            threads,
            min_passes: 1,
            setup_reps: 1,
        };
        let out = run_workload(workload, &cfg);
        assert_eq!(
            out.verdict.failed, 0,
            "{workload} at {threads} threads failed a check"
        );
        DETERMINISTIC
            .iter()
            .map(|name| out.metrics.0[name].0)
            .collect()
    }

    #[test]
    fn deterministic_metrics_repeat_at_one_and_two_threads() {
        for workload in WORKLOADS {
            for threads in [1, 2] {
                let first = short_run(workload, 7, threads);
                let second = short_run(workload, 7, threads);
                assert_eq!(first, second, "{workload} at {threads} threads");
            }
        }
    }

    fn keys(loops: &[multivliw::ir::Loop]) -> Vec<multivliw::schedcache::CacheKey> {
        loops
            .iter()
            .map(|l| canonicalize(l).key_hasher().finish())
            .collect()
    }

    #[test]
    fn another_seed_changes_the_generated_inputs() {
        assert_ne!(
            keys(&compile_suite::setup(1).loops),
            keys(&compile_suite::setup(2).loops)
        );
        assert_ne!(
            keys(&exact_oracle::loops(1, 1).0),
            keys(&exact_oracle::loops(2, 1).0)
        );
        let streams: Vec<Vec<serve_warm::Ask>> = [1, 2]
            .iter()
            .map(|&seed| {
                let s = serve_warm::setup(seed);
                s.prepare(0);
                (0..serve_warm::REQUESTS).map(|i| s.ask(i)).collect()
            })
            .collect();
        assert_ne!(streams[0], streams[1]);
    }
}
