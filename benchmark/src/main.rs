//! End-to-end session benchmark for RAVE-RS.
//!
//! ```text
//! rave-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--rounds <n>]
//! rave-benchmark --selfcheck [--seconds <s>]
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the spans go to `benchmark/out/trace-<workload>.json`. The exit
//! code is non-zero when an operation failed or an oracle disagreed.

mod gen;
mod harness;
mod host;
mod metrics;
mod selfcheck;
mod spans;
mod stats;
mod workloads;
mod yardstick;

use harness::Outcome;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::collab_fanout::CollabFanout;
use workloads::edit_storm::EditStorm;
use workloads::pda_stream::PdaStream;
use workloads::tile_wall::TileWall;

/// Default length of one run, as `BENCHMARK.json` sets it.
const RUN_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Timed rounds per repetition: `harness::ROUNDS`, or fewer to
    /// smoke-test the harness (never for reported numbers).
    pub rounds: u64,
    pub selfcheck: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        rounds: harness::ROUNDS,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--rounds" => {
                args.rounds = value.parse().ok().filter(|n| *n > 0).ok_or_else(|| bad("> 0"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {:?}, or all)",
            args.workload,
            metrics::WORKLOADS
        ));
    }
    Ok(args)
}

/// The benchmark's scratch and output directory, `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result object the last line of output carries.
pub fn result_json(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::Str(m.unit.into())),
            ];
            (m.name.to_string(), Value::Map(entry))
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.checks.failed == 0)),
        ("attempted".into(), Value::U64(outcome.checks.attempted)),
        ("failed".into(), Value::U64(outcome.checks.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

fn run_one(args: &Args) -> Outcome {
    macro_rules! go {
        ($w:ty) => {
            if args.trace {
                harness::traced::<$w>(args.seed, args.rounds)
            } else {
                harness::end_to_end::<$w>(args.seed, args.rounds, args.seconds)
            }
        };
    }
    match args.workload.as_str() {
        "pda_stream" => go!(PdaStream),
        "tile_wall" => go!(TileWall),
        "collab_fanout" => go!(CollabFanout),
        "edit_storm" => go!(EditStorm),
        other => unreachable!("workload {other} passed parsing"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rave-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    println!("host {}", serde_json::to_string(&host.to_json()).expect("host block serializes"));
    if host.overloaded() {
        eprintln!(
            "warning: load average {:.2} is above half of {} cores; wall metrics will be noisy",
            host.load1, host.nproc
        );
    }
    if args.selfcheck {
        return selfcheck::run(&args);
    }
    if args.workload == "all" {
        return selfcheck::run_all(&args);
    }

    println!(
        "workload={} seed={} seconds={} trace={} rounds={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rounds
    );
    let mut outcome = run_one(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &mut outcome.metrics {
        let better = if m.higher_is_better { "higher" } else { "lower" };
        println!("{:<32} {:>16.6} {:<6} ({better} is better)", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            outcome.checks.check(false, || format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, serde_json::to_string(spans).expect("spans")));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => outcome.checks.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for failure in &outcome.checks.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "operations attempted {}, failed {} (failed_ops_ratio {})",
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64
    );
    println!("{}", serde_json::to_string(&result_json(&outcome)).expect("result serializes"));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Metric;
    use workloads::Checks;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse(&argv("--workload tile_wall --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("tile_wall", 9, 12.0, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert_eq!(parse(&argv("--rounds 5")).unwrap().rounds, 5);
        assert_eq!(parse(&argv("--seed 1")).unwrap().rounds, harness::ROUNDS);
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let outcome = Outcome {
            checks: Checks { attempted: 1000, failed: 0, failures: vec![] },
            metrics: vec![
                Metric {
                    name: "rounds_per_s",
                    unit: "1/s",
                    higher_is_better: true,
                    value: 43.218_765_432_1,
                },
                Metric { name: "setup_s", unit: "s", higher_is_better: false, value: 0.8127 },
            ],
            notes: vec![],
            spans: None,
        };
        let line = serde_json::to_string(&result_json(&outcome)).unwrap();
        assert!(!line.contains('\n'));
        let back: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(back, result_json(&outcome));
        let run = selfcheck::parse_result(&line).unwrap();
        assert!(run.correct);
        assert_eq!(run.metrics["rounds_per_s"], 43.218_765_432_1);
        assert_eq!(run.metrics["setup_s"], 0.8127);
    }
}
