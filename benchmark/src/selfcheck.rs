//! `--workload all` and `--selfcheck`: this program run as its own child,
//! one process per (workload, seed), workloads interleaved A B C D A B …
//!
//! `--selfcheck` is the acceptance rule applied by the benchmark to itself:
//! two sets of runs over the same ten seeds; every end-to-end metric's
//! run-to-run spread (interquartile distance over median) must stay inside
//! its bound, the second set's median may not be worse than the first's by
//! more than the bound, and a deterministic metric must read the same in
//! both sets for each seed. The second set starts when the first has
//! ended, not interleaved with it, so that a host that changes speed over
//! tens of minutes is part of the test.

use crate::harness::AS_MEASURED;
use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::{stats, Args};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Seeds in one set of the selfcheck, as in the acceptance rule.
const RUNS: u64 = 10;

/// One child run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// The wall metrics before scaling to nominal host speed, when the run
    /// printed them.
    pub as_measured: BTreeMap<String, f64>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(f) => Some(f),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

pub fn parse_result(line: &str) -> Result<Run, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| get(&v, k).ok_or_else(|| format!("result line lacks `{k}`"));
    let correct = matches!(field("correct")?, Value::Bool(true));
    let attempted = number(field("attempted")?).ok_or("attempted is not a number")? as u64;
    let failed = number(field("failed")?).ok_or("failed is not a number")? as u64;
    let Value::Map(entries) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value =
            get(entry, "value").and_then(number).ok_or_else(|| format!("{name}: no value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(Run { correct, attempted, failed, metrics, as_measured: BTreeMap::new() })
}

/// Run one workload in a child process and return its output and result.
fn child(args: &Args, workload: &str, seed: u64) -> Result<(String, Run), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    cmd.args(["--rounds", &args.rounds.to_string()]);
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = text.lines().last().ok_or_else(|| {
        format!("{workload} printed nothing: {}", String::from_utf8_lossy(&out.stderr))
    })?;
    let mut run = parse_result(last)?;
    if let Some(line) = text.lines().find_map(|l| l.strip_prefix(AS_MEASURED)) {
        let Ok(Value::Map(entries)) = serde_json::from_str::<Value>(line) else {
            return Err(format!("{workload}: unreadable `{AS_MEASURED}` line"));
        };
        run.as_measured =
            entries.iter().filter_map(|(k, v)| Some((k.clone(), number(v)?))).collect();
    }
    Ok((text, run))
}

/// `--workload all`: every workload once, every metric by name.
pub fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    for workload in WORKLOADS {
        match child(args, workload, args.seed) {
            Ok((text, run)) => {
                let body: Vec<&str> = text.lines().collect();
                println!("== {workload} ==");
                for line in &body[1..body.len() - 1] {
                    println!("{line}");
                }
                all_ok &= run.correct;
                attempted += run.attempted;
                failed += run.failed;
                let last: Value = serde_json::from_str(body[body.len() - 1]).expect("parsed above");
                if let Some(Value::Map(entries)) = get(&last, "metrics") {
                    for (name, entry) in entries {
                        combined.push((format!("{workload}.{name}"), entry.clone()));
                    }
                }
            }
            Err(e) => {
                println!("== {workload} ==\nFAILED: {e}");
                all_ok = false;
                failed += 1;
                attempted += 1;
            }
        }
    }
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(all_ok)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(combined)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &EndToEnd, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// One (workload, metric) row of the agreement table.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    pub medians: [f64; 2],
    pub spreads: [f64; 2],
    pub worsening: f64,
    pub ok: bool,
}

/// Apply the acceptance rule to two sets of values of one metric, taken
/// over the same seeds in the same order.
pub fn agreement(m: &EndToEnd, first: &[f64], second: &[f64]) -> Agreement {
    let medians = [stats::median(first), stats::median(second)];
    let spreads = [stats::spread(first), stats::spread(second)];
    let worse = worsening(m, medians[0], medians[1]);
    let mut ok = worse <= m.bound;
    // Set-up time is held to its medians only: one run sets up a handful
    // of times, too few for a tight spread.
    if m.name != "setup_s" {
        ok &= spreads.iter().all(|s| *s <= m.bound);
    }
    if m.deterministic {
        ok &= first == second;
    }
    Agreement { medians, spreads, worsening: worse, ok }
}

/// Print one agreement table; true when every row holds.
fn print_table(title: &str, metrics: &[&EndToEnd], values: &[Values; 2]) -> bool {
    println!(
        "\n{title}\n{:<14} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  ok",
        "workload", "metric", "median 1", "median 2", "spread1", "spread2", "worse", "bound"
    );
    let mut all_ok = true;
    for workload in WORKLOADS {
        for m in metrics {
            let a = agreement(m, &values[0][&(workload, m.name)], &values[1][&(workload, m.name)]);
            all_ok &= a.ok;
            println!(
                "{:<14} {:<22} {:>12.4} {:>12.4} {:>8.4} {:>8.4} {:>+8.4} {:>6.3}  {}",
                workload,
                m.name,
                a.medians[0],
                a.medians[1],
                a.spreads[0],
                a.spreads[1],
                a.worsening,
                m.bound,
                if a.ok { "yes" } else { "NO" }
            );
        }
    }
    all_ok
}

/// One value per seed, by (workload, metric).
type Values = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// `--selfcheck`: two sets of `RUNS` seeds per workload.
pub fn run(args: &Args) -> ExitCode {
    let mut values: [Values; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut as_measured: [Values; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut all_ok = true;
    for set in 0..2 {
        for seed in args.seed..args.seed + RUNS {
            for workload in WORKLOADS {
                let run = match child(args, workload, seed) {
                    Ok((_, run)) => run,
                    Err(e) => {
                        println!("set {} seed {seed} {workload}: FAILED: {e}", set + 1);
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "set {} seed {seed} {workload}: correct={} {:?}",
                    set + 1,
                    run.correct,
                    run.metrics
                );
                all_ok &= run.correct;
                for m in &END_TO_END {
                    let value = |from: &BTreeMap<String, f64>| {
                        from.get(m.name).copied().unwrap_or(f64::NAN)
                    };
                    values[set].entry((workload, m.name)).or_default().push(value(&run.metrics));
                    if run.as_measured.contains_key(m.name) {
                        let column = as_measured[set].entry((workload, m.name)).or_default();
                        column.push(value(&run.as_measured));
                    }
                }
            }
        }
    }
    all_ok &= print_table(
        "at nominal host speed (the reported metrics; this table decides)",
        &END_TO_END.iter().collect::<Vec<_>>(),
        &values,
    );
    // The same runs before scaling, to show what the yardstick changed.
    let scaled: Vec<&EndToEnd> = END_TO_END
        .iter()
        .filter(|m| as_measured[0].contains_key(&(WORKLOADS[0], m.name)))
        .collect();
    print_table("the same runs as measured (for comparison only)", &scaled, &as_measured);
    println!("selfcheck {}", if all_ok { "passed" } else { "FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, higher_is_better: bool, deterministic: bool) -> EndToEnd {
        EndToEnd { name, unit: "x", higher_is_better, bound: 0.10, deterministic }
    }

    #[test]
    fn agreement_applies_spread_median_and_determinism_rules() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        let rate = metric("rounds_per_s", true, false);
        assert!(agreement(&rate, &steady, &steady).ok);
        // Higher is better: a second set 15 % lower breaks a 10 % bound.
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.85).collect();
        let a = agreement(&rate, &steady, &slower);
        assert!(!a.ok && (a.worsening - 0.15).abs() < 1e-9);
        assert!(agreement(&rate, &slower, &steady).ok, "getting better is not a regression");
        // A wide spread fails on its own.
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0];
        assert!(!agreement(&rate, &noisy, &noisy).ok);
        // ... except for set-up time, which is held to its medians.
        assert!(agreement(&metric("setup_s", false, false), &noisy, &noisy).ok);
        // Deterministic metrics must repeat exactly, seed by seed.
        let virtual_time = metric("sim_ms_per_round", false, true);
        let mut off = steady;
        off[3] += 1e-9;
        assert!(agreement(&virtual_time, &steady, &steady).ok);
        assert!(!agreement(&virtual_time, &steady, &off).ok);
    }
}
