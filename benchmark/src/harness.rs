//! Runs a workload: repetitions on fresh worlds, the timed loop, and the
//! assembly of end-to-end and per-layer numbers.

use crate::metrics::{self, PerLayer};
use crate::spans::{Table, Tracer};
use crate::stats;
use crate::workloads::{Checks, LayerCounts, Workload};
use crate::yardstick;
use serde::Value;
use std::time::Instant;

/// Timed rounds of one repetition. Fixed, so that every repetition of every
/// commit times the same rounds of the same script: a faster commit fits
/// more repetitions into a run, not later (and, with the trace and the
/// audit trail growing, dearer) rounds.
pub const ROUNDS: u64 = 128;

/// An untraced run makes at least this many repetitions, each a fresh world
/// with the same seed, and goes on until `--seconds` have passed.
pub const MIN_REPETITIONS: usize = 5;

/// A yardstick sample is taken before one round in this many. Which one
/// moves on by one with each repetition, so that a round's time — a median
/// over the repetitions — has the harness's own work, and the cache lines
/// it displaced, just before it in only one repetition of every eight.
const YARDSTICK_EVERY: u64 = 8;

pub struct Repetition {
    /// Wall seconds, as measured, of set-up before the rounds and of the
    /// workload's tail after them; nanoseconds of each timed round.
    pub setup_s: f64,
    pub tail_s: f64,
    pub round_ns: Vec<u64>,
    /// Yardstick samples taken between the rounds ([`yardstick`]).
    pub yardstick_ns: Vec<f64>,
    /// Virtual milliseconds and wire bytes per round over the timed rounds,
    /// and the process's peak memory when they and the tail were done.
    pub sim_ms_per_round: f64,
    pub wire_bytes_per_round: f64,
    pub peak_rss_mb: f64,
    pub checks: Checks,
    pub counts: LayerCounts,
    pub tracer: Tracer,
    /// Wall time of the whole repetition, shadows and oracles included.
    pub elapsed_s: f64,
    /// Virtual seconds the timed rounds advanced.
    pub sim_secs: f64,
}

/// The `nth` repetition of a run: a fresh world, `rounds` timed rounds.
pub fn repetition<W: Workload>(seed: u64, rounds: u64, traced: bool, nth: usize) -> Repetition {
    let started = Instant::now();
    let mut tr = Tracer::new(traced);
    let mut checks = Checks::default();
    let mut w = W::setup(seed, &mut tr, &mut checks);
    let setup_s = (started.elapsed().as_nanos() as u64 - tr.excluded_ns()) as f64 / 1e9;

    let first = w.counters();
    let mut round_ns = Vec::with_capacity(rounds as usize);
    let mut yardstick_ns = Vec::new();
    for i in 0..rounds {
        if i % YARDSTICK_EVERY == nth as u64 % YARDSTICK_EVERY {
            yardstick_ns.push(tr.untimed(|| yardstick::sample(W::PARALLEL)));
        }
        tr.begin_round(i);
        w.round(i, &mut tr, &mut checks);
        round_ns.push(tr.end_round());
    }
    let last = w.counters();

    let (tail_started, excluded) = (Instant::now(), tr.excluded_ns());
    w.tail(&mut tr, &mut checks);
    let tail_ns = tail_started.elapsed().as_nanos() as u64 - (tr.excluded_ns() - excluded);
    let peak_rss_mb = peak_rss_mb();
    let counts = w.finish(rounds, &mut tr, &mut checks);
    Repetition {
        setup_s,
        tail_s: tail_ns as f64 / 1e9,
        round_ns,
        yardstick_ns,
        sim_ms_per_round: (last.sim_secs - first.sim_secs) * 1e3 / rounds as f64,
        wire_bytes_per_round: (last.wire_bytes - first.wire_bytes) as f64 / rounds as f64,
        peak_rss_mb,
        checks,
        counts,
        tracer: tr,
        elapsed_s: started.elapsed().as_secs_f64(),
        sim_secs: last.sim_secs - first.sim_secs,
    }
}

/// Host speed over some repetitions, from every yardstick sample they took.
fn host_speed<'a>(reps: impl IntoIterator<Item = &'a Repetition>) -> f64 {
    let samples: Vec<f64> = reps.into_iter().flat_map(|r| r.yardstick_ns.iter().copied()).collect();
    yardstick::host_speed(&samples)
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub value: f64,
}

/// What one invocation measured.
pub struct Outcome {
    pub checks: Checks,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
    /// The traced repetition's spans, for `out/trace-<workload>.json`.
    pub spans: Option<Value>,
}

/// The four wall metrics — time outside the rounds, rate, median and 95th
/// percentile round — from the repetitions' times as measured.
///
/// Round `i` is the same work in every repetition, so its time is taken as
/// the median over the repetitions: what the host did to one repetition's
/// round is voted out, what the script makes dear (a checkpoint round, a
/// camera move) stays. Rate and percentiles are over those `ROUNDS` times.
fn wall_metrics(reps: &[Repetition]) -> [f64; 4] {
    let over_reps =
        |f: &dyn Fn(&Repetition) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let rounds = reps[0].round_ns.len();
    let round_ms: Vec<f64> =
        (0..rounds).map(|i| over_reps(&|r| r.round_ns[i] as f64 / 1e6)).collect();
    [
        over_reps(&|r| r.setup_s + r.tail_s),
        rounds as f64 / (round_ms.iter().sum::<f64>() / 1e3),
        stats::percentile(&round_ms, 50.0),
        stats::percentile(&round_ms, 95.0),
    ]
}

/// The untraced run: every end-to-end metric. Repetitions of `rounds`
/// rounds until `seconds` have passed.
pub fn end_to_end<W: Workload>(seed: u64, rounds: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPETITIONS || started.elapsed().as_secs_f64() < seconds {
        reps.push(repetition::<W>(seed, rounds, false, reps.len()));
    }

    let mut checks = Checks::default();
    let first = &reps[0];
    for r in &reps[1..] {
        let same = r.sim_ms_per_round == first.sim_ms_per_round
            && r.wire_bytes_per_round == first.wire_bytes_per_round;
        checks.check(same, || {
            format!(
                "virtual-time results differ between repetitions of one seed: \
                 {} vs {} ms/round, {} vs {} B/round",
                r.sim_ms_per_round,
                first.sim_ms_per_round,
                r.wire_bytes_per_round,
                first.wire_bytes_per_round
            )
        });
    }
    // Times are multiplied by the run's host speed, the rate divided.
    let speed = host_speed(&reps);
    let as_measured = wall_metrics(&reps);
    let [outside_s, rounds_per_s, p50, p95] = as_measured;
    let values = [
        outside_s * speed,
        rounds_per_s / speed,
        p50 * speed,
        p95 * speed,
        first.peak_rss_mb,
        first.sim_ms_per_round,
    ];
    let rounded = |v: Vec<f64>| v.into_iter().map(|x| (x * 1e3).round() / 1e3).collect::<Vec<_>>();
    let notes = vec![
        format!(
            "{} repetitions of {rounds} timed rounds: {} round times, {} beyond p95",
            reps.len(),
            reps.len() * rounds as usize,
            reps.len() * rounds as usize / 20
        ),
        format!(
            "set-ups {:?} s, tails {:?} s, as measured",
            rounded(reps.iter().map(|r| r.setup_s).collect()),
            rounded(reps.iter().map(|r| r.tail_s).collect())
        ),
        format!(
            "host speed {speed:.4} yardstick passes/ms over {} samples; wall metrics below are at 1 \
             pass/ms",
            reps.iter().map(|r| r.yardstick_ns.len()).sum::<usize>()
        ),
        format!(
            "net.wire_bytes_per_round {} B (the same on every run of this seed; per layer, not \
             gated)",
            first.wire_bytes_per_round
        ),
        // `--selfcheck` reads this line to show what scaling changed.
        format!("{AS_MEASURED} {}", serde_json::to_string(&as_measured_json(as_measured)).expect("numbers")),
    ];
    for r in reps {
        checks.merge(r.checks);
    }
    let metrics = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            higher_is_better: m.higher_is_better,
            value,
        })
        .collect();
    Outcome { checks, metrics, notes, spans: None }
}

/// Prefix of the output line that carries the wall metrics unscaled.
pub const AS_MEASURED: &str = "as-measured";

fn as_measured_json(values: [f64; 4]) -> Value {
    let named = metrics::END_TO_END.iter().zip(values);
    Value::Map(named.map(|(m, v)| (m.name.to_string(), Value::F64(v))).collect())
}

/// The traced run: one untraced repetition for reference, then one with
/// spans and shadows; every per-layer metric comes from the second.
pub fn traced<W: Workload>(seed: u64, rounds: u64) -> Outcome {
    let plain = repetition::<W>(seed, rounds, false, 0);
    let rep = repetition::<W>(seed, rounds, true, 0);
    let table = rep.tracer.table();
    let rate = |r: &Repetition| {
        r.round_ns.len() as f64 / (r.round_ns.iter().sum::<u64>() as f64 / 1e9) / host_speed([r])
    };

    // The harness's own numbers join the workload's counts.
    let mut counts = rep.counts.clone();
    counts.insert("harness.unattributed_share", table.unattributed_share());
    counts.insert("harness.trace_overhead_ratio", rate(&plain) / rate(&rep));
    counts
        .insert("harness.shadow_wall_share", rep.tracer.excluded_ns() as f64 / 1e9 / rep.elapsed_s);
    counts.insert("harness.rounds", table.rounds as f64);
    counts.insert("harness.host_speed", host_speed([&rep]));
    counts.insert("session.setup_s", rep.setup_s);
    counts.insert("session.tail_s", rep.tail_s);
    counts.insert("net.wire_bytes_per_round", rep.wire_bytes_per_round);
    if rep.sim_secs > 0.0 {
        counts.insert("sim.wall_s_per_sim_s", table.total_ns / 1e9 / rep.sim_secs);
    }
    if let Some(extract) = table.row("scene.extract").filter(|r| r.ops > 0) {
        let merge_ns = table.row("scene.merge").map_or(0.0, |r| r.busy_ns);
        counts.insert(
            "scene.extract_merge_us",
            (extract.busy_ns + merge_ns) / 1e3 / extract.ops as f64,
        );
    }
    let layer = metrics::per_layer(&rep.tracer, &table, &counts);
    let mut notes = layer_table(&table);
    if let Some(top) = table.top_self() {
        notes.push(format!(
            "top self-time layer: {} ({:.1} % of round wall)",
            top.name,
            100.0 * top.self_ns / table.total_ns
        ));
    }
    notes.push(format!(
        "untraced {:.2} rounds/s, traced {:.2} rounds/s at 1 yardstick pass/ms (host speed {:.3}, \
         {:.3}); shadow and oracle time taken out; span times are as measured",
        rate(&plain),
        rate(&rep),
        host_speed([&plain]),
        host_speed([&rep])
    ));

    let mut checks = Checks::default();
    let spans = rep.tracer.to_json();
    checks.merge(plain.checks);
    checks.merge(rep.checks);
    let metrics = layer
        .into_iter()
        .map(|(m, value): (&PerLayer, f64)| Metric {
            name: m.name,
            unit: m.unit,
            higher_is_better: m.higher_is_better,
            value,
        })
        .collect();
    Outcome { checks, metrics, notes, spans: Some(spans) }
}

/// The per-layer table as text: busy, self, share of round wall, counts.
/// The rows' self times and the unattributed remainder sum to the total.
fn layer_table(table: &Table) -> Vec<String> {
    let total_ms = table.total_ns / 1e6;
    let share = |ns: f64| if table.total_ns > 0.0 { 100.0 * ns / table.total_ns } else { 0.0 };
    let mut lines = vec![format!(
        "{:<26} {:>7} {:>11} {:>11} {:>8} {:>8} {:>10}",
        "layer span", "kind", "busy ms", "self ms", "busy %", "self %", "ops"
    )];
    let mut rows: Vec<_> = table.rows.iter().collect();
    rows.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns));
    for r in rows {
        lines.push(format!(
            "{:<26} {:>7} {:>11.2} {:>11.2} {:>8.2} {:>8.2} {:>10}",
            r.name,
            format!("{:?}", r.kind).to_lowercase(),
            r.busy_ns / 1e6,
            r.self_ns / 1e6,
            share(r.busy_ns),
            share(r.self_ns),
            r.ops
        ));
    }
    lines.push(format!(
        "{:<26} {:>7} {:>11} {:>11.2} {:>8} {:>8.2}",
        "(unattributed)",
        "",
        "",
        table.unattributed_ns / 1e6,
        "",
        share(table.unattributed_ns)
    ));
    lines.push(format!(
        "{:<26} {:>7} {:>11.2} {:>11.2} {:>8} {:>8.2} {:>10}",
        "round wall", "", total_ms, total_ms, "", 100.0, table.rounds
    ));
    lines
}
