//! The benchmark's metric tables: names, units, which way is better, the
//! regression bound of each end-to-end metric, and where each per-layer
//! number comes from. `BENCHMARK.json` repeats the names, units and bounds;
//! a test keeps the two in step.

use crate::spans::{Table, Tracer};
use crate::workloads::LayerCounts;

pub const WORKLOADS: [&str; 4] = ["pda_stream", "tile_wall", "collab_fanout", "edit_storm"];

/// An end-to-end metric: what a user of the system would see. `bound` is
/// the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    /// Virtual-time or byte-count result: identical on every run of one
    /// seed, whatever the host does.
    pub deterministic: bool,
}

const fn wall(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound, deterministic: false }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: false, bound, deterministic: true }
}

/// The first four are the wall metrics, in the order `harness::wall_metrics`
/// gives them.
pub const END_TO_END: [EndToEnd; 6] = [
    wall("setup_s", "s", false, 0.25),
    wall("rounds_per_s", "1/s", true, 0.15),
    wall("round_ms_p50", "ms", false, 0.15),
    wall("round_ms_p95", "ms", false, 0.25),
    wall("peak_rss_mb", "MB", false, 0.10),
    exact("sim_ms_per_round", "ms", 0.15),
];

/// Where a per-layer number is read from.
pub enum Source {
    /// A count or result the workload, or the harness for the run as a
    /// whole, reports by name.
    Count,
    /// Busy time of a span name per round.
    BusyPerRound(&'static str),
    /// Self time (busy minus child spans) of a span name per round.
    SelfPerRound(&'static str),
    /// Busy time per operation the spans of that name covered.
    PerOp(&'static str),
    /// Time of the named spans outside the rounds (set-up, tail).
    Outside(&'static str),
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub source: Source,
}

const fn lower(name: &'static str, unit: &'static str, source: Source) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false, source }
}

const fn higher(name: &'static str, unit: &'static str, source: Source) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true, source }
}

use Source::{BusyPerRound, Count, Outside, PerOp, SelfPerRound};

pub const PER_LAYER: [PerLayer; 78] = [
    lower("session.setup_s", "s", Count),
    lower("session.tail_s", "s", Count),
    lower("models.build_s", "s", Outside("models.build")),
    lower("bootstrap.connect_ms", "ms", Outside("bootstrap.connect")),
    lower("bootstrap.sim_s", "s", Count),
    lower("scene.apply_us", "us", PerOp("scene.apply")),
    lower("scene.applies", "count", Count),
    lower("scene.cost_query_us", "us", PerOp("scene.cost_query")),
    lower("scene.extract_merge_us", "us", Count),
    lower("sched.replan_ms", "ms", BusyPerRound("sched.replan")),
    lower("sched.plan_only_us", "us", PerOp("sched.plan_only")),
    lower("sched.moved_per_round", "count", Count),
    lower("sched.replayed_per_round", "count", Count),
    lower("sched.moved_per_cost_edit", "ratio", Count),
    lower("sched.refusals", "count", Count),
    lower("publish.batch_us", "us", BusyPerRound("publish.batch")),
    higher("publish.updates", "count", Count),
    lower("route.us", "us", PerOp("route")),
    lower("route.targets_per_update", "count", Count),
    lower("net.wire_bytes", "B", Count),
    lower("net.wire_bytes_per_round", "B", Count),
    lower("net.unicast_bytes", "B", Count),
    lower("net.wire_ratio", "ratio", Count),
    lower("net.multicast_deliver_us", "us", PerOp("net.multicast_deliver")),
    lower("net.channel_msgs", "count", Count),
    lower("sim.run_ms", "ms", BusyPerRound("sim.run")),
    lower("sim.events_per_round", "count", Count),
    lower("sim.wall_s_per_sim_s", "ratio", Count),
    higher("sim.fps", "1/s", Count),
    lower("sim.frame_latency_ms", "ms", Count),
    lower("sim.update_latency_ms", "ms", Count),
    lower("sim.failover_ms", "ms", Count),
    lower("render.raster_ms", "ms", PerOp("render.raster")),
    lower("render.cost_units_per_frame", "count", Count),
    lower("render.to_rgb_ms", "ms", PerOp("render.to_rgb")),
    lower("render.stitch_ms", "ms", PerOp("render.stitch")),
    higher("render.frames", "count", Count),
    higher("render.tiles", "count", Count),
    lower("compress.select_ms", "ms", PerOp("compress.select")),
    lower("compress.encode_ms", "ms", PerOp("compress.encode")),
    lower("compress.decode_ms", "ms", PerOp("compress.decode")),
    lower("compress.ratio", "ratio", Count),
    higher("compress.strips_skipped_ratio", "ratio", Count),
    lower("compress.codec_switches", "count", Count),
    lower("frame_path.stream_ms", "ms", BusyPerRound("frame_path.stream")),
    lower("frame_path.self_ms", "ms", SelfPerRound("frame_path.stream")),
    higher("frame_path.render_util", "ratio", Count),
    higher("frame_path.wire_util", "ratio", Count),
    higher("frame_path.client_util", "ratio", Count),
    higher("frame_path.bound_render", "count", Count),
    lower("frame_path.bound_wire", "count", Count),
    lower("frame_path.bound_client", "count", Count),
    lower("frame_path.stalled_frames", "count", Count),
    lower("tiles.frame_ms", "ms", BusyPerRound("tiles.frame")),
    lower("tiles.self_ms", "ms", SelfPerRound("tiles.frame")),
    lower("tiles.stale_tiles", "count", Count),
    lower("store.append_us", "us", PerOp("store.append")),
    lower("store.checkpoint_ms", "ms", PerOp("store.checkpoint")),
    lower("store.disk_bytes", "B", Count),
    lower("store.bytes_per_update", "B", Count),
    lower("store.replay_ms", "ms", Outside("store.replay")),
    lower("store.recover_ms", "ms", Outside("store.recover")),
    lower("replica.ship_tick_us", "us", BusyPerRound("replica.ship_tick")),
    higher("replica.frames_shipped", "count", Count),
    lower("replica.bytes_shipped", "B", Count),
    lower("replica.lag_updates", "count", Count),
    lower("replica.promote_ms", "ms", Outside("replica.promote")),
    lower("replica.lost_updates", "count", Count),
    lower("trace.events", "count", Count),
    lower("trace.events_per_round", "count", Count),
    lower("trace.detail_bytes", "B", Count),
    lower("harness.unattributed_share", "ratio", Count),
    lower("harness.trace_overhead_ratio", "ratio", Count),
    lower("harness.shadow_wall_share", "ratio", Count),
    higher("harness.rounds", "count", Count),
    higher("harness.host_speed", "ratio", Count),
    lower("sim.run_self_ms", "ms", SelfPerRound("sim.run")),
    lower("publish.self_us", "us", SelfPerRound("publish.batch")),
];

/// Scale from seconds to a metric's time unit.
fn per_second(unit: &str) -> f64 {
    match unit {
        "s" => 1.0,
        "ms" => 1e3,
        "us" => 1e6,
        other => panic!("`{other}` is not a time unit"),
    }
}

/// Every per-layer metric of one traced repetition. A layer the workload
/// does not exercise reads 0.
pub fn per_layer(
    tracer: &Tracer,
    table: &Table,
    counts: &LayerCounts,
) -> Vec<(&'static PerLayer, f64)> {
    let rounds = table.rounds.max(1) as f64;
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.source {
                Count => counts.get(m.name).copied().unwrap_or(0.0),
                BusyPerRound(span) => {
                    table.row(span).map_or(0.0, |r| r.busy_ns) / 1e9 / rounds * per_second(m.unit)
                }
                SelfPerRound(span) => {
                    table.row(span).map_or(0.0, |r| r.self_ns) / 1e9 / rounds * per_second(m.unit)
                }
                PerOp(span) => table.row(span).map_or(0.0, |r| {
                    if r.ops == 0 {
                        0.0
                    } else {
                        r.busy_ns / 1e9 / r.ops as f64 * per_second(m.unit)
                    }
                }),
                Outside(span) => tracer.outside_ns(span) / 1e9 * per_second(m.unit),
            };
            (m, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => &m.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{key}")).1,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Seq(s) => s,
            other => panic!("not a list: {other:?}"),
        }
    }

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    /// `BENCHMARK.json` and these tables name the same metrics, units,
    /// directions, bounds and workloads, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e = list(field(&json, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(j, "name")), m.name);
            assert_eq!(text(field(j, "unit")), m.unit);
            assert_eq!(text(field(j, "better")), better(m.higher_is_better));
            assert_eq!(field(j, "bound"), &Value::F64(m.bound), "{}", m.name);
        }
        let layers = list(field(&json, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(j, "name")), m.name);
            assert_eq!(text(field(j, "unit")), m.unit);
            assert_eq!(text(field(j, "better")), better(m.higher_is_better), "{}", m.name);
        }
        let workloads: Vec<&str> =
            list(field(&json, "workloads")).iter().map(|w| text(field(w, "name"))).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
