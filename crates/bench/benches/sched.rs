//! Scheduler scaling guardrail: plan latency of the placement engine
//! (`sched::placement` behind `plan_distribution`) over 100/1k/10k/100k
//! content nodes × 4/16/64 services, then the *incremental* replanner
//! (`plan_incremental` over a persistent `PlanState`) stormed with
//! localized per-event edits against cold full plans per event. Emits
//! `BENCH_sched.json` at the repo root; `check` holds `scaling_10k_over_1k`
//! (near-linear 1k→10k growth, the quadratic-regression guard),
//! `plan_100k_max_ms` (sub-second 100k plans) and `incremental_speedup`
//! (the storm at 100k nodes). Cold configs are timed best-of-N over
//! consecutive rounds, storms as the median per-event latency (both
//! steady-state, cache-warm, robust to one-off scheduler noise).
//! `BENCH_QUICK=1` runs fewer rounds and storm events.

use bench::harness::{best_of, median, num, obj, quick, secs, Lcg, Report};
use rave_core::capacity::{CapacityReport, Headroom};
use rave_core::distribution::{plan_distribution, plan_incremental};
use rave_core::sched::PlanState;
use rave_core::RenderServiceId;
use rave_math::Vec3;
use rave_scene::{MeshData, NodeCost, NodeId, NodeKind, SceneTree};
use serde::Serialize;
use std::sync::Arc;

const NODE_COUNTS: [usize; 4] = [100, 1_000, 10_000, 100_000];
const SERVICE_COUNTS: [u64; 3] = [4, 16, 64];

fn tiny_mesh(tris: u32) -> MeshData {
    MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }
}

/// `n` mesh nodes with varied (seeded) sizes, so the decreasing sort and
/// first-fit scan do non-degenerate work.
fn scene_with(n: usize) -> SceneTree {
    let mut rng = Lcg(0x5eed_bec4 ^ n as u64);
    let mut scene = SceneTree::new();
    let root = scene.root();
    for i in 0..n {
        let tris = rng.in_range(10, 400) as u32;
        scene.add_node(root, format!("m{i}"), NodeKind::Mesh(Arc::new(tiny_mesh(tris)))).unwrap();
    }
    scene
}

fn report(id: u64, polys: u64) -> CapacityReport {
    CapacityReport {
        service: RenderServiceId(id),
        host: format!("h{id}"),
        polys_per_sec: 1e7,
        poly_headroom: polys,
        texture_headroom: 1 << 40,
        volume_hw: false,
        assigned: NodeCost::ZERO,
        rolling_fps: None,
    }
}

struct ConfigTiming {
    nodes: usize,
    services: u64,
    secs: f64,
}

struct StormTiming {
    nodes: usize,
    services: u64,
    events: usize,
    /// Median seconds of one full `plan_distribution` call per event.
    cold: f64,
    /// Median seconds of one `plan_incremental` replay per event.
    incr: f64,
}

/// One localized storm event: add a small mesh, or remove one a previous
/// event added. The churned nodes are *light* — lighter than nearly all
/// of the standing scene — so they live near the tail of the
/// weight-descending queue: the localized single-object drift shape,
/// where the replay touches only a short suffix. (Heavy churn degrades
/// gracefully to replaying from the edit's queue position.)
fn storm_edit(scene: &mut SceneTree, extras: &mut Vec<NodeId>, rng: &mut Lcg, step: usize) {
    let root = scene.root();
    if step % 2 == 1 && !extras.is_empty() {
        let victim = extras.swap_remove(rng.next() as usize % extras.len());
        scene.remove(victim).unwrap();
    } else {
        let tris = rng.in_range(2, 40) as u32;
        let name = format!("storm{}", rng.next());
        let id = scene.add_node(root, name, NodeKind::Mesh(Arc::new(tiny_mesh(tris)))).unwrap();
        extras.push(id);
    }
}

fn main() {
    let rounds = if quick() { 3 } else { 9 };

    let mut results: Vec<ConfigTiming> = Vec::new();
    for &nodes in &NODE_COUNTS {
        let mut scene = scene_with(nodes);
        let total_polys = scene.total_cost().polygons;
        for &services in &SERVICE_COUNTS {
            // Generous headroom: plans complete without splits, so the
            // timing isolates the packing loop itself and the scene is
            // never mutated between rounds.
            let per_service = (total_polys / services) * 2 + 1_000;
            let reports: Vec<CapacityReport> =
                (1..=services).map(|i| report(i, per_service)).collect();
            let secs = best_of(rounds, || plan_distribution(&mut scene, &reports).unwrap());
            results.push(ConfigTiming { nodes, services, secs });
        }
    }

    // ---- Event-storm replanning: incremental vs full-per-event ----
    // The steady state is not "plan once": overload, drift and
    // membership events arrive continuously. A non-incremental engine
    // cold-plans the whole scene on every event; the incremental engine
    // folds the dirt into its persistent state and replays only the
    // affected queue suffix. Same edits, same scenes, same basis.
    let storm_events = if quick() { 10 } else { 40 };
    let mut storms: Vec<StormTiming> = Vec::new();
    for &nodes in &[1_000usize, 10_000, 100_000] {
        let services = 16u64;
        let mut scene = scene_with(nodes);
        let total_polys = scene.total_cost().polygons;
        let per_service = (total_polys / services) * 2 + 1_000_000;
        let reports: Vec<CapacityReport> = (1..=services).map(|i| report(i, per_service)).collect();
        let caps: Vec<(RenderServiceId, Headroom)> = (1..=services)
            .map(|i| {
                (RenderServiceId(i), Headroom { polygons: per_service, texture_bytes: 1 << 40 })
            })
            .collect();
        let mut rng = Lcg(0x5eed_5707 ^ nodes as u64);
        let mut extras: Vec<NodeId> = Vec::new();

        let mut cold_samples = Vec::with_capacity(storm_events);
        for step in 0..storm_events {
            storm_edit(&mut scene, &mut extras, &mut rng, step);
            cold_samples.push(secs(|| plan_distribution(&mut scene, &reports).unwrap()));
        }

        // One untimed priming build, then per-event incremental replays.
        let mut state = PlanState::new();
        plan_incremental(&mut scene, &caps, &mut state, 0.0).unwrap().expect("priming build");
        let mut incr_samples = Vec::with_capacity(storm_events);
        for step in 0..storm_events {
            storm_edit(&mut scene, &mut extras, &mut rng, step);
            incr_samples.push(secs(|| {
                plan_incremental(&mut scene, &caps, &mut state, 0.0)
                    .unwrap()
                    .expect("zero staleness replans on any dirt")
            }));
        }

        // The storm must land exactly on the cold plan of the final
        // scene before its timings are trusted.
        let cold_final = plan_distribution(&mut scene, &reports).unwrap();
        let flat: Vec<_> =
            cold_final.assignments.iter().map(|a| (a.service, a.nodes.clone(), a.cost)).collect();
        assert_eq!(state.assignments(), flat, "incremental storm diverged at {nodes} nodes");

        storms.push(StormTiming {
            nodes,
            services,
            events: storm_events,
            cold: median(&mut cold_samples),
            incr: median(&mut incr_samples).max(1e-12),
        });
    }

    let at = |n: usize, s: u64| {
        results.iter().find(|c| c.nodes == n && c.services == s).expect("config present").secs
    };
    let plan_100k_max =
        results.iter().filter(|c| c.nodes == 100_000).map(|c| c.secs).fold(0.0, f64::max);
    let storm_100k = storms.iter().find(|s| s.nodes == 100_000).expect("storm config present");

    let configs: Vec<_> = results
        .iter()
        .map(|c| {
            obj([
                ("nodes", c.nodes.to_value()),
                ("services", c.services.to_value()),
                ("unified_ms", num(c.secs * 1e3, 3)),
            ])
        })
        .collect();
    let storm_configs: Vec<_> = storms
        .iter()
        .map(|s| {
            obj([
                ("nodes", s.nodes.to_value()),
                ("services", s.services.to_value()),
                ("events", s.events.to_value()),
                ("cold_ms_per_plan", num(s.cold * 1e3, 3)),
                ("incremental_ms_per_plan", num(s.incr * 1e3, 3)),
                ("speedup", num(s.cold / s.incr, 1)),
                ("plans_per_sec", ((1.0 / s.incr).round() as u64).to_value()),
            ])
        })
        .collect();
    Report::new("sched")
        .set("configs", configs)
        .set("storm_configs", storm_configs)
        .set("unified_total_ms", num(results.iter().map(|c| c.secs).sum::<f64>() * 1e3, 3))
        .set("scaling_10k_over_1k", num(at(10_000, 4) / at(1_000, 4), 2))
        .set("plan_100k_max_ms", num(plan_100k_max * 1e3, 3))
        .set("incremental_speedup", num(storm_100k.cold / storm_100k.incr, 1))
        .set("plans_per_sec_100k", (1.0 / storm_100k.incr).round() as u64)
        .write();
}
