//! Scheduler scaling guardrail: plan latency of the placement engine
//! (`sched::placement` behind `plan_distribution`) over 100/1k/10k/100k
//! content nodes × 4/16/64 services, then the *incremental* replanner
//! (`plan_incremental` over a persistent `PlanState`) stormed with
//! localized per-event edits against cold full plans per event. Emits
//! `BENCH_sched.json` at the repo root; `check` holds `scaling_10k_over_1k`
//! (near-linear 1k→10k growth, the quadratic-regression guard),
//! `plan_100k_max_ms` (sub-second 100k plans), `incremental_speedup`
//! (the storm at 100k nodes) and `apply.us_per_move_10k_over_500` (a plan
//! diff of about 400 moves applied in a world — `incremental_replan` +
//! `sim.run()` — in a 10k-node and in a 500-node scene: a move costs the
//! move, not the scene) and `apply.revisit_wire_ratio` (the wire bytes of
//! the diff that sends those moves back, over theirs: a node returned to a
//! service that cached it crosses the wire as a header). Cold configs are timed best-of-N over
//! consecutive rounds, storms and diffs as the median per-event latency
//! (steady-state, cache-warm, robust to one-off scheduler noise).
//! `BENCH_QUICK=1` runs fewer rounds and storm events.

use bench::harness::{best_of, machine_room, median, num, obj, quick, secs, Lcg, Report};
use rave_core::capacity::{CapacityReport, Headroom};
use rave_core::distribution::{plan_distribution, plan_incremental};
use rave_core::migration::incremental_replan;
use rave_core::sched::PlanState;
use rave_core::world::{publish_update, RaveSim, RaveWorld};
use rave_core::{RaveConfig, RenderServiceId};
use rave_math::Vec3;
use rave_scene::{InterestSet, MeshData, NodeCost, NodeId, NodeKind, SceneTree, SceneUpdate};
use rave_sim::Simulation;
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

struct ApplyTiming {
    nodes: usize,
    /// Median moves of one applied diff, and median seconds per move of
    /// the replan that made it plus the run that landed it.
    moves: f64,
    secs_per_move: f64,
    /// Wire bytes of the second diff, which sends every node the first one
    /// moved back to the service it left, over the first diff's: virtual
    /// accounting, so the same on every host.
    revisit_wire_ratio: f64,
}

/// Moves a timed diff should make: the replay reaches this many of the
/// scene's lightest nodes, whatever the size of the scene.
const APPLY_REPLAYED: usize = 450;

/// An `edit_storm`-shaped world — 16 equal services on a machine room,
/// `nodes` small meshes under 16 groups, placed by the incremental planner
/// — in which one cost edit a round re-homes most of the
/// [`APPLY_REPLAYED`] lightest nodes. Times the replan (detect, plan,
/// apply the diff) and the run that lands the moves, per move.
fn time_apply(nodes: usize, rounds: usize) -> ApplyTiming {
    const SERVICES: usize = 16;
    let mut net = machine_room(4, 4);
    net.add_host("hub", "seg0");
    // Two frames a second: room for the 10k-node scene on 16 desktops.
    let config = RaveConfig { target_fps: 2.0, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::new(net, config, 4242));
    let ds = sim.world.spawn_data_service("hub", "bench");
    let services: Vec<RenderServiceId> = (0..SERVICES)
        .map(|i| {
            let rs = sim.world.spawn_render_service(&format!("host{}x{}", i / 4, i % 4));
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
            sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
            rs
        })
        .collect();

    // The lightest nodes have distinct even weights, so the edited node's
    // queue position is known: the replay starts there and reaches
    // everything lighter. The rest of the scene is heavier than all of them.
    let mut rng = Lcg(0xa991_7e57 ^ nodes as u64);
    let light = 2 * APPLY_REPLAYED as u32;
    let mut weights: Vec<u32> = (0..nodes as u32)
        .map(|i| if i <= light / 2 { 4 + 2 * i } else { 6 + light + i % 64 })
        .collect();
    for i in (1..weights.len()).rev() {
        weights.swap(i, rng.pick(i + 1));
    }
    let edited_weight = 4 + light;
    let (mut ids, mut edited) = (Vec::with_capacity(nodes), None);
    {
        let scene = &mut sim.world.data_mut(ds).scene;
        let root = scene.root();
        let groups: Vec<NodeId> = (0..SERVICES)
            .map(|g| scene.add_node(root, format!("g{g}"), NodeKind::Group).unwrap())
            .collect();
        for (i, &tris) in weights.iter().enumerate() {
            let kind = NodeKind::Mesh(Arc::new(tiny_mesh(tris)));
            let id = scene.add_node(groups[i % SERVICES], format!("m{i}"), kind).unwrap();
            if tris == edited_weight {
                edited = Some(id);
            }
            ids.push(id);
        }
    }
    let edited = edited.expect("one node has the edited weight");
    // One routed update builds the interest index the moves then patch.
    let rename = SceneUpdate::SetName { id: ids[0], name: "routed".into() };
    publish_update(&mut sim, ds, "bench", rename).unwrap();
    let placed = incremental_replan(&mut sim, ds, &[]).diff.expect("first pass plans");
    assert_eq!(placed.moved.len(), nodes, "every node placed");
    sim.run();
    let generation = sim.world.data(ds).index_generation();
    let hosts: Vec<String> = services.iter().map(|rs| sim.world.render(*rs).host.clone()).collect();
    // What the moves put on the wire: nothing else crosses these channels.
    let wire = |sim: &mut RaveSim| -> u64 {
        hosts.iter().map(|host| sim.world.channel("hub", host).bytes_sent()).sum()
    };

    let (mut per_move, mut moves) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    // The first two diffs, each `(moves, wire bytes)`.
    let mut first = Vec::new();
    for round in 0..rounds + 1 {
        // Down into the middle of the lighter nodes and back up (odd, so
        // still nobody's weight): the replay starts where the node stood.
        let tris = if round % 2 == 0 { (edited_weight / 2) | 1 } else { edited_weight };
        let kind = NodeKind::Mesh(Arc::new(tiny_mesh(tris)));
        sim.world.data_mut(ds).scene.node_mut(edited).unwrap().set_kind(kind);
        let mut moved = 0;
        let mut diff = Vec::new();
        let sent = wire(&mut sim);
        let elapsed = secs(|| {
            let out = incremental_replan(&mut sim, ds, &[]);
            moved = out.diff.map_or(0, |diff| diff.moved.len());
            diff = out.migration.moved;
            sim.run();
        });
        if first.len() < 2 {
            first.push((diff, wire(&mut sim) - sent));
        }
        assert!(moved > APPLY_REPLAYED / 4, "{nodes} nodes: the edit moved only {moved}");
        if round > 0 {
            // The first round warms what set-up left cold.
            per_move.push(elapsed / moved as f64);
            moves.push(moved as f64);
        }
    }
    for &id in &ids {
        let holders = services.iter().filter(|rs| sim.world.render(**rs).scene.contains(id));
        assert_eq!(holders.count(), 1, "node {id} held once at {nodes} nodes");
    }
    assert_eq!(sim.world.data(ds).index_generation(), generation, "moves patch the index");
    let [(away, away_bytes), (back, back_bytes)] = &mut first[..] else { unreachable!("two") };
    away.sort_unstable();
    back.sort_unstable();
    let returned: Vec<_> = back.iter().map(|&(node, from, to)| (node, to, from)).collect();
    assert_eq!(*away, returned, "{nodes} nodes: the second diff returns what the first moved");
    ApplyTiming {
        nodes,
        moves: median(&mut moves),
        secs_per_move: median(&mut per_move),
        revisit_wire_ratio: *back_bytes as f64 / *away_bytes as f64,
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
                    .expect("an edited scene replans")
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

    // ---- Applying a plan diff: a move costs the move ----
    let apply_rounds = if quick() { 5 } else { 21 };
    let apply: Vec<ApplyTiming> =
        [500usize, 10_000].iter().map(|&n| time_apply(n, apply_rounds)).collect();
    let [small, large] = &apply[..] else { unreachable!("two scenes") };

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
        .set(
            "apply",
            obj([
                (
                    "configs",
                    apply
                        .iter()
                        .map(|a| {
                            obj([
                                ("nodes", a.nodes.to_value()),
                                ("moves", num(a.moves, 0)),
                                ("us_per_move", num(a.secs_per_move * 1e6, 3)),
                                ("revisit_wire_ratio", num(a.revisit_wire_ratio, 4)),
                            ])
                        })
                        .collect::<Vec<_>>()
                        .to_value(),
                ),
                (
                    "us_per_move_10k_over_500",
                    num(large.secs_per_move / small.secs_per_move.max(1e-12), 2),
                ),
                (
                    "revisit_wire_ratio",
                    num(small.revisit_wire_ratio.max(large.revisit_wire_ratio), 4),
                ),
            ]),
        )
        .write();
}
