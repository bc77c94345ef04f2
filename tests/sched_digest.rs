//! Golden decision digest of the scheduler: seeded storms through both
//! rebalance paths, hashed into one number that any change to a decision,
//! a trace row or a virtual time moves.
//!
//! - *Event storms* drive `process_events` over a partitioned scene:
//!   overloads (explicit and detected from slow frames), under-loads after
//!   the debounce, cost drift (armed, then fired), failures, and batches
//!   mixing them, duplicates included. Some worlds keep registered,
//!   unconnected services for UDDI to recruit; others have none and refuse.
//! - *Replan storms* drive `incremental_replan` from empty holders: cost
//!   edits, removals, additions, drift derating, failures, and nodes too big
//!   for any service, which the planner splits.
//!
//! The digest is `crc32` over each storm's `trace.render()`, the `Debug`
//! text of every outcome, and the final interest roots of every service as
//! the data service lists them and as the replica keeps them. Replans start
//! from empty holders, so the plan's record of who holds what always agrees
//! with the subscriptions there. A second digest hashes the same storms
//! with the trace rows' times left out and the rows sorted: a change that
//! only moves when things land keeps it.

use rave::core::bootstrap::connect_render_service;
use rave::core::migration::check_and_replan_incremental;
use rave::core::sched::rebalance::{
    detect_cost_drift, detect_overload, detect_underload, incremental_replan, process_events,
};
use rave::core::sched::SchedEvent;
use rave::core::world::{publish_update, RaveSim, RaveWorld};
use rave::core::{ClientId, DataServiceId, RaveConfig, RenderServiceId};
use rave::math::{Vec3, Viewport};
use rave::render::OffscreenMode;
use rave::scene::{CameraParams, InterestSet, MeshData, NodeId, NodeKind, SceneUpdate};
use rave::sim::{SimTime, Simulation};
use std::fmt::Write;
use std::sync::Arc;

/// `crc32` of every storm below. A change that moves it changed a decision
/// or a virtual time. It moved when a UDDI recruit began to be subscribed
/// before the shards were moved to it (a recruit's subscription now lists
/// the roots it was given, and a recruit that fails re-homes them or
/// refuses them), and when a move back to a service that cached the node
/// began to cross the wire as a header: those moves land sooner, which
/// changes trace times and the order of rows, and [`TIMELESS`] did not move.
/// Both moved when a failed render service's row became a `Failure` row
/// (it was an `Overload` row), and nothing else in the dump changed.
const GOLDEN: u32 = 0x024e_2a44;

/// `crc32` of the same storms with the virtual times left out: each
/// storm's trace rows without their timestamps, sorted, then its outcomes
/// and its interest roots. A change that only makes a transfer land sooner
/// or later moves [`GOLDEN`] and leaves this one standing.
const TIMELESS: u32 = 0x4d36_36f4;

const EVENT_SEEDS: u64 = 24;
const REPLAN_SEEDS: u64 = 16;

const HOSTS: [&str; 6] = ["onyx", "v880z", "laptop", "desktop", "tower", "adrenochrome"];

/// A short interactive target, so that a 60k-triangle node can overload a
/// laptop and the storms stay small.
fn config() -> RaveConfig {
    RaveConfig { target_fps: 60.0, ..RaveConfig::default() }
}

/// splitmix64: the storms' only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// Degenerate meshes of `tris` copies of one triangle: cheap to build,
/// costed by their count, never split.
fn palette(sizes: &[usize]) -> Vec<NodeKind> {
    sizes
        .iter()
        .map(|&tris| {
            NodeKind::Mesh(Arc::new(MeshData {
                positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
                normals: vec![],
                colors: vec![],
                triangles: vec![[0, 1, 2]; tris],
                texture_bytes: 0,
            }))
        })
        .collect()
}

/// A strip along X, which the planner can split spatially.
fn strip(tris: u32) -> NodeKind {
    let mut positions = Vec::new();
    for i in 0..=tris {
        positions.push(Vec3::new(i as f32, 0.0, 0.0));
        positions.push(Vec3::new(i as f32, 1.0, 0.0));
    }
    let triangles = (0..tris).map(|i| [i * 2, i * 2 + 2, i * 2 + 3]).collect();
    NodeKind::Mesh(Arc::new(MeshData::new(positions, triangles)))
}

fn add(
    sim: &mut RaveSim,
    ds: DataServiceId,
    parent: NodeId,
    name: String,
    kind: NodeKind,
) -> NodeId {
    let id = sim.world.data_mut(ds).scene.allocate_id();
    publish_update(sim, ds, "imp", SceneUpdate::AddNode { id, parent, name, kind }).unwrap();
    id
}

fn advance(sim: &mut RaveSim, secs: f64) {
    sim.schedule_in(SimTime::from_secs(secs), |_| {});
    sim.run();
}

/// Six frame completions `spacing` seconds apart, from now on.
fn frames(sim: &mut RaveSim, rs: RenderServiceId, spacing: f64) {
    let now = sim.now();
    for i in 0..6 {
        let at = now + SimTime::from_secs(i as f64 * spacing);
        sim.world.render_mut(rs).record_frame(at, 10);
    }
}

/// What the storms wrote, twice: `text` in full, and `timeless` with each
/// storm's trace rows stripped of their times and sorted.
#[derive(Default)]
struct Transcript {
    text: String,
    timeless: String,
}

impl Transcript {
    /// One storm: the outcome of each step, then the end state it is
    /// judged by — the trace, and each service's interest roots at the
    /// data service and on its replica.
    fn storm(&mut self, outcomes: &str, sim: &RaveSim, ds: DataServiceId) {
        let mut roots = String::new();
        for (rs, sub) in sim.world.data(ds).subscribers() {
            let held: Vec<NodeId> = sub.interest.roots().collect();
            let _ = writeln!(roots, "sub {rs} all={} {held:?}", sub.interest.is_everything());
        }
        for (rs, service) in &sim.world.render_services {
            let held: Vec<NodeId> = service.interest.roots().collect();
            let _ =
                writeln!(roots, "replica {rs} all={} {held:?}", service.interest.is_everything());
        }
        self.text.push_str(outcomes);
        self.text.push_str(&sim.world.trace.render());
        self.text.push_str(&roots);

        let mut rows: Vec<String> = sim
            .world
            .trace
            .events()
            .iter()
            .map(|e| format!("{:?}: {}\n", e.kind, e.detail))
            .collect();
        rows.sort_unstable();
        self.timeless.extend(rows);
        self.timeless.push_str(outcomes);
        self.timeless.push_str(&roots);
    }
}

/// What the storms exercised, summed over seeds: the digest means little
/// if a path it should pin never ran.
#[derive(Default, Debug)]
struct Seen {
    moved: usize,
    recruited: usize,
    refused: usize,
    underload_moves: usize,
    drift_events: usize,
    failures: usize,
    splits: usize,
    replan_refusals: usize,
}

fn event_storm(seed: u64, transcript: &mut Transcript, seen: &mut Seen) {
    let mut out = String::new();
    let mut rng = Rng(seed);
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config(), 100 + seed));
    let ds = sim.world.spawn_data_service("adrenochrome", "sess");
    let kinds = palette(&[2_000, 15_000, 60_000, 110_000, 170_000]);

    let root = sim.world.data(ds).scene.root();
    let group = add(&mut sim, ds, root, "g".into(), NodeKind::Group);
    let n_nodes = 3 + rng.below(7);
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| {
            let parent = if rng.below(4) == 0 { group } else { root };
            let kind = kinds[rng.below(kinds.len())].clone();
            add(&mut sim, ds, parent, format!("m{i}"), kind)
        })
        .collect();

    let n_services = 2 + rng.below(4);
    let mut alive: Vec<RenderServiceId> =
        (0..n_services).map(|_| sim.world.spawn_render_service(rng.pick(&HOSTS))).collect();
    let mut roots = vec![Vec::new(); n_services];
    for &node in &nodes {
        roots[rng.below(n_services)].push(node);
    }
    for (i, &rs) in alive.iter().enumerate() {
        if rng.below(3) == 0 {
            let viewport = if rng.below(2) == 0 { (200, 200) } else { (640, 480) };
            sim.world.render_mut(rs).open_session(
                ClientId(i as u64 + 1),
                Viewport::new(viewport.0, viewport.1),
                CameraParams::default(),
                OffscreenMode::Sequential,
            );
        }
        connect_render_service(&mut sim, rs, ds, InterestSet::subtrees(roots[i].clone()));
    }
    // Registered but unconnected: what UDDI can recruit.
    for _ in 0..rng.below(3) {
        sim.world.spawn_render_service(rng.pick(&HOSTS));
    }
    sim.run();

    let steps = 4 + rng.below(7);
    for step in 0..steps {
        if alive.is_empty() {
            break;
        }
        let target = rng.pick(&alive);
        let events: Vec<SchedEvent> = match rng.below(6) {
            0 => (0..1 + rng.below(3))
                .map(|_| {
                    let service = rng.pick(&alive);
                    match rng.below(4) {
                        0 => SchedEvent::Overload { service },
                        1 => SchedEvent::Underload { service },
                        2 => SchedEvent::CostDrift { service, measured: 1_000.0, expected: 1e7 },
                        _ => SchedEvent::Failure { service },
                    }
                })
                .collect(),
            1 => {
                frames(&mut sim, target, 0.5);
                detect_overload(&mut sim, ds)
            }
            2 => {
                frames(&mut sim, target, 0.01);
                let _ = detect_underload(&mut sim, ds);
                advance(&mut sim, 6.0);
                frames(&mut sim, target, 0.01);
                detect_underload(&mut sim, ds)
            }
            3 => {
                let rate = sim.world.render(target).machine.poly_rate;
                sim.world.sched.throughput.record(target, (rate * 0.05) as u64, 1.0);
                let _ = detect_cost_drift(&mut sim, ds);
                detect_cost_drift(&mut sim, ds)
            }
            4 => vec![SchedEvent::Failure { service: target }],
            _ => {
                frames(&mut sim, target, if rng.below(2) == 0 { 0.5 } else { 0.01 });
                let mut events = detect_overload(&mut sim, ds);
                events.extend(detect_underload(&mut sim, ds));
                events.extend(detect_cost_drift(&mut sim, ds));
                events
            }
        };
        let outcome = process_events(&mut sim, ds, &events);
        let _ = writeln!(out, "event seed {seed} step {step} {events:?} -> {outcome:?}");
        for ev in &events {
            match *ev {
                SchedEvent::Failure { service } => {
                    seen.failures += 1;
                    alive.retain(|&rs| rs != service);
                }
                SchedEvent::CostDrift { .. } => seen.drift_events += 1,
                SchedEvent::Underload { service } => {
                    seen.underload_moves +=
                        outcome.moved.iter().filter(|&&(_, _, to)| to == service).count();
                }
                _ => {}
            }
        }
        alive.extend(outcome.recruited.iter().copied());
        seen.moved += outcome.moved.len();
        seen.recruited += outcome.recruited.len();
        seen.refused += usize::from(outcome.refused);
        sim.run();
    }
    transcript.storm(&out, &sim, ds);
}

fn replan_storm(seed: u64, transcript: &mut Transcript, seen: &mut Seen) {
    let mut out = String::new();
    let mut rng = Rng(0x5EED_0000 + seed);
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config(), 200 + seed));
    let ds = sim.world.spawn_data_service("adrenochrome", "sess");
    let kinds = palette(&[1_000, 6_000, 20_000, 45_000]);
    // Weak rooms only on odd seeds: there a 160k strip fits nobody whole.
    let hosts: &[&str] = if seed % 2 == 1 { &["laptop", "desktop"] } else { &HOSTS };

    let mut alive: Vec<RenderServiceId> = (0..3 + rng.below(4))
        .map(|_| {
            let rs = sim.world.spawn_render_service(rng.pick(hosts));
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
            sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
            rs
        })
        .collect();
    let root = sim.world.data(ds).scene.root();
    let groups: Vec<NodeId> =
        (0..2).map(|g| add(&mut sim, ds, root, format!("g{g}"), NodeKind::Group)).collect();
    let mut nodes: Vec<NodeId> = (0..6 + rng.below(11))
        .map(|i| {
            let kind = if rng.below(10) == 0 {
                strip(160_000)
            } else {
                kinds[rng.below(kinds.len())].clone()
            };
            add(&mut sim, ds, groups[i % groups.len()], format!("m{i}"), kind)
        })
        .collect();
    sim.run();

    let steps = 3 + rng.below(8);
    let mut events: Vec<SchedEvent> = Vec::new();
    for step in 0..=steps {
        let outcome = if rng.below(4) == 0 {
            check_and_replan_incremental(&mut sim, ds)
        } else {
            incremental_replan(&mut sim, ds, &events)
        };
        events.clear();
        let _ = writeln!(out, "replan seed {seed} step {step} -> {outcome:?}");
        if let Some(diff) = &outcome.diff {
            seen.splits += diff.moved.iter().filter(|&&(n, _, _)| !nodes.contains(&n)).count();
        }
        seen.replan_refusals += usize::from(outcome.migration.refused);
        sim.run();
        if step == steps {
            break;
        }
        for _ in 0..1 + rng.below(3) {
            match rng.below(7) {
                0..=2 if !nodes.is_empty() => {
                    let id = rng.pick(&nodes);
                    let kind = kinds[rng.below(kinds.len())].clone();
                    publish_update(&mut sim, ds, "edit", SceneUpdate::ReplaceKind { id, kind })
                        .unwrap();
                }
                3 if nodes.len() > 2 => {
                    let id = nodes.swap_remove(rng.below(nodes.len()));
                    publish_update(&mut sim, ds, "edit", SceneUpdate::RemoveNode { id }).unwrap();
                }
                4 => {
                    let kind = kinds[rng.below(kinds.len())].clone();
                    let parent = rng.pick(&groups);
                    nodes.push(add(&mut sim, ds, parent, format!("late{step}"), kind));
                }
                5 if !alive.is_empty() => {
                    let rs = rng.pick(&alive);
                    let rate = sim.world.render(rs).machine.poly_rate;
                    sim.world.sched.throughput.record(rs, (rate * 0.4) as u64, 1.0);
                }
                6 if alive.len() > 2 => {
                    let service = alive.swap_remove(rng.below(alive.len()));
                    seen.failures += 1;
                    events.push(SchedEvent::Failure { service });
                }
                _ => {}
            }
        }
        sim.run();
    }
    transcript.storm(&out, &sim, ds);
}

#[test]
fn scheduler_decisions_match_the_golden_digest() {
    let mut transcript = Transcript::default();
    let mut seen = Seen::default();
    for seed in 0..EVENT_SEEDS {
        event_storm(seed, &mut transcript, &mut seen);
    }
    for seed in 0..REPLAN_SEEDS {
        replan_storm(seed, &mut transcript, &mut seen);
    }
    let every_path_ran = seen.moved > 0
        && seen.recruited > 0
        && seen.refused > 0
        && seen.underload_moves > 0
        && seen.drift_events > 0
        && seen.failures > 0
        && seen.splits > 0
        && seen.replan_refusals > 0;
    assert!(every_path_ran, "a path the digest pins never ran: {seen:?}");
    // To find the first row a change moved, dump the text on both sides.
    if let Some(path) = std::env::var_os("SCHED_DIGEST_DUMP") {
        std::fs::write(path, &transcript.text).unwrap();
    }
    let timeless = rave::store::crc32(transcript.timeless.as_bytes());
    let digest = rave::store::crc32(transcript.text.as_bytes());
    assert_eq!(timeless, TIMELESS, "scheduler decisions changed: timeless {timeless:#010x}");
    assert_eq!(digest, GOLDEN, "scheduler decisions changed: digest {digest:#010x}, {seen:?}");
}
