//! Collaboration scaling guardrail: routing and fan-out cost of one
//! session tick as the subscriber population grows 100 → 1k → 10k thin
//! clients. Two measurements, one artifact (`BENCH_collab.json`):
//!
//! 1. Routing: per-update decision latency of the inverted interest
//!    index (`DataService::route`) versus the embedded naive oracle
//!    (`route_naive`, one `InterestSet::relevant` closure probe per
//!    subscriber), over scoped `SetTransform` updates into a branchy
//!    scene with mostly-narrow subscribers. Every timed update is also
//!    parity-checked: the two paths must return identical decisions.
//!    Headline `routing_speedup_10k` is the speedup at the largest
//!    population (10k full, 1k quick).
//! 2. Delivery: full simulated ticks through `publish_batch` on a
//!    16-segment machine-room network — camera-move batches fanned out
//!    to every subscriber by segment multicast (`rave_net::Fanout`), one
//!    wire transmission per receiving segment — reporting tick time, the
//!    multicast/unicast wire-byte ratio, the tick time per delivery
//!    (`tick_ns_per_delivery`: tick wall ÷ moves × subscribers; its
//!    largest-over-smallest-population ratio says whether per-delivery
//!    cost stays flat as the session grows) and the simulator events a
//!    tick fires (`events_per_tick`: one per arrival instant, so its
//!    largest-over-smallest ratio is 1), plus the wire ratio on the paper's
//!    testbed (~24 clients across 6 LAN hosts + 1 wireless PDA), as
//!    `testbed_wire_ratio` (§3.1.2's "network bandwidth-saving
//!    techniques such as multicasting"). `publish_us` is the part of the
//!    fastest tick spent in `session_tick` (commit, routing and the
//!    delivery plan),
//!    apart from `sim.run()` (the replica applies); at the largest
//!    population a one-move tick is timed beside it, and
//!    `publish_moves_over_one` says what the plan costs per move: about
//!    `moves_per_tick` while every camera move is booked per subscriber,
//!    about 1 when a move that reaches everyone is booked per link class.
//! 3. Sparse waves (`sparse_waves`): one camera move a tick to 1, 10, 100
//!    and 1,000 subscribers spaced evenly through a world of 10,000
//!    render services, beside the same subscribers in a world that holds
//!    only them (`compact_tick_us` — the dense wave, where walking beats
//!    probing) and beside a `render_mut` probe of each (`probe_each_us`).
//!    `sparse_wave_worst_over_compact` says a wave pays for its members,
//!    not for the services between them. `subset_tick_us` is the compact
//!    tick with every subscriber on a branch of its own, snapshotted after
//!    the participants joined: subset replicas that hold no avatar and
//!    refuse each move unread (`SceneUpdate::try_apply`).
//!
//! 4. Index maintenance (`index`): one interest root handed from one
//!    subscriber to another — what a migration does to the index,
//!    `InterestIndex::add_root` + `remove_root` — against the rebuild of
//!    the whole index the same hand-over used to schedule, at the largest
//!    population (`move_root_over_rebuild`).
//!
//! `check` holds the routing speedup, the wire ratios, the per-delivery
//! growth, the event growth, the publish ratio, the sparse-wave ratio and
//! the move-over-rebuild ratio to their floors.
//! `BENCH_QUICK=1` runs smaller populations and fewer rounds.

use bench::harness::{best_of, machine_room, num, obj, quick, secs, Lcg, Report};
use rave_core::bootstrap::snapshot_for;
use rave_core::collaboration::{join_session, session_tick, Participant};
use rave_core::data_service::DataService;
use rave_core::world::{publish_update, RaveWorld};
use rave_core::{DataServiceId, RaveConfig, RenderServiceId};
use rave_math::Vec3;
use rave_scene::{
    CameraParams, InterestIndex, InterestSet, NodeId, NodeKind, SceneUpdate, Transform,
};
use rave_sim::Simulation;
use serde::Serialize;
use std::sync::Arc;

const BRANCHES: usize = 256;
const LEAVES_PER_BRANCH: usize = 4;
/// Render services in the world of the sparse-wave grid, quick and full.
const SPARSE_WORLD: usize = 10_000;

/// A data service with a branchy scene: `BRANCHES` top-level groups of
/// `LEAVES_PER_BRANCH` leaves each — enough structure that narrow
/// interests are genuinely narrow and the interval stab does real work.
fn routing_service() -> (DataService, Vec<NodeId>, Vec<NodeId>) {
    let mut ds = DataService::new(DataServiceId(1), "hub", "bench");
    let root = ds.scene.root();
    let mut branches = Vec::with_capacity(BRANCHES);
    let mut leaves = Vec::new();
    for b in 0..BRANCHES {
        let branch = ds.scene.add_node(root, format!("b{b}"), NodeKind::Group).unwrap();
        branches.push(branch);
        for l in 0..LEAVES_PER_BRANCH {
            leaves.push(ds.scene.add_node(branch, format!("b{b}l{l}"), NodeKind::Group).unwrap());
        }
    }
    (ds, branches, leaves)
}

/// The interests of `clients` services: 1 in 100 wants everything (a full
/// replica), the rest one or two branch subtrees — the 10k-thin-client
/// population shape.
fn population(branches: &[NodeId], clients: usize, rng: &mut Lcg) -> Vec<InterestSet> {
    (0..clients)
        .map(|i| {
            if i % 100 == 0 {
                InterestSet::everything()
            } else if i % 3 == 0 {
                InterestSet::subtrees([
                    branches[rng.pick(branches.len())],
                    branches[rng.pick(branches.len())],
                ])
            } else {
                InterestSet::subtrees([branches[rng.pick(branches.len())]])
            }
        })
        .collect()
}

fn subscribe_population(ds: &mut DataService, branches: &[NodeId], clients: usize, rng: &mut Lcg) {
    for (i, interest) in population(branches, clients, rng).into_iter().enumerate() {
        ds.subscribe_live(RenderServiceId(i as u64 + 1), interest);
    }
}

struct IndexTiming {
    clients: usize,
    rebuild_us: f64,
    move_root_ns: f64,
}

/// One interest root changing hands between two narrow subscribers of the
/// routing population, timed as the index patch it is, beside a rebuild of
/// the index over the same sets. The patched index must answer as a
/// rebuilt one before the timings are trusted.
fn time_index_moves(clients: usize, rounds: usize, rng: &mut Lcg) -> IndexTiming {
    let (ds, branches, leaves) = routing_service();
    let tree = &ds.scene;
    let mut sets = population(&branches, clients, rng);
    let mut ix = InterestIndex::new();
    let rebuild = best_of(rounds, || ix.rebuild(tree, sets.iter()));

    // Slots 1 and 2 hold one branch each; theirs go back and forth.
    let (a, b) = (1u32, 2u32);
    let root = sets[a as usize].roots().next().expect("slot 1 is narrow");
    let hand_over = |ix: &mut InterestIndex, sets: &mut [InterestSet], from: u32, to: u32| {
        if sets[to as usize].add_root(root) {
            ix.add_root(tree, to, root);
        }
        if sets[from as usize].remove_root(root) {
            ix.remove_root(from, root);
        }
    };
    const MOVES: usize = 2_000;
    let moved = best_of(rounds, || {
        for _ in 0..MOVES / 2 {
            hand_over(&mut ix, &mut sets, a, b);
            hand_over(&mut ix, &mut sets, b, a);
        }
    });
    hand_over(&mut ix, &mut sets, a, b);
    let mut rebuilt = InterestIndex::new();
    rebuilt.rebuild(tree, sets.iter());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &id in branches.iter().chain(&leaves).chain([&tree.root()]) {
        let probe = SceneUpdate::SetName { id, name: "probe".into() };
        let reach = ix.matches(&probe, tree, &mut got);
        assert_eq!(reach, rebuilt.matches(&probe, tree, &mut want));
        assert_eq!(got, want, "patched index diverged from a rebuilt one on {id}");
    }
    IndexTiming { clients, rebuild_us: rebuild * 1e6, move_root_ns: moved * 1e9 / MOVES as f64 }
}

struct RoutingTiming {
    clients: usize,
    probes: usize,
    indexed_us: f64,
    naive_us: f64,
    parity_checked: usize,
}

fn time_routing(clients: usize, rounds: usize, rng: &mut Lcg) -> RoutingTiming {
    let (mut ds, branches, leaves) = routing_service();
    subscribe_population(&mut ds, &branches, clients, rng);

    // A pool of scoped updates: transforms on random leaves, each
    // relevant to the everything-subscribers plus one branch's audience.
    let probes: Vec<Arc<rave_scene::StampedUpdate>> = (0..64)
        .map(|_| {
            let leaf = leaves[rng.pick(leaves.len())];
            let update = SceneUpdate::SetTransform {
                id: leaf,
                transform: Transform::from_translation(Vec3::X),
            };
            Arc::new(ds.stamp("bench", update))
        })
        .collect();

    // Parity gate before any timing is trusted: identical decisions,
    // update by update (both sides in ascending subscriber-id order).
    let mut parity_checked = 0usize;
    for p in &probes {
        assert_eq!(ds.route(p), ds.route_naive(p), "index diverged from naive scan");
        parity_checked += 1;
    }

    // Warm, then best-of-rounds over the whole pool per path.
    let indexed_best = best_of(rounds, || {
        for p in &probes {
            std::hint::black_box(ds.route(p));
        }
    });
    let naive_best = best_of(rounds, || {
        for p in &probes {
            std::hint::black_box(ds.route_naive(p));
        }
    });
    RoutingTiming {
        clients,
        probes: probes.len(),
        indexed_us: indexed_best * 1e6 / probes.len() as f64,
        naive_us: naive_best * 1e6 / probes.len() as f64,
        parity_checked,
    }
}

struct TickTiming {
    services: usize,
    clients: usize,
    moves_per_tick: usize,
    ticks: usize,
    tick_ms: f64,
    /// The part of a tick spent publishing its batch, fastest tick.
    publish_us: f64,
    /// Tick wall time per (move, subscriber) pair delivered.
    tick_ns_per_delivery: f64,
    /// Simulator events a tick fired: one per arrival instant.
    events_per_tick: f64,
    /// `RaveWorld::render_mut` on every subscriber once: what resolving a
    /// wave's replicas by a probe each costs in this world.
    probe_each_us: f64,
    wire_bytes: u64,
    unicast_wire_bytes: u64,
    wire_ratio: f64,
}

/// What every subscriber of a timed tick asks for.
#[derive(Clone, Copy)]
enum Interest {
    /// The whole scene: a full replica, which holds every avatar.
    Everything,
    /// One branch of its own, snapshotted after the participants joined:
    /// a subset replica, which holds no avatar and refuses every move.
    Branch,
}

/// Simulate `ticks` interactive ticks: `moves` participants re-pose
/// their cameras per tick, batched through `session_tick`, fanned out to
/// `clients` subscribers of `interest` — every `services / clients`-th of
/// the world's `services` render services, spread round-robin over the
/// machine-room hosts. Wall-clock per tick includes routing, multicast
/// arrival computation, event scheduling and replica application.
fn time_ticks(
    services: usize,
    clients: usize,
    moves: usize,
    ticks: usize,
    interest: Interest,
) -> TickTiming {
    let segments = 16;
    let hosts_per_segment = 4;
    let mut net = machine_room(segments, hosts_per_segment);
    net.add_host("hub", "seg0");
    // One presence update would otherwise allocate `clients` trace rows.
    let config = RaveConfig { update_delivery_trace: false, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::new(net, config, 4242));
    let ds = sim.world.spawn_data_service("hub", "bench");

    let participants: Vec<Participant> = (0..moves)
        .map(|i| {
            join_session(&mut sim, ds, &format!("u{i}"), Vec3::X, CameraParams::default()).unwrap()
        })
        .collect();
    sim.run();

    let interest = match interest {
        Interest::Everything => InterestSet::everything(),
        Interest::Branch => {
            let (id, root) = {
                let scene = &mut sim.world.data_mut(ds).scene;
                (scene.allocate_id(), scene.root())
            };
            let branch = SceneUpdate::AddNode {
                id,
                parent: root,
                name: "branch".into(),
                kind: NodeKind::Group,
            };
            publish_update(&mut sim, ds, "bench", branch).unwrap();
            sim.run();
            InterestSet::subtrees([id])
        }
    };
    let replica = snapshot_for(&sim.world.data(ds).scene, &interest);
    let every = services / clients;
    let mut subscribers = Vec::with_capacity(clients);
    for i in 0..services {
        let host = format!("host{}x{}", (i / hosts_per_segment) % segments, i % hosts_per_segment);
        let rs = sim.world.spawn_render_service(&host);
        if i % every == 0 && subscribers.len() < clients {
            sim.world.data_mut(ds).subscribe_live(rs, interest.clone());
            sim.world.render_mut(rs).scene = replica.clone();
            subscribers.push(rs);
        }
    }
    let probe_each = best_of(5, || {
        for &rs in &subscribers {
            std::hint::black_box(sim.world.render_mut(rs));
        }
    });
    let labels: Vec<String> = (0..moves).map(|i| format!("u{i}")).collect();
    let moves_at = |tick: usize| -> Vec<(Participant, &str, CameraParams)> {
        let camera = |i: usize| CameraParams {
            position: Vec3::new(tick as f32, i as f32, 0.0),
            ..CameraParams::default()
        };
        participants.iter().enumerate().map(|(i, &p)| (p, labels[i].as_str(), camera(i))).collect()
    };
    // Untimed: the first publish to a new population rebuilds the interest
    // index and resolves every subscriber's link class.
    session_tick(&mut sim, ds, &moves_at(0)).unwrap();
    sim.run();
    let fanout_base = sim.world.data(ds).fanout;
    let events_base = sim.executed();

    let mut publish = f64::INFINITY;
    let elapsed = secs(|| {
        for tick in 1..=ticks {
            let moves_batch = moves_at(tick);
            let took = secs(|| {
                session_tick(&mut sim, ds, &moves_batch).unwrap();
            });
            publish = publish.min(took);
            sim.run();
        }
    });

    let fanout = sim.world.data(ds).fanout;
    let wire = fanout.wire_bytes - fanout_base.wire_bytes;
    let unicast = fanout.unicast_wire_bytes - fanout_base.unicast_wire_bytes;
    TickTiming {
        services,
        clients,
        moves_per_tick: moves,
        ticks,
        tick_ms: elapsed * 1e3 / ticks as f64,
        publish_us: publish * 1e6,
        tick_ns_per_delivery: elapsed * 1e9 / (ticks * moves * clients) as f64,
        events_per_tick: (sim.executed() - events_base) as f64 / ticks as f64,
        probe_each_us: probe_each * 1e6,
        wire_bytes: wire,
        unicast_wire_bytes: unicast,
        wire_ratio: if unicast == 0 { 1.0 } else { wire as f64 / unicast as f64 },
    }
}

/// The paper's own testbed: ~24 clients on 6 LAN machines + the wireless
/// PDA, camera traffic multicast from the data service on adrenochrome.
fn testbed_wire_ratio() -> f64 {
    let config = RaveConfig { update_delivery_trace: false, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 7));
    let ds = sim.world.spawn_data_service("adrenochrome", "bench");
    let hosts = ["onyx", "v880z", "laptop", "desktop", "tower", "adrenochrome", "zaurus"];
    let participants: Vec<Participant> = (0..4)
        .map(|i| {
            join_session(&mut sim, ds, &format!("u{i}"), Vec3::X, CameraParams::default()).unwrap()
        })
        .collect();
    sim.run();
    let replica = sim.world.data(ds).scene.clone();
    for i in 0..24 {
        let rs = sim.world.spawn_render_service(hosts[i % hosts.len()]);
        sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        sim.world.render_mut(rs).scene = replica.clone();
    }
    let base = sim.world.data(ds).fanout;
    let labels: Vec<String> = (0..participants.len()).map(|i| format!("u{i}")).collect();
    for tick in 0..8 {
        let moves: Vec<(Participant, &str, CameraParams)> = participants
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let cam = CameraParams {
                    position: Vec3::new(tick as f32, i as f32, 1.0),
                    ..CameraParams::default()
                };
                (p, labels[i].as_str(), cam)
            })
            .collect();
        session_tick(&mut sim, ds, &moves).unwrap();
        sim.run();
    }
    let fanout = sim.world.data(ds).fanout;
    let wire = fanout.wire_bytes - base.wire_bytes;
    let unicast = fanout.unicast_wire_bytes - base.unicast_wire_bytes;
    wire as f64 / unicast as f64
}

fn main() {
    let rounds = if quick() { 3 } else { 9 };
    let populations: &[usize] = if quick() { &[100, 1_000] } else { &[100, 1_000, 10_000] };
    let moves_per_tick = if quick() { 8 } else { 32 };
    let ticks = if quick() { 2 } else { 4 };
    let sparse_ticks = if quick() { 64 } else { 256 };

    let mut rng = Lcg(0xc0_11ab);
    let routing: Vec<RoutingTiming> =
        populations.iter().map(|&c| time_routing(c, rounds, &mut rng)).collect();
    let full = Interest::Everything;
    let delivery: Vec<TickTiming> =
        populations.iter().map(|&c| time_ticks(c, c, moves_per_tick, ticks, full)).collect();
    let largest_population = *populations.last().expect("at least one population");
    let one_move = time_ticks(largest_population, largest_population, 1, ticks, full);
    // Sparse waves: one move a tick to a few subscribers of a large world,
    // beside the same subscribers in a world that holds nothing else, as
    // full replicas and as subset replicas.
    let sparse: Vec<[TickTiming; 3]> = [1, 10, 100, 1_000]
        .iter()
        .map(|&m| {
            [
                time_ticks(SPARSE_WORLD, m, 1, sparse_ticks, full),
                time_ticks(m, m, 1, sparse_ticks, full),
                time_ticks(m, m, 1, sparse_ticks, Interest::Branch),
            ]
        })
        .collect();
    let testbed_ratio = testbed_wire_ratio();
    let index = time_index_moves(largest_population, rounds, &mut rng);

    let headline = routing.last().expect("at least one population");
    let routing_speedup_10k = headline.naive_us / headline.indexed_us.max(1e-9);
    let parity_checked: usize = routing.iter().map(|r| r.parity_checked).sum();
    let (smallest, largest) =
        (delivery.first().expect("at least one population"), delivery.last().expect("same"));
    let largest_tick_ms = largest.tick_ms.max(1e-9);
    let per_delivery_growth =
        largest.tick_ns_per_delivery / smallest.tick_ns_per_delivery.max(1e-9);
    let events_growth = largest.events_per_tick / smallest.events_per_tick.max(1e-9);
    let publish_moves_over_one = largest.publish_us / one_move.publish_us.max(1e-9);

    let configs: Vec<_> = routing
        .iter()
        .zip(&delivery)
        .map(|(r, d)| {
            obj([
                ("clients", r.clients.to_value()),
                ("probes", r.probes.to_value()),
                ("route_indexed_us", num(r.indexed_us, 3)),
                ("route_naive_us", num(r.naive_us, 3)),
                ("routing_speedup", num(r.naive_us / r.indexed_us.max(1e-9), 1)),
                ("moves_per_tick", d.moves_per_tick.to_value()),
                ("ticks", d.ticks.to_value()),
                ("tick_ms", num(d.tick_ms, 2)),
                ("publish_us", num(d.publish_us, 1)),
                ("tick_ns_per_delivery", num(d.tick_ns_per_delivery, 1)),
                ("events_per_tick", num(d.events_per_tick, 2)),
                ("wire_bytes", d.wire_bytes.to_value()),
                ("unicast_wire_bytes", d.unicast_wire_bytes.to_value()),
                ("wire_ratio", num(d.wire_ratio, 4)),
            ])
        })
        .collect();
    let over_compact =
        |[wide, compact, _]: &[TickTiming; 3]| wide.tick_ms / compact.tick_ms.max(1e-9);
    let sparse_worst = sparse.iter().map(over_compact).fold(0.0, f64::max);
    let sparse_waves: Vec<_> = sparse
        .iter()
        .map(|row| {
            let [wide, compact, subset] = row;
            obj([
                ("services", wide.services.to_value()),
                ("members", wide.clients.to_value()),
                ("ticks", wide.ticks.to_value()),
                ("tick_us", num(wide.tick_ms * 1e3, 2)),
                ("compact_tick_us", num(compact.tick_ms * 1e3, 2)),
                ("subset_tick_us", num(subset.tick_ms * 1e3, 2)),
                ("over_compact", num(over_compact(row), 2)),
                ("probe_each_us", num(wide.probe_each_us, 2)),
                ("events_per_tick", num(wide.events_per_tick, 2)),
            ])
        })
        .collect();
    Report::new("collab")
        .set("configs", configs)
        .set("sparse_waves", sparse_waves)
        .set("sparse_wave_worst_over_compact", num(sparse_worst, 2))
        .set("routing_speedup_10k", num(routing_speedup_10k, 1))
        .set("parity_checked", parity_checked)
        .set("ticks_per_sec_largest", num(1e3 / largest_tick_ms, 2))
        .set("tick_per_delivery_largest_over_smallest", num(per_delivery_growth, 2))
        .set("tick_events_largest_over_smallest", num(events_growth, 2))
        .set("publish_one_move_us", num(one_move.publish_us, 1))
        .set("publish_moves_over_one", num(publish_moves_over_one, 2))
        .set("testbed_wire_ratio", num(testbed_ratio, 4))
        .set(
            "index",
            obj([
                ("clients", index.clients.to_value()),
                ("rebuild_us", num(index.rebuild_us, 1)),
                ("move_root_ns", num(index.move_root_ns, 1)),
                ("move_root_over_rebuild", num(index.move_root_ns / 1e3 / index.rebuild_us, 5)),
            ]),
        )
        .write();
}
