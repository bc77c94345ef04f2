//! Property tests on the unified scheduler: arbitrary sequences of
//! rebalance events — overload, underload, failure, cost drift —
//! conserve the scene (every content node stays claimed by exactly one
//! live subscriber, replica contents partition the master, and the
//! master copy itself is never touched, and the interest index routes as
//! the naive scan does — also after applied plan diffs, which patch the
//! index in place: a fixed population's index is never rebuilt); the
//! ledger's incremental
//! resift tracks a naive full re-sort over arbitrary debit/push
//! sequences; the incremental planner's suffix replays land on the
//! cold plan of the final workload set after arbitrary edit storms; and
//! the release ledger charges every move what a plain reference model of
//! released payloads says, without changing a replica.

use proptest::prelude::*;
use rave::core::bootstrap::connect_render_service;
use rave::core::data_service::MoveTotals;
use rave::core::replica::{establish_standby, ship_tick};
use rave::core::sched::rebalance::{incremental_replan, process_events, IncrementalOutcome};
use rave::core::sched::SchedEvent;
use rave::core::trace::{TraceEvent, TraceKind};
use rave::core::world::{publish_update, RaveSim, RaveWorld};
use rave::core::{DataServiceId, RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::scene::{InterestSet, MeshData, NodeId, NodeKind, SceneUpdate, Transform};
use rave::sim::{SimTime, Simulation};
use rave::store::StoreConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn mesh(tris: u32) -> NodeKind {
    NodeKind::Mesh(Arc::new(MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }))
}

/// What a batch of moves must leave behind at the data service: the
/// interest index routing an update of each moved node to exactly the
/// subscribers the naive scan — each subscriber's roots read against the
/// scene as it stands — finds (all of them live here). Probed on a clone,
/// so the check rebuilds nothing in the world.
fn assert_interests_exact(
    sim: &RaveSim,
    ds: DataServiceId,
    moved: impl IntoIterator<Item = NodeId>,
) -> Result<(), TestCaseError> {
    let mut probe = sim.world.data(ds).clone();
    for node in moved {
        let update = SceneUpdate::SetTransform { id: node, transform: Transform::IDENTITY };
        let stamped = Arc::new(probe.stamp("probe", update));
        prop_assert_eq!(probe.route(&stamped), probe.route_naive(&stamped), "node {}", node);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Feed the scheduler random event batches over a partitioned scene.
    /// After every processed batch (and barring an explicit refusal) the
    /// scene is conserved: each content node has exactly one holder among
    /// the live subscribers and the replicas sum to the master cost.
    #[test]
    fn event_storms_conserve_the_scene(
        sizes in prop::collection::vec(100u32..5_000, 2..6),
        storm in prop::collection::vec((0usize..4, any::<usize>()), 1..8),
    ) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1717));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let mut nodes: Vec<NodeId> = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            let (id, root) = {
                let scene = &mut sim.world.data_mut(ds).scene;
                (scene.allocate_id(), scene.root())
            };
            publish_update(
                &mut sim,
                ds,
                "imp",
                SceneUpdate::AddNode {
                    id,
                    parent: root,
                    name: format!("m{i}"),
                    kind: mesh(s),
                },
            )
            .unwrap();
            nodes.push(id);
        }
        let master_polys = sim.world.data(ds).scene.total_cost().polygons;

        let hosts = ["onyx", "tower", "v880z", "laptop", "desktop", "adrenochrome"];
        let mut alive: Vec<RenderServiceId> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let rs = sim.world.spawn_render_service(hosts[i % hosts.len()]);
            connect_render_service(&mut sim, rs, ds, InterestSet::subtrees([node]));
            alive.push(rs);
        }
        sim.run();

        for &(kind, pick) in &storm {
            if alive.len() <= 1 {
                break;
            }
            let target = alive[pick % alive.len()];
            let event = match kind {
                0 => SchedEvent::Overload { service: target },
                1 => SchedEvent::Underload { service: target },
                2 => SchedEvent::CostDrift {
                    service: target,
                    measured: 1_000.0,
                    expected: 1e7,
                },
                _ => SchedEvent::Failure { service: target },
            };
            let outcome = process_events(&mut sim, ds, &[event]);
            if matches!(event, SchedEvent::Failure { .. }) {
                alive.retain(|&rs| rs != target);
            }
            for r in &outcome.recruited {
                alive.push(*r);
            }
            assert_interests_exact(&sim, ds, outcome.moved.iter().map(|m| m.0))?;
            sim.run();

            // Master untouched, whatever the scheduler did.
            prop_assert_eq!(sim.world.data(ds).scene.total_cost().polygons, master_polys);
            if outcome.refused {
                continue; // explicitly surfaced loss — allowed by the spec
            }
            // Every content node claimed by exactly one live subscriber.
            let ds_ref = sim.world.data(ds);
            for &node in &nodes {
                let holders = ds_ref
                    .subscribers()
                    .values()
                    .filter(|sub| sub.interest.roots().any(|r| r == node))
                    .count();
                prop_assert_eq!(holders, 1, "node {} held once after {:?}", node, event);
            }
            // Replicas partition the master scene: total assigned cost is
            // conserved through every move.
            let total_replica: u64 = ds_ref
                .subscribers()
                .keys()
                .map(|rs| sim.world.render(*rs).assigned_cost().polygons)
                .sum();
            prop_assert_eq!(total_replica, master_polys, "replicas conserve cost after {:?}", event);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental path end to end in a world: cost edits, removals
    /// and service failures replanned into `PlanDiff`s and applied. After
    /// every applied diff the interests are exact (above).
    #[test]
    fn applied_plan_diffs_keep_interests_exact(
        sizes in prop::collection::vec(100u32..5_000, 4..24),
        storm in prop::collection::vec((0usize..4, any::<usize>(), 100u32..5_000), 1..10),
    ) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1717));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let mut alive: Vec<RenderServiceId> = Vec::new();
        for host in ["onyx", "tower", "v880z", "laptop", "desktop"] {
            let rs = sim.world.spawn_render_service(host);
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
            sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
            alive.push(rs);
        }
        let mut nodes: Vec<NodeId> = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            let (id, parent) = {
                let scene = &mut sim.world.data_mut(ds).scene;
                (scene.allocate_id(), scene.root())
            };
            let add = SceneUpdate::AddNode { id, parent, name: format!("m{i}"), kind: mesh(s) };
            publish_update(&mut sim, ds, "imp", add).unwrap();
            nodes.push(id);
        }

        let mut events: Vec<SchedEvent> = Vec::new();
        for step in 0..=storm.len() {
            let out = incremental_replan(&mut sim, ds, &events);
            events.clear();
            if let Some(diff) = &out.diff {
                assert_interests_exact(&sim, ds, diff.moved.iter().map(|m| m.0))?;
            }
            sim.run();
            let Some(&(kind, pick, polys)) = storm.get(step) else { break };
            match kind {
                0 | 1 if !nodes.is_empty() => {
                    let id = nodes[pick % nodes.len()];
                    let edit = SceneUpdate::ReplaceKind { id, kind: mesh(polys) };
                    publish_update(&mut sim, ds, "edit", edit).unwrap();
                }
                2 if nodes.len() > 1 => {
                    let id = nodes.swap_remove(pick % nodes.len());
                    publish_update(&mut sim, ds, "edit", SceneUpdate::RemoveNode { id }).unwrap();
                }
                3 if alive.len() > 2 => {
                    let service = alive.swap_remove(pick % alive.len());
                    events.push(SchedEvent::Failure { service });
                }
                _ => {}
            }
            sim.run();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An `edit_storm`-shaped session: a fixed population of equal
    /// services, and rounds of published cost edits and removals, each
    /// replanned, applied and drained. (No additions: a node added under a
    /// group some replica keeps for orientation is delivered to that
    /// replica, which then holds it beside whoever the plan gives it to —
    /// ROADMAP item 1's list.) After every round each planned
    /// node is on exactly one replica — the one the data service lists it
    /// for — the interests are exact (`route` == `route_naive`), and the
    /// interest index is the one built during the
    /// import: first placements and moves patch it, structural edits repair
    /// it, nothing rebuilds or renumbers it.
    #[test]
    fn a_migration_storm_lands_every_node_once_and_never_rebuilds_the_index(
        sizes in prop::collection::vec(100u32..5_000, 8..32),
        storm in prop::collection::vec(
            prop::collection::vec((0usize..4, any::<usize>(), 100u32..5_000), 1..5),
            1..8,
        ),
    ) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 1717));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        // Equal machines, so that the worst-fit replay spreads the scene
        // and a cost edit re-homes much of it.
        let services: Vec<RenderServiceId> = ["desktop", "adrenochrome", "desktop", "adrenochrome"]
            .iter()
            .map(|host| {
                let rs = sim.world.spawn_render_service(host);
                sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
                sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
                rs
            })
            .collect();
        let root = sim.world.data(ds).scene.root();
        let add = |sim: &mut RaveSim, parent: NodeId, name: String, kind: NodeKind| {
            let id = sim.world.data_mut(ds).scene.allocate_id();
            publish_update(sim, ds, "imp", SceneUpdate::AddNode { id, parent, name, kind }).unwrap();
            id
        };
        let groups: Vec<NodeId> =
            (0..3).map(|g| add(&mut sim, root, format!("g{g}"), NodeKind::Group)).collect();
        let mut nodes: Vec<NodeId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| add(&mut sim, groups[i % groups.len()], format!("m{i}"), mesh(s)))
            .collect();
        sim.run();
        let generation = sim.world.data(ds).index_generation();

        for round in 0..=storm.len() {
            let out = incremental_replan(&mut sim, ds, &[]);
            prop_assert!(!out.migration.refused, "round {}", round);
            sim.run();
            for &node in &nodes {
                let holders: Vec<RenderServiceId> = services
                    .iter()
                    .copied()
                    .filter(|rs| sim.world.render(*rs).scene.contains(node))
                    .collect();
                let listed: Vec<RenderServiceId> = sim
                    .world
                    .data(ds)
                    .subscribers()
                    .iter()
                    .filter(|(_, sub)| sub.interest.roots().any(|r| r == node))
                    .map(|(rs, _)| *rs)
                    .collect();
                prop_assert_eq!(holders.len(), 1, "node {} held by {:?}", node, &holders);
                prop_assert_eq!(&holders, &listed, "node {}", node);
                prop_assert!(sim.world.render(holders[0]).interest.roots().any(|r| r == node));
            }
            assert_interests_exact(&sim, ds, nodes.iter().copied())?;
            prop_assert_eq!(sim.world.data(ds).index_generation(), generation, "round {}", round);

            let Some(edits) = storm.get(round) else { break };
            for &(kind, pick, polys) in edits {
                let id = nodes[pick % nodes.len()];
                if kind == 3 && nodes.len() > 1 {
                    nodes.swap_remove(pick % nodes.len());
                    publish_update(&mut sim, ds, "edit", SceneUpdate::RemoveNode { id }).unwrap();
                } else {
                    let edit = SceneUpdate::ReplaceKind { id, kind: mesh(polys) };
                    publish_update(&mut sim, ds, "edit", edit).unwrap();
                }
            }
            sim.run();
        }
    }
}

mod ledger_resift {
    //! The `Ledger` keeps its most-spacious-first order two ways: an
    //! O(log s) `partition_point`/`rotate_left` resift after an in-order
    //! debit, and a full re-sort deferred to the next successful fit
    //! after an out-of-order `push` (the `stale_tail` flag). Both must
    //! agree — choice by choice and slot order by slot order — with the
    //! pre-refactor policy: a naive stable re-sort after every debit.

    use proptest::prelude::*;
    use rave::core::capacity::Headroom;
    use rave::core::sched::Ledger;
    use rave::core::RenderServiceId;
    use rave::scene::NodeCost;

    /// The naive reference ledger: first-fit over the mirrored slot
    /// order, full stable re-sort after every successful debit, pushes
    /// appended unsorted until the next debit's re-sort folds them in.
    struct Naive(Vec<(RenderServiceId, u64, u64)>);

    impl Naive {
        fn fit(&mut self, polys: u64, tex: u64) -> Option<RenderServiceId> {
            let idx = self.0.iter().position(|&(_, p, t)| polys <= p && tex <= t)?;
            self.0[idx].1 -= polys;
            self.0[idx].2 -= tex;
            let svc = self.0[idx].0;
            self.0.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            Some(svc)
        }

        fn states(&self) -> Vec<(RenderServiceId, u64)> {
            self.0.iter().map(|&(s, p, _)| (s, p)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary interleavings of fits (op 1..5, hit or miss on
        /// either capacity axis) and recruit pushes (op 0) leave the
        /// live ledger and the naive model in identical slot states at
        /// every step, choosing identical services.
        #[test]
        fn incremental_resift_matches_a_naive_stable_resort(
            initial in prop::collection::vec((1u64..200_000, 0u64..4_000), 1..10),
            ops in prop::collection::vec((0usize..5, 0u64..100_000, 0u64..3_000), 1..60),
        ) {
            let caps: Vec<(RenderServiceId, Headroom)> = initial
                .iter()
                .enumerate()
                .map(|(i, &(p, t))| {
                    (RenderServiceId(i as u64 + 1), Headroom { polygons: p, texture_bytes: t })
                })
                .collect();
            let mut ledger = Ledger::from_caps(&caps, true);
            let mut model: Vec<(RenderServiceId, u64, u64)> =
                caps.iter().map(|&(s, h)| (s, h.polygons, h.texture_bytes)).collect();
            model.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut naive = Naive(model);
            let mut next_svc = initial.len() as u64 + 1;

            for &(kind, a, b) in &ops {
                if kind == 0 {
                    ledger.push(
                        RenderServiceId(next_svc),
                        Headroom { polygons: a, texture_bytes: b },
                    );
                    naive.0.push((RenderServiceId(next_svc), a, b));
                    next_svc += 1;
                } else {
                    let cost = NodeCost { polygons: a, texture_bytes: b, ..NodeCost::ZERO };
                    prop_assert_eq!(ledger.fit(&cost), naive.fit(a, b));
                }
                prop_assert_eq!(ledger.slot_states(), naive.states());
            }
        }
    }
}

mod plan_state_storms {
    //! Edit-storm exactness at the `PlanState` level, away from any
    //! scene: arbitrary interleavings of unit upserts, removals, basis
    //! swaps, forced full replays and replans must always land the
    //! incremental state on exactly the assignment a cold
    //! `place_with_splitting` of the final workload set produces — and
    //! the emitted diffs, applied move by move, must reconstruct it.

    use proptest::prelude::*;
    use rave::core::capacity::Headroom;
    use rave::core::distribution::plan_incremental;
    use rave::core::sched::placement::{place_with_splitting, Ledger};
    use rave::core::sched::PlanState;
    use rave::core::RenderServiceId;
    use rave::scene::{NodeCost, NodeId, SceneTree};
    use std::collections::BTreeMap;

    fn cold(
        units: &BTreeMap<NodeId, NodeCost>,
        caps: &[(RenderServiceId, Headroom)],
    ) -> Vec<(RenderServiceId, Vec<NodeId>, NodeCost)> {
        let mut ledger = Ledger::from_caps(caps, true);
        let queue: Vec<(NodeId, NodeCost)> = units.iter().map(|(&id, &c)| (id, c)).collect();
        place_with_splitting(&mut ledger, queue, |_| None)
            .expect("feasible by construction")
            .assignments
    }

    /// Replan `state` from `master`'s edit journal and hold it to the cold
    /// plan of the scene as it is.
    fn follow(
        state: &mut PlanState,
        master: &mut SceneTree,
        caps: &[(RenderServiceId, Headroom)],
    ) -> Result<(), TestCaseError> {
        plan_incremental(master, caps, state, 0.0).unwrap();
        let units: BTreeMap<NodeId, NodeCost> = master
            .iter_nodes()
            .filter(|n| !n.own_cost().is_zero())
            .map(|n| (n.id(), n.own_cost()))
            .collect();
        prop_assert_eq!(state.assignments(), cold(&units, caps));
        Ok(())
    }

    fn basis(n_services: usize, shuffle: u64) -> Vec<(RenderServiceId, Headroom)> {
        (0..n_services)
            .map(|i| {
                // Distinct per-service room (no key ties), perturbed by
                // the basis generation so swaps really reorder slots.
                let polygons = 60_000 + (i as u64) * 9_001 + (shuffle % 7) * 1_003;
                (RenderServiceId(i as u64 + 1), Headroom { polygons, texture_bytes: 1 << 30 })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Workload ids live in a 40-id space with costs under 2k
        /// polygons against ≥3 services of ≥60k each, so every storm is
        /// feasible without splitting and every divergence is an engine
        /// bug. Ops: 0-3 upsert, 4-5 remove, 6 swap the capacity basis,
        /// 7 force a full replay, 8 replan now (plus a final replan).
        ///
        /// The same storm also edits a scene that two more plan states
        /// follow through `plan_incremental`, each from its own position
        /// in the scene's edit journal: op 8 replans both, op 9 one of
        /// them, so they read at different paces and neither may miss an
        /// edit the other has read.
        #[test]
        fn edit_storms_replan_to_the_cold_plan(
            n_services in 3usize..7,
            storm in prop::collection::vec((0usize..10, any::<u64>(), 1u64..2_000), 1..80),
        ) {
            let mut generation = 0u64;
            let mut caps = basis(n_services, generation);
            let mut units: BTreeMap<NodeId, NodeCost> = BTreeMap::new();
            let mut state = PlanState::new();
            state.full_rebuild(Vec::new(), &caps, |_| None).unwrap();
            let mut applied: BTreeMap<NodeId, RenderServiceId> = BTreeMap::new();
            let mut master = SceneTree::new();
            let mut followers = [PlanState::new(), PlanState::new()];

            let replan = |state: &mut PlanState,
                              applied: &mut BTreeMap<NodeId, RenderServiceId>,
                              units: &BTreeMap<NodeId, NodeCost>,
                              caps: &Vec<(RenderServiceId, Headroom)>|
             -> Result<(), TestCaseError> {
                let diff = state.replan(|_| None).unwrap();
                for &(node, from, to) in &diff.moved {
                    prop_assert_eq!(applied.insert(node, to), from);
                }
                for &(node, svc) in &diff.dropped {
                    prop_assert_eq!(applied.remove(&node), Some(svc));
                }
                prop_assert_eq!(state.assignments(), cold(units, caps));
                Ok(())
            };

            for &(kind, pick, polys) in &storm {
                let id = NodeId(pick % 40 + 1); // 0 is the scene's root
                match kind {
                    0..=3 => {
                        let cost =
                            NodeCost { polygons: polys, data_bytes: polys, ..NodeCost::ZERO };
                        units.insert(id, cost);
                        state.note_unit(id, Some(cost));
                        let kind = super::mesh(polys as u32);
                        if master.contains(id) {
                            master.node_mut(id).unwrap().set_kind(kind);
                        } else {
                            master.insert_with_id(id, NodeId(0), "unit", kind).unwrap();
                        }
                    }
                    4 | 5 => {
                        units.remove(&id);
                        state.note_unit(id, None);
                        let _ = master.remove(id); // refused when it was never there
                    }
                    6 => {
                        generation += 1;
                        caps = basis(n_services, generation);
                        state.note_caps(&caps);
                    }
                    7 => state.force_full_replay(),
                    8 => {
                        replan(&mut state, &mut applied, &units, &caps)?;
                        for follower in &mut followers {
                            follow(follower, &mut master, &caps)?;
                        }
                    }
                    _ => follow(&mut followers[(pick % 2) as usize], &mut master, &caps)?,
                }
            }
            replan(&mut state, &mut applied, &units, &caps)?;
            for follower in &mut followers {
                follow(follower, &mut master, &caps)?;
            }
            // Nothing lingers: the applied diffs and the final plan are
            // the same node→service map.
            let flat: BTreeMap<NodeId, RenderServiceId> = state
                .assignments()
                .into_iter()
                .flat_map(|(svc, nodes, _)| nodes.into_iter().map(move |n| (n, svc)))
                .collect();
            prop_assert_eq!(flat, applied);
        }
    }
}

/// The reference the data service's release ledger is held to, in the
/// plainest form: per (service, node), the payload `Arc` the service
/// released, which counts only while it is still the master's payload
/// (`Arc::ptr_eq`) and once the node's last move has landed — read from
/// the trace's `Migration` rows, not from any arrival time the data
/// service computed.
#[derive(Default)]
struct Releases {
    /// What each service released, with its bytes.
    released: BTreeMap<(RenderServiceId, NodeId), (Arc<MeshData>, u64)>,
    /// Per move's trace row, how many such moves were decided.
    issued: BTreeMap<Move, usize>,
    /// Per node, the trace row of its last move, and its moves in all.
    last: BTreeMap<NodeId, (Move, usize)>,
    /// A move or an edit met a node with a move still on the wire: the
    /// replicas then depend on the order of arrivals (a known race of
    /// migration hand-offs), so two runs that charge differently may part.
    raced: bool,
}

/// The master's payload of `node` and its bytes.
fn payload(sim: &RaveSim, ds: DataServiceId, node: NodeId) -> Option<(Arc<MeshData>, u64)> {
    let n = sim.world.data(ds).scene.node(node)?;
    match n.kind() {
        NodeKind::Mesh(m) => Some((m.clone(), m.wire_size())),
        _ => None,
    }
}

/// A `Migration` row's fields: the node, where it moved from (`None` for a
/// first placement) and where to.
type Move = (NodeId, Option<RenderServiceId>, RenderServiceId);

/// Every kept `Migration` row.
fn moves(sim: &RaveSim) -> impl Iterator<Item = Move> + '_ {
    sim.world.trace.of_kind(TraceKind::Migration).filter_map(|e| match e.event {
        TraceEvent::Moved { node, from, to } => Some((node, Some(from), to)),
        TraceEvent::Installed { node, to } => Some((node, None, to)),
        _ => None,
    })
}

fn rows(sim: &RaveSim, row: Move) -> usize {
    moves(sim).filter(|&m| m == row).count()
}

impl Releases {
    /// Has every move of `node` landed (a stricter test than the last)?
    fn settled(&self, sim: &RaveSim, node: NodeId) -> bool {
        let landed = moves(sim).filter(|m| m.0 == node).count();
        self.last.get(&node).is_none_or(|&(_, all)| landed == all)
    }

    /// Has the last move of `node` landed?
    fn landed(&self, sim: &RaveSim, node: NodeId) -> bool {
        self.last.get(&node).is_none_or(|(row, _)| rows(sim, *row) >= self.issued[row])
    }

    /// What the data service's totals must read after `diff` was applied
    /// from `before`, and what the moves put on the wire to each host:
    /// each move charged its bytes, or a header when the receiver holds
    /// the payload it released; then the receiver's copy goes live and the
    /// subscriber that listed the node caches it, as far as `room` (its
    /// texture memory left) allows.
    fn apply(
        &mut self,
        sim: &RaveSim,
        ds: DataServiceId,
        before: MoveTotals,
        out: &IncrementalOutcome,
        listed: &BTreeMap<NodeId, RenderServiceId>,
        room: &BTreeMap<RenderServiceId, u64>,
    ) -> (MoveTotals, BTreeMap<String, u64>) {
        let (mut want, mut wire) = (before, BTreeMap::new());
        let Some(diff) = &out.diff else { return (want, wire) };
        let subscribers = sim.world.data(ds).subscribers();
        for &(node, _, to) in &diff.moved {
            let (arc, bytes) = payload(sim, ds, node).expect("a moved node is a mesh");
            let held = self.released.remove(&(to, node));
            let hit = held.is_some_and(|(a, _)| Arc::ptr_eq(&a, &arc)) && self.landed(sim, node);
            self.raced |= !self.settled(sim, node);
            want.moves += 1;
            let charge = if hit { 256 } else { bytes.max(256) };
            *wire.entry(sim.world.render(to).host.clone()).or_default() += charge;
            if hit {
                want.payloads_cached += 1;
                want.payload_bytes_saved += bytes.max(256) - charge;
            }
            let from = out.migration.moved.iter().find(|m| m.0 == node).map(|m| m.1);
            let row = (node, from, to);
            *self.issued.entry(row).or_default() += 1;
            let all = self.last.get(&node).map_or(0, |l| l.1) + 1;
            self.last.insert(node, (row, all));
            let Some(&donor) = listed.get(&node) else { continue };
            if donor == to || !subscribers.contains_key(&donor) {
                continue;
            }
            let cached: u64 = self
                .released
                .iter()
                .filter(|((rs, n), (a, _))| {
                    *rs == donor && payload(sim, ds, *n).is_some_and(|p| Arc::ptr_eq(&p.0, a))
                })
                .map(|(_, (_, b))| b)
                .sum();
            if cached + bytes <= room[&donor] {
                self.released.insert((donor, node), (arc, bytes));
            }
        }
        (want, wire)
    }
}

/// Triangle counts a storm's meshes take: few, so that sizes recur.
const PALETTE: [u32; 4] = [2_000, 8_000, 20_000, 40_000];

/// One seeded storm against one world: the ledger's run, or — with
/// `full_charges` — its twin, where every subscriber leaves and rejoins
/// before each batch, so that nothing is ever cached.
struct ReleaseStorm {
    sim: RaveSim,
    ds: DataServiceId,
    standby: Option<DataServiceId>,
    nodes: Vec<NodeId>,
    alive: Vec<RenderServiceId>,
    dirs: Vec<std::path::PathBuf>,
    full_charges: bool,
    oracle: Releases,
    /// The node last edited and its triangles before the edit.
    undo: Option<(NodeId, u32)>,
}

impl ReleaseStorm {
    fn new(sizes: &[u32], full_charges: bool) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dirs: Vec<_> = ["p", "s"]
            .iter()
            .map(|side| {
                let name = format!("rave-prop-release-{}-{n}-{side}", std::process::id());
                let dir = std::env::temp_dir().join(name);
                let _ = std::fs::remove_dir_all(&dir);
                dir
            })
            .collect();
        // A short interactive target: a few of these meshes fill a service,
        // so an edit or a throughput swing re-homes work, and undoing it
        // sends the work back.
        let config = RaveConfig { ship_max_lag: 0, target_fps: 60.0, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(config, 2323));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let standby = sim.world.spawn_data_service("tower", "sess-standby");
        sim.world.data_mut(ds).attach_store(&dirs[0], StoreConfig::default()).unwrap();
        establish_standby(&mut sim, ds, standby, &dirs[0], &dirs[1]).unwrap();
        let mut alive = Vec::new();
        // Near-equal machines, so that the worst-fit replay spreads the work.
        for host in ["desktop", "adrenochrome", "desktop", "laptop", "desktop"] {
            let rs = sim.world.spawn_render_service(host);
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
            sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
            alive.push(rs);
        }
        let mut nodes = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            let (id, parent) = {
                let scene = &mut sim.world.data_mut(ds).scene;
                (scene.allocate_id(), scene.root())
            };
            let add = SceneUpdate::AddNode { id, parent, name: format!("m{i}"), kind: mesh(s) };
            publish_update(&mut sim, ds, "imp", add).unwrap();
            nodes.push(id);
        }
        let mut storm = Self {
            sim,
            ds,
            standby: Some(standby),
            nodes,
            alive,
            dirs,
            full_charges,
            oracle: Releases::default(),
            undo: None,
        };
        storm.ship();
        storm
    }

    /// Ship the log until the standby has every committed update.
    fn ship(&mut self) {
        let Some(standby) = self.standby else { return };
        for _ in 0..64 {
            ship_tick(&mut self.sim, self.ds).unwrap();
            self.sim.run();
            if self.sim.world.data(standby).audit.last_seq()
                == self.sim.world.data(self.ds).audit.last_seq()
            {
                return;
            }
        }
        panic!("the standby never caught up");
    }

    fn publish(&mut self, update: SceneUpdate) {
        self.oracle.raced |= !self.oracle.settled(&self.sim, update.target());
        publish_update(&mut self.sim, self.ds, "edit", update).unwrap();
        ship_tick(&mut self.sim, self.ds).unwrap();
    }

    /// One replan of `events`, each of its moves held to the reference.
    fn replan(&mut self, events: &[SchedEvent]) -> Result<(), TestCaseError> {
        let (sim, ds) = (&mut self.sim, self.ds);
        if self.full_charges {
            for (rs, sub) in sim.world.data(ds).subscribers().clone() {
                sim.world.data_mut(ds).unsubscribe(rs);
                sim.world.data_mut(ds).subscribe_live(rs, sub.interest);
            }
            self.oracle.released.clear();
        }
        let config = sim.world.config.clone();
        let subscribers = sim.world.data(ds).subscribers();
        let room: BTreeMap<RenderServiceId, u64> = subscribers
            .keys()
            .map(|&rs| (rs, sim.world.render(rs).capacity_report(&config).texture_headroom))
            .collect();
        let listed: BTreeMap<NodeId, RenderServiceId> = subscribers
            .iter()
            .flat_map(|(&rs, sub)| sub.interest.roots().map(move |node| (node, rs)))
            .collect();
        let ds_host = sim.world.data(ds).host.clone();
        let hosts: BTreeSet<String> =
            sim.world.render_services.values().map(|rs| rs.host.clone()).collect();
        let sent = |sim: &mut RaveSim| -> Vec<u64> {
            hosts.iter().map(|host| sim.world.channel(&ds_host, host).bytes_sent()).collect()
        };
        let (before, sent_before) = (sim.world.data(ds).moves, sent(sim));
        let out = incremental_replan(sim, ds, events);
        for ev in events {
            if let SchedEvent::Failure { service } = *ev {
                self.oracle.released.retain(|(rs, _), _| *rs != service);
            }
        }
        let (want, wire) = self.oracle.apply(&self.sim, ds, before, &out, &listed, &room);
        prop_assert_eq!(self.sim.world.data(ds).moves, want);
        for ((host, was), now) in hosts.iter().zip(sent_before).zip(sent(&mut self.sim)) {
            prop_assert_eq!(now - was, wire.get(host).copied().unwrap_or(0), "to {}", host);
        }
        Ok(())
    }

    /// One step: an edit, a throughput change, a failure or a promotion,
    /// then a replan, then time runs — to the end, or `partial` µs on.
    fn step(&mut self, op: usize, pick: usize, polys: u32, partial: Option<u32>) -> TestCaseResult {
        let mut events = Vec::new();
        match op {
            0 if !self.nodes.is_empty() => {
                let id = self.nodes[pick % self.nodes.len()];
                let was = self.sim.world.data(self.ds).scene.subtree_cost(id).polygons;
                self.undo = Some((id, was as u32));
                self.publish(SceneUpdate::ReplaceKind { id, kind: mesh(polys) });
            }
            1 => {
                // Undo the last edit, in a payload of its own: what it
                // displaced can go back where it was.
                if let Some((id, polys)) = self.undo.take() {
                    if self.nodes.contains(&id) {
                        self.publish(SceneUpdate::ReplaceKind { id, kind: mesh(polys) });
                    }
                }
            }
            2 if self.nodes.len() > 2 => {
                let id = self.nodes.swap_remove(pick % self.nodes.len());
                self.publish(SceneUpdate::RemoveNode { id });
            }
            3 => {
                let rs = self.alive[pick % self.alive.len()];
                let rate = self.sim.world.render(rs).machine.poly_rate;
                self.sim.world.sched.throughput.record(rs, (rate * 0.3) as u64, 1.0);
            }
            4 => self.alive.iter().for_each(|&rs| self.sim.world.sched.throughput.forget(rs)),
            5 if self.alive.len() > 3 => {
                let service = self.alive.swap_remove(pick % self.alive.len());
                events.push(SchedEvent::Failure { service });
            }
            6 if self.standby.is_some() => {
                self.sim.run();
                self.ship();
                let failed = self.ds;
                let standby = self.standby.take().expect("checked");
                let out = incremental_replan(
                    &mut self.sim,
                    failed,
                    &[SchedEvent::DataFailure { service: failed }],
                );
                prop_assert_eq!(out.migration.promotions.len(), 1);
                self.sim.run();
                self.ds = standby;
                // The promoted service starts with a ledger of its own.
                self.oracle.released.clear();
                prop_assert_eq!(self.sim.world.data(standby).moves, MoveTotals::default());
            }
            _ => {}
        }
        self.replan(&events)?;
        match partial {
            Some(us) => {
                let until = self.sim.now() + SimTime::from_secs(us as f64 * 1e-6);
                self.sim.run_until(until);
            }
            None => self.sim.run(),
        }
        Ok(())
    }

    fn finish(mut self) -> Self {
        self.sim.run();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Storms of cost edits, removals, throughput swings (which send nodes
    /// away and back), a render-service failure and a warm promotion, with
    /// moves decided while earlier ones are on the wire: every batch's
    /// moves are charged what the reference says, move by move — a header
    /// exactly where the receiver released the payload the master still
    /// has and the node has landed. The charges change no replica: each is
    /// what the same storm gives with nothing cached (unless a race of
    /// in-flight hand-offs made arrival order matter), and whole.
    #[test]
    fn a_move_is_charged_what_the_receiver_does_not_hold(
        sizes in prop::collection::vec(0usize..4, 4..16),
        storm in prop::collection::vec(
            (0usize..8, any::<usize>(), 0usize..4, 0u32..6_000),
            4..16,
        ),
    ) {
        let sizes: Vec<u32> = sizes.iter().map(|&i| PALETTE[i]).collect();
        let mut runs = [ReleaseStorm::new(&sizes, false), ReleaseStorm::new(&sizes, true)];
        runs.iter_mut().try_for_each(|run| run.replan(&[]))?;
        runs.iter_mut().for_each(|run| run.sim.run());
        for &(op, pick, polys, wait) in &storm {
            // A quarter of the steps leave what they moved on the wire.
            let partial = (wait < 1_500).then_some(wait);
            for run in &mut runs {
                run.step(op, pick, PALETTE[polys], partial)?;
            }
        }
        let [cached, full] = runs.map(ReleaseStorm::finish);
        let raced = cached.oracle.raced || full.oracle.raced;
        for (rs, service) in &cached.sim.world.render_services {
            prop_assert!(service.scene.check_invariants().is_ok(), "{}", rs);
            if !raced {
                prop_assert!(service.scene == full.sim.world.render(*rs).scene, "{}", rs);
            }
        }
    }
}
