//! Parity pins for the unified scheduler refactor: the new
//! `sched::placement` engine must produce byte-for-byte the same plans as
//! the pre-refactor planners. Reference copies of the old first-fit-
//! decreasing dataset planner and the old feedback-weighted tile planner
//! are embedded here verbatim (modulo naming) and compared against the
//! live implementations across seeded scenarios, including ones that
//! force spatial splits.

use rave::core::capacity::CapacityReport;
use rave::core::distribution::{plan_distribution, split_node, DistributionPlan, PlanError};
use rave::core::sched::ThroughputTracker;
use rave::core::tiles::{plan_tiles, plan_tiles_with_feedback, TilePlan};
use rave::core::RenderServiceId;
use rave::math::{Vec3, Viewport};
use rave::scene::{MeshData, NodeCost, NodeId, NodeKind, SceneTree};
use std::sync::Arc;

fn strip_mesh(tris: u32) -> MeshData {
    let mut positions = Vec::with_capacity((tris as usize + 1) * 2);
    let mut triangles = Vec::with_capacity(tris as usize);
    for i in 0..=tris {
        positions.push(Vec3::new(i as f32, 0.0, 0.0));
        positions.push(Vec3::new(i as f32, 1.0, 0.0));
    }
    for i in 0..tris {
        let b = i * 2;
        triangles.push([b, b + 2, b + 3]);
    }
    MeshData::new(positions, triangles)
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

/// The pre-refactor `plan_distribution` packing loop, kept as the parity
/// reference: headroom ledger most-spacious-first (id ascending on ties,
/// re-sorted after every placement), FIFO queue sorted by descending
/// render weight, larger split half requeued first.
fn reference_plan(
    scene: &mut SceneTree,
    candidates: &[CapacityReport],
) -> Result<DistributionPlan, PlanError> {
    if candidates.is_empty() {
        return Err(PlanError::NoCandidates);
    }
    let demand = scene.total_cost();
    let total_polys = candidates.iter().fold(0u64, |a, c| a.saturating_add(c.poly_headroom));
    let total_tex = candidates.iter().fold(0u64, |a, c| a.saturating_add(c.texture_headroom));
    if demand.polygons > total_polys || demand.texture_bytes > total_tex {
        return Err(PlanError::InsufficientResources {
            required_polygons: demand.polygons,
            total_poly_headroom: total_polys,
            required_texture: demand.texture_bytes,
            total_texture_headroom: total_tex,
        });
    }

    let mut remaining: Vec<(RenderServiceId, u64, u64)> =
        candidates.iter().map(|c| (c.service, c.poly_headroom, c.texture_headroom)).collect();
    remaining.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut queue: Vec<(NodeId, NodeCost)> = scene
        .find_all(|n| {
            !n.own_cost().is_zero()
                && !matches!(n.kind(), NodeKind::Avatar(_) | NodeKind::Camera(_))
        })
        .into_iter()
        .map(|id| (id, scene.node(id).expect("found").own_cost()))
        .collect();
    queue.sort_by(|a, b| b.1.render_weight().cmp(&a.1.render_weight()).then(a.0.cmp(&b.0)));
    let mut assignments: std::collections::BTreeMap<RenderServiceId, (Vec<NodeId>, NodeCost)> =
        std::collections::BTreeMap::new();
    let mut splits = 0u32;

    while !queue.is_empty() {
        let (id, cost) = queue.remove(0);
        let slot = remaining
            .iter_mut()
            .find(|(_, polys, tex)| cost.polygons <= *polys && cost.texture_bytes <= *tex);
        match slot {
            Some((svc, polys, tex)) => {
                *polys -= cost.polygons;
                *tex -= cost.texture_bytes;
                let entry = assignments.entry(*svc).or_default();
                entry.0.push(id);
                entry.1 += cost;
                remaining.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            }
            None => match split_node(scene, id) {
                Some((a, b)) => {
                    splits += 1;
                    let ca = scene.node(a).expect("split child").own_cost();
                    let cb = scene.node(b).expect("split child").own_cost();
                    if ca.render_weight() >= cb.render_weight() {
                        queue.insert(0, (a, ca));
                        queue.insert(1, (b, cb));
                    } else {
                        queue.insert(0, (b, cb));
                        queue.insert(1, (a, ca));
                    }
                }
                None => {
                    return Err(PlanError::IndivisibleNode {
                        node: id,
                        polygons: cost.polygons,
                        largest_headroom: remaining.iter().map(|(_, p, _)| *p).max().unwrap_or(0),
                    });
                }
            },
        }
    }

    Ok(DistributionPlan {
        assignments: assignments
            .into_iter()
            .map(|(service, (nodes, cost))| rave::core::distribution::Assignment {
                service,
                nodes,
                cost,
            })
            .collect(),
        splits_performed: splits,
    })
}

/// The pre-refactor feedback-weighted tile planner, kept as the parity
/// reference.
fn reference_tiles_with_feedback(
    viewport: &Viewport,
    owner: RenderServiceId,
    helpers: &[CapacityReport],
    tracker: &ThroughputTracker,
) -> TilePlan {
    let mut ordered: Vec<&CapacityReport> =
        helpers.iter().filter(|r| r.headroom_weight() > 0).collect();
    ordered.sort_by_key(|r| std::cmp::Reverse(r.headroom_weight()));
    ordered.truncate(viewport.width.saturating_sub(1) as usize);
    if tracker.observed_services() == 0 || viewport.width == 0 {
        return plan_tiles(viewport, owner, helpers);
    }
    let participants: Vec<RenderServiceId> =
        std::iter::once(owner).chain(ordered.iter().map(|r| r.service)).collect();
    let known: Vec<f64> = participants.iter().filter_map(|&svc| tracker.throughput(svc)).collect();
    let mean = known.iter().sum::<f64>() / known.len().max(1) as f64;
    let max = known.iter().cloned().fold(mean, f64::max).max(1e-12);
    let weights: Vec<u64> = participants
        .iter()
        .map(|&svc| {
            let rate = tracker.throughput(svc).unwrap_or(mean);
            ((rate / max * 1000.0).round() as u64).max(1)
        })
        .collect();
    let cells = viewport.split_columns_weighted(&weights);
    TilePlan { tiles: cells.into_iter().zip(participants).collect() }
}

/// Deterministic scenario generator (LCG; no RNG dependency).
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn scene_with_meshes(sizes: &[u64]) -> SceneTree {
    let mut scene = SceneTree::new();
    let root = scene.root();
    for (i, &s) in sizes.iter().enumerate() {
        scene
            .add_node(root, format!("m{i}"), NodeKind::Mesh(Arc::new(strip_mesh(s as u32))))
            .unwrap();
    }
    scene
}

#[test]
fn dataset_plans_match_the_pre_refactor_planner() {
    let mut rng = Lcg(0x5eed_0004);
    for round in 0..40 {
        let n_meshes = rng.in_range(1, 9) as usize;
        let sizes: Vec<u64> = (0..n_meshes).map(|_| rng.in_range(2, 5_000)).collect();
        let n_services = rng.in_range(1, 6) as usize;
        let caps: Vec<u64> = (0..n_services).map(|_| rng.in_range(100, 7_000)).collect();
        let reports: Vec<CapacityReport> =
            caps.iter().enumerate().map(|(i, &c)| report(i as u64 + 1, c)).collect();

        let mut scene_new = scene_with_meshes(&sizes);
        let mut scene_ref = scene_new.clone();
        let new = plan_distribution(&mut scene_new, &reports);
        let old = reference_plan(&mut scene_ref, &reports);
        assert_eq!(new, old, "round {round}: sizes {sizes:?}, caps {caps:?}");
        // Both planners split identically, so the mutated master scenes
        // must agree node for node too.
        assert_eq!(scene_new.len(), scene_ref.len(), "round {round}: scene shapes diverged");
    }
}

#[test]
fn split_heavy_scenarios_match_the_pre_refactor_planner() {
    // Every node oversized for every service, forcing the splitter path
    // on each queue pop until the halves fit: the maximum-stress case for
    // the front-requeue order (split halves must be re-examined before
    // anything already queued, even heavier items further back).
    let mut rng = Lcg(0x5eed_0006);
    for round in 0..20 {
        let n_meshes = rng.in_range(1, 6) as usize;
        // All meshes larger than the biggest service cap below.
        let sizes: Vec<u64> = (0..n_meshes).map(|_| rng.in_range(2_000, 12_000)).collect();
        // Enough sub-mesh-sized services that the plan is feasible and
        // the splitter must actually run (never the refusal path).
        let demand: u64 = sizes.iter().sum();
        let n_services = (demand / 1_000 + 2) as usize;
        let caps: Vec<u64> = (0..n_services).map(|_| rng.in_range(1_000, 1_900)).collect();
        let reports: Vec<CapacityReport> =
            caps.iter().enumerate().map(|(i, &c)| report(i as u64 + 1, c)).collect();

        let mut scene_new = scene_with_meshes(&sizes);
        let mut scene_ref = scene_new.clone();
        let new = plan_distribution(&mut scene_new, &reports);
        let old = reference_plan(&mut scene_ref, &reports);
        assert_eq!(new, old, "round {round}: sizes {sizes:?}, caps {caps:?}");
        assert_eq!(scene_new.len(), scene_ref.len(), "round {round}: scene shapes diverged");
        let plan = new.expect("feasible by construction");
        assert!(plan.splits_performed >= n_meshes as u32, "every node had to split");
    }
}

mod queue_ledger_proptest {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The new VecDeque queue + incrementally-resifted ledger must
        /// produce plans identical to the embedded pre-refactor planner on
        /// arbitrary scenes up to 2k nodes, mixed fitting/oversized.
        #[test]
        fn plans_identical_up_to_2k_nodes(
            seed in any::<u64>(),
            n_meshes in 1usize..2_000,
            n_services in 1usize..12,
        ) {
            let mut rng = Lcg(seed | 1);
            let sizes: Vec<u64> = (0..n_meshes).map(|_| rng.in_range(2, 600)).collect();
            let caps: Vec<u64> =
                (0..n_services).map(|_| rng.in_range(200, 80_000)).collect();
            let reports: Vec<CapacityReport> =
                caps.iter().enumerate().map(|(i, &c)| report(i as u64 + 1, c)).collect();

            let mut scene_new = scene_with_meshes(&sizes);
            let mut scene_ref = scene_new.clone();
            let new = plan_distribution(&mut scene_new, &reports);
            let old = reference_plan(&mut scene_ref, &reports);
            prop_assert_eq!(new, old);
            prop_assert_eq!(scene_new.len(), scene_ref.len());
        }
    }
}

#[test]
fn dataset_plan_splits_are_pinned() {
    // One 4000-triangle mesh over two 2500-headroom services: exactly one
    // split, both halves placed.
    let mut scene = scene_with_meshes(&[4_000]);
    let reports = vec![report(1, 2_500), report(2, 2_500)];
    let mut scene_ref = scene.clone();
    let new = plan_distribution(&mut scene, &reports).unwrap();
    let old = reference_plan(&mut scene_ref, &reports).unwrap();
    assert_eq!(new, old);
    assert_eq!(new.splits_performed, 1);
    assert_eq!(new.total_cost().polygons, 4_000);
}

mod incremental_parity {
    //! The incremental replanner must be *exact*: after any sequence of
    //! scene edits, (a) `PlanState::assignments()` equals a cold
    //! `plan_distribution` of the final (post-split) scene, and (b) the
    //! emitted [`PlanDiff`]s, applied move by move, reconstruct that same
    //! assignment — the "identical migration set modulo no-ops" pin.

    use super::*;
    use rave::core::capacity::Headroom;
    use rave::core::distribution::plan_incremental;
    use rave::core::sched::{PlanDiff, PlanState};
    use rave::scene::NodeCost;
    use std::collections::BTreeMap;

    fn basis(caps: &[u64]) -> Vec<(RenderServiceId, Headroom)> {
        caps.iter()
            .enumerate()
            .map(|(i, &c)| {
                (RenderServiceId(i as u64 + 1), Headroom { polygons: c, texture_bytes: 1 << 40 })
            })
            .collect()
    }

    /// Cold-plan a clone of the scene over the same capacity basis. The
    /// incremental engine guarantees equality against the cold plan of
    /// the *final* scene — splits it performed are already in the master,
    /// so the verification plan must not need any further ones.
    fn cold_assignments(
        scene: &SceneTree,
        caps: &[u64],
    ) -> Vec<(RenderServiceId, Vec<NodeId>, NodeCost)> {
        let reports: Vec<CapacityReport> =
            caps.iter().enumerate().map(|(i, &c)| report(i as u64 + 1, c)).collect();
        let mut clone = scene.clone();
        let plan = plan_distribution(&mut clone, &reports).expect("feasible by construction");
        assert_eq!(plan.splits_performed, 0, "verification plan re-splits a settled scene");
        plan.assignments.into_iter().map(|a| (a.service, a.nodes, a.cost)).collect()
    }

    /// Apply a diff to a node→service map, asserting each entry's `from`
    /// side matches what the map currently says — i.e. the diff is the
    /// exact delta between consecutive plans, with no phantom moves.
    fn apply_diff(applied: &mut BTreeMap<NodeId, RenderServiceId>, diff: &PlanDiff) {
        for &(node, from, to) in &diff.moved {
            assert_eq!(applied.insert(node, to), from, "move of {node} misstates its origin");
        }
        for &(node, svc) in &diff.dropped {
            assert_eq!(applied.remove(&node), Some(svc), "drop of {node} misstates its holder");
        }
    }

    fn flatten(
        assignments: &[(RenderServiceId, Vec<NodeId>, NodeCost)],
    ) -> BTreeMap<NodeId, RenderServiceId> {
        assignments
            .iter()
            .flat_map(|(svc, nodes, _)| nodes.iter().map(move |&n| (n, *svc)))
            .collect()
    }

    #[test]
    fn incremental_replans_match_cold_plans_across_edit_storms() {
        let mut rng = Lcg(0x5eed_0007);
        for round in 0..15 {
            let n_meshes = rng.in_range(2, 10) as usize;
            let sizes: Vec<u64> = (0..n_meshes).map(|_| rng.in_range(2, 4_000)).collect();
            let n_services = rng.in_range(2, 6) as usize;
            // Ample room: the storm never forces splits or refusals, so
            // every divergence is an engine bug, not a feasibility edge.
            let caps: Vec<u64> = (0..n_services).map(|_| rng.in_range(60_000, 100_000)).collect();

            let mut scene = scene_with_meshes(&sizes);
            let mut state = PlanState::new();
            let mut applied = BTreeMap::new();
            let diff = plan_incremental(&mut scene, &basis(&caps), &mut state, 0.0)
                .unwrap()
                .expect("the first plan is never deferred");
            apply_diff(&mut applied, &diff);
            assert_eq!(state.assignments(), cold_assignments(&scene, &caps), "round {round}");

            let mut live: Vec<NodeId> = scene.find_all(|n| !n.own_cost().is_zero());
            for step in 0..10 {
                if rng.in_range(0, 3) == 0 && live.len() > 1 {
                    let victim = live.remove((rng.next() as usize) % live.len());
                    scene.remove(victim).unwrap();
                } else {
                    let root = scene.root();
                    let tris = rng.in_range(2, 4_000) as u32;
                    let id = scene
                        .add_node(
                            root,
                            format!("s{step}"),
                            NodeKind::Mesh(Arc::new(strip_mesh(tris))),
                        )
                        .unwrap();
                    live.push(id);
                }
                let diff = plan_incremental(&mut scene, &basis(&caps), &mut state, 0.0)
                    .unwrap()
                    .expect("an edited scene replans");
                apply_diff(&mut applied, &diff);
                let want = cold_assignments(&scene, &caps);
                assert_eq!(state.assignments(), want, "round {round} step {step}");
                assert_eq!(flatten(&want), applied, "round {round} step {step}: diffs drifted");
            }
        }
    }

    #[test]
    fn incremental_split_storms_match_cold_plans_of_the_final_scene() {
        // Every mesh oversized for every service: the splitter runs both
        // inside the initial rebuild and inside each incremental replay,
        // and the equality target is the cold plan of the *post-split*
        // master (split children are ordinary queue items by then).
        let mut rng = Lcg(0x5eed_0009);
        for round in 0..10 {
            let n_meshes = rng.in_range(1, 5) as usize;
            let sizes: Vec<u64> = (0..n_meshes).map(|_| rng.in_range(2_000, 9_000)).collect();
            // Capacity covers the initial meshes plus the four storm
            // inserts below (≤ 9k triangles each), in sub-mesh slots.
            let demand: u64 = sizes.iter().sum::<u64>() + 4 * 9_000;
            let n_services = (demand / 1_000 + 2) as usize;
            let caps: Vec<u64> = (0..n_services).map(|_| rng.in_range(1_000, 1_900)).collect();

            let mut scene = scene_with_meshes(&sizes);
            let mut state = PlanState::new();
            let mut applied = BTreeMap::new();
            let mut splits = 0u32;
            let diff = plan_incremental(&mut scene, &basis(&caps), &mut state, 0.0)
                .unwrap()
                .expect("the first plan is never deferred");
            splits += diff.splits;
            apply_diff(&mut applied, &diff);
            assert_eq!(state.assignments(), cold_assignments(&scene, &caps), "round {round}");

            for step in 0..4 {
                let root = scene.root();
                let tris = rng.in_range(2_000, 9_000) as u32;
                let id = scene
                    .add_node(root, format!("s{step}"), NodeKind::Mesh(Arc::new(strip_mesh(tris))))
                    .unwrap();
                let _ = id;
                let diff = plan_incremental(&mut scene, &basis(&caps), &mut state, 0.0)
                    .unwrap()
                    .expect("an edited scene replans");
                splits += diff.splits;
                apply_diff(&mut applied, &diff);
                let want = cold_assignments(&scene, &caps);
                assert_eq!(state.assignments(), want, "round {round} step {step}");
                assert_eq!(flatten(&want), applied, "round {round} step {step}: diffs drifted");
            }
            assert!(
                splits >= (n_meshes + 4) as u32,
                "round {round}: every oversized node had to split (saw {splits})"
            );
        }
    }
}

#[test]
fn tile_plans_match_the_pre_refactor_planner() {
    let mut rng = Lcg(0x5eed_0005);
    let owner = RenderServiceId(1);
    for round in 0..40 {
        let vp = Viewport::new(rng.in_range(1, 1_024) as u32, 256);
        let n_helpers = rng.in_range(0, 5) as usize;
        let helpers: Vec<CapacityReport> =
            (0..n_helpers).map(|i| report(i as u64 + 2, rng.in_range(0, 500_000))).collect();
        let mut tracker = ThroughputTracker::new();
        for _ in 0..rng.in_range(0, 8) {
            let svc = RenderServiceId(rng.in_range(1, n_helpers as u64 + 2));
            tracker.record(svc, rng.in_range(1_000, 900_000), 0.01 * rng.in_range(1, 90) as f64);
        }
        let new = plan_tiles_with_feedback(&vp, owner, &helpers, &tracker);
        let old = reference_tiles_with_feedback(&vp, owner, &helpers, &tracker);
        assert_eq!(new.tiles, old.tiles, "round {round}");
    }
}
