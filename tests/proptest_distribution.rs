//! Property tests on the distribution planner: capacity is never
//! violated, work is conserved, splits never lose triangles.

use proptest::prelude::*;
use rave::core::capacity::CapacityReport;
use rave::core::distribution::{plan_distribution, PlanError};
use rave::core::RenderServiceId;
use rave::math::Vec3;
use rave::scene::{MeshData, NodeCost, NodeKind, SceneTree};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever the planner succeeds: every assignment respects its
    /// service's headroom, and the placed polygon total equals the scene
    /// total (work conservation, even through splits).
    #[test]
    fn plans_respect_capacity_and_conserve_work(
        mesh_sizes in prop::collection::vec(2u32..4000, 1..8),
        capacities in prop::collection::vec(100u64..6000, 1..6),
    ) {
        let mut scene = SceneTree::new();
        let root = scene.root();
        for (i, &s) in mesh_sizes.iter().enumerate() {
            scene
                .add_node(root, format!("m{i}"), NodeKind::Mesh(Arc::new(strip_mesh(s))))
                .unwrap();
        }
        let total: u64 = mesh_sizes.iter().map(|&s| s as u64).sum();
        let reports: Vec<CapacityReport> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| report(i as u64 + 1, c))
            .collect();
        let headroom: u64 = capacities.iter().sum();

        match plan_distribution(&mut scene, &reports) {
            Ok(plan) => {
                // Capacity respected per service.
                for a in &plan.assignments {
                    let cap = capacities[(a.service.0 - 1) as usize];
                    prop_assert!(
                        a.cost.polygons <= cap,
                        "service {} got {} > {}",
                        a.service,
                        a.cost.polygons,
                        cap
                    );
                }
                // Work conserved.
                let placed: u64 = plan.assignments.iter().map(|a| a.cost.polygons).sum();
                prop_assert_eq!(placed, total);
                // Scene still valid after any splits.
                scene.check_invariants().unwrap();
                prop_assert_eq!(scene.total_cost().polygons, total);
                // Assigned node sets are disjoint.
                let mut seen = std::collections::BTreeSet::new();
                for a in &plan.assignments {
                    for n in &a.nodes {
                        prop_assert!(seen.insert(*n), "node {n} assigned twice");
                    }
                }
            }
            Err(PlanError::InsufficientResources { .. }) => {
                // Refusal must be justified.
                prop_assert!(total > headroom, "refused although {total} <= {headroom}");
            }
            Err(PlanError::IndivisibleNode { .. }) => {
                // Only possible when a single strip cannot fit the biggest
                // service even after splitting to 1-triangle granularity —
                // impossible for capacities >= 100 and our splittable
                // strips, so treat as a bug.
                prop_assert!(false, "strips are always divisible");
            }
            Err(PlanError::NoCandidates) => prop_assert!(capacities.is_empty()),
        }
    }

    /// Splitting any strip mesh node conserves triangles and keeps both
    /// halves valid, recursively.
    #[test]
    fn splits_conserve_triangles(tris in 2u32..5000, depth in 1u32..5) {
        use rave::core::distribution::split_node;
        let mut scene = SceneTree::new();
        let root = scene.root();
        let id = scene
            .add_node(root, "m", NodeKind::Mesh(Arc::new(strip_mesh(tris))))
            .unwrap();
        let mut frontier = vec![id];
        for _ in 0..depth {
            let mut next = Vec::new();
            for n in frontier {
                if let Some((a, b)) = split_node(&mut scene, n) {
                    next.push(a);
                    next.push(b);
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        scene.check_invariants().unwrap();
        prop_assert_eq!(scene.total_cost().polygons, tris as u64);
    }

    /// Tiles from `plan_tiles` exactly partition the viewport — every
    /// pixel covered once, no zero-width strips — for arbitrary viewport
    /// sizes and helper capacity vectors (including all-zero capacities
    /// and viewports narrower than the participant count).
    #[test]
    fn tile_plans_partition_viewport_exactly(
        width in 1u32..500,
        height in 1u32..400,
        capacities in prop::collection::vec(0u64..5000, 0..12),
        observed in prop::collection::vec(1u64..1_000_000, 0..13),
    ) {
        use rave::core::sched::ThroughputTracker;
        use rave::core::tiles::{plan_tiles, plan_tiles_with_feedback};
        use rave::math::Viewport;

        let vp = Viewport::new(width, height);
        let owner = RenderServiceId(1);
        let helpers: Vec<CapacityReport> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| report(i as u64 + 2, c))
            .collect();

        let mut tracker = ThroughputTracker::new();
        for (i, &rate) in observed.iter().enumerate() {
            tracker.record(RenderServiceId(i as u64 + 1), rate, 1.0);
        }

        for plan in [
            plan_tiles(&vp, owner, &helpers),
            plan_tiles_with_feedback(&vp, owner, &helpers, &tracker),
        ] {
            prop_assert!(!plan.tiles.is_empty());
            prop_assert_eq!(plan.tiles[0].1, owner, "owner takes the first tile");
            // Exact partition into contiguous vertical strips.
            let mut x = 0u32;
            for (tile, _) in &plan.tiles {
                prop_assert!(tile.width > 0, "zero-width tile in {:?}", plan);
                prop_assert_eq!(tile.x, x, "gap or overlap in {:?}", plan);
                prop_assert_eq!((tile.y, tile.height), (0u32, height));
                x += tile.width;
            }
            prop_assert_eq!(x, width, "strips cover the full width");
            // Each service appears at most once.
            let mut seen = std::collections::BTreeSet::new();
            for (_, svc) in &plan.tiles {
                prop_assert!(seen.insert(*svc), "service {} tiled twice", svc);
            }
            // Zero-capacity helpers never appear.
            for (_, svc) in plan.tiles.iter().skip(1) {
                let cap = capacities[(svc.0 - 2) as usize];
                prop_assert!(cap > 0, "zero-capacity helper {} got a tile", svc);
            }
        }
    }

    /// Migration shed selection never picks more than needed + one node,
    /// and always picks smallest-first.
    #[test]
    fn shed_selection_minimal(
        sizes in prop::collection::vec(10u64..10_000, 1..10),
        excess_frac in 0.05f64..0.95,
    ) {
        use rave::core::migration::select_nodes_to_shed;
        let mut scene = SceneTree::new();
        let root = scene.root();
        let mut roots = Vec::new();
        for (i, &s) in sizes.iter().enumerate() {
            roots.push(
                scene
                    .add_node(root, format!("m{i}"), NodeKind::Mesh(Arc::new(strip_mesh(s as u32))))
                    .unwrap(),
            );
        }
        let total: u64 = sizes.iter().sum();
        let excess = ((total as f64) * excess_frac) as u64;
        let shed = select_nodes_to_shed(&scene, &roots, excess);
        let shed_total: u64 = shed.iter().map(|(_, c)| c.polygons).sum();
        prop_assert!(shed_total >= excess.min(total), "covers the excess");
        // Minimality: dropping the last selected node must under-cover.
        if let Some((_, last)) = shed.last() {
            prop_assert!(shed_total - last.polygons < excess, "no gratuitous shedding");
        }
    }
}
