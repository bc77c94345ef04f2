//! System-level resilience properties: random distributions, migrations
//! and service failures never lose or duplicate scene content.

use proptest::prelude::*;
use rave::core::bootstrap::connect_render_service;
use rave::core::sched::rebalance::{process_events, SchedEvent};
use rave::core::world::{publish_update, RaveWorld};
use rave::core::{RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::scene::{InterestSet, MeshData, NodeId, NodeKind, SceneUpdate};
use rave::sim::Simulation;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partition content over several subset subscribers, then kill a
    /// random sequence of them. At every step: no content node is lost
    /// from the union of surviving interest sets (or it was explicitly
    /// refused), and the master scene is untouched.
    #[test]
    fn failures_never_lose_content(
        sizes in prop::collection::vec(100u32..5_000, 2..6),
        kill_order in prop::collection::vec(any::<usize>(), 1..5),
    ) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 4242));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        // One content node per future subscriber.
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

        // One subscriber per node, on the strongest hosts round-robin.
        let hosts = ["onyx", "tower", "v880z", "laptop", "desktop", "adrenochrome"];
        let mut services: Vec<RenderServiceId> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let rs = sim.world.spawn_render_service(hosts[i % hosts.len()]);
            connect_render_service(&mut sim, rs, ds, InterestSet::subtrees([node]));
            services.push(rs);
        }
        sim.run();

        // Kill services one at a time (never the last survivor).
        let mut alive = services.clone();
        for &pick in &kill_order {
            if alive.len() <= 1 {
                break;
            }
            let victim = alive.remove(pick % alive.len());
            let outcome = process_events(&mut sim, ds, &[SchedEvent::Failure { service: victim }]);
            sim.run();

            // Master untouched.
            prop_assert_eq!(
                sim.world.data(ds).scene.total_cost().polygons,
                master_polys
            );
            if outcome.refused {
                continue; // explicitly surfaced loss — allowed by the spec
            }
            // Recruited services join the alive set.
            for r in &outcome.recruited {
                alive.push(*r);
            }
            // Every content node is claimed by exactly one surviving
            // subscriber's interest roots.
            let ds_ref = sim.world.data(ds);
            for &node in &nodes {
                let holders = ds_ref
                    .subscribers()
                    .values()
                    .filter(|interest| interest.roots().any(|r| r == node))
                    .count();
                prop_assert_eq!(holders, 1, "node {} held once", node);
            }
            // Replica contents match interests.
            let total_replica: u64 = ds_ref
                .subscribers()
                .keys()
                .map(|rs| sim.world.render(*rs).assigned_cost().polygons)
                .sum();
            prop_assert_eq!(total_replica, master_polys, "replicas partition the scene");
        }
    }
}
