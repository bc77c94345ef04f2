//! Scene-storage scaling guardrail: the arena tree (hot/cold split, flat
//! pre-order cache, dense cost aggregates) over 10k/100k/1M-node scenes.
//! Three hot paths are timed, best-of-N rounds each:
//!
//! - **traversal**: full pre-order walk touching only hot data (kind tag
//!   + translation) — the planner/interest/render walk;
//! - **costing**: an edit followed by subtree costs for every top-level
//!   group plus the total — the planner's cost refresh (the invalidated
//!   cache is rebuilt inside the timed region);
//! - **lookup**: random id→node resolution through the slot index.
//!
//! Emits `BENCH_scene.json` at the repo root. The floors `check` holds
//! are a scaling ratio, `traversal_1m_over_100k` — ten times the nodes
//! may cost ten times the walk plus the caches the 1M scene no longer
//! fits in, not a hundred times — and `move.parcel_over_subset`: handing a
//! leaf to a replica as a [`rave_scene::Parcel`] against handing it over
//! as the standalone subset tree a migration used to build.
//! `BENCH_QUICK=1` runs fewer rounds (the 1M config stays).

use bench::harness::{best_of, num, obj, quick, Lcg, Report};
use rave_math::Vec3;
use rave_scene::{KindTag, MeshData, NodeId, NodeKind, SceneTree, Transform};
use serde::Serialize;
use std::sync::Arc;

const NODE_COUNTS: [usize; 3] = [10_000, 100_000, 1_000_000];

// ---- scene construction --------------------------------------------------

fn small_mesh(tris: u32) -> MeshData {
    MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }
}

/// The build recipe: top-level groups under the root, leaf nodes
/// round-robined beneath them, every third leaf a mesh (payloads
/// `Arc`-shared from a small pool so a 1M-node scene fits in memory).
/// Deterministic, so every run times the same tree.
struct Recipe {
    groups: usize,
    total: usize,
    meshes: Vec<Arc<MeshData>>,
    transforms: Vec<Transform>,
}

impl Recipe {
    fn for_nodes(n: usize) -> Self {
        let mut rng = Lcg(0xa7e0a ^ n as u64);
        let meshes: Vec<Arc<MeshData>> =
            (0..8).map(|_| Arc::new(small_mesh(rng.in_range(10, 200) as u32))).collect();
        let transforms: Vec<Transform> = (0..64)
            .map(|_| {
                Transform::from_translation(Vec3::new(
                    rng.in_range(0, 100) as f32,
                    rng.in_range(0, 100) as f32,
                    rng.in_range(0, 100) as f32,
                ))
            })
            .collect();
        Self { groups: (n / 1000).clamp(8, 1024), total: n, meshes, transforms }
    }

    fn kind(&self, i: usize) -> NodeKind {
        if i.is_multiple_of(3) {
            NodeKind::Mesh(Arc::clone(&self.meshes[i % self.meshes.len()]))
        } else {
            NodeKind::Group
        }
    }

    fn build_arena(&self) -> (SceneTree, Vec<NodeId>) {
        let mut t = SceneTree::with_capacity(self.total + self.groups + 1);
        let root = t.root();
        let groups: Vec<NodeId> = (0..self.groups)
            .map(|g| t.add_node(root, format!("g{g}"), NodeKind::Group).unwrap())
            .collect();
        for i in 0..self.total {
            let parent = groups[i % groups.len()];
            let id = t.add_node(parent, format!("n{i}"), self.kind(i)).unwrap();
            t.set_transform(id, self.transforms[i % self.transforms.len()]);
        }
        (t, groups)
    }
}

// ---- measured operations -------------------------------------------------

/// Full-tree pre-order walk over hot data: count meshes and fold the
/// translations. The mesh count is checked against the recipe, so the
/// walk cannot skip nodes.
fn walk_arena(t: &SceneTree) -> (u64, f32) {
    let mut meshes = 0u64;
    let mut acc = 0.0f32;
    for n in t.descendants_iter(t.root()) {
        if n.kind_tag() == KindTag::Mesh {
            meshes += 1;
        }
        acc += n.transform().translation.x;
    }
    (meshes, acc)
}

/// The planner's cost refresh: one edit (invalidating the cost cache),
/// then subtree costs for every top-level group plus the total.
fn cost_arena(t: &mut SceneTree, groups: &[NodeId], probe: NodeId) -> u64 {
    t.node_mut(probe).unwrap().bump_version();
    let mut polys = 0u64;
    for &g in groups {
        polys += t.subtree_cost(g).polygons;
    }
    polys + t.total_cost().polygons
}

/// Random id lookups.
fn lookup_arena(t: &SceneTree, n: usize) -> u64 {
    let mut rng = Lcg(0x100c0);
    let mut hits = 0u64;
    for _ in 0..100_000 {
        let id = NodeId(rng.in_range(1, n as u64));
        if let Some(node) = t.node(id) {
            hits += node.child_count() as u64 + 1;
        }
    }
    hits
}

/// One migration hand-off, both ways: every one of `LEAVES` leaves under a
/// two-deep chain cut out of a master and taken in by a replica that
/// already holds the chain — as a parcel, and as the subset tree
/// (`extract_subset` + `merge_subset`: the parcel, a fresh tree adopting
/// it, a second parcel cut from that tree, its adopt and the tree's drop).
/// Returns seconds per leaf `(parcel, subset)`; the replica is emptied off
/// the clock.
fn time_moves(rounds: usize) -> (f64, f64) {
    const LEAVES: usize = 1_000;
    let mut master = SceneTree::new();
    let outer = master.add_node(master.root(), "outer", NodeKind::Group).unwrap();
    let inner = master.add_node(outer, "inner", NodeKind::Group).unwrap();
    let mesh = Arc::new(small_mesh(12));
    let leaves: Vec<NodeId> = (0..LEAVES)
        .map(|i| master.add_node(inner, format!("leaf{i}"), NodeKind::Mesh(mesh.clone())).unwrap())
        .collect();
    master.total_cost(); // caches warm, as a data service's master scene's are
    let mut replica = SceneTree::new();
    replica.insert_with_id(outer, replica.root(), "outer", NodeKind::Group).unwrap();
    replica.insert_with_id(inner, outer, "inner", NodeKind::Group).unwrap();
    let chain = replica.len();

    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for (way, best) in best.iter_mut().enumerate() {
            let elapsed = bench::harness::secs(|| {
                for &leaf in &leaves {
                    match way {
                        0 => replica.adopt_parcel(&master.extract_parcel(&[leaf])),
                        _ => replica.merge_subset(&master.extract_subset(&[leaf])),
                    }
                }
            });
            assert_eq!(replica.len(), chain + LEAVES, "every leaf arrived");
            *best = best.min(elapsed / LEAVES as f64);
            for &leaf in &leaves {
                replica.remove(leaf).unwrap();
            }
        }
    }
    (best[0], best[1])
}

fn main() {
    let rounds = if quick() { 3 } else { 7 };

    let mut configs = Vec::new();
    let mut traversal_secs = Vec::new();
    for &nodes in &NODE_COUNTS {
        let recipe = Recipe::for_nodes(nodes);
        let (mut arena, groups) = recipe.build_arena();
        assert_eq!(arena.len(), nodes + groups.len() + 1);
        assert_eq!(walk_arena(&arena).0, nodes.div_ceil(3) as u64, "every third leaf is a mesh");
        let probe = groups[0];

        let traversal = best_of(rounds, || walk_arena(&arena));
        let costing = best_of(rounds, || cost_arena(&mut arena, &groups, probe));
        let lookup = best_of(rounds, || lookup_arena(&arena, nodes));
        traversal_secs.push(traversal);
        configs.push(obj([
            ("nodes", nodes.to_value()),
            ("traversal_ms", num(traversal * 1e3, 3)),
            ("costing_ms", num(costing * 1e3, 3)),
            ("lookup_ms", num(lookup * 1e3, 3)),
        ]));
    }

    let (parcel, subset) = time_moves(rounds * 3);
    let [_, at_100k, at_1m] = traversal_secs[..] else { unreachable!("three node counts") };
    Report::new("scene")
        .set("configs", configs)
        .set("traversal_1m_ms", num(at_1m * 1e3, 3))
        .set("traversal_1m_over_100k", num(at_1m / at_100k, 1))
        .set(
            "move",
            obj([
                ("parcel_ns", num(parcel * 1e9, 1)),
                ("subset_ns", num(subset * 1e9, 1)),
                ("parcel_over_subset", num(parcel / subset, 2)),
            ]),
        )
        .write();
}
