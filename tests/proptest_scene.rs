//! Property tests on the scene tree, the update protocol and the audit
//! trail: the invariants replication correctness rests on.

use proptest::prelude::*;
use rave::math::{Quat, Vec3};
use rave::scene::{
    wire, AuditTrail, MeshData, NodeCost, NodeId, NodeKind, SceneTree, SceneUpdate, StampedUpdate,
    Transform,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A randomly generated (valid-by-construction) update against the ids a
/// tree could plausibly hold.
#[derive(Debug, Clone)]
enum Op {
    Add { parent_pick: usize, name: String },
    Remove { pick: usize },
    Move { pick: usize, t: [f32; 3] },
    Rename { pick: usize, name: String },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), "[a-z]{1,8}")
            .prop_map(|(parent_pick, name)| Op::Add { parent_pick, name }),
        any::<usize>().prop_map(|pick| Op::Remove { pick }),
        (any::<usize>(), [-10.0f32..10.0, -10.0..10.0, -10.0..10.0])
            .prop_map(|(pick, t)| Op::Move { pick, t }),
        (any::<usize>(), "[a-z]{1,8}").prop_map(|(pick, name)| Op::Rename { pick, name }),
    ]
}

/// Turn abstract ops into concrete updates against the live tree,
/// mirroring how a data service allocates ids.
fn materialize(tree: &mut SceneTree, op: &Op) -> Option<SceneUpdate> {
    let nodes: Vec<NodeId> = tree.descendants(tree.root());
    match op {
        Op::Add { parent_pick, name } => {
            let parent = nodes[parent_pick % nodes.len()];
            let id = tree.allocate_id();
            Some(SceneUpdate::AddNode { id, parent, name: name.clone(), kind: NodeKind::Group })
        }
        Op::Remove { pick } => {
            // Never remove the root.
            let candidates: Vec<NodeId> =
                nodes.iter().copied().filter(|&n| n != tree.root()).collect();
            if candidates.is_empty() {
                return None;
            }
            Some(SceneUpdate::RemoveNode { id: candidates[pick % candidates.len()] })
        }
        Op::Move { pick, t } => {
            let id = nodes[pick % nodes.len()];
            Some(SceneUpdate::SetTransform {
                id,
                transform: Transform {
                    translation: Vec3::new(t[0], t[1], t[2]),
                    rotation: Quat::IDENTITY,
                    scale: Vec3::ONE,
                },
            })
        }
        Op::Rename { pick, name } => {
            let id = nodes[pick % nodes.len()];
            Some(SceneUpdate::SetName { id, name: name.clone() })
        }
    }
}

proptest! {
    /// Any sequence of valid updates leaves the tree structurally sound.
    #[test]
    fn updates_preserve_tree_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut tree = SceneTree::new();
        for op in &ops {
            if let Some(update) = materialize(&mut tree, op) {
                update.apply(&mut tree).expect("valid-by-construction update");
                tree.check_invariants().expect("invariants after update");
            }
        }
    }

    /// Two replicas applying the same update stream converge exactly —
    /// the multicast-replication guarantee.
    #[test]
    fn replicas_converge(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut master = SceneTree::new();
        let mut replica_a = SceneTree::new();
        let mut replica_b = SceneTree::new();
        for op in &ops {
            if let Some(update) = materialize(&mut master, op) {
                update.apply(&mut master).unwrap();
                update.apply(&mut replica_a).unwrap();
                update.apply(&mut replica_b).unwrap();
            }
        }
        prop_assert_eq!(format!("{replica_a:?}"), format!("{replica_b:?}"));
        prop_assert_eq!(replica_a.len(), master.len());
    }

    /// The audit trail is a faithful record: replaying it reconstructs the
    /// live tree, from any prefix boundary.
    #[test]
    fn audit_replay_equals_live_state(
        ops in prop::collection::vec(op_strategy(), 1..40),
        cut in 0.0f64..1.0,
    ) {
        let mut tree = SceneTree::new();
        let mut trail = AuditTrail::new();
        let mut seq = 0u64;
        let mut applied = Vec::new();
        for op in &ops {
            if let Some(update) = materialize(&mut tree, op) {
                update.apply(&mut tree).unwrap();
                seq += 1;
                // Timestamp = index among *materialized* updates, so the
                // prefix cut below lines up with `applied`.
                trail.record(
                    applied.len() as f64,
                    StampedUpdate { seq, origin: "p".into(), update: update.clone() },
                ).unwrap();
                applied.push(update);
            }
        }
        // Full replay equals live state.
        let replayed = trail.replay_all().unwrap();
        prop_assert_eq!(replayed.len(), tree.len());

        // Prefix replay equals applying the prefix.
        let upto = (applied.len() as f64 * cut) as usize;
        let mut prefix_tree = SceneTree::new();
        for u in &applied[..upto] {
            u.apply(&mut prefix_tree).unwrap();
        }
        let replay_prefix = trail.replay(upto as f64 - 0.5).unwrap();
        prop_assert_eq!(replay_prefix.len(), prefix_tree.len());
    }

    /// Save/load of the audit trail is lossless for arbitrary sessions.
    #[test]
    fn audit_persistence_roundtrip(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let mut tree = SceneTree::new();
        let mut trail = AuditTrail::new();
        let mut seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if let Some(update) = materialize(&mut tree, op) {
                update.apply(&mut tree).unwrap();
                seq += 1;
                trail.record(i as f64, StampedUpdate { seq, origin: "p".into(), update }).unwrap();
            }
        }
        let mut buf = Vec::new();
        trail.save(&mut buf).unwrap();
        let loaded = AuditTrail::load(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(&loaded, &trail);
    }

    /// The arena agrees with a naive map-based model under arbitrary
    /// structural churn — see `model_ops_strategy` below. Lives inside the
    /// same `proptest!` block for shared config.
    #[test]
    fn arena_matches_reference_model(ops in prop::collection::vec(model_op_strategy(), 1..70)) {
        run_model_comparison(&ops)?;
    }

    /// `subset_closure` always contains the requested roots, their
    /// descendants and ancestors; `extract_subset` preserves world
    /// transforms for every included node.
    #[test]
    fn subset_extraction_sound(ops in prop::collection::vec(op_strategy(), 5..50), pick: usize) {
        let mut tree = SceneTree::new();
        for op in &ops {
            if let Some(update) = materialize(&mut tree, op) {
                update.apply(&mut tree).unwrap();
            }
        }
        let nodes: Vec<NodeId> = tree
            .descendants(tree.root())
            .into_iter()
            .filter(|&n| n != tree.root())
            .collect();
        prop_assume!(!nodes.is_empty());
        let chosen = nodes[pick % nodes.len()];
        let subset = tree.extract_subset(&[chosen]);
        subset.check_invariants().unwrap();
        prop_assert!(subset.contains(chosen));
        for d in tree.descendants(chosen) {
            prop_assert!(subset.contains(d), "descendant {d} present");
        }
        for a in tree.ancestors(chosen) {
            prop_assert!(subset.contains(a), "ancestor {a} present");
        }
        // World transform identical through the extracted chain.
        let p0 = tree.world_transform(chosen).transform_point(Vec3::ZERO);
        let p1 = subset.world_transform(chosen).transform_point(Vec3::ZERO);
        prop_assert!((p0 - p1).length() < 1e-4);
    }

    /// `extract_subset` visits only the closure; the walk of the whole
    /// tree it replaced is kept below as the oracle. Same tree by `==`,
    /// same snapshot bytes (so same insertion order and slot layout as far
    /// as anything outside the arena can tell) — for one root, several,
    /// roots nested inside each other, children of the scene root, the
    /// scene root itself, repeats and ids the tree does not hold.
    #[test]
    fn extract_subset_equals_the_whole_tree_walk(
        ops in prop::collection::vec(model_op_strategy(), 1..70),
        picks in prop::collection::vec(any::<usize>(), 0..6),
        nest in any::<bool>(),
    ) {
        let mut tree = SceneTree::new();
        for (i, op) in ops.iter().enumerate() {
            let live: Vec<NodeId> = tree.descendants(tree.root());
            match op {
                ModelOp::Insert { parent_pick, tris } => {
                    let parent = live[parent_pick % live.len()];
                    let kind = if *tris == 0 { NodeKind::Group } else { mesh_kind(*tris) };
                    let id = tree.add_node(parent, format!("n{i}"), kind).unwrap();
                    // Transforms and versions must come across verbatim.
                    let t = Transform::from_translation(Vec3::new(i as f32, *tris as f32, 1.0));
                    for _ in 0..tris % 3 {
                        tree.set_transform(id, t);
                    }
                }
                ModelOp::Remove { pick } if live.len() > 1 => {
                    tree.remove(live[1 + pick % (live.len() - 1)]).unwrap();
                }
                ModelOp::Reparent { pick, parent_pick } => {
                    let _ = tree.reparent(live[pick % live.len()], live[parent_pick % live.len()]);
                }
                _ => {}
            }
        }
        tree.set_transform(tree.root(), Transform::from_translation(Vec3::new(0.5, 0.0, -2.0)));

        let live: Vec<NodeId> = tree.descendants(tree.root());
        let mut roots: Vec<NodeId> = picks.iter().map(|p| live[p % live.len()]).collect();
        if nest {
            // A root's own child and parent beside it, a child of the
            // scene root, and an id that was never allocated.
            if let Some(&r) = roots.first() {
                roots.extend(tree.node(r).unwrap().children().next());
                roots.extend(tree.node(r).unwrap().parent());
            }
            roots.extend(tree.node(tree.root()).unwrap().children().next_back());
            roots.push(NodeId(u64::MAX - 7));
        }
        let got = tree.extract_subset(&roots);
        let want = extract_by_whole_tree_walk(&tree, &roots);
        got.check_invariants().map_err(|msg| TestCaseError { msg })?;
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.id_allocator_state(), want.id_allocator_state());
        prop_assert_eq!(
            got.descendants(got.root()),
            want.descendants(want.root()),
            "same insertion order"
        );
        prop_assert_eq!(wire::encode_tree(&got), wire::encode_tree(&want));
    }
}

/// The `extract_subset` this repository shipped before it learned to
/// visit only the closure: walk every node of `tree` in pre-order and keep
/// the ones in the closure. Kept as the oracle of the test above.
fn extract_by_whole_tree_walk(tree: &SceneTree, roots: &[NodeId]) -> SceneTree {
    let closure = tree.subset_closure(roots);
    let mut in_subtree: Vec<NodeId> = roots.iter().flat_map(|&r| tree.descendants(r)).collect();
    in_subtree.sort_unstable();
    let mut out = SceneTree::new();
    while out.id_allocator_state() < tree.id_allocator_state() {
        out.allocate_id();
    }
    let root_transform = tree.node(tree.root()).unwrap().transform();
    out.node_mut(out.root()).unwrap().set_transform(root_transform);
    for src in tree.descendants_iter(tree.root()) {
        let id = src.id();
        if id == tree.root() || closure.binary_search(&id).is_err() {
            continue;
        }
        let parent = src.parent().expect("non-root has parent");
        let parent = if parent == tree.root() { out.root() } else { parent };
        let kind = if in_subtree.binary_search(&id).is_ok() {
            src.kind().clone()
        } else {
            NodeKind::Group // ancestor kept for orientation only
        };
        out.insert_with_id(id, parent, src.name(), kind).expect("parents come first");
        let mut node = out.node_mut(id).unwrap();
        node.set_transform(src.transform());
        node.set_version(src.version());
    }
    out
}

// ---------------------------------------------------------------------------
// Arena vs. reference model
// ---------------------------------------------------------------------------
//
// The generational arena reuses slots and bumps generations on removal; the
// classic failure modes are a stale id resolving to a recycled slot, sibling
// links corrupted by unlink/relink surgery, and cached preorder/cost state
// surviving an edit it shouldn't. This harness drives the arena and a
// deliberately naive map-based model through the same random
// insert/remove/reparent/extract/merge sequence and requires them to agree
// on ids, iteration order, and subtree costs after every step. The model
// has no arena, no caches and no slot reuse, so any disagreement indicts
// the arena.

/// Abstract structural op; picks are reduced modulo the live population at
/// materialization time so every op is valid-by-construction.
#[derive(Debug, Clone)]
enum ModelOp {
    Insert { parent_pick: usize, tris: usize },
    Remove { pick: usize },
    Reparent { pick: usize, parent_pick: usize },
    ExtractMerge { pick: usize },
}

fn model_op_strategy() -> impl Strategy<Value = ModelOp> {
    // The vendored proptest has no weighted arms; inserts are listed
    // three times so trees grow on average and removes keep churning slots.
    prop_oneof![
        (any::<usize>(), 0usize..20)
            .prop_map(|(parent_pick, tris)| ModelOp::Insert { parent_pick, tris }),
        (any::<usize>(), 0usize..20)
            .prop_map(|(parent_pick, tris)| ModelOp::Insert { parent_pick, tris }),
        (any::<usize>(), 0usize..20)
            .prop_map(|(parent_pick, tris)| ModelOp::Insert { parent_pick, tris }),
        any::<usize>().prop_map(|pick| ModelOp::Remove { pick }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(pick, parent_pick)| ModelOp::Reparent { pick, parent_pick }),
        any::<usize>().prop_map(|pick| ModelOp::ExtractMerge { pick }),
    ]
}

/// The reference model: parent link, children in insertion order, own cost.
struct Model {
    nodes: BTreeMap<NodeId, (Option<NodeId>, Vec<NodeId>, NodeCost)>,
    root: NodeId,
}

impl Model {
    fn new(root: NodeId) -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(root, (None, Vec::new(), NodeCost::ZERO));
        Model { nodes, root }
    }

    fn insert(&mut self, id: NodeId, parent: NodeId, cost: NodeCost) {
        self.nodes.insert(id, (Some(parent), Vec::new(), cost));
        self.nodes.get_mut(&parent).unwrap().1.push(id);
    }

    fn in_subtree(&self, ancestor: NodeId, mut id: NodeId) -> bool {
        loop {
            if id == ancestor {
                return true;
            }
            match self.nodes[&id].0 {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Subtree removal, ids in the last-child-first DFS order the real
    /// `SceneTree::remove` documents.
    fn remove(&mut self, id: NodeId) -> Vec<NodeId> {
        let parent = self.nodes[&id].0.expect("never remove the root");
        self.nodes.get_mut(&parent).unwrap().1.retain(|&c| c != id);
        let mut removed = Vec::new();
        let mut stack = vec![id];
        while let Some(s) = stack.pop() {
            removed.push(s);
            stack.extend(self.nodes[&s].1.iter().copied());
            self.nodes.remove(&s);
        }
        removed
    }

    /// Move-to-last-child semantics with the same cycle rejection as the
    /// arena (moving under the node's own subtree, or moving the root).
    fn reparent(&mut self, id: NodeId, new_parent: NodeId) -> Result<(), ()> {
        if id == self.root || self.in_subtree(id, new_parent) {
            return Err(());
        }
        let old = self.nodes[&id].0.unwrap();
        self.nodes.get_mut(&old).unwrap().1.retain(|&c| c != id);
        self.nodes.get_mut(&new_parent).unwrap().1.push(id);
        self.nodes.get_mut(&id).unwrap().0 = Some(new_parent);
        Ok(())
    }

    /// Pre-order, children in insertion order.
    fn preorder(&self, start: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            out.push(s);
            stack.extend(self.nodes[&s].1.iter().rev().copied());
        }
        out
    }

    fn subtree_cost(&self, id: NodeId) -> NodeCost {
        let (_, children, own) = &self.nodes[&id];
        children.iter().fold(*own, |acc, &c| acc + self.subtree_cost(c))
    }

    /// Requested roots plus all their descendants and ancestors — the
    /// closure `extract_subset` materializes.
    fn closure(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut included: Vec<NodeId> = Vec::new();
        for &r in roots {
            for d in self.preorder(r) {
                if !included.contains(&d) {
                    included.push(d);
                }
            }
            let mut cur = r;
            while let Some(p) = self.nodes[&cur].0 {
                if !included.contains(&p) {
                    included.push(p);
                }
                cur = p;
            }
        }
        included.sort_by_key(|id| id.0);
        included
    }
}

/// A mesh whose cost is distinctive per `tris`, so cost mismatches can't
/// cancel out across nodes.
fn mesh_kind(tris: usize) -> NodeKind {
    let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]; tris]);
    NodeKind::Mesh(Arc::new(mesh))
}

fn run_model_comparison(ops: &[ModelOp]) -> Result<(), TestCaseError> {
    let mut tree = SceneTree::new();
    let mut model = Model::new(tree.root());
    // Ids removed so far; none may ever resolve again (ids are never
    // reallocated even when the underlying slot is recycled).
    let mut graveyard: Vec<NodeId> = Vec::new();

    for op in ops {
        let live: Vec<NodeId> = model.nodes.keys().copied().collect();
        match op {
            ModelOp::Insert { parent_pick, tris } => {
                let parent = live[parent_pick % live.len()];
                let kind = if *tris == 0 { NodeKind::Group } else { mesh_kind(*tris) };
                let cost = kind.cost();
                let id = tree.add_node(parent, format!("n{}", id_of(&live)), kind).unwrap();
                model.insert(id, parent, cost);
            }
            ModelOp::Remove { pick } => {
                let candidates: Vec<NodeId> =
                    live.iter().copied().filter(|&n| n != tree.root()).collect();
                if candidates.is_empty() {
                    continue;
                }
                let id = candidates[pick % candidates.len()];
                let got = tree.remove(id).unwrap();
                let want = model.remove(id);
                prop_assert_eq!(got, want, "removed ids and order");
                graveyard.extend(model_absent(&model, id));
                graveyard.push(id);
            }
            ModelOp::Reparent { pick, parent_pick } => {
                let id = live[pick % live.len()];
                let new_parent = live[parent_pick % live.len()];
                let got = tree.reparent(id, new_parent);
                let want = model.reparent(id, new_parent);
                prop_assert_eq!(got.is_ok(), want.is_ok(), "reparent verdicts agree");
            }
            ModelOp::ExtractMerge { pick } => {
                let chosen = live[pick % live.len()];
                let subset = tree.extract_subset(&[chosen]);
                subset.check_invariants().map_err(|msg| TestCaseError { msg })?;
                let got: Vec<NodeId> = subset.iter_nodes().map(|n| n.id()).collect();
                prop_assert_eq!(got, model.closure(&[chosen]), "extracted closure");
                // Merging the extract into an empty replica reproduces the
                // closure exactly (subset root folds onto the new root).
                let mut merged = SceneTree::new();
                merged.merge_subset(&subset);
                merged.check_invariants().map_err(|msg| TestCaseError { msg })?;
                prop_assert_eq!(merged.len(), subset.len());
                prop_assert_eq!(merged.total_cost(), subset.total_cost());
            }
        }

        // Step invariants: the arena and the model agree exactly.
        tree.check_invariants().map_err(|msg| TestCaseError { msg })?;
        let arena_ids: Vec<NodeId> = tree.iter_nodes().map(|n| n.id()).collect();
        let model_ids: Vec<NodeId> = model.nodes.keys().copied().collect();
        prop_assert_eq!(arena_ids, model_ids, "id set and iteration order");
        prop_assert_eq!(
            tree.descendants(tree.root()),
            model.preorder(model.root),
            "preorder traversal"
        );
        for &id in model.nodes.keys() {
            prop_assert_eq!(tree.subtree_cost(id), model.subtree_cost(id), "subtree cost {}", id);
        }
        prop_assert_eq!(tree.total_cost(), model.subtree_cost(model.root));
        for &dead in &graveyard {
            prop_assert!(!tree.contains(dead), "stale id {} must not resolve", dead);
            prop_assert!(tree.node(dead).is_none());
        }
    }
    Ok(())
}

/// Tiny deterministic name salt so repeated inserts get distinct names.
fn id_of(live: &[NodeId]) -> usize {
    live.len()
}

/// Ids the model no longer holds under `id` — captured *before* `Model::remove`
/// prunes them, so the caller records the whole removed subtree. (Helper kept
/// trivial: by the time it runs the subtree is already gone, so it returns
/// nothing; the caller pushes the root id explicitly and the order check on
/// `remove` already covered the subtree.)
fn model_absent(_model: &Model, _id: NodeId) -> Vec<NodeId> {
    Vec::new()
}
