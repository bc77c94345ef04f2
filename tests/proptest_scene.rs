//! Property tests on the scene tree, the update protocol and the audit
//! trail: the invariants replication correctness rests on.

use proptest::prelude::*;
use rave::math::{Aabb, Quat, Vec3};
use rave::scene::{
    wire, AuditTrail, AvatarInfo, CameraParams, Dirt, EditClass, EditStamp, MeshData, NodeCost,
    NodeId, NodeKind, PointCloudData, SceneTree, SceneUpdate, StampedUpdate, Transform, VolumeData,
};
use rave::store::{Store, StoreConfig};
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

    /// A session recorded into the store plays back losslessly: the
    /// recovered entries are the trail's, and the recovered scene is the
    /// live one.
    #[test]
    fn audit_persistence_roundtrip(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let dir = std::env::temp_dir().join(format!("rave-pscene-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut tree = SceneTree::new();
        let mut trail = AuditTrail::new();
        let mut seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if let Some(update) = materialize(&mut tree, op) {
                update.apply(&mut tree).unwrap();
                seq += 1;
                trail.record(i as f64, StampedUpdate { seq, origin: "p".into(), update }).unwrap();
                store.append(trail.entries().last().unwrap()).unwrap();
            }
        }
        store.sync().unwrap();
        let rec = rave::store::recover(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(&rec.entries[..], trail.entries());
        prop_assert_eq!(rec.tree, tree);
    }

    /// The arena agrees with a naive map-based model under arbitrary
    /// structural churn — see `model_ops_strategy` below. Lives inside the
    /// same `proptest!` block for shared config.
    #[test]
    fn arena_matches_reference_model(ops in prop::collection::vec(model_op_strategy(), 1..70)) {
        run_model_comparison(&ops)?;
    }

    /// `extract_subset` always holds the requested root, its descendants
    /// and its ancestors, and preserves world transforms for every one.
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
        let tree = churned_tree(&ops);
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

    /// One cut and one take: `adopt_parcel(&extract_parcel(roots))` leaves
    /// what the pair before parcels left, `merge_by_tree_walk` of
    /// `extract_by_whole_tree_walk(roots)`, on a fresh replica and on one
    /// that holds part of the scene (closures merged in earlier, local state
    /// of its own on them, a subtree since removed from under a chain it
    /// kept): the same tree by `==`, the same `check_invariants`, the same
    /// allocator state and the same journal entries per class. Root sets
    /// nest, repeat, take the scene root and an id the scene does not hold;
    /// one set after the other goes into the same two pairs of replicas.
    #[test]
    fn adopting_a_parcel_equals_merging_the_subset(
        ops in prop::collection::vec(model_op_strategy(), 1..70),
        held in prop::collection::vec(any::<usize>(), 0..5),
        hole in any::<usize>(),
        sets in prop::collection::vec(
            (prop::collection::vec(any::<usize>(), 0..4), 0u8..16),
            1..6,
        ),
    ) {
        let tree = churned_tree(&ops);
        let live: Vec<NodeId> = tree.descendants(tree.root());
        let mut partly = SceneTree::new();
        for pick in &held {
            let subset = extract_by_whole_tree_walk(&tree, &[live[pick % live.len()]]);
            merge_by_tree_walk(&mut partly, &subset);
        }
        let there: Vec<NodeId> = partly.descendants(partly.root());
        partly.set_transform(there[hole % there.len()], Transform::from_translation(Vec3::Y));
        if there.len() > 1 {
            partly.remove(there[1 + (hole / 3) % (there.len() - 1)]).unwrap();
        }

        let classes = [EditClass::Structure, EditClass::Payload];
        let mut pairs = [(SceneTree::new(), SceneTree::new()), (partly.clone(), partly)];
        for (adopted, merged) in &mut pairs {
            for tree in [adopted, merged] {
                // The first read starts the recording.
                prop_assert_eq!(tree.changes_since(EditStamp::default(), &classes), Dirt::Everything);
            }
        }
        for (picks, shape) in &sets {
            let mut roots: Vec<NodeId> = picks.iter().map(|p| live[p % live.len()]).collect();
            // `shape` adds a child of the first root, the first root again,
            // the scene root and an id that was never allocated.
            if let Some(&first) = roots.first() {
                if shape & 1 != 0 {
                    roots.extend(tree.node(first).unwrap().children().next());
                }
                if shape & 2 != 0 {
                    roots.push(first);
                }
            }
            if shape & 4 != 0 {
                roots.push(tree.root());
            }
            if shape & 8 != 0 {
                roots.push(NodeId(u64::MAX - 7));
            }
            let parcel = tree.extract_parcel(&roots);
            let subset = extract_by_whole_tree_walk(&tree, &roots);
            prop_assert_eq!(parcel.len(), subset.len() - 1, "the closure of {:?}", &roots);
            for (adopted, merged) in &mut pairs {
                let (before_a, before_m) = (adopted.edit_stamp(), merged.edit_stamp());
                adopted.adopt_parcel(&parcel);
                merge_by_tree_walk(merged, &subset);
                prop_assert_eq!(&*adopted, &*merged, "roots {:?}", &roots);
                prop_assert_eq!(adopted.check_invariants(), merged.check_invariants());
                prop_assert_eq!(adopted.check_invariants(), Ok(()));
                prop_assert_eq!(adopted.id_allocator_state(), merged.id_allocator_state());
                let structure = adopted.changes_since(before_a, &classes[..1]);
                prop_assert_eq!(&structure, &merged.changes_since(before_m, &classes[..1]));
                prop_assert_eq!(&adopted.changes_since(before_a, &classes), &structure);
                prop_assert_eq!(&merged.changes_since(before_m, &classes), &structure);
                // The reference writes transform and version through
                // `node_mut`: a `Payload` entry per node it inserts, where
                // the arena's own insert leaves none.
                prop_assert_eq!(adopted.changes_since(before_a, &classes[1..]), Dirt::Clean);
                prop_assert_eq!(&merged.changes_since(before_m, &classes[1..]), &structure);
                prop_assert_eq!(adopted.edit_stamp() == before_a, merged.edit_stamp() == before_m);
            }
        }
    }
}

/// `SceneTree::world_bounds` as it was while every call re-derived each
/// payload's box from its vertices. Kept as the oracle of
/// `kept_bounds_equal_the_vertex_scan`.
fn world_bounds_by_scan(tree: &SceneTree, id: NodeId) -> Aabb {
    let mut b = Aabb::EMPTY;
    for n in tree.descendants_iter(id) {
        let local = n.kind().local_bounds();
        if !local.is_empty() {
            b = b.union(&local.transformed(&tree.world_transform(n.id())));
        }
    }
    b
}

fn box_bits(b: &Aabb) -> [u32; 6] {
    [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits)
}

/// Coordinates a payload can hold: zeros of both signs, ordinary values,
/// the extremes, and — one pick in four — NaN and the infinities.
fn coordinate(salt: &mut u64) -> f32 {
    const PALETTE: [f32; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -2.25,
        7.0,
        3.0e-39,
        1.0e30,
        -1.0e30,
        f32::MAX,
        f32::MIN,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    *salt = salt.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    PALETTE[(*salt >> 60) as usize]
}

/// A payload of every kind, drawn from `salt`; `tame` keeps NaN and the
/// infinities out so that finite boxes are not the rare case.
fn payload(mut salt: u64, tame: bool) -> NodeKind {
    let salt = &mut salt;
    let coord = |salt: &mut u64| loop {
        let c = coordinate(salt);
        if !tame || c.is_finite() {
            break c;
        }
    };
    let point = |salt: &mut u64| Vec3::new(coord(salt), coord(salt), coord(salt));
    let shape = *salt % 7;
    let count = (*salt / 7 % 6) as usize;
    match shape {
        0 => NodeKind::Group,
        1 | 2 => {
            let points = (0..count).map(|_| point(salt)).collect();
            NodeKind::Mesh(Arc::new(MeshData::new(points, vec![])))
        }
        3 => {
            let points = (0..count).map(|_| point(salt)).collect();
            NodeKind::PointCloud(Arc::new(PointCloudData::new(points)))
        }
        4 => NodeKind::Volume(Arc::new(VolumeData::new([2, 1, 3], point(salt), vec![9; 6]))),
        5 => NodeKind::Camera(CameraParams { position: point(salt), ..CameraParams::default() }),
        _ => NodeKind::Avatar(AvatarInfo {
            label: "a".into(),
            color: Vec3::X,
            camera: CameraParams::default(),
        }),
    }
}

/// One step of the kept-bounds property: every way a payload gets into,
/// changes in or leaves a slot, and every way a tree is copied.
#[derive(Debug, Clone)]
enum BoundsOp {
    Insert {
        parent_pick: usize,
        salt: u64,
        tame: bool,
    },
    Remove {
        pick: usize,
    },
    Reparent {
        pick: usize,
        parent_pick: usize,
    },
    Move {
        pick: usize,
        salt: u64,
    },
    SetKind {
        pick: usize,
        salt: u64,
        tame: bool,
    },
    /// `kind_mut`: nudge the payload where it lies.
    EditInPlace {
        pick: usize,
        salt: u64,
    },
    /// `SceneUpdate::apply` of a payload-carrying variant (`which`).
    Update {
        pick: usize,
        which: usize,
        salt: u64,
        tame: bool,
    },
    /// Merge a foreign two-node subset under the root.
    Merge {
        salt: u64,
    },
    Clone,
    /// Through the wire codec, or JSON when the payloads survive it.
    Roundtrip {
        json: bool,
    },
}

fn bounds_op_strategy() -> impl Strategy<Value = BoundsOp> {
    let tame = any::<bool>;
    prop_oneof![
        (any::<usize>(), any::<u64>(), tame())
            .prop_map(|(parent_pick, salt, tame)| BoundsOp::Insert { parent_pick, salt, tame }),
        (any::<usize>(), any::<u64>(), tame())
            .prop_map(|(parent_pick, salt, tame)| BoundsOp::Insert { parent_pick, salt, tame }),
        (any::<usize>(), any::<u64>(), tame())
            .prop_map(|(parent_pick, salt, tame)| BoundsOp::Insert { parent_pick, salt, tame }),
        any::<usize>().prop_map(|pick| BoundsOp::Remove { pick }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(pick, parent_pick)| BoundsOp::Reparent { pick, parent_pick }),
        (any::<usize>(), any::<u64>()).prop_map(|(pick, salt)| BoundsOp::Move { pick, salt }),
        (any::<usize>(), any::<u64>(), tame()).prop_map(|(pick, salt, tame)| BoundsOp::SetKind {
            pick,
            salt,
            tame
        }),
        (any::<usize>(), any::<u64>())
            .prop_map(|(pick, salt)| BoundsOp::EditInPlace { pick, salt }),
        (any::<usize>(), 0usize..4, any::<u64>(), tame())
            .prop_map(|(pick, which, salt, tame)| BoundsOp::Update { pick, which, salt, tame }),
        any::<u64>().prop_map(|salt| BoundsOp::Merge { salt }),
        Just(BoundsOp::Clone),
        any::<bool>().prop_map(|json| BoundsOp::Roundtrip { json }),
    ]
}

fn apply_bounds_op(tree: &mut SceneTree, op: &BoundsOp, step: usize) {
    let live: Vec<NodeId> = tree.descendants(tree.root());
    let at = |pick: usize| live[pick % live.len()];
    match op {
        BoundsOp::Insert { parent_pick, salt, tame } => {
            tree.add_node(at(*parent_pick), "n", payload(*salt, *tame)).unwrap();
        }
        BoundsOp::Remove { pick } if live.len() > 1 => {
            tree.remove(live[1 + pick % (live.len() - 1)]).unwrap();
        }
        BoundsOp::Remove { .. } => {}
        BoundsOp::Reparent { pick, parent_pick } => {
            let _ = tree.reparent(at(*pick), at(*parent_pick));
        }
        BoundsOp::Move { pick, salt } => {
            let mut salt = *salt;
            let mut unit = || coordinate(&mut salt).clamp(-3.0, 3.0);
            let transform = Transform {
                translation: Vec3::new(unit(), unit(), unit()),
                rotation: Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2).normalized(), unit()),
                scale: Vec3::new(unit(), 1.0, 0.5),
            };
            assert!(tree.set_transform(at(*pick), transform));
        }
        BoundsOp::SetKind { pick, salt, tame } => {
            tree.node_mut(at(*pick)).unwrap().set_kind(payload(*salt, *tame));
        }
        BoundsOp::EditInPlace { pick, salt } => {
            let mut salt = *salt;
            let moved = Vec3::new(coordinate(&mut salt), 1.0, -1.0);
            let mut node = tree.node_mut(at(*pick)).unwrap();
            match node.kind_mut() {
                NodeKind::Mesh(m) => Arc::make_mut(m).positions.push(moved),
                NodeKind::PointCloud(c) => drop(Arc::make_mut(c).points.pop()),
                NodeKind::Volume(v) => Arc::make_mut(v).spacing = moved,
                NodeKind::Camera(c) => c.position = moved,
                NodeKind::Avatar(a) => a.color = moved,
                NodeKind::Group => {}
            }
        }
        BoundsOp::Update { pick, which, salt, tame } => {
            let id = at(*pick);
            let camera = CameraParams {
                position: Vec3::new(coordinate(&mut salt.clone()), 2.0, 0.0),
                ..CameraParams::default()
            };
            let update = match which {
                0 => SceneUpdate::AddNode {
                    id: tree.allocate_id(),
                    parent: id,
                    name: format!("u{step}"),
                    kind: payload(*salt, *tame),
                },
                1 => SceneUpdate::ReplaceKind { id, kind: payload(*salt, *tame) },
                // On a node of another kind these two are refused — after
                // `kind_mut` was taken, which must leave the box right.
                2 => SceneUpdate::CameraMoved { id, camera },
                _ => SceneUpdate::AvatarUpdated {
                    id,
                    avatar: AvatarInfo { label: "b".into(), color: Vec3::Y, camera },
                },
            };
            let _ = update.apply(tree);
        }
        BoundsOp::Merge { salt } => {
            let mut other = SceneTree::new();
            let base = 1_000_000 + 2 * step as u64;
            let root = other.root();
            other.insert_with_id(NodeId(base), root, "m", payload(*salt, true)).unwrap();
            other
                .insert_with_id(NodeId(base + 1), NodeId(base), "c", payload(salt >> 7, false))
                .unwrap();
            tree.merge_subset(&other.extract_subset(&[NodeId(base)]));
        }
        BoundsOp::Clone => *tree = tree.clone(),
        BoundsOp::Roundtrip { json } => {
            let through_json = json
                .then(|| serde_json::to_string(tree).unwrap())
                .and_then(|text| serde_json::from_str::<SceneTree>(&text).ok());
            *tree = match through_json {
                Some(decoded) => decoded,
                None => wire::decode_tree(&wire::encode_tree(tree)).unwrap(),
            };
        }
    }
}

proptest! {
    /// The box a tree keeps per node is the payload's `local_bounds()` bit
    /// for bit, whatever sequence of edits, slot reuse, merges, clones and
    /// decodes produced the tree, before or after it began keeping boxes —
    /// so `world_bounds` is bit-identical to the vertex scan it replaced,
    /// for every node.
    #[test]
    fn kept_bounds_equal_the_vertex_scan(
        ops in prop::collection::vec((bounds_op_strategy(), any::<bool>()), 1..50),
    ) {
        let mut tree = SceneTree::new();
        for (step, (op, look)) in ops.iter().enumerate() {
            apply_bounds_op(&mut tree, op, step);
            tree.check_invariants().map_err(|msg| TestCaseError { msg })?;
            // A tree keeps boxes from the first time it is asked for one:
            // not looking after every step lets edits land on trees that
            // keep none yet (fresh, decoded) as well as on ones that do.
            if !look && step + 1 < ops.len() {
                continue;
            }
            for node in tree.descendants_iter(tree.root()) {
                let id = node.id();
                let scanned = node.kind().local_bounds();
                prop_assert_eq!(
                    box_bits(&node.local_bounds()), box_bits(&scanned),
                    "kept box of {} after {:?}", id, op
                );
                prop_assert_eq!(
                    box_bits(&tree.world_bounds(id)), box_bits(&world_bounds_by_scan(&tree, id)),
                    "world bounds of {} after {:?}", id, op
                );
                let points: &[Vec3] = match node.kind() {
                    NodeKind::Mesh(m) => &m.positions,
                    NodeKind::PointCloud(c) => &c.points,
                    _ => &[],
                };
                let finite = [scanned.min, scanned.max]
                    .iter()
                    .chain(points)
                    .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
                prop_assert_eq!(
                    node.finite_local_bounds().map(|b| box_bits(&b)),
                    finite.then(|| box_bits(&scanned)),
                    "finite box of {} after {:?}", id, op
                );
            }
        }
    }
}

// ---- the presence count and the pose fast path ----

/// Does `tree` hold a camera or an avatar, by a scan of the payloads?
fn scanned_presence(tree: &SceneTree) -> bool {
    tree.iter_nodes().any(|n| matches!(n.kind(), NodeKind::Camera(_) | NodeKind::Avatar(_)))
}

/// One step of the presence-count property: every edit of the kept-bounds
/// property, on the source or on a replica fed from it by subsets and
/// parcels.
#[derive(Debug, Clone)]
enum PresenceOp {
    /// Inserts of every kind, removes, reparents, kind writes, updates,
    /// merges, clones and decodes.
    Edit(BoundsOp),
    /// The replica merges the subset of some of the source's nodes.
    Subset { picks: Vec<usize> },
    /// The replica becomes the subset of some of the source's nodes.
    Extract { picks: Vec<usize> },
    /// The replica adopts the parcel of one of the source's subtrees.
    Parcel { pick: usize },
    /// Source and replica trade places, so edits land on either.
    Swap,
}

fn presence_op_strategy() -> impl Strategy<Value = PresenceOp> {
    let picks = || prop::collection::vec(any::<usize>(), 1..4);
    prop_oneof![
        bounds_op_strategy().prop_map(PresenceOp::Edit),
        bounds_op_strategy().prop_map(PresenceOp::Edit),
        bounds_op_strategy().prop_map(PresenceOp::Edit),
        picks().prop_map(|picks| PresenceOp::Subset { picks }),
        picks().prop_map(|picks| PresenceOp::Extract { picks }),
        any::<usize>().prop_map(|pick| PresenceOp::Parcel { pick }),
        Just(PresenceOp::Swap),
    ]
}

/// A tree drawn for the fast-path property, then cut to one of the four
/// presence shapes: as drawn, no presence node, only a camera, only an
/// avatar.
fn presence_shaped_tree(ops: &[BoundsOp], shape: u8, pick: usize) -> SceneTree {
    let mut tree = SceneTree::new();
    for (step, op) in ops.iter().enumerate() {
        apply_bounds_op(&mut tree, op, step);
    }
    if shape == 0 {
        return tree;
    }
    let held = tree.find_all(|n| n.kind_tag().is_presence());
    for id in held {
        tree.node_mut(id).unwrap().set_kind(NodeKind::Group);
    }
    let live: Vec<NodeId> = tree.descendants(tree.root());
    let camera = CameraParams::default();
    let kind = match shape {
        1 => return tree,
        2 => NodeKind::Camera(camera),
        _ => NodeKind::Avatar(AvatarInfo { label: "only".into(), color: Vec3::Z, camera }),
    };
    tree.node_mut(live[pick % live.len()]).unwrap().set_kind(kind);
    tree
}

/// One update of every variant against `tree`'s ids plus one it does not
/// hold, so refusals of every kind are drawn: missing targets, taken ids,
/// the root, pose updates to nodes of other kinds.
fn drawn_update(tree: &SceneTree, which: u8, pick: usize, salt: u64) -> SceneUpdate {
    let mut ids: Vec<NodeId> = tree.descendants(tree.root());
    ids.push(NodeId(u64::MAX - 3));
    let id = ids[pick % ids.len()];
    let camera = CameraParams {
        position: Vec3::new(coordinate(&mut salt.clone()), 1.0, 2.0),
        ..CameraParams::default()
    };
    match which {
        0 => {
            let fresh = NodeId(tree.id_allocator_state() + salt % 2);
            let id = if salt.is_multiple_of(5) { ids[(pick / 7) % ids.len()] } else { fresh };
            SceneUpdate::AddNode {
                id,
                parent: ids[pick % ids.len()],
                name: "u".into(),
                kind: payload(salt, true),
            }
        }
        1 => SceneUpdate::RemoveNode { id },
        2 => SceneUpdate::SetTransform { id, transform: Transform::from_translation(Vec3::X) },
        3 => SceneUpdate::SetName { id, name: "v".into() },
        4 => SceneUpdate::ReplaceKind { id, kind: payload(salt, true) },
        5 => SceneUpdate::CameraMoved { id, camera },
        _ => SceneUpdate::AvatarUpdated {
            id,
            avatar: AvatarInfo { label: "w".into(), color: Vec3::Y, camera },
        },
    }
}

proptest! {
    /// `holds_presence` is exactly "some live node is a camera or an
    /// avatar" after every insert, remove, reparent, kind write, update,
    /// merge, subset extraction, parcel adoption, clone and decode — on
    /// source trees and on the replicas subsets and parcels build.
    #[test]
    fn the_presence_count_is_exact(
        ops in prop::collection::vec(presence_op_strategy(), 1..60),
    ) {
        let (mut tree, mut replica) = (SceneTree::new(), SceneTree::new());
        for (step, op) in ops.iter().enumerate() {
            let live: Vec<NodeId> = tree.descendants(tree.root());
            let roots = |picks: &[usize]| -> Vec<NodeId> {
                picks.iter().map(|p| live[p % live.len()]).collect()
            };
            match op {
                PresenceOp::Edit(op) => apply_bounds_op(&mut tree, op, step),
                PresenceOp::Subset { picks } => {
                    let subset = tree.extract_subset(&roots(picks));
                    prop_assert_eq!(subset.holds_presence(), scanned_presence(&subset));
                    replica.merge_subset(&subset);
                }
                PresenceOp::Extract { picks } => replica = tree.extract_subset(&roots(picks)),
                PresenceOp::Parcel { pick } => {
                    replica.adopt_parcel(&tree.extract_parcel(&[live[pick % live.len()]]));
                }
                PresenceOp::Swap => std::mem::swap(&mut tree, &mut replica),
            }
            for t in [&tree, &replica] {
                t.check_invariants().map_err(|msg| TestCaseError { msg })?;
                prop_assert_eq!(t.holds_presence(), scanned_presence(t), "after {:?}", op);
            }
        }
    }

    /// `try_apply` is `apply(..).is_ok()`: for any tree — one with no
    /// presence node, only a camera, only an avatar, or as drawn — and any
    /// run of updates, the two agree update by update, leave equal trees,
    /// and a refusal moves neither tree's stamp.
    #[test]
    fn try_apply_is_apply_is_ok(
        ops in prop::collection::vec(bounds_op_strategy(), 0..30),
        shape in 0u8..4,
        pick in any::<usize>(),
        updates in prop::collection::vec((0u8..7, any::<usize>(), any::<u64>()), 1..12),
    ) {
        let tree = presence_shaped_tree(&ops, shape, pick);
        if shape != 0 {
            prop_assert_eq!(tree.holds_presence(), shape != 1);
        }
        let (mut fast, mut eager) = (tree.clone(), tree);
        for &(which, pick, salt) in &updates {
            let update = drawn_update(&eager, which, pick, salt);
            let (fast_stamp, eager_stamp) = (fast.edit_stamp(), eager.edit_stamp());
            let took = update.try_apply(&mut fast);
            prop_assert_eq!(took, update.apply(&mut eager).is_ok(), "{:?}", update);
            // By their printed state: a drawn transform can hold a NaN,
            // which `==` never finds equal to itself.
            prop_assert_eq!(format!("{fast:?}"), format!("{eager:?}"), "{:?}", update);
            prop_assert_eq!(fast.holds_presence(), eager.holds_presence());
            if !took {
                prop_assert_eq!(fast.edit_stamp(), fast_stamp, "refused {:?}", update);
                prop_assert_eq!(eager.edit_stamp(), eager_stamp, "refused {:?}", update);
            }
        }
        fast.check_invariants().map_err(|msg| TestCaseError { msg })?;
    }
}

// ---- the edit journal against an unbounded list of everything noted ----

/// One step of a journal script. Picks are reduced modulo the live nodes
/// plus one, the extra pick being an id the tree does not hold, so refused
/// edits are part of every script. `Storm` is `n` payload touches of one
/// node, the way past the journal's cap, and `PoseStorm` `n` transform
/// writes, the way past the pose tail's; `Swap` assigns a clone over the
/// tree, so every stamp held is of another tree; `Peek` has a reader take
/// the current stamp without reading (what a consumer that rebuilt its view
/// from the tree itself does); `Read`'s mask asks for `Structure` with bit
/// 0, for `Payload` with bit 1 and for `Pose` with bit 2.
#[derive(Debug, Clone)]
enum JournalOp {
    Add { parent: usize },
    InsertWithId { parent: usize, taken: bool },
    Remove { pick: usize },
    Reparent { pick: usize, dest: usize },
    NodeMut { pick: usize, write: u8 },
    Storm { pick: usize, n: usize },
    PoseStorm { pick: usize, n: usize },
    SetTransform { pick: usize },
    SetCameraPose { pick: usize },
    Merge { parent: usize },
    Swap,
    Peek { reader: usize },
    Read { reader: usize, mask: u8 },
}

fn journal_op_strategy() -> impl Strategy<Value = JournalOp> {
    let pick = any::<usize>;
    prop_oneof![
        pick().prop_map(|parent| JournalOp::Add { parent }),
        (pick(), any::<bool>())
            .prop_map(|(parent, taken)| JournalOp::InsertWithId { parent, taken }),
        pick().prop_map(|pick| JournalOp::Remove { pick }),
        (pick(), pick()).prop_map(|(pick, dest)| JournalOp::Reparent { pick, dest }),
        (pick(), 0u8..3).prop_map(|(pick, write)| JournalOp::NodeMut { pick, write }),
        (pick(), 0usize..700).prop_map(|(pick, n)| JournalOp::Storm { pick, n }),
        (pick(), 0usize..700).prop_map(|(pick, n)| JournalOp::PoseStorm { pick, n }),
        pick().prop_map(|pick| JournalOp::SetTransform { pick }),
        pick().prop_map(|pick| JournalOp::SetCameraPose { pick }),
        pick().prop_map(|parent| JournalOp::Merge { parent }),
        Just(JournalOp::Swap),
        pick().prop_map(|reader| JournalOp::Peek { reader }),
        (pick(), 0u8..8).prop_map(|(reader, mask)| JournalOp::Read { reader, mask }),
        (pick(), 0u8..8).prop_map(|(reader, mask)| JournalOp::Read { reader, mask }),
    ]
}

/// Where a reader stands: the stamp it holds and, for the reference, which
/// tree value it is of and how many events that tree had seen by then.
#[derive(Clone, Copy)]
struct Reader {
    stamp: EditStamp,
    tree: Option<usize>,
    at: usize,
}

proptest! {
    /// `changes_since` against a `Vec` of every edit the tree was told of,
    /// never trimmed: a read names exactly the nodes noted since the
    /// reader's own position under the classes it asks for, `Clean` when
    /// there are none, and `Everything` exactly when the stamp is of
    /// another tree value, was taken before the tree's first read, or has
    /// more than 512 structure and payload entries after it (or, asking for
    /// `Pose`, more than 512 pose entries) — whatever the other readers did
    /// in between. Refused edits move nothing.
    #[test]
    fn journal_reads_equal_the_unbounded_reference(
        n_readers in 1usize..5,
        script in prop::collection::vec(journal_op_strategy(), 1..60),
    ) {
        use EditClass::{Payload, Pose, Structure};
        const CAP: usize = 512;
        let absent = NodeId(9_999);
        let mut tree = SceneTree::new();
        let camera = NodeKind::Camera(CameraParams::default());
        tree.add_node(tree.root(), "cam", camera).unwrap();
        // The reference: per event the node and class noted; which tree
        // value it is about; where recording began.
        let mut events: Vec<(NodeId, EditClass)> = Vec::new();
        let mut tree_value = 0usize;
        let mut recording_since: Option<usize> = None;
        let mut readers =
            vec![Reader { stamp: EditStamp::default(), tree: None, at: 0 }; n_readers];

        for (step, op) in script.iter().enumerate() {
            let live = tree.descendants(tree.root());
            let node = |pick: usize| live.get(pick % (live.len() + 1)).copied().unwrap_or(absent);
            let before = tree.edit_stamp();
            let noted_before = events.len();
            match *op {
                JournalOp::Add { parent } => {
                    if let Ok(id) = tree.add_node(node(parent), format!("n{step}"), mesh_kind(1)) {
                        events.push((id, Structure));
                    }
                }
                JournalOp::InsertWithId { parent, taken } => {
                    let id = if taken { live[parent % live.len()] } else { tree.allocate_id() };
                    if tree.insert_with_id(id, node(parent), "w", NodeKind::Group).is_ok() {
                        events.push((id, Structure));
                    }
                }
                JournalOp::Remove { pick } => {
                    for id in tree.remove(node(pick)).unwrap_or_default() {
                        events.push((id, Structure));
                    }
                }
                JournalOp::Reparent { pick, dest } => {
                    if tree.reparent(node(pick), node(dest)).is_ok() {
                        events.push((node(pick), Structure));
                    }
                }
                JournalOp::NodeMut { pick, write } => {
                    if let Some(mut view) = tree.node_mut(node(pick)) {
                        match write {
                            0 => view.set_kind(mesh_kind(2)),
                            1 => view.set_name("renamed"),
                            _ => view.bump_version(),
                        }
                        events.push((node(pick), Payload));
                    }
                }
                JournalOp::Storm { pick, n } => {
                    for _ in 0..n {
                        if tree.node_mut(node(pick)).is_some() {
                            events.push((node(pick), Payload));
                        }
                    }
                }
                JournalOp::PoseStorm { pick, n } => {
                    for _ in 0..n {
                        if tree.set_transform(node(pick), Transform::IDENTITY) {
                            events.push((node(pick), Pose));
                        }
                    }
                }
                JournalOp::SetTransform { pick } => {
                    if tree.set_transform(node(pick), Transform::IDENTITY) {
                        events.push((node(pick), Pose));
                    }
                }
                JournalOp::SetCameraPose { pick } => {
                    if tree.set_camera_pose(node(pick), CameraParams::default()).is_ok() {
                        events.push((node(pick), Pose));
                    }
                }
                JournalOp::Merge { parent } => {
                    // Two nodes the tree lacks, under a parent it may lack too.
                    let mut other = SceneTree::new();
                    let (a, b) = (tree.allocate_id(), tree.allocate_id());
                    let under = if node(parent) == tree.root() { other.root() } else { a };
                    other.insert_with_id(a, other.root(), "a", NodeKind::Group).unwrap();
                    other.insert_with_id(b, under, "b", mesh_kind(1)).unwrap();
                    tree.merge_subset(&other);
                    events.extend([a, b].map(|id| (id, Structure)));
                }
                JournalOp::Swap => {
                    tree = tree.clone();
                    events.clear();
                    tree_value += 1;
                    recording_since = None;
                    continue;
                }
                JournalOp::Peek { reader } => {
                    let reader = &mut readers[reader % n_readers];
                    *reader =
                        Reader { stamp: tree.edit_stamp(), tree: Some(tree_value), at: events.len() };
                }
                JournalOp::Read { reader, mask } => {
                    let reader = &mut readers[reader % n_readers];
                    let classes: Vec<EditClass> = [Structure, Payload, Pose]
                        .into_iter()
                        .enumerate()
                        .filter(|(bit, _)| mask & (1 << bit) != 0)
                        .map(|(_, class)| class)
                        .collect();
                    let got = tree.changes_since(reader.stamp, &classes);

                    let since = events.get(reader.at..).unwrap_or_default();
                    let poses = since.iter().filter(|(_, class)| *class == Pose).count();
                    let answerable = reader.tree == Some(tree_value)
                        && recording_since.is_some_and(|began| reader.at >= began)
                        && since.len() - poses <= CAP
                        && (!classes.contains(&Pose) || poses <= CAP);
                    let mut ids: Vec<NodeId> = since
                        .iter()
                        .filter(|(_, class)| classes.contains(class))
                        .map(|&(id, _)| id)
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    let want = match (answerable, ids.is_empty()) {
                        (false, _) => Dirt::Everything,
                        (true, true) => Dirt::Clean,
                        (true, false) => Dirt::Nodes(ids),
                    };
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                    recording_since.get_or_insert(events.len());
                    *reader =
                        Reader { stamp: tree.edit_stamp(), tree: Some(tree_value), at: events.len() };
                }
            }
            // Every edit the tree took moved the stamp; a refused one, a
            // peek and a read did not.
            prop_assert_eq!(
                tree.edit_stamp() != before, events.len() > noted_before,
                "step {}: {:?}", step, op
            );
        }
    }
}

/// A tree grown by `ops` (`ExtractMerge` does nothing here): payloads,
/// transforms, versions, recycled slots, reparented subtrees, and a root
/// transform of its own.
fn churned_tree(ops: &[ModelOp]) -> SceneTree {
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
    tree
}

/// The `extract_subset` this repository shipped before it learned to
/// visit only the closure: walk every node of `tree` in pre-order and keep
/// the ones in the closure. Kept as the oracle of the test above.
fn extract_by_whole_tree_walk(tree: &SceneTree, roots: &[NodeId]) -> SceneTree {
    let mut in_subtree: Vec<NodeId> = roots.iter().flat_map(|&r| tree.descendants(r)).collect();
    in_subtree.sort_unstable();
    let mut closure = in_subtree.clone();
    closure.extend(roots.iter().flat_map(|&r| tree.ancestors(r)));
    closure.sort_unstable();
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

/// The `merge_subset` this repository shipped before a parcel was the one
/// way foreign records enter a tree: walk `subset` in pre-order and insert
/// each node `tree` lacks under its parent (`subset`'s root mapping to
/// `tree`'s), keeping the local state of the nodes it holds and skipping an
/// orphaned branch. Kept as the oracle of
/// `adopting_a_parcel_equals_merging_the_subset`. Through the public API,
/// the transform and version go in through `node_mut`.
fn merge_by_tree_walk(tree: &mut SceneTree, subset: &SceneTree) {
    for src in subset.descendants_iter(subset.root()) {
        let id = src.id();
        if id == subset.root() || tree.contains(id) {
            continue;
        }
        let parent = src.parent().expect("non-root has parent");
        let parent = if parent == subset.root() { tree.root() } else { parent };
        // An orphaned branch: its parent was never replicated.
        if tree.insert_with_id(id, parent, src.name(), src.kind().clone()).is_err() {
            continue;
        }
        let mut node = tree.node_mut(id).unwrap();
        node.set_transform(src.transform());
        node.set_version(src.version());
    }
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
