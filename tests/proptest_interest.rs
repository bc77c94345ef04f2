//! Property tests pinning the inverted interest index to its oracle:
//! after arbitrary edit storms — adds, removes, reparents, renames —
//! folded in through incremental `repair`, and arbitrary interest roots
//! given, taken and moved between subscribers through `add_root` /
//! `remove_root`, the index's routing decision for any update equals a
//! naive scan over the `InterestSet`s and that of an index rebuilt from
//! them. Roots a subscriber lists before the tree holds them (pending
//! roots) are given out and then added, and every probe is judged against
//! the tree as it stands before the update's commit, as the data service
//! routes it. Cameras and avatars are added and probed like any other
//! node: they are routed by the same rule. Plus that rule for presence as
//! a regression, through a data service: a collaborator's join and poses
//! reach the full subscribers and the subsets whose subtrees hold it, and
//! no other; and full-replica subscribers converge to the master scene
//! through the batched multicast delivery path.

use proptest::prelude::*;
use rave::core::data_service::DataService;
use rave::core::world::{publish_batch, RaveWorld};
use rave::core::{DataServiceId, RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::scene::{
    AvatarInfo, Dirt, EditClass, EditStamp, InterestIndex, InterestSet, KindTag, NodeId, NodeKind,
    Reach, SceneTree, SceneUpdate, Transform,
};
use rave::sim::Simulation;

/// One read of an index owner: the tree's structural edits since `seen`,
/// which moves up to now.
fn structure_dirt(tree: &mut SceneTree, seen: &mut EditStamp) -> Dirt {
    let dirt = tree.changes_since(*seen, &[EditClass::Structure]);
    *seen = tree.edit_stamp();
    dirt
}

/// A structural edit against whatever nodes the tree currently holds
/// (picks are reduced modulo the live node count at apply time).
#[derive(Debug, Clone)]
enum Edit {
    Add { parent_pick: usize },
    AddAvatar { parent_pick: usize },
    Remove { pick: usize },
    Reparent { pick: usize, dest_pick: usize },
    Rename { pick: usize },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<usize>().prop_map(|parent_pick| Edit::Add { parent_pick }),
        any::<usize>().prop_map(|parent_pick| Edit::AddAvatar { parent_pick }),
        any::<usize>().prop_map(|pick| Edit::Remove { pick }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(pick, dest_pick)| Edit::Reparent { pick, dest_pick }),
        any::<usize>().prop_map(|pick| Edit::Rename { pick }),
    ]
}

/// One subscriber's interest: `None` = everything, otherwise subtree
/// roots drawn from the initial node population (picks reduced modulo).
fn interest_strategy() -> impl Strategy<Value = Option<Vec<usize>>> {
    prop_oneof![
        Just(None),
        prop::collection::vec(any::<usize>(), 1..4).prop_map(Some),
        prop::collection::vec(any::<usize>(), 1..4).prop_map(Some),
        prop::collection::vec(any::<usize>(), 1..4).prop_map(Some),
    ]
}

fn avatar() -> NodeKind {
    NodeKind::Avatar(AvatarInfo { label: "u".into(), color: Vec3::X, camera: Default::default() })
}

/// The oracle: ask every set in turn.
fn naive(sets: &[InterestSet], u: &SceneUpdate, tree: &SceneTree) -> Vec<u32> {
    sets.iter().enumerate().filter(|(_, s)| s.relevant(u, tree)).map(|(i, _)| i as u32).collect()
}

/// The index's answer with `Reach::Everyone` spelled out.
fn indexed(ix: &mut InterestIndex, u: &SceneUpdate, tree: &SceneTree) -> Vec<u32> {
    let mut out = Vec::new();
    if ix.matches(u, tree, &mut out) == Reach::Everyone {
        out.extend(0..ix.n_subs() as u32);
    }
    out
}

/// The probe battery: one update of every routing class against the
/// current tree state (plus a remembered dead id for the unknown-target
/// rule, and the add of a pending root), each checked index-vs-oracle.
fn check_probes(
    ix: &mut InterestIndex,
    sets: &[InterestSet],
    tree: &mut SceneTree,
    removed: &[NodeId],
    salt: usize,
) {
    for u in &probes(tree, sets, removed, salt) {
        let got = indexed(ix, u, tree);
        let want = naive(sets, u, tree);
        assert_eq!(got, want, "index diverged from refreshed scan on {u:?}");
    }
}

/// A root some set lists that the tree does not hold yet, if any: neither
/// in the tree nor removed from it.
fn pending_root(tree: &SceneTree, sets: &[InterestSet], removed: &[NodeId]) -> Option<NodeId> {
    sets.iter().flat_map(|s| s.roots()).find(|r| !tree.contains(*r) && !removed.contains(r))
}

fn probes(
    tree: &mut SceneTree,
    sets: &[InterestSet],
    removed: &[NodeId],
    salt: usize,
) -> Vec<SceneUpdate> {
    let nodes: Vec<NodeId> = tree.descendants(tree.root());
    let target = nodes[salt % nodes.len()];
    let parent = nodes[(salt / 7) % nodes.len()];
    let add = |id, name: &str| SceneUpdate::AddNode {
        id,
        parent,
        name: name.into(),
        kind: NodeKind::Group,
    };
    let mut probes = vec![
        SceneUpdate::SetName { id: target, name: "probe".into() },
        SceneUpdate::SetTransform { id: tree.root(), transform: Transform::IDENTITY },
        SceneUpdate::RemoveNode { id: target },
        add(tree.allocate_id(), "p"),
        SceneUpdate::CameraMoved { id: target, camera: Default::default() },
        SceneUpdate::AddNode { id: tree.allocate_id(), parent, name: "j".into(), kind: avatar() },
    ];
    let presence: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| matches!(tree.node(n).unwrap().kind_tag(), KindTag::Camera | KindTag::Avatar))
        .collect();
    if let Some(&id) = presence.get(salt % presence.len().max(1)) {
        probes.push(SceneUpdate::CameraMoved { id, camera: Default::default() });
        probes.push(SceneUpdate::SetName { id, name: "pose".into() });
    }
    probes.extend(pending_root(tree, sets, removed).map(|id| add(id, "pending")));
    if let Some(&dead) = removed.last() {
        probes.push(SceneUpdate::SetName { id: dead, name: "ghost".into() });
        probes.push(SceneUpdate::RemoveNode { id: dead });
    }
    probes
}

/// One structural edit of a storm, against whatever the tree holds now.
fn apply_edit(tree: &mut SceneTree, edit: &Edit, step: usize, removed: &mut Vec<NodeId>) {
    let nodes: Vec<NodeId> = tree.descendants(tree.root());
    match edit {
        Edit::Add { parent_pick } => {
            let parent = nodes[parent_pick % nodes.len()];
            tree.add_node(parent, format!("s{step}"), NodeKind::Group).unwrap();
        }
        Edit::AddAvatar { parent_pick } => {
            let parent = nodes[parent_pick % nodes.len()];
            tree.add_node(parent, format!("av{step}"), avatar()).unwrap();
        }
        Edit::Remove { pick } => {
            let victims: Vec<NodeId> =
                nodes.iter().copied().filter(|&n| n != tree.root()).collect();
            if let Some(&v) = victims.get(pick % victims.len().max(1)) {
                removed.extend(tree.descendants(v));
                tree.remove(v).unwrap();
            }
        }
        Edit::Reparent { pick, dest_pick } => {
            let movable: Vec<NodeId> =
                nodes.iter().copied().filter(|&n| n != tree.root()).collect();
            if !movable.is_empty() {
                let node = movable[pick % movable.len()];
                let dest = nodes[dest_pick % nodes.len()];
                // Moving under your own subtree is rejected; skip.
                let _ = tree.reparent(node, dest);
            }
        }
        Edit::Rename { pick } => {
            let id = nodes[pick % nodes.len()];
            SceneUpdate::SetName { id, name: format!("r{step}") }.apply(tree).unwrap();
        }
    }
}

/// A few branches of varying depth.
fn seeded_tree(seed_sizes: &[usize]) -> SceneTree {
    let mut tree = SceneTree::new();
    for (b, &depth) in seed_sizes.iter().enumerate() {
        let mut at = tree.root();
        for d in 0..depth {
            at = tree.add_node(at, format!("b{b}d{d}"), NodeKind::Group).unwrap();
        }
    }
    tree
}

fn interest_sets(specs: &[Option<Vec<usize>>], seed_nodes: &[NodeId]) -> Vec<InterestSet> {
    specs
        .iter()
        .map(|spec| match spec {
            None => InterestSet::everything(),
            Some(picks) => {
                InterestSet::subtrees(picks.iter().map(|&p| seed_nodes[p % seed_nodes.len()]))
            }
        })
        .collect()
}

/// One step of a migration storm: a structural edit, or an interest root
/// changing hands (`from` / `to` pick subscribers; `None` = nobody, so a
/// first placement or a dropped workload).
#[derive(Debug, Clone)]
enum Step {
    Edit(Edit),
    Reroot {
        root_pick: usize,
        from: Option<usize>,
        to: Option<usize>,
        held: bool,
    },
    /// The tree gains a root a subscriber already lists, if one is pending.
    AddPending {
        parent_pick: usize,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let who = || prop_oneof![Just(None), any::<usize>().prop_map(Some)];
    let reroot = || {
        (any::<usize>(), who(), who(), any::<bool>())
            .prop_map(|(root_pick, from, to, held)| Step::Reroot { root_pick, from, to, held })
    };
    let add_pending = any::<usize>().prop_map(|parent_pick| Step::AddPending { parent_pick });
    prop_oneof![edit_strategy().prop_map(Step::Edit), reroot(), reroot(), add_pending]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary edit storms, folded into the index strictly through
    /// `changes_since` → `repair` (never a rebuild), keep every
    /// routing decision identical to the naive scan — including
    /// updates to nodes that left the tree mid-storm (unknown-target
    /// conservatism) and roots that were removed or reparented (interval
    /// and ancestor-chain staleness).
    #[test]
    fn repaired_index_tracks_refreshed_scan_through_edit_storms(
        seed_sizes in prop::collection::vec(1usize..4, 2..5),
        interests in prop::collection::vec(interest_strategy(), 2..7),
        storm in prop::collection::vec(edit_strategy(), 1..25),
    ) {
        let mut tree = seeded_tree(&seed_sizes);
        let seed_nodes: Vec<NodeId> = tree.descendants(tree.root());
        let sets = interest_sets(&interests, &seed_nodes);

        let mut ix = InterestIndex::new();
        let mut seen = EditStamp::default();
        let _ = structure_dirt(&mut tree, &mut seen);
        ix.rebuild(&tree, sets.iter());

        let mut removed: Vec<NodeId> = Vec::new();
        for (step, edit) in storm.iter().enumerate() {
            apply_edit(&mut tree, edit, step, &mut removed);
            let dirt = structure_dirt(&mut tree, &mut seen);
            ix.repair(&tree, &dirt);
            check_probes(&mut ix, &sets, &mut tree, &removed, step * 31 + 7);
        }
    }

    /// A migration storm: interest roots given to, taken from and moved
    /// between subscribers — roots the index already knows (`held`) and
    /// nodes new to it, live, removed and pending, the pending ones later
    /// added to the tree — patched in with `add_root` /
    /// `remove_root`, interleaved with structural edits folded in through
    /// `repair`, and never a rebuild. After every step each probe is
    /// answered as the naive scan and as an index rebuilt from
    /// the edited sets answer it; both compare slot for slot, so no
    /// subscriber was renumbered.
    #[test]
    fn patched_index_tracks_a_rebuilt_one_through_migration_storms(
        seed_sizes in prop::collection::vec(1usize..4, 2..5),
        interests in prop::collection::vec(interest_strategy(), 2..7),
        storm in prop::collection::vec(step_strategy(), 1..30),
    ) {
        let mut tree = seeded_tree(&seed_sizes);
        let seed_nodes: Vec<NodeId> = tree.descendants(tree.root());
        let mut sets = interest_sets(&interests, &seed_nodes);

        let mut ix = InterestIndex::new();
        let mut seen = EditStamp::default();
        let _ = structure_dirt(&mut tree, &mut seen);
        ix.rebuild(&tree, sets.iter());

        let mut removed: Vec<NodeId> = Vec::new();
        for (step, what) in storm.iter().enumerate() {
            match what {
                Step::Edit(edit) => {
                    apply_edit(&mut tree, edit, step, &mut removed);
                    let dirt = structure_dirt(&mut tree, &mut seen);
                    ix.repair(&tree, &dirt);
                }
                Step::Reroot { root_pick, from, to, held } => {
                    let from = from.map(|p| p % sets.len());
                    let to = to.map(|p| p % sets.len());
                    // A root `from` lists (so that moves really move), else
                    // one anybody lists, else any node, now and then a dead
                    // one.
                    let of_from: Vec<NodeId> =
                        from.map(|f| sets[f].roots().collect()).unwrap_or_default();
                    let listed: Vec<NodeId> = sets.iter().flat_map(|s| s.roots()).collect();
                    let mut anywhere: Vec<NodeId> = tree.descendants(tree.root());
                    anywhere.extend(removed.last());
                    anywhere.push(NodeId(tree.id_allocator_state()));
                    let pool = match held {
                        true if !of_from.is_empty() => &of_from,
                        true if !listed.is_empty() => &listed,
                        _ => &anywhere,
                    };
                    let root = pool[root_pick % pool.len()];
                    // The order `DataService::move_interest_root` uses.
                    if let Some(to) = to {
                        if sets[to].add_root(root) {
                            ix.add_root(&tree, to as u32, root);
                        }
                    }
                    if let Some(from) = from {
                        if sets[from].remove_root(root) {
                            ix.remove_root(from as u32, root);
                        }
                    }
                }
                Step::AddPending { parent_pick } => {
                    if let Some(id) = pending_root(&tree, &sets, &removed) {
                        let nodes = tree.descendants(tree.root());
                        let parent = nodes[parent_pick % nodes.len()];
                        tree.insert_with_id(id, parent, "arrived", NodeKind::Group).unwrap();
                        let dirt = structure_dirt(&mut tree, &mut seen);
                        ix.repair(&tree, &dirt);
                    }
                }
            }
            prop_assert_eq!(ix.n_subs(), sets.len());
            let mut rebuilt = InterestIndex::new();
            rebuilt.rebuild(&tree, sets.iter());
            for u in &probes(&mut tree, &sets, &removed, step * 31 + 7) {
                let got = indexed(&mut ix, u, &tree);
                prop_assert_eq!(&got, &indexed(&mut rebuilt, u, &tree), "vs a rebuild on {:?}", u);
                prop_assert_eq!(&got, &naive(&sets, u, &tree), "vs the scan on {:?}", u);
            }
        }
    }

    /// End-to-end through the batched multicast delivery path: arbitrary
    /// update batches published to full-replica subscribers leave every
    /// replica holding exactly the master's nodes once the sim drains.
    #[test]
    fn full_replicas_converge_under_batched_storms(
        batches in prop::collection::vec(
            prop::collection::vec((0usize..3, any::<usize>()), 1..5),
            1..5,
        ),
    ) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 77));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let rs_a = sim.world.spawn_render_service("desktop");
        let rs_b = sim.world.spawn_render_service("zaurus");
        for rs in [rs_a, rs_b] {
            sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
            let replica = sim.world.data(ds).scene.clone();
            sim.world.render_mut(rs).scene = replica;
        }
        for batch in &batches {
            // Build the batch against a planning clone: later picks must
            // not touch nodes an earlier update in the same batch removed
            // (the data service applies the batch sequentially).
            let mut planned = sim.world.data(ds).scene.clone();
            let mut updates: Vec<(String, SceneUpdate)> = Vec::new();
            for &(kind, pick) in batch {
                let nodes: Vec<NodeId> = planned.descendants(planned.root());
                let u = match kind {
                    0 => {
                        let parent = nodes[pick % nodes.len()];
                        let id = sim.world.data_mut(ds).scene.allocate_id();
                        SceneUpdate::AddNode {
                            id,
                            parent,
                            name: format!("n{id:?}"),
                            kind: NodeKind::Group,
                        }
                    }
                    1 => match nodes.iter().copied().find(|&n| n != planned.root()) {
                        Some(id) => SceneUpdate::RemoveNode { id },
                        None => continue,
                    },
                    _ => {
                        let id = nodes[pick % nodes.len()];
                        SceneUpdate::SetName { id, name: "moved".into() }
                    }
                };
                u.apply(&mut planned).unwrap();
                updates.push(("u".to_string(), u));
            }
            if updates.is_empty() {
                continue;
            }
            publish_batch(&mut sim, ds, updates).unwrap();
            sim.run();
        }
        let master: Vec<NodeId> = {
            let s = &sim.world.data(ds).scene;
            s.descendants(s.root())
        };
        for rs in [rs_a, rs_b] {
            let replica: Vec<NodeId> = {
                let s = &sim.world.render(rs).scene;
                s.descendants(s.root())
            };
            prop_assert_eq!(&replica, &master, "replica {:?} diverged", rs);
        }
    }
}

/// A collaborator is routed as any node is, through a data service: a
/// join under the scene root reaches the full subscriber alone, and so do
/// its poses; a join under a subset's root reaches that subset too, as do
/// its poses, also to a subset subscribed after the join. A subset of a
/// sibling branch is sent neither. The index answers as the naive scan at
/// every update.
#[test]
fn presence_reaches_narrow_subscribers() {
    let (narrow, full) = (RenderServiceId(1), RenderServiceId(2));
    let (sibling, late) = (RenderServiceId(3), RenderServiceId(4));
    let mut ds = DataService::new(DataServiceId(1), "h", "s");
    let shown = ds.scene.add_node(ds.scene.root(), "shown", NodeKind::Group).unwrap();
    let hidden = ds.scene.add_node(ds.scene.root(), "hidden", NodeKind::Group).unwrap();
    ds.subscribe_live(narrow, InterestSet::subtrees([shown]));
    ds.subscribe_live(full, InterestSet::everything());
    ds.subscribe_live(sibling, InterestSet::subtrees([hidden]));
    let route = |ds: &mut DataService, update: SceneUpdate| {
        let stamped = ds.stamp("u", update);
        let routed = ds.route(&stamped);
        assert_eq!(routed, ds.route_naive(&stamped), "{:?}", stamped.update);
        ds.commit(0.0, &stamped).unwrap();
        routed
    };
    let join = |ds: &mut DataService, parent| {
        let id = ds.scene.allocate_id();
        (id, SceneUpdate::AddNode { id, parent, name: "avatar-u".into(), kind: avatar() })
    };
    let motion = |id| SceneUpdate::CameraMoved { id, camera: Default::default() };

    let root = ds.scene.root();
    let (at_root, add) = join(&mut ds, root);
    assert_eq!(route(&mut ds, add), [full], "a join under the scene root");
    assert_eq!(route(&mut ds, motion(at_root)), [full], "and its poses");
    let (in_shown, add) = join(&mut ds, shown);
    assert_eq!(route(&mut ds, add), [narrow, full], "a join under a subset's root");
    assert_eq!(route(&mut ds, motion(in_shown)), [narrow, full], "and its poses");

    ds.subscribe_live(late, InterestSet::subtrees([shown]));
    assert_eq!(route(&mut ds, motion(in_shown)), [narrow, full, late], "whenever it joined");
    assert_eq!(route(&mut ds, motion(at_root)), [full]);
    let mundane = SceneUpdate::SetName { id: hidden, name: "h".into() };
    assert_eq!(route(&mut ds, mundane), [full, sibling], "the sibling's own branch");
}
