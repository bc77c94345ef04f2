//! Property tests pinning the update fan-out — interned hosts, one
//! transfer time per receiving segment, slot-indexed FIFO marks, shared
//! delivery lists — to a reference that works the way the fan-out is
//! specified: one (subscriber, update) pair at a time, by name.
//!
//! The reference is built only on `InterestSet::relevant` — asked of a
//! copy of the master that replays each batch, just before each update's
//! commit — `Network::transfer_time`/`segment_of`, a per-(data service,
//! render service) high-water map, and each parcel's arrival. A parcel, a
//! bootstrap's or a migration's, is a message on its subscriber's stream:
//! the reference books its landing in the subscriber's mark, and every
//! delivery booked after it lands behind it. Random topologies, subscriber
//! populations and batch sequences (published back to back without
//! draining, with structural edits, collaborators joining and moving, nodes
//! recast as cameras, root edits, mid-batch commit failures, subscription
//! churn, late joins, and roots placed on a subscriber in between — once
//! the queue has drained, or by a migration whose subtree is edited while
//! its parcel is on the wire) must produce the same delivery schedule and
//! the same `FanoutTotals`. Independently of any routing rule, after every step
//! every node a subset replica holds lies in its interest's closure on the
//! master, and every replica that was sent all it was owed ends holding what
//! the master holds: a full one every node as the master has it, a subset
//! one exactly the master's interest closure — cameras and avatars like any
//! other node — and each group that orients a root as the master's
//! orientation record of it.

use proptest::prelude::*;
use rave::core::bootstrap::connect_render_service;
use rave::core::bootstrap::snapshot_parcel;
use rave::core::data_service::{DataService, FanoutTotals};
use rave::core::release_ledger::HEADER_BYTES;
use rave::core::sched::rebalance::MoveBatch;
use rave::core::trace::{TraceEvent, TraceKind};
use rave::core::world::{publish_batch, RaveSim, RaveWorld};
use rave::core::{DataServiceId, RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::net::{Fanout, LinkClass, LinkSpec, Network};
use rave::scene::{
    AvatarInfo, CameraParams, InterestSet, KindTag, MeshData, NodeId, NodeKind, Parcel, SceneTree,
    SceneUpdate, StampedUpdate, Transform,
};
use rave::sim::{SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const OFF_NET_HOST: &str = "unplugged";
/// Subscribed, never spawned.
const NO_SUCH_SERVICE: RenderServiceId = RenderServiceId(9_999);

fn link(kind: u8) -> LinkSpec {
    match kind % 4 {
        0 => LinkSpec::ethernet_100mb(),
        1 => LinkSpec::ethernet_1gb(),
        2 => LinkSpec::wireless_11mb(1.0),
        _ => LinkSpec::wireless_11mb(0.4),
    }
}

/// 1–6 segments of 1–3 hosts, each with its own intra link; some segment
/// pairs linked explicitly, the rest over the default.
#[derive(Debug, Clone)]
struct Topology {
    segments: Vec<(u8, usize)>,
    inter: Vec<(usize, usize, u8)>,
    default_inter: u8,
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    (
        prop::collection::vec((0u8..4, 1usize..4), 1..7),
        prop::collection::vec((any::<usize>(), any::<usize>(), 0u8..4), 0..6),
        0u8..4,
    )
        .prop_map(|(segments, inter, default_inter)| Topology {
            segments,
            inter,
            default_inter,
        })
}

impl Topology {
    /// The network and its host names, the data service's host first.
    fn build(&self) -> (Network, Vec<String>) {
        let mut net = Network::new();
        net.set_default_inter_link(link(self.default_inter));
        let n = self.segments.len();
        // Linked before the segments exist, as a harness may.
        for &(a, b, kind) in &self.inter {
            if a % n != b % n {
                net.link_segments(&format!("seg{}", a % n), &format!("seg{}", b % n), link(kind));
            }
        }
        let mut hosts = Vec::new();
        for (s, &(kind, count)) in self.segments.iter().enumerate() {
            net.add_segment(&format!("seg{s}"), link(kind));
            for h in 0..count {
                hosts.push(format!("s{s}h{h}"));
                net.add_host(&hosts[hosts.len() - 1], &format!("seg{s}"));
            }
        }
        (net, hosts)
    }
}

#[derive(Debug, Clone)]
struct Subscriber {
    host_pick: usize,
    /// `None` = everything, otherwise subtree roots (picks into the seed
    /// scene).
    interest: Option<Vec<usize>>,
}

/// Everything (`None`), or one or two subtree roots picked from the scene.
fn interest_strategy() -> impl Strategy<Value = Option<Vec<usize>>> {
    prop_oneof![
        Just(None),
        prop::collection::vec(any::<usize>(), 1..3).prop_map(Some),
        prop::collection::vec(any::<usize>(), 1..3).prop_map(Some),
    ]
}

fn subscriber_strategy() -> impl Strategy<Value = Subscriber> {
    (any::<usize>(), interest_strategy())
        .prop_map(|(host_pick, interest)| Subscriber { host_pick, interest })
}

#[derive(Debug, Clone)]
enum Op {
    /// A rename to a name of this length: sizes from a header to a few
    /// milliseconds of wireless.
    Rename {
        pick: usize,
        len: usize,
    },
    Move {
        pick: usize,
    },
    Add {
        parent_pick: usize,
    },
    Remove {
        pick: usize,
    },
    /// A `SetTransform` of a node and its `RemoveNode`, back to back.
    MoveThenRemove {
        pick: usize,
    },
    /// An `AddNode` under a group that a subset subscriber holds only to
    /// orient one of its roots. Nothing when no subscriber has one.
    AddAbove {
        pick: usize,
    },
    /// A collaborator's camera move (`CameraMoved`) or pose
    /// (`SetTransform`) on an avatar or a camera, routed as an update of
    /// any node is. Nothing when no presence node is left.
    Presence {
        pick: usize,
        camera: bool,
    },
    /// A collaborator joins: an `AddNode` of an avatar, routed as any add
    /// is.
    Join {
        parent_pick: usize,
    },
    /// A `ReplaceKind` that makes a node a subset subscriber holds as
    /// content a camera. Nothing when no subset subscriber holds a node
    /// but the scene root.
    Recast {
        pick: usize,
    },
    /// A `SetName` (to a name of `pick % 40` bytes), a `SetTransform` or a
    /// `ReplaceKind` (a mesh) of the scene root, by `edit % 3`: the
    /// orientation every subset replica holds and the root every full one
    /// holds, which every later bootstrap must carry.
    Root {
        pick: usize,
        edit: u8,
    },
    /// An `AddNode` under the scene root (or, with `under_chain`, under a
    /// group a subset subscriber holds only to orient one of its roots),
    /// then a `ReplaceKind` (a mesh) of such a group: what a replica
    /// catching up from the trail must leave out, and must take as an
    /// orientation write.
    Chain {
        pick: usize,
        under_chain: bool,
    },
    /// An update the master rejects: the batch stops here.
    Fail,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), 0usize..3000).prop_map(|(pick, len)| Op::Rename { pick, len }),
        (any::<usize>(), 0usize..40).prop_map(|(pick, len)| Op::Rename { pick, len }),
        any::<usize>().prop_map(|pick| Op::Move { pick }),
        any::<usize>().prop_map(|pick| Op::Move { pick }),
        any::<usize>().prop_map(|parent_pick| Op::Add { parent_pick }),
        any::<usize>().prop_map(|pick| Op::Remove { pick }),
        any::<usize>().prop_map(|pick| Op::MoveThenRemove { pick }),
        any::<usize>().prop_map(|pick| Op::AddAbove { pick }),
        (any::<usize>(), any::<bool>()).prop_map(|(pick, camera)| Op::Presence { pick, camera }),
        (any::<usize>(), any::<bool>()).prop_map(|(pick, camera)| Op::Presence { pick, camera }),
        any::<usize>().prop_map(|parent_pick| Op::Join { parent_pick }),
        any::<usize>().prop_map(|pick| Op::Recast { pick }),
        (any::<usize>(), 0u8..3).prop_map(|(pick, edit)| Op::Root { pick, edit }),
        (any::<usize>(), any::<bool>())
            .prop_map(|(pick, under_chain)| Op::Chain { pick, under_chain }),
        Just(Op::Fail),
    ]
}

fn mesh(triangles: usize) -> NodeKind {
    let mesh = MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]; triangles]);
    NodeKind::Mesh(Arc::new(mesh))
}

fn avatar(label: &str) -> NodeKind {
    NodeKind::Avatar(AvatarInfo {
        label: label.into(),
        color: Vec3::X,
        camera: CameraParams::default(),
    })
}

#[derive(Debug, Clone)]
enum Step {
    Batch(Vec<Op>),
    /// Let the clock run on without draining the queue.
    Advance {
        micros: u32,
    },
    /// The index renumbers around the gap; the FIFO mark must be there
    /// when the subscriber comes back.
    Unsubscribe {
        pick: usize,
    },
    /// Subscribe (again, if it still is subscribed).
    Resubscribe {
        pick: usize,
    },
    /// A render service joins late through the bootstrap, to everything or
    /// to subtrees of the master as it now stands (picks into its nodes):
    /// it is subscribed at once, and its snapshot is in flight until the
    /// clock passes its arrival, with what it is sent meanwhile behind it.
    Bootstrap {
        host_pick: usize,
        interest: Option<Vec<usize>>,
    },
    /// A node no subscriber lists is placed on a subscriber as a new
    /// interest root, with no donor; with `presence`, a node whose subtree
    /// holds a presence node. With `drain`, once the queue has drained, the
    /// data service lists it and the replica adopts its parcel at once;
    /// without, a migration moves it (`MoveBatch::move_node`), and a rename
    /// inside its subtree and a `ReplaceKind` of it are published while its
    /// parcel is on the wire. Nothing when there is no such node.
    Place {
        pick: usize,
        to_pick: usize,
        presence: bool,
        drain: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(op_strategy(), 1..7).prop_map(Step::Batch),
        prop::collection::vec(op_strategy(), 1..7).prop_map(Step::Batch),
        prop::collection::vec(op_strategy(), 1..7).prop_map(Step::Batch),
        (0u32..3000).prop_map(|micros| Step::Advance { micros }),
        any::<usize>().prop_map(|pick| Step::Unsubscribe { pick }),
        any::<usize>().prop_map(|pick| Step::Resubscribe { pick }),
        (any::<usize>(), interest_strategy())
            .prop_map(|(host_pick, interest)| Step::Bootstrap { host_pick, interest }),
        (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>()).prop_map(
            |(pick, to_pick, presence, drain)| Step::Place { pick, to_pick, presence, drain }
        ),
    ]
}

/// The non-root nodes of `tree` that a subset subscriber holds only to
/// orient one of its roots: strict ancestors of a root, no root at or
/// above them. Ascending.
fn orientation_only(tree: &SceneTree, service: &DataService) -> Vec<NodeId> {
    let mut above = BTreeSet::new();
    for interest in service.subscribers().values().filter(|i| !i.is_everything()) {
        let roots: BTreeSet<NodeId> = interest.roots().collect();
        for &root in &roots {
            let chain = tree.ancestors(root).into_iter().filter(|&a| a != tree.root());
            above.extend(chain.filter(|&a| !tree.lineage(a).any(|n| roots.contains(&n))));
        }
    }
    above.into_iter().collect()
}

/// The nodes of `tree` inside the roots' subtrees of the subset
/// subscribers; ascending, the scene root left out.
fn subset_content(tree: &SceneTree, service: &DataService) -> Vec<NodeId> {
    let subsets = service.subscribers().values().filter(|i| !i.is_everything());
    let roots = subsets.flat_map(|i| i.roots()).filter(|&r| tree.contains(r));
    let held: BTreeSet<NodeId> = roots.flat_map(|r| tree.descendants(r)).collect();
    held.into_iter().filter(|&n| n != tree.root()).collect()
}

/// Is `id` of `tree` a camera or an avatar?
fn is_presence(tree: &SceneTree, id: NodeId) -> bool {
    tree.node(id).is_some_and(|n| matches!(n.kind_tag(), KindTag::Camera | KindTag::Avatar))
}

/// Does the subtree of `id` in `tree` hold a camera or an avatar?
fn presence_under(tree: &SceneTree, id: NodeId) -> bool {
    tree.descendants(id).into_iter().any(|n| is_presence(tree, n))
}

/// Turn ops into updates against a planning clone of the master, so a
/// later pick never names a node an earlier update of the batch removed.
/// Returns the updates and how many of them the master will commit.
fn plan_batch(sim: &mut RaveSim, ds: DataServiceId, ops: &[Op]) -> (Vec<SceneUpdate>, usize) {
    let mut planned = sim.world.data(ds).scene.clone();
    let mut updates = Vec::new();
    let mut committed = None;
    for op in ops {
        let nodes: Vec<NodeId> = planned.descendants(planned.root());
        let victims: Vec<NodeId> = nodes.iter().copied().filter(|&n| n != planned.root()).collect();
        let victim = |pick: usize| victims.get(pick % victims.len().max(1)).copied();
        let planned_updates = match *op {
            Op::Rename { pick, len } => {
                vec![SceneUpdate::SetName { id: nodes[pick % nodes.len()], name: "n".repeat(len) }]
            }
            Op::Move { pick } => vec![SceneUpdate::SetTransform {
                id: nodes[pick % nodes.len()],
                transform: Transform::from_translation(Vec3::new(pick as f32, 0.0, 1.0)),
            }],
            Op::Add { parent_pick } => vec![SceneUpdate::AddNode {
                id: sim.world.data_mut(ds).scene.allocate_id(),
                parent: nodes[parent_pick % nodes.len()],
                name: "added".into(),
                kind: NodeKind::Group,
            }],
            Op::Remove { pick } => match victim(pick) {
                Some(id) => vec![SceneUpdate::RemoveNode { id }],
                None => continue, // only the root is left
            },
            Op::MoveThenRemove { pick } => match victim(pick) {
                Some(id) => {
                    let transform = Transform::from_translation(Vec3::new(0.0, pick as f32, 2.0));
                    vec![
                        SceneUpdate::SetTransform { id, transform },
                        SceneUpdate::RemoveNode { id },
                    ]
                }
                None => continue,
            },
            Op::AddAbove { pick } => {
                let above = orientation_only(&planned, sim.world.data(ds));
                let Some(&parent) = above.get(pick % above.len().max(1)) else { continue };
                vec![SceneUpdate::AddNode {
                    id: sim.world.data_mut(ds).scene.allocate_id(),
                    parent,
                    name: "above".into(),
                    kind: NodeKind::Group,
                }]
            }
            Op::Presence { pick, camera } => {
                let presence: Vec<NodeId> =
                    nodes.iter().copied().filter(|&n| is_presence(&planned, n)).collect();
                let Some(&id) = presence.get(pick % presence.len().max(1)) else { continue };
                let position = Vec3::new(pick as f32 % 7.0, 1.0, 2.0);
                vec![if camera {
                    let camera = CameraParams { position, ..CameraParams::default() };
                    SceneUpdate::CameraMoved { id, camera }
                } else {
                    SceneUpdate::SetTransform {
                        id,
                        transform: Transform::from_translation(position),
                    }
                }]
            }
            Op::Join { parent_pick } => vec![SceneUpdate::AddNode {
                id: sim.world.data_mut(ds).scene.allocate_id(),
                parent: nodes[parent_pick % nodes.len()],
                name: "joined".into(),
                kind: avatar("joined"),
            }],
            Op::Recast { pick } => {
                let content = subset_content(&planned, sim.world.data(ds));
                let Some(&id) = content.get(pick % content.len().max(1)) else { continue };
                let camera = CameraParams {
                    fov_y: 0.5 + (pick % 5) as f32 * 0.1,
                    ..CameraParams::default()
                };
                vec![SceneUpdate::ReplaceKind { id, kind: NodeKind::Camera(camera) }]
            }
            Op::Root { pick, edit } => {
                let id = planned.root();
                vec![match edit % 3 {
                    0 => SceneUpdate::SetName { id, name: "r".repeat(pick % 40) },
                    1 => {
                        let at = Vec3::new(pick as f32 % 9.0, 0.0, 3.0);
                        SceneUpdate::SetTransform { id, transform: Transform::from_translation(at) }
                    }
                    _ => SceneUpdate::ReplaceKind { id, kind: mesh(1 + pick % 50) },
                }]
            }
            Op::Chain { pick, under_chain } => {
                let above = orientation_only(&planned, sim.world.data(ds));
                let chain = above.get(pick % above.len().max(1)).copied();
                let parent = chain.filter(|_| under_chain).unwrap_or(planned.root());
                let add = SceneUpdate::AddNode {
                    id: sim.world.data_mut(ds).scene.allocate_id(),
                    parent,
                    name: "chained".into(),
                    kind: NodeKind::Group,
                };
                let replace =
                    chain.map(|id| SceneUpdate::ReplaceKind { id, kind: mesh(1 + pick % 50) });
                std::iter::once(add).chain(replace).collect()
            }
            Op::Fail => {
                committed.get_or_insert(updates.len());
                vec![SceneUpdate::RemoveNode { id: NodeId(u64::MAX) }]
            }
        };
        for update in planned_updates {
            if committed.is_none() {
                update.apply(&mut planned).expect("planned against the master's own state");
            }
            updates.push(update);
        }
    }
    let committed = committed.unwrap_or(updates.len());
    (updates, committed)
}

/// What the reference expects to land on one subscriber: a parcel, or
/// everything one batch owes it.
enum Landing {
    /// A parcel, adopted as it lands; `root` is the node a migration moved,
    /// which joins the replica's roots then.
    Parcel {
        parcel: Box<Parcel>,
        root: Option<NodeId>,
    },
    Updates(Vec<StampedUpdate>),
}

struct Expected {
    at: SimTime,
    to: RenderServiceId,
    landing: Landing,
}

/// The per-pair reference model of the fan-out.
struct Reference {
    ds_host: String,
    /// Host of every render service in the world.
    host_of: BTreeMap<RenderServiceId, String>,
    subscribed: BTreeSet<RenderServiceId>,
    high_water: BTreeMap<(DataServiceId, RenderServiceId), SimTime>,
    totals: FanoutTotals,
    /// In schedule order.
    deliveries: Vec<Expected>,
    /// The interest roots of every subset replica, as its replica holds
    /// them, for its removals and orientation writes.
    subset_roots: BTreeMap<RenderServiceId, BTreeSet<NodeId>>,
    /// Every subscription, as the data service lists it.
    interests: BTreeMap<RenderServiceId, InterestSet>,
    /// The `UpdateDelivered` rows of the deliveries applied so far.
    applied: Vec<(SimTime, u64, RenderServiceId, bool)>,
}

impl Reference {
    /// Note `rs`'s subscription, made on `host`.
    fn subscribed(&mut self, rs: RenderServiceId, host: &str, interest: InterestSet) {
        if !interest.is_everything() {
            self.subset_roots.insert(rs, interest.roots().collect());
        }
        self.host_of.insert(rs, host.to_string());
        self.subscribed.insert(rs);
        self.interests.insert(rs, interest);
    }

    /// Data service `ds` sent `rs` a parcel that crosses the wire by `at`:
    /// it is a message on `rs`'s stream, so it lands behind what is on the
    /// stream already, and what is booked for `rs` from now on lands no
    /// earlier.
    fn parcel(
        &mut self,
        ds: DataServiceId,
        rs: RenderServiceId,
        at: SimTime,
        parcel: Parcel,
        root: Option<NodeId>,
    ) {
        let mark = self.high_water.entry((ds, rs)).or_insert(SimTime::ZERO);
        *mark = at.max(*mark);
        let landing = Landing::Parcel { parcel: Box::new(parcel), root };
        self.deliveries.push(Expected { at: *mark, to: rs, landing });
    }

    /// Book the updates a `publish_batch` at `now` committed, one
    /// (subscriber, update) pair at a time. `replay` is a copy of the master
    /// as it stood before the batch: each update is routed against it, with
    /// each subscriber's interest, just before the copy takes that update.
    fn publish(
        &mut self,
        sim: &RaveSim,
        ds: DataServiceId,
        mut replay: SceneTree,
        committed: &[StampedUpdate],
    ) {
        let now = sim.now();
        let net = &sim.world.network;
        let mut per_sub: BTreeMap<RenderServiceId, (SimTime, Vec<StampedUpdate>)> = BTreeMap::new();
        for stamped in committed {
            let bytes = stamped.wire_size();
            let targets: Vec<RenderServiceId> = self
                .subscribed
                .iter()
                .filter(|rs| self.interests[rs].relevant(&stamped.update, &replay))
                .copied()
                .collect();
            stamped.update.apply(&mut replay).expect("the master committed it");
            if targets.is_empty() {
                continue;
            }
            self.totals.updates_routed += 1;
            let mut segments = BTreeSet::new();
            for rs in targets {
                let Some(host) = self.host_of.get(&rs) else {
                    self.totals.skipped_receivers += 1;
                    continue;
                };
                if *host != self.ds_host {
                    let Some(segment) = net.segment_of(host) else {
                        self.totals.skipped_receivers += 1;
                        continue;
                    };
                    self.totals.unicast_transmissions += 1;
                    self.totals.unicast_wire_bytes += bytes;
                    if segments.insert(segment.to_string()) {
                        self.totals.transmissions += 1;
                        self.totals.wire_bytes += bytes;
                    }
                }
                let wire = now + net.transfer_time(&self.ds_host, host, bytes);
                let mark = self.high_water.entry((ds, rs)).or_insert(SimTime::ZERO);
                *mark = wire.max(*mark);
                let (at, updates) = per_sub.entry(rs).or_insert((*mark, Vec::new()));
                *at = *mark;
                updates.push(stamped.clone());
            }
        }
        let landings = per_sub.into_iter().map(|(to, (at, updates))| Expected {
            at,
            to,
            landing: Landing::Updates(updates),
        });
        self.deliveries.extend(landings);
    }

    /// Land what was booked so far, as the simulator fires it once its
    /// queue has drained: in time order, FIFO among equal times. A parcel
    /// is adopted by the subscriber's replica; a delivery applies its
    /// updates in seq order.
    fn apply_booked(&mut self, replicas: &mut BTreeMap<RenderServiceId, SceneTree>) {
        self.deliveries.sort_by_key(|d| d.at); // stable: keeps schedule order
        for d in std::mem::take(&mut self.deliveries) {
            let replica = replicas.get_mut(&d.to).expect("deliveries go to spawned services");
            match d.landing {
                Landing::Parcel { parcel, root } => {
                    replica.adopt_parcel(&parcel);
                    if let (Some(root), Some(roots)) = (root, self.subset_roots.get_mut(&d.to)) {
                        roots.insert(root);
                    }
                }
                Landing::Updates(updates) => {
                    for stamped in &updates {
                        let applied = apply(replica, self.subset_roots.get(&d.to), &stamped.update);
                        self.applied.push((d.at, stamped.seq, d.to, applied));
                    }
                }
            }
        }
    }

    /// The `UpdateDelivered` rows of the whole run, every booked delivery
    /// applied.
    fn rows(
        &mut self,
        replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    ) -> Vec<(SimTime, u64, RenderServiceId, bool)> {
        self.apply_booked(replicas);
        self.applied.clone()
    }
}

/// What a replica does with an update it is sent; `roots` are a subset
/// replica's. A node outside every root's subtree is held to orient one,
/// as a group: a `ReplaceKind` of it writes its version alone, and a pose
/// update the group refuses writes the group's part of the pose
/// ([`orientation_pose`]). After a removal, a subset replica drops what is left of the chain above it
/// ([`drop_bare_chain`]).
fn apply(replica: &mut SceneTree, roots: Option<&BTreeSet<NodeId>>, update: &SceneUpdate) -> bool {
    let outside = |id| roots.is_some_and(|r| !replica.lineage(id).any(|n| r.contains(&n)));
    match *update {
        SceneUpdate::ReplaceKind { id, .. } if outside(id) => {
            replica.node_mut(id).map(|mut n| n.bump_version()).is_some()
        }
        SceneUpdate::CameraMoved { id, .. } | SceneUpdate::AvatarUpdated { id, .. }
            if outside(id) =>
        {
            update.apply(replica).is_ok() || orientation_pose(replica, update)
        }
        SceneUpdate::RemoveNode { id } => {
            let parent = replica.node(id).and_then(|n| n.parent());
            let applied = update.apply(replica).is_ok();
            if let (true, Some(roots)) = (applied, roots) {
                drop_bare_chain(replica, roots, parent);
            }
            applied
        }
        _ => update.apply(replica).is_ok(),
    }
}

/// A pose update of a group that orients a root: a `CameraMoved` writes
/// the camera's position and rotation into its transform, and either
/// bumps its version, as the master's pose write does.
fn orientation_pose(replica: &mut SceneTree, update: &SceneUpdate) -> bool {
    match *update {
        SceneUpdate::CameraMoved { id, camera } => {
            let Some(mut transform) = replica.node(id).map(|n| n.transform()) else { return false };
            transform.translation = camera.position;
            transform.rotation = camera.orientation;
            replica.set_transform(id, transform)
        }
        SceneUpdate::AvatarUpdated { id, .. } => {
            replica.node_mut(id).map(|mut n| n.bump_version()).is_some()
        }
        _ => false,
    }
}

/// What a subset replica does after a removal: from the removed node's
/// parent up, it drops each node that is not the scene root, has no child
/// and lies inside no root's subtree — what is left of an orientation
/// chain whose root is gone.
fn drop_bare_chain(replica: &mut SceneTree, roots: &BTreeSet<NodeId>, from: Option<NodeId>) {
    let mut at = from;
    while let Some(id) = at.filter(|&id| id != replica.root()) {
        let Some(node) = replica.node(id) else { return };
        if node.child_count() > 0 || replica.lineage(id).any(|n| roots.contains(&n)) {
            return;
        }
        at = node.parent();
        replica.remove(id).expect("held");
    }
}

/// Spawn a render service on `host` and subscribe it to `interest`, its
/// replica (and the reference's copy) a fresh tree that adopts the
/// master's parcel as it now stands.
fn join(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    host: &str,
    interest: InterestSet,
) -> RenderServiceId {
    let rs = sim.world.spawn_render_service(host);
    let data = sim.world.data_mut(ds);
    model.subscribed(rs, host, interest.clone());
    data.subscribe_live(rs, interest.clone());
    let mut replica = SceneTree::new();
    replica.adopt_parcel(&snapshot_parcel(&data.scene, &interest));
    let service = sim.world.render_mut(rs);
    service.scene = replica.clone();
    service.interest = interest;
    replicas.insert(rs, replica);
    rs
}

/// Spawn a render service on `host` and connect it to `interest` through
/// the bootstrap: subscribed at once, its replica (and the reference's) a
/// fresh tree until the parcel, cut from the master as it now stands,
/// lands.
fn connect(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    host: &str,
    interest: InterestSet,
) -> RenderServiceId {
    let rs = sim.world.spawn_render_service(host);
    let parcel = snapshot_parcel(&sim.world.data(ds).scene, &interest);
    model.subscribed(rs, host, interest.clone());
    replicas.insert(rs, SceneTree::new());
    let landing = connect_render_service(sim, rs, ds, interest);
    model.parcel(ds, rs, landing.ready_at, parcel, None);
    rs
}

/// Place `node`, which no subscriber lists, on `to` as a new interest root:
/// the data service lists it (no donor gives it up), and the subscriber's
/// replica, here and in the reference, adopts its parcel from the master.
/// The queue has drained, so every delivery booked so far has landed.
fn place(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    node: NodeId,
    to: RenderServiceId,
) -> TestCaseResult {
    let data = sim.world.data_mut(ds);
    prop_assert_eq!(data.move_interest_root(node, None, Some(to)), None, "nobody listed {}", node);
    let parcel = data.scene.extract_parcel(&[node]);
    let service = sim.world.render_mut(to);
    service.interest.add_root(node);
    service.scene.adopt_parcel(&parcel);
    replicas.get_mut(&to).expect("spawned").adopt_parcel(&parcel);
    model.interests.get_mut(&to).expect("subscribed").add_root(node);
    if let Some(roots) = model.subset_roots.get_mut(&to) {
        roots.insert(node);
    }
    Ok(())
}

/// Move `node`, which no subscriber lists, onto `to` through a migration
/// with no donor: the data service lists it at once, and its parcel, cut
/// from the master now, is on the wire. The reference books the parcel's
/// landing on `to`'s stream at the instant a copy of the channel it is
/// sent on gives for the move's charge: its bytes, a header at least (the
/// receiver caches nothing: no move here has a donor).
fn place_in_flight(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    node: NodeId,
    to: RenderServiceId,
) -> TestCaseResult {
    let scene = &sim.world.data(ds).scene;
    let (parcel, cost) = (scene.extract_parcel(&[node]), scene.subtree_cost(node));
    let channel = sim.world.channel(&model.ds_host, &model.host_of[&to]);
    let arrival = channel.clone().send(sim.now(), cost.data_bytes.max(HEADER_BYTES));
    MoveBatch::new(ds).move_node(sim, node, None, to, &cost).unwrap();
    let interest = model.interests.get_mut(&to).expect("subscribed");
    interest.add_root(node);
    prop_assert_eq!(
        &sim.world.data(ds).subscribers()[&to],
        &*interest,
        "{} listed on {}",
        node,
        to
    );
    model.parcel(ds, to, arrival, parcel, Some(node));
    Ok(())
}

/// What one generated case leaves behind at quiescence.
struct Run {
    sim: RaveSim,
    ds: DataServiceId,
    model: Reference,
    /// The reference's replicas, as seeded or spawned: `Reference::rows`
    /// lands its schedule on them.
    replicas: BTreeMap<RenderServiceId, SceneTree>,
    /// Subscribers never unsubscribed, whose replicas were sent everything
    /// they were owed.
    in_step: BTreeSet<RenderServiceId>,
    /// Distinct arrival instants the reference computed, summed over the
    /// batches published, and one landing per parcel sent.
    instants: u64,
}

/// Publish `updates`, of which the master commits the first `commits`,
/// as one batch on the simulator and in the reference. Returns the
/// distinct instants its deliveries land at: one event each.
fn publish(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    updates: Vec<SceneUpdate>,
    commits: usize,
) -> Result<u64, TestCaseError> {
    let fails = commits < updates.len();
    let before = sim.world.data(ds).audit.last_seq();
    let batch = updates.into_iter().map(|u| ("editor".to_string(), u)).collect();
    let (queued, booked) = (sim.pending(), model.deliveries.len());
    let replay = sim.world.data(ds).scene.clone();
    let result = publish_batch(sim, ds, batch);
    let trail = sim.world.data(ds).audit.entries();
    let batch = &trail[trail.partition_point(|e| e.stamped.seq <= before)..];
    let committed: Vec<StampedUpdate> = batch.iter().map(|e| e.stamped.clone()).collect();
    // The committed prefix of a failed batch is in the trail (and fanned
    // out below); the rest is dropped.
    prop_assert_eq!(committed.len(), commits);
    prop_assert_eq!(result.is_err(), fails);
    if let Ok(seqs) = &result {
        let stamped: Vec<u64> = committed.iter().map(|s| s.seq).collect();
        prop_assert_eq!(seqs, &stamped);
    }
    model.publish(sim, ds, replay, &committed);
    // One event per distinct instant the batch lands at, however many
    // subscribers it reaches.
    let landed: BTreeSet<SimTime> = model.deliveries[booked..].iter().map(|d| d.at).collect();
    prop_assert_eq!(sim.pending() - queued, landed.len());
    Ok(landed.len() as u64)
}

/// Build the world and the reference of one case, interpret its steps on
/// both, and run the simulation dry.
fn run_case(
    traced: bool,
    topology: &Topology,
    seed_depths: &[usize],
    population: &[Subscriber],
    steps: Vec<Step>,
) -> Result<Run, TestCaseError> {
    let (net, hosts) = topology.build();
    let config = RaveConfig { update_delivery_trace: traced, ..RaveConfig::default() };
    let mut sim = Simulation::new(RaveWorld::new(net, config, 5));
    let ds_host = hosts[0].clone();
    let ds = sim.world.spawn_data_service(&ds_host, "session");

    let (seed_nodes, held) = {
        let scene = &mut sim.world.data_mut(ds).scene;
        for (b, &depth) in seed_depths.iter().enumerate() {
            let mut at = scene.root();
            for d in 0..depth {
                at = scene.add_node(at, format!("b{b}d{d}"), NodeKind::Group).unwrap();
            }
        }
        // A group that only orients the node under it.
        let (root, first) = (scene.root(), scene.descendants(scene.root())[1]);
        let orient = scene.add_node(root, "orient", NodeKind::Group).unwrap();
        let held = scene.add_node(orient, "held", NodeKind::Group).unwrap();
        // Collaborators already in the session: one at the top, one
        // inside the first branch.
        scene.add_node(root, "avatar-a", avatar("a")).unwrap();
        scene.add_node(first, "avatar-b", avatar("b")).unwrap();
        let nodes = scene.descendants(scene.root());
        let held = nodes.iter().position(|&n| n == held).expect("seeded");
        (nodes, held)
    };

    // The drawn population, then the fixed cases: two subscribers of `held`
    // alone (neither holds a presence node, so a root with one placed on one
    // of them and a camera recast in the other's both change what they
    // hold), a subscriber on the data service's own host, one on a host that
    // is not on the network, and a subscribed id with no service behind it.
    let everything = |host: &str| (host.to_string(), None);
    let mut population: Vec<(String, Option<Vec<usize>>)> = population
        .iter()
        .map(|s| (hosts[s.host_pick % hosts.len()].clone(), s.interest.clone()))
        .collect();
    population.push((hosts[hosts.len() - 1].clone(), Some(vec![held])));
    population.push((hosts[0].clone(), Some(vec![held])));
    population.push(everything(&ds_host));
    population.push(everything(OFF_NET_HOST));
    population.push(everything(&hosts[hosts.len() - 1]));

    let mut model = Reference {
        ds_host: ds_host.clone(),
        host_of: BTreeMap::new(),
        subscribed: BTreeSet::new(),
        high_water: BTreeMap::new(),
        totals: FanoutTotals::default(),
        deliveries: Vec::new(),
        subset_roots: BTreeMap::new(),
        interests: BTreeMap::new(),
        applied: Vec::new(),
    };
    let interest_in = |nodes: &[NodeId], picks: &Option<Vec<usize>>| match picks {
        None => InterestSet::everything(),
        Some(picks) => InterestSet::subtrees(picks.iter().map(|&p| nodes[p % nodes.len()])),
    };
    let mut replicas: BTreeMap<RenderServiceId, SceneTree> = BTreeMap::new();
    for (host, picks) in &population {
        let interest = interest_in(&seed_nodes, picks);
        join(&mut sim, ds, &mut model, &mut replicas, host, interest);
    }
    sim.world.data_mut(ds).subscribe_live(NO_SUCH_SERVICE, InterestSet::everything());
    model.subscribed.insert(NO_SUCH_SERVICE);
    model.interests.insert(NO_SUCH_SERVICE, InterestSet::everything());
    let mut subscribers: Vec<RenderServiceId> = model.subscribed.iter().copied().collect();
    // Replicas the updates can reach: not the one off the network, nor the
    // subscription no service stands behind.
    let reachable = |host: &String| sim.world.network.segment_of(host).is_some();
    let mut in_step: BTreeSet<RenderServiceId> = model
        .subscribed
        .iter()
        .filter(|rs| model.host_of.get(rs).is_some_and(reachable))
        .copied()
        .collect();

    // Every run has structural edits (an add under a group a subset
    // subscriber holds only for orientation, and a node moved, then
    // removed, in one batch), a subscriber that is away while a big update
    // of its is still on the wire, batches that mix presence with scoped
    // and structural updates, and a mid-batch failure, whatever was drawn.
    let far = subscribers.len() - 2; // the last one spawned
    let root_rename = |len| Step::Batch(vec![Op::Rename { pick: 0, len }]);
    let mut steps = steps;
    // Before anyone joins, a subtree with an avatar in it is placed on a
    // subset subscriber, and a node a subset subscriber holds is recast as
    // a camera between two camera moves.
    steps.splice(
        0..0,
        [
            Step::Batch(vec![
                Op::Add { parent_pick: 1 },
                Op::Rename { pick: 0, len: 2500 },
                Op::Remove { pick: 0 },
                Op::AddAbove { pick: 0 },
                Op::MoveThenRemove { pick: 0 },
            ]),
            Step::Unsubscribe { pick: far },
            root_rename(100),
            Step::Resubscribe { pick: far },
            root_rename(0),
            Step::Place { pick: 0, to_pick: 0, presence: true, drain: true },
            Step::Batch(vec![
                Op::Presence { pick: 0, camera: true },
                Op::Recast { pick: 0 },
                Op::Presence { pick: 1, camera: true },
            ]),
            Step::Advance { micros: 1_000_000 },
            Step::Batch(vec![
                Op::Presence { pick: 0, camera: true },
                Op::Rename { pick: 2, len: 1500 },
                Op::Join { parent_pick: 0 },
                Op::Presence { pick: 1, camera: false },
                Op::Move { pick: 1 },
            ]),
            // The root, renamed above, is moved and takes a mesh too; then
            // a full and a subset replica join, and while their snapshots
            // are in flight a node is moved onto a subscriber and edited
            // while its parcel is on the wire, nodes are added under the
            // root and under a chain, chains take meshes and a collaborator
            // joins under the root.
            Step::Batch(vec![Op::Root { pick: 5, edit: 1 }, Op::Root { pick: 5, edit: 2 }]),
            Step::Bootstrap { host_pick: 0, interest: None },
            Step::Bootstrap { host_pick: 1, interest: Some(vec![1]) },
            Step::Place { pick: 1, to_pick: 1, presence: false, drain: false },
            Step::Batch(vec![
                Op::Chain { pick: 0, under_chain: false },
                Op::Chain { pick: 1, under_chain: true },
                Op::Join { parent_pick: 0 },
            ]),
        ],
    );
    steps.push(Step::Batch(vec![
        Op::Move { pick: 3 },
        Op::Presence { pick: 0, camera: true },
        Op::Add { parent_pick: 0 },
        Op::Fail,
        Op::Rename { pick: 1, len: 8 },
    ]));

    let mut instants = 0;
    for step in &steps {
        match step {
            Step::Batch(ops) => {
                let (updates, commits) = plan_batch(&mut sim, ds, ops);
                instants += publish(&mut sim, ds, &mut model, updates, commits)?;
            }
            Step::Advance { micros } => {
                let until = sim.now() + SimTime::from_micros(*micros as f64);
                sim.run_until(until);
            }
            Step::Unsubscribe { pick } => {
                let rs = subscribers[pick % subscribers.len()];
                let was = model.subscribed.remove(&rs);
                in_step.remove(&rs);
                prop_assert_eq!(sim.world.data_mut(ds).unsubscribe(rs), was);
            }
            Step::Resubscribe { pick } => {
                let rs = subscribers[pick % subscribers.len()];
                let data = sim.world.data_mut(ds);
                data.unsubscribe(rs);
                data.subscribe_live(rs, model.interests[&rs].clone());
                in_step.remove(&rs);
                model.subscribed.insert(rs);
            }
            Step::Bootstrap { host_pick, interest } => {
                let host = hosts[host_pick % hosts.len()].clone();
                let scene = &sim.world.data(ds).scene;
                let interest = interest_in(&scene.descendants(scene.root()), interest);
                let rs = connect(&mut sim, ds, &mut model, &mut replicas, &host, interest);
                subscribers.push(rs);
                in_step.insert(rs);
                instants += 1;
            }
            Step::Place { pick, to_pick, presence, drain } => {
                if *drain {
                    sim.run();
                    model.apply_booked(&mut replicas);
                }
                let data = sim.world.data(ds);
                let listed: BTreeSet<NodeId> =
                    data.subscribers().values().flat_map(|i| i.roots()).collect();
                let scene = &data.scene;
                let nodes = scene.descendants(scene.root()).into_iter().skip(1);
                let free: Vec<NodeId> = nodes
                    .filter(|n| !listed.contains(n) && (!presence || presence_under(scene, *n)))
                    .collect();
                // A migration's parcel needs a channel: a host on the network.
                let net = &sim.world.network;
                let served = |rs: &&RenderServiceId| {
                    **rs != NO_SUCH_SERVICE
                        && (*drain || net.segment_of(&model.host_of[*rs]).is_some())
                };
                let subsets: Vec<RenderServiceId> = data
                    .subscribers()
                    .iter()
                    .filter(|(rs, interest)| served(rs) && !interest.is_everything())
                    .map(|(rs, _)| *rs)
                    .collect();
                let all: Vec<RenderServiceId> =
                    data.subscribers().keys().filter(served).copied().collect();
                let to = if subsets.is_empty() { &all } else { &subsets };
                let (Some(&node), Some(&to)) =
                    (free.get(pick % free.len().max(1)), to.get(to_pick % to.len().max(1)))
                else {
                    continue;
                };
                if *drain {
                    place(&mut sim, ds, &mut model, &mut replicas, node, to)?;
                    check_closures(&sim, ds)?;
                    continue;
                }
                let leaf = *sim.world.data(ds).scene.descendants(node).last().expect("`node`");
                place_in_flight(&mut sim, ds, &mut model, node, to)?;
                instants += 1;
                let edits = vec![
                    SceneUpdate::SetName { id: leaf, name: "in flight".into() },
                    SceneUpdate::ReplaceKind { id: node, kind: mesh(7) },
                ];
                instants += publish(&mut sim, ds, &mut model, edits, 2)?;
            }
        }
        check_closures(&sim, ds)?;
    }
    sim.run();
    check_closures(&sim, ds)?;
    Ok(Run { sim, ds, model, replicas, in_step, instants })
}

/// Every node a subset replica holds lies in its interest's closure on
/// the master: inside a root's subtree, or above a root, held as an
/// orientation record (a group). A node the master no longer holds, and a
/// chain above a root the master no longer holds, wait for a removal still
/// on the wire (or one missed while unsubscribed), so the group rule is
/// read off the replica's own tree; nothing is reparented here, so the two
/// trees agree on every node both hold.
fn check_closures(sim: &RaveSim, ds: DataServiceId) -> TestCaseResult {
    let data = sim.world.data(ds);
    let master = &data.scene;
    for (rs, interest) in data.subscribers().iter().filter(|(_, i)| !i.is_everything()) {
        let Some(service) = sim.world.render_services.get(rs) else { continue };
        let replica = &service.scene;
        let gone = |id: NodeId| !master.contains(id);
        let orients_gone_root = |id: NodeId| {
            replica
                .descendants_iter(id)
                .any(|n| gone(n.id()) && interest.roots().any(|r| r == n.id()))
        };
        for n in replica.iter_nodes().filter(|n| n.id() != replica.root()) {
            let id = n.id();
            let inside = interest.contains(id, master) || gone(id) || orients_gone_root(id);
            prop_assert!(inside, "{} holds {} outside its interest closure", rs, id);
            let content = interest.holds_content(id, replica);
            prop_assert!(
                content || n.kind_tag() == KindTag::Group,
                "{} holds {} above its roots as a {:?}",
                rs,
                id,
                n.kind_tag()
            );
        }
    }
    Ok(())
}

/// The nodes of `tree`, each with its parent. With `roots`, only those a
/// subscription of them holds: the roots' subtrees and their ancestor
/// chains, and the scene root.
fn held_nodes(tree: &SceneTree, roots: Option<&[NodeId]>) -> BTreeMap<NodeId, Option<NodeId>> {
    let ids: Vec<NodeId> = match roots {
        None => tree.descendants(tree.root()),
        Some(roots) => std::iter::once(tree.root())
            .chain(
                roots
                    .iter()
                    .flat_map(|&r| tree.descendants(r).into_iter().chain(tree.ancestors(r))),
            )
            .collect(),
    };
    let parent = |id| tree.node(id).and_then(|n| n.parent());
    ids.into_iter().map(|id| (id, parent(id))).collect()
}

/// Totals and every spawned replica equal the reference's (after [`Reference::rows`] has applied its schedule). And,
/// whatever the routing rule, each full replica in step holds the master's
/// nodes as the master holds them; and each subset replica in step holds
/// exactly the master's interest closure — the subtrees of its roots and
/// their ancestor chains, and the scene root — each node under the parent
/// the master gives it, the master's copy of every node inside a root's
/// subtree, and the master's orientation record of every chain node
/// outside them (name, transform and version, and a group; the scene root
/// only while a root is left). Cameras and avatars are held as any other
/// node: as content inside the subtrees, as orientation records above
/// them, and not at all elsewhere.
fn check_quiescent(run: Run) -> TestCaseResult {
    let Run { sim, ds, model, replicas, in_step, .. } = run;
    prop_assert_eq!(sim.world.data(ds).fanout, model.totals);
    prop_assert!(model.totals.skipped_receivers >= 2, "the two fixed skips were exercised");
    for (rs, replica) in &replicas {
        prop_assert!(&sim.world.render(*rs).scene == replica, "replica of {} differs", rs);
    }
    let master = &sim.world.data(ds).scene;
    let state = |n: rave::scene::NodeRef| {
        let (name, kind) = (n.name().to_string(), n.kind().clone());
        (n.id(), name, n.transform(), kind, n.version(), n.parent())
    };
    for (rs, interest) in sim.world.data(ds).subscribers() {
        if !in_step.contains(rs) {
            continue;
        }
        let replica = &sim.world.render(*rs).scene;
        if interest.is_everything() {
            let same = master.iter_nodes().map(state).eq(replica.iter_nodes().map(state));
            prop_assert!(same, "the full replica of {} is not the master", rs);
            continue;
        }
        let roots: Vec<NodeId> = interest.roots().collect();
        let closure = held_nodes(master, Some(&roots));
        let held = held_nodes(replica, None);
        for (id, parent) in &closure {
            prop_assert_eq!(held.get(id), Some(parent), "{} lacks {} under {:?}", rs, id, parent);
        }
        let stray: Vec<&NodeId> = held.keys().filter(|id| !closure.contains_key(id)).collect();
        prop_assert!(stray.is_empty(), "{} holds {:?} outside its interest closure", rs, stray);
        let inside: BTreeSet<NodeId> = roots.iter().flat_map(|&r| master.descendants(r)).collect();
        let node = |n: rave::scene::NodeRef| {
            (n.name().to_string(), n.transform(), n.kind().clone(), n.version())
        };
        for &id in &inside {
            let (want, got) = (master.node(id).map(node), replica.node(id).map(node));
            prop_assert!(want == got, "{} holds another {}", rs, id);
        }
        let rooted = roots.iter().any(|&r| master.contains(r));
        let chain = closure.keys().filter(|id| !inside.contains(id));
        for &id in chain.filter(|&&id| rooted || id != master.root()) {
            let orientation = |n: rave::scene::NodeRef| {
                (n.name().to_string(), n.transform(), NodeKind::Group, n.version())
            };
            let (want, got) = (master.node(id).map(orientation), replica.node(id).map(node));
            prop_assert!(want == got, "{} holds another orientation record of {}", rs, id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delivery_schedule_equals_the_per_pair_reference(
        topology in topology_strategy(),
        seed_depths in prop::collection::vec(1usize..4, 2..5),
        population in prop::collection::vec(subscriber_strategy(), 1..8),
        steps in prop::collection::vec(step_strategy(), 1..10),
    ) {
        let mut run = run_case(true, &topology, &seed_depths, &population, steps)?;
        let rows: Vec<(SimTime, u64, RenderServiceId, bool)> = run
            .sim
            .world
            .trace
            .of_kind(TraceKind::UpdateDelivered)
            .map(|e| match e.event {
                TraceEvent::UpdateDelivered { seq, to, applied } => (e.at, seq, to, applied),
                ref dropped => panic!("no service fails in these cases: {dropped}"),
            })
            .collect();
        prop_assert_eq!(rows, run.model.rows(&mut run.replicas));
        check_quiescent(run)?;
    }

    /// The same cases with `update_delivery_trace` off, as every scale run
    /// has it: no rows to compare, so the schedule is held through what it
    /// leaves behind — every replica at quiescence, the totals — and the
    /// event count is held to the reference's arrival instants.
    #[test]
    fn untraced_fan_out_is_one_event_per_arrival_instant(
        topology in topology_strategy(),
        seed_depths in prop::collection::vec(1usize..4, 2..5),
        population in prop::collection::vec(subscriber_strategy(), 1..8),
        steps in prop::collection::vec(step_strategy(), 1..10),
    ) {
        let mut run = run_case(false, &topology, &seed_depths, &population, steps)?;
        prop_assert_eq!(run.sim.executed(), run.instants);
        prop_assert_eq!(run.sim.world.trace.count(TraceKind::UpdateDelivered), 0);
        run.model.rows(&mut run.replicas); // applies the reference's schedule to its replicas
        check_quiescent(run)?;
    }

    /// A `Fanout` over the receivers' link classes equals the per-receiver
    /// definition on any receiver list: unknown names, the sender itself,
    /// repeats.
    #[test]
    fn multicast_deliver_equals_the_per_receiver_reference(
        topology in topology_strategy(),
        sender_pick in any::<usize>(),
        receiver_picks in prop::collection::vec(any::<usize>(), 0..24),
        bytes in 0u64..200_000,
    ) {
        let (net, hosts) = topology.build();
        let sender = hosts[sender_pick % hosts.len()].as_str();
        // One pick in five names a host the network does not have.
        let receivers: Vec<&str> = receiver_picks
            .iter()
            .map(|&p| if p % 5 == 0 { OFF_NET_HOST } else { hosts[(p / 5) % hosts.len()].as_str() })
            .collect();

        let mut segments = BTreeSet::new();
        let mut arrivals = Vec::new();
        let (mut unicast, mut skipped, mut completion) = (0u32, 0u32, SimTime::ZERO);
        for (i, r) in receivers.iter().enumerate() {
            if *r != sender {
                let Some(segment) = net.segment_of(r) else {
                    skipped += 1;
                    continue;
                };
                unicast += 1;
                segments.insert(segment);
                completion = completion.max(net.transfer_time(sender, r, bytes));
            }
            arrivals.push((i, net.transfer_time(sender, r, bytes)));
        }

        let from = net.known_host(sender);
        let classes = receivers.iter().map(|r| LinkClass::of(&net, from, net.host_id(r)));
        let mut got = Vec::new();
        let cost =
            Fanout::default().deliver(&net, from, classes, bytes, |i, at| got.push((i, at)));
        prop_assert_eq!(got, arrivals);
        prop_assert_eq!(cost.transmissions as usize, segments.len());
        prop_assert_eq!(cost.unicast_transmissions, unicast);
        prop_assert_eq!(cost.skipped, skipped);
        prop_assert_eq!(cost.completion, completion);
    }
}
