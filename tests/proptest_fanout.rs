//! Property tests pinning the update fan-out — interned hosts, one
//! transfer time per receiving segment, slot-indexed FIFO marks, shared
//! delivery lists — to a reference that works the way the fan-out is
//! specified: one (subscriber, update) pair at a time, by name.
//!
//! The reference is built only on `DataService::route_naive` — asked of a
//! copy of the data service that replays each batch, just before each
//! update's commit — `Network::transfer_time`/`segment_of`, and a
//! per-(data service, render service) high-water map. Random topologies,
//! subscriber populations and batch sequences (published back to back
//! without draining, with structural edits, presence updates that reach
//! every subscriber, root edits, mid-batch commit failures, subscription
//! churn and late joins in between) must produce the same delivery
//! schedule, the same `FanoutTotals` and the same bootstrap catch-up: the
//! log past each bootstrapping subscriber's snapshot. Independently of any
//! routing rule, every replica that was sent all it was owed ends holding
//! what the master holds: a full one every node as the master has it, a
//! subset one exactly the master's interest closure.

use proptest::prelude::*;
use rave::core::bootstrap::snapshot_parcel;
use rave::core::data_service::{DataService, FanoutTotals, SubState};
use rave::core::trace::{TraceEvent, TraceKind};
use rave::core::world::{publish_batch, RaveSim, RaveWorld};
use rave::core::{DataServiceId, RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::net::{Fanout, LinkClass, LinkSpec, Network};
use rave::scene::{
    AvatarInfo, CameraParams, InterestSet, KindTag, NodeId, NodeKind, SceneTree, SceneUpdate,
    StampedUpdate, Transform,
};
use rave::sim::{SimTime, Simulation};
use std::collections::{BTreeMap, BTreeSet};

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
    live: bool,
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
    (any::<usize>(), interest_strategy(), any::<bool>(), any::<bool>())
        .prop_map(|(host_pick, interest, a, b)| Subscriber { host_pick, interest, live: a || b })
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
    /// (`SetTransform`) on an avatar: presence, routed to every
    /// subscriber. Nothing when no avatar is left.
    Presence {
        pick: usize,
        camera: bool,
    },
    /// A collaborator joins: an `AddNode` of an avatar, also routed to
    /// every subscriber.
    Join {
        parent_pick: usize,
    },
    /// A `SetName` (to a name of `pick % 40` bytes) or a `SetTransform` of
    /// the scene root: the orientation every replica holds, and every
    /// later bootstrap must carry.
    Root {
        pick: usize,
        rename: bool,
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
        (any::<usize>(), any::<bool>()).prop_map(|(pick, rename)| Op::Root { pick, rename }),
        Just(Op::Fail),
    ]
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
    /// Subscribe (again, if it still is subscribed), live.
    Resubscribe {
        pick: usize,
    },
    FinishBootstrap {
        pick: usize,
    },
    /// A render service joins late: subscribed live to everything or to
    /// subtrees of the master as it now stands (picks into its nodes), its
    /// replica a fresh tree that adopts the master's parcel.
    Bootstrap {
        host_pick: usize,
        interest: Option<Vec<usize>>,
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
        any::<usize>().prop_map(|pick| Step::FinishBootstrap { pick }),
        (any::<usize>(), interest_strategy())
            .prop_map(|(host_pick, interest)| Step::Bootstrap { host_pick, interest }),
    ]
}

/// The non-root nodes of `tree` that a subset subscriber holds only to
/// orient one of its roots: strict ancestors of a root, no root at or
/// above them. Ascending.
fn orientation_only(tree: &SceneTree, service: &DataService) -> Vec<NodeId> {
    let mut above = BTreeSet::new();
    for sub in service.subscribers().values().filter(|s| !s.interest.is_everything()) {
        let roots: BTreeSet<NodeId> = sub.interest.roots().collect();
        for &root in &roots {
            let chain = tree.ancestors(root).into_iter().filter(|&a| a != tree.root());
            above.extend(chain.filter(|&a| !tree.lineage(a).any(|n| roots.contains(&n))));
        }
    }
    above.into_iter().collect()
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
                let avatars: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&n| planned.node(n).is_some_and(|n| n.kind_tag() == KindTag::Avatar))
                    .collect();
                let Some(&id) = avatars.get(pick % avatars.len().max(1)) else { continue };
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
            Op::Root { pick, rename } => {
                let id = planned.root();
                vec![if rename {
                    SceneUpdate::SetName { id, name: "r".repeat(pick % 40) }
                } else {
                    let at = Vec3::new(pick as f32 % 9.0, 0.0, 3.0);
                    SceneUpdate::SetTransform { id, transform: Transform::from_translation(at) }
                }]
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

/// One delivery the reference expects: everything one batch owes one
/// subscriber.
struct Expected {
    at: SimTime,
    to: RenderServiceId,
    updates: Vec<StampedUpdate>,
}

/// The per-pair reference model of the fan-out.
struct Reference {
    ds_host: String,
    /// Host of every render service in the world.
    host_of: BTreeMap<RenderServiceId, String>,
    live: BTreeMap<RenderServiceId, bool>,
    high_water: BTreeMap<(DataServiceId, RenderServiceId), SimTime>,
    totals: FanoutTotals,
    /// Every committed seq, in order: the log a bootstrap catches up from.
    log: Vec<u64>,
    /// Bootstrapping subscriber → the last seq its snapshot covers.
    since: BTreeMap<RenderServiceId, u64>,
    /// In schedule order.
    deliveries: Vec<Expected>,
    /// The interest roots of every subset replica, for its removals.
    subset_roots: BTreeMap<RenderServiceId, BTreeSet<NodeId>>,
    /// Every subscription, as made.
    interests: BTreeMap<RenderServiceId, InterestSet>,
}

impl Reference {
    /// Book the updates a `publish_batch` at `now` committed, one
    /// (subscriber, update) pair at a time. `replay` is a copy of the data
    /// service as it stood before the batch: each update is routed against
    /// it just before the copy commits that update.
    fn publish(
        &mut self,
        sim: &RaveSim,
        ds: DataServiceId,
        mut replay: DataService,
        committed: &[StampedUpdate],
    ) {
        let now = sim.now();
        let net = &sim.world.network;
        let mut per_sub: BTreeMap<RenderServiceId, Expected> = BTreeMap::new();
        for stamped in committed {
            self.log.push(stamped.seq);
            let bytes = stamped.wire_size();
            let targets: Vec<RenderServiceId> =
                replay.route_naive(stamped).into_iter().filter(|rs| self.live[rs]).collect();
            replay.commit(now.as_secs(), stamped).expect("the master committed it");
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
                let at = *mark;
                let delivery =
                    per_sub.entry(rs).or_insert(Expected { at, to: rs, updates: Vec::new() });
                delivery.at = at;
                delivery.updates.push(stamped.clone());
            }
        }
        self.deliveries.extend(per_sub.into_values());
    }

    /// The `UpdateDelivered` rows of the whole run: deliveries fire in
    /// time order, FIFO among equal times, each applying its updates in
    /// seq order to the subscriber's replica.
    fn rows(
        &mut self,
        replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    ) -> Vec<(SimTime, u64, RenderServiceId, bool)> {
        self.deliveries.sort_by_key(|d| d.at); // stable: keeps schedule order
        let mut rows = Vec::new();
        for d in &self.deliveries {
            let replica = replicas.get_mut(&d.to).expect("deliveries go to spawned services");
            for stamped in &d.updates {
                let removed = match stamped.update {
                    SceneUpdate::RemoveNode { id } => replica.node(id).and_then(|n| n.parent()),
                    _ => None,
                };
                let applied = stamped.update.apply(replica).is_ok();
                if let (true, Some(roots)) = (applied, self.subset_roots.get(&d.to)) {
                    drop_bare_chain(replica, roots, removed);
                }
                rows.push((d.at, stamped.seq, d.to, applied));
            }
        }
        rows
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

/// Spawn a render service on `host` and subscribe it to `interest`, live
/// or bootstrapping, its replica (and the reference's copy) a fresh tree
/// that adopts the master's parcel as it now stands.
fn join(
    sim: &mut RaveSim,
    ds: DataServiceId,
    model: &mut Reference,
    replicas: &mut BTreeMap<RenderServiceId, SceneTree>,
    host: &str,
    interest: InterestSet,
    live: bool,
) -> RenderServiceId {
    let rs = sim.world.spawn_render_service(host);
    let data = sim.world.data_mut(ds);
    if live {
        data.subscribe_live(rs, interest.clone());
    } else {
        data.begin_bootstrap(rs, interest.clone());
        model.since.insert(rs, model.log.last().copied().unwrap_or(0));
    }
    let mut replica = SceneTree::new();
    replica.adopt_parcel(&snapshot_parcel(&data.scene, &interest));
    if !interest.is_everything() {
        model.subset_roots.insert(rs, interest.roots().collect());
    }
    let service = sim.world.render_mut(rs);
    service.scene = replica.clone();
    service.interest = interest.clone();
    replicas.insert(rs, replica);
    model.host_of.insert(rs, host.to_string());
    model.live.insert(rs, live);
    model.interests.insert(rs, interest);
    rs
}

/// What one generated case leaves behind at quiescence.
struct Run {
    sim: RaveSim,
    ds: DataServiceId,
    model: Reference,
    /// The reference's replicas, as bootstrapped: `Reference::rows`
    /// applies its schedule to them.
    replicas: BTreeMap<RenderServiceId, SceneTree>,
    /// Subscribers live since their snapshot and never unsubscribed, whose
    /// replicas were sent everything they were owed.
    in_step: BTreeSet<RenderServiceId>,
    /// Distinct arrival instants the reference computed, summed over the
    /// batches published.
    instants: u64,
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

    // The drawn population, then the fixed cases: a live subscriber of
    // `held` alone, a subscriber on the data service's own host, one on a
    // host that is not on the network, and a subscribed id with no service
    // behind it.
    let everything = |host: &str| (host.to_string(), None, true);
    let mut population: Vec<(String, Option<Vec<usize>>, bool)> = population
        .iter()
        .map(|s| (hosts[s.host_pick % hosts.len()].clone(), s.interest.clone(), s.live))
        .collect();
    population.push((hosts[hosts.len() - 1].clone(), Some(vec![held]), true));
    population.push(everything(&ds_host));
    population.push(everything(OFF_NET_HOST));
    population.push(everything(&hosts[hosts.len() - 1]));

    let mut model = Reference {
        ds_host: ds_host.clone(),
        host_of: BTreeMap::new(),
        live: BTreeMap::new(),
        high_water: BTreeMap::new(),
        totals: FanoutTotals::default(),
        log: Vec::new(),
        since: BTreeMap::new(),
        deliveries: Vec::new(),
        subset_roots: BTreeMap::new(),
        interests: BTreeMap::new(),
    };
    let interest_in = |nodes: &[NodeId], picks: &Option<Vec<usize>>| match picks {
        None => InterestSet::everything(),
        Some(picks) => InterestSet::subtrees(picks.iter().map(|&p| nodes[p % nodes.len()])),
    };
    let mut replicas: BTreeMap<RenderServiceId, SceneTree> = BTreeMap::new();
    for (host, picks, live) in &population {
        let interest = interest_in(&seed_nodes, picks);
        join(&mut sim, ds, &mut model, &mut replicas, host, interest, *live);
    }
    sim.world.data_mut(ds).subscribe_live(NO_SUCH_SERVICE, InterestSet::everything());
    model.live.insert(NO_SUCH_SERVICE, true);
    model.interests.insert(NO_SUCH_SERVICE, InterestSet::everything());
    let mut subscribers: Vec<RenderServiceId> = model.live.keys().copied().collect();
    // Live replicas the updates can reach: not the one off the network,
    // nor the subscription no service stands behind.
    let reachable = |host: &String| sim.world.network.segment_of(host).is_some();
    let mut in_step: BTreeSet<RenderServiceId> = model
        .live
        .iter()
        .filter(|&(rs, &live)| live && model.host_of.get(rs).is_some_and(reachable))
        .map(|(rs, _)| *rs)
        .collect();

    // Every run has structural edits (an add under a group a subset
    // subscriber holds only for orientation, and a node moved, then
    // removed, in one batch), a subscriber that is away while a big update
    // of its is still on the wire, batches that mix presence with scoped
    // and structural updates, and a mid-batch failure, whatever was drawn.
    let far = subscribers.len() - 2; // the last one spawned
    let root_rename = |len| Step::Batch(vec![Op::Rename { pick: 0, len }]);
    let mut steps = steps;
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
            Step::Batch(vec![
                Op::Presence { pick: 0, camera: true },
                Op::Rename { pick: 2, len: 1500 },
                Op::Join { parent_pick: 0 },
                Op::Presence { pick: 1, camera: false },
                Op::Move { pick: 1 },
            ]),
            // The root, renamed above, is moved too; then a full and a
            // subset replica join.
            Step::Batch(vec![Op::Root { pick: 5, rename: false }]),
            Step::Bootstrap { host_pick: 0, interest: None },
            Step::Bootstrap { host_pick: 1, interest: Some(vec![1]) },
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
                let fails = commits < updates.len();
                let before = sim.world.data(ds).audit.last_seq();
                let batch = updates.into_iter().map(|u| ("editor".to_string(), u)).collect();
                let (queued, booked) = (sim.pending(), model.deliveries.len());
                let replay = sim.world.data(ds).clone();
                let result = publish_batch(&mut sim, ds, batch);
                let trail = sim.world.data(ds).audit.entries();
                let batch = &trail[trail.partition_point(|e| e.stamped.seq <= before)..];
                let committed: Vec<StampedUpdate> =
                    batch.iter().map(|e| e.stamped.clone()).collect();
                // The committed prefix of a failed batch is in the
                // trail (and fanned out below); the rest is dropped.
                prop_assert_eq!(committed.len(), commits);
                prop_assert_eq!(result.is_err(), fails);
                if let Ok(seqs) = &result {
                    let stamped: Vec<u64> = committed.iter().map(|s| s.seq).collect();
                    prop_assert_eq!(seqs, &stamped);
                }
                model.publish(&sim, ds, replay, &committed);
                // One event per distinct instant the batch lands at, however
                // many subscribers it reaches.
                let landed: BTreeSet<SimTime> =
                    model.deliveries[booked..].iter().map(|d| d.at).collect();
                prop_assert_eq!(sim.pending() - queued, landed.len());
                instants += landed.len() as u64;
            }
            Step::Advance { micros } => {
                let until = sim.now() + SimTime::from_micros(*micros as f64);
                sim.run_until(until);
            }
            Step::Unsubscribe { pick } => {
                let rs = subscribers[pick % subscribers.len()];
                let was = model.live.remove(&rs).is_some();
                in_step.remove(&rs);
                prop_assert_eq!(sim.world.data_mut(ds).unsubscribe(rs), was);
                model.since.remove(&rs);
            }
            Step::Resubscribe { pick } => {
                let rs = subscribers[pick % subscribers.len()];
                let data = sim.world.data_mut(ds);
                data.unsubscribe(rs);
                data.subscribe_live(rs, model.interests[&rs].clone());
                in_step.remove(&rs);
                model.live.insert(rs, true);
                model.since.remove(&rs);
            }
            Step::FinishBootstrap { pick } => {
                let waiting: Vec<RenderServiceId> =
                    model.live.iter().filter(|(_, live)| !**live).map(|(rs, _)| *rs).collect();
                if waiting.is_empty() {
                    continue;
                }
                let rs = waiting[pick % waiting.len()];
                let missed: Vec<u64> = sim
                    .world
                    .data_mut(ds)
                    .complete_bootstrap(rs)
                    .iter()
                    .map(|e| e.stamped.seq)
                    .collect();
                let since = model.since.remove(&rs).expect("a waiting subscriber has a mark");
                let past: Vec<u64> = model.log.iter().copied().filter(|&seq| seq > since).collect();
                prop_assert_eq!(missed, past);
                model.live.insert(rs, true);
            }
            Step::Bootstrap { host_pick, interest } => {
                let host = hosts[host_pick % hosts.len()].clone();
                let scene = &sim.world.data(ds).scene;
                let interest = interest_in(&scene.descendants(scene.root()), interest);
                let rs = join(&mut sim, ds, &mut model, &mut replicas, &host, interest, true);
                subscribers.push(rs);
                in_step.insert(rs);
            }
        }
    }
    sim.run();
    Ok(Run { sim, ds, model, replicas, in_step, instants })
}

/// The nodes of `tree` that are not presence and hang under no presence
/// node, each with its parent. With `roots`, only those a subscription of
/// them holds: the roots' subtrees and their ancestor chains, and the
/// scene root.
fn held_nodes(tree: &SceneTree, roots: Option<&[NodeId]>) -> BTreeMap<NodeId, Option<NodeId>> {
    let presence = |id| {
        let kind = |n: NodeId| tree.node(n).map(|n| n.kind_tag());
        tree.lineage(id).any(|n| kind(n).is_some_and(KindTag::is_presence))
    };
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
    ids.into_iter().filter(|&id| !presence(id)).map(|id| (id, parent(id))).collect()
}

/// Totals, bootstrap marks and every spawned replica equal the
/// reference's (after [`Reference::rows`] has applied its schedule). And,
/// whatever the routing rule, each full replica in step holds the master's
/// nodes as the master holds them; each subset replica in step whose
/// roots are not all removed holds the master's root as the master holds
/// it (name, transform, version); and each subset replica in step holds the
/// master's interest closure — the subtrees of its roots and their ancestor
/// chains, and the scene root — each node under the parent the master
/// gives it and the master's copy of every node inside a root's subtree;
/// beside it, nothing but the master's nodes, under the master's parents,
/// that an avatar the master holds hangs under: when a removal takes a
/// root, the replica drops the chain that oriented it down to the first
/// node something still hangs under, and a subtree the master removed is
/// stray even with an avatar in it. Presence is left out: a subset
/// snapshot holds the avatars inside its roots' subtrees, a live replica
/// also those that joined under a node it holds.
fn check_quiescent(run: Run) -> TestCaseResult {
    let Run { sim, ds, model, replicas, in_step, .. } = run;
    prop_assert_eq!(sim.world.data(ds).fanout, model.totals);
    prop_assert!(model.totals.skipped_receivers >= 2, "the two fixed skips were exercised");
    for (rs, sub) in sim.world.data(ds).subscribers() {
        let since = match sub.state {
            SubState::Bootstrapping { since } => Some(since),
            SubState::Live => None,
        };
        prop_assert_eq!(since, model.since.get(rs).copied(), "{}", rs);
    }
    for (rs, replica) in &replicas {
        prop_assert!(&sim.world.render(*rs).scene == replica, "replica of {} differs", rs);
    }
    let master = &sim.world.data(ds).scene;
    let state = |n: rave::scene::NodeRef| {
        let (name, kind) = (n.name().to_string(), n.kind().clone());
        (n.id(), name, n.transform(), kind, n.version(), n.parent())
    };
    for (rs, sub) in sim.world.data(ds).subscribers() {
        if !in_step.contains(rs) {
            continue;
        }
        let replica = &sim.world.render(*rs).scene;
        if sub.interest.is_everything() {
            let same = master.iter_nodes().map(state).eq(replica.iter_nodes().map(state));
            prop_assert!(same, "the full replica of {} is not the master", rs);
            continue;
        }
        let roots: Vec<NodeId> = sub.interest.roots().collect();
        if roots.iter().any(|&r| master.contains(r)) {
            let root = |tree: &SceneTree| tree.node(tree.root()).map(state);
            prop_assert!(root(replica) == root(master), "{} holds another scene root", rs);
        }
        let closure = held_nodes(master, Some(&roots));
        let held = held_nodes(replica, None);
        for (id, parent) in &closure {
            prop_assert_eq!(held.get(id), Some(parent), "{} lacks {} under {:?}", rs, id, parent);
        }
        // A node outside the closure is allowed only where the master still
        // holds it under the same parent and an avatar the master also holds
        // hangs under it: a subtree the master removed is stray, avatar or not.
        let orients_presence = |id: NodeId, parent: &Option<NodeId>| {
            master.node(id).is_some_and(|m| m.parent() == *parent)
                && replica
                    .descendants_iter(id)
                    .any(|n| n.kind_tag().is_presence() && master.contains(n.id()))
        };
        let stray: Vec<&NodeId> = held
            .iter()
            .filter(|&(&id, parent)| !closure.contains_key(&id) && !orients_presence(id, parent))
            .map(|(id, _)| id)
            .collect();
        prop_assert!(stray.is_empty(), "{} holds {:?} outside its interest closure", rs, stray);
        let inside = roots.iter().flat_map(|&r| master.descendants(r));
        for id in inside.filter(|id| closure.contains_key(id)) {
            let node = |n: rave::scene::NodeRef| {
                (n.name().to_string(), n.transform(), n.kind().clone(), n.version())
            };
            let (want, got) = (master.node(id).map(node), replica.node(id).map(node));
            prop_assert!(want == got, "{} holds another {}", rs, id);
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
    /// leaves behind — every replica at quiescence, the totals, the
    /// bootstrap marks — and the event count is held to the reference's
    /// arrival instants.
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
