//! Property tests pinning the update fan-out — interned hosts, one
//! transfer time per receiving segment, slot-indexed FIFO marks, shared
//! delivery lists — to a reference that works the way the fan-out is
//! specified: one (subscriber, update) pair at a time, by name.
//!
//! The reference is built only on `DataService::route_naive` over
//! refreshed interests, `Network::transfer_time`/`segment_of`, and a
//! per-(data service, render service) high-water map. Random topologies,
//! subscriber populations and batch sequences (published back to back
//! without draining, with structural edits, presence updates that reach
//! every subscriber, mid-batch commit failures and subscription churn in
//! between) must produce the same delivery schedule, the same
//! `FanoutTotals` and the same bootstrap catch-up: the log past each
//! bootstrapping subscriber's snapshot.

use proptest::prelude::*;
use rave::core::bootstrap::snapshot_for;
use rave::core::data_service::{FanoutTotals, SubState};
use rave::core::trace::TraceKind;
use rave::core::world::{publish_batch, RaveSim, RaveWorld};
use rave::core::{DataServiceId, RaveConfig, RenderServiceId};
use rave::math::Vec3;
use rave::net::{multicast_deliver, LinkSpec, Network};
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

fn subscriber_strategy() -> impl Strategy<Value = Subscriber> {
    let interest = prop_oneof![
        Just(None),
        prop::collection::vec(any::<usize>(), 1..3).prop_map(Some),
        prop::collection::vec(any::<usize>(), 1..3).prop_map(Some),
    ];
    (any::<usize>(), interest, any::<bool>(), any::<bool>())
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
        (any::<usize>(), any::<bool>()).prop_map(|(pick, camera)| Op::Presence { pick, camera }),
        (any::<usize>(), any::<bool>()).prop_map(|(pick, camera)| Op::Presence { pick, camera }),
        any::<usize>().prop_map(|parent_pick| Op::Join { parent_pick }),
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
    ]
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
        let update = match *op {
            Op::Rename { pick, len } => {
                SceneUpdate::SetName { id: nodes[pick % nodes.len()], name: "n".repeat(len) }
            }
            Op::Move { pick } => SceneUpdate::SetTransform {
                id: nodes[pick % nodes.len()],
                transform: Transform::from_translation(Vec3::new(pick as f32, 0.0, 1.0)),
            },
            Op::Add { parent_pick } => SceneUpdate::AddNode {
                id: sim.world.data_mut(ds).scene.allocate_id(),
                parent: nodes[parent_pick % nodes.len()],
                name: "added".into(),
                kind: NodeKind::Group,
            },
            Op::Remove { pick } => {
                let victims: Vec<NodeId> =
                    nodes.iter().copied().filter(|&n| n != planned.root()).collect();
                match victims.get(pick % victims.len().max(1)) {
                    Some(&id) => SceneUpdate::RemoveNode { id },
                    None => continue, // only the root is left
                }
            }
            Op::Presence { pick, camera } => {
                let avatars: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&n| planned.node(n).is_some_and(|n| n.kind_tag() == KindTag::Avatar))
                    .collect();
                let Some(&id) = avatars.get(pick % avatars.len().max(1)) else { continue };
                let position = Vec3::new(pick as f32 % 7.0, 1.0, 2.0);
                if camera {
                    let camera = CameraParams { position, ..CameraParams::default() };
                    SceneUpdate::CameraMoved { id, camera }
                } else {
                    SceneUpdate::SetTransform {
                        id,
                        transform: Transform::from_translation(position),
                    }
                }
            }
            Op::Join { parent_pick } => SceneUpdate::AddNode {
                id: sim.world.data_mut(ds).scene.allocate_id(),
                parent: nodes[parent_pick % nodes.len()],
                name: "joined".into(),
                kind: avatar("joined"),
            },
            Op::Fail => {
                committed.get_or_insert(updates.len());
                SceneUpdate::RemoveNode { id: NodeId(u64::MAX) }
            }
        };
        if committed.is_none() {
            update.apply(&mut planned).expect("planned against the master's own state");
        }
        updates.push(update);
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
}

impl Reference {
    /// Book the updates a `publish_batch` at `now` committed, one
    /// (subscriber, update) pair at a time.
    fn publish(&mut self, sim: &RaveSim, ds: DataServiceId, committed: &[StampedUpdate]) {
        let now = sim.now();
        let net = &sim.world.network;
        let service = sim.world.data(ds);
        let mut per_sub: BTreeMap<RenderServiceId, Expected> = BTreeMap::new();
        for stamped in committed {
            self.log.push(stamped.seq);
            let bytes = stamped.wire_size();
            let targets: Vec<RenderServiceId> =
                service.route_naive(stamped).into_iter().filter(|rs| self.live[rs]).collect();
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
    ) -> Vec<(SimTime, String)> {
        self.deliveries.sort_by_key(|d| d.at); // stable: keeps schedule order
        let mut rows = Vec::new();
        for d in &self.deliveries {
            let replica = replicas.get_mut(&d.to).expect("deliveries go to spawned services");
            for stamped in &d.updates {
                let applied = stamped.update.apply(replica).is_ok();
                rows.push((d.at, format!("seq={} -> {} applied={applied}", stamped.seq, d.to)));
            }
        }
        rows
    }
}

/// What one generated case leaves behind at quiescence.
struct Run {
    sim: RaveSim,
    ds: DataServiceId,
    model: Reference,
    /// The reference's replicas, as bootstrapped: `Reference::rows`
    /// applies its schedule to them.
    replicas: BTreeMap<RenderServiceId, SceneTree>,
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

    let seed_nodes: Vec<NodeId> = {
        let scene = &mut sim.world.data_mut(ds).scene;
        for (b, &depth) in seed_depths.iter().enumerate() {
            let mut at = scene.root();
            for d in 0..depth {
                at = scene.add_node(at, format!("b{b}d{d}"), NodeKind::Group).unwrap();
            }
        }
        // Collaborators already in the session: one at the top, one
        // inside the first branch.
        let (root, first) = (scene.root(), scene.descendants(scene.root())[1]);
        scene.add_node(root, "avatar-a", avatar("a")).unwrap();
        scene.add_node(first, "avatar-b", avatar("b")).unwrap();
        scene.descendants(scene.root())
    };

    // The drawn population, then the fixed cases: a subscriber on the
    // data service's own host, one on a host that is not on the
    // network, and a subscribed id with no service behind it.
    let everything = |host: &str| (host.to_string(), None, true);
    let mut population: Vec<(String, Option<Vec<usize>>, bool)> = population
        .iter()
        .map(|s| (hosts[s.host_pick % hosts.len()].clone(), s.interest.clone(), s.live))
        .collect();
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
    };
    let mut interests: BTreeMap<RenderServiceId, InterestSet> = BTreeMap::new();
    let mut replicas: BTreeMap<RenderServiceId, SceneTree> = BTreeMap::new();
    for (host, interest, live) in &population {
        let rs = sim.world.spawn_render_service(host);
        let interest = match interest {
            None => InterestSet::everything(),
            Some(picks) => {
                InterestSet::subtrees(picks.iter().map(|&p| seed_nodes[p % seed_nodes.len()]))
            }
        };
        let data = sim.world.data_mut(ds);
        if *live {
            data.subscribe_live(rs, interest.clone());
        } else {
            data.begin_bootstrap(rs, interest.clone());
            model.since.insert(rs, model.log.last().copied().unwrap_or(0));
        }
        let replica = snapshot_for(&data.scene, &interest);
        sim.world.render_mut(rs).scene = replica.clone();
        replicas.insert(rs, replica);
        model.host_of.insert(rs, host.clone());
        model.live.insert(rs, *live);
        interests.insert(rs, interest);
    }
    sim.world.data_mut(ds).subscribe_live(NO_SUCH_SERVICE, InterestSet::everything());
    model.live.insert(NO_SUCH_SERVICE, true);
    interests.insert(NO_SUCH_SERVICE, InterestSet::everything());
    let subscribers: Vec<RenderServiceId> = model.live.keys().copied().collect();

    // Every run has a structural edit, a subscriber that is away while
    // a big update of its is still on the wire, batches that mix
    // presence with scoped and structural updates, and a mid-batch
    // failure, whatever was drawn.
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
                let before = sim.world.data(ds).audit.len();
                let batch = updates.into_iter().map(|u| ("editor".to_string(), u)).collect();
                let (queued, booked) = (sim.pending(), model.deliveries.len());
                let result = publish_batch(&mut sim, ds, batch);
                let trail = sim.world.data(ds).audit.entries();
                let committed: Vec<StampedUpdate> =
                    trail[before..].iter().map(|e| e.stamped.clone()).collect();
                // The committed prefix of a failed batch is in the
                // trail (and fanned out below); the rest is dropped.
                prop_assert_eq!(committed.len(), commits);
                prop_assert_eq!(result.is_err(), fails);
                if let Ok(seqs) = &result {
                    let stamped: Vec<u64> = committed.iter().map(|s| s.seq).collect();
                    prop_assert_eq!(seqs, &stamped);
                }
                model.publish(&sim, ds, &committed);
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
                prop_assert_eq!(sim.world.data_mut(ds).unsubscribe(rs), was);
                model.since.remove(&rs);
            }
            Step::Resubscribe { pick } => {
                let rs = subscribers[pick % subscribers.len()];
                let data = sim.world.data_mut(ds);
                data.unsubscribe(rs);
                data.subscribe_live(rs, interests[&rs].clone());
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
        }
    }
    sim.run();
    Ok(Run { sim, ds, model, replicas, instants })
}

/// Totals, bootstrap marks and every spawned replica equal the
/// reference's (after [`Reference::rows`] has applied its schedule).
fn check_quiescent(run: Run) -> TestCaseResult {
    let Run { sim, ds, model, replicas, .. } = run;
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
        let rows: Vec<(SimTime, String)> = run
            .sim
            .world
            .trace
            .of_kind(TraceKind::UpdateDelivered)
            .map(|e| (e.at, e.detail.clone()))
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

    /// The string-keyed wrapper equals the per-receiver definition on any
    /// receiver list: unknown names, the sender itself, repeats.
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

        let d = multicast_deliver(&net, sender, &receivers, bytes);
        prop_assert_eq!(d.arrivals, arrivals);
        prop_assert_eq!(d.cost.transmissions as usize, segments.len());
        prop_assert_eq!(d.cost.unicast_transmissions, unicast);
        prop_assert_eq!(d.cost.skipped, skipped);
        prop_assert_eq!(d.cost.completion, completion);
        prop_assert_eq!(d.wire_bytes, segments.len() as u64 * bytes);
        prop_assert_eq!(d.unicast_wire_bytes, unicast as u64 * bytes);
    }
}
