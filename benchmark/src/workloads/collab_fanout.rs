//! `collab_fanout`: a big collaborative session. One data service on a
//! 16-segment machine room holds a 256-branch × 4-leaf scene; 2,000 render
//! services subscribe (1 % to everything, the rest to one or two branch
//! subtrees); 8 participants move their cameras every round while 24
//! scoped transforms and one structural edit are published.
//!
//! Why it exists: interest routing and index repair, multicast fan-out,
//! the event queue and replica update application do all the work, and no
//! pixel is produced — the update path on its own.

use super::{machine_room, room_host, shadow_fanout, trace_counts, vec3};
use super::{Checks, Counters, LayerCounts, Workload, WARM_UP_ROUNDS, WORLD_SEED};
use crate::gen::{self, CollabScript, Interest, Structural};
use crate::spans::Tracer;
use rave_core::bootstrap::snapshot_for;
use rave_core::collaboration::{join_session, session_tick, Participant};
use rave_core::data_service::FanoutTotals;
use rave_core::world::{publish_batch, RaveWorld};
use rave_core::{DataServiceId, RaveConfig, RaveSim, RenderServiceId};
use rave_math::Vec3;
use rave_scene::{
    CameraParams, InterestSet, NodeId, NodeKind, SceneTree, SceneUpdate, StampedUpdate, Transform,
};
use rave_sim::Simulation;
use std::collections::VecDeque;
use std::sync::Arc;

const SEGMENTS: usize = 16;
const HOSTS_PER_SEGMENT: usize = 4;
const DS_HOST: &str = "hub";
const BRANCHES: usize = 256;
const LEAVES_PER_BRANCH: usize = 4;
const SUBSCRIBERS: usize = 2000;
const PARTICIPANTS: usize = 8;
const TRANSFORMS: usize = 24;
/// Rounds between runs of the routing-parity and replica-convergence
/// oracles.
const ORACLE_EVERY: u64 = 32;

pub struct CollabFanout {
    sim: RaveSim,
    ds: DataServiceId,
    script: CollabScript,
    branches: Vec<NodeId>,
    leaves: Vec<NodeId>,
    /// Leaves the script added and has not removed yet, oldest first.
    added: VecDeque<NodeId>,
    next_name: u64,
    participants: Vec<Participant>,
    labels: Vec<String>,
    /// Subscribers holding a full replica.
    full_replicas: Vec<RenderServiceId>,
    fanout_base: FanoutTotals,
    last_seq: u64,
    updates: u64,
    targets: u64,
    events: u64,
    latency_secs: f64,
    rounds: u64,
    /// A full replica the traced run applies every update to, beside the
    /// real ones.
    scratch: Option<SceneTree>,
}

impl CollabFanout {
    fn structural_updates(&mut self, edit: Structural) -> Vec<SceneUpdate> {
        let add = |w: &mut Self, branch: usize, name_len: usize| {
            let id = w.sim.world.data_mut(w.ds).scene.allocate_id();
            w.added.push_back(id);
            w.next_name += 1;
            SceneUpdate::AddNode {
                id,
                parent: w.branches[branch],
                name: format!("{:x<name_len$}", w.next_name),
                kind: NodeKind::Group,
            }
        };
        match edit {
            Structural::Add(branch, name_len) => vec![add(self, branch, name_len)],
            Structural::Remove => {
                let id = self.added.pop_front().expect("the script adds before it removes");
                vec![SceneUpdate::RemoveNode { id }]
            }
            Structural::Move(branch, name_len) => {
                let id = self.added.pop_front().expect("the script adds before it moves");
                vec![SceneUpdate::RemoveNode { id }, add(self, branch, name_len)]
            }
        }
    }

    fn one_round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        let round = self.script.next().expect("the script is endless");
        let structural = self.structural_updates(round.structural);
        let moves: Vec<(Participant, &str, CameraParams)> = round
            .cameras
            .iter()
            .zip(&self.participants)
            .zip(&self.labels)
            .map(|((pos, who), label)| {
                let camera = CameraParams::look_at(vec3(*pos), Vec3::ZERO, Vec3::Y);
                (*who, label.as_str(), camera)
            })
            .collect();
        let mut batch: Vec<(String, SceneUpdate)> = round
            .transforms
            .iter()
            .map(|(leaf, t)| {
                let transform = Transform::from_translation(vec3(*t));
                (
                    "editor".to_string(),
                    SceneUpdate::SetTransform { id: self.leaves[*leaf], transform },
                )
            })
            .collect();
        batch.extend(structural.into_iter().map(|u| ("editor".to_string(), u)));
        let published = (moves.len() + batch.len()) as u64;

        let tr_on = tr.on();
        let t0 = self.sim.now();
        let executed = self.sim.executed();
        let (sim, ds) = (&mut self.sim, self.ds);
        let tick = tr.direct("publish.batch", moves.len() as u64, || session_tick(sim, ds, &moves));
        let edits =
            tr.direct("publish.batch", batch.len() as u64, || publish_batch(sim, ds, batch));

        // Sequence numbers are contiguous across and within the batches.
        let seqs: Vec<u64> = tick.iter().chain(edits.iter()).flatten().copied().collect();
        let contiguous = seqs.iter().zip(self.last_seq + 1..).all(|(s, want)| *s == want);
        checks.tally(published, published - seqs.len() as u64, || {
            format!("publish failed: {:?} {:?}", tick.as_ref().err(), edits.as_ref().err())
        });
        checks.check(contiguous, || {
            format!("sequence numbers not contiguous after {}", self.last_seq)
        });
        self.last_seq += seqs.len() as u64;

        // The round's updates as committed, for the shadows and oracles.
        let sampled = i.is_multiple_of(ORACLE_EVERY);
        let stamped: Vec<Arc<StampedUpdate>> = tr.untimed(|| {
            if !(tr_on || sampled) {
                return Vec::new();
            }
            let trail = self.sim.world.data(ds).audit.entries();
            trail[trail.len() - seqs.len()..].iter().map(|e| Arc::new(e.stamped.clone())).collect()
        });
        let mut round_targets = 0u64;
        if tr_on {
            tr.pause();
            round_targets = shadow_fanout(&mut self.sim, ds, &stamped, tr);
            tr.resume();
        }

        tr.direct("sim.run", 1, || self.sim.run());
        self.events += self.sim.executed() - executed;
        self.latency_secs += (self.sim.now() - t0).as_secs();
        self.updates += published;
        self.targets += round_targets;
        self.rounds += 1;

        if let Some(scratch) = self.scratch.as_mut() {
            // The replicas applied each update once per routed target
            // (`scene.applies`); the shadow applies it once, on a full
            // replica, for the cost of one apply.
            let n = stamped.len() as u64;
            let ok = tr.shadow("scene.apply", "sim.run", n, || {
                stamped.iter().all(|s| s.update.apply(scratch).is_ok())
            });
            checks.check(ok, || "an update did not apply to the scratch replica".into());
        }
        if sampled {
            tr.untimed(|| self.oracles(&stamped, checks));
        }
    }

    /// Index routing equals the naive scan over refreshed interests, and
    /// every full replica equals the master once the queue has drained.
    fn oracles(&mut self, stamped: &[Arc<StampedUpdate>], checks: &mut Checks) {
        // `route_naive` reads each subscriber's interest closure, which
        // only `refresh_interests` brings up to date — and that would make
        // the real service rebuild its index. Refresh a copy instead.
        let mut refreshed = self.sim.world.data(self.ds).clone();
        refreshed.refresh_interests();
        let ds = self.sim.world.data_mut(self.ds);
        for s in stamped {
            let (index, naive) = (ds.route(s), refreshed.route_naive(s));
            checks.check(index == naive, || {
                format!(
                    "route != route_naive for seq {}: {} vs {} targets",
                    s.seq,
                    index.len(),
                    naive.len()
                )
            });
        }
        let master = &self.sim.world.data(self.ds).scene;
        for rs in &self.full_replicas {
            checks.check(&self.sim.world.render(*rs).scene == master, || {
                format!("full replica {rs} differs from the master at quiescence")
            });
        }
        if let Some(scratch) = &self.scratch {
            checks.check(scratch == master, || "scratch replica differs from the master".into());
        }
    }
}

impl Workload for CollabFanout {
    const PARALLEL: bool = false;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mut net = machine_room(SEGMENTS, HOSTS_PER_SEGMENT);
        net.add_host(DS_HOST, "seg0");
        // As the repository's own scale runs set it: one delivery trace row
        // per update per replica would dominate everything else.
        let config = RaveConfig { update_delivery_trace: false, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::new(net, config, WORLD_SEED));
        let ds = sim.world.spawn_data_service(DS_HOST, "session");

        let (mut branches, mut leaves) = (Vec::new(), Vec::new());
        {
            let scene = &mut sim.world.data_mut(ds).scene;
            let root = scene.root();
            for b in 0..BRANCHES {
                let branch = scene.add_node(root, format!("b{b}"), NodeKind::Group).expect("fresh");
                branches.push(branch);
                for l in 0..LEAVES_PER_BRANCH {
                    let name = format!("b{b}l{l}");
                    leaves.push(scene.add_node(branch, name, NodeKind::Group).expect("fresh"));
                }
            }
        }
        let labels: Vec<String> = (0..PARTICIPANTS).map(|i| format!("user{i}")).collect();
        let participants: Vec<Participant> = labels
            .iter()
            .map(|label| {
                join_session(&mut sim, ds, label, Vec3::X, CameraParams::default()).expect("join")
            })
            .collect();
        sim.run();

        let mut full_replicas = Vec::new();
        for (i, interest) in gen::interests(seed, SUBSCRIBERS, BRANCHES).into_iter().enumerate() {
            let host = room_host((i / HOSTS_PER_SEGMENT) % SEGMENTS, i % HOSTS_PER_SEGMENT);
            let rs = sim.world.spawn_render_service(&host);
            let mut interest = match interest {
                Interest::Everything => InterestSet::everything(),
                Interest::One(a) => InterestSet::subtrees([branches[a]]),
                Interest::Two(a, b) => InterestSet::subtrees([branches[a], branches[b]]),
            };
            if interest.is_everything() {
                full_replicas.push(rs);
            }
            let data = sim.world.data_mut(ds);
            data.subscribe_live(rs, interest.clone());
            let replica = snapshot_for(&data.scene, &interest);
            interest.refresh(&replica);
            let service = sim.world.render_mut(rs);
            service.scene = replica;
            service.interest = interest;
        }

        let scratch = tr.on().then(|| sim.world.data(ds).scene.clone());
        let last_seq = sim.world.data(ds).audit.last_seq();
        let mut w = Self {
            sim,
            ds,
            script: CollabScript::new(
                seed,
                PARTICIPANTS,
                TRANSFORMS,
                BRANCHES,
                BRANCHES * LEAVES_PER_BRANCH,
            ),
            branches,
            leaves,
            added: VecDeque::new(),
            next_name: 0,
            participants,
            labels,
            full_replicas,
            fanout_base: FanoutTotals::default(),
            last_seq,
            updates: 0,
            targets: 0,
            events: 0,
            latency_secs: 0.0,
            rounds: 0,
            scratch,
        };
        for _ in 0..WARM_UP_ROUNDS {
            w.one_round(1, tr, checks);
        }
        w.fanout_base = w.sim.world.data(ds).fanout;
        (w.updates, w.targets, w.events, w.latency_secs, w.rounds) = (0, 0, 0, 0.0, 0);
        w
    }

    fn round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        self.one_round(i, tr, checks);
    }

    fn counters(&mut self) -> Counters {
        Counters {
            sim_secs: self.sim.now().as_secs(),
            wire_bytes: self.sim.world.data(self.ds).fanout.wire_bytes,
        }
    }

    fn finish(mut self, rounds: u64, tr: &mut Tracer, checks: &mut Checks) -> LayerCounts {
        tr.untimed(|| self.oracles(&[], checks));
        let mut out = LayerCounts::new();
        let fanout = self.sim.world.data(self.ds).fanout;
        let wire = fanout.wire_bytes - self.fanout_base.wire_bytes;
        let unicast = fanout.unicast_wire_bytes - self.fanout_base.unicast_wire_bytes;
        out.insert("net.wire_bytes", wire as f64);
        out.insert("net.unicast_bytes", unicast as f64);
        out.insert("net.wire_ratio", wire as f64 / unicast.max(1) as f64);
        out.insert("publish.updates", self.updates as f64);
        out.insert("sim.events_per_round", self.events as f64 / self.rounds as f64);
        out.insert("sim.update_latency_ms", self.latency_secs * 1e3 / self.rounds as f64);
        if self.scratch.is_some() {
            out.insert("route.targets_per_update", self.targets as f64 / self.updates as f64);
            out.insert("scene.applies", self.targets as f64);
        }
        trace_counts(&self.sim, rounds + WARM_UP_ROUNDS, &mut out);
        out
    }
}
