//! `edit_storm`: a durable distributed session. 16 render services on a
//! 4 × 4 machine room share 500 tiny-mesh nodes under the incremental
//! planner; the data service logs to a write-ahead store and ships it to a
//! warm standby at lag 0. Every round edits 12 transforms and 4 node costs,
//! replans, migrates, ships. After the last round the primary fails: the
//! standby is promoted and the primary's store is recovered cold.
//!
//! Why it exists: scene dirt logs and caches, the incremental planner and
//! the application of its diffs, store appends and checkpoints, and log
//! shipping carry the load (writes); the failover tail reads the same store
//! back — a WAL change that speeds appends but slows replay shows.

use super::{
    channel_totals, machine_room, room_host, shadow_fanout, tiny_mesh, trace_counts, vec3,
};
use super::{Checks, Counters, LayerCounts, Workload, WARM_UP_ROUNDS, WORLD_SEED};
use crate::gen::{self, StormScript};
use crate::spans::Tracer;
use rave_core::capacity::{CapacityReport, Headroom};
use rave_core::distribution::{plan_distribution, plan_incremental};
use rave_core::migration::{
    check_and_replan_incremental, handle_data_service_failure, MigrationOutcome,
};
use rave_core::replica::{establish_standby, ship_tick};
use rave_core::sched::PlanState;
use rave_core::world::{publish_batch, RaveWorld};
use rave_core::{DataServiceId, RaveConfig, RaveSim, RenderServiceId, StorePersistence};
use rave_scene::{
    AuditEntry, InterestSet, NodeCost, NodeId, NodeKind, SceneTree, SceneUpdate, StampedUpdate,
    Transform,
};
use rave_sim::{SimTime, Simulation};
use rave_store::{Recovery, Store, StoreConfig, Wal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEGMENTS: usize = 4;
const HOSTS_PER_SEGMENT: usize = 4;
const PRIMARY_HOST: &str = "hub";
const STANDBY_HOST: &str = "spare";
const GROUPS: usize = 16;
/// 500, not more: one world-level replan is super-linear in the node count
/// today (1,000 nodes cost ~70 ms a round).
const NODES: usize = 500;
const TRANSFORMS: usize = 12;
const REPLACEMENTS: usize = 4;
/// Import chunk. One batch of all 516 nodes crosses a checkpoint before
/// anything has shipped, the checkpoint compacts the unshipped history
/// away, and the standby can never catch up (see README, "Findings").
const IMPORT_CHUNK: usize = 64;
const LAG_CHECK_EVERY: u64 = 16;

/// Scratch directories, removed when dropped. Under `benchmark/out`, not
/// the system's temporary directory: the benchmark may write only inside
/// its checkout.
struct ScratchDirs(PathBuf);

impl ScratchDirs {
    fn new() -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self::sweep();
        let dir = crate::out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }

    /// Remove what a killed run left behind: `tmp-<pid>-<n>` of a process
    /// that no longer exists.
    fn sweep() {
        for entry in std::fs::read_dir(crate::out_dir()).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix("tmp-")?.split('-').next());
            if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// What the traced run keeps beside the real world to repeat layer calls.
struct Shadow {
    /// A second master: every update is applied to it, and the planner's
    /// own entry point replans it with its own state.
    master: SceneTree,
    plan: PlanState,
    /// A replica that applies what subscribers were sent.
    replica: SceneTree,
    /// A replica that takes each migrated subtree and gives it back.
    holder: SceneTree,
    store: Store,
    wal_bytes: u64,
    wal_updates: u64,
}

/// What the failover tail leaves for the final oracles and counts.
struct Failover {
    /// The master scene and the books just before the failure.
    master: SceneTree,
    counts: LayerCounts,
    failed_at: SimTime,
    outcome: MigrationOutcome,
    replayed: std::io::Result<Vec<AuditEntry>>,
    recovered: std::io::Result<Recovery>,
}

pub struct EditStorm {
    sim: RaveSim,
    primary: DataServiceId,
    standby: DataServiceId,
    services: Vec<RenderServiceId>,
    nodes: Vec<NodeId>,
    script: StormScript,
    dirs: ScratchDirs,
    pairs: Vec<(String, String)>,
    shadow: Option<Shadow>,
    failover: Option<Failover>,
    moved: u64,
    replayed: u64,
    refusals: u64,
    cost_edits: u64,
    updates: u64,
    targets: u64,
    events: u64,
    latency_secs: f64,
    rounds: u64,
    max_lag: u64,
}

/// The incremental planner's capacity basis, rebuilt from public state:
/// each subscriber's polygon budget at the target frame rate times the
/// fill factor, and its texture memory.
fn capacity_basis(sim: &RaveSim, ds: DataServiceId) -> Vec<(RenderServiceId, Headroom)> {
    let cfg = &sim.world.config;
    sim.world
        .data(ds)
        .subscriber_ids()
        .into_iter()
        .map(|id| {
            let rs = sim.world.render(id);
            let pixels = rs
                .sessions
                .values()
                .map(|s| s.viewport.pixel_count() as u64)
                .max()
                .unwrap_or(160_000);
            let budget = rs.machine.poly_budget_at_fps(cfg.target_fps, pixels);
            let polygons = (budget as f64 * cfg.fill_factor) as u64;
            (id, Headroom { polygons, texture_bytes: rs.machine.texture_memory })
        })
        .collect()
}

impl EditStorm {
    /// Publish one batch. Returns the committed entries when traced, for
    /// the shadows that run after the queue has drained.
    fn publish(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        updates: Vec<SceneUpdate>,
    ) -> Vec<AuditEntry> {
        let n = updates.len() as u64;
        let batch = updates.into_iter().map(|u| ("editor".to_string(), u)).collect();
        let (sim, primary) = (&mut self.sim, self.primary);
        let result = tr.direct("publish.batch", n, || publish_batch(sim, primary, batch));
        let committed = result.as_ref().map_or(0, |seqs| seqs.len());
        checks.tally(n, n - committed as u64, || {
            format!("publish_batch: {:?}", result.as_ref().err())
        });
        self.updates += n;
        if self.shadow.is_none() {
            return Vec::new();
        }
        tr.pause();
        let trail = self.sim.world.data(primary).audit.entries();
        let entries = trail[trail.len() - committed..].to_vec();
        self.shadow_publish(&entries, tr, checks);
        tr.resume();
        entries
    }

    /// Repeat what committing and fanning out the batch did, layer by
    /// layer: the master's applies, the store's appends (and checkpoint
    /// when one is due), routing, and multicast delivery planning.
    fn shadow_publish(&mut self, entries: &[AuditEntry], tr: &mut Tracer, checks: &mut Checks) {
        let shadow = self.shadow.as_mut().expect("traced run");
        let n = entries.len() as u64;
        let ok = tr.shadow("scene.apply", "publish.batch", n, || {
            entries.iter().all(|e| e.stamped.update.apply(&mut shadow.master).is_ok())
        });
        checks.check(ok, || "an update did not apply to the shadow master".into());
        let before = Wal::disk_bytes(shadow.store.dir()).unwrap_or(0);
        let appended = tr.shadow("store.append", "publish.batch", n, || {
            entries.iter().try_for_each(|e| shadow.store.append(e))
        });
        checks.check(appended.is_ok(), || format!("shadow store append: {appended:?}"));
        let after = Wal::disk_bytes(shadow.store.dir()).unwrap_or(0);
        if after > before {
            shadow.wal_bytes += after - before;
            shadow.wal_updates += n;
        }
        if shadow.store.checkpoint_due() {
            let at = self.sim.now().as_secs();
            let done = tr.shadow("store.checkpoint", "publish.batch", 1, || {
                shadow.store.checkpoint(&shadow.master, at)
            });
            checks.check(done.is_ok(), || format!("shadow store checkpoint: {done:?}"));
        }
        let stamped: Vec<Arc<StampedUpdate>> =
            entries.iter().map(|e| Arc::new(e.stamped.clone())).collect();
        self.targets += shadow_fanout(&mut self.sim, self.primary, &stamped, tr);
    }

    /// Replan. Returns the nodes the plan moved.
    fn replan(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Vec<NodeId> {
        let (sim, primary) = (&mut self.sim, self.primary);
        let out = tr.direct("sched.replan", 1, || check_and_replan_incremental(sim, primary));
        checks
            .check(!out.migration.refused && !out.deferred, || "replan refused or deferred".into());
        self.refusals += u64::from(out.migration.refused);
        let diff = out.diff.unwrap_or_default();
        self.moved += diff.moved.len() as u64;
        self.replayed += diff.replayed as u64;
        let moved: Vec<NodeId> = diff.moved.iter().map(|m| m.0).collect();
        if self.shadow.is_some() {
            tr.pause();
            self.shadow_replan(&moved, tr, checks);
            tr.resume();
        }
        moved
    }

    /// Repeat the planner alone on the shadow master with its own plan
    /// state, the cost query, and the subtree extraction done per move.
    fn shadow_replan(&mut self, moved: &[NodeId], tr: &mut Tracer, checks: &mut Checks) {
        let caps = capacity_basis(&self.sim, self.primary);
        let shadow = self.shadow.as_mut().expect("traced run");
        let planned = tr.shadow("sched.plan_only", "sched.replan", 1, || {
            plan_incremental(&mut shadow.master, &caps, &mut shadow.plan, 0.0)
        });
        let same = matches!(&planned, Ok(Some(d)) if d.moved.len() == moved.len());
        checks.check(same, || "shadow planner moved a different number of nodes".into());
        tr.shadow("scene.cost_query", "sched.replan", 1, || {
            std::hint::black_box(shadow.master.total_cost())
        });
        if !moved.is_empty() {
            tr.shadow("scene.extract", "sched.replan", moved.len() as u64, || {
                for id in moved {
                    std::hint::black_box(shadow.master.extract_subset(&[*id]));
                }
            });
        }
    }

    /// Repeat what draining the queue did: replicas applying the updates
    /// routed to them, and each move landing as a merge on the receiver and
    /// a remove on the donor.
    fn shadow_drain(
        &mut self,
        entries: &[AuditEntry],
        moved: &[NodeId],
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let shadow = self.shadow.as_mut().expect("traced run");
        let n = entries.len() as u64;
        let ok = tr.shadow("scene.apply", "sim.run", n, || {
            entries.iter().all(|e| e.stamped.update.apply(&mut shadow.replica).is_ok())
        });
        checks.check(ok, || "an update did not apply to the shadow replica".into());
        if moved.is_empty() {
            return;
        }
        let subsets: Vec<SceneTree> =
            moved.iter().map(|id| shadow.master.extract_subset(&[*id])).collect();
        tr.shadow("scene.merge", "sim.run", moved.len() as u64, || {
            for (id, subset) in moved.iter().zip(&subsets) {
                shadow.holder.merge_subset(subset);
                let _ = shadow.holder.remove(*id);
            }
        });
    }

    fn drain(
        &mut self,
        entries: &[AuditEntry],
        moved: &[NodeId],
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let sim = &mut self.sim;
        tr.direct("sim.run", 1, || sim.run());
        if self.shadow.is_some() {
            tr.pause();
            self.shadow_drain(entries, moved, tr, checks);
            tr.resume();
        }
    }

    fn one_round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        let round = self.script.next().expect("the script is endless");
        let mut updates: Vec<SceneUpdate> = round
            .transforms
            .iter()
            .map(|(n, t)| SceneUpdate::SetTransform {
                id: self.nodes[*n],
                transform: Transform::from_translation(vec3(*t)),
            })
            .collect();
        updates.extend(round.replacements.iter().map(|(n, tris)| SceneUpdate::ReplaceKind {
            id: self.nodes[*n],
            kind: tiny_mesh(*tris),
        }));
        self.cost_edits += round.replacements.len() as u64;

        let t0 = self.sim.now();
        let executed = self.sim.executed();
        let entries = self.publish(tr, checks, updates);
        let moved = self.replan(tr, checks);
        let (sim, primary) = (&mut self.sim, self.primary);
        let shipped = tr.direct("replica.ship_tick", 1, || ship_tick(sim, primary));
        checks.check(shipped.is_ok(), || format!("ship_tick: {shipped:?}"));
        self.drain(&entries, &moved, tr, checks);
        self.events += self.sim.executed() - executed;
        self.latency_secs += (self.sim.now() - t0).as_secs();
        self.rounds += 1;

        if i.is_multiple_of(LAG_CHECK_EVERY) {
            let lag = self.lag();
            self.max_lag = self.max_lag.max(lag);
            checks.check(lag == 0, || format!("standby {lag} update(s) behind at lag 0"));
        }
    }

    /// Committed updates the standby has not applied.
    fn lag(&self) -> u64 {
        let primary = self.sim.world.data(self.primary).audit.last_seq();
        primary - self.sim.world.data(self.standby).audit.last_seq()
    }

    /// The incremental plan equals a cold plan of the same scene, and the
    /// services' replicas hold every planned node exactly once.
    fn plan_oracles(&self, checks: &mut Checks) {
        let state = &self.sim.world.sched.plans[&self.primary];
        let incremental: BTreeMap<RenderServiceId, Vec<NodeId>> = state
            .assignments()
            .into_iter()
            .map(|(svc, mut nodes, _)| {
                nodes.sort_unstable();
                (svc, nodes)
            })
            .collect();
        let reports: Vec<CapacityReport> = capacity_basis(&self.sim, self.primary)
            .into_iter()
            .map(|(service, room)| CapacityReport {
                service,
                host: self.sim.world.render(service).host.clone(),
                polys_per_sec: self.sim.world.render(service).machine.poly_rate,
                poly_headroom: room.polygons,
                texture_headroom: room.texture_bytes,
                volume_hw: false,
                assigned: NodeCost::ZERO,
                rolling_fps: None,
            })
            .collect();
        let mut scene = self.sim.world.data(self.primary).scene.clone();
        let cold: BTreeMap<RenderServiceId, Vec<NodeId>> = plan_distribution(&mut scene, &reports)
            .map(|plan| {
                plan.assignments
                    .into_iter()
                    .map(|a| {
                        let mut nodes = a.nodes;
                        nodes.sort_unstable();
                        (a.service, nodes)
                    })
                    .collect()
            })
            .unwrap_or_default();
        checks.check(incremental == cold, || {
            "incremental plan differs from a cold plan_distribution of the same scene".into()
        });
        for node in &self.nodes {
            let holders =
                self.services.iter().filter(|rs| self.sim.world.render(**rs).scene.contains(*node));
            let holders = holders.count();
            checks.check(holders == 1, || format!("node {node} is held by {holders} services"));
        }
        if let Some(shadow) = &self.shadow {
            let mut theirs = shadow.plan.assignments();
            let mut ours = state.assignments();
            theirs.iter_mut().chain(ours.iter_mut()).for_each(|a| a.1.sort_unstable());
            checks.check(theirs == ours, || "shadow plan state differs from the world's".into());
        }
    }
}

impl Workload for EditStorm {
    const PARALLEL: bool = false;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self {
        let mut net = machine_room(SEGMENTS, HOSTS_PER_SEGMENT);
        net.add_host(PRIMARY_HOST, "seg0");
        net.add_host(STANDBY_HOST, "seg1");
        // At 16 subscribers the default delivery trace is affordable, and
        // its cost belongs in the number.
        let config = RaveConfig { ship_max_lag: 0, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::new(net, config, WORLD_SEED));
        let primary = sim.world.spawn_data_service(PRIMARY_HOST, "storm");
        let standby = sim.world.spawn_data_service(STANDBY_HOST, "storm-standby");
        let mut services = Vec::new();
        let mut pairs = vec![(PRIMARY_HOST.to_string(), STANDBY_HOST.to_string())];
        for s in 0..SEGMENTS {
            for h in 0..HOSTS_PER_SEGMENT {
                let host = room_host(s, h);
                let rs = sim.world.spawn_render_service(&host);
                sim.world.data_mut(primary).subscribe_live(rs, InterestSet::subtrees([]));
                sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
                services.push(rs);
                pairs.push((PRIMARY_HOST.to_string(), host));
            }
        }

        let dirs = ScratchDirs::new();
        let attached =
            sim.world.data_mut(primary).attach_store(dirs.sub("primary"), StoreConfig::default());
        checks.check(attached.is_ok(), || format!("attach_store: {attached:?}"));
        let established =
            establish_standby(&mut sim, primary, standby, dirs.sub("primary"), dirs.sub("standby"));
        checks.check(established.is_ok(), || format!("establish_standby: {established:?}"));

        let shadow = tr.on().then(|| Shadow {
            master: SceneTree::new(),
            plan: PlanState::new(),
            replica: SceneTree::new(),
            holder: SceneTree::new(),
            store: Store::open(dirs.sub("shadow"), StoreConfig::default()).expect("shadow store"),
            wal_bytes: 0,
            wal_updates: 0,
        });
        let mut w = Self {
            sim,
            primary,
            standby,
            services,
            nodes: Vec::new(),
            script: StormScript::new(seed, NODES, TRANSFORMS, REPLACEMENTS),
            dirs,
            pairs,
            shadow,
            failover: None,
            moved: 0,
            replayed: 0,
            refusals: 0,
            cost_edits: 0,
            updates: 0,
            targets: 0,
            events: 0,
            latency_secs: 0.0,
            rounds: 0,
            max_lag: 0,
        };

        // Import the scene through the update path, in chunks, shipping
        // each before the next.
        let mut import = Vec::new();
        let mut groups = Vec::new();
        let root = w.sim.world.data(primary).scene.root();
        for g in 0..GROUPS {
            let id = w.sim.world.data_mut(primary).scene.allocate_id();
            groups.push(id);
            import.push(SceneUpdate::AddNode {
                id,
                parent: root,
                name: format!("group{g}"),
                kind: NodeKind::Group,
            });
        }
        for (n, tris) in gen::mesh_sizes(NODES).into_iter().enumerate() {
            let id = w.sim.world.data_mut(primary).scene.allocate_id();
            w.nodes.push(id);
            import.push(SceneUpdate::AddNode {
                id,
                parent: groups[n % GROUPS],
                name: format!("mesh{n}"),
                kind: tiny_mesh(tris),
            });
        }
        for chunk in import.chunks(IMPORT_CHUNK) {
            let entries = w.publish(tr, checks, chunk.to_vec());
            let shipped = ship_tick(&mut w.sim, primary);
            checks.check(shipped.is_ok(), || format!("ship_tick during import: {shipped:?}"));
            w.drain(&entries, &[], tr, checks);
        }
        let placed = w.replan(tr, checks);
        w.drain(&[], &placed, tr, checks);
        for _ in 0..WARM_UP_ROUNDS {
            w.one_round(1, tr, checks);
        }
        (w.moved, w.replayed, w.cost_edits, w.updates, w.targets) = (0, 0, 0, 0, 0);
        (w.events, w.latency_secs, w.rounds) = (0, 0.0, 0);
        w
    }

    fn round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) {
        self.one_round(i, tr, checks);
    }

    fn counters(&mut self) -> Counters {
        let fanout = self.sim.world.data(self.primary).fanout.wire_bytes;
        Counters {
            sim_secs: self.sim.now().as_secs(),
            wire_bytes: fanout + channel_totals(&mut self.sim, &self.pairs).0,
        }
    }

    /// The failure: warm promotion of the standby, then the primary's own
    /// directory read back cold — the log replayed, the session recovered.
    fn tail(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let (master, counts) = tr.untimed(|| {
            let lag = self.lag();
            self.max_lag = self.max_lag.max(lag);
            checks.check(lag == 0, || format!("standby {lag} update(s) behind before the failure"));
            self.plan_oracles(checks);
            let mut out = LayerCounts::new();
            let link = &self.sim.world.replicas[&self.primary];
            out.insert("replica.frames_shipped", link.shipped_frames as f64);
            out.insert("replica.bytes_shipped", link.shipped_bytes as f64);
            out.insert("replica.lag_updates", self.max_lag as f64);
            let fanout = self.sim.world.data(self.primary).fanout;
            let (channel_bytes, channel_msgs) = channel_totals(&mut self.sim, &self.pairs);
            out.insert("net.wire_bytes", (fanout.wire_bytes + channel_bytes) as f64);
            out.insert("net.unicast_bytes", fanout.unicast_wire_bytes as f64);
            out.insert("net.wire_ratio", fanout.wire_ratio());
            out.insert("net.channel_msgs", channel_msgs as f64);
            out.insert("store.disk_bytes", dir_bytes(&self.dirs.sub("primary")) as f64);
            (self.sim.world.data(self.primary).scene.clone(), out)
        });
        let failed_at = self.sim.now();
        let (sim, primary) = (&mut self.sim, self.primary);
        let outcome = tr.direct("replica.promote", 1, || {
            let outcome = handle_data_service_failure(sim, primary);
            sim.run();
            outcome
        });
        let primary_dir = self.dirs.sub("primary");
        let replayed = tr.direct("store.replay", 1, || Wal::replay_after(&primary_dir, 0));
        let recovered = tr.direct("store.recover", 1, || StorePersistence::recover(&primary_dir));
        self.failover = Some(Failover { master, counts, failed_at, outcome, replayed, recovered });
    }

    fn finish(mut self, rounds: u64, _tr: &mut Tracer, checks: &mut Checks) -> LayerCounts {
        let failover = self.failover.take().expect("the tail ran");
        let mut out = failover.counts;
        let promotion = failover.outcome.promotions.first();
        checks.check(promotion.is_some_and(|p| p.warm && p.promoted == self.standby), || {
            "the data-service failure did not promote the warm standby".into()
        });
        if let Some(p) = promotion {
            out.insert("sim.failover_ms", (p.completed_at - failover.failed_at).as_millis());
            out.insert("replica.lost_updates", p.lost_updates as f64);
            checks.check(p.lost_updates == 0, || {
                format!("{} update(s) lost at lag 0", p.lost_updates)
            });
            checks.check(p.subscribers_moved == self.services.len(), || {
                format!("{} of {} subscribers re-pointed", p.subscribers_moved, self.services.len())
            });
        }
        checks.check(self.sim.world.data(self.standby).scene == failover.master, || {
            "promoted scene differs from the master before the failure".into()
        });
        checks.check(failover.replayed.is_ok(), || {
            format!("Wal::replay_after: {:?}", failover.replayed.as_ref().err())
        });
        checks.check(failover.recovered.as_ref().is_ok_and(|r| r.tree == failover.master), || {
            "cold-recovered scene differs from the master before the failure".into()
        });

        out.insert("sched.moved_per_round", self.moved as f64 / self.rounds as f64);
        out.insert("sched.replayed_per_round", self.replayed as f64 / self.rounds as f64);
        out.insert("sched.moved_per_cost_edit", self.moved as f64 / self.cost_edits.max(1) as f64);
        out.insert("sched.refusals", self.refusals as f64);
        out.insert("publish.updates", self.updates as f64);
        out.insert("sim.events_per_round", self.events as f64 / self.rounds as f64);
        out.insert("sim.update_latency_ms", self.latency_secs * 1e3 / self.rounds as f64);
        if let Some(shadow) = &self.shadow {
            out.insert(
                "route.targets_per_update",
                self.targets as f64 / self.updates.max(1) as f64,
            );
            out.insert("scene.applies", (self.updates + self.targets) as f64);
            out.insert(
                "store.bytes_per_update",
                shadow.wal_bytes as f64 / shadow.wal_updates.max(1) as f64,
            );
        }
        trace_counts(&self.sim, rounds + WARM_UP_ROUNDS, &mut out);
        out
    }
}
