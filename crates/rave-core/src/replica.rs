//! Warm-standby replication: continuous WAL log shipping and measured
//! promotion (§6 "data servers could mirror each other", production
//! grade).
//!
//! This is the one replication path. A [`ReplicaLink`] continuously
//! streams the primary's WAL — the records of each segment past the
//! standby's cursor, verbatim: all of a sealed segment's, and of the
//! active one's those past the [`crate::RaveConfig::ship_max_lag`] bound,
//! in lockstep cut from the records the primary's WAL keeps until a frame
//! carries them — to a standby data service on another host, through the same
//! serializing `rave_net` channels every other transfer uses. A frame the
//! standby declines, torn or past a gap, is shipped again from the
//! cursor the standby acknowledged once the link's frames in flight have
//! all been answered. The link holds the standby's store, open on its
//! directory with the primary's config: each frame is written to that
//! store's log and committed to the standby's in-memory replica in the
//! same event, so the disk never holds an entry the memory lacks. At
//! promotion nothing is read or replayed: the open store moves into the
//! standby service, the subscribers are re-pointed, and sequence numbers
//! continue where the primary stopped.
//!
//! Failure enters through the scheduler:
//! [`crate::sched::SchedEvent::DataFailure`] is handled by
//! `rebalance::process_events`, which promotes the standby when a link
//! exists and falls back to the cold
//! [`crate::bootstrap::recover_data_service`] path (durable store, full
//! re-bootstrap of every subscriber) when one does not.

use crate::ids::DataServiceId;
use crate::trace::TraceEvent;
use crate::world::RaveSim;
use rave_sim::SimTime;
use rave_store::ship::{self, ACK_BYTES};
use rave_store::Store;
use std::io;
use std::path::Path;

/// Cadence of [`run_log_shipping`]: how often the primary plans and
/// sends WAL frames to its warm standby, in virtual milliseconds.
const SHIP_INTERVAL_MS: f64 = 250.0;

/// Maximum unacknowledged frames in flight per replica link; a tick
/// plans at most this many minus those in flight.
const SHIP_ACK_WINDOW: usize = 4;

/// One live replication link, owned by the world and keyed by primary.
#[derive(Debug)]
pub struct ReplicaLink {
    pub primary: DataServiceId,
    pub standby: DataServiceId,
    /// The standby's store: its log applies the shipped frames, so its
    /// directory is a prefix of the primary's, and at promotion it becomes
    /// the promoted service's store as it stands, open.
    pub log: Store,
    /// Highest sequence number the standby has acknowledged.
    pub acked_seq: u64,
    /// Optimistic cursor covering frames still in flight, so overlapping
    /// ship ticks never re-send what an earlier tick already queued.
    pub shipped_seq: u64,
    /// Frames sent but not yet acknowledged.
    pub in_flight: usize,
    /// Lifetime accounting, for traces and benches.
    pub shipped_frames: u64,
    pub shipped_bytes: u64,
    /// Bytes of the primary's segment files the link's plans have read.
    file_bytes_read: u64,
}

impl ReplicaLink {
    /// Bytes of the primary's segment files the link's ticks have read.
    pub fn file_bytes_read(&self) -> u64 {
        self.file_bytes_read
    }
}

/// What [`promote_standby`] did, for the scheduler's outcome record and
/// for benches measuring recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionReport {
    pub failed: DataServiceId,
    pub promoted: DataServiceId,
    /// True for a warm (log-shipped) promotion; false for the cold
    /// recover-from-store fallback.
    pub warm: bool,
    /// Subscribers re-pointed at the promoted service.
    pub subscribers_moved: usize,
    /// Committed updates the primary held that never reached the
    /// standby's log — bounded by the configured lag.
    pub lost_updates: u64,
    /// Virtual time from which the last subscriber is sent the promoted
    /// service's updates.
    pub completed_at: SimTime,
}

/// Establish a warm standby for `primary`, whose store is at
/// `primary_dir`: the standby's store is opened on `standby_dir` with the
/// primary's store config and resumes from whatever prefix the directory
/// already holds — a restarted standby does NOT re-ship history it kept —
/// and the standby's replica is seeded from that prefix. The link starts
/// shipping from that cursor on the next [`ship_tick`]. From here on the
/// primary's checkpoints keep every WAL segment the standby has not
/// acknowledged, and its WAL keeps the records it frames until a frame
/// carries them.
///
/// A primary without a store or with another directory (compared as
/// canonical paths, so any spelling of the store's directory will do) is
/// refused with [`io::ErrorKind::InvalidInput`], a standby directory
/// [`rave_store::recover()`] refuses with its error; the world unchanged.
pub fn establish_standby(
    sim: &mut RaveSim,
    primary: DataServiceId,
    standby: DataServiceId,
    primary_dir: impl AsRef<Path>,
    standby_dir: impl AsRef<Path>,
) -> io::Result<u64> {
    let given = std::fs::canonicalize(primary_dir.as_ref()).ok();
    let holds_it = |s: &&Store| given.is_some() && std::fs::canonicalize(s.dir()).ok() == given;
    let Some(cfg) = sim.world.data(primary).store().filter(holds_it).map(|s| *s.config()) else {
        let given = primary_dir.as_ref().display();
        let what = format!("{given} is not the directory of a store {primary} holds");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    };
    let log = Store::open(standby_dir.as_ref(), cfg)?;
    let rec = rave_store::recover(standby_dir.as_ref())?;
    let resumed_from = log.last_seq();
    // Seed the standby's in-memory replica from its durable prefix, so
    // memory and disk advance together from one consistent point.
    sim.world.data_mut(standby).seed_from(&rec);
    sim.world.replicas.insert(
        primary,
        ReplicaLink {
            primary,
            standby,
            log,
            acked_seq: resumed_from,
            shipped_seq: resumed_from,
            in_flight: 0,
            shipped_frames: 0,
            shipped_bytes: 0,
            file_bytes_read: 0,
        },
    );
    sim.world.data_mut(primary).set_retention_floor(Some(resumed_from));
    let row = TraceEvent::StandingBy { standby, primary, resumed: resumed_from };
    sim.world.trace.record(sim.now(), row);
    Ok(resumed_from)
}

/// Take the link down without a promotion (the standby is being
/// restarted or retired): the primary's compaction stops waiting for it.
pub fn teardown_standby(sim: &mut RaveSim, primary: DataServiceId) -> Option<ReplicaLink> {
    let link = sim.world.replicas.remove(&primary)?;
    if let Some(ds) = sim.world.data_services.get_mut(&primary) {
        ds.set_retention_floor(None);
    }
    Some(link)
}

/// One replication round: plan frames past the link's cursor (bounded by
/// the ack window), charge each over the primary→standby channel, apply
/// on arrival (the standby's log, then its in-memory replica, in the same
/// event), and charge the ack back.
/// Returns the number of frames put in flight.
pub fn ship_tick(sim: &mut RaveSim, primary: DataServiceId) -> io::Result<usize> {
    let max_lag = sim.world.config.ship_max_lag;
    let Some(link) = sim.world.replicas.get(&primary) else { return Ok(0) };
    let window = SHIP_ACK_WINDOW.saturating_sub(link.in_flight);
    if window == 0 {
        return Ok(0);
    }
    let standby = link.standby;
    // The primary must flush its WAL before frames leave the host: a
    // frame must never describe bytes the OS still holds in a buffer.
    sim.world.data_mut(primary).sync_persistence()?;
    let world = &mut sim.world;
    let primary_ds = world.data_services.get_mut(&primary).expect("synced above");
    let Some((dir, kept)) = primary_ds.ship_source() else {
        let what = format!("{primary} has no store to ship from");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    };
    let link = world.replicas.get_mut(&primary).expect("link checked above");
    let frames =
        ship::plan(dir, kept, link.shipped_seq, max_lag, window, &mut link.file_bytes_read)?;
    if frames.is_empty() {
        return Ok(0);
    }
    let p_host = sim.world.data(primary).host.clone();
    let s_host = sim.world.data(standby).host.clone();
    let shipped = frames.len();
    let now = sim.now();
    for frame in frames {
        let bytes = frame.wire_size();
        {
            let link = sim.world.replicas.get_mut(&primary).expect("link checked above");
            link.in_flight += 1;
            link.shipped_frames += 1;
            link.shipped_bytes += bytes;
            link.shipped_seq = link.shipped_seq.max(frame.last_seq);
        }
        let (segment, first, last) = (frame.index, frame.first_seq, frame.last_seq);
        let entries = frame.count as usize;
        let row = TraceEvent::Shipped { primary, standby, segment, entries, first, last, bytes };
        sim.world.trace.record(now, row);
        let arrival = sim.world.send_bytes(now, &p_host, &s_host, bytes);
        let (p_host, s_host) = (p_host.clone(), s_host.clone());
        sim.schedule_at(arrival, move |sim| {
            let at = sim.now();
            // The link may have been torn down (promotion) while the
            // frame was on the wire; late frames are simply dropped.
            let Some(link) = sim.world.replicas.get_mut(&primary) else { return };
            let apply = link.log.apply_frame(&frame).expect("standby applies shipped frame");
            let ack = apply.ack;
            for e in &apply.entries {
                // The shipped log is authoritative: divergence between it
                // and the in-memory replica is a bug, not a condition.
                sim.world
                    .data_mut(standby)
                    .commit(e.at_secs, &e.stamped)
                    .expect("standby replays primary log");
            }
            // Keep the optimistic cursor monotone: it never trails what
            // the standby holds.
            if let Some(link) = sim.world.replicas.get_mut(&primary) {
                link.shipped_seq = link.shipped_seq.max(ack.last_seq);
            }
            let ack_arrival = sim.world.send_bytes(at, &s_host, &p_host, ACK_BYTES);
            sim.schedule_at(ack_arrival, move |sim| {
                let at = sim.now();
                let Some(link) = sim.world.replicas.get_mut(&primary) else { return };
                link.in_flight = link.in_flight.saturating_sub(1);
                link.acked_seq = link.acked_seq.max(ack.last_seq);
                let acked_seq = link.acked_seq;
                // Once the pipe drains, re-sync the optimistic cursor to
                // what the standby actually holds (a declined frame, torn
                // or past a gap, leaves them apart; re-planning from the
                // acked cursor re-ships the difference).
                if link.in_flight == 0 && link.acked_seq < link.shipped_seq {
                    link.shipped_seq = link.acked_seq;
                }
                // What the standby holds, the primary may compact away.
                if let Some(ds) = sim.world.data_services.get_mut(&primary) {
                    ds.set_retention_floor(Some(acked_seq));
                }
                if ack.torn {
                    let row = TraceEvent::AckTorn { standby, primary, seq: ack.last_seq };
                    sim.world.trace.record(at, row);
                }
            });
        });
    }
    Ok(shipped)
}

/// Periodic replication driver: run [`ship_tick`] every
/// `SHIP_INTERVAL_MS` until the horizon, stopping by
/// itself once the link (or the primary) is gone.
pub fn run_log_shipping(sim: &mut RaveSim, primary: DataServiceId, horizon: SimTime) {
    fn tick(sim: &mut RaveSim, primary: DataServiceId, horizon: SimTime) {
        if !sim.world.replicas.contains_key(&primary)
            || !sim.world.data_services.contains_key(&primary)
        {
            return;
        }
        if let Err(e) = ship_tick(sim, primary) {
            let row = TraceEvent::ShippingStopped { primary, error: e.to_string() };
            sim.world.trace.record(sim.now(), row);
            return;
        }
        let next = sim.now() + SimTime::from_millis(SHIP_INTERVAL_MS);
        if next <= horizon {
            sim.schedule_at(next, move |sim| tick(sim, primary, horizon));
        }
    }
    let first = sim.now() + SimTime::from_millis(SHIP_INTERVAL_MS);
    sim.schedule_at(first, move |sim| tick(sim, primary, horizon));
}

/// Promote the warm standby of a failed primary. The primary is removed
/// from the world and the registry; the standby takes the store its link
/// wrote the shipped log to, open as it stands (sequence numbers and
/// logging continue on the shipped segments, on the primary's segment
/// size and checkpoint cadence), and every subscriber is re-pointed at
/// once, its stream held for one control round trip and behind what the
/// primary still has on the wire to it — no snapshot marshal, no replay,
/// no file read.
///
/// Returns `None` when `primary` has no replica link.
pub fn promote_standby(sim: &mut RaveSim, primary: DataServiceId) -> Option<PromotionReport> {
    let link = sim.world.replicas.remove(&primary)?;
    let now = sim.now();
    let standby = link.standby;
    // The failed instance: its in-memory state is gone with the host,
    // but as the simulator we can still read it to *report* loss. Its
    // store stays open, untouched, until the standby has taken over.
    let mut failed = sim
        .world
        .data_services
        .remove(&primary)
        .unwrap_or_else(|| panic!("no data service {primary} to promote away from"));
    sim.world.registry.unpublish("RAVE", &failed.host, &failed.name);
    // Every entry the standby's log holds, its replica committed in the
    // event that wrote it: the log is handed over, not replayed.
    sim.world.data_mut(standby).set_store(link.log);

    let standby_last = sim.world.data(standby).audit.last_seq();
    let lost = failed.audit.last_seq().saturating_sub(standby_last);

    // Re-point subscribers, every one at once: what the promoted service
    // commits from now on is routed to it, held for one small control
    // round trip from the promoted host and behind what the primary still
    // has on the wire to it, a parcel included, which lands as any
    // delivery does. The replicas are warm: no bootstrap marshal, no replay.
    let s_host = sim.world.data(standby).host.clone();
    let mut completed_at = now;
    for (rs, interest) in failed.subscribers().clone() {
        let rs_host = sim.world.render(rs).host.clone();
        let rtt = sim.world.network.round_trip(&s_host, &rs_host, 128, 64);
        let held = failed.hold_stream(rs, now + rtt);
        let promoted = sim.world.data_mut(standby);
        promoted.subscribe_live(rs, interest);
        completed_at = completed_at.max(promoted.hold_stream(rs, held));
    }
    let report = PromotionReport {
        failed: primary,
        promoted: standby,
        warm: true,
        subscribers_moved: failed.subscribers().len(),
        lost_updates: lost,
        completed_at,
    };
    let row = TraceEvent::Promoted { seq: standby_last, report: Box::new(report.clone()) };
    sim.world.trace.record(now, row);
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::connect_render_service;
    use crate::data_service::DataService;
    use crate::ids::RenderServiceId;
    use crate::sched::rebalance::process_events;
    use crate::sched::SchedEvent;
    use crate::trace::TraceKind;
    use crate::world::{publish_update, RaveWorld};
    use crate::RaveConfig;
    use rave_scene::InterestSet;
    use rave_scene::{NodeKind, SceneUpdate};
    use rave_sim::Simulation;
    use rave_store::{StoreConfig, Wal};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rave-replica-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add(sim: &mut RaveSim, ds: DataServiceId, name: &str) -> rave_scene::NodeId {
        let id = sim.world.data_mut(ds).scene.allocate_id();
        publish_update(
            sim,
            ds,
            "u",
            SceneUpdate::AddNode {
                id,
                parent: rave_scene::NodeId(0),
                name: name.into(),
                kind: NodeKind::Group,
            },
        )
        .unwrap();
        id
    }

    /// Primary with a durable store + subscriber + warm standby, shipping.
    fn warm_world(
        tag: &str,
        max_lag: u64,
    ) -> (RaveSim, DataServiceId, DataServiceId, RenderServiceId, PathBuf, PathBuf) {
        // Small segments force rotations; huge checkpoint interval keeps
        // the whole WAL around for shipping.
        let store_cfg = StoreConfig { segment_max_bytes: 512, checkpoint_every: u64::MAX / 2 };
        warm_world_with(tag, max_lag, store_cfg)
    }

    fn warm_world_with(
        tag: &str,
        max_lag: u64,
        store_cfg: StoreConfig,
    ) -> (RaveSim, DataServiceId, DataServiceId, RenderServiceId, PathBuf, PathBuf) {
        let cfg = RaveConfig { ship_max_lag: max_lag, ..Default::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        let standby = sim.world.spawn_data_service("tower", "sess-standby");
        let rs = sim.world.spawn_render_service("laptop");
        sim.world.data_mut(primary).subscribe_live(rs, rave_scene::InterestSet::everything());
        let pdir = tmp_dir(&format!("{tag}-p"));
        let sdir = tmp_dir(&format!("{tag}-s"));
        sim.world.data_mut(primary).attach_store(&pdir, store_cfg).unwrap();
        establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();
        (sim, primary, standby, rs, pdir, sdir)
    }

    #[test]
    fn shipping_keeps_standby_in_lockstep() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("lockstep", 0);
        let horizon = sim.now() + SimTime::from_secs(30.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..40 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let p = sim.world.data(primary);
        let s = sim.world.data(standby);
        assert_eq!(s.audit.last_seq(), p.audit.last_seq(), "{}", sim.world.trace.render());
        assert_eq!(s.scene, p.scene);
        assert!(sim.world.trace.count(TraceKind::LogShip) > 1);
        // The standby's directory recovers to the same state.
        let rec = rave_store::recover(&sdir).unwrap();
        assert_eq!(rec.last_seq, p.audit.last_seq());
        assert_eq!(rec.tree, p.scene);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn lag_bound_limits_unshipped_tail() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("lag", 8);
        let horizon = sim.now() + SimTime::from_secs(30.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..30 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let p_last = sim.world.data(primary).audit.last_seq();
        let s_last = sim.world.data(standby).audit.last_seq();
        assert!(p_last - s_last <= 8, "lag {} exceeds bound", p_last - s_last);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn data_failure_event_promotes_the_standby_with_zero_loss() {
        let (mut sim, primary, standby, rs, pdir, sdir) = warm_world("promote", 0);
        let horizon = sim.now() + SimTime::from_secs(60.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..25 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let committed = sim.world.data(primary).audit.last_seq();

        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert_eq!(outcome.promotions.len(), 1, "{}", sim.world.trace.render());
        let report = &outcome.promotions[0];
        assert!(report.warm);
        assert_eq!(report.promoted, standby);
        assert_eq!(report.lost_updates, 0, "zero committed updates lost at lag 0");
        assert_eq!(report.subscribers_moved, 1);
        sim.run();

        // The primary is gone; the standby owns the session and the
        // subscriber, and sequence numbers continue.
        assert!(!sim.world.data_services.contains_key(&primary));
        assert_eq!(sim.world.data(standby).audit.last_seq(), committed);
        assert!(sim.world.data(standby).subscribers().contains_key(&rs));
        let id = add(&mut sim, standby, "post-promotion");
        sim.run();
        assert!(sim.world.render(rs).scene.contains(id), "subscriber keeps receiving updates");
        let seq = sim.world.data(standby).audit.last_seq();
        assert_eq!(seq, committed + 1, "sequence continues past the primary's");
        // And the promoted service logs durably to the shipped store.
        assert_eq!(sim.world.data(standby).store().map(|s| s.dir()), Some(sdir.as_path()));
        sim.world.data_mut(standby).sync_persistence().unwrap();
        assert_eq!(rave_store::recover(&sdir).unwrap().last_seq, seq);
        assert_eq!(sim.world.trace.count(TraceKind::Promote), 1);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A subscriber whose snapshot is in flight when the primary fails is
    /// re-pointed as any other: the parcel lands, nothing bootstraps again,
    /// and what the standby commits meanwhile lands behind the parcel.
    #[test]
    fn promotion_lands_a_parcel_in_flight() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("inflight", 0);
        let horizon = sim.now() + SimTime::from_secs(60.0);
        run_log_shipping(&mut sim, primary, horizon);
        let ids: Vec<_> = (0..12).map(|i| add(&mut sim, primary, &format!("n{i}"))).collect();
        sim.run();
        let joining = sim.world.spawn_render_service("desktop");
        let timing = connect_render_service(&mut sim, joining, primary, InterestSet::everything());

        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(outcome.promotions[0].warm);
        assert!(outcome.promotions[0].completed_at >= timing.ready_at, "held behind the parcel");
        let rename = SceneUpdate::SetName { id: ids[5], name: "in flight".into() };
        publish_update(&mut sim, standby, "u", rename).unwrap();
        sim.run();
        assert!(sim.world.render(joining).scene == sim.world.data(standby).scene);
        let landed: Vec<&TraceEvent> =
            sim.world.trace.of_kind(TraceKind::Bootstrap).map(|r| &r.event).collect();
        let want = TraceEvent::Bootstrapped { rs: joining, ds: primary };
        assert_eq!(landed, [&want], "landed once, no re-bootstrap");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// An update the promoted service commits at the instant of promotion
    /// reaches the subscriber: it is re-pointed at once, not one round
    /// trip later.
    #[test]
    fn an_update_committed_during_the_re_point_reaches_every_subscriber() {
        let (mut sim, primary, standby, rs, pdir, sdir) = warm_world("repoint", 0);
        let horizon = sim.now() + SimTime::from_secs(60.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..5 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(outcome.promotions[0].warm);
        let id = add(&mut sim, standby, "re-pointing");
        sim.run();
        assert!(sim.world.render(rs).scene.contains(id), "the update was lost");
        assert!(sim.world.render(rs).scene == sim.world.data(standby).scene);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn promotion_loss_is_bounded_by_the_lag() {
        let (mut sim, primary, _standby, _, pdir, sdir) = warm_world("lagloss", 8);
        let horizon = sim.now() + SimTime::from_secs(60.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..30 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        let report = &outcome.promotions[0];
        assert!(report.lost_updates <= 8, "lost {} > lag bound", report.lost_updates);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn data_failure_without_standby_falls_back_to_cold_recovery() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        let rs = sim.world.spawn_render_service("laptop");
        sim.world.data_mut(primary).subscribe_live(rs, rave_scene::InterestSet::everything());
        let pdir = tmp_dir("cold-p");
        sim.world.data_mut(primary).attach_store(&pdir, StoreConfig::default()).unwrap();
        for i in 0..10 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.world.data_mut(primary).sync_persistence().unwrap();
        sim.run();
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        sim.run();
        assert_eq!(outcome.promotions.len(), 1);
        let report = &outcome.promotions[0];
        assert!(!report.warm, "no link: cold recovery path");
        assert!(!sim.world.data_services.contains_key(&primary));
        let new_ds = report.promoted;
        assert_eq!(sim.world.data(new_ds).audit.last_seq(), 10);
        assert!(sim.world.data(new_ds).subscribers().contains_key(&rs));
        assert_eq!(sim.world.trace.count(TraceKind::Recovery), 1);
        let _ = std::fs::remove_dir_all(&pdir);
    }

    /// A failover, warm or cold, routes an avatar's poses as the failed
    /// master did: to the full replica and to the subset whose subtree
    /// holds the avatar, which both keep the master's copy, and not to a
    /// subset whose subtree does not.
    #[test]
    fn a_failover_routes_poses_to_the_replicas_that_hold_the_avatar() {
        use crate::collaboration::{move_camera, Participant};
        use rave_scene::{AvatarInfo, CameraParams, StampedUpdate};
        for warm in [true, false] {
            let tag = if warm { "pose-warm" } else { "pose-cold" };
            let (mut sim, primary, _, full, pdir, sdir) = warm_world(tag, 0);
            if !warm {
                teardown_standby(&mut sim, primary);
            }
            let (holder, other) =
                (add(&mut sim, primary, "holder"), add(&mut sim, primary, "other"));
            let avatar = sim.world.data_mut(primary).scene.allocate_id();
            let camera = CameraParams::default();
            let info = AvatarInfo { label: "u".into(), color: rave_math::Vec3::X, camera };
            let join = SceneUpdate::AddNode {
                id: avatar,
                parent: holder,
                name: "avatar-u".into(),
                kind: NodeKind::Avatar(info),
            };
            publish_update(&mut sim, primary, "u", join).unwrap();
            let (inside, outside) =
                (sim.world.spawn_render_service("desktop"), sim.world.spawn_render_service("onyx"));
            connect_render_service(&mut sim, inside, primary, InterestSet::subtrees([holder]));
            connect_render_service(&mut sim, outside, primary, InterestSet::subtrees([other]));
            sim.run();
            sim.world.data_mut(primary).sync_persistence().unwrap();
            if warm {
                ship_tick(&mut sim, primary).unwrap();
                sim.run();
            }
            let failure = [SchedEvent::DataFailure { service: primary }];
            let new_ds = process_events(&mut sim, primary, &failure).promotions[0].promoted;
            sim.run();
            let moved = CameraParams { position: rave_math::Vec3::new(1.0, 2.0, 3.0), ..camera };
            let pose = SceneUpdate::CameraMoved { id: avatar, camera: moved };
            let probe = StampedUpdate { seq: 0, origin: "u".into(), update: pose };
            let routed = sim.world.data_mut(new_ds).route(&probe);
            assert_eq!(routed, vec![full, inside], "warm: {warm}");
            assert_eq!(sim.world.data(new_ds).route_naive(&probe), routed, "warm: {warm}");
            move_camera(&mut sim, new_ds, Participant { avatar }, "u", moved).unwrap();
            sim.run();
            let state = |n: rave_scene::NodeRef<'_>| (n.kind().clone(), n.transform(), n.version());
            let master = sim.world.data(new_ds).scene.node(avatar).map(state);
            for replica in [inside, full] {
                let held = sim.world.render(replica).scene.node(avatar).map(state);
                assert_eq!(held, master, "{replica}, warm: {warm}");
            }
            assert!(!sim.world.render(outside).scene.contains(avatar), "warm: {warm}");
            let _ = std::fs::remove_dir_all(&pdir);
            let _ = std::fs::remove_dir_all(&sdir);
        }
    }

    /// Eight updates of about 150 bytes on `ds`, whose store is at `dir`:
    /// the seven before the eighth rotate its 512-byte segments, and the
    /// eighth, not an earlier one, takes a checkpoint.
    fn assert_keeps_512_byte_segments_and_8_update_checkpoints(
        sim: &mut RaveSim,
        ds: DataServiceId,
        dir: &Path,
    ) {
        let active =
            |dir: &Path| rave_store::segment::list_segments(dir).unwrap().last().unwrap().0;
        let (segment, checkpoints) = (active(dir), sim.world.trace.count(TraceKind::Checkpoint));
        for i in 0..8 {
            assert_eq!(sim.world.trace.count(TraceKind::Checkpoint), checkpoints, "after {i}");
            add(sim, ds, &format!("{i:0>120}"));
        }
        assert_eq!(sim.world.trace.count(TraceKind::Checkpoint), checkpoints + 1);
        assert!(active(dir) > segment, "the segments rotated at 512 bytes");
    }

    /// Both failover paths reopen the store with the failed primary's
    /// own config, not a default one.
    #[test]
    fn failover_keeps_the_primary_store_config() {
        let store_cfg = StoreConfig { segment_max_bytes: 512, checkpoint_every: 8 };
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world_with("cfg-warm", 0, store_cfg);
        for i in 0..10 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        while ship_tick(&mut sim, primary).unwrap() > 0 {
            sim.run();
        }
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(outcome.promotions[0].warm);
        sim.run();
        assert_keeps_512_byte_segments_and_8_update_checkpoints(&mut sim, standby, &sdir);

        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        let cold_dir = tmp_dir("cfg-cold");
        sim.world.data_mut(primary).attach_store(&cold_dir, store_cfg).unwrap();
        for i in 0..10 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.world.data_mut(primary).sync_persistence().unwrap();
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(!outcome.promotions[0].warm);
        let recovered = outcome.promotions[0].promoted;
        assert_keeps_512_byte_segments_and_8_update_checkpoints(&mut sim, recovered, &cold_dir);
        for dir in [pdir, sdir, cold_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn data_failure_with_nothing_durable_is_refused() {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        add(&mut sim, primary, "n");
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(outcome.promotions.is_empty());
        assert!(outcome.refused);
        assert_eq!(sim.world.trace.count(TraceKind::Refusal), 1);
    }

    #[test]
    fn standby_restart_resumes_from_its_durable_prefix() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("restart", 0);
        let horizon = sim.now() + SimTime::from_secs(30.0);
        run_log_shipping(&mut sim, primary, horizon);
        for i in 0..20 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        sim.run();
        let shipped_before = sim.world.replicas.get(&primary).unwrap().shipped_bytes;
        // "Restart" the standby process: tear the link down and
        // re-establish over the same directories.
        teardown_standby(&mut sim, primary).unwrap();
        let resumed_from = establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();
        assert_eq!(resumed_from, 20, "resume cursor is the durable prefix, not zero");
        // Nothing new to ship: the re-established link stays quiet.
        let shipped = ship_tick(&mut sim, primary).unwrap();
        assert_eq!(shipped, 0, "no re-shipping of held history");
        let _ = shipped_before;
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn ticks_in_lockstep_read_no_file() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("cursor", 0);
        // Four records of about 165 bytes a tick; a 512-byte segment takes
        // three.
        for tick in 0..30 {
            for i in 0..4 {
                add(&mut sim, primary, &format!("n{tick}-{i}"));
            }
            ship_tick(&mut sim, primary).unwrap();
            sim.run();
            let p_last = sim.world.data(primary).audit.last_seq();
            assert_eq!(sim.world.data(standby).audit.last_seq(), p_last);
            assert_eq!(sim.world.replicas[&primary].log.last_seq(), p_last, "memory is the log");
        }
        let link = &sim.world.replicas[&primary];
        assert!(list_rotations(&pdir) >= 3, "the 512-byte segments rotated");
        // A tick after a rotation that sealed records the standby lacked
        // ships two frames: the sealed segment's last records, then the
        // new one's.
        assert!(link.shipped_frames > 30, "no rotation fell between two ticks");
        // In lockstep every tick ships what the primary's WAL keeps: no
        // segment is read back, not even after a rotation.
        assert_eq!(link.file_bytes_read(), 0);
        // Each standby segment is the primary's, byte for byte: sealed
        // ones exactly their records, the active one over the same fill.
        for (index, path) in rave_store::segment::list_segments(&pdir).unwrap() {
            let copy = sdir.join(rave_store::segment::segment_file_name(index));
            assert_eq!(std::fs::read(copy).unwrap(), std::fs::read(path).unwrap(), "{index}");
        }
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A standby directory whose log runs past what recovery replays — a
    /// record torn in its first segment while later ones hold records — is
    /// refused, and the world is left as it was.
    #[test]
    fn a_standby_directory_torn_before_its_end_is_refused() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("torn-dir", 0);
        for i in 0..24 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        while ship_tick(&mut sim, primary).unwrap() > 0 {
            sim.run();
        }
        teardown_standby(&mut sim, primary).unwrap();
        let segments = rave_store::segment::list_segments(&sdir).unwrap();
        assert!(segments.len() >= 3, "two earlier copies and the one written last");
        let first = &segments[0].1;
        let mut bytes = std::fs::read(first).unwrap();
        bytes[rave_store::segment::SEGMENT_HEADER_LEN + 20] ^= 0xff; // inside the first record
        std::fs::write(first, &bytes).unwrap();

        let seen = |sim: &RaveSim| {
            let ds = sim.world.data(standby);
            (ds.scene.clone(), ds.audit.last_seq(), sim.world.trace.recorded())
        };
        let before = seen(&sim);
        let err = establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(sim.world.replicas.is_empty(), "no link");
        assert!(seen(&sim) == before, "the standby and the trace are as they were");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A standby is established only for a primary with a store, against
    /// that store's directory; anything else is refused as invalid input
    /// and the world is left as it was.
    #[test]
    fn a_standby_of_a_primary_without_its_store_directory_is_refused() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("no-store", 0);
        teardown_standby(&mut sim, primary).unwrap();
        let lone = sim.world.spawn_data_service("onyx", "lone");
        let seen = |sim: &RaveSim| {
            let ds = sim.world.data(standby);
            (ds.scene.clone(), ds.audit.last_seq(), sim.world.trace.recorded())
        };
        let before = seen(&sim);
        for (from, dir) in [(primary, sdir.as_path()), (lone, pdir.as_path())] {
            let err = establish_standby(&mut sim, from, standby, dir, &sdir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(sim.world.replicas.is_empty(), "no link");
            assert!(seen(&sim) == before, "the standby and the trace are as they were");
        }
        // Another spelling of the store's directory is the same directory.
        let respelled = pdir.join("..").join(pdir.file_name().unwrap()).join(".");
        establish_standby(&mut sim, primary, standby, &respelled, &sdir).unwrap();
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A primary that no longer holds a store has nothing to ship from:
    /// shipping stops with a traced error instead of a panic.
    #[test]
    fn a_primary_without_a_store_stops_shipping() {
        let (mut sim, primary, _, _, pdir, sdir) = warm_world("lost-store", 0);
        let storeless = DataService::new(primary, "adrenochrome", "sess");
        sim.world.data_services.insert(primary, storeless);
        let horizon = sim.now() + SimTime::from_secs(5.0);
        run_log_shipping(&mut sim, primary, horizon);
        sim.run();
        let stopped = sim.world.trace.last_of(TraceKind::LogShip).map(|row| &row.event);
        assert!(
            matches!(stopped, Some(TraceEvent::ShippingStopped { error, .. }) if error.contains("no store")),
            "{}",
            sim.world.trace.render()
        );
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    fn list_rotations(dir: &Path) -> usize {
        rave_store::segment::list_segments(dir).unwrap().len() - 1
    }

    /// `benchmark/README.md`, finding 1: an import published as one batch
    /// rotates the segment and reaches a checkpoint before the first
    /// tick; compaction used to delete the sealed segment the standby had
    /// never seen, and every later tick failed.
    #[test]
    fn compaction_waits_for_the_standby() {
        let cfg = RaveConfig { ship_max_lag: 0, ..Default::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        let standby = sim.world.spawn_data_service("tower", "sess-standby");
        let (pdir, sdir) = (tmp_dir("strand-p"), tmp_dir("strand-s"));
        sim.world.data_mut(primary).attach_store(&pdir, StoreConfig::default()).unwrap();
        establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();

        // 516 updates of ~2.4 kB: past the 1 MiB segment and past
        // `checkpoint_every` = 256 inside one publish.
        let mesh = std::sync::Arc::new(rave_scene::MeshData {
            positions: vec![rave_math::Vec3::X; 100],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; 100],
            texture_bytes: 0,
        });
        let updates = (0..516)
            .map(|i| {
                let id = sim.world.data_mut(primary).scene.allocate_id();
                let kind = NodeKind::Mesh(mesh.clone());
                let parent = rave_scene::NodeId(0);
                (
                    "import".to_string(),
                    SceneUpdate::AddNode { id, parent, name: format!("m{i}"), kind },
                )
            })
            .collect();
        crate::world::publish_batch(&mut sim, primary, updates).unwrap();
        assert!(list_rotations(&pdir) >= 1, "the batch rotated the segment");
        assert!(sim.world.trace.count(TraceKind::Checkpoint) >= 1, "and crossed a checkpoint");

        let committed = sim.world.data(primary).audit.last_seq();
        for _ in 0..8 {
            ship_tick(&mut sim, primary).expect("history is still there to ship");
            sim.run();
            if sim.world.replicas[&primary].log.last_seq() == committed {
                break;
            }
        }
        assert_eq!(sim.world.replicas[&primary].log.last_seq(), committed);
        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert_eq!(outcome.promotions[0].lost_updates, 0);
        assert_eq!(sim.world.data(standby).audit.last_seq(), committed);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn compaction_resumes_once_the_standby_has_caught_up() {
        let store_cfg = StoreConfig { segment_max_bytes: 512, checkpoint_every: 10 };
        let (mut sim, primary, _standby, _, pdir, sdir) =
            warm_world_with("resume-compact", 0, store_cfg);
        let oldest_kept = |dir: &Path| Wal::replay_after(dir, 0).unwrap()[0].stamped.seq;
        // Three checkpoints with nothing acknowledged keep the whole log.
        for i in 0..30 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        assert_eq!(sim.world.trace.count(TraceKind::Checkpoint), 3);
        assert_eq!(oldest_kept(&pdir), 1);
        while ship_tick(&mut sim, primary).unwrap() > 0 {
            sim.run();
        }
        assert_eq!(sim.world.replicas[&primary].acked_seq, 30);
        // The next one compacts what the standby now holds, and no more.
        for i in 30..40 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        assert!((2..=31).contains(&oldest_kept(&pdir)), "kept from {}", oldest_kept(&pdir));
        // Without a link the snapshot alone decides: only the head stays.
        teardown_standby(&mut sim, primary).unwrap();
        for i in 40..50 {
            add(&mut sim, primary, &format!("n{i}"));
        }
        assert_eq!(list_rotations(&pdir), 0);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }
}
