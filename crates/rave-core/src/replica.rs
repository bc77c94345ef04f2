//! Warm-standby replication: continuous WAL log shipping and measured
//! promotion (§6 "data servers could mirror each other", production
//! grade).
//!
//! This is the one replication path. A [`ReplicaLink`] continuously
//! streams the primary's WAL — sealed segments verbatim, plus the
//! unsealed tail past the [`crate::RaveConfig::ship_max_lag`] bound — to
//! a standby data service on another host, through the same serializing
//! `rave_net` channels every other transfer uses. The standby applies
//! each frame to its own on-disk log *and* its in-memory replica, so at
//! promotion time there is (almost) nothing left to do: re-point the
//! subscribers and continue sequence numbers where the primary stopped.
//!
//! Failure enters through the scheduler:
//! [`crate::sched::SchedEvent::DataFailure`] is handled by
//! `rebalance::process_events`, which promotes the standby when a link
//! exists and falls back to the cold
//! [`crate::bootstrap::recover_data_service`] path (durable store, full
//! re-bootstrap of every subscriber) when one does not.

use crate::bootstrap::connect_render_service;
use crate::data_service::SubState;
use crate::ids::DataServiceId;
use crate::trace::TraceEvent;
use crate::world::RaveSim;
use rave_scene::AuditEntry;
use rave_sim::SimTime;
use rave_store::ship::{ShipFrame, Shipper, StandbyLog, ACK_BYTES};
use rave_store::Wal;
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
    /// Plans frames from the primary's WAL directory; kept across ticks
    /// so each one reads only what the log grew by.
    pub shipper: Shipper,
    /// The standby's durable log (its directory is a prefix of the
    /// primary's, and becomes the promoted service's store).
    pub log: StandbyLog,
    /// Highest sequence number the standby has acknowledged.
    pub acked_seq: u64,
    /// Optimistic cursor covering frames still in flight, so overlapping
    /// ship ticks never re-send what an earlier tick already queued.
    pub shipped_seq: u64,
    /// Segment index the standby asked to have re-shipped (torn frame).
    pub resend: Option<u64>,
    /// Frames sent but not yet acknowledged.
    pub in_flight: usize,
    /// Lifetime accounting, for traces and benches.
    pub shipped_frames: u64,
    pub shipped_bytes: u64,
}

impl ReplicaLink {
    /// Bytes of the primary's active segments the link's ticks have read.
    pub fn tail_bytes_read(&self) -> u64 {
        self.shipper.tail_bytes_read()
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
    /// Durably shipped entries the standby had not yet applied in memory
    /// and replayed at promotion time (normally 0 for a warm standby).
    pub residual_entries: usize,
    /// Wire bytes of those residual entries.
    pub replayed_bytes: u64,
    /// Committed updates the primary held that never reached the
    /// standby's log — bounded by the configured lag.
    pub lost_updates: u64,
    /// Virtual time at which the last subscriber is live again.
    pub completed_at: SimTime,
}

/// Establish a warm standby for `primary` (whose WAL lives under
/// `primary_dir`): the standby service resumes from whatever prefix its
/// own directory already holds — a restarted standby does NOT re-ship
/// history it kept — and the link starts shipping from that cursor on
/// the next [`ship_tick`]. From here on the primary's checkpoints keep
/// every WAL segment the standby has not acknowledged.
pub fn establish_standby(
    sim: &mut RaveSim,
    primary: DataServiceId,
    standby: DataServiceId,
    primary_dir: impl AsRef<Path>,
    standby_dir: impl AsRef<Path>,
) -> io::Result<u64> {
    let log = StandbyLog::open(standby_dir.as_ref())?;
    let resumed_from = log.last_seq();
    // Seed the standby's in-memory replica from its durable prefix, so
    // memory and disk advance together from one consistent point.
    let rec = rave_store::recover(standby_dir.as_ref())?;
    sim.world.data_mut(standby).seed_from(&rec);
    sim.world.replicas.insert(
        primary,
        ReplicaLink {
            primary,
            standby,
            shipper: Shipper::new(primary_dir.as_ref()),
            log,
            acked_seq: resumed_from,
            shipped_seq: resumed_from,
            resend: None,
            in_flight: 0,
            shipped_frames: 0,
            shipped_bytes: 0,
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
/// on arrival (disk + in-memory replica), and charge the ack back.
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
    let link = sim.world.replicas.get_mut(&primary).expect("link checked above");
    let frames = link.shipper.plan(link.shipped_seq, link.resend, max_lag, window)?;
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
            if let Some(last) = frame.last_seq() {
                link.shipped_seq = link.shipped_seq.max(last);
            }
        }
        let row = match &frame {
            ShipFrame::Sealed { index, bytes: file } => {
                let (segment, len) = (*index, file.len());
                TraceEvent::ShippedSegment { primary, standby, segment, len, bytes }
            }
            ShipFrame::Tail { index, entries, .. } => {
                let seq = |e: Option<&AuditEntry>| e.map_or(0, |e| e.stamped.seq);
                let (segment, first, last) = (*index, seq(entries.first()), seq(entries.last()));
                let entries = entries.len();
                TraceEvent::ShippedTail { primary, standby, segment, entries, first, last, bytes }
            }
        };
        sim.world.trace.record(now, row);
        let arrival = sim.world.send_bytes(now, &p_host, &s_host, bytes);
        let (p_host, s_host) = (p_host.clone(), s_host.clone());
        sim.schedule_at(arrival, move |sim| {
            let at = sim.now();
            // The link may have been torn down (promotion) while the
            // frame was on the wire; late frames are simply dropped.
            let Some(link) = sim.world.replicas.get_mut(&primary) else { return };
            let apply = link.log.apply(&frame).expect("standby applies shipped frame");
            let ack = apply.ack;
            for e in &apply.entries {
                // The shipped log is authoritative: divergence between it
                // and the in-memory replica is a bug, not a condition.
                sim.world
                    .data_mut(standby)
                    .commit(e.at_secs, &e.stamped)
                    .expect("standby replays primary log");
            }
            // For tail-sealed coverage the tail cursor is what the sealed
            // frame ends at; keep the optimistic cursor monotone.
            if let Some(link) = sim.world.replicas.get_mut(&primary) {
                link.shipped_seq = link.shipped_seq.max(ack.last_seq);
            }
            let ack_arrival = sim.world.send_bytes(at, &s_host, &p_host, ACK_BYTES);
            sim.schedule_at(ack_arrival, move |sim| {
                let at = sim.now();
                let Some(link) = sim.world.replicas.get_mut(&primary) else { return };
                link.in_flight = link.in_flight.saturating_sub(1);
                link.acked_seq = link.acked_seq.max(ack.last_seq);
                link.resend = ack.resend;
                let acked_seq = link.acked_seq;
                // Once the pipe drains, re-sync the optimistic cursor to
                // what the standby actually holds (a declined or torn
                // frame leaves them apart; re-planning from the acked
                // cursor re-ships the difference).
                if link.in_flight == 0 && link.acked_seq < link.shipped_seq {
                    link.shipped_seq = link.acked_seq;
                }
                // What the standby holds, the primary may compact away.
                if let Some(ds) = sim.world.data_services.get_mut(&primary) {
                    ds.set_retention_floor(Some(acked_seq));
                }
                if let Some(segment) = ack.resend {
                    let row = TraceEvent::AckTorn { standby, primary, seq: ack.last_seq, segment };
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
/// from the world and the registry; the standby replays any durably
/// shipped entries it had not yet applied in memory, attaches the
/// shipped store with the primary's store config (sequence numbers and
/// logging continue on the shipped segments), and every subscriber is
/// re-pointed with one control round trip charged per flip — no snapshot
/// marshal, no trail re-replay.
///
/// Returns `None` when `primary` has no replica link.
pub fn promote_standby(
    sim: &mut RaveSim,
    primary: DataServiceId,
) -> io::Result<Option<PromotionReport>> {
    let Some(link) = sim.world.replicas.remove(&primary) else { return Ok(None) };
    let now = sim.now();
    let standby = link.standby;
    // The failed instance: its in-memory state is gone with the host,
    // but as the simulator we can still read it to *report* loss. Its
    // store stays open, untouched, until the standby has taken over.
    let failed = sim
        .world
        .data_services
        .remove(&primary)
        .unwrap_or_else(|| panic!("no data service {primary} to promote away from"));
    sim.world.registry.unpublish("RAVE", &failed.host, &failed.name);

    // Residual: entries on the standby's disk (shipped, durable) that
    // its in-memory replica has not applied yet — e.g. the standby
    // process restarted after the last apply. Normally empty.
    let applied = sim.world.data(standby).audit.last_seq();
    let residual = Wal::replay_after(link.log.dir(), applied)?;
    let replayed_bytes: u64 = residual.iter().map(|e| e.stamped.wire_size()).sum();
    for e in &residual {
        sim.world
            .data_mut(standby)
            .commit(e.at_secs, &e.stamped)
            .expect("standby replays shipped log");
    }
    // The shipped directory *is* a WAL: attach it so the promoted
    // service appends (and checkpoints) where shipping stopped, on the
    // primary's segment size and cadence.
    let store_cfg = failed.store().map(|store| *store.config()).unwrap_or_default();
    sim.world.data_mut(standby).attach_store(link.log.dir(), store_cfg)?;

    let standby_last = sim.world.data(standby).audit.last_seq();
    let lost = failed.audit.last_seq().saturating_sub(standby_last);

    // Re-point subscribers: each flip is one small control round trip
    // from the promoted host — the replicas themselves are already warm,
    // so there is no bootstrap marshal and no buffered-update replay. A
    // subscriber whose snapshot was still in flight lost it with the
    // primary: it bootstraps again, from the standby.
    let s_host = sim.world.data(standby).host.clone();
    let mut completed_at = now;
    for (&rs, sub) in failed.subscribers() {
        let interest = sub.interest.clone();
        if sub.state != SubState::Live {
            let timing = connect_render_service(sim, rs, standby, interest);
            completed_at = completed_at.max(timing.ready_at);
            continue;
        }
        let rs_host = sim.world.render(rs).host.clone();
        let rtt = sim.world.network.round_trip(&s_host, &rs_host, 128, 64);
        let at = now + rtt;
        completed_at = completed_at.max(at);
        sim.schedule_at(at, move |sim| {
            sim.world.data_mut(standby).subscribe_live(rs, interest);
        });
    }
    let report = PromotionReport {
        failed: primary,
        promoted: standby,
        warm: true,
        subscribers_moved: failed.subscribers().len(),
        residual_entries: residual.len(),
        replayed_bytes,
        lost_updates: lost,
        completed_at,
    };
    sim.world.trace.record(now, TraceEvent::Promoted { seq: standby_last, report: report.clone() });
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RenderServiceId;
    use crate::sched::rebalance::process_events;
    use crate::sched::SchedEvent;
    use crate::trace::TraceKind;
    use crate::world::{publish_update, RaveWorld};
    use crate::RaveConfig;
    use rave_scene::InterestSet;
    use rave_scene::{NodeKind, SceneUpdate};
    use rave_sim::Simulation;
    use rave_store::StoreConfig;
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
        let store_cfg = StoreConfig {
            segment_max_bytes: 512,
            checkpoint_every: u64::MAX / 2,
            sync_writes: false,
        };
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

    /// A subscriber whose snapshot is in flight when the primary fails
    /// lost it with the primary: promotion bootstraps it again from the
    /// standby, and it catches up what the standby commits meanwhile.
    #[test]
    fn promotion_re_bootstraps_a_subscriber_in_flight() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("inflight", 0);
        let horizon = sim.now() + SimTime::from_secs(60.0);
        run_log_shipping(&mut sim, primary, horizon);
        let ids: Vec<_> = (0..12).map(|i| add(&mut sim, primary, &format!("n{i}"))).collect();
        sim.run();
        let joining = sim.world.spawn_render_service("desktop");
        crate::bootstrap::connect_render_service(
            &mut sim,
            joining,
            primary,
            InterestSet::everything(),
        );

        let outcome =
            process_events(&mut sim, primary, &[SchedEvent::DataFailure { service: primary }]);
        assert!(outcome.promotions[0].warm);
        let sub = sim.world.data(standby).subscribers()[&joining].state;
        assert!(matches!(sub, SubState::Bootstrapping { .. }), "{sub:?}");
        let rename = SceneUpdate::SetName { id: ids[5], name: "in flight".into() };
        publish_update(&mut sim, standby, "u", rename).unwrap();
        sim.run();
        assert!(sim.world.render(joining).scene == sim.world.data(standby).scene);
        let rows = sim.world.trace.of_kind(TraceKind::Bootstrap);
        assert!(rows.into_iter().any(|r| matches!(r.event, TraceEvent::SnapshotDropped { .. })));
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
        let store_cfg =
            StoreConfig { segment_max_bytes: 512, checkpoint_every: 8, sync_writes: false };
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
    fn ticks_read_only_what_the_log_grew_by() {
        let (mut sim, primary, standby, _, pdir, sdir) = warm_world("cursor", 0);
        for i in 0..60 {
            add(&mut sim, primary, &format!("n{i}"));
            ship_tick(&mut sim, primary).unwrap();
            sim.run();
            let p_last = sim.world.data(primary).audit.last_seq();
            assert_eq!(sim.world.data(standby).audit.last_seq(), p_last);
        }
        let link = &sim.world.replicas[&primary];
        let log_bytes = Wal::disk_bytes(&pdir).unwrap();
        assert!(list_rotations(&pdir) >= 3, "the 512-byte segments rotated");
        // In lockstep no byte is read twice: appended bytes once, and the
        // new active segment whole after each rotation.
        assert!(link.tail_bytes_read() <= log_bytes, "{} > {log_bytes}", link.tail_bytes_read());
        assert_eq!(link.log.reopens(), 0, "every standby segment was created, then kept open");
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
        let store_cfg =
            StoreConfig { segment_max_bytes: 512, checkpoint_every: 10, sync_writes: false };
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
