//! Property tests on WAL log shipping: a primary whose log rotates at
//! *arbitrary* points is shipped frame by frame to a standby, with the
//! link failing at an *arbitrary* step — and the standby's durable state
//! is always an exact prefix of the primary's committed trail. Resuming
//! the link afterwards converges to full equality, losing nothing. A
//! planner that cuts frames from the records the WAL keeps for the
//! standby, and a standby store whose log stays open, are held to the
//! same contract under arbitrary interleavings of appends, rotations,
//! compaction, torn frames and resyncs: frame for frame what the directory
//! alone plans, and every standby segment the primary's record bytes. A
//! live link, driven event by event, keeps the standby's replica exactly
//! what its log holds, and promotes it after any delivery with nothing
//! read, replayed or lost.

use proptest::prelude::*;
use rave::scene::{AuditEntry, NodeKind, SceneTree, SceneUpdate, StampedUpdate};
use rave::store::record::scan_records;
use rave::store::segment::{list_segments, SEGMENT_HEADER_LEN};
use rave::store::ship::{plan, ShipAck, ShipFrame};
use rave::store::wal::Wal;
use rave::store::{Store, StoreConfig};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rave-prop-ship-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Append `n` AddNode updates to a fresh WAL under `dir` with the given
/// segment cap (small caps force rotation at arbitrary entry boundaries).
/// Returns the committed trail for prefix comparison.
fn build_primary(dir: &Path, n: u64, seg_bytes: u64) -> Vec<AuditEntry> {
    let (mut wal, _) = Wal::open(dir, seg_bytes).unwrap();
    let mut trail = Vec::new();
    grow(&mut wal, &mut SceneTree::new(), &mut trail, n);
    trail
}

/// Append `n` more AddNode updates to an open primary log and its trail.
fn grow(wal: &mut Wal, tree: &mut SceneTree, trail: &mut Vec<AuditEntry>, n: u64) {
    for _ in 0..n {
        let seq = trail.len() as u64 + 1;
        let id = tree.allocate_id();
        let update = SceneUpdate::AddNode {
            id,
            parent: tree.root(),
            name: format!("n{seq}"),
            kind: NodeKind::Group,
        };
        update.apply(tree).unwrap();
        let e = AuditEntry {
            at_secs: seq as f64 * 0.5,
            stamped: StampedUpdate { seq, origin: "prop".into(), update },
        };
        wal.append(&e).unwrap();
        trail.push(e);
    }
    wal.sync().unwrap();
}

/// Assert the standby directory recovers to EXACTLY the primary trail's
/// prefix of length `rec.last_seq` — never garbage, never a gap.
fn assert_exact_prefix(sdir: &Path, trail: &[AuditEntry]) -> u64 {
    let rec = rave::store::recover(sdir).unwrap();
    assert!(rec.last_seq <= trail.len() as u64, "standby never ahead of the primary");
    assert_eq!(rec.entries.len() as u64, rec.last_seq, "contiguous from seq 1");
    for (got, want) in rec.entries.iter().zip(trail) {
        assert_eq!(got, want, "shipped entry differs from committed entry");
    }
    let mut prefix = SceneTree::new();
    for e in &trail[..rec.last_seq as usize] {
        e.stamped.update.apply(&mut prefix).unwrap();
    }
    assert_eq!(rec.tree, prefix, "recovered tree is the prefix state");
    rec.last_seq
}

/// A segment file's header and records, without the fill past them.
fn records_of(bytes: &[u8]) -> &[u8] {
    &bytes[..SEGMENT_HEADER_LEN + scan_records(&bytes[SEGMENT_HEADER_LEN..]).clean_len]
}

/// Read the primary's segments into `seen` (header and records by index;
/// a segment compaction deleted keeps its last bytes, which were final).
fn note_primary(pdir: &Path, seen: &mut BTreeMap<u64, Vec<u8>>) {
    for (index, path) in list_segments(pdir).unwrap() {
        seen.insert(index, records_of(&std::fs::read(path).unwrap()).to_vec());
    }
}

/// Every standby segment is a byte-for-byte prefix of the primary's
/// records, followed by nothing but zeros.
fn assert_byte_prefix(sdir: &Path, seen: &BTreeMap<u64, Vec<u8>>) {
    for (index, path) in list_segments(sdir).unwrap() {
        let bytes = std::fs::read(path).unwrap();
        let records = records_of(&bytes);
        assert!(seen[&index].starts_with(records), "standby segment {index} is not a prefix");
        assert!(bytes[records.len()..].iter().all(|&b| b == 0), "segment {index}: not a fill");
    }
}

/// A standby's store on `sdir`, on the primary's segment size.
fn standby_store(sdir: &Path, seg_bytes: u64) -> Store {
    let cfg = StoreConfig { segment_max_bytes: seg_bytes, ..StoreConfig::default() };
    Store::open(sdir, cfg).unwrap()
}

/// What the directory alone plans for a standby at `acked_seq`.
fn fresh(pdir: &Path, acked_seq: u64, max_lag: u64, limit: usize) -> Vec<ShipFrame> {
    plan(pdir, &mut [], acked_seq, max_lag, limit, &mut 0).unwrap()
}

/// Drive the ship protocol one frame at a time until the plan is empty,
/// stopping early after `stop_after` frames (None = run to completion).
/// Returns the number of frames applied.
fn ship_until(pdir: &Path, standby: &mut Store, max_lag: u64, stop_after: Option<usize>) -> usize {
    let mut ack = ShipAck { last_seq: standby.last_seq(), torn: false };
    let mut steps = 0usize;
    loop {
        if let Some(limit) = stop_after {
            if steps >= limit {
                return steps;
            }
        }
        let frames = fresh(pdir, ack.last_seq, max_lag, 1);
        let Some(frame) = frames.into_iter().next() else { return steps };
        ack = standby.apply_frame(&frame).unwrap().ack;
        steps += 1;
        assert!(steps < 10_000, "ship loop must converge");
    }
}

proptest! {
    /// Rotate the WAL at arbitrary points (tiny random segment caps),
    /// kill the link at an arbitrary ship step: the standby's durable
    /// state is an exact committed prefix. Re-establishing the link
    /// (a fresh `Store::open` over the same directory, lag bound 0)
    /// then converges to the full trail — zero committed updates lost.
    #[test]
    fn failure_at_any_step_leaves_an_exact_prefix_and_resume_converges(
        n in 1u64..40,
        seg_bytes in 96u64..1024,
        max_lag in 0u64..6,
        fail_step in 0usize..60,
        case in any::<u64>(),
    ) {
        let pdir = tmp_dir("fail-p", case);
        let sdir = tmp_dir("fail-s", case);
        let trail = build_primary(&pdir, n, seg_bytes);

        // Phase 1: ship until the injected failure (or until drained).
        let mut standby = standby_store(&sdir, seg_bytes);
        ship_until(&pdir, &mut standby, max_lag, Some(fail_step));
        let at_failure = standby.last_seq();
        drop(standby);
        let durable = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(durable, at_failure, "cursor matches what recovery sees");

        // Phase 2: the standby restarts and the link resumes from its
        // durable cursor; with no lag allowance it drains completely.
        let mut standby = standby_store(&sdir, seg_bytes);
        prop_assert_eq!(standby.last_seq(), at_failure, "resume from the durable prefix");
        ship_until(&pdir, &mut standby, 0, None);
        prop_assert_eq!(standby.last_seq(), n, "resume converges to the full trail");
        let full = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(full, n, "zero committed updates lost");

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }

    /// Corrupt one arbitrary byte of the first frame of a sealed segment
    /// on the wire: the standby declines it as torn, its cursor unmoved,
    /// and the plans from that cursor ship the records again, intact, and
    /// converge to full equality.
    #[test]
    fn torn_sealed_frame_is_declined_and_reshipped(
        n in 8u64..30,
        flip_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let pdir = tmp_dir("torn-p", case);
        let sdir = tmp_dir("torn-s", case);
        // 128-byte cap: several sealed segments for any n in range.
        let trail = build_primary(&pdir, n, 128);
        let active = list_segments(&pdir).unwrap().last().unwrap().0;
        let mut standby = standby_store(&sdir, 128);

        let mut ack = ShipAck { last_seq: 0, torn: false };
        let mut corrupted = false;
        let mut steps = 0usize;
        loop {
            let frames = fresh(&pdir, ack.last_seq, 0, 1);
            let Some(mut frame) = frames.into_iter().next() else { break };
            if !corrupted && frame.index < active {
                let at = ((frame.records.len() - 1) as f64 * flip_frac) as usize;
                frame.records[at] ^= 0xff;
                let apply = standby.apply_frame(&frame).unwrap();
                let declined = ShipAck { last_seq: ack.last_seq, torn: true };
                prop_assert_eq!(apply.ack, declined, "declined as torn, the cursor unmoved");
                prop_assert!(apply.entries.is_empty(), "nothing applied from a torn frame");
                ack = apply.ack;
                corrupted = true;
                continue;
            }
            ack = standby.apply_frame(&frame).unwrap().ack;
            steps += 1;
            prop_assert!(steps < 10_000, "ship loop must converge");
        }
        prop_assert!(corrupted, "a sealed frame was shipped and corrupted");
        prop_assert_eq!(standby.last_seq(), n);
        let full = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(full, n);

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }

    /// The primary's side of a `ReplicaLink`, driven step by step: the
    /// log grows, rotates and is compacted behind the acknowledged cursor
    /// while frames sit in a bounded in-flight window, arrive torn and are
    /// declined, and the optimistic cursor is pulled back to the
    /// acknowledged one. At every tick the planner over the WAL's kept
    /// runs — never more than two — plans exactly what the directory alone
    /// does, and after every delivery the standby — one store, its log
    /// open across frames — is an exact prefix of the committed trail,
    /// each of its segments a byte-for-byte prefix of the primary's
    /// records.
    #[test]
    fn kept_cursor_and_open_writer_match_the_stateless_protocol(
        seg_bytes in 128u64..900,
        max_lag in 0u64..4,
        steps in prop::collection::vec((0usize..9, 1u64..6, any::<bool>()), 1..70),
        case in any::<u64>(),
    ) {
        const WINDOW: usize = 3;
        let pdir = tmp_dir("kept-p", case);
        let sdir = tmp_dir("kept-s", case);
        let (mut wal, _) = Wal::open(&pdir, seg_bytes).unwrap();
        wal.keep_unshipped(true);
        let mut tree = SceneTree::new();
        let mut trail: Vec<AuditEntry> = Vec::new();
        let mut standby = standby_store(&sdir, seg_bytes);
        let mut seen = BTreeMap::new();
        // The link's cursors, as `replica::ship_tick` keeps them.
        let (mut acked, mut shipped) = (0u64, 0u64);
        let mut in_flight: VecDeque<ShipFrame> = VecDeque::new();

        let tick = |wal: &mut Wal,
                        in_flight: &mut VecDeque<ShipFrame>,
                        shipped: &mut u64,
                        max_lag: u64|
         -> Result<(), TestCaseError> {
            let window = WINDOW.saturating_sub(in_flight.len());
            let want = fresh(&pdir, *shipped, max_lag, window);
            let frames = plan(&pdir, wal.unshipped(), *shipped, max_lag, window, &mut 0).unwrap();
            prop_assert_eq!(&frames, &want, "the kept runs changed what ships");
            prop_assert!(wal.unshipped().len() <= 2, "more than two kept runs");
            for f in frames {
                *shipped = (*shipped).max(f.last_seq);
                in_flight.push_back(f);
            }
            Ok(())
        };
        let deliver = |standby: &mut Store,
                           in_flight: &mut VecDeque<ShipFrame>,
                           (acked, shipped): (&mut u64, &mut u64),
                           tear: bool,
                           trail: &[AuditEntry],
                           seen: &mut BTreeMap<u64, Vec<u8>>|
         -> Result<(), TestCaseError> {
            let Some(mut frame) = in_flight.pop_front() else { return Ok(()) };
            if tear {
                frame.records[12] ^= 0xff; // inside the first record
            }
            let ack = standby.apply_frame(&frame).unwrap().ack;
            prop_assert_eq!(ack.torn, tear);
            *shipped = (*shipped).max(ack.last_seq);
            *acked = (*acked).max(ack.last_seq);
            if in_flight.is_empty() && *acked < *shipped {
                *shipped = *acked;
            }
            prop_assert_eq!(standby.last_seq(), *acked);
            prop_assert_eq!(assert_exact_prefix(&sdir, trail), *acked);
            note_primary(&pdir, seen);
            assert_byte_prefix(&sdir, seen);
            Ok(())
        };

        for &(kind, n, flag) in &steps {
            match kind {
                0..=2 => grow(&mut wal, &mut tree, &mut trail, n),
                3 => wal.rotate().unwrap(),
                4 => {
                    // Checkpoint + compaction behind the standby.
                    wal.sync().unwrap();
                    note_primary(&pdir, &mut seen);
                    let seq = trail.len() as u64;
                    rave::store::write_snapshot(&pdir, &tree, seq, seq as f64).unwrap();
                    rave::store::compact(&pdir, seq, Some(acked)).unwrap();
                }
                5 | 6 => tick(&mut wal, &mut in_flight, &mut shipped, max_lag)?,
                7 => {
                    let cursors = (&mut acked, &mut shipped);
                    deliver(&mut standby, &mut in_flight, cursors, flag, &trail, &mut seen)?;
                }
                // A link re-established mid-flight: plan again from what
                // was acknowledged, duplicates and all.
                _ => shipped = acked,
            }
        }
        // Drain: no lag allowance, nothing torn.
        let mut rounds = 0;
        while standby.last_seq() < trail.len() as u64 {
            tick(&mut wal, &mut in_flight, &mut shipped, 0)?;
            while !in_flight.is_empty() {
                let cursors = (&mut acked, &mut shipped);
                deliver(&mut standby, &mut in_flight, cursors, false, &trail, &mut seen)?;
            }
            rounds += 1;
            prop_assert!(rounds < 1_000, "shipping must converge");
        }
        prop_assert_eq!(assert_exact_prefix(&sdir, &trail), trail.len() as u64);

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A live link, driven one event at a time: the primary commits bursts
    /// of updates on small segments (rotations, checkpoints and compaction
    /// behind the standby included) and ships each burst. After every
    /// event the standby's replica holds exactly what its log holds, and a
    /// data failure right after any delivery promotes a standby holding
    /// the master's scene as of the last seq it was sent, losing only what
    /// was not yet delivered; once every frame of a burst has landed,
    /// that is the master's own scene with nothing lost. The promoted
    /// service goes on logging to the store it was shipped.
    #[test]
    fn the_standby_commits_what_its_log_holds_and_promotes_after_any_delivery(
        seg_bytes in 256u64..2048,
        bursts in prop::collection::vec(1u64..8, 1..12),
        fail_after in 0usize..40,
        case in any::<u64>(),
    ) {
        use rave::core::replica::{establish_standby, ship_tick};
        use rave::core::sched::rebalance::{process_events, SchedEvent};
        use rave::core::world::{publish_update, RaveWorld};
        use rave::core::RaveConfig;
        use rave::sim::Simulation;

        let pdir = tmp_dir("live-p", case);
        let sdir = tmp_dir("live-s", case);
        let cfg = RaveConfig { ship_max_lag: 0, ..Default::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 7));
        let primary = sim.world.spawn_data_service("adrenochrome", "sess");
        let standby = sim.world.spawn_data_service("tower", "sess-standby");
        let store_cfg = StoreConfig { segment_max_bytes: seg_bytes, checkpoint_every: 16 };
        sim.world.data_mut(primary).attach_store(&pdir, store_cfg).unwrap();
        establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();
        // The master's scene after each seq; index 0 is the empty scene.
        let mut scenes = vec![sim.world.data(primary).scene.clone()];
        let mut deliveries = 0;
        'bursts: for &n in &bursts {
            for _ in 0..n {
                let ds = sim.world.data_mut(primary);
                let (id, parent) = (ds.scene.allocate_id(), ds.scene.root());
                let name = format!("n{}", scenes.len());
                let update = SceneUpdate::AddNode { id, parent, name, kind: NodeKind::Group };
                publish_update(&mut sim, primary, "prop", update).unwrap();
                scenes.push(sim.world.data(primary).scene.clone());
            }
            ship_tick(&mut sim, primary).unwrap();
            let mut held = sim.world.replicas[&primary].log.last_seq();
            while sim.step() {
                let log = sim.world.replicas[&primary].log.last_seq();
                prop_assert_eq!(sim.world.data(standby).audit.last_seq(), log, "memory is the log");
                if log > held {
                    held = log;
                    deliveries += 1;
                    if deliveries > fail_after {
                        break 'bursts;
                    }
                }
            }
        }

        let master_last = sim.world.data(primary).audit.last_seq();
        let held = sim.world.data(standby).audit.last_seq();
        let failure = [SchedEvent::DataFailure { service: primary }];
        let report = process_events(&mut sim, primary, &failure).promotions[0].clone();
        prop_assert!(report.warm && report.promoted == standby);
        prop_assert_eq!(report.lost_updates, master_last - held);
        prop_assert!(sim.world.data(standby).scene == scenes[held as usize], "the master's scene");
        if deliveries <= fail_after {
            // Every frame landed: the master's own scene, nothing lost.
            prop_assert_eq!(report.lost_updates, 0);
        }
        sim.run();
        let update = SceneUpdate::SetName { id: rave::scene::NodeId(0), name: "after".into() };
        publish_update(&mut sim, standby, "prop", update).unwrap();
        sim.world.data_mut(standby).sync_persistence().unwrap();
        let rec = rave::store::recover(&sdir).unwrap();
        prop_assert_eq!(rec.last_seq, held + 1, "sequence numbers continue on the shipped store");
        prop_assert!(rec.tree == sim.world.data(standby).scene);

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}
