//! Property tests on WAL log shipping: a primary whose log rotates at
//! *arbitrary* points is shipped frame by frame to a standby, with the
//! link failing at an *arbitrary* step — and the standby's durable state
//! is always an exact prefix of the primary's committed trail. Resuming
//! the link afterwards converges to full equality, losing nothing. A
//! `Shipper` kept across ticks (its tail cursor) and a standby whose
//! segment writer stays open are held to the same contract under
//! arbitrary interleavings of appends, rotations, compaction, torn frames
//! and resyncs: frame for frame what a fresh `Shipper` plans.

use proptest::prelude::*;
use rave::scene::{AuditEntry, NodeKind, SceneTree, SceneUpdate, StampedUpdate};
use rave::store::ship::{ShipAck, ShipFrame, Shipper, StandbyLog};
use rave::store::wal::Wal;
use std::collections::VecDeque;
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
    let (mut wal, _) = Wal::open(dir, seg_bytes, false).unwrap();
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

/// Drive the ship protocol one frame at a time until the plan is empty,
/// stopping early after `stop_after` frames (None = run to completion).
/// Returns the number of frames applied.
fn ship_until(
    shipper: &mut Shipper,
    standby: &mut StandbyLog,
    max_lag: u64,
    stop_after: Option<usize>,
) -> usize {
    let mut ack = ShipAck { last_seq: standby.last_seq(), resend: None };
    let mut steps = 0usize;
    loop {
        if let Some(limit) = stop_after {
            if steps >= limit {
                return steps;
            }
        }
        let frames = shipper.plan(ack.last_seq, ack.resend, max_lag, 1).unwrap();
        let Some(frame) = frames.into_iter().next() else { return steps };
        ack = standby.apply(&frame).unwrap().ack;
        steps += 1;
        assert!(steps < 10_000, "ship loop must converge");
    }
}

proptest! {
    /// Rotate the WAL at arbitrary points (tiny random segment caps),
    /// kill the link at an arbitrary ship step: the standby's durable
    /// state is an exact committed prefix. Re-establishing the link
    /// (fresh `StandbyLog::open` over the same directory, lag bound 0)
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
        let mut shipper = Shipper::new(&pdir);

        // Phase 1: ship until the injected failure (or until drained).
        let mut standby = StandbyLog::open(&sdir).unwrap();
        ship_until(&mut shipper, &mut standby, max_lag, Some(fail_step));
        let at_failure = standby.last_seq();
        drop(standby);
        let durable = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(durable, at_failure, "cursor matches what recovery sees");

        // Phase 2: the standby restarts and the link resumes from its
        // durable cursor; with no lag allowance it drains completely.
        let mut standby = StandbyLog::open(&sdir).unwrap();
        prop_assert_eq!(standby.last_seq(), at_failure, "resume from the durable prefix");
        ship_until(&mut shipper, &mut standby, 0, None);
        prop_assert_eq!(standby.last_seq(), n, "resume converges to the full trail");
        let full = assert_exact_prefix(&sdir, &trail);
        prop_assert_eq!(full, n, "zero committed updates lost");

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }

    /// Corrupt one arbitrary byte of one arbitrary sealed frame on the
    /// wire: the standby declines it, asks for that segment again, and
    /// the re-shipped intact copy converges to full equality.
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
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();

        let mut ack = ShipAck { last_seq: 0, resend: None };
        let mut corrupted = false;
        let mut steps = 0usize;
        loop {
            let frames = shipper.plan(ack.last_seq, ack.resend, 0, 1).unwrap();
            let Some(mut frame) = frames.into_iter().next() else { break };
            if !corrupted {
                if let ShipFrame::Sealed { index, ref mut bytes } = frame {
                    let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
                    bytes[at] ^= 0xff;
                    let apply = standby.apply(&frame).unwrap();
                    prop_assert_eq!(apply.ack.resend, Some(index), "torn frame re-requested");
                    prop_assert_eq!(apply.ack.last_seq, ack.last_seq, "cursor does not move");
                    prop_assert!(apply.entries.is_empty(), "nothing applied from a torn frame");
                    ack = apply.ack;
                    corrupted = true;
                    continue;
                }
            }
            ack = standby.apply(&frame).unwrap().ack;
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
    /// while frames sit in a bounded in-flight window, arrive torn, are
    /// re-requested, and the optimistic cursor is pulled back to the
    /// acknowledged one. At every tick the kept `Shipper` plans exactly
    /// what a fresh one does, and after every delivery the standby — its
    /// writer open across frames, also across a sealed copy replacing a
    /// file under it — is an exact prefix of the committed trail.
    #[test]
    fn kept_cursor_and_open_writer_match_the_stateless_protocol(
        seg_bytes in 128u64..900,
        max_lag in 0u64..4,
        steps in prop::collection::vec((0usize..10, 1u64..6, any::<bool>()), 1..70),
        case in any::<u64>(),
    ) {
        const WINDOW: usize = 3;
        let pdir = tmp_dir("kept-p", case);
        let sdir = tmp_dir("kept-s", case);
        let (mut wal, _) = Wal::open(&pdir, seg_bytes, false).unwrap();
        let mut tree = SceneTree::new();
        let mut trail: Vec<AuditEntry> = Vec::new();
        let mut kept = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        // The link's cursors, as `replica::ship_tick` keeps them.
        let (mut acked, mut shipped, mut resend) = (0u64, 0u64, None);
        let mut in_flight: VecDeque<ShipFrame> = VecDeque::new();

        let tick = |kept: &mut Shipper,
                        in_flight: &mut VecDeque<ShipFrame>,
                        shipped: &mut u64,
                        resend: Option<u64>,
                        max_lag: u64|
         -> Result<(), TestCaseError> {
            let window = WINDOW.saturating_sub(in_flight.len());
            let frames = kept.plan(*shipped, resend, max_lag, window).unwrap();
            let fresh = Shipper::new(&pdir).plan(*shipped, resend, max_lag, window).unwrap();
            prop_assert_eq!(&frames, &fresh, "kept cursor changed what ships");
            for f in frames {
                *shipped = (*shipped).max(f.last_seq().unwrap_or(0));
                in_flight.push_back(f);
            }
            Ok(())
        };
        let deliver = |standby: &mut StandbyLog,
                           in_flight: &mut VecDeque<ShipFrame>,
                           cursors: (&mut u64, &mut u64, &mut Option<u64>),
                           tear: bool,
                           trail: &[AuditEntry]|
         -> Result<(), TestCaseError> {
            let Some(mut frame) = in_flight.pop_front() else { return Ok(()) };
            if let (true, ShipFrame::Sealed { bytes, .. }) = (tear, &mut frame) {
                // Damage a record (an empty segment has none to damage).
                if let Some(b) = bytes.get_mut(40) {
                    *b ^= 0xff;
                }
            }
            let ack = standby.apply(&frame).unwrap().ack;
            let (acked, shipped, resend) = cursors;
            *shipped = (*shipped).max(ack.last_seq);
            *acked = (*acked).max(ack.last_seq);
            *resend = ack.resend;
            if in_flight.is_empty() && *acked < *shipped {
                *shipped = *acked;
            }
            prop_assert_eq!(standby.last_seq(), *acked);
            prop_assert_eq!(assert_exact_prefix(&sdir, trail), *acked);
            Ok(())
        };

        for &(kind, n, flag) in &steps {
            match kind {
                0..=2 => grow(&mut wal, &mut tree, &mut trail, n),
                3 => wal.rotate().unwrap(),
                4 => {
                    // Checkpoint + compaction behind the standby.
                    wal.sync().unwrap();
                    let seq = trail.len() as u64;
                    rave::store::write_snapshot(&pdir, &tree, seq, seq as f64).unwrap();
                    rave::store::compact(&pdir, seq, Some(acked)).unwrap();
                }
                5 | 6 => tick(&mut kept, &mut in_flight, &mut shipped, resend, max_lag)?,
                7 => {
                    let cursors = (&mut acked, &mut shipped, &mut resend);
                    deliver(&mut standby, &mut in_flight, cursors, flag, &trail)?;
                }
                // A link re-established mid-flight: plan again from what
                // was acknowledged, duplicates and all.
                8 => shipped = acked,
                // The standby asks for the segment it is growing: the
                // whole-file copy replaces the file its writer has open,
                // and later tail frames must land in the copy.
                _ => resend = Some(wal.active_segment_index()),
            }
        }
        // Wherever the storm stopped, the last case once more, on purpose:
        // the copy of the growing segment lands, then the segment grows.
        resend = Some(wal.active_segment_index());
        for _ in 0..2 {
            tick(&mut kept, &mut in_flight, &mut shipped, resend, 0)?;
            while !in_flight.is_empty() {
                let cursors = (&mut acked, &mut shipped, &mut resend);
                deliver(&mut standby, &mut in_flight, cursors, false, &trail)?;
            }
            grow(&mut wal, &mut tree, &mut trail, 2);
        }
        // Drain: no lag allowance, nothing torn.
        let mut rounds = 0;
        while standby.last_seq() < trail.len() as u64 {
            tick(&mut kept, &mut in_flight, &mut shipped, resend, 0)?;
            while !in_flight.is_empty() {
                let cursors = (&mut acked, &mut shipped, &mut resend);
                deliver(&mut standby, &mut in_flight, cursors, false, &trail)?;
            }
            rounds += 1;
            prop_assert!(rounds < 1_000, "shipping must converge");
        }
        prop_assert_eq!(assert_exact_prefix(&sdir, &trail), trail.len() as u64);

        std::fs::remove_dir_all(&pdir).unwrap();
        std::fs::remove_dir_all(&sdir).unwrap();
    }
}
