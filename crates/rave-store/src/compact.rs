//! Log compaction: once a checkpoint covers a sealed segment entirely,
//! the segment is dead weight and is deleted, and once a full snapshot
//! lands, every older snapshot and every delta chained to one goes too.
//! This bounds the store's disk footprint to roughly one snapshot, its
//! delta chain (at most half the snapshot's bytes) plus the active
//! segment, regardless of session length.

use crate::segment::{covered, list_chain};
use crate::snapshot::{list_deltas, list_snapshots};
use crate::CheckpointKind;
use std::io;
use std::path::Path;

/// What a compaction pass removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// What the checkpoint this pass followed wrote ([`crate::Store::checkpoint`]
    /// fills it in; a bare [`compact()`] reports `Full`).
    pub kind: CheckpointKind,
    /// Indices of WAL segments deleted.
    pub segments_deleted: Vec<u64>,
    /// Snapshot files older than the newest one deleted.
    pub snapshots_deleted: usize,
    /// Delta files of older chains deleted.
    pub deltas_deleted: usize,
    /// Disk bytes reclaimed.
    pub bytes_freed: u64,
}

/// Delete every sealed segment fully covered by a checkpoint (of either
/// kind) at `checkpoint_seq`; every snapshot older than the newest one at
/// or below it; and every delta at or below that snapshot, which belongs
/// to an older chain.
///
/// Coverage is decided from segment headers alone, by the rule every
/// reader of the log skips segments by (`segment::covered`), so no record
/// body is read. The highest-index segment is the active one and is never
/// deleted — the log must always have an append head.
///
/// `retain_after`, when set, is the sequence number a log-shipping
/// standby has acknowledged: a segment holding anything newer is the
/// only copy the standby can still be sent, so it outlives the checkpoint
/// that covers it until the standby has it too.
pub fn compact(
    dir: &Path,
    checkpoint_seq: u64,
    retain_after: Option<u64>,
) -> io::Result<CompactionReport> {
    let mut report = CompactionReport::default();
    let chain = list_chain(dir)?;
    let disposable = retain_after.map_or(checkpoint_seq, |acked| acked.min(checkpoint_seq));
    for (i, (path, header)) in chain.iter().enumerate() {
        if covered(&chain, i, disposable) {
            report.bytes_freed += std::fs::metadata(path)?.len();
            std::fs::remove_file(path)?;
            report.segments_deleted.push(header.index);
        }
    }
    let snapshots = list_snapshots(dir)?;
    let base = snapshots.iter().map(|(seq, _)| *seq).filter(|&seq| seq <= checkpoint_seq).max();
    let Some(base) = base else { return Ok(report) };
    for (seq, path) in snapshots {
        if seq < base {
            report.bytes_freed += std::fs::metadata(&path)?.len();
            std::fs::remove_file(&path)?;
            report.snapshots_deleted += 1;
        }
    }
    for (seq, path) in list_deltas(dir)? {
        if seq <= base {
            report.bytes_freed += std::fs::metadata(&path)?.len();
            std::fs::remove_file(&path)?;
            report.deltas_deleted += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::list_segments;
    use crate::snapshot::write_snapshot;
    use crate::wal::Wal;
    use rave_scene::{AuditEntry, NodeId, SceneTree, SceneUpdate, StampedUpdate};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rave-store-compact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(seq: u64) -> AuditEntry {
        AuditEntry {
            at_secs: seq as f64,
            stamped: StampedUpdate {
                seq,
                origin: "compact-test".into(),
                update: SceneUpdate::SetName { id: NodeId(0), name: format!("n{seq}") },
            },
        }
    }

    #[test]
    fn covered_segments_and_stale_snapshots_deleted() {
        let dir = tmp_dir("covered");
        let (mut wal, _) = Wal::open(&dir, 200).unwrap();
        for seq in 1..=40 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        let n_before = list_segments(&dir).unwrap().len();
        assert!(n_before > 2);

        write_snapshot(&dir, &SceneTree::new(), 10, 1.0).unwrap();
        write_snapshot(&dir, &SceneTree::new(), 40, 4.0).unwrap();
        let report = compact(&dir, 40, None).unwrap();
        assert!(!report.segments_deleted.is_empty());
        assert_eq!(report.snapshots_deleted, 1, "seq-10 snapshot removed");
        assert!(report.bytes_freed > 0);

        // Only the active segment and the covering snapshot remain.
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);

        // The log still appends and replays past the snapshot.
        drop(wal);
        let (mut wal, torn) = Wal::open(&dir, 200).unwrap();
        wal.append(&entry(41)).unwrap();
        wal.sync().unwrap();
        assert!(torn.is_none());
        let tail = Wal::replay_after(&dir, 40).unwrap();
        assert_eq!(tail.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_coverage_keeps_uncovered_segments() {
        let dir = tmp_dir("partial");
        let (mut wal, _) = Wal::open(&dir, 200).unwrap();
        for seq in 1..=40 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        let all = list_segments(&dir).unwrap();
        // Snapshot only covers up to 15: segments whose successor starts
        // later must survive.
        write_snapshot(&dir, &SceneTree::new(), 15, 1.5).unwrap();
        compact(&dir, 15, None).unwrap();
        let remaining = list_segments(&dir).unwrap();
        assert!(!remaining.is_empty() && remaining.len() < all.len() || all.len() == 1);
        // Everything after seq 15 still replays.
        let tail = Wal::replay_after(&dir, 15).unwrap();
        assert_eq!(tail.len(), 25);
        assert_eq!(tail[0].stamped.seq, 16);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unacknowledged_segments_outlive_their_snapshot() {
        let dir = tmp_dir("retain");
        let (mut wal, _) = Wal::open(&dir, 200).unwrap();
        for seq in 1..=40 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        write_snapshot(&dir, &SceneTree::new(), 10, 1.0).unwrap();
        write_snapshot(&dir, &SceneTree::new(), 40, 4.0).unwrap();
        // A standby that holds nothing yet: every segment stays, old
        // snapshots still go.
        let report = compact(&dir, 40, Some(0)).unwrap();
        assert!(report.segments_deleted.is_empty());
        assert_eq!(report.snapshots_deleted, 1);
        assert_eq!(Wal::replay_after(&dir, 0).unwrap().len(), 40);
        // Acknowledged up to 15: only segments wholly at or below go.
        compact(&dir, 40, Some(15)).unwrap();
        let tail = Wal::replay_after(&dir, 15).unwrap();
        assert_eq!((tail.len(), tail[0].stamped.seq), (25, 16));
        assert!(Wal::replay_after(&dir, 0).unwrap().len() < 40, "acknowledged history went");
        // Caught up: back to one segment.
        compact(&dir, 40, Some(40)).unwrap();
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn active_segment_never_deleted() {
        let dir = tmp_dir("active");
        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
        for seq in 1..=5 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        write_snapshot(&dir, &SceneTree::new(), 5, 0.5).unwrap();
        let report = compact(&dir, 5, None).unwrap();
        assert!(report.segments_deleted.is_empty(), "single active segment kept");
        assert_eq!(list_segments(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_new_base_takes_the_older_chain_and_a_delta_keeps_its_own() {
        use crate::snapshot::{encode_delta, write_delta};
        let dir = tmp_dir("chain");
        let (mut wal, _) = Wal::open(&dir, 200).unwrap();
        for seq in 1..=40 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        write_snapshot(&dir, &SceneTree::new(), 10, 1.0).unwrap();
        write_delta(&dir, 15, &encode_delta(10, 10, 15, 1.5, b"x")).unwrap();
        write_delta(&dir, 20, &encode_delta(10, 15, 20, 2.0, b"y")).unwrap();
        // A delta checkpoint: its chain stays, segments it covers go.
        let report = compact(&dir, 20, None).unwrap();
        assert_eq!((report.snapshots_deleted, report.deltas_deleted), (0, 0));
        assert!(!report.segments_deleted.is_empty());
        assert_eq!(Wal::replay_after(&dir, 20).unwrap()[0].stamped.seq, 21);
        // A new base: the old one and its deltas go.
        write_snapshot(&dir, &SceneTree::new(), 30, 3.0).unwrap();
        let report = compact(&dir, 30, None).unwrap();
        assert_eq!((report.snapshots_deleted, report.deltas_deleted), (1, 2));
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        assert!(list_deltas(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
