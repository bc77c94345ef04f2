//! Crash recovery: latest intact snapshot + its deltas + WAL tail replay.
//!
//! The recovered state is exactly what the data service had durably
//! committed before it died: the snapshot restores the bulk of the scene
//! in one decode, the deltas chained to it (in `prev_seq` order) patch in
//! what changed up to the newest of them, then every WAL entry past that
//! is re-applied in order. A torn final record (the append that was in
//! flight when the crash hit) is detected by its framing and dropped —
//! recovery always lands on a clean update boundary.
//!
//! A broken chain — a delta missing, failing its checksum or naming
//! another base — never yields a silently shorter history. Recovery goes
//! on from the longest intact prefix of the chain when the log still
//! reaches back to it and forward to every checkpoint the directory holds;
//! otherwise it fails with [`io::ErrorKind::InvalidData`].

use crate::snapshot::{latest_snapshot, list_deltas, list_snapshots, read_delta};
use crate::wal::Wal;
use rave_scene::{wire, AuditEntry, SceneTree};
use std::io;
use std::path::Path;

/// The reconstructed session state.
#[derive(Debug)]
pub struct Recovery {
    /// The scene as of the last durably logged update.
    pub tree: SceneTree,
    /// Sequence number of the last recovered update (0 = empty store).
    pub last_seq: u64,
    /// Sequence the loaded snapshot covered (0 = no snapshot, full
    /// replay).
    pub snapshot_seq: u64,
    /// Deltas applied on top of the snapshot.
    pub deltas: usize,
    /// WAL entries replayed on top of the snapshot and its deltas.
    pub entries: Vec<AuditEntry>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Rebuild session state from a store directory. An empty or missing
/// directory recovers to a fresh scene at seq 0 (cold start and crash
/// recovery share one code path).
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    if !dir.exists() {
        return Ok(Recovery {
            tree: SceneTree::new(),
            last_seq: 0,
            snapshot_seq: 0,
            deltas: 0,
            entries: Vec::new(),
        });
    }
    let (mut tree, snapshot_seq) = match latest_snapshot(dir)? {
        Some((_, snap)) => (snap.tree, snap.last_seq),
        None => (SceneTree::new(), 0),
    };
    // Every checkpoint was written after the log was synced up to it, so
    // the durable history reaches at least the newest one on disk, intact
    // or not.
    let mut reach = list_snapshots(dir)?.last().map_or(0, |(seq, _)| *seq);
    let (mut covered, mut deltas, mut intact) = (snapshot_seq, 0, true);
    for (seq, path) in list_deltas(dir)? {
        if seq <= snapshot_seq {
            continue; // an older chain's, not yet compacted away
        }
        reach = reach.max(seq);
        intact = intact
            && read_delta(&path).is_ok_and(|d| {
                d.last_seq == seq
                    && d.base_seq == snapshot_seq
                    && d.prev_seq == covered
                    && wire::apply_node_states(&mut tree, &d.body).is_ok()
            });
        if intact {
            covered = seq;
            deltas += 1;
        }
    }
    if let Some(first) = Wal::first_base_seq(dir)? {
        if first > covered + 1 {
            return Err(invalid(format!(
                "checkpoints recover to seq {covered} but the log starts at seq {first}"
            )));
        }
    }
    let entries = Wal::replay_after(dir, covered)?;
    let mut last_seq = covered;
    for e in &entries {
        // Checksums passed, so a rejected update means the log and
        // checkpoints genuinely disagree — corruption, not a crash
        // artifact.
        e.stamped.update.apply(&mut tree).map_err(|err| {
            invalid(format!("WAL entry seq {} does not apply: {err}", e.stamped.seq))
        })?;
        last_seq = e.stamped.seq;
    }
    if last_seq < reach {
        return Err(invalid(format!(
            "a checkpoint covers seq {reach} but the chain and the log recover only to {last_seq}"
        )));
    }
    Ok(Recovery { tree, last_seq, snapshot_seq, deltas, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot;
    use rave_scene::{NodeKind, SceneUpdate, StampedUpdate};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rave-store-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drive a live tree and a WAL in lockstep, as a data service would.
    fn run_session(dir: &Path, n: u64, snapshot_at: Option<u64>) -> SceneTree {
        let (mut wal, _) = Wal::open(dir, 512, false).unwrap();
        let mut tree = SceneTree::new();
        for seq in 1..=n {
            let id = tree.allocate_id();
            let update = SceneUpdate::AddNode {
                id,
                parent: tree.root(),
                name: format!("n{seq}"),
                kind: NodeKind::Group,
            };
            update.apply(&mut tree).unwrap();
            wal.append(&AuditEntry {
                at_secs: seq as f64,
                stamped: StampedUpdate { seq, origin: "sess".into(), update },
            })
            .unwrap();
            if snapshot_at == Some(seq) {
                write_snapshot(dir, &tree, seq, seq as f64).unwrap();
            }
        }
        wal.sync().unwrap();
        tree
    }

    #[test]
    fn empty_store_recovers_to_fresh_scene() {
        let dir = tmp_dir("fresh");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 0);
        assert_eq!(rec.tree, SceneTree::new());
        assert!(rec.entries.is_empty());
    }

    #[test]
    fn wal_only_recovery_replays_everything() {
        let dir = tmp_dir("walonly");
        let live = run_session(&dir, 30, None);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 30);
        assert_eq!(rec.snapshot_seq, 0);
        assert_eq!(rec.entries.len(), 30);
        assert_eq!(rec.tree, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_tail_equals_full_replay() {
        let dir = tmp_dir("snaptail");
        let live = run_session(&dir, 30, Some(18));
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshot_seq, 18);
        assert_eq!(rec.entries.len(), 12, "only the tail replayed");
        assert_eq!(rec.last_seq, 30);
        assert_eq!(rec.tree, live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_record_recovers_prefix() {
        let dir = tmp_dir("torn");
        run_session(&dir, 10, None);
        let (_, last) = crate::segment::list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 5]).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 9, "torn entry 10 dropped");
        assert_eq!(rec.tree.len(), 10, "root + 9 nodes");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
