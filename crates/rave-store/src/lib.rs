//! `rave-store`: durable session persistence for the RAVE data service.
//!
//! The paper's data service "intermittently stream\[s\] to disk ... an
//! audit trail" (§3.1.1) that can be played back and appended to. This
//! crate is that recording, made crash-tolerant:
//!
//! - a **segmented write-ahead log** ([`wal::Wal`]) of CRC-framed binary
//!   audit entries ([`record`], [`segment`]), written in place over
//!   segments zero-filled when they are created, repaired on open, and read
//!   by one reader that refuses a log damaged before its last segment;
//! - **checkpoints** ([`snapshot`]): full snapshots of the scene tree,
//!   and between them deltas of only the nodes its edit journal names,
//!   RLE-compressed and atomically written;
//! - **compaction** ([`compact()`]) deleting segments a checkpoint covers
//!   and chains a newer snapshot replaced, bounding disk use to one
//!   snapshot, its deltas and the active segment;
//! - **crash recovery** ([`recover()`]): latest snapshot + its deltas +
//!   WAL tail, always landing on a clean update boundary;
//! - **log shipping** ([`ship`]): continuous replication of each
//!   segment's records past the standby's cursor, verbatim (the active
//!   segment's past a lag bound; in lockstep cut from the records the WAL
//!   keeps until a frame carries them, its one copy of them), to a warm
//!   standby that is a [`Store`] of its own: its log writes the frames
//!   ([`Store::apply_frame`]), so its directory is always an exact prefix
//!   of the primary's log, and at promotion it appends where the primary
//!   stopped.
//!
//! The [`Store`] facade ties these together behind the append /
//! checkpoint / recover API the data service drives.

pub mod compact;
pub mod record;
pub mod recover;
pub mod segment;
pub mod ship;
pub mod snapshot;
pub mod wal;

pub use compact::{compact, CompactionReport};
pub use record::{crc32, TornTail};
pub use recover::{recover, Recovery};
pub use ship::{ShipAck, ShipApply, ShipFrame};
pub use snapshot::{read_snapshot, write_snapshot, Snapshot};
pub use wal::{FramedTail, Wal};

use rave_scene::{wire, AuditEntry, Dirt, EditClass, EditStamp, SceneTree};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Put `bytes` at `dir/name` so that a power cut leaves the old file or
/// the whole new one, and so that the new one is there to stay when this
/// returns: written and synced under `tmp_name`, renamed, the directory
/// synced. Only then may the caller unlink, or acknowledge to someone who
/// will unlink, what the new file stands in for — a rename the directory
/// has not been synced after can be lost while a later unlink is kept.
pub(crate) fn install_file(dir: &Path, tmp_name: &str, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(tmp_name);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)
}

/// Make the names last created or renamed in `dir` durable: a power cut
/// can lose an entry the directory was not synced after, though the
/// file's own data was. A directory opens as a file only on Unix;
/// elsewhere a name is as durable as the platform makes it.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A refused log or checkpoint chain.
pub(crate) fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Tunables for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate the active WAL segment when it reaches this size; a new
    /// segment is zero-filled to it.
    pub segment_max_bytes: u64,
    /// Declare a checkpoint due every N appended updates.
    pub checkpoint_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { segment_max_bytes: 1 << 20, checkpoint_every: 256 }
    }
}

/// Which file a [`Store::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointKind {
    /// The whole scene: a new base.
    #[default]
    Full,
    /// Only what changed since the checkpoint before, chained to a base.
    Delta,
}

impl std::fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckpointKind::Full => "full",
            CheckpointKind::Delta => "delta",
        })
    }
}

/// The chain the next delta would extend.
#[derive(Debug)]
struct Chain {
    /// The tree the newest checkpoint was taken of, as its edit journal
    /// knew it then: where the next delta reads from.
    stamp: EditStamp,
    base_seq: u64,
    /// The newest checkpoint of the chain, base or delta.
    last_seq: u64,
    base_bytes: u64,
    delta_bytes: u64,
}

/// A session's durable store: one directory holding WAL segments and
/// checkpoints.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: Wal,
    appends_since_checkpoint: u64,
    last_checkpoint_seq: u64,
    /// `None` until this store writes a full snapshot, and after a
    /// checkpoint fails: the next one is full.
    chain: Option<Chain>,
    /// What a log-shipping standby has acknowledged, while one is
    /// attached: compaction keeps every segment holding anything newer.
    retention_floor: Option<u64>,
}

impl Store {
    /// Open (or initialise) the store, repairing any crash-torn WAL tail.
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (wal, _torn) = Wal::open(&dir, cfg.segment_max_bytes)?;
        let newest = |files: Vec<(u64, PathBuf)>| files.last().map_or(0, |(seq, _)| *seq);
        let last_checkpoint_seq =
            newest(snapshot::list_snapshots(&dir)?).max(newest(snapshot::list_deltas(&dir)?));
        Ok(Self {
            dir,
            cfg,
            wal,
            appends_since_checkpoint: 0,
            last_checkpoint_seq,
            chain: None,
            retention_floor: None,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Sequence number of the last durably appended update.
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq().max(self.last_checkpoint_seq)
    }

    /// Append one audit entry to the WAL.
    pub fn append(&mut self, entry: &AuditEntry) -> io::Result<()> {
        self.wal.append(entry)?;
        self.appends_since_checkpoint += 1;
        Ok(())
    }

    /// True when enough updates have accumulated since the last
    /// checkpoint that the owner should call [`Store::checkpoint`].
    pub fn checkpoint_due(&self) -> bool {
        self.appends_since_checkpoint >= self.cfg.checkpoint_every
    }

    /// Tell compaction how far a log-shipping standby has acknowledged
    /// (`None`: no standby, a snapshot alone decides). Until the standby
    /// holds a sealed segment the primary's copy is the only one it can be
    /// shipped from, so checkpoints keep it. While a standby is attached
    /// the WAL keeps the records no frame has carried yet
    /// ([`Store::ship_source`]).
    pub fn set_retention_floor(&mut self, acked_seq: Option<u64>) {
        self.retention_floor = acked_seq;
        self.wal.keep_unshipped(acked_seq.is_some());
    }

    /// What [`ship::plan`] plans from: the store's directory, and the
    /// records the WAL keeps for the standby ([`Wal::unshipped`]).
    pub fn ship_source(&mut self) -> (&Path, &mut [FramedTail]) {
        (&self.dir, self.wal.unshipped())
    }

    /// Apply a frame shipped from a primary's log to this standby's log
    /// ([`Wal::apply_frame`]). A frame is not an append: it does not bring
    /// a checkpoint nearer.
    pub fn apply_frame(&mut self, frame: &ShipFrame) -> io::Result<ShipApply> {
        self.wal.apply_frame(frame)
    }

    /// Write a checkpoint of `tree` covering everything appended so far,
    /// then compact away what it subsumes; the report says which kind it
    /// wrote.
    ///
    /// A **delta** holds only the nodes `tree`'s edit journal names since
    /// the last checkpoint (their payload, or only their pose), chained to
    /// the full snapshot this store wrote last. It is written unless one of
    /// these holds, and then a **full snapshot** is:
    /// - the journal cannot vouch for the window ([`Dirt::Everything`]):
    ///   `tree` is another tree value than the last checkpoint's (promoted,
    ///   seeded, cloned), the window passed the journal's cap, or nobody
    ///   started the journal ([`SceneTree::record_edits`]);
    /// - a `Structure` entry is in the window (an insert, a removal, a
    ///   reparent — also one the WAL never saw, such as a split);
    /// - this store has no base yet, or no update was appended since;
    /// - the chain's bytes would pass half the base's.
    pub fn checkpoint(&mut self, tree: &SceneTree, at_secs: f64) -> io::Result<CompactionReport> {
        self.wal.sync()?;
        let seq = self.last_seq();
        let stamp = tree.edit_stamp();
        let delta = self.chain.take().and_then(|chain| {
            let bytes = delta_file(&chain, tree, seq, at_secs)?;
            Some((chain, bytes))
        });
        let kind = match delta {
            Some((chain, bytes)) => {
                snapshot::write_delta(&self.dir, seq, &bytes)?;
                let delta_bytes = chain.delta_bytes + bytes.len() as u64;
                self.chain = Some(Chain { stamp, last_seq: seq, delta_bytes, ..chain });
                CheckpointKind::Delta
            }
            None => {
                let path = snapshot::write_snapshot(&self.dir, tree, seq, at_secs)?;
                let base_bytes = std::fs::metadata(path)?.len();
                let chain =
                    Chain { stamp, base_seq: seq, last_seq: seq, base_bytes, delta_bytes: 0 };
                self.chain = Some(chain);
                CheckpointKind::Full
            }
        };
        self.last_checkpoint_seq = seq;
        self.appends_since_checkpoint = 0;
        Ok(CompactionReport { kind, ..compact(&self.dir, seq, self.retention_floor)? })
    }

    /// Flush and fsync outstanding appends.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Bytes the store occupies on disk (segments, snapshots, deltas).
    pub fn disk_bytes(&self) -> io::Result<u64> {
        let mut total = Wal::disk_bytes(&self.dir)?;
        let checkpoints = snapshot::list_snapshots(&self.dir)?;
        for (_, path) in checkpoints.into_iter().chain(snapshot::list_deltas(&self.dir)?) {
            total += std::fs::metadata(&path)?.len();
        }
        Ok(total)
    }
}

/// The delta file extending `chain` to `seq`, or `None` when the
/// checkpoint must be full (the rules on [`Store::checkpoint`]).
fn delta_file(chain: &Chain, tree: &SceneTree, seq: u64, at_secs: f64) -> Option<Vec<u8>> {
    if seq <= chain.last_seq {
        return None;
    }
    let since = |class| match tree.recorded_since(chain.stamp, &[class]) {
        Dirt::Clean => Some(Vec::new()),
        Dirt::Nodes(ids) => Some(ids),
        Dirt::Everything => None,
    };
    if !since(EditClass::Structure)?.is_empty() {
        return None;
    }
    let body =
        wire::encode_node_states(tree, &since(EditClass::Payload)?, &since(EditClass::Pose)?)?;
    let bytes = snapshot::encode_delta(chain.base_seq, chain.last_seq, seq, at_secs, &body);
    (chain.delta_bytes + bytes.len() as u64 <= chain.base_bytes / 2).then_some(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{NodeKind, SceneUpdate, StampedUpdate};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rave-store-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn drive(store: &mut Store, tree: &mut SceneTree, seq: u64) {
        let id = tree.allocate_id();
        let update = SceneUpdate::AddNode {
            id,
            parent: tree.root(),
            name: format!("n{seq}"),
            kind: NodeKind::Group,
        };
        update.apply(tree).unwrap();
        store
            .append(&AuditEntry {
                at_secs: seq as f64,
                stamped: StampedUpdate { seq, origin: "t".into(), update },
            })
            .unwrap();
        if store.checkpoint_due() {
            store.checkpoint(tree, seq as f64).unwrap();
        }
    }

    #[test]
    fn store_lifecycle_append_checkpoint_recover() {
        let dir = tmp_dir("lifecycle");
        let mut tree = SceneTree::new();
        {
            let cfg = StoreConfig { checkpoint_every: 10, segment_max_bytes: 512 };
            let mut store = Store::open(&dir, cfg).unwrap();
            for seq in 1..=35 {
                drive(&mut store, &mut tree, seq);
            }
            store.sync().unwrap();
            assert_eq!(store.last_seq(), 35);
        }
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 35);
        assert_eq!(rec.tree, tree);
        assert!(rec.snapshot_seq >= 30, "periodic checkpoints ran");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_bounds_disk_usage() {
        let dir = tmp_dir("bounded");
        let cfg = StoreConfig { checkpoint_every: 20, segment_max_bytes: 1024 };
        let mut store = Store::open(&dir, cfg).unwrap();
        let mut tree = SceneTree::new();
        // A long session of rename churn on a small scene: without
        // compaction the log grows without bound; with it, disk usage
        // stays around one snapshot + one active segment.
        let id = tree.allocate_id();
        let add = SceneUpdate::AddNode {
            id,
            parent: tree.root(),
            name: "obj".into(),
            kind: NodeKind::Group,
        };
        add.apply(&mut tree).unwrap();
        store
            .append(&AuditEntry {
                at_secs: 0.0,
                stamped: StampedUpdate { seq: 1, origin: "t".into(), update: add },
            })
            .unwrap();
        let mut peak: u64 = 0;
        for seq in 2..=2000u64 {
            let update = SceneUpdate::SetName { id, name: format!("name-{seq}") };
            update.apply(&mut tree).unwrap();
            store
                .append(&AuditEntry {
                    at_secs: seq as f64,
                    stamped: StampedUpdate { seq, origin: "t".into(), update },
                })
                .unwrap();
            if store.checkpoint_due() {
                store.checkpoint(&tree, seq as f64).unwrap();
                peak = peak.max(store.disk_bytes().unwrap());
            }
        }
        store.sync().unwrap();
        let end = store.disk_bytes().unwrap();
        // The tree is tiny (2 nodes): the bound is snapshot + active
        // segment + rotation slack, far below the ~100 KB of raw log the
        // 2000 updates would otherwise occupy.
        assert!(end < 10 * 1024, "disk usage {end} bytes not bounded");
        assert!(peak < 10 * 1024, "peak usage {peak} bytes not bounded");
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 2000);
        assert_eq!(rec.tree, tree);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_checkpoint_cadence() {
        let dir = tmp_dir("resume");
        let mut tree = SceneTree::new();
        {
            let cfg = StoreConfig { checkpoint_every: 10, ..Default::default() };
            let mut store = Store::open(&dir, cfg).unwrap();
            for seq in 1..=10 {
                drive(&mut store, &mut tree, seq);
            }
        }
        let cfg = StoreConfig { checkpoint_every: 10, ..Default::default() };
        let store = Store::open(&dir, cfg).unwrap();
        assert_eq!(store.last_seq(), 10);
        assert!(!store.checkpoint_due());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
