//! Durable persistence for the data service.
//!
//! The paper's data service streams the session to disk "in the form of
//! an audit trail" (§3.1.1). [`crate::DataService`] can run without any
//! store (pure in-memory, as the simulation-heavy tests do) or — through
//! this module — with a [`rave_store::Store`]: a crash-safe write-ahead
//! log plus snapshot checkpoints that a replacement service recovers
//! from after a failure. The store is the one session format;
//! `AuditTrail::save`/`load` is a JSON-lines export of the in-memory
//! trail.

use rave_scene::{AuditEntry, SceneTree};
use rave_store::{CompactionReport, Recovery, Store, StoreConfig};
use std::io;
use std::path::Path;

/// The [`rave_store::Store`] directory the data service appends every
/// accepted update to. Appends are cheap on the commit path; the heavy
/// work (snapshot serialization, compaction) is in
/// [`StorePersistence::checkpoint`], which the service invokes only when
/// [`StorePersistence::checkpoint_due`] says so.
#[derive(Debug)]
pub struct StorePersistence {
    store: Store,
}

impl StorePersistence {
    /// Open (or create) the store at `dir`, repairing any crash-torn WAL
    /// tail left by a previous process.
    pub fn open(dir: impl AsRef<Path>, cfg: StoreConfig) -> io::Result<Self> {
        Ok(Self { store: Store::open(dir.as_ref(), cfg)? })
    }

    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Rebuild session state from a store directory: latest snapshot plus
    /// the WAL tail past it.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
        rave_store::recover(dir.as_ref())
    }

    /// Durably log one committed update.
    pub fn append(&mut self, entry: &AuditEntry) -> io::Result<()> {
        self.store.append(entry)
    }

    /// True when enough updates have accumulated that the owner should
    /// checkpoint at the next opportunity.
    pub fn checkpoint_due(&self) -> bool {
        self.store.checkpoint_due()
    }

    /// Write a full-scene checkpoint covering everything appended so far.
    /// Returns a human-readable summary line for tracing.
    pub fn checkpoint(&mut self, tree: &SceneTree, at_secs: f64) -> io::Result<String> {
        let seq = self.store.last_seq();
        let CompactionReport { segments_deleted, snapshots_deleted, bytes_freed } =
            self.store.checkpoint(tree, at_secs)?;
        Ok(format!(
            "checkpoint at seq {seq}: {} segment(s) + {snapshots_deleted} snapshot(s) \
             compacted, {bytes_freed} bytes freed",
            segments_deleted.len(),
        ))
    }

    /// Flush buffered appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.sync()
    }

    /// A log-shipping standby has acknowledged everything up to
    /// `acked_seq` (`None`: no standby attached): checkpoints must not
    /// discard log the standby has yet to be sent.
    pub fn set_retention_floor(&mut self, acked_seq: Option<u64>) {
        self.store.set_retention_floor(acked_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{NodeKind, SceneUpdate, StampedUpdate};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rave-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_persistence_appends_and_recovers() {
        let dir = tmp_dir("roundtrip");
        let mut tree = SceneTree::new();
        {
            let cfg = StoreConfig { checkpoint_every: 4, ..Default::default() };
            let mut p = StorePersistence::open(&dir, cfg).unwrap();
            for seq in 1..=9 {
                let id = tree.allocate_id();
                let update = SceneUpdate::AddNode {
                    id,
                    parent: tree.root(),
                    name: format!("n{seq}"),
                    kind: NodeKind::Group,
                };
                update.apply(&mut tree).unwrap();
                p.append(&AuditEntry {
                    at_secs: seq as f64,
                    stamped: StampedUpdate { seq, origin: "p".into(), update },
                })
                .unwrap();
                if p.checkpoint_due() {
                    let line = p.checkpoint(&tree, seq as f64).unwrap();
                    assert!(line.contains("checkpoint at seq"));
                }
            }
            p.sync().unwrap();
            assert_eq!(p.store().last_seq(), 9);
        }
        let rec = StorePersistence::recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 9);
        assert_eq!(rec.tree, tree);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
