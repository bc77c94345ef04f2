//! The audit trail: a data service's log of its session.
//!
//! "The data are intermittently streamed to disk, recording any changes
//! that are made in the form of an audit trail. A recorded session may be
//! played back at a later date; this enables users to append to a recorded
//! session, collaborating asynchronously with previous users" (§3.1.1).
//!
//! The trail is the in-memory half of that log: it answers "what was
//! committed after seq N" for a joining replica's catch-up and rebuilds
//! the scene at any instant. On disk the session is the `rave-store`
//! directory the data service appends every entry to — its write-ahead log
//! and checkpoints. A recording is played back and appended to through that
//! store (`rave_store::recover`, then `DataService::seed_from`); this
//! module has no file format of its own.

use crate::tree::SceneTree;
use crate::update::{StampedUpdate, UpdateError};

/// One recorded change: when (virtual seconds since session start) and
/// what.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    pub at_secs: f64,
    pub stamped: StampedUpdate,
}

/// An append-only record of a session's updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditTrail {
    entries: Vec<AuditEntry>,
}

impl AuditTrail {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an update. Sequence numbers must be strictly increasing —
    /// the trail is the session's ground truth, so an out-of-order append
    /// is rejected (and surfaced to the data service) rather than
    /// silently corrupting the recording.
    pub fn record(&mut self, at_secs: f64, stamped: StampedUpdate) -> Result<(), UpdateError> {
        if let Some(last) = self.entries.last() {
            if stamped.seq <= last.stamped.seq {
                return Err(UpdateError::NonMonotonicSeq {
                    last: last.stamped.seq,
                    got: stamped.seq,
                });
            }
        }
        self.entries.push(AuditEntry { at_secs, stamped });
        Ok(())
    }

    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest sequence number recorded, or 0.
    pub fn last_seq(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.stamped.seq)
    }

    /// Rebuild a scene by replaying every entry up to and including
    /// `up_to_secs` into a fresh tree. This is session playback: a new
    /// collaborator joins "a previously recorded session" at any point on
    /// its timeline.
    pub fn replay(&self, up_to_secs: f64) -> Result<SceneTree, UpdateError> {
        let mut tree = SceneTree::new();
        for e in &self.entries {
            if e.at_secs > up_to_secs {
                break;
            }
            e.stamped.update.apply(&mut tree)?;
        }
        Ok(tree)
    }

    /// Replay everything.
    pub fn replay_all(&self) -> Result<SceneTree, UpdateError> {
        self.replay(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeId, NodeKind, Transform};
    use crate::update::SceneUpdate;
    use rave_math::Vec3;

    fn stamped(seq: u64, update: SceneUpdate) -> StampedUpdate {
        StampedUpdate { seq, origin: "test".into(), update }
    }

    fn sample_trail() -> AuditTrail {
        let mut t = AuditTrail::new();
        t.record(
            0.0,
            stamped(
                1,
                SceneUpdate::AddNode {
                    id: NodeId(1),
                    parent: NodeId(0),
                    name: "g".into(),
                    kind: NodeKind::Group,
                },
            ),
        )
        .unwrap();
        t.record(
            1.0,
            stamped(
                2,
                SceneUpdate::SetTransform {
                    id: NodeId(1),
                    transform: Transform::from_translation(Vec3::new(1.0, 0.0, 0.0)),
                },
            ),
        )
        .unwrap();
        t.record(2.0, stamped(3, SceneUpdate::RemoveNode { id: NodeId(1) })).unwrap();
        t
    }

    #[test]
    fn replay_reconstructs_intermediate_states() {
        let trail = sample_trail();
        // At t=0.5 the node exists at the origin.
        let t0 = trail.replay(0.5).unwrap();
        assert!(t0.contains(NodeId(1)));
        assert_eq!(t0.node(NodeId(1)).unwrap().transform().translation, Vec3::ZERO);
        // At t=1.5 it has moved.
        let t1 = trail.replay(1.5).unwrap();
        assert_eq!(t1.node(NodeId(1)).unwrap().transform().translation, Vec3::new(1.0, 0.0, 0.0));
        // After t=2 it is gone.
        let t2 = trail.replay_all().unwrap();
        assert!(!t2.contains(NodeId(1)));
    }

    #[test]
    fn out_of_order_seq_rejected() {
        let mut t = AuditTrail::new();
        t.record(0.0, stamped(5, SceneUpdate::RemoveNode { id: NodeId(9) })).unwrap();
        let err = t.record(1.0, stamped(4, SceneUpdate::RemoveNode { id: NodeId(9) }));
        assert_eq!(err, Err(UpdateError::NonMonotonicSeq { last: 5, got: 4 }));
        // Equal sequence numbers are rejected too, and the trail is intact.
        let dup = t.record(2.0, stamped(5, SceneUpdate::RemoveNode { id: NodeId(9) }));
        assert!(matches!(dup, Err(UpdateError::NonMonotonicSeq { last: 5, got: 5 })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn last_seq_of_empty_is_zero() {
        assert_eq!(AuditTrail::new().last_seq(), 0);
    }
}
