//! The audit trail: the tail of a data service's session log.
//!
//! "The data are intermittently streamed to disk, recording any changes
//! that are made in the form of an audit trail. A recorded session may be
//! played back at a later date; this enables users to append to a recorded
//! session, collaborating asynchronously with previous users" (§3.1.1).
//!
//! The recording is the `rave-store` directory the data service appends
//! every entry to — its write-ahead log and checkpoints — and a session is
//! played back and appended to through that store (`rave_store::recover`,
//! then `DataService::seed_from`). This trail is only the recent tail of
//! the log in memory: it answers "what was committed after seq N" for a
//! recent N, which is what a joining replica's catch-up asks. Its owner
//! drops the front once no reader needs it ([`AuditTrail::release_through`]);
//! a session without a store keeps that tail and plays nothing back.

use crate::update::{StampedUpdate, UpdateError};

/// One recorded change: when (virtual seconds since session start) and
/// what.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    pub at_secs: f64,
    pub stamped: StampedUpdate,
}

/// The most recent entries of a session's log, in seq order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditTrail {
    entries: Vec<AuditEntry>,
    /// Highest sequence number committed, held or not.
    last_seq: u64,
}

impl AuditTrail {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trail whose history through `seq` is recorded elsewhere
    /// (a recovered store): the next entry must come after it.
    pub fn after(seq: u64) -> Self {
        Self { entries: Vec::new(), last_seq: seq }
    }

    /// Record an update. Sequence numbers must be strictly increasing —
    /// an out-of-order append is rejected (and surfaced to the data
    /// service) rather than silently corrupting the log.
    pub fn record(&mut self, at_secs: f64, stamped: StampedUpdate) -> Result<(), UpdateError> {
        if stamped.seq <= self.last_seq {
            return Err(UpdateError::NonMonotonicSeq { last: self.last_seq, got: stamped.seq });
        }
        self.last_seq = stamped.seq;
        self.entries.push(AuditEntry { at_secs, stamped });
        Ok(())
    }

    /// Drop every held entry at or below `seq`.
    pub fn release_through(&mut self, seq: u64) {
        self.entries.drain(..self.entries.partition_point(|e| e.stamped.seq <= seq));
    }

    /// The entries held, oldest first.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Entries held, not entries committed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Highest sequence number committed, or 0.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::update::SceneUpdate;

    fn stamped(seq: u64) -> StampedUpdate {
        StampedUpdate {
            seq,
            origin: "test".into(),
            update: SceneUpdate::RemoveNode { id: NodeId(9) },
        }
    }

    fn seqs(t: &AuditTrail) -> Vec<u64> {
        t.entries().iter().map(|e| e.stamped.seq).collect()
    }

    #[test]
    fn out_of_order_seq_rejected() {
        let mut t = AuditTrail::new();
        t.record(0.0, stamped(5)).unwrap();
        let err = t.record(1.0, stamped(4));
        assert_eq!(err, Err(UpdateError::NonMonotonicSeq { last: 5, got: 4 }));
        // Equal sequence numbers are rejected too, and the trail is intact.
        let dup = t.record(2.0, stamped(5));
        assert!(matches!(dup, Err(UpdateError::NonMonotonicSeq { last: 5, got: 5 })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn last_seq_of_empty_is_zero() {
        assert_eq!(AuditTrail::new().last_seq(), 0);
    }

    /// Dropping the front keeps the rest contiguous and the order check
    /// intact, down to an empty trail.
    #[test]
    fn release_keeps_the_tail_and_the_order() {
        let mut t = AuditTrail::new();
        for seq in [1, 2, 4, 7] {
            t.record(0.0, stamped(seq)).unwrap();
        }
        t.release_through(3);
        assert_eq!(seqs(&t), [4, 7]);
        t.release_through(3);
        assert_eq!(seqs(&t), [4, 7]);
        t.release_through(9);
        assert!(t.is_empty());
        assert_eq!(t.last_seq(), 7, "last_seq is what was committed, not what is held");
        assert!(t.record(0.0, stamped(6)).is_err());
        t.record(0.0, stamped(8)).unwrap();
        assert_eq!(seqs(&t), [8]);
    }

    #[test]
    fn a_trail_after_a_recovered_prefix_continues_it() {
        let mut t = AuditTrail::after(20);
        assert_eq!((t.len(), t.last_seq()), (0, 20));
        assert_eq!(
            t.record(0.0, stamped(20)),
            Err(UpdateError::NonMonotonicSeq { last: 20, got: 20 })
        );
        t.record(0.0, stamped(21)).unwrap();
        assert_eq!((seqs(&t), t.last_seq()), (vec![21], 21));
    }
}
