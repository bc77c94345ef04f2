//! A timestamped trace of system events, used by experiments and tests to
//! assert on *what happened when* without coupling to internals.

use rave_sim::SimTime;

/// Categories of traced events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Bootstrap,
    UpdatePublished,
    UpdateDelivered,
    FrameDelivered,
    Distribution,
    Migration,
    Recruitment,
    Overload,
    Underload,
    Refusal,
    Collaboration,
    /// A durable snapshot checkpoint of the session store was written.
    Checkpoint,
    /// A data service was rebuilt from its durable store after a crash.
    Recovery,
    /// Measured per-tile render cost fed back into the tile planner.
    TileCostFeedback,
    /// One scheduler placement decision: the considered candidates, their
    /// headroom scores, and the chosen service (or "unplaced").
    SchedDecision,
    /// The adaptive frame stream changed codec for a client.
    CodecSwitch,
    /// Log-shipping replication traffic: a WAL frame shipped to (or
    /// acknowledged by) a warm standby.
    LogShip,
    /// A warm standby was promoted to primary after a data-service
    /// failure.
    Promote,
    /// A pipelined frame waited on a busy resource (render GPU, wire, or
    /// client CPU); the detail names the binding resource and the stall.
    /// Never emitted at `pipeline_depth = 1` — the serial cycle has no
    /// overlap, hence nothing to wait on.
    PipelineStall,
}

/// One trace record.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub at: SimTime,
    pub kind: TraceKind,
    pub detail: String,
}

/// Append-only event trace.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    events: Vec<TraceEvent>,
}

impl EventTrace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, at: SimTime, kind: TraceKind, detail: impl Into<String>) {
        self.events.push(TraceEvent { at, kind, detail: detail.into() });
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    pub fn count(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    pub fn first_of(&self, kind: TraceKind) -> Option<&TraceEvent> {
        self.of_kind(kind).next()
    }

    pub fn last_of(&self, kind: TraceKind) -> Option<&TraceEvent> {
        self.of_kind(kind).last()
    }

    /// Render as text (experiment logs).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "[{:>10}] {:?}: {}", e.at.to_string(), e.kind, e.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_filter() {
        let mut t = EventTrace::new();
        t.record(SimTime::from_secs(1.0), TraceKind::Overload, "rs1 at 4 fps");
        t.record(SimTime::from_secs(2.0), TraceKind::Migration, "moved 3 nodes");
        t.record(SimTime::from_secs(3.0), TraceKind::Overload, "rs2 at 2 fps");
        assert_eq!(t.count(TraceKind::Overload), 2);
        assert_eq!(t.first_of(TraceKind::Migration).unwrap().at, SimTime::from_secs(2.0));
        assert_eq!(t.last_of(TraceKind::Overload).unwrap().detail, "rs2 at 2 fps");
        assert!(t.render().contains("Migration"));
    }
}
