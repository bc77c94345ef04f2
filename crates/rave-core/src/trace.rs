//! A timestamped trace of system events, used by experiments and tests to
//! assert on *what happened when* without coupling to internals: typed
//! rows, turned into text only when read, the newest [`KEEP`] of them kept
//! in a ring beside an exact count of every row per kind (DESIGN §5.17).

use crate::ids::{ClientId, DataServiceId, RenderServiceId};
use crate::replica::PromotionReport;
use crate::sched::rebalance::OVERLOAD_FPS;
use crate::thin_client::Bound;
use rave_compress::Codec;
use rave_scene::{NodeCost, NodeId};
use rave_sim::SimTime;
use rave_store::CompactionReport;
use std::collections::VecDeque;
use std::fmt;

/// Rows the trace keeps: a traced `edit_storm` run records about 460 a
/// round, nearly all of them migrations.
pub const KEEP: usize = 4096;

/// Categories of traced events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    Bootstrap,
    UpdatePublished,
    UpdateDelivered,
    FrameDelivered,
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
    /// client CPU). Never emitted at `pipeline_depth = 1` — the serial
    /// cycle has no overlap, hence nothing to wait on.
    PipelineStall,
    /// A render service failed and was taken out of the world.
    Failure,
}

/// How many kinds there are: the last one's index, plus one.
const KINDS: usize = TraceKind::Failure as usize + 1;

/// Declares [`TraceEvent`] as a table: per variant, its kind, its fields and
/// the detail text they render as (a format string and any further arguments).
macro_rules! trace_events {
    ($($(#[$doc:meta])* $kind:ident: $variant:ident { $($field:ident: $ty:ty),* $(,)? }
        => $fmt:literal $(, $arg:expr)*;)*) => {
        /// One traced event; its `Display` is the one place a row becomes text.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent { $($(#[$doc])* $variant { $($field: $ty),* },)* }

        impl TraceEvent {
            pub fn kind(&self) -> TraceKind {
                match self { $(Self::$variant { .. } => TraceKind::$kind,)* }
            }
        }

        impl fmt::Display for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self { $(Self::$variant { $($field),* } => write!(f, $fmt $(, $arg)*),)* }
            }
        }
    };
}

trace_events! {
    /// `rs`'s snapshot from `ds` landed; the `replayed` trail entries past it were applied.
    Bootstrap: Bootstrapped { rs: RenderServiceId, ds: DataServiceId, replayed: usize }
        => "{rs} live on {ds} ({replayed} buffered updates replayed)";
    Bootstrap: SnapshotDropped { rs: RenderServiceId, ds: DataServiceId }
        => "{rs}'s snapshot from {ds} dropped: a service failed";
    UpdatePublished: UpdatePublished { ds: DataServiceId, seq: u64, origin: String }
        => "{ds} seq={seq} from {origin}";
    UpdateDelivered: UpdateDelivered { seq: u64, to: RenderServiceId, applied: bool }
        => "seq={seq} -> {to} applied={applied}";
    /// Updates `first..=last` met a render service that failed while they were on the wire.
    UpdateDelivered: UpdatesDropped { first: u64, last: u64, to: RenderServiceId }
        => "seq={first}..={last} -> {to} dropped";
    FrameDelivered: FrameDelivered { client: ClientId, via: RenderServiceId }
        => "{client} frame via {via}";
    FrameDelivered: TiledFrame {
        client: ClientId, owner: RenderServiceId, tiles: usize, stale: bool,
    } => "tiled frame for {client} on {owner}: {tiles} tiles, stale={stale}";
    FrameDelivered: VolumeFrame { bricks: usize, owner: RenderServiceId }
        => "distributed volume frame: {bricks} bricks via {owner}";
    Migration: Moved { node: NodeId, from: RenderServiceId, to: RenderServiceId }
        => "node {node} moved {from} -> {to}";
    Migration: Installed { node: NodeId, to: RenderServiceId } => "node {node} installed on {to}";
    Recruitment: Recruited { service: RenderServiceId, scanned: usize, scan: SimTime }
        => "{service} discovered via UDDI ({scanned} services scanned, {scan})";
    Overload: Overloaded { service: RenderServiceId, fps: f64 }
        => "{service} at {fps:.1} fps (threshold {})", OVERLOAD_FPS;
    Overload: Drifting { service: RenderServiceId, measured: f64, expected: f64 }
        => "{service} drifting: measured {measured:.0} vs advertised {expected:.0}";
    /// A render service failed on the event path, alone holding `orphaned` subtrees.
    Failure: Failed { service: RenderServiceId, orphaned: usize }
        => "{service} failed; {orphaned} orphaned subtree(s)";
    /// A render service failed on the incremental path.
    Failure: FailedBeforeReplay { service: RenderServiceId }
        => "{service} failed; plan replay will re-home its share";
    Underload: Underloaded { service: RenderServiceId } => "{service} has headroom";
    Refusal: Refused { ds: DataServiceId, nodes: usize, polygons: u64 }
        => "{ds}: insufficient resources for {nodes} nodes ({polygons} polygons) — request refused";
    Refusal: ReplanRefused { ds: DataServiceId, error: String }
        => "{ds}: incremental replan: {error}";
    Refusal: SessionLost { ds: DataServiceId }
        => "{ds} failed with no standby and no durable store — session lost";
    Collaboration: Joined { label: String, ds: DataServiceId } => "{label} joined {ds}";
    Collaboration: Left { label: String, ds: DataServiceId } => "{label} left {ds}";
    Collaboration: SteeringBridge { host: String, atoms: usize }
        => "steering bridge to {host}: {atoms} atoms";
    Checkpoint: Checkpoint { ds: DataServiceId, seq: u64, report: CompactionReport }
        => "{ds}: {} checkpoint at seq {seq}: {} segment(s) + {} snapshot(s) + {} delta(s) \
            compacted, {} bytes freed", report.kind, report.segments_deleted.len(),
            report.snapshots_deleted, report.deltas_deleted, report.bytes_freed;
    Checkpoint: CheckpointFailed { ds: DataServiceId, seq: u64, error: String }
        => "{ds}: checkpoint at seq {seq} failed: {error}";
    Recovery: Recovered {
        failed: DataServiceId, new: DataServiceId, host: String, session: String, seq: u64,
        snapshot_seq: u64, deltas: usize, replayed: usize, subscribers: usize,
    } => "{failed} -> {new} on {host}: recovered \"{session}\" at seq {seq} (snapshot seq \
          {snapshot_seq} + {deltas} delta(s), {replayed} WAL entries replayed), {subscribers} \
          subscriber(s) re-mirroring";
    /// Measured throughput (cost units a second) of each freshly rendered tile's service.
    TileCostFeedback: TileCosts { rates: Vec<(RenderServiceId, f64)> } => "tile throughput:{}",
        rates.iter().map(|(service, rate)| format!(" {service}={rate:.0}u/s")).collect::<String>();
    /// One placement of `node`: `trigger` is the event that asked for it,
    /// `candidates` each service considered with its polygon headroom.
    SchedDecision: SchedDecision {
        trigger: &'static str, node: NodeId, cost: NodeCost, chosen: Option<RenderServiceId>,
        candidates: Vec<(RenderServiceId, u64)>,
    } => "{trigger}: shard {node} ({} polys) -> {} [candidates: {}]", cost.polygons,
        chosen.map_or("unplaced".to_string(), |service| service.to_string()),
        candidates.iter().map(|(service, room)| format!("{service}@{room}")).collect::<Vec<_>>()
            .join(" ");
    CodecSwitch: CodecSwitch {
        rs: RenderServiceId, client: ClientId, from: Codec, to: Codec, encoded_bytes: u64,
        frame_bytes: u64,
    } => "{rs}->{client}: {} -> {} (ratio {:.3})", from.name(), to.name(),
        *encoded_bytes as f64 / (*frame_bytes).max(1) as f64;
    LogShip: StandingBy { standby: DataServiceId, primary: DataServiceId, resumed: u64 }
        => "{standby} standing by for {primary} (resumed from seq {resumed})";
    /// A sealed WAL segment of `len` file bytes, shipped in `bytes`.
    LogShip: ShippedSegment {
        primary: DataServiceId, standby: DataServiceId, segment: u64, len: usize, bytes: u64,
    } => "{primary} -> {standby}: sealed segment #{segment} ({len} bytes) ({bytes} bytes)";
    /// The active segment's entries `first..=last`, shipped in `bytes`.
    LogShip: ShippedTail {
        primary: DataServiceId, standby: DataServiceId, segment: u64, entries: usize, first: u64,
        last: u64, bytes: u64,
    } => "{primary} -> {standby}: tail of segment #{segment} ({entries} entries, seqs \
          {first}..={last}) ({bytes} bytes)";
    LogShip: AckTorn { standby: DataServiceId, primary: DataServiceId, seq: u64, segment: u64 }
        => "{standby} -> {primary}: ack seq {seq} torn, re-requesting segment #{segment}";
    LogShip: ShippingStopped { primary: DataServiceId, error: String }
        => "{primary}: shipping stopped: {error}";
    Promote: Promoted { seq: u64, report: PromotionReport }
        => "{} -> {}: promoted at seq {seq} ({} subscriber(s) re-pointed, {} residual entr(ies) \
            replayed, {} committed update(s) lost)", report.failed, report.promoted,
            report.subscribers_moved, report.residual_entries, report.lost_updates;
    /// Frame `index` waited `stall` seconds on the `bound` resource.
    PipelineStall: PipelineStall { client: ClientId, index: u64, stall: f64, bound: Bound }
        => "{client} frame {index} waited {stall:.4}s ({})", bound.name();
}

/// One kept row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub at: SimTime,
    pub event: TraceEvent,
}

/// One row as text: what [`EventTrace::events`] hands out.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedRow {
    pub at: SimTime,
    pub kind: TraceKind,
    pub detail: String,
}

/// The newest [`KEEP`] rows, and exact per-kind counts of every row.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    rows: VecDeque<Row>,
    counts: [usize; KINDS],
}

impl EventTrace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.rows.len() == KEEP {
            self.rows.pop_front();
        }
        self.counts[event.kind() as usize] += 1;
        self.rows.push_back(Row { at, event });
    }

    /// Rows recorded so far, kept or not: a position for [`EventTrace::since`].
    pub fn recorded(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The kept rows recorded after `position`, an earlier [`EventTrace::recorded`].
    pub fn since(&self, position: usize) -> impl Iterator<Item = &Row> {
        let first_kept = self.recorded() - self.rows.len();
        self.rows.range(position.saturating_sub(first_kept).min(self.rows.len())..)
    }

    /// The kept rows, rendered.
    pub fn events(&self) -> Vec<RenderedRow> {
        let render =
            |r: &Row| RenderedRow { at: r.at, kind: r.event.kind(), detail: r.event.to_string() };
        self.rows.iter().map(render).collect()
    }

    pub fn of_kind(&self, kind: TraceKind) -> impl DoubleEndedIterator<Item = &Row> {
        self.rows.iter().filter(move |r| r.event.kind() == kind)
    }

    /// Every row of `kind` ever recorded, kept or not.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.counts[kind as usize]
    }

    pub fn first_of(&self, kind: TraceKind) -> Option<&Row> {
        self.of_kind(kind).next()
    }

    pub fn last_of(&self, kind: TraceKind) -> Option<&Row> {
        self.of_kind(kind).next_back()
    }

    /// Render the kept rows as text (experiment logs).
    pub fn render(&self) -> String {
        let line =
            |r: &Row| format!("[{:>10}] {:?}: {}\n", r.at.to_string(), r.event.kind(), r.event);
        self.rows.iter().map(line).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_store::CheckpointKind;

    fn rs(n: u64) -> RenderServiceId {
        RenderServiceId(n)
    }

    fn ds(n: u64) -> DataServiceId {
        DataServiceId(n)
    }

    fn shard(
        (n, polygons): (u64, u64),
        chosen: Option<RenderServiceId>,
        candidates: Vec<(RenderServiceId, u64)>,
    ) -> TraceEvent {
        let (node, cost) = (NodeId(n), NodeCost { polygons, ..NodeCost::default() });
        TraceEvent::SchedDecision { trigger: "Failure", node, cost, chosen, candidates }
    }

    /// Every variant renders, kind and detail, as the string row it
    /// replaced read. The lines are the old rows' text as the test suite
    /// and examples recorded it; `AckTorn` and `ShippingStopped` rows no
    /// test records, so theirs are the old format strings' output. A
    /// failure row's kind was `Overload` until failures got their own.
    #[test]
    fn every_variant_renders_its_former_line() {
        use TraceEvent::*;
        let promotion = PromotionReport {
            failed: ds(1),
            promoted: ds(2),
            warm: true,
            subscribers_moved: 1,
            residual_entries: 0,
            replayed_bytes: 0,
            lost_updates: 2,
            completed_at: SimTime::ZERO,
        };
        let report = CompactionReport {
            kind: CheckpointKind::Full,
            segments_deleted: vec![3, 4],
            snapshots_deleted: 1,
            deltas_deleted: 0,
            bytes_freed: 4236,
        };
        let (cl1, place_error) = (
            ClientId(1),
            "insufficient render resources: scene needs \
            196000 polygons/frame, connected services offer 104986",
        );
        let three = vec![(rs(2), 2243827), (rs(3), 1000178), (rs(5), 552624)];
        let cases = [
            (
                Bootstrapped { rs: rs(1), ds: ds(1), replayed: 1 },
                "Bootstrap: rs1 live on ds1 (1 buffered updates replayed)",
            ),
            (
                SnapshotDropped { rs: rs(2), ds: ds(1) },
                "Bootstrap: rs2's snapshot from ds1 dropped: a service failed",
            ),
            (
                UpdatePublished { ds: ds(1), seq: 1, origin: "Desktop".into() },
                "UpdatePublished: ds1 seq=1 from Desktop",
            ),
            (
                UpdateDelivered { seq: 10, to: rs(2), applied: false },
                "UpdateDelivered: seq=10 -> rs2 applied=false",
            ),
            (
                UpdatesDropped { first: 10, last: 12, to: rs(1) },
                "UpdateDelivered: seq=10..=12 -> rs1 dropped",
            ),
            (FrameDelivered { client: cl1, via: rs(1) }, "FrameDelivered: cl1 frame via rs1"),
            (
                TiledFrame { client: cl1, owner: rs(1), tiles: 2, stale: true },
                "FrameDelivered: tiled frame for cl1 on rs1: 2 tiles, stale=true",
            ),
            (
                VolumeFrame { bricks: 2, owner: rs(1) },
                "FrameDelivered: distributed volume frame: 2 bricks via rs1",
            ),
            (
                Moved { node: NodeId(1), from: rs(1), to: rs(2) },
                "Migration: node #1 moved rs1 -> rs2",
            ),
            (Installed { node: NodeId(1), to: rs(2) }, "Migration: node #1 installed on rs2"),
            (
                Recruited { service: rs(3), scanned: 2, scan: SimTime::from_millis(684.0) },
                "Recruitment: rs3 discovered via UDDI (2 services scanned, 684.000ms)",
            ),
            (Overloaded { service: rs(1), fps: 1.2 }, "Overload: rs1 at 1.2 fps (threshold 10)"),
            (
                Drifting { service: rs(1), measured: 1000.4, expected: 1e7 },
                "Overload: rs1 drifting: measured 1000 vs advertised 10000000",
            ),
            (Failed { service: rs(1), orphaned: 1 }, "Failure: rs1 failed; 1 orphaned subtree(s)"),
            (
                FailedBeforeReplay { service: rs(2) },
                "Failure: rs2 failed; plan replay will re-home its share",
            ),
            (Underloaded { service: rs(2) }, "Underload: rs2 has headroom"),
            (
                Refused { ds: ds(1), nodes: 1, polygons: 60000 },
                "Refusal: ds1: insufficient resources for 1 nodes (60000 polygons) — request \
                 refused",
            ),
            (
                ReplanRefused { ds: ds(1), error: place_error.into() },
                "Refusal: ds1: incremental replan: insufficient render resources: scene needs \
                 196000 polygons/frame, connected services offer 104986",
            ),
            (
                SessionLost { ds: ds(1) },
                "Refusal: ds1 failed with no standby and no durable store — session lost",
            ),
            (Joined { label: "ann".into(), ds: ds(1) }, "Collaboration: ann joined ds1"),
            (Left { label: "u".into(), ds: ds(1) }, "Collaboration: u left ds1"),
            (
                SteeringBridge { host: "onyx".into(), atoms: 8 },
                "Collaboration: steering bridge to onyx: 8 atoms",
            ),
            (
                Checkpoint { ds: ds(1), seq: 160, report },
                "Checkpoint: ds1: full checkpoint at seq 160: 2 segment(s) + 1 snapshot(s) + 0 \
                 delta(s) compacted, 4236 bytes freed",
            ),
            (
                CheckpointFailed {
                    ds: ds(1),
                    seq: 2,
                    error: "No such file or directory (os error 2)".into(),
                },
                "Checkpoint: ds1: checkpoint at seq 2 failed: No such file or directory (os error \
                 2)",
            ),
            (
                Recovered {
                    failed: ds(1),
                    new: ds(2),
                    host: "adrenochrome".into(),
                    session: "lone-session".into(),
                    seq: 12,
                    snapshot_seq: 0,
                    deltas: 0,
                    replayed: 12,
                    subscribers: 1,
                },
                "Recovery: ds1 -> ds2 on adrenochrome: recovered \"lone-session\" at seq 12 \
                 (snapshot seq 0 + 0 delta(s), 12 WAL entries replayed), 1 subscriber(s) \
                 re-mirroring",
            ),
            (
                TileCosts { rates: vec![(rs(1), 727284.6), (rs(2), 131557.0)] },
                "TileCostFeedback: tile throughput: rs1=727285u/s rs2=131557u/s",
            ),
            (
                shard((1, 1276), Some(rs(2)), three),
                "SchedDecision: Failure: shard #1 (1276 polys) -> rs2 [candidates: rs2@2243827 \
                 rs3@1000178 rs5@552624]",
            ),
            (
                shard((2, 15000), None, vec![]),
                "SchedDecision: Failure: shard #2 (15000 polys) -> unplaced \
                [candidates: ]",
            ),
            (
                CodecSwitch {
                    rs: rs(1),
                    client: cl1,
                    from: Codec::Raw,
                    to: Codec::DeltaRle,
                    encoded_bytes: 5,
                    frame_bytes: 1000,
                },
                "CodecSwitch: rs1->cl1: raw -> delta+rle (ratio 0.005)",
            ),
            (
                StandingBy { standby: ds(2), primary: ds(1), resumed: 20 },
                "LogShip: ds2 standing by for ds1 (resumed from seq 20)",
            ),
            (
                ShippedSegment {
                    primary: ds(1),
                    standby: ds(2),
                    segment: 0,
                    len: 1050650,
                    bytes: 1050682,
                },
                "LogShip: ds1 -> ds2: sealed segment #0 (1050650 bytes) (1050682 bytes)",
            ),
            (
                ShippedTail {
                    primary: ds(1),
                    standby: ds(2),
                    segment: 0,
                    entries: 10,
                    first: 1,
                    last: 10,
                    bytes: 662,
                },
                "LogShip: ds1 -> ds2: tail of segment #0 (10 entries, seqs 1..=10) (662 bytes)",
            ),
            (
                AckTorn { standby: ds(2), primary: ds(1), seq: 41, segment: 3 },
                "LogShip: ds2 -> ds1: ack seq 41 torn, re-requesting segment #3",
            ),
            (
                ShippingStopped { primary: ds(1), error: "disk full".into() },
                "LogShip: ds1: shipping stopped: disk full",
            ),
            (
                Promoted { seq: 28, report: promotion },
                "Promote: ds1 -> ds2: promoted at seq 28 (1 subscriber(s) re-pointed, 0 residual \
                 entr(ies) replayed, 2 committed update(s) lost)",
            ),
            (
                PipelineStall { client: cl1, index: 1, stall: 0.05068, bound: Bound::Client },
                "PipelineStall: cl1 frame 1 waited 0.0507s (client)",
            ),
        ];
        for (event, line) in cases {
            assert_eq!(format!("{:?}: {event}", event.kind()), line);
        }
    }

    fn installed(n: usize) -> TraceEvent {
        TraceEvent::Installed { node: NodeId(n as u64), to: rs(1) }
    }

    /// Past `KEEP` rows the ring keeps the newest, in order, and every
    /// count stays exact.
    #[test]
    fn the_ring_keeps_the_newest_rows_and_counts_them_all() {
        let mut t = EventTrace::new();
        for n in 0..3 * KEEP {
            let event = match n % 3 {
                0 => installed(n),
                _ => TraceEvent::Underloaded { service: rs(n as u64) },
            };
            t.record(SimTime::from_secs(n as f64), event);
        }
        assert_eq!(t.recorded(), 3 * KEEP);
        assert_eq!(t.count(TraceKind::Migration), KEEP);
        assert_eq!(t.count(TraceKind::Underload), 2 * KEEP);
        assert_eq!(t.count(TraceKind::Overload), 0);
        let kept: Vec<SimTime> = t.since(0).map(|row| row.at).collect();
        let newest: Vec<SimTime> =
            (2 * KEEP..3 * KEEP).map(|n| SimTime::from_secs(n as f64)).collect();
        assert_eq!(kept, newest);
        assert_eq!(t.events().len(), KEEP);
        assert_eq!(t.render().lines().count(), KEEP);
        let moved: Vec<usize> = (2 * KEEP..3 * KEEP).filter(|n| n % 3 == 0).collect();
        assert_eq!(t.first_of(TraceKind::Migration).unwrap().event, installed(moved[0]));
        assert_eq!(
            t.last_of(TraceKind::Migration).unwrap().event,
            installed(moved[moved.len() - 1])
        );
        assert_eq!(t.of_kind(TraceKind::Migration).count(), moved.len());
    }

    /// `since` reads exactly the rows recorded past a position, whether or
    /// not the ring has turned since.
    #[test]
    fn since_reads_exactly_the_rows_past_a_position() {
        let mut t = EventTrace::new();
        assert_eq!(t.since(t.recorded()).count(), 0);
        for n in 0..10 {
            t.record(SimTime::ZERO, installed(n));
        }
        let position = t.recorded();
        assert_eq!(t.since(position).count(), 0);
        t.record(SimTime::ZERO, installed(10));
        t.record(SimTime::ZERO, installed(11));
        let past: Vec<&TraceEvent> = t.since(position).map(|row| &row.event).collect();
        assert_eq!(past, [&installed(10), &installed(11)]);
        for n in 12..KEEP + 15 {
            t.record(SimTime::ZERO, installed(n));
        }
        let last = t.recorded() - 3;
        let past: Vec<&TraceEvent> = t.since(last).map(|row| &row.event).collect();
        assert_eq!(past, [&installed(KEEP + 12), &installed(KEEP + 13), &installed(KEEP + 14)]);
        let turned = t.since(position).next().map(|row| &row.event);
        assert_eq!(turned, Some(&installed(15)), "the rows that left the ring are not read");
    }
}
