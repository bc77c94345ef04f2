//! Log shipping: continuous replication of the WAL to a warm standby.
//!
//! The paper's §6 fail-safe ("data servers could mirror each other") done
//! the way production logs do it. Every frame is a run of one segment's
//! records past the standby's cursor, the CRC-framed bytes exactly as they
//! sit in the primary's segment, whether that segment is sealed or still
//! active. A sealed segment with records past the cursor ships all of
//! them; the active one's ship once the standby would otherwise trail past
//! a configurable lag bound. The standby writes them over the fill of its
//! own copy of the segment, so each of its segment files is a byte-exact
//! prefix of the primary's — after promotion the shipped store *is* a WAL
//! a [`crate::Store`] opens and appends to, so sequence numbers continue
//! where the primary stopped.
//!
//! Protocol shape (driven by the caller, e.g. the simulation's replica
//! subsystem, which owns timing and transport):
//!
//! 1. the standby reports its durable [`StandbyLog::last_seq`];
//! 2. the primary syncs its log, [`Shipper::feed`]s it what the WAL framed
//!    since the last tick ([`crate::Wal::take_framed`]) and
//!    [`Shipper::plan`]s a batch of [`ShipFrame`]s past that cursor. When
//!    the fed records continue the cursor, the frame is cut from them and
//!    no file is read; otherwise sealed segments at or below the cursor
//!    are *skipped from headers alone* (the next segment's `base_seq`
//!    bounds this one's contents, so resume never re-reads what the
//!    standby already holds) and the others are read back;
//! 3. the standby [`StandbyLog::apply`]s each frame and answers with a
//!    sequence-numbered [`ShipAck`]. A frame that arrives torn or corrupt,
//!    or past a gap, is *not* written: the ack re-states the cursor, and
//!    the primary plans again from it.
//!
//! Every apply leaves the standby holding an exact, contiguous prefix of
//! the primary's committed log — never a gap, never a torn record.

use crate::segment::{
    decode_records, list_segments, read_segment, read_segment_file, read_segment_header,
    segment_file_name, DecodedRecords, SegmentWriter, SEGMENT_HEADER_LEN,
};
use crate::wal::{FramedTail, RecordMark};
use rave_scene::AuditEntry;
use std::io;
use std::path::{Path, PathBuf};

/// Fixed per-frame accounting overhead (segment, seq range, counts).
pub const FRAME_OVERHEAD: u64 = 32;
/// Wire size of a [`ShipAck`] (seq + torn flag + framing).
pub const ACK_BYTES: u64 = 24;
/// Per-entry framing overhead inside a [`ShipFrame`].
pub const TAIL_ENTRY_OVERHEAD: u64 = 16;

/// One unit of replication traffic, primary → standby: records of one
/// segment past the standby's cursor, the CRC-framed bytes as they sit in
/// the primary's segment. `index`/`base_seq` name the segment they belong
/// to so the standby can grow its own copy of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShipFrame {
    pub index: u64,
    pub base_seq: u64,
    /// Sequence numbers of the first and the last record.
    pub first_seq: u64,
    pub last_seq: u64,
    /// Records in `records`.
    pub count: u64,
    /// What the entries charge the wire: Σ(`stamped.wire_size()` +
    /// [`TAIL_ENTRY_OVERHEAD`]), summed as each record was framed.
    pub charge: u64,
    pub records: Vec<u8>,
}

impl ShipFrame {
    /// Bytes this frame occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        self.charge + FRAME_OVERHEAD
    }
}

impl FramedTail {
    /// How many leading records a standby holding everything up to
    /// `covered` already has, when the records past `covered` start in
    /// this run; `None` when they start before it.
    fn held_by(&self, covered: u64) -> Option<usize> {
        let held = self.marks.partition_point(|m| m.seq <= covered);
        let next = held.checked_sub(1).map_or(self.first_seq, |i| self.marks[i].seq + 1);
        (next == covered + 1).then_some(held)
    }

    /// The run as one frame (`None` when it is empty).
    fn into_frame(self) -> Option<ShipFrame> {
        let (first, last) = (self.marks.first()?.seq, self.marks.last()?.seq);
        Some(ShipFrame {
            index: self.index,
            base_seq: self.base_seq,
            first_seq: first,
            last_seq: last,
            count: self.marks.len() as u64,
            charge: self.marks.iter().map(|m| m.charge).sum(),
            records: self.bytes,
        })
    }
}

/// The standby's answer to one applied frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipAck {
    /// Highest contiguous sequence number durably held after the apply.
    pub last_seq: u64,
    /// The frame arrived torn or corrupt and was declined: the primary
    /// plans again from `last_seq`.
    pub torn: bool,
}

/// Primary-side planner: decides what a standby at a given cursor needs.
/// Any standby cursor can be planned for at any time — resume after any
/// interruption, a declined frame included, is just a `plan` against the
/// standby's reported `last_seq`. A `Shipper` kept across ticks holds the
/// active segment's records it has not shipped yet (those `max_lag` holds
/// back too), byte for byte, so a tick [`Shipper::feed`] continues reads
/// no file.
#[derive(Debug, Clone)]
pub struct Shipper {
    dir: PathBuf,
    /// The active segment's unshipped records, from the last feed or the
    /// last read of the file.
    tail: Option<FramedTail>,
    /// A feed came since the last plan: `tail` ends where the log does.
    fed: bool,
    file_bytes_read: u64,
}

impl Shipper {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), tail: None, fed: false, file_bytes_read: 0 }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of segment files every `plan` so far has read.
    pub fn file_bytes_read(&self) -> u64 {
        self.file_bytes_read
    }

    /// Hand over what the WAL framed since the last feed
    /// ([`crate::Wal::take_framed`], taken after the log's sync): the
    /// next `plan`, and only the next, trusts the held records to end
    /// where the log ends. A run that does not continue the held records
    /// replaces them.
    pub fn feed(&mut self, framed: FramedTail) {
        match &mut self.tail {
            Some(held) if held.index == framed.index && held.end() == framed.offset => {
                held.bytes.extend_from_slice(&framed.bytes);
                held.marks.extend_from_slice(&framed.marks);
            }
            slot => *slot = Some(framed),
        }
        self.fed = true;
    }

    /// Plan at most `limit` frames for a standby whose durable log ends
    /// at `acked_seq` (0 = empty). Sealed segments wholly at or below the
    /// cursor are skipped from their successors' headers without reading
    /// a single record body; a sealed segment with records past it ships
    /// all of them, one frame. The active segment's records ship only past
    /// `max_lag`: the newest `max_lag` records may stay unshipped until
    /// rotation seals them (0 = ship everything immediately).
    ///
    /// After a [`Shipper::feed`] whose records continue the cursor, the
    /// plan is the frame cut from them, and no directory is listed and no
    /// file read: it is the frame a fresh `Shipper` would read back from
    /// the active segment.
    ///
    /// Errors when the cursor predates the oldest retained segment — the
    /// needed history was compacted away and the standby must be
    /// re-established through a full bootstrap instead.
    pub fn plan(
        &mut self,
        acked_seq: u64,
        max_lag: u64,
        limit: usize,
    ) -> io::Result<Vec<ShipFrame>> {
        let fed = std::mem::take(&mut self.fed);
        if limit == 0 {
            return Ok(Vec::new());
        }
        // How many fed records a standby at `covered` holds, when the
        // records past it start among them.
        let fed_held =
            |tail: &Option<FramedTail>, covered| tail.as_ref().filter(|_| fed)?.held_by(covered);
        if let Some(held) = fed_held(&self.tail, acked_seq) {
            return Ok(self.ship_tail(held, max_lag).into_iter().collect());
        }
        let segments = list_segments(&self.dir)?;
        let mut frames = Vec::new();
        if segments.is_empty() {
            return Ok(frames);
        }
        let first_base = read_segment_header(&segments[0].1)?.base_seq;
        if first_base > acked_seq.saturating_add(1) {
            return Err(io::Error::other(format!(
                "standby at seq {acked_seq} predates oldest retained segment \
                 (base_seq {first_base}): history compacted away, \
                 re-establish from a snapshot"
            )));
        }
        // Sealed segments: everything but the highest index. Segment i's
        // entries all lie below segment i+1's base_seq, so the skip
        // decision needs only the 28-byte headers.
        let mut covered = acked_seq;
        for i in 0..segments.len() - 1 {
            let upper = read_segment_header(&segments[i + 1].1)?.base_seq.saturating_sub(1);
            if upper <= covered {
                continue;
            }
            if frames.len() >= limit {
                return Ok(frames);
            }
            frames.extend(self.read_tail(&segments[i].1, covered)?.into_frame());
            covered = upper;
        }
        if frames.len() >= limit {
            return Ok(frames);
        }
        // Active-segment tail: the fed records when they continue the
        // cursor, else the file read back.
        let (index, path) = segments.last().expect("non-empty");
        let on_active = self.tail.as_ref().is_some_and(|t| t.index == *index);
        let held = match fed_held(&self.tail, covered).filter(|_| on_active) {
            Some(held) => held,
            None => {
                self.tail = Some(self.read_tail(path, covered)?);
                0
            }
        };
        frames.extend(self.ship_tail(held, max_lag));
        Ok(frames)
    }

    /// Drop the first `held` records of the kept tail, which the standby
    /// has, and cut a frame of the oldest of the rest, leaving at most
    /// `max_lag` of the newest kept.
    fn ship_tail(&mut self, held: usize, max_lag: u64) -> Option<ShipFrame> {
        let tail = self.tail.as_mut()?;
        tail.split_front(held);
        let ship_n = tail.marks.len().saturating_sub(max_lag as usize);
        tail.split_front(ship_n).into_frame()
    }

    /// Read a segment whole and keep the records past `covered`.
    fn read_tail(&mut self, path: &Path, covered: u64) -> io::Result<FramedTail> {
        let (buf, header, DecodedRecords { records, .. }) = read_segment_file(path)?;
        self.file_bytes_read += buf.len() as u64;
        let held = records.partition_point(|(e, _)| e.stamped.seq <= covered);
        let header_len = SEGMENT_HEADER_LEN as u64;
        let start = held.checked_sub(1).map_or(header_len, |i| records[i].1);
        let end = records.last().map_or(header_len, |(_, end)| *end);
        let marks: Vec<RecordMark> = records[held..]
            .iter()
            .map(|(e, end)| RecordMark {
                seq: e.stamped.seq,
                end: *end,
                charge: e.stamped.wire_size() + TAIL_ENTRY_OVERHEAD,
            })
            .collect();
        Ok(FramedTail {
            index: header.index,
            base_seq: header.base_seq,
            offset: start,
            first_seq: marks.first().map_or(covered + 1, |m| m.seq),
            bytes: buf[start as usize..end as usize].to_vec(),
            marks,
        })
    }
}

/// What one [`StandbyLog::apply`] did.
#[derive(Debug)]
pub struct ShipApply {
    /// Entries newly added to the standby's log, in sequence order —
    /// the caller replays these into its live replica.
    pub entries: Vec<AuditEntry>,
    /// The ack to return to the primary.
    pub ack: ShipAck,
}

/// Standby-side receiver: maintains a WAL directory that is always an
/// exact, contiguous prefix of the primary's. After promotion the
/// directory opens as an ordinary [`crate::Store`].
#[derive(Debug)]
pub struct StandbyLog {
    dir: PathBuf,
    last_seq: u64,
    /// The primary's segment size: the fill of each copy frames grow.
    segment_bytes: u64,
    /// The segment frames are growing, kept open between frames. It is
    /// re-opened — with the full verify-and-repair read — only when a
    /// frame names another segment, after a failed write, or after
    /// [`StandbyLog::open`].
    writer: Option<SegmentWriter>,
    reopens: u64,
}

impl StandbyLog {
    /// Open (or initialise) the standby's log directory, resuming from
    /// whatever prefix it already holds; the segments frames start are
    /// zero-filled to `segment_bytes`, the primary's segment size.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let last_seq = match list_segments(&dir)?.last() {
            None => 0,
            Some((_, path)) => {
                let contents = read_segment(path)?;
                contents
                    .entries
                    .last()
                    .map(|e| e.stamped.seq)
                    .unwrap_or_else(|| contents.header.base_seq.saturating_sub(1))
            }
        };
        Ok(Self { dir, last_seq, segment_bytes, writer: None, reopens: 0 })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Times an existing segment file was re-opened (read, verified and
    /// repaired) to take a frame.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Highest contiguous sequence number durably held.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Apply one frame: write its records past `last_seq` into the copy of
    /// its segment, verbatim, with one write and one sync. A torn or
    /// corrupt frame is declined as torn; a gap (a frame starting past
    /// `last_seq + 1`) is declined by re-stating the cursor. Either way
    /// the primary re-plans from the cursor. Duplicates are ignored
    /// idempotently.
    pub fn apply(&mut self, frame: &ShipFrame) -> io::Result<ShipApply> {
        let Some(mut entries) = verify(frame) else { return Ok(self.decline(true)) };
        let held = entries.partition_point(|(e, _)| e.stamped.seq <= self.last_seq);
        let Some((first, _)) = entries.get(held) else {
            return Ok(self.decline(false)); // pure duplicate — idempotent
        };
        if first.stamped.seq > self.last_seq + 1 {
            return Ok(self.decline(false)); // gap: earlier entries missing
        }
        if self.writer.as_ref().is_none_or(|w| w.header.index != frame.index) {
            let path = self.dir.join(segment_file_name(frame.index));
            self.writer = Some(if path.exists() {
                self.reopens += 1;
                SegmentWriter::open_for_append(&path, self.segment_bytes)?.0
            } else if first.stamped.seq == frame.base_seq {
                SegmentWriter::create(&self.dir, frame.index, frame.base_seq, self.segment_bytes)?
            } else {
                // `base_seq` sits outside the records' CRC, and replay and
                // compaction trust a copy's header: a copy starts where
                // its first record does.
                return Ok(self.decline(true));
            });
        }
        let writer = self.writer.as_mut().expect("opened above");
        let skip = held.checked_sub(1).map_or(0, |i| entries[i].1 as usize);
        let written = writer
            .write_records(&frame.records[skip..], frame.last_seq)
            .and_then(|()| writer.sync());
        if written.is_err() {
            // The file may end in a partial record: verify and repair it
            // before the next frame extends it.
            self.writer = None;
        }
        written?;
        self.last_seq = frame.last_seq;
        let entries = entries.drain(held..).map(|(e, _)| e).collect();
        Ok(ShipApply { entries, ack: ShipAck { last_seq: self.last_seq, torn: false } })
    }

    fn decline(&self, torn: bool) -> ShipApply {
        ShipApply { entries: Vec::new(), ack: ShipAck { last_seq: self.last_seq, torn } }
    }
}

/// Check a frame end to end: every record passes its CRC and wire-decodes
/// ([`decode_records`]), and the records are the whole of `records`, the
/// `count` the frame names, from `first_seq` to `last_seq`. Returns each
/// decoded entry with the offset in `records` its record ends at.
fn verify(frame: &ShipFrame) -> Option<Vec<(AuditEntry, u64)>> {
    let records = decode_records(&frame.records, 0).ok()?.records;
    let (first, last) = (&records.first()?.0, records.last()?);
    let whole = last.1 == frame.records.len() as u64 && records.len() as u64 == frame.count;
    let seqs = (first.stamped.seq, last.0.stamped.seq) == (frame.first_seq, frame.last_seq);
    (whole && seqs).then_some(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use crate::wal::Wal;
    use rave_scene::{NodeKind, SceneTree, SceneUpdate, StampedUpdate};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rave-store-ship-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Append `n` tree-building entries to a WAL, returning the live tree.
    fn primary_session(dir: &Path, n: u64, seg_bytes: u64) -> SceneTree {
        let (mut wal, _) = Wal::open(dir, seg_bytes).unwrap();
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
                stamped: StampedUpdate { seq, origin: "ship".into(), update },
            })
            .unwrap();
        }
        wal.sync().unwrap();
        tree
    }

    /// Drive plan/apply to quiescence; returns frames shipped.
    fn drain(shipper: &mut Shipper, standby: &mut StandbyLog, max_lag: u64) -> usize {
        let mut shipped = 0;
        loop {
            let frames = shipper.plan(standby.last_seq(), max_lag, 4).unwrap();
            if frames.is_empty() {
                return shipped;
            }
            for f in &frames {
                standby.apply(f).unwrap();
                shipped += 1;
            }
        }
    }

    #[test]
    fn full_ship_reproduces_the_log_exactly() {
        let (pdir, sdir) = (tmp_dir("full-p"), tmp_dir("full-s"));
        let live = primary_session(&pdir, 40, 256); // several rotations
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(standby.last_seq(), 40);
        let rec = recover(&sdir).unwrap();
        assert_eq!(rec.last_seq, 40);
        assert_eq!(rec.tree, live);
        // Sealed segments are byte-identical copies; the standby's active
        // segment holds the primary's record bytes over the same fill.
        for (idx, p_path) in list_segments(&pdir).unwrap() {
            let s_path = sdir.join(segment_file_name(idx));
            assert_eq!(
                std::fs::read(&p_path).unwrap(),
                std::fs::read(&s_path).unwrap(),
                "segment {idx} differs"
            );
        }
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn resume_skips_already_held_segments() {
        let (pdir, sdir) = (tmp_dir("resume-p"), tmp_dir("resume-s"));
        primary_session(&pdir, 30, 256);
        let mut shipper = Shipper::new(&pdir);
        {
            let mut standby = StandbyLog::open(&sdir, 256).unwrap();
            // Ship only the first couple of frames, then "crash".
            let frames = shipper.plan(0, 0, 2).unwrap();
            for f in &frames {
                standby.apply(f).unwrap();
            }
        }
        // A fresh standby process resumes from its durable cursor: the
        // next plan starts past everything already held.
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        let held = standby.last_seq();
        assert!(held > 0, "prefix survived the restart");
        let frames = shipper.plan(held, 0, 16).unwrap();
        assert_eq!(frames[0].first_seq, held + 1, "nothing held is shipped again");
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(standby.last_seq(), 30);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn torn_frame_is_rerequested_and_converges() {
        let (pdir, sdir) = (tmp_dir("torn-p"), tmp_dir("torn-s"));
        let live = primary_session(&pdir, 30, 256);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        let mut frame = shipper.plan(0, 0, 1).unwrap().remove(0);
        assert_eq!((frame.index, frame.first_seq), (0, 1), "sealed segment 0's records");
        // Damage the frame in flight: flip a byte inside the records.
        let n = frame.records.len();
        frame.records[n - 3] ^= 0xFF;
        let apply = standby.apply(&frame).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: true }, "declined as torn");
        assert!(apply.entries.is_empty() && list_segments(&sdir).unwrap().is_empty());
        // The plan from the unmoved cursor ships the records again, intact,
        // and the stream converges.
        let again = shipper.plan(apply.ack.last_seq, 0, 1).unwrap().remove(0);
        frame.records[n - 3] ^= 0xFF;
        assert_eq!(again, frame);
        let apply = standby.apply(&again).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: frame.last_seq, torn: false });
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(recover(&sdir).unwrap().tree, live);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn lag_bound_withholds_the_newest_tail_entries() {
        let (pdir, sdir) = (tmp_dir("lag-p"), tmp_dir("lag-s"));
        primary_session(&pdir, 20, 1 << 20); // one active segment, no seals
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        drain(&mut shipper, &mut standby, 5);
        assert_eq!(standby.last_seq(), 15, "newest 5 entries withheld within the lag bound");
        // Tightening the bound ships the rest.
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(standby.last_seq(), 20);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn gap_frames_are_declined_not_installed() {
        let (pdir, sdir) = (tmp_dir("gap-p"), tmp_dir("gap-s"));
        primary_session(&pdir, 30, 256);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        // Deliver a later segment's records first: declined, cursor unmoved.
        let frames = shipper.plan(0, 0, 8).unwrap();
        let later = frames.iter().find(|f| f.index > 0).expect("multiple segments");
        let apply = standby.apply(later).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: false });
        assert!(apply.entries.is_empty());
        assert!(list_segments(&sdir).unwrap().is_empty(), "nothing installed");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn plan_respects_the_frame_limit() {
        let (pdir, _s) = (tmp_dir("limit-p"), ());
        primary_session(&pdir, 50, 128); // many segments
        let mut shipper = Shipper::new(&pdir);
        assert!(list_segments(&pdir).unwrap().len() > 3);
        assert_eq!(shipper.plan(0, 0, 2).unwrap().len(), 2);
        assert!(shipper.plan(0, 0, 0).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&pdir);
    }

    #[test]
    fn compacted_history_is_an_explicit_error() {
        let (pdir, _) = (tmp_dir("compact-p"), ());
        primary_session(&pdir, 30, 256);
        // Simulate compaction deleting the oldest segment.
        let (_, first) = list_segments(&pdir).unwrap().into_iter().next().unwrap();
        std::fs::remove_file(&first).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let err = shipper.plan(0, 0, 8).unwrap_err();
        assert!(err.to_string().contains("compacted"), "{err}");
        let _ = std::fs::remove_dir_all(&pdir);
    }

    #[test]
    fn duplicate_frames_are_idempotent() {
        let (pdir, sdir) = (tmp_dir("dup-p"), tmp_dir("dup-s"));
        let live = primary_session(&pdir, 25, 256);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        let frames = shipper.plan(0, 0, 16).unwrap();
        for f in &frames {
            standby.apply(f).unwrap();
        }
        let before = standby.last_seq();
        for f in &frames {
            let apply = standby.apply(f).unwrap();
            assert!(apply.entries.is_empty(), "duplicate produced new entries");
        }
        assert_eq!(standby.last_seq(), before);
        assert_eq!(recover(&sdir).unwrap().tree, live);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// Append entries `from..=to` (renames of the root) to an open WAL.
    fn append_renames(wal: &mut Wal, seqs: std::ops::RangeInclusive<u64>) {
        for seq in seqs {
            let update =
                SceneUpdate::SetName { id: rave_scene::NodeId(0), name: format!("name-{seq}") };
            wal.append(&AuditEntry {
                at_secs: seq as f64,
                stamped: StampedUpdate { seq, origin: "ship".into(), update },
            })
            .unwrap();
        }
        wal.sync().unwrap();
    }

    #[test]
    fn a_fed_shipper_reads_no_file_in_lockstep_after_its_first_tick() {
        let (pdir, sdir) = (tmp_dir("cursor-p"), tmp_dir("cursor-s"));
        let (mut wal, _) = Wal::open(&pdir, 600).unwrap();
        append_renames(&mut wal, 1..=3);
        wal.keep_framed(true);
        let mut kept = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 600).unwrap();
        let mut first_tick_read = 0;
        for tick in 0..60u64 {
            // One record a tick: a rotation seals only shipped records.
            if tick > 0 {
                append_renames(&mut wal, tick + 3..=tick + 3);
            }
            let want = Shipper::new(&pdir).plan(standby.last_seq(), 0, 8).unwrap();
            kept.feed(wal.take_framed().unwrap());
            let frames = kept.plan(standby.last_seq(), 0, 8).unwrap();
            assert_eq!(frames, want, "tick {tick}: the feed changes what is read, not what ships");
            for f in &frames {
                standby.apply(f).unwrap();
            }
            assert_eq!(standby.last_seq(), tick + 3);
            if tick == 0 {
                // Seqs 1-3 were framed before keeping started: read back.
                first_tick_read = kept.file_bytes_read();
                assert!(first_tick_read > 0);
            }
        }
        assert!(wal.active_segment_index() >= 3, "the log rotated under the feed");
        assert_eq!(kept.file_bytes_read(), first_tick_read, "no file read after the first tick");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn records_held_back_by_the_lag_stay_in_memory() {
        let (pdir, sdir) = (tmp_dir("held-p"), tmp_dir("held-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        wal.keep_framed(true);
        let mut kept = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        for tick in 0..6u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            let want = Shipper::new(&pdir).plan(standby.last_seq(), 5, 4).unwrap();
            let before = kept.file_bytes_read();
            kept.feed(wal.take_framed().unwrap());
            let frames = kept.plan(standby.last_seq(), 5, 4).unwrap();
            assert_eq!(frames, want, "tick {tick}");
            assert_eq!(kept.file_bytes_read(), before, "tick {tick} read a file");
            for f in &frames {
                standby.apply(f).unwrap();
            }
            assert_eq!(standby.last_seq(), (tick * 4 + 4).saturating_sub(5));
        }
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn cursor_is_dropped_when_the_standby_falls_behind_it() {
        let (pdir, sdir) = (tmp_dir("behind-p"), tmp_dir("behind-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        wal.keep_framed(true);
        append_renames(&mut wal, 1..=10);
        let mut shipper = Shipper::new(&pdir);
        shipper.feed(wal.take_framed().unwrap());
        let frames = shipper.plan(0, 0, 4).unwrap();
        assert_eq!(frames[0].last_seq, 10);
        // The frame never arrived: the standby still reports seq 0, and
        // the plan starts over from there, read back from the file,
        // rather than from the fed records past the cursor.
        append_renames(&mut wal, 11..=12);
        shipper.feed(wal.take_framed().unwrap());
        let again = shipper.plan(0, 0, 4).unwrap();
        assert_eq!((again[0].first_seq, again[0].count), (1, 12));
        assert_eq!(again, Shipper::new(&pdir).plan(0, 0, 4).unwrap());
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        standby.apply(&again[0]).unwrap();
        assert_eq!(standby.last_seq(), 12);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn a_torn_tail_frame_is_rerequested_and_converges() {
        let (pdir, sdir) = (tmp_dir("torn-tail-p"), tmp_dir("torn-tail-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        append_renames(&mut wal, 1..=6);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        let mut frame = shipper.plan(0, 0, 1).unwrap().remove(0);
        let n = frame.records.len();
        frame.records[n - 2] ^= 0x10;
        let apply = standby.apply(&frame).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: true });
        assert!(apply.entries.is_empty() && list_segments(&sdir).unwrap().is_empty());
        let frames = shipper.plan(apply.ack.last_seq, 0, 4).unwrap();
        for f in &frames {
            standby.apply(f).unwrap();
        }
        assert_eq!(standby.last_seq(), 6);
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A frame that starts inside what the standby holds (a plan from
    /// the acknowledged cursor while an earlier frame was still on the
    /// wire) adds only the records past it, and the copy stays the
    /// primary's bytes.
    #[test]
    fn a_tail_frame_overlapping_the_held_prefix_writes_only_what_is_past_it() {
        let (pdir, sdir) = (tmp_dir("overlap-p"), tmp_dir("overlap-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        append_renames(&mut wal, 1..=5);
        let early = Shipper::new(&pdir).plan(0, 0, 1).unwrap().remove(0);
        append_renames(&mut wal, 6..=8);
        let late = Shipper::new(&pdir).plan(0, 0, 1).unwrap().remove(0);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        standby.apply(&early).unwrap();
        let apply = standby.apply(&late).unwrap();
        let seqs: Vec<u64> = apply.entries.iter().map(|e| e.stamped.seq).collect();
        assert_eq!((seqs, apply.ack.last_seq), (vec![6, 7, 8], 8));
        let name = segment_file_name(0);
        let (p, s) =
            (std::fs::read(pdir.join(&name)).unwrap(), std::fs::read(sdir.join(&name)).unwrap());
        assert_eq!(p, s, "the copy is the primary's segment, fill and all");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn tail_frames_on_one_segment_reopen_it_at_most_once() {
        let (pdir, sdir) = (tmp_dir("writer-p"), tmp_dir("writer-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        for tick in 0..6u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            for f in &shipper.plan(standby.last_seq(), 0, 4).unwrap() {
                standby.apply(f).unwrap();
            }
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (24, 0), "created, then kept open");
        // A restarted standby verifies the file it finds once, then keeps
        // it open too.
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
        for tick in 6..12u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            for f in &shipper.plan(standby.last_seq(), 0, 4).unwrap() {
                standby.apply(f).unwrap();
            }
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (48, 1));
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A standby one rotation behind is sent the sealed segment's records
    /// past its cursor, not the segment, and its copy is then the
    /// primary's sealed file byte for byte.
    #[test]
    fn a_standby_one_rotation_behind_is_sent_only_the_missing_records() {
        let (pdir, sdir) = (tmp_dir("behind-rot-p"), tmp_dir("behind-rot-s"));
        let (mut wal, _) = Wal::open(&pdir, 600).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 600).unwrap();
        append_renames(&mut wal, 1..=3);
        standby.apply(&shipper.plan(0, 0, 4).unwrap()[0]).unwrap();
        let mut last = 3;
        while wal.active_segment_index() == 0 {
            last += 1;
            append_renames(&mut wal, last..=last);
        }
        let frames = shipper.plan(3, 0, 4).unwrap();
        let (_, path) = &list_segments(&pdir).unwrap()[0];
        let sealed = std::fs::read(path).unwrap();
        let first = &frames[0];
        assert_eq!((first.index, first.first_seq, first.last_seq), (0, 4, last - 1));
        let held = read_segment(path).unwrap().clean_len as usize - first.records.len();
        assert_eq!(&sealed[held..], &first.records[..], "only the records past the cursor");
        for f in &frames {
            standby.apply(f).unwrap();
        }
        assert_eq!(standby.last_seq(), last);
        let copy = std::fs::read(sdir.join(segment_file_name(0))).unwrap();
        assert_eq!(copy, sealed, "the copy is the primary's sealed file");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// `base_seq` sits outside the records' CRC: a frame that would start
    /// a copy somewhere its first record does not is declined as torn.
    #[test]
    fn a_frame_starting_a_copy_off_its_base_seq_is_torn() {
        let (pdir, sdir) = (tmp_dir("base-p"), tmp_dir("base-s"));
        let live = primary_session(&pdir, 30, 256);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        let mut frame = shipper.plan(0, 0, 1).unwrap().remove(0);
        frame.base_seq ^= 0x4;
        assert_eq!(standby.apply(&frame).unwrap().ack, ShipAck { last_seq: 0, torn: true });
        assert!(list_segments(&sdir).unwrap().is_empty(), "nothing created");
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(recover(&sdir).unwrap().tree, live);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }
}
