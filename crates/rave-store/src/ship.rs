//! Log shipping: continuous replication of the WAL to a warm standby.
//!
//! The paper's §6 fail-safe ("data servers could mirror each other") done
//! the way production logs do it: the primary streams *sealed* segments
//! verbatim (they are immutable, so a byte copy is a correct copy), plus
//! a tail of unsealed entries from the active segment once the standby
//! would otherwise trail past a configurable lag bound. The standby
//! writes the same segment files to its own directory — after promotion
//! the shipped store *is* a WAL a [`crate::Store`] opens and appends to,
//! so sequence numbers continue where the primary stopped.
//!
//! Protocol shape (driven by the caller, e.g. the simulation's replica
//! subsystem, which owns timing and transport):
//!
//! 1. the standby reports its durable [`StandbyLog::last_seq`];
//! 2. the primary [`Shipper::plan`]s a batch of [`ShipFrame`]s past that
//!    cursor — sealed segments are *skipped from headers alone* (the next
//!    segment's `base_seq` bounds this one's contents, so resume never
//!    re-reads what the standby already holds);
//! 3. the standby [`StandbyLog::apply`]s each frame and answers with a
//!    sequence-numbered [`ShipAck`]; a frame that arrives torn or corrupt
//!    is *not* installed and the ack carries a re-request for it.
//!
//! Every apply leaves the standby holding an exact, contiguous prefix of
//! the primary's committed log — never a gap, never a torn record.

use crate::record::scan_records;
use crate::segment::{
    decode_records, list_segments, read_segment, read_segment_header, segment_file_name,
    SegmentHeader, SegmentWriter, SEGMENT_HEADER_LEN,
};
use rave_scene::{wire, AuditEntry};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Fixed per-frame accounting overhead (frame type, index, counts).
pub const FRAME_OVERHEAD: u64 = 32;
/// Wire size of a [`ShipAck`] (seq + optional resend index + framing).
pub const ACK_BYTES: u64 = 24;
/// Per-entry framing overhead inside a [`ShipFrame::Tail`].
pub const TAIL_ENTRY_OVERHEAD: u64 = 16;

/// One unit of replication traffic, primary → standby.
#[derive(Debug, Clone, PartialEq)]
pub enum ShipFrame {
    /// A sealed (immutable) segment, shipped as its exact file bytes.
    Sealed { index: u64, bytes: Vec<u8> },
    /// Entries from the primary's *active* segment past the standby's
    /// cursor; `index`/`base_seq` name the segment they belong to so the
    /// standby can grow its own copy of it.
    Tail { index: u64, base_seq: u64, entries: Vec<AuditEntry> },
}

impl ShipFrame {
    /// Bytes this frame occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            ShipFrame::Sealed { bytes, .. } => bytes.len() as u64 + FRAME_OVERHEAD,
            ShipFrame::Tail { entries, .. } => {
                entries.iter().map(|e| e.stamped.wire_size() + TAIL_ENTRY_OVERHEAD).sum::<u64>()
                    + FRAME_OVERHEAD
            }
        }
    }

    /// Highest sequence number the frame carries (None for an empty one).
    pub fn last_seq(&self) -> Option<u64> {
        match self {
            // A sealed frame's bytes are scanned on receipt; for the
            // sender's cursor it is enough to know it ends where the
            // next segment starts, which `plan` tracks externally.
            ShipFrame::Sealed { .. } => None,
            ShipFrame::Tail { entries, .. } => entries.last().map(|e| e.stamped.seq),
        }
    }
}

/// The standby's answer to one applied frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipAck {
    /// Highest contiguous sequence number durably held after the apply.
    pub last_seq: u64,
    /// Set when the frame arrived torn or corrupt: the primary must
    /// re-ship this segment index.
    pub resend: Option<u64>,
}

/// Where the first record of the active segment that no `plan` has
/// shipped yet starts. It is a fact about an append-only file, so it stays
/// true until the segment rotates; `plan` uses it only when the caller's
/// cursor agrees with `next_seq`.
#[derive(Debug, Clone, Copy)]
struct TailCursor {
    index: u64,
    base_seq: u64,
    /// Byte offset of the record that holds `next_seq`.
    offset: u64,
    next_seq: u64,
}

/// The active segment's records past a sequence cursor.
struct PendingTail {
    base_seq: u64,
    /// Byte offset of the first pending record.
    start: u64,
    /// Each pending entry with the byte offset its record ends at.
    entries: Vec<(AuditEntry, u64)>,
}

/// Primary-side planner: decides what a standby at a given cursor needs.
/// Any standby cursor can be planned for at any time — resume after any
/// interruption is just a `plan` against the standby's reported
/// `last_seq` — and a `Shipper` kept across ticks additionally remembers
/// where the active segment's unshipped records start, so a tick reads
/// only what was appended since the last one.
#[derive(Debug, Clone)]
pub struct Shipper {
    dir: PathBuf,
    tail: Option<TailCursor>,
    tail_bytes_read: u64,
}

impl Shipper {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), tail: None, tail_bytes_read: 0 }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes of active segments every `plan` so far has read.
    pub fn tail_bytes_read(&self) -> u64 {
        self.tail_bytes_read
    }

    /// Plan at most `limit` frames for a standby whose durable log ends
    /// at `acked_seq` (0 = empty). `resend` re-ships a segment the
    /// standby reported torn. Sealed segments wholly at or below the
    /// cursor are skipped from their successors' headers without reading
    /// a single record body. Unsealed tail entries ship only past
    /// `max_lag`: the newest `max_lag` entries may stay unshipped until
    /// rotation seals them (0 = ship everything immediately).
    ///
    /// Errors when the cursor predates the oldest retained segment — the
    /// needed history was compacted away and the standby must be
    /// re-established through a full bootstrap instead.
    pub fn plan(
        &mut self,
        acked_seq: u64,
        resend: Option<u64>,
        max_lag: u64,
        limit: usize,
    ) -> io::Result<Vec<ShipFrame>> {
        let segments = list_segments(&self.dir)?;
        let mut frames = Vec::new();
        if segments.is_empty() || limit == 0 {
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
        if let Some(idx) = resend {
            if let Some((_, path)) = segments.iter().find(|(i, _)| *i == idx) {
                frames.push(ShipFrame::Sealed { index: idx, bytes: std::fs::read(path)? });
            }
        }
        // Sealed segments: everything but the highest index. Segment i's
        // entries all lie below segment i+1's base_seq, so the skip
        // decision needs only the 28-byte headers.
        let mut covered = acked_seq;
        for i in 0..segments.len() - 1 {
            let (index, path) = &segments[i];
            let next_base = read_segment_header(&segments[i + 1].1)?.base_seq;
            let upper = next_base.saturating_sub(1);
            if upper > acked_seq && Some(*index) != resend {
                if frames.len() >= limit {
                    return Ok(frames);
                }
                frames.push(ShipFrame::Sealed { index: *index, bytes: std::fs::read(path)? });
            }
            covered = covered.max(upper);
        }
        if frames.len() >= limit {
            return Ok(frames);
        }
        // Active-segment tail: ship the oldest pending entries, leaving
        // at most `max_lag` of the newest unshipped.
        let (index, path) = segments.last().expect("non-empty");
        let from_cursor = match self.tail {
            Some(c) if c.index == *index && c.next_seq == covered + 1 => self.read_past(path, c)?,
            _ => None,
        };
        let mut pending = match from_cursor {
            Some(pending) => pending,
            None => self.read_whole(path, covered)?,
        };
        let ship_n = pending.entries.len().saturating_sub(max_lag as usize);
        pending.entries.truncate(ship_n);
        let (offset, next_seq) = match pending.entries.last() {
            Some((last, end)) => (*end, last.stamped.seq + 1),
            None => (pending.start, covered + 1),
        };
        self.tail =
            Some(TailCursor { index: *index, base_seq: pending.base_seq, offset, next_seq });
        if ship_n > 0 {
            frames.push(ShipFrame::Tail {
                index: *index,
                base_seq: pending.base_seq,
                entries: pending.entries.into_iter().map(|(e, _)| e).collect(),
            });
        }
        Ok(frames)
    }

    /// Read the active segment from the cursor on. `None` when the file
    /// does not bear the cursor out — it is shorter than the offset, or
    /// the record there is not `next_seq` — and must be read whole.
    fn read_past(&mut self, path: &Path, c: TailCursor) -> io::Result<Option<PendingTail>> {
        let mut file = File::open(path)?;
        if file.metadata()?.len() < c.offset {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(c.offset))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        self.tail_bytes_read += buf.len() as u64;
        let entries = decode_records(&buf, c.offset, path)?.records;
        if entries.first().is_some_and(|(e, _)| e.stamped.seq != c.next_seq) {
            return Ok(None);
        }
        Ok(Some(PendingTail { base_seq: c.base_seq, start: c.offset, entries }))
    }

    /// Read the whole active segment and keep what lies past `covered`.
    fn read_whole(&mut self, path: &Path, covered: u64) -> io::Result<PendingTail> {
        let buf = std::fs::read(path)?;
        self.tail_bytes_read += buf.len() as u64;
        let header = SegmentHeader::decode(&buf)?;
        let header_len = SEGMENT_HEADER_LEN as u64;
        let mut entries = decode_records(&buf[SEGMENT_HEADER_LEN..], header_len, path)?.records;
        let held = entries.partition_point(|(e, _)| e.stamped.seq <= covered);
        let start = held.checked_sub(1).map_or(header_len, |i| entries[i].1);
        entries.drain(..held);
        Ok(PendingTail { base_seq: header.base_seq, start, entries })
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
    /// The segment tail frames are growing, kept open between frames. It
    /// is re-opened — with the full verify-and-repair read — only when a
    /// frame names another segment, after a sealed copy replaced a file,
    /// or after [`StandbyLog::open`].
    writer: Option<SegmentWriter>,
    reopens: u64,
}

impl StandbyLog {
    /// Open (or initialise) the standby's log directory, resuming from
    /// whatever prefix it already holds.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
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
        Ok(Self { dir, last_seq, writer: None, reopens: 0 })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Times an existing segment file was re-opened (read, verified and
    /// repaired) to take a tail frame.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Highest contiguous sequence number durably held.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Apply one frame. Torn/corrupt sealed frames are rejected with a
    /// re-request; gaps (a frame starting past `last_seq + 1`) are
    /// declined by re-stating the cursor, which makes the primary
    /// re-plan. Duplicates are ignored idempotently.
    pub fn apply(&mut self, frame: &ShipFrame) -> io::Result<ShipApply> {
        match frame {
            ShipFrame::Sealed { index, bytes } => self.apply_sealed(*index, bytes),
            ShipFrame::Tail { index, base_seq, entries } => {
                self.apply_tail(*index, *base_seq, entries)
            }
        }
    }

    fn decline(&self, resend: Option<u64>) -> ShipApply {
        ShipApply { entries: Vec::new(), ack: ShipAck { last_seq: self.last_seq, resend } }
    }

    fn apply_sealed(&mut self, index: u64, bytes: &[u8]) -> io::Result<ShipApply> {
        // Verify before installing: a frame damaged in flight must not
        // replace a good (or partial) local segment.
        let Some((header, scanned)) = verify_sealed(index, bytes) else {
            return Ok(self.decline(Some(index)));
        };
        if header.base_seq > self.last_seq.saturating_add(1) {
            // A gap: an earlier segment is missing. Decline; the primary
            // re-plans from our cursor.
            return Ok(self.decline(None));
        }
        let seg_last = scanned
            .last()
            .map(|e| e.stamped.seq)
            .unwrap_or_else(|| header.base_seq.saturating_sub(1));
        // Install atomically, and durably before the ack below lets the
        // primary compact its copy away; a sealed copy supersedes any
        // partial tail copy of the same segment (the bytes are a superset).
        let name = segment_file_name(index);
        crate::install_file(&self.dir, &format!("{name}.tmp"), &name, bytes)?;
        // An open writer may now point at the file the rename unlinked.
        self.writer = None;
        let entries = scanned.into_iter().filter(|e| e.stamped.seq > self.last_seq).collect();
        self.last_seq = self.last_seq.max(seg_last);
        Ok(ShipApply { entries, ack: ShipAck { last_seq: self.last_seq, resend: None } })
    }

    fn apply_tail(
        &mut self,
        index: u64,
        base_seq: u64,
        entries: &[AuditEntry],
    ) -> io::Result<ShipApply> {
        let new: Vec<AuditEntry> =
            entries.iter().filter(|e| e.stamped.seq > self.last_seq).cloned().collect();
        let Some(first) = new.first() else {
            return Ok(self.decline(None)); // pure duplicate — idempotent
        };
        if first.stamped.seq > self.last_seq + 1 {
            return Ok(self.decline(None)); // gap: earlier entries missing
        }
        let writer = match &mut self.writer {
            Some(w) if w.header.index == index => w,
            slot => {
                let path = self.dir.join(segment_file_name(index));
                slot.insert(if path.exists() {
                    self.reopens += 1;
                    SegmentWriter::open_for_append(&path)?.0
                } else {
                    SegmentWriter::create(&self.dir, index, base_seq)?
                })
            }
        };
        let written = new.iter().try_for_each(|e| writer.append(e)).and_then(|()| writer.sync());
        if written.is_err() {
            // The file may end in a partial record: verify and repair it
            // before the next frame extends it.
            self.writer = None;
        }
        written?;
        self.last_seq = new.last().expect("non-empty").stamped.seq;
        Ok(ShipApply { entries: new, ack: ShipAck { last_seq: self.last_seq, resend: None } })
    }
}

/// Check a sealed frame end to end: header matches the claimed index,
/// every record passes its CRC, every payload wire-decodes. A torn tail
/// inside a *sealed* segment means the frame (not the log) is damaged.
fn verify_sealed(index: u64, bytes: &[u8]) -> Option<(SegmentHeader, Vec<AuditEntry>)> {
    let header = SegmentHeader::decode(bytes).ok()?;
    if header.index != index {
        return None;
    }
    let scan = scan_records(&bytes[SEGMENT_HEADER_LEN..]);
    if scan.torn.is_some() {
        return None;
    }
    let mut entries = Vec::with_capacity(scan.payloads.len());
    for payload in &scan.payloads {
        entries.push(wire::decode_entry(payload).ok()?);
    }
    // The header's base_seq is outside the records' CRC coverage; the
    // first entry pins it, so a bit flip there is caught here rather
    // than being misread as a sequence gap.
    if let Some(first) = entries.first() {
        if first.stamped.seq != header.base_seq {
            return None;
        }
    }
    Some((header, entries))
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
        let (mut wal, _) = Wal::open(dir, seg_bytes, false).unwrap();
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
        let mut resend = None;
        loop {
            let frames = shipper.plan(standby.last_seq(), resend, max_lag, 4).unwrap();
            if frames.is_empty() {
                return shipped;
            }
            for f in &frames {
                let apply = standby.apply(f).unwrap();
                resend = apply.ack.resend;
                shipped += 1;
            }
        }
    }

    #[test]
    fn full_ship_reproduces_the_log_exactly() {
        let (pdir, sdir) = (tmp_dir("full-p"), tmp_dir("full-s"));
        let live = primary_session(&pdir, 40, 256); // several rotations
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(standby.last_seq(), 40);
        let rec = recover(&sdir).unwrap();
        assert_eq!(rec.last_seq, 40);
        assert_eq!(rec.tree, live);
        // Sealed segments are byte-identical copies; the standby's tail
        // segment re-encodes the same records deterministically.
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
            let mut standby = StandbyLog::open(&sdir).unwrap();
            // Ship only the first couple of frames, then "crash".
            let frames = shipper.plan(0, None, 0, 2).unwrap();
            for f in &frames {
                standby.apply(f).unwrap();
            }
        }
        // A fresh standby process resumes from its durable cursor: the
        // next plan starts past everything already held.
        let mut standby = StandbyLog::open(&sdir).unwrap();
        let held = standby.last_seq();
        assert!(held > 0, "prefix survived the restart");
        let frames = shipper.plan(held, None, 0, 16).unwrap();
        for f in &frames {
            if let ShipFrame::Sealed { index, .. } = f {
                let first_missing = list_segments(&sdir).unwrap().len() as u64;
                assert!(*index >= first_missing.saturating_sub(1), "re-shipped a held segment");
            }
        }
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
        let mut standby = StandbyLog::open(&sdir).unwrap();
        let frames = shipper.plan(0, None, 0, 1).unwrap();
        let ShipFrame::Sealed { index, bytes } = &frames[0] else {
            panic!("first frame is sealed")
        };
        // Damage the frame in flight: flip a byte inside the records.
        let mut torn = bytes.clone();
        let n = torn.len();
        torn[n - 3] ^= 0xFF;
        let apply = standby.apply(&ShipFrame::Sealed { index: *index, bytes: torn }).unwrap();
        assert_eq!(apply.ack.resend, Some(*index), "torn frame re-requested");
        assert_eq!(apply.ack.last_seq, 0, "nothing installed");
        assert!(apply.entries.is_empty());
        // The re-shipped intact frame lands, and the stream converges.
        let frames = shipper.plan(apply.ack.last_seq, apply.ack.resend, 0, 1).unwrap();
        let apply = standby.apply(&frames[0]).unwrap();
        assert_eq!(apply.ack.resend, None);
        assert!(apply.ack.last_seq > 0);
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
        let mut standby = StandbyLog::open(&sdir).unwrap();
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
        let mut standby = StandbyLog::open(&sdir).unwrap();
        // Deliver a later sealed segment first: declined, cursor unmoved.
        let frames = shipper.plan(0, None, 0, 8).unwrap();
        let later = frames
            .iter()
            .find(|f| matches!(f, ShipFrame::Sealed { index, .. } if *index > 0))
            .expect("multiple sealed segments");
        let apply = standby.apply(later).unwrap();
        assert_eq!(apply.ack.last_seq, 0);
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
        assert_eq!(shipper.plan(0, None, 0, 2).unwrap().len(), 2);
        assert!(shipper.plan(0, None, 0, 0).unwrap().is_empty());
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
        let err = shipper.plan(0, None, 0, 8).unwrap_err();
        assert!(err.to_string().contains("compacted"), "{err}");
        let _ = std::fs::remove_dir_all(&pdir);
    }

    #[test]
    fn duplicate_frames_are_idempotent() {
        let (pdir, sdir) = (tmp_dir("dup-p"), tmp_dir("dup-s"));
        let live = primary_session(&pdir, 25, 256);
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        let frames = shipper.plan(0, None, 0, 16).unwrap();
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
    fn kept_shipper_reads_each_log_byte_at_most_once() {
        let (pdir, sdir) = (tmp_dir("cursor-p"), tmp_dir("cursor-s"));
        let (mut wal, _) = Wal::open(&pdir, 600, false).unwrap();
        let mut kept = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        let mut stateless_read = 0;
        for tick in 0..40u64 {
            append_renames(&mut wal, tick * 3 + 1..=tick * 3 + 3);
            let mut fresh = Shipper::new(&pdir);
            let want = fresh.plan(standby.last_seq(), None, 0, 8).unwrap();
            stateless_read += fresh.tail_bytes_read();
            let frames = kept.plan(standby.last_seq(), None, 0, 8).unwrap();
            assert_eq!(
                frames, want,
                "tick {tick}: the cursor changes what is read, not what ships"
            );
            for f in &frames {
                standby.apply(f).unwrap();
            }
            assert_eq!(standby.last_seq(), tick * 3 + 3);
        }
        assert!(wal.active_segment_index() >= 3, "the log rotated under the cursor");
        // Acknowledged in lockstep, so nothing is read twice: appended
        // bytes once each, and after a rotation the new segment whole.
        let log_bytes = Wal::disk_bytes(&pdir).unwrap();
        assert!(kept.tail_bytes_read() <= log_bytes, "{} > {log_bytes}", kept.tail_bytes_read());
        assert!(stateless_read > 2 * log_bytes, "a fresh shipper per tick re-reads the segment");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn cursor_is_dropped_when_the_standby_falls_behind_it() {
        let (pdir, sdir) = (tmp_dir("behind-p"), tmp_dir("behind-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20, false).unwrap();
        append_renames(&mut wal, 1..=10);
        let mut shipper = Shipper::new(&pdir);
        let frames = shipper.plan(0, None, 0, 4).unwrap();
        assert_eq!(frames[0].last_seq(), Some(10));
        // The frame never arrived: the standby still reports seq 0, and
        // the plan starts over from there rather than from the cursor.
        append_renames(&mut wal, 11..=12);
        let again = shipper.plan(0, None, 0, 4).unwrap();
        let ShipFrame::Tail { entries, .. } = &again[0] else { panic!("tail frame") };
        assert_eq!((entries[0].stamped.seq, entries.len()), (1, 12));
        let mut standby = StandbyLog::open(&sdir).unwrap();
        standby.apply(&again[0]).unwrap();
        assert_eq!(standby.last_seq(), 12);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn tail_frames_on_one_segment_reopen_it_at_most_once() {
        let (pdir, sdir) = (tmp_dir("writer-p"), tmp_dir("writer-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20, false).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        for tick in 0..6u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            for f in &shipper.plan(standby.last_seq(), None, 0, 4).unwrap() {
                standby.apply(f).unwrap();
            }
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (24, 0), "created, then kept open");
        // A restarted standby verifies the file it finds once, then keeps
        // it open too.
        let mut standby = StandbyLog::open(&sdir).unwrap();
        for tick in 6..12u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            for f in &shipper.plan(standby.last_seq(), None, 0, 4).unwrap() {
                standby.apply(f).unwrap();
            }
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (48, 1));
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn tail_after_a_sealed_copy_of_its_segment_extends_the_new_file() {
        let (pdir, sdir) = (tmp_dir("replaced-p"), tmp_dir("replaced-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20, false).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir).unwrap();
        append_renames(&mut wal, 1..=5);
        standby.apply(&shipper.plan(0, None, 0, 4).unwrap()[0]).unwrap();
        // A re-request of the segment that is still active ships its file
        // whole; the copy replaces the one the standby has open.
        append_renames(&mut wal, 6..=10);
        let frames = shipper.plan(standby.last_seq(), Some(0), 0, 1).unwrap();
        assert!(matches!(frames[0], ShipFrame::Sealed { index: 0, .. }));
        standby.apply(&frames[0]).unwrap();
        assert_eq!(standby.last_seq(), 10);
        append_renames(&mut wal, 11..=12);
        for f in &shipper.plan(standby.last_seq(), None, 0, 4).unwrap() {
            standby.apply(f).unwrap();
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (12, 1));
        drop(standby);
        assert_eq!(StandbyLog::open(&sdir).unwrap().last_seq(), 12, "the tail reached the disk");
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }
}
