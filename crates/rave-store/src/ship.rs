//! Log shipping: continuous replication of the WAL to a warm standby.
//!
//! The paper's §6 fail-safe ("data servers could mirror each other") done
//! the way production logs do it: the primary streams *sealed* segments
//! verbatim (they are immutable, so a byte copy is a correct copy), plus
//! a tail of unsealed records from the active segment once the standby
//! would otherwise trail past a configurable lag bound — also verbatim,
//! the CRC-framed bytes as they sit in the primary's segment. The standby
//! writes the same segment files to its own directory, each a byte-exact
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
//!    the fed records continue the cursor, the tail frame is cut from them
//!    and no file is read; otherwise sealed segments are *skipped from
//!    headers alone* (the next segment's `base_seq` bounds this one's
//!    contents, so resume never re-reads what the standby already holds)
//!    and the active segment is read back;
//! 3. the standby [`StandbyLog::apply`]s each frame and answers with a
//!    sequence-numbered [`ShipAck`]; a frame that arrives torn or corrupt
//!    is *not* installed and the ack carries a re-request for it.
//!
//! Every apply leaves the standby holding an exact, contiguous prefix of
//! the primary's committed log — never a gap, never a torn record.

use crate::record::{scan_records, RECORD_HEADER_LEN};
use crate::segment::{
    decode_records, list_segments, read_segment, read_segment_header, segment_file_name,
    SegmentHeader, SegmentWriter, SEGMENT_HEADER_LEN,
};
use crate::wal::{FramedTail, RecordMark};
use rave_scene::{wire, AuditEntry};
use std::io;
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
    /// A sealed (immutable) segment, shipped as its exact file bytes: its
    /// header and records.
    Sealed { index: u64, bytes: Vec<u8> },
    /// Records from the primary's *active* segment past the standby's
    /// cursor, the CRC-framed bytes as they sit in the segment;
    /// `index`/`base_seq` name the segment they belong to so the standby
    /// can grow its own copy of it.
    Tail {
        index: u64,
        base_seq: u64,
        /// Sequence numbers of the first and the last record.
        first_seq: u64,
        last_seq: u64,
        /// Records in `records`.
        count: u64,
        /// What the entries charge the wire: Σ(`stamped.wire_size()` +
        /// [`TAIL_ENTRY_OVERHEAD`]), summed as each record was framed.
        charge: u64,
        records: Vec<u8>,
    },
}

impl ShipFrame {
    /// Bytes this frame occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        match self {
            ShipFrame::Sealed { bytes, .. } => bytes.len() as u64 + FRAME_OVERHEAD,
            ShipFrame::Tail { charge, .. } => charge + FRAME_OVERHEAD,
        }
    }

    /// Highest sequence number the frame carries.
    pub fn last_seq(&self) -> Option<u64> {
        match self {
            // A sealed frame's bytes are scanned on receipt; for the
            // sender's cursor it is enough to know it ends where the
            // next segment starts, which `plan` tracks externally.
            ShipFrame::Sealed { .. } => None,
            ShipFrame::Tail { last_seq, .. } => Some(*last_seq),
        }
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

    /// The run as one tail frame (`None` when it is empty).
    fn into_frame(self) -> Option<ShipFrame> {
        let (first, last) = (self.marks.first()?.seq, self.marks.last()?.seq);
        Some(ShipFrame::Tail {
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
    /// Set when the frame arrived torn or corrupt: the primary must
    /// re-ship this segment index.
    pub resend: Option<u64>,
}

/// Primary-side planner: decides what a standby at a given cursor needs.
/// Any standby cursor can be planned for at any time — resume after any
/// interruption is just a `plan` against the standby's reported
/// `last_seq`. A `Shipper` kept across ticks holds the active segment's
/// records it has not shipped yet (those `max_lag` holds back too), byte
/// for byte, so a tick [`Shipper::feed`] continues reads no file.
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
    /// at `acked_seq` (0 = empty). `resend` re-ships a segment the
    /// standby reported torn. Sealed segments wholly at or below the
    /// cursor are skipped from their successors' headers without reading
    /// a single record body. Unsealed tail records ship only past
    /// `max_lag`: the newest `max_lag` records may stay unshipped until
    /// rotation seals them (0 = ship everything immediately).
    ///
    /// After a [`Shipper::feed`] whose records continue the cursor, with
    /// no resend asked, the plan is the tail frame cut from them, and no
    /// directory is listed and no file read: it is the frame a fresh
    /// `Shipper` would read back from the active segment.
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
        let fed = std::mem::take(&mut self.fed);
        if limit == 0 {
            return Ok(Vec::new());
        }
        // How many fed records a standby at `covered` holds, when the
        // records past it start among them.
        let fed_held =
            |tail: &Option<FramedTail>, covered| tail.as_ref().filter(|_| fed)?.held_by(covered);
        if resend.is_none() {
            if let Some(held) = fed_held(&self.tail, acked_seq) {
                return Ok(self.ship_tail(held, max_lag).into_iter().collect());
            }
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
        if let Some(idx) = resend {
            if let Some((_, path)) = segments.iter().find(|(i, _)| *i == idx) {
                frames.push(ShipFrame::Sealed { index: idx, bytes: self.read_records(path)? });
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
                frames.push(ShipFrame::Sealed { index: *index, bytes: self.read_records(path)? });
            }
            covered = covered.max(upper);
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

    /// A segment file's header and records, without what follows them:
    /// the fill, in the active segment.
    fn read_records(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = std::fs::read(path)?;
        self.file_bytes_read += bytes.len() as u64;
        if let Some(records) = bytes.get(SEGMENT_HEADER_LEN..) {
            let clean = SEGMENT_HEADER_LEN + scan_records(records).clean_len;
            bytes.truncate(clean);
        }
        Ok(bytes)
    }

    /// Read the active segment whole and keep the records past `covered`.
    fn read_tail(&mut self, path: &Path, covered: u64) -> io::Result<FramedTail> {
        let buf = std::fs::read(path)?;
        self.file_bytes_read += buf.len() as u64;
        let header = SegmentHeader::decode(&buf)?;
        let header_len = SEGMENT_HEADER_LEN as u64;
        let records = decode_records(&buf[SEGMENT_HEADER_LEN..], header_len, path)?.records;
        let held = records.partition_point(|(e, _)| e.stamped.seq <= covered);
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
    /// The primary's segment size: the fill of each copy tail frames grow.
    segment_bytes: u64,
    /// The segment tail frames are growing, kept open between frames. It
    /// is re-opened — with the full verify-and-repair read — only when a
    /// frame names another segment, after a sealed copy replaced a file,
    /// or after [`StandbyLog::open`].
    writer: Option<SegmentWriter>,
    reopens: u64,
}

impl StandbyLog {
    /// Open (or initialise) the standby's log directory, resuming from
    /// whatever prefix it already holds; the segments tail frames start
    /// are zero-filled to `segment_bytes`, the primary's segment size.
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
    /// repaired) to take a tail frame.
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Highest contiguous sequence number durably held.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Apply one frame. Torn/corrupt frames are rejected with a
    /// re-request; gaps (a frame starting past `last_seq + 1`) are
    /// declined by re-stating the cursor, which makes the primary
    /// re-plan. Duplicates are ignored idempotently.
    pub fn apply(&mut self, frame: &ShipFrame) -> io::Result<ShipApply> {
        match frame {
            ShipFrame::Sealed { index, bytes } => self.apply_sealed(*index, bytes),
            ShipFrame::Tail { index, base_seq, first_seq, last_seq, count, records, .. } => {
                let Some(entries) = verify_tail(records, *first_seq, *last_seq, *count) else {
                    return Ok(self.decline(Some(*index)));
                };
                self.apply_tail(*index, *base_seq, records, entries)
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

    /// Write the verified `records` past `last_seq` into the copy of
    /// segment `index`, verbatim, with one write and one sync.
    fn apply_tail(
        &mut self,
        index: u64,
        base_seq: u64,
        records: &[u8],
        mut entries: Vec<(AuditEntry, usize)>,
    ) -> io::Result<ShipApply> {
        let held = entries.partition_point(|(e, _)| e.stamped.seq <= self.last_seq);
        let Some((first, _)) = entries.get(held) else {
            return Ok(self.decline(None)); // pure duplicate — idempotent
        };
        if first.stamped.seq > self.last_seq + 1 {
            return Ok(self.decline(None)); // gap: earlier entries missing
        }
        let last = entries.last().expect("non-empty").0.stamped.seq;
        let skip = held.checked_sub(1).map_or(0, |i| entries[i].1);
        let writer = match &mut self.writer {
            Some(w) if w.header.index == index => w,
            slot => {
                let path = self.dir.join(segment_file_name(index));
                slot.insert(if path.exists() {
                    self.reopens += 1;
                    SegmentWriter::open_for_append(&path, self.segment_bytes)?.0
                } else {
                    SegmentWriter::create(&self.dir, index, base_seq, self.segment_bytes)?
                })
            }
        };
        let written = writer.write_records(&records[skip..], last).and_then(|()| writer.sync());
        if written.is_err() {
            // The file may end in a partial record: verify and repair it
            // before the next frame extends it.
            self.writer = None;
        }
        written?;
        self.last_seq = last;
        let entries = entries.drain(held..).map(|(e, _)| e).collect();
        Ok(ShipApply { entries, ack: ShipAck { last_seq: self.last_seq, resend: None } })
    }
}

/// Check a tail frame end to end: every record passes its CRC and
/// wire-decodes, and the records are the `count` the frame names, from
/// `first_seq` to `last_seq`. Returns each decoded entry with the offset
/// in `records` its record ends at.
fn verify_tail(
    records: &[u8],
    first_seq: u64,
    last_seq: u64,
    count: u64,
) -> Option<Vec<(AuditEntry, usize)>> {
    let scan = scan_records(records);
    if scan.torn.is_some() || scan.payloads.len() as u64 != count {
        return None;
    }
    let mut end = 0;
    let mut entries = Vec::with_capacity(scan.payloads.len());
    for payload in &scan.payloads {
        end += RECORD_HEADER_LEN + payload.len();
        entries.push((wire::decode_entry(payload).ok()?, end));
    }
    let seqs = (entries.first()?.0.stamped.seq, entries.last()?.0.stamped.seq);
    (seqs == (first_seq, last_seq)).then_some(entries)
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
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
        drain(&mut shipper, &mut standby, 0);
        assert_eq!(standby.last_seq(), 40);
        let rec = recover(&sdir).unwrap();
        assert_eq!(rec.last_seq, 40);
        assert_eq!(rec.tree, live);
        // Sealed segments are byte-identical copies; the standby's tail
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
            let frames = shipper.plan(0, None, 0, 2).unwrap();
            for f in &frames {
                standby.apply(f).unwrap();
            }
        }
        // A fresh standby process resumes from its durable cursor: the
        // next plan starts past everything already held.
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
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
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
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
        let mut standby = StandbyLog::open(&sdir, 256).unwrap();
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
            let want = Shipper::new(&pdir).plan(standby.last_seq(), None, 0, 8).unwrap();
            kept.feed(wal.take_framed().unwrap());
            let frames = kept.plan(standby.last_seq(), None, 0, 8).unwrap();
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
            let want = Shipper::new(&pdir).plan(standby.last_seq(), None, 5, 4).unwrap();
            let before = kept.file_bytes_read();
            kept.feed(wal.take_framed().unwrap());
            let frames = kept.plan(standby.last_seq(), None, 5, 4).unwrap();
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
        let frames = shipper.plan(0, None, 0, 4).unwrap();
        assert_eq!(frames[0].last_seq(), Some(10));
        // The frame never arrived: the standby still reports seq 0, and
        // the plan starts over from there, read back from the file,
        // rather than from the fed records past the cursor.
        append_renames(&mut wal, 11..=12);
        shipper.feed(wal.take_framed().unwrap());
        let again = shipper.plan(0, None, 0, 4).unwrap();
        let ShipFrame::Tail { first_seq, count, .. } = &again[0] else { panic!("tail frame") };
        assert_eq!((*first_seq, *count), (1, 12));
        assert_eq!(again, Shipper::new(&pdir).plan(0, None, 0, 4).unwrap());
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
        let mut frame = shipper.plan(0, None, 0, 1).unwrap().remove(0);
        let ShipFrame::Tail { records, .. } = &mut frame else { panic!("tail frame") };
        let n = records.len();
        records[n - 2] ^= 0x10;
        let apply = standby.apply(&frame).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, resend: Some(0) });
        assert!(apply.entries.is_empty() && list_segments(&sdir).unwrap().is_empty());
        let frames = shipper.plan(0, apply.ack.resend, 0, 4).unwrap();
        for f in &frames {
            standby.apply(f).unwrap();
        }
        assert_eq!(standby.last_seq(), 6);
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// A tail frame that starts inside what the standby holds (a plan from
    /// the acknowledged cursor while an earlier frame was still on the
    /// wire) adds only the records past it, and the copy stays the
    /// primary's bytes.
    #[test]
    fn a_tail_frame_overlapping_the_held_prefix_writes_only_what_is_past_it() {
        let (pdir, sdir) = (tmp_dir("overlap-p"), tmp_dir("overlap-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        append_renames(&mut wal, 1..=5);
        let early = Shipper::new(&pdir).plan(0, None, 0, 1).unwrap().remove(0);
        append_renames(&mut wal, 6..=8);
        let late = Shipper::new(&pdir).plan(0, None, 0, 1).unwrap().remove(0);
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
            for f in &shipper.plan(standby.last_seq(), None, 0, 4).unwrap() {
                standby.apply(f).unwrap();
            }
        }
        assert_eq!((standby.last_seq(), standby.reopens()), (24, 0), "created, then kept open");
        // A restarted standby verifies the file it finds once, then keeps
        // it open too.
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
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
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        let mut shipper = Shipper::new(&pdir);
        let mut standby = StandbyLog::open(&sdir, 1 << 20).unwrap();
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
        assert_eq!(
            StandbyLog::open(&sdir, 1 << 20).unwrap().last_seq(),
            12,
            "the tail reached the disk"
        );
        assert_eq!(Wal::replay_after(&sdir, 0).unwrap(), Wal::replay_after(&pdir, 0).unwrap());
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }
}
