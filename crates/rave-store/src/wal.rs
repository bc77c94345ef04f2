//! The segmented write-ahead log: an ordered chain of segment files in
//! one directory, exactly one of which (the highest index) is open for
//! writing, over the zero fill it was created with. Rotation seals the
//! active segment — truncates it to its records — and starts the next;
//! sealed segments are immutable and become compaction candidates once a
//! snapshot covers them.
//!
//! The log is written two ways: a primary appends entries, and a
//! log-shipping standby applies the frames shipped from a primary's log
//! ([`Wal::apply_frame`], in [`crate::ship`]), each segment a copy of the
//! primary's. Both go through the one segment writer the log holds.
//!
//! The log is read by one reader, for replay, recovery and the shipping
//! planner alike. It skips the segments a cursor covers from their
//! successors' headers alone, and holds the end-of-log rule: a segment
//! starts where the one before ends, its records rise strictly from its
//! `base_seq` (a refused update leaves a hole in the seqs), and a torn
//! record ends the log only in the last segment. [`Wal::rotate`] seals and
//! syncs a segment before the next one exists, and a standby's copy is
//! complete before its next copy starts, so anything else is corruption,
//! refused with [`io::ErrorKind::InvalidData`].
//!
//! While a log-shipping standby is attached the log is also the one
//! in-memory holder of the records no frame has carried to it yet: a
//! [`FramedTail`] per segment, the bytes exactly as they sit in the file,
//! for the active segment and the one sealed just before it. The planner
//! ([`crate::ship::plan`]) cuts frames from them without reading a file,
//! and what it ships leaves them.

use crate::invalid;
use crate::record::TornTail;
use crate::segment::{
    covered, frame_entry, list_chain, list_segments, read_segment_file, DecodedRecords,
    SegmentHeader, SegmentWriter, SEGMENT_HEADER_LEN,
};
use crate::ship::TAIL_ENTRY_OVERHEAD;
use rave_scene::AuditEntry;
use std::io;
use std::path::{Path, PathBuf};

/// A segmented write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// The segment written to: the highest-index one.
    pub(crate) active: SegmentWriter,
    segment_max_bytes: u64,
    /// The records framed that no frame has carried, one run per segment,
    /// oldest first, the last the active segment's; empty while no standby
    /// is attached.
    unshipped: Vec<FramedTail>,
}

/// One record of a [`FramedTail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordMark {
    pub(crate) seq: u64,
    /// Segment file offset the record ends at.
    pub(crate) end: u64,
    /// What the entry charges the wire in a shipped frame:
    /// `stamped.wire_size()` + [`TAIL_ENTRY_OVERHEAD`].
    pub(crate) charge: u64,
}

/// A run of consecutive records of one segment, byte for byte as the log
/// framed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedTail {
    /// The segment the records sit in, and the sequence number it starts at.
    pub(crate) index: u64,
    pub(crate) base_seq: u64,
    /// Segment file offset of `bytes[0]`.
    pub(crate) offset: u64,
    /// Sequence number of the first record; for an empty run, of the
    /// record that would follow.
    pub(crate) first_seq: u64,
    /// The CRC-framed records.
    pub(crate) bytes: Vec<u8>,
    pub(crate) marks: Vec<RecordMark>,
}

impl RecordMark {
    /// The mark of `entry`'s record, which ends at file offset `end`.
    pub(crate) fn of(entry: &AuditEntry, end: u64) -> Self {
        let charge = entry.stamped.wire_size() + TAIL_ENTRY_OVERHEAD;
        Self { seq: entry.stamped.seq, end, charge }
    }
}

impl FramedTail {
    /// The empty run at the clean end of `writer`'s segment.
    fn at_end_of(writer: &SegmentWriter) -> Self {
        Self {
            index: writer.header.index,
            base_seq: writer.header.base_seq,
            offset: writer.len,
            first_seq: writer.last_seq + 1,
            bytes: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Take the first `n` records off the front as a run of their own.
    pub(crate) fn split_front(&mut self, n: usize) -> FramedTail {
        let cut = n.checked_sub(1).map_or(self.offset, |i| self.marks[i].end);
        let rest = self.bytes.split_off((cut - self.offset) as usize);
        let rest_marks = self.marks.split_off(n);
        let front = FramedTail {
            offset: std::mem::replace(&mut self.offset, cut),
            bytes: std::mem::replace(&mut self.bytes, rest),
            marks: std::mem::replace(&mut self.marks, rest_marks),
            ..*self
        };
        self.first_seq = front.marks.last().map_or(self.first_seq, |m| m.seq + 1);
        front
    }
}

impl Wal {
    /// Open (or initialise) the log in `dir`, its segments zero-filled to
    /// `segment_max_bytes`. The highest-index segment — the only one read
    /// — is repaired and re-opened for writing; the torn tail cut from it,
    /// if any, is returned.
    pub fn open(dir: &Path, segment_max_bytes: u64) -> io::Result<(Self, Option<TornTail>)> {
        std::fs::create_dir_all(dir)?;
        let (active, torn) = match list_segments(dir)?.pop() {
            None => (SegmentWriter::create(dir, 0, 1, segment_max_bytes)?, None),
            Some((_, last)) => {
                let (w, contents) = SegmentWriter::open_for_append(&last, segment_max_bytes)?;
                (w, contents.torn)
            }
        };
        let wal = Self { dir: dir.to_path_buf(), active, segment_max_bytes, unshipped: Vec::new() };
        Ok((wal, torn))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last appended entry (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.active.last_seq
    }

    /// Index of the segment currently open for writing.
    pub fn active_segment_index(&self) -> u64 {
        self.active.header.index
    }

    /// Append an entry, rotating to a new segment first if the active one
    /// is full.
    pub fn append(&mut self, entry: &AuditEntry) -> io::Result<()> {
        if self.active.len >= self.segment_max_bytes {
            self.rotate()?;
        }
        let seq = entry.stamped.seq;
        let mut unkept = Vec::new();
        let bytes = self.unshipped.last_mut().map_or(&mut unkept, |run| &mut run.bytes);
        let start = bytes.len();
        frame_entry(entry, bytes);
        if let Err(e) = self.active.write_records(&bytes[start..], seq) {
            bytes.truncate(start);
            return Err(e);
        }
        if let Some(run) = self.unshipped.last_mut() {
            run.marks.push(RecordMark::of(entry, self.active.len));
        }
        Ok(())
    }

    /// Seal the active segment and open the next one. The sealed
    /// segment's unshipped run is kept; the one sealed before it goes,
    /// and a cursor that needs it reads the directory.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.active.seal()?;
        self.active.sync()?;
        self.start_segment(self.active.header.index + 1, self.active.last_seq + 1)?;
        if !self.unshipped.is_empty() {
            if self.unshipped.len() == 2 {
                self.unshipped.remove(0);
            }
            self.unshipped.push(FramedTail::at_end_of(&self.active));
        }
        Ok(())
    }

    /// Create segment `index`, starting at `base_seq`, and write to it
    /// from now on. The segment written to before is left as it is.
    pub(crate) fn start_segment(&mut self, index: u64, base_seq: u64) -> io::Result<()> {
        self.active = SegmentWriter::create(&self.dir, index, base_seq, self.segment_max_bytes)?;
        Ok(())
    }

    /// Flush and fsync the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }

    /// Keep the records framed from the clean end on until a frame
    /// carries them (`true`), or stop and drop what was kept (`false`).
    /// Keeping already is no change.
    pub fn keep_unshipped(&mut self, keep: bool) {
        if !keep {
            self.unshipped.clear();
        } else if self.unshipped.is_empty() {
            self.unshipped.push(FramedTail::at_end_of(&self.active));
        }
    }

    /// The records framed that no frame has carried, one run per segment
    /// for at most the active segment and the one sealed before it, oldest
    /// first, each up to its segment's clean end; none while not keeping.
    /// For [`crate::ship::plan`], which takes what it ships out of them.
    pub fn unshipped(&mut self) -> &mut [FramedTail] {
        &mut self.unshipped
    }

    /// Replay every entry with `seq > after_seq`, in order, by the log's
    /// one reader (see the module docs). A compacted log replays the
    /// records it keeps.
    pub fn replay_after(dir: &Path, after_seq: u64) -> io::Result<Vec<AuditEntry>> {
        replay(&list_chain(dir)?, after_seq)
    }

    /// Total bytes the log occupies on disk.
    pub fn disk_bytes(dir: &Path) -> io::Result<u64> {
        let mut total = 0;
        for (_, path) in list_segments(dir)? {
            total += std::fs::metadata(&path)?.len();
        }
        Ok(total)
    }
}

/// Refuse a log that does not reach back to `seq`: its oldest segment
/// starts past `seq + 1`, the records between compacted away.
pub(crate) fn reaches_back(chain: &[(PathBuf, SegmentHeader)], seq: u64) -> io::Result<()> {
    match chain.first() {
        Some((_, oldest)) if oldest.base_seq > seq.saturating_add(1) => Err(invalid(format!(
            "the log starts at seq {}, past seq {seq}: the records between were compacted \
             away; a standby must be re-established from a snapshot",
            oldest.base_seq
        ))),
        _ => Ok(()),
    }
}

/// One segment [`walk`] read whole: the file, its header, and its records
/// past the cursor, from file offset `start`, each with the offset it ends
/// at; `last` for the append head.
pub(crate) struct SegmentRecords {
    pub(crate) header: SegmentHeader,
    pub(crate) file: Vec<u8>,
    pub(crate) start: u64,
    pub(crate) records: Vec<(AuditEntry, u64)>,
    pub(crate) last: bool,
}

/// The log's one reader (see the module docs): read `chain` forward past
/// `after_seq`, one whole segment at a time, handing each to `visit` until
/// it returns `false`, and refuse a log that breaks the end-of-log rule.
pub(crate) fn walk(
    chain: &[(PathBuf, SegmentHeader)],
    after_seq: u64,
    mut visit: impl FnMut(SegmentRecords) -> bool,
) -> io::Result<()> {
    let first = (0..chain.len()).take_while(|&i| covered(chain, i, after_seq)).count();
    let mut next_seq = chain.get(first).map_or(0, |(_, header)| header.base_seq);
    for (i, (path, header)) in chain.iter().enumerate().skip(first) {
        let (file, _, DecodedRecords { mut records, torn }) = read_segment_file(path)?;
        let last = i + 1 == chain.len();
        let intact = header.base_seq == next_seq && (last || torn.is_none());
        let mut seqs = records.iter().map(|(entry, _)| entry.stamped.seq);
        match seqs.try_fold(next_seq, |from, seq| (seq >= from).then_some(seq + 1)) {
            Some(end) if intact => next_seq = end,
            _ => return Err(invalid(format!("{}: log broken at seq {next_seq}", path.display()))),
        }
        let held = records.partition_point(|(entry, _)| entry.stamped.seq <= after_seq);
        let start = held.checked_sub(1).map_or(SEGMENT_HEADER_LEN as u64, |h| records[h].1);
        records.drain(..held);
        if !visit(SegmentRecords { header: *header, file, start, records, last }) {
            break;
        }
    }
    Ok(())
}

/// Every record of `chain` past `after_seq`, in order ([`walk`]).
pub(crate) fn replay(
    chain: &[(PathBuf, SegmentHeader)],
    after_seq: u64,
) -> io::Result<Vec<AuditEntry>> {
    let mut out = Vec::new();
    walk(chain, after_seq, |segment| {
        out.extend(segment.records.into_iter().map(|(entry, _)| entry));
        true
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{read_segment, read_segment_header};
    use rave_scene::{NodeId, SceneUpdate, StampedUpdate};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rave-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(seq: u64) -> AuditEntry {
        AuditEntry {
            at_secs: seq as f64,
            stamped: StampedUpdate {
                seq,
                origin: "wal-test".into(),
                update: SceneUpdate::SetName { id: NodeId(0), name: format!("name-{seq}") },
            },
        }
    }

    #[test]
    fn append_and_replay_across_rotations() {
        let dir = tmp_dir("rotate");
        // Tiny segments force several rotations over 50 entries.
        let (mut wal, torn) = Wal::open(&dir, 256).unwrap();
        assert_eq!((torn, wal.last_seq()), (None, 0));
        for seq in 1..=50 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.active_segment_index() > 2, "rotation happened");
        let replayed = Wal::replay_after(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 50);
        assert_eq!(replayed.last().unwrap().stamped.seq, 50);
        // Mid-log cursor.
        let tail = Wal::replay_after(&dir, 30).unwrap();
        assert_eq!(tail.len(), 20);
        assert_eq!(tail[0].stamped.seq, 31);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_sequence_and_segment() {
        let dir = tmp_dir("reopen");
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
            for seq in 1..=10 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (mut wal, torn) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(Wal::replay_after(&dir, 0).unwrap().len(), 10);
        assert!(torn.is_none());
        assert_eq!(wal.last_seq(), 10);
        wal.append(&entry(11)).unwrap();
        wal.sync().unwrap();
        assert_eq!(Wal::replay_after(&dir, 0).unwrap().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_tail_repaired_on_open() {
        let dir = tmp_dir("crash");
        let end = {
            let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
            for seq in 1..=5 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
            wal.active.len as usize
        };
        // Tear the final record: its last 7 bytes never left the fill.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&last).unwrap();
        bytes[end - 7..end].fill(0);
        std::fs::write(&last, &bytes).unwrap();

        let (mut wal, torn) = Wal::open(&dir, 1 << 20).unwrap();
        assert!(torn.is_some());
        assert_eq!(Wal::replay_after(&dir, 0).unwrap().len(), 4, "torn entry dropped");
        assert_eq!(wal.last_seq(), 4);
        // The log keeps going from the clean prefix.
        wal.append(&entry(5)).unwrap();
        wal.sync().unwrap();
        let replayed = Wal::replay_after(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_clean_preallocated_segment_reopens_with_no_torn_tail() {
        let dir = tmp_dir("zeros");
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
            for seq in 1..=5 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Past the last record the segment holds its fill: zeros, which
        // frame as an empty record with a valid CRC and end the log.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        assert_eq!(std::fs::metadata(&last).unwrap().len(), 1 << 20, "preallocated");
        let (mut wal, torn) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(torn, None);
        assert_eq!((Wal::replay_after(&dir, 0).unwrap().len(), wal.last_seq()), (5, 5));
        assert_eq!(std::fs::metadata(&last).unwrap().len(), 1 << 20, "the fill is kept");
        wal.append(&entry(6)).unwrap();
        wal.sync().unwrap();
        let replayed = Wal::replay_after(&dir, 0).unwrap();
        assert_eq!(
            replayed.iter().map(|e| e.stamped.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_sealed_segment_is_exactly_its_records() {
        let dir = tmp_dir("sealed");
        let (mut wal, _) = Wal::open(&dir, 256).unwrap();
        for seq in 1..=20 {
            wal.append(&entry(seq)).unwrap();
            if seq == 2 {
                // Rotated by hand with most of the fill left: only the
                // seal cuts it off. An append's rotation comes once the
                // records cover the fill.
                wal.rotate().unwrap();
            }
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 2, "rotated");
        assert!(std::fs::metadata(&segs[0].1).unwrap().len() < 256, "sealed short of its fill");
        for (i, (_, path)) in segs.iter().enumerate() {
            let len = std::fs::metadata(path).unwrap().len();
            let clean = read_segment(path).unwrap().clean_len;
            if i + 1 < segs.len() {
                assert_eq!(len, clean, "sealed segment {i} holds its header and records");
            } else {
                assert_eq!(len, clean.max(256), "the active segment keeps its fill");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kept_runs_are_the_segment_bytes_of_at_most_two_segments() {
        let dir = tmp_dir("framed");
        let (mut wal, _) = Wal::open(&dir, 256).unwrap();
        wal.append(&entry(1)).unwrap();
        assert!(wal.unshipped().is_empty(), "nothing kept before keeping starts");
        wal.keep_unshipped(true);
        for seq in 2..=40 {
            wal.append(&entry(seq)).unwrap();
            wal.keep_unshipped(true); // asked again: no change
            if seq % 5 == 0 {
                // A plan took the oldest kept record.
                let run = wal.unshipped().iter_mut().find(|r| !r.marks.is_empty()).unwrap();
                run.split_front(1);
            }
            wal.sync().unwrap();
            let active = wal.active_segment_index();
            let runs = wal.unshipped().to_vec();
            assert!(!runs.is_empty() && runs.len() <= 2, "seq {seq}: {} runs", runs.len());
            assert_eq!(runs.last().unwrap().index, active, "the last run is the active one's");
            for run in &runs {
                let path = dir.join(crate::segment::segment_file_name(run.index));
                let (file, clean) =
                    (std::fs::read(&path).unwrap(), read_segment(&path).unwrap().clean_len);
                let at = run.offset as usize;
                assert_eq!(&file[at..at + run.bytes.len()], &run.bytes[..], "byte for byte");
                assert_eq!(at as u64 + run.bytes.len() as u64, clean, "up to the clean end");
                for (m, seq) in run.marks.iter().zip(run.first_seq..) {
                    assert_eq!(m.seq, seq);
                    assert_eq!(m.charge, entry(m.seq).stamped.wire_size() + TAIL_ENTRY_OVERHEAD);
                }
            }
            if let [sealed, active] = &runs[..] {
                assert_eq!(sealed.index + 1, active.index, "consecutive segments");
                if let Some(last) = sealed.marks.last() {
                    // Nothing was taken from the active run yet: it
                    // starts at its segment's head, where the sealed ends.
                    assert_eq!(active.offset, crate::segment::SEGMENT_HEADER_LEN as u64);
                    assert_eq!(last.seq + 1, active.first_seq);
                }
            }
        }
        assert!(wal.active_segment_index() > 2, "rotated several times");
        wal.keep_unshipped(false);
        assert!(wal.unshipped().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_after_skips_sealed_segments_by_header() {
        let dir = tmp_dir("skip");
        let (mut wal, _) = Wal::open(&dir, 256).unwrap();
        for seq in 1..=50 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 2, "several sealed segments");
        // Corrupt segment 0's record region. A cursor past its coverage
        // must skip it entirely (header-only decision) and still replay
        // the tail — proof the bodies were never read.
        let (_, first) = &segs[0];
        let mut bytes = std::fs::read(first).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        std::fs::write(first, &bytes).unwrap();
        let seg1_base = read_segment_header(&segs[1].1).unwrap().base_seq;
        let tail = Wal::replay_after(&dir, seg1_base - 1).unwrap();
        assert_eq!(tail.first().unwrap().stamped.seq, seg1_base);
        assert_eq!(tail.last().unwrap().stamped.seq, 50);
        // A cursor of 0 does read segment 0, and a tear before the last
        // segment is corruption, not the end of the log.
        let err = Wal::replay_after(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_base_seq_chains() {
        let dir = tmp_dir("chain");
        let (mut wal, _) = Wal::open(&dir, 128).unwrap();
        for seq in 1..=20 {
            wal.append(&entry(seq)).unwrap();
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1);
        let mut expected_base = 1;
        for (_, path) in &segs {
            let c = read_segment(path).unwrap();
            assert_eq!(c.header.base_seq, expected_base, "{}", path.display());
            if let Some(last) = c.entries.last() {
                expected_base = last.stamped.seq + 1;
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
