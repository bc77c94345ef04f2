//! The segmented write-ahead log: an ordered chain of segment files in
//! one directory, exactly one of which (the highest index) is open for
//! writing, over the zero fill it was created with. Rotation seals the
//! active segment — truncates it to its records — and starts the next;
//! sealed segments are immutable and become compaction candidates once a
//! snapshot covers them.
//!
//! While a log-shipping standby is attached the log also keeps, in memory,
//! the records it framed since the last [`Wal::take_framed`]: a
//! [`FramedTail`], the bytes exactly as they sit in the active segment, so
//! the [`crate::ship::Shipper`] ships them without reading the file back.

use crate::record::TornTail;
use crate::segment::{
    frame_entry, list_segments, read_segment, read_segment_header, SegmentWriter,
};
use crate::ship::TAIL_ENTRY_OVERHEAD;
use rave_scene::AuditEntry;
use std::io;
use std::path::{Path, PathBuf};

/// A segmented write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    active: SegmentWriter,
    segment_max_bytes: u64,
    /// What was framed since the last take, while a shipper takes it.
    framed: Option<FramedTail>,
}

/// What `Wal::open` found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOpenReport {
    pub segments: usize,
    /// Entries sitting in the log (all segments).
    pub entries: usize,
    /// A torn tail was cut from the active segment.
    pub repaired_torn_tail: Option<TornTail>,
}

/// One record of a [`FramedTail`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMark {
    pub seq: u64,
    /// Segment file offset the record ends at.
    pub end: u64,
    /// What the entry charges the wire in a shipped frame:
    /// `stamped.wire_size()` + [`TAIL_ENTRY_OVERHEAD`].
    pub charge: u64,
}

/// A run of consecutive records of one segment, byte for byte as the log
/// framed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramedTail {
    /// The segment the records sit in, and the sequence number it starts at.
    pub index: u64,
    pub base_seq: u64,
    /// Segment file offset of `bytes[0]`.
    pub offset: u64,
    /// Sequence number of the first record; for an empty run, of the
    /// record that would follow.
    pub first_seq: u64,
    /// The CRC-framed records.
    pub bytes: Vec<u8>,
    pub marks: Vec<RecordMark>,
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

    /// Segment file offset just past the last record.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes.len() as u64
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
    /// `segment_max_bytes`. The highest-index segment is repaired (torn
    /// tail cut) and re-opened for writing.
    pub fn open(dir: &Path, segment_max_bytes: u64) -> io::Result<(Self, WalOpenReport)> {
        std::fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (active, report) = match segments.last() {
            None => {
                let w = SegmentWriter::create(dir, 0, 1, segment_max_bytes)?;
                (w, WalOpenReport { segments: 1, entries: 0, repaired_torn_tail: None })
            }
            Some((_, last_path)) => {
                let (w, contents) = SegmentWriter::open_for_append(last_path, segment_max_bytes)?;
                let mut entries = contents.entries.len();
                for (_, p) in &segments[..segments.len() - 1] {
                    entries += read_segment(p)?.entries.len();
                }
                (
                    w,
                    WalOpenReport {
                        segments: segments.len(),
                        entries,
                        repaired_torn_tail: contents.torn,
                    },
                )
            }
        };
        let wal = Self { dir: dir.to_path_buf(), active, segment_max_bytes, framed: None };
        Ok((wal, report))
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
        let bytes = self.framed.as_mut().map_or(&mut unkept, |framed| &mut framed.bytes);
        let start = bytes.len();
        frame_entry(entry, bytes);
        if let Err(e) = self.active.write_records(&bytes[start..], seq) {
            bytes.truncate(start);
            return Err(e);
        }
        if let Some(framed) = &mut self.framed {
            let charge = entry.stamped.wire_size() + TAIL_ENTRY_OVERHEAD;
            framed.marks.push(RecordMark { seq, end: self.active.len, charge });
        }
        Ok(())
    }

    /// Seal the active segment and open the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.active.seal()?;
        self.active.sync()?;
        let next = SegmentWriter::create(
            &self.dir,
            self.active.header.index + 1,
            self.active.last_seq + 1,
            self.segment_max_bytes,
        )?;
        self.active = next;
        if let Some(framed) = &mut self.framed {
            *framed = FramedTail::at_end_of(&self.active);
        }
        Ok(())
    }

    /// Flush and fsync the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }

    /// Keep what is framed for [`Wal::take_framed`] (`true`), from the
    /// clean end on, or stop and drop what was kept (`false`). Keeping
    /// already is no change.
    pub fn keep_framed(&mut self, keep: bool) {
        match (keep, &self.framed) {
            (true, None) => self.framed = Some(FramedTail::at_end_of(&self.active)),
            (false, _) => self.framed = None,
            (true, Some(_)) => {}
        }
    }

    /// The records framed in the active segment since the last take (or
    /// since keeping started, or the segment did), up to its clean end;
    /// `None` while not keeping. Never more than one segment.
    pub fn take_framed(&mut self) -> Option<FramedTail> {
        let framed = self.framed.as_mut()?;
        Some(std::mem::replace(framed, FramedTail::at_end_of(&self.active)))
    }

    /// Replay every entry with `seq > after_seq`, in order, across all
    /// segments. Stops at the first torn/corrupt record (the entries
    /// before it are a guaranteed-intact prefix of the log).
    ///
    /// Sealed segments wholly at or below the cursor are skipped from
    /// their 28-byte headers alone: segment `i`'s entries all lie below
    /// segment `i+1`'s `base_seq` (rotation chains them), so an
    /// incremental replay never reads or decodes record bodies the
    /// caller already holds.
    pub fn replay_after(dir: &Path, after_seq: u64) -> io::Result<Vec<AuditEntry>> {
        let segments = list_segments(dir)?;
        let mut start = 0;
        for i in 0..segments.len().saturating_sub(1) {
            let next_base = read_segment_header(&segments[i + 1].1)?.base_seq;
            if next_base <= after_seq.saturating_add(1) {
                start = i + 1;
            } else {
                break;
            }
        }
        let mut out = Vec::new();
        for (_, path) in &segments[start..] {
            let contents = read_segment(path)?;
            for e in contents.entries {
                if e.stamped.seq > after_seq {
                    out.push(e);
                }
            }
            if contents.torn.is_some() {
                break;
            }
        }
        Ok(out)
    }

    /// The sequence number the oldest retained segment starts at (`None`:
    /// no segment): the log holds nothing older.
    pub fn first_base_seq(dir: &Path) -> io::Result<Option<u64>> {
        match list_segments(dir)?.first() {
            Some((_, path)) => Ok(Some(read_segment_header(path)?.base_seq)),
            None => Ok(None),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let (mut wal, report) = Wal::open(&dir, 256).unwrap();
        assert_eq!(report.entries, 0);
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
        let (mut wal, report) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(report.entries, 10);
        assert!(report.repaired_torn_tail.is_none());
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

        let (mut wal, report) = Wal::open(&dir, 1 << 20).unwrap();
        assert!(report.repaired_torn_tail.is_some());
        assert_eq!(report.entries, 4, "torn entry dropped");
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
        let (mut wal, report) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(report.repaired_torn_tail, None);
        assert_eq!((report.entries, wal.last_seq()), (5, 5));
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
    fn taken_runs_are_the_segment_bytes_and_restart_at_a_rotation() {
        let dir = tmp_dir("framed");
        let (mut wal, _) = Wal::open(&dir, 256).unwrap();
        wal.append(&entry(1)).unwrap();
        assert_eq!(wal.take_framed(), None, "nothing kept before keeping starts");
        wal.keep_framed(true);
        let mut taken = Vec::new();
        for seq in 2..=20 {
            wal.append(&entry(seq)).unwrap();
            if seq % 3 == 0 {
                taken.push(wal.take_framed().unwrap());
                wal.keep_framed(true); // asked again: no change
            }
        }
        wal.sync().unwrap();
        taken.push(wal.take_framed().unwrap());
        let (mut index, mut next_seq) = (0, 2);
        for run in &taken {
            let file =
                std::fs::read(dir.join(crate::segment::segment_file_name(run.index))).unwrap();
            let at = run.offset as usize;
            assert_eq!(&file[at..at + run.bytes.len()], &run.bytes[..], "byte for byte");
            assert!(run.bytes.len() <= 256, "at most one segment");
            if run.index != index {
                // A rotation restarts the run at the new segment's head;
                // what the old one took since is in its sealed file.
                (index, next_seq) = (run.index, run.base_seq);
                assert_eq!(run.offset, crate::segment::SEGMENT_HEADER_LEN as u64);
            }
            assert_eq!(run.first_seq, next_seq);
            for (m, seq) in run.marks.iter().zip(next_seq..) {
                assert_eq!(m.seq, seq);
                assert_eq!(m.charge, entry(m.seq).stamped.wire_size() + TAIL_ENTRY_OVERHEAD);
            }
            next_seq += run.marks.len() as u64;
        }
        assert!(taken.windows(2).any(|w| w[0].index != w[1].index), "a rotation between takes");
        wal.keep_framed(false);
        assert_eq!(wal.take_framed(), None);
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
        // A cursor of 0 does read segment 0 and stops at the corruption.
        let from_zero = Wal::replay_after(&dir, 0).unwrap();
        assert!(from_zero.len() < 50, "corruption truncates a full replay");
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
