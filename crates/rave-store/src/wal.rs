//! The segmented write-ahead log: an ordered chain of segment files in
//! one directory, exactly one of which (the highest index) is open for
//! append. Rotation seals the active segment and starts the next; sealed
//! segments are immutable and become compaction candidates once a
//! snapshot covers them.

use crate::record::TornTail;
use crate::segment::{list_segments, read_segment, read_segment_header, SegmentWriter};
use rave_scene::AuditEntry;
use std::io;
use std::path::{Path, PathBuf};

/// A segmented write-ahead log rooted at a directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    active: SegmentWriter,
    segment_max_bytes: u64,
    sync_writes: bool,
}

/// What `Wal::open` found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOpenReport {
    pub segments: usize,
    /// Entries sitting in the log (all segments).
    pub entries: usize,
    /// A torn tail was truncated from the active segment.
    pub repaired_torn_tail: Option<TornTail>,
}

impl Wal {
    /// Open (or initialise) the log in `dir`. The highest-index segment
    /// is repaired (torn tail truncated) and re-opened for append.
    pub fn open(
        dir: &Path,
        segment_max_bytes: u64,
        sync_writes: bool,
    ) -> io::Result<(Self, WalOpenReport)> {
        std::fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (active, report) = match segments.last() {
            None => {
                let w = SegmentWriter::create(dir, 0, 1)?;
                (w, WalOpenReport { segments: 1, entries: 0, repaired_torn_tail: None })
            }
            Some((_, last_path)) => {
                let (w, contents) = SegmentWriter::open_for_append(last_path)?;
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
        Ok((Self { dir: dir.to_path_buf(), active, segment_max_bytes, sync_writes }, report))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last appended entry (0 if none ever).
    pub fn last_seq(&self) -> u64 {
        self.active.last_seq
    }

    /// Index of the segment currently open for append.
    pub fn active_segment_index(&self) -> u64 {
        self.active.header.index
    }

    /// Append an entry, rotating to a new segment first if the active one
    /// is full.
    pub fn append(&mut self, entry: &AuditEntry) -> io::Result<()> {
        if self.active.len >= self.segment_max_bytes {
            self.rotate()?;
        }
        self.active.append(entry)?;
        if self.sync_writes {
            self.active.sync()?;
        }
        Ok(())
    }

    /// Seal the active segment and open the next one.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.active.sync()?;
        let next = SegmentWriter::create(
            &self.dir,
            self.active.header.index + 1,
            self.active.last_seq + 1,
        )?;
        self.active = next;
        Ok(())
    }

    /// Flush and fsync the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
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
        let (mut wal, report) = Wal::open(&dir, 256, false).unwrap();
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
            let (mut wal, _) = Wal::open(&dir, 1 << 20, false).unwrap();
            for seq in 1..=10 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        let (mut wal, report) = Wal::open(&dir, 1 << 20, false).unwrap();
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
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20, false).unwrap();
            for seq in 1..=5 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        // Tear the final record.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() - 7]).unwrap();

        let (mut wal, report) = Wal::open(&dir, 1 << 20, false).unwrap();
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
    fn zero_filled_tail_is_truncated_at_the_first_zero_header() {
        let dir = tmp_dir("zeros");
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20, false).unwrap();
            for seq in 1..=5 {
                wal.append(&entry(seq)).unwrap();
            }
            wal.sync().unwrap();
        }
        // What a preallocated or crash-extended file leaves past the last
        // record: zeros, which frame as an empty record with a valid CRC.
        let (_, last) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&last).unwrap();
        let clean = bytes.len();
        bytes.resize(clean + 4096, 0);
        std::fs::write(&last, &bytes).unwrap();

        let (mut wal, report) = Wal::open(&dir, 1 << 20, false).unwrap();
        assert!(matches!(report.repaired_torn_tail, Some(TornTail::ZeroLength { .. })));
        assert_eq!((report.entries, wal.last_seq()), (5, 5));
        assert_eq!(std::fs::metadata(&last).unwrap().len(), clean as u64, "zeros truncated");
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
    fn replay_after_skips_sealed_segments_by_header() {
        let dir = tmp_dir("skip");
        let (mut wal, _) = Wal::open(&dir, 256, false).unwrap();
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
        let (mut wal, _) = Wal::open(&dir, 128, false).unwrap();
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
