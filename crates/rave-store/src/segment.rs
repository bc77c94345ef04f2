//! WAL segment files.
//!
//! ```text
//! segment := magic "RAVEWAL\0" (8) | version: u32 LE
//!          | index: u64 LE | base_seq: u64 LE      -- 28-byte header
//!          | record*                                -- see [`crate::record`]
//!          | 0*                                     -- the fill, active only
//! ```
//!
//! `index` is the segment's position in the log (file names embed it too:
//! `wal-00000042.seg`); `base_seq` is the sequence number of the first
//! entry the segment may hold, which lets compaction decide coverage
//! without reading record bodies.
//!
//! A new segment is zero-filled to the log's segment size when it is
//! created, and records overwrite the fill from the clean end: an append's
//! `fdatasync` then flushes data pages, not the file's size or block map.
//! The fill is fresh zeros, never an old segment's bytes, so no stale
//! record with a valid checksum can sit past the tail. Nothing but zeros
//! past the last record, even fewer than a record header, is the end of
//! the log; a zero-length record header followed by anything else is a
//! torn tail. Rotation seals a segment by truncating it to its records,
//! so a sealed segment is exactly its header and records.

use crate::record::{encode_record, scan_records, TornTail, RECORD_HEADER_LEN};
use rave_scene::{wire, AuditEntry, WireError};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub const SEGMENT_MAGIC: [u8; 8] = *b"RAVEWAL\0";
pub const SEGMENT_VERSION: u32 = 1;
pub const SEGMENT_HEADER_LEN: usize = 28;

/// Zeros one `write` of a segment's fill puts down.
static FILL_CHUNK: [u8; 64 * 1024] = [0; 64 * 1024];

/// Parsed segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    pub version: u32,
    pub index: u64,
    pub base_seq: u64,
}

impl SegmentHeader {
    pub fn encode(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut out = [0u8; SEGMENT_HEADER_LEN];
        out[..8].copy_from_slice(&SEGMENT_MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..20].copy_from_slice(&self.index.to_le_bytes());
        out[20..28].copy_from_slice(&self.base_seq.to_le_bytes());
        out
    }

    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        if buf.len() < SEGMENT_HEADER_LEN || buf[..8] != SEGMENT_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a RAVE WAL segment"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != SEGMENT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported segment version {version}"),
            ));
        }
        Ok(Self {
            version,
            index: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            base_seq: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
        })
    }
}

/// `wal-00000042.seg`
pub fn segment_file_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

/// Inverse of [`segment_file_name`]; `None` for unrelated files.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    stem.parse().ok()
}

/// All segment paths in a directory, sorted by index.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for dent in std::fs::read_dir(dir)? {
        let dent = dent?;
        if let Some(idx) = dent.file_name().to_str().and_then(parse_segment_file_name) {
            out.push((idx, dent.path()));
        }
    }
    out.sort_by_key(|(idx, _)| *idx);
    Ok(out)
}

/// Read only the 28-byte header of a segment (compaction decides
/// coverage from headers without touching record bodies).
pub fn read_segment_header(path: &Path) -> io::Result<SegmentHeader> {
    let mut buf = [0u8; SEGMENT_HEADER_LEN];
    let mut f = File::open(path)?;
    f.read_exact(&mut buf)?;
    SegmentHeader::decode(&buf)
}

/// A fully scanned segment.
#[derive(Debug)]
pub struct SegmentContents {
    pub header: SegmentHeader,
    pub entries: Vec<AuditEntry>,
    /// Byte length of the intact prefix (header + clean records).
    pub clean_len: u64,
    /// Set when the record stream ended in a torn or corrupt record.
    pub torn: Option<TornTail>,
}

/// The intact records at the front of a stretch of a segment file.
pub(crate) struct DecodedRecords {
    /// Each entry with the file offset its record ends at.
    pub records: Vec<(AuditEntry, u64)>,
    /// How the walk ended early, if it did.
    pub torn: Option<TornTail>,
}

/// CRC-check and wire-decode the intact records at the front of `buf`,
/// which starts at byte `at` of a segment file. A torn tail is reported,
/// not an error (the writer may be mid-append), and the fill past the
/// last record is neither; a record that passes its checksum but fails
/// wire decode is real corruption and errors out.
pub(crate) fn decode_records(buf: &[u8], at: u64) -> Result<DecodedRecords, WireError> {
    let scan = scan_records(buf);
    // Zeros past the last record are the fill, however few of them.
    let torn = scan.torn.filter(|t| !all_zero(&buf[t.clean_len()..]));
    let mut end = at;
    let mut records = Vec::with_capacity(scan.payloads.len());
    for payload in &scan.payloads {
        end += (RECORD_HEADER_LEN + payload.len()) as u64;
        records.push((wire::decode_entry(payload)?, end));
    }
    Ok(DecodedRecords { records, torn })
}

/// True when `bytes` holds nothing but zeros, compared a fill chunk at a
/// time (a segment's whole fill is checked on every read of it).
fn all_zero(bytes: &[u8]) -> bool {
    bytes.chunks(FILL_CHUNK.len()).all(|c| c == &FILL_CHUNK[..c.len()])
}

/// Read a whole segment file: its bytes, its header and its intact
/// records ([`decode_records`]).
pub(crate) fn read_segment_file(
    path: &Path,
) -> io::Result<(Vec<u8>, SegmentHeader, DecodedRecords)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let header = SegmentHeader::decode(&buf)?;
    let decoded =
        decode_records(&buf[SEGMENT_HEADER_LEN..], SEGMENT_HEADER_LEN as u64).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })?;
    Ok((buf, header, decoded))
}

/// Read and verify a whole segment. Torn tails are reported, not
/// repaired, and a zero fill past the last record is the end of the log;
/// a record that passes its checksum but fails wire decode is real
/// corruption and errors out.
pub fn read_segment(path: &Path) -> io::Result<SegmentContents> {
    let (_, header, DecodedRecords { records, torn }) = read_segment_file(path)?;
    Ok(SegmentContents {
        header,
        clean_len: records.last().map_or(SEGMENT_HEADER_LEN as u64, |(_, end)| *end),
        entries: records.into_iter().map(|(entry, _)| entry).collect(),
        torn,
    })
}

/// Frame one audit entry as a record at the end of `out`.
pub fn frame_entry(entry: &AuditEntry, out: &mut Vec<u8>) {
    encode_record(&wire::encode_entry(entry), out);
}

/// Put zeros over `file` from byte `from` up to byte `to`, a bounded
/// chunk a `write`, leaving the cursor at `to` (or at `from` when `to`
/// is not past it). Not synced: the next record's sync carries it.
fn fill(file: &mut File, from: u64, to: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(from))?;
    let mut left = to.saturating_sub(from);
    while left > 0 {
        let n = left.min(FILL_CHUNK.len() as u64) as usize;
        file.write_all(&FILL_CHUNK[..n])?;
        left -= n as u64;
    }
    Ok(())
}

/// An open segment being written in place over its fill.
#[derive(Debug)]
pub struct SegmentWriter {
    pub path: PathBuf,
    pub header: SegmentHeader,
    /// Opened for writing, not appending; the cursor sits at `len`.
    file: File,
    /// The clean end: header + records written so far.
    pub len: u64,
    /// Sequence number of the last entry written, or `base_seq - 1`.
    pub last_seq: u64,
}

impl SegmentWriter {
    /// Create a fresh segment file, zero-filled to `fill_to` bytes, and
    /// sync the directory, so that the records a later sync makes durable
    /// are not lost with the file's name. Fails if it already exists (an
    /// index collision means two writers share the directory — never
    /// continue).
    pub fn create(dir: &Path, index: u64, base_seq: u64, fill_to: u64) -> io::Result<Self> {
        let path = dir.join(segment_file_name(index));
        let mut file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        let header = SegmentHeader { version: SEGMENT_VERSION, index, base_seq };
        file.write_all(&header.encode())?;
        let len = SEGMENT_HEADER_LEN as u64;
        fill(&mut file, len, fill_to)?;
        file.seek(SeekFrom::Start(len))?;
        crate::sync_dir(dir)?;
        Ok(Self { path, header, file, len, last_seq: base_seq.saturating_sub(1) })
    }

    /// Re-open an existing segment for writing, zeroing any torn tail
    /// left by a crash, and filling the file to `fill_to` bytes if it is
    /// shorter (a sealed or shipped copy). Returns the writer positioned
    /// after the last intact record, plus what was recovered from the
    /// file.
    pub fn open_for_append(path: &Path, fill_to: u64) -> io::Result<(Self, SegmentContents)> {
        let contents = read_segment(path)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        let mut end = file.metadata()?.len();
        if contents.torn.is_some() {
            // Repair: drop the torn tail so records extend a clean log.
            file.set_len(contents.clean_len)?;
            end = contents.clean_len;
        }
        fill(&mut file, end, fill_to)?;
        file.seek(SeekFrom::Start(contents.clean_len))?;
        let last_seq = contents
            .entries
            .last()
            .map(|e| e.stamped.seq)
            .unwrap_or_else(|| contents.header.base_seq.saturating_sub(1));
        Ok((
            Self {
                path: path.to_path_buf(),
                header: contents.header,
                file,
                len: contents.clean_len,
                last_seq,
            },
            contents,
        ))
    }

    /// Write framed records, the last of them `last_seq`, over the fill at
    /// the clean end.
    pub fn write_records(&mut self, framed: &[u8], last_seq: u64) -> io::Result<()> {
        if let Err(e) = self.file.write_all(framed) {
            // The next write starts over at the clean end.
            self.file.seek(SeekFrom::Start(self.len))?;
            return Err(e);
        }
        self.len += framed.len() as u64;
        self.last_seq = last_seq;
        Ok(())
    }

    /// Cut the fill off: the file is exactly its header and records.
    pub fn seal(&mut self) -> io::Result<()> {
        self.file.set_len(self.len)
    }

    /// Flush to the OS and fsync to the platter.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::{NodeId, SceneUpdate, StampedUpdate};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rave-store-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(seq: u64) -> AuditEntry {
        AuditEntry {
            at_secs: seq as f64 * 0.5,
            stamped: StampedUpdate {
                seq,
                origin: "seg-test".into(),
                update: SceneUpdate::SetName { id: NodeId(0), name: format!("n{seq}") },
            },
        }
    }

    fn append(w: &mut SegmentWriter, seq: u64) {
        let mut framed = Vec::new();
        frame_entry(&entry(seq), &mut framed);
        w.write_records(&framed, seq).unwrap();
    }

    #[test]
    fn header_roundtrips_and_rejects_garbage() {
        let h = SegmentHeader { version: SEGMENT_VERSION, index: 7, base_seq: 1000 };
        assert_eq!(SegmentHeader::decode(&h.encode()).unwrap(), h);
        assert!(SegmentHeader::decode(b"NOTAWAL_____________________").is_err());
        let mut bad = h.encode();
        bad[8] = 99; // future version
        assert!(SegmentHeader::decode(&bad).is_err());
    }

    #[test]
    fn file_names_roundtrip() {
        assert_eq!(segment_file_name(42), "wal-00000042.seg");
        assert_eq!(parse_segment_file_name("wal-00000042.seg"), Some(42));
        assert_eq!(parse_segment_file_name("snap-0001.snap"), None);
        assert_eq!(parse_segment_file_name("wal-xx.seg"), None);
    }

    /// The fill the tests' segments are created with.
    const FILL: u64 = 4096;

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 0, 1, FILL).unwrap();
        for seq in 1..=5 {
            append(&mut w, seq);
        }
        w.sync().unwrap();
        assert_eq!(std::fs::metadata(&w.path).unwrap().len(), FILL, "written over the fill");
        let c = read_segment(&w.path).unwrap();
        assert_eq!(c.header.index, 0);
        assert_eq!(c.entries.len(), 5);
        assert_eq!(c.entries[4].stamped.seq, 5);
        assert_eq!(c.clean_len, w.len);
        assert!(c.torn.is_none(), "the fill is the end of the log, not a tear");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two records written, the second torn by zeroing its last `lost`
    /// bytes over the fill: what a crash mid-write leaves in a
    /// preallocated file. Returns the path and the first record's end.
    fn tear_second_record(dir: &Path, lost: u64) -> (PathBuf, u64) {
        let mut w = SegmentWriter::create(dir, 3, 10, FILL).unwrap();
        append(&mut w, 10);
        let first_end = w.len;
        append(&mut w, 11);
        w.sync().unwrap();
        let mut bytes = std::fs::read(&w.path).unwrap();
        let end = w.len as usize;
        bytes[end - lost as usize..end].fill(0);
        std::fs::write(&w.path, &bytes).unwrap();
        (w.path, first_end)
    }

    #[test]
    fn torn_tail_detected_and_repaired_on_open() {
        let dir = tmp_dir("torn");
        let (path, first_end) = tear_second_record(&dir, 3);
        let c = read_segment(&path).unwrap();
        assert_eq!(c.entries.len(), 1, "only the intact record survives");
        assert!(matches!(c.torn, Some(TornTail::ChecksumMismatch { .. })));
        assert_eq!(c.clean_len, first_end);

        // Re-open for append: tail zeroed, log continues cleanly.
        let (mut w, recovered) = SegmentWriter::open_for_append(&path, FILL).unwrap();
        assert_eq!(recovered.entries.len(), 1);
        assert_eq!((w.last_seq, w.len), (10, first_end));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), FILL, "still preallocated");
        append(&mut w, 11);
        w.sync().unwrap();
        let c2 = read_segment(&path).unwrap();
        assert_eq!(c2.entries.len(), 2);
        assert!(c2.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_zero_length_header_before_nonzero_bytes_is_torn_and_repaired() {
        let dir = tmp_dir("zero-header");
        // The second record's header never landed, its payload did.
        let (path, first_end) = tear_second_record(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = first_end as usize;
        bytes[at..at + RECORD_HEADER_LEN].fill(0);
        std::fs::write(&path, &bytes).unwrap();

        let c = read_segment(&path).unwrap();
        assert_eq!(c.entries.len(), 1);
        let at_in_records = at - SEGMENT_HEADER_LEN;
        assert_eq!(c.torn, Some(TornTail::ZeroLength { at: at_in_records }));
        let (mut w, _) = SegmentWriter::open_for_append(&path, FILL).unwrap();
        let repaired = std::fs::read(&path).unwrap();
        assert!(repaired[at..].iter().all(|&b| b == 0), "the stray payload is gone");
        assert_eq!(repaired.len() as u64, FILL);
        append(&mut w, 11);
        w.sync().unwrap();
        let c2 = read_segment(&path).unwrap();
        assert_eq!((c2.entries.len(), c2.torn), (2, None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records that stop short of the fill's end by less than a record
    /// header (a sealed copy of a segment rotated by hand) end the log
    /// there, not in a tear.
    #[test]
    fn a_fill_shorter_than_a_record_header_is_the_end_of_the_log() {
        let dir = tmp_dir("short-fill");
        let mut w = SegmentWriter::create(&dir, 0, 1, FILL).unwrap();
        append(&mut w, 1);
        let end = w.len;
        w.sync().unwrap();
        let path = w.path.clone();
        drop(w);
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(end + 5).unwrap();
        let c = read_segment(&path).unwrap();
        assert_eq!((c.entries.len(), c.clean_len, c.torn), (1, end, None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_clean_preallocated_segment_reopens_where_its_records_end() {
        let dir = tmp_dir("clean");
        let (path, end) = {
            let mut w = SegmentWriter::create(&dir, 0, 1, FILL).unwrap();
            append(&mut w, 1);
            w.sync().unwrap();
            (w.path.clone(), w.len)
        };
        let before = std::fs::read(&path).unwrap();
        let (w, contents) = SegmentWriter::open_for_append(&path, FILL).unwrap();
        assert_eq!((contents.torn, w.len, w.last_seq), (None, end, 1));
        assert_eq!(std::fs::read(&path).unwrap(), before, "a clean reopen writes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealing_cuts_the_fill_off() {
        let dir = tmp_dir("seal");
        let mut w = SegmentWriter::create(&dir, 0, 1, FILL).unwrap();
        let mut framed = Vec::new();
        for seq in 1..=3 {
            frame_entry(&entry(seq), &mut framed);
        }
        w.write_records(&framed, 3).unwrap();
        w.seal().unwrap();
        let bytes = std::fs::read(&w.path).unwrap();
        assert_eq!(bytes[..SEGMENT_HEADER_LEN], w.header.encode());
        assert_eq!(bytes[SEGMENT_HEADER_LEN..], framed[..], "exactly its records");
        // A sealed copy reopened for writing is filled again.
        let (w, _) = SegmentWriter::open_for_append(&w.path, FILL).unwrap();
        assert_eq!((w.last_seq, std::fs::metadata(&w.path).unwrap().len()), (3, FILL));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_file() {
        let dir = tmp_dir("dup");
        SegmentWriter::create(&dir, 0, 1, FILL).unwrap();
        assert!(SegmentWriter::create(&dir, 0, 1, FILL).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_segments_sorted() {
        let dir = tmp_dir("list");
        for idx in [2u64, 0, 1] {
            SegmentWriter::create(&dir, idx, idx * 100 + 1, FILL).unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
