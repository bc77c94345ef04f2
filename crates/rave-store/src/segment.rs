//! WAL segment files.
//!
//! ```text
//! segment := magic "RAVEWAL\0" (8) | version: u32 LE
//!          | index: u64 LE | base_seq: u64 LE      -- 28-byte header
//!          | record*                                -- see [`crate::record`]
//! ```
//!
//! `index` is the segment's position in the log (file names embed it too:
//! `wal-00000042.seg`); `base_seq` is the sequence number of the first
//! entry the segment may hold, which lets compaction decide coverage
//! without reading record bodies.

use crate::record::{encode_record, scan_records, TornTail, RECORD_HEADER_LEN};
use rave_scene::wire;
use rave_scene::AuditEntry;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

pub const SEGMENT_MAGIC: [u8; 8] = *b"RAVEWAL\0";
pub const SEGMENT_VERSION: u32 = 1;
pub const SEGMENT_HEADER_LEN: usize = 28;

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
/// which starts at byte `at` of the segment at `path`. A torn tail is
/// reported, not an error (the writer may be mid-append); a record that
/// passes its checksum but fails wire decode is real corruption and
/// errors out.
pub(crate) fn decode_records(buf: &[u8], at: u64, path: &Path) -> io::Result<DecodedRecords> {
    let scan = scan_records(buf);
    let mut end = at;
    let mut records = Vec::with_capacity(scan.payloads.len());
    for payload in &scan.payloads {
        let entry = wire::decode_entry(payload).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
        })?;
        end += (RECORD_HEADER_LEN + payload.len()) as u64;
        records.push((entry, end));
    }
    Ok(DecodedRecords { records, torn: scan.torn })
}

/// Read and verify a whole segment. Torn tails are reported, not
/// repaired; a record that passes its checksum but fails wire decode is
/// real corruption and errors out.
pub fn read_segment(path: &Path) -> io::Result<SegmentContents> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let header = SegmentHeader::decode(&buf)?;
    let header_len = SEGMENT_HEADER_LEN as u64;
    let DecodedRecords { records, torn } =
        decode_records(&buf[SEGMENT_HEADER_LEN..], header_len, path)?;
    Ok(SegmentContents {
        header,
        clean_len: records.last().map_or(header_len, |(_, end)| *end),
        entries: records.into_iter().map(|(entry, _)| entry).collect(),
        torn,
    })
}

/// An open segment being appended to.
#[derive(Debug)]
pub struct SegmentWriter {
    pub path: PathBuf,
    pub header: SegmentHeader,
    file: File,
    /// Current byte length (header + records written so far).
    pub len: u64,
    /// Sequence number of the last entry written, or `base_seq - 1`.
    pub last_seq: u64,
}

impl SegmentWriter {
    /// Create a fresh segment file. Fails if it already exists (an index
    /// collision means two writers share the directory — never continue).
    pub fn create(dir: &Path, index: u64, base_seq: u64) -> io::Result<Self> {
        let path = dir.join(segment_file_name(index));
        let mut file = OpenOptions::new().write(true).create_new(true).open(&path)?;
        let header = SegmentHeader { version: SEGMENT_VERSION, index, base_seq };
        file.write_all(&header.encode())?;
        Ok(Self {
            path,
            header,
            file,
            len: SEGMENT_HEADER_LEN as u64,
            last_seq: base_seq.saturating_sub(1),
        })
    }

    /// Re-open an existing segment for append, truncating any torn tail
    /// left by a crash. Returns the writer positioned after the last
    /// intact record, plus what was recovered from the file.
    pub fn open_for_append(path: &Path) -> io::Result<(Self, SegmentContents)> {
        let contents = read_segment(path)?;
        if contents.torn.is_some() {
            // Repair: drop the torn tail so appends extend a clean log.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(contents.clean_len)?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
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

    /// Append one audit entry as a framed record.
    pub fn append(&mut self, entry: &AuditEntry) -> io::Result<()> {
        let payload = wire::encode_entry(entry);
        let mut framed = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        encode_record(&payload, &mut framed);
        self.file.write_all(&framed)?;
        self.len += framed.len() as u64;
        self.last_seq = entry.stamped.seq;
        Ok(())
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

    #[test]
    fn write_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut w = SegmentWriter::create(&dir, 0, 1).unwrap();
        for seq in 1..=5 {
            w.append(&entry(seq)).unwrap();
        }
        w.sync().unwrap();
        let c = read_segment(&w.path).unwrap();
        assert_eq!(c.header.index, 0);
        assert_eq!(c.entries.len(), 5);
        assert_eq!(c.entries[4].stamped.seq, 5);
        assert!(c.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_repaired_on_open() {
        let dir = tmp_dir("torn");
        let path = {
            let mut w = SegmentWriter::create(&dir, 3, 10).unwrap();
            w.append(&entry(10)).unwrap();
            w.append(&entry(11)).unwrap();
            w.sync().unwrap();
            w.path
        };
        // Simulate a crash mid-append: chop 3 bytes off the last record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let c = read_segment(&path).unwrap();
        assert_eq!(c.entries.len(), 1, "only the intact record survives");
        assert!(c.torn.is_some());

        // Re-open for append: tail truncated, log continues cleanly.
        let (mut w, recovered) = SegmentWriter::open_for_append(&path).unwrap();
        assert_eq!(recovered.entries.len(), 1);
        assert_eq!(w.last_seq, 10);
        w.append(&entry(11)).unwrap();
        w.sync().unwrap();
        let c2 = read_segment(&path).unwrap();
        assert_eq!(c2.entries.len(), 2);
        assert!(c2.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_file() {
        let dir = tmp_dir("dup");
        SegmentWriter::create(&dir, 0, 1).unwrap();
        assert!(SegmentWriter::create(&dir, 0, 1).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_segments_sorted() {
        let dir = tmp_dir("list");
        for idx in [2u64, 0, 1] {
            SegmentWriter::create(&dir, idx, idx * 100 + 1).unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
