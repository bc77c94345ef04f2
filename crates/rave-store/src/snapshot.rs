//! Checkpoints: full snapshots of the scene tree, and deltas chained to
//! one — both wire-encoded, run-length compressed, checksummed and
//! written atomically.
//!
//! ```text
//! snapshot := magic "RAVESNAP" (8) | version: u32 LE
//!           | last_seq: u64 LE | at_secs: f64 LE
//!           | raw_len: u32 LE | comp_len: u32 LE
//!           | rle(wire_tree)                -- comp_len bytes
//!           | crc32(compressed): u32 LE
//!
//! delta    := magic "RAVEDLTA" (8) | version: u32 LE
//!           | base_seq: u64 LE | prev_seq: u64 LE | last_seq: u64 LE
//!           | at_secs: f64 LE
//!           | raw_len: u32 LE | comp_len: u32 LE
//!           | rle(wire node states)         -- comp_len bytes
//!           | crc32(everything before): u32 LE
//! ```
//!
//! A snapshot at `last_seq` (`snap-<seq>.snap`) subsumes every WAL entry
//! with `seq <= last_seq`. A delta (`delta-<seq>.snap`) holds the nodes
//! the scene's edit journal names since the checkpoint before it
//! (`prev_seq`, the base itself or the delta before): one record per
//! node, its payload state or only its pose
//! ([`rave_scene::wire::encode_node_states`]), plus the id allocator. It
//! carries no structure: a window with an insert, a removal or a reparent
//! is written as a full snapshot instead (see [`crate::Store::checkpoint`]
//! for every fallback). Its checksum covers the header too, so the chain
//! links `base_seq` and `prev_seq` cannot silently change.
//!
//! Recovery loads the newest intact snapshot, then the deltas of its
//! chain in `prev_seq` order, then replays only the WAL tail past the
//! last one ([`crate::recover()`]). Files are written to a temp name and
//! renamed so a crash mid-checkpoint can never shadow an older good
//! checkpoint with a half-written one.

use crate::record::crc32;
use rave_compress::rle;
use rave_scene::{wire, SceneTree};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RAVESNAP";
pub const SNAPSHOT_VERSION: u32 = 1;
const FIXED_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4 + 4;
pub const DELTA_MAGIC: [u8; 8] = *b"RAVEDLTA";
pub const DELTA_VERSION: u32 = 1;
const DELTA_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 4 + 4;

/// A loaded full checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The snapshot covers every update up to and including this seq.
    pub last_seq: u64,
    /// Session time at which the checkpoint was taken.
    pub at_secs: f64,
    pub tree: SceneTree,
}

/// `snap-0000000000001234.snap`
pub fn snapshot_file_name(last_seq: u64) -> String {
    format!("snap-{last_seq:016}.snap")
}

/// Inverse of [`snapshot_file_name`]; `None` for unrelated files.
pub fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    stem.parse().ok()
}

/// A loaded delta checkpoint, its node states still encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The full snapshot the chain starts from.
    pub base_seq: u64,
    /// The checkpoint this one extends: the base, or the delta before.
    pub prev_seq: u64,
    /// The delta covers every update up to and including this seq.
    pub last_seq: u64,
    pub at_secs: f64,
    /// What [`rave_scene::wire::apply_node_states`] takes.
    pub body: Vec<u8>,
}

/// `delta-0000000000001234.snap`
pub fn delta_file_name(last_seq: u64) -> String {
    format!("delta-{last_seq:016}.snap")
}

/// Inverse of [`delta_file_name`]; `None` for unrelated files.
pub fn parse_delta_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("delta-")?.strip_suffix(".snap")?;
    stem.parse().ok()
}

fn list_named(dir: &Path, parse: fn(&str) -> Option<u64>) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for dent in std::fs::read_dir(dir)? {
        let dent = dent?;
        if let Some(seq) = dent.file_name().to_str().and_then(parse) {
            out.push((seq, dent.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// All snapshot paths in a directory, sorted ascending by covered seq.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_named(dir, parse_snapshot_file_name)
}

/// All delta paths in a directory, sorted ascending by covered seq.
pub fn list_deltas(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_named(dir, parse_delta_file_name)
}

/// Serialize and write a checkpoint atomically and durably
/// (`crate::install_file`): when this returns, the caller may compact
/// away what the snapshot covers. Returns the final path.
pub fn write_snapshot(
    dir: &Path,
    tree: &SceneTree,
    last_seq: u64,
    at_secs: f64,
) -> io::Result<PathBuf> {
    let raw = wire::encode_tree(tree);
    let compressed = rle::encode(&raw);
    let mut buf = Vec::with_capacity(FIXED_HEADER_LEN + compressed.len() + 4);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&last_seq.to_le_bytes());
    buf.extend_from_slice(&at_secs.to_le_bytes());
    buf.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
    buf.extend_from_slice(&compressed);
    buf.extend_from_slice(&crc32(&compressed).to_le_bytes());

    let name = snapshot_file_name(last_seq);
    crate::install_file(dir, &format!(".{name}.tmp"), &name, &buf)?;
    Ok(dir.join(name))
}

/// Read and verify one snapshot file.
pub fn read_snapshot(path: &Path) -> io::Result<Snapshot> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let bad = |msg: &str| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
    };
    if buf.len() < FIXED_HEADER_LEN + 4 || buf[..8] != SNAPSHOT_MAGIC {
        return Err(bad("not a RAVE snapshot"));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(bad(&format!("unsupported snapshot version {version}")));
    }
    let last_seq = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let at_secs = f64::from_le_bytes(buf[20..28].try_into().unwrap());
    let raw_len = u32::from_le_bytes(buf[28..32].try_into().unwrap()) as usize;
    let comp_len = u32::from_le_bytes(buf[32..36].try_into().unwrap()) as usize;
    if buf.len() != FIXED_HEADER_LEN + comp_len + 4 {
        return Err(bad("truncated snapshot"));
    }
    let compressed = &buf[FIXED_HEADER_LEN..FIXED_HEADER_LEN + comp_len];
    let stored_crc = u32::from_le_bytes(buf[FIXED_HEADER_LEN + comp_len..].try_into().unwrap());
    if crc32(compressed) != stored_crc {
        return Err(bad("snapshot checksum mismatch"));
    }
    let raw = rle::decode(compressed).ok_or_else(|| bad("corrupt compressed payload"))?;
    if raw.len() != raw_len {
        return Err(bad("decompressed size mismatch"));
    }
    let tree = wire::decode_tree(&raw).map_err(|e| bad(&e.to_string()))?;
    Ok(Snapshot { last_seq, at_secs, tree })
}

/// The bytes of a delta file: `body` compressed and framed as the module
/// docs draw it. The store sizes the chain from these before it writes.
pub fn encode_delta(
    base_seq: u64,
    prev_seq: u64,
    last_seq: u64,
    at_secs: f64,
    body: &[u8],
) -> Vec<u8> {
    let compressed = rle::encode(body);
    let mut buf = Vec::with_capacity(DELTA_HEADER_LEN + compressed.len() + 4);
    buf.extend_from_slice(&DELTA_MAGIC);
    buf.extend_from_slice(&DELTA_VERSION.to_le_bytes());
    buf.extend_from_slice(&base_seq.to_le_bytes());
    buf.extend_from_slice(&prev_seq.to_le_bytes());
    buf.extend_from_slice(&last_seq.to_le_bytes());
    buf.extend_from_slice(&at_secs.to_le_bytes());
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(compressed.len() as u32).to_le_bytes());
    buf.extend_from_slice(&compressed);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Install the bytes [`encode_delta`] made for `last_seq`, atomically and
/// durably, as [`write_snapshot`] does.
pub fn write_delta(dir: &Path, last_seq: u64, bytes: &[u8]) -> io::Result<()> {
    let name = delta_file_name(last_seq);
    crate::install_file(dir, &format!(".{name}.tmp"), &name, bytes)
}

/// Read and verify one delta file.
pub fn read_delta(path: &Path) -> io::Result<Delta> {
    let buf = std::fs::read(path)?;
    let bad = |msg: &str| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {msg}", path.display()))
    };
    if buf.len() < DELTA_HEADER_LEN + 4 || buf[..8] != DELTA_MAGIC {
        return Err(bad("not a RAVE delta"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let version = u32_at(8);
    if version != DELTA_VERSION {
        return Err(bad(&format!("unsupported delta version {version}")));
    }
    let (raw_len, comp_len) = (u32_at(44) as usize, u32_at(48) as usize);
    if buf.len() != DELTA_HEADER_LEN + comp_len + 4 {
        return Err(bad("truncated delta"));
    }
    let end = DELTA_HEADER_LEN + comp_len;
    if crc32(&buf[..end]) != u32_at(end) {
        return Err(bad("delta checksum mismatch"));
    }
    let body = rle::decode(&buf[DELTA_HEADER_LEN..end])
        .ok_or_else(|| bad("corrupt compressed payload"))?;
    if body.len() != raw_len {
        return Err(bad("decompressed size mismatch"));
    }
    Ok(Delta {
        base_seq: u64_at(12),
        prev_seq: u64_at(20),
        last_seq: u64_at(28),
        at_secs: f64::from_le_bytes(buf[36..44].try_into().unwrap()),
        body,
    })
}

/// The newest snapshot that loads and verifies. Corrupt or torn snapshot
/// files (e.g. the machine died mid-rename on a non-atomic filesystem)
/// are skipped, falling back to the next older one.
pub fn latest_snapshot(dir: &Path) -> io::Result<Option<(PathBuf, Snapshot)>> {
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        match read_snapshot(&path) {
            Ok(snap) => return Ok(Some((path, snap))),
            Err(_) => continue,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_scene::NodeKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rave-store-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_tree(n: usize) -> SceneTree {
        let mut tree = SceneTree::new();
        let root = tree.root();
        for i in 0..n {
            tree.add_node(root, format!("node-{i}"), NodeKind::Group).unwrap();
        }
        tree
    }

    #[test]
    fn snapshot_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let tree = sample_tree(20);
        let path = write_snapshot(&dir, &tree, 20, 3.5).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.last_seq, 20);
        assert_eq!(snap.at_secs, 3.5);
        assert_eq!(snap.tree, tree);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_picks_newest_and_skips_corrupt() {
        let dir = tmp_dir("latest");
        write_snapshot(&dir, &sample_tree(2), 10, 1.0).unwrap();
        write_snapshot(&dir, &sample_tree(4), 25, 2.0).unwrap();
        let (_, snap) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(snap.last_seq, 25);

        // Corrupt the newest: recovery falls back to seq 10.
        let newest = dir.join(snapshot_file_name(25));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (_, snap) = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(snap.last_seq, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("empty");
        assert!(latest_snapshot(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let dir = tmp_dir("trunc");
        let path = write_snapshot(&dir, &sample_tree(8), 8, 0.0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 7, FIXED_HEADER_LEN, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmp_dir("tmpclean");
        write_snapshot(&dir, &sample_tree(3), 3, 0.0).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|d| d.ok())
            .filter(|d| d.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_roundtrips_and_rejects_every_damage() {
        let dir = tmp_dir("delta");
        let body = b"node states, as the wire module writes them".repeat(4);
        let bytes = encode_delta(10, 14, 20, 2.5, &body);
        write_delta(&dir, 20, &bytes).unwrap();
        let path = dir.join(delta_file_name(20));
        assert_eq!(list_deltas(&dir).unwrap(), vec![(20, path.clone())]);
        assert!(list_snapshots(&dir).unwrap().is_empty(), "a delta is not a snapshot");
        let got = read_delta(&path).unwrap();
        assert_eq!((got.base_seq, got.prev_seq, got.last_seq, got.at_secs), (10, 14, 20, 2.5));
        assert_eq!(got.body, body);
        // The checksum covers the header: a flipped chain link is caught.
        for at in [12, 20, 28, DELTA_HEADER_LEN, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_delta(&path).is_err(), "flip at {at}");
        }
        for cut in [0, 7, DELTA_HEADER_LEN, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_delta(&path).is_err(), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
