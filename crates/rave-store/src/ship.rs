//! Log shipping: continuous replication of the WAL to a warm standby.
//!
//! The paper's §6 fail-safe ("data servers could mirror each other") done
//! the way production logs do it. Every frame is a run of one segment's
//! records past the standby's cursor, the CRC-framed bytes exactly as they
//! sit in the primary's segment, whether that segment is sealed or still
//! active. A sealed segment with records past the cursor ships all of
//! them; the active one's ship once the standby would otherwise trail past
//! a configurable lag bound. The standby is a [`crate::Store`] of its own,
//! opened on its directory with the primary's config: its log writes the
//! records over the fill of its own copy of the segment, so each of its
//! segment files is a byte-exact prefix of the primary's, and at promotion
//! the same open store takes appends where the primary stopped.
//!
//! Protocol shape (driven by the caller, e.g. the simulation's replica
//! subsystem, which owns timing and transport):
//!
//! 1. the standby reports its durable last sequence number;
//! 2. the primary syncs its log and [`plan`]s a batch of [`ShipFrame`]s
//!    past that cursor. When the records its WAL keeps for the standby
//!    ([`crate::Wal::unshipped`]) hold every record past the cursor, the
//!    frames are cut from them and no file is read; otherwise the log is
//!    read back as [`Wal::replay_after`] reads it;
//! 3. the standby applies each frame ([`Wal::apply_frame`], through
//!    [`crate::Store::apply_frame`]) and answers with a sequence-numbered
//!    [`ShipAck`]. A frame that arrives torn or corrupt, or past a gap, is
//!    *not* written: the ack re-states the cursor, and the primary plans
//!    again from it.
//!
//! Every apply leaves the standby holding an exact, contiguous prefix of
//! the primary's committed log — never a gap, never a torn record.

use crate::segment::{decode_records, list_chain};
use crate::wal::{reaches_back, walk, FramedTail, RecordMark, SegmentRecords, Wal};
use rave_scene::AuditEntry;
use std::io;
use std::path::Path;

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
    /// Drop the records at or below `seq`.
    fn drop_through(&mut self, seq: u64) {
        self.split_front(self.marks.partition_point(|m| m.seq <= seq));
    }

    /// Cut a frame of all but the newest `max_lag` records off the front.
    fn ship(&mut self, max_lag: u64) -> Option<ShipFrame> {
        let n = self.marks.len().saturating_sub(max_lag as usize);
        self.split_front(n).into_frame()
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

/// Plan at most `limit` frames for a standby whose durable log ends at
/// `acked_seq` (0 = empty). Sealed segments wholly at or below the cursor
/// are skipped; a sealed segment with records past it ships all of them,
/// one frame. The active segment's records ship only past `max_lag`: the
/// newest `max_lag` records may stay unshipped until rotation seals them
/// (0 = ship everything immediately). Any cursor can be planned for at
/// any time — resume after any interruption, a declined frame included,
/// is just a `plan` against the standby's reported `last_seq`.
///
/// `kept` is the WAL's runs of records no frame has carried yet
/// ([`crate::Wal::unshipped`]: consecutive segments, the last the active
/// one); `&mut []` plans from the directory alone. When the runs hold
/// every record past the cursor, the frames are cut from them, and no
/// directory is listed and no file read. Otherwise `dir` is read as
/// [`Wal::replay_after`] reads it, each segment's bytes added to
/// `file_bytes_read`. The frames are the same either way, and the records
/// they carry leave `kept`.
///
/// Errors with [`io::ErrorKind::InvalidData`] when that read refuses the
/// log, and when the cursor predates the oldest retained segment — the
/// needed history was compacted away and the standby must be
/// re-established through a full bootstrap instead.
pub fn plan(
    dir: &Path,
    kept: &mut [FramedTail],
    acked_seq: u64,
    max_lag: u64,
    limit: usize,
    file_bytes_read: &mut u64,
) -> io::Result<Vec<ShipFrame>> {
    if limit == 0 {
        return Ok(Vec::new());
    }
    let mut frames = Vec::new();
    if continues(kept, acked_seq) {
        let active = kept.len() - 1;
        for (i, run) in kept.iter_mut().enumerate() {
            run.drop_through(acked_seq);
            if frames.len() < limit {
                frames.extend(run.ship(if i == active { max_lag } else { 0 }));
            }
        }
        return Ok(frames);
    }
    let chain = list_chain(dir)?;
    reaches_back(&chain, acked_seq)?;
    walk(&chain, acked_seq, |segment| {
        *file_bytes_read += segment.file.len() as u64;
        let lag = if segment.last { max_lag } else { 0 };
        frames.extend(run_of(segment, acked_seq).ship(lag));
        frames.len() < limit
    })?;
    if let Some(last) = frames.last() {
        kept.iter_mut().for_each(|run| run.drop_through(last.last_seq));
    }
    Ok(frames)
}

/// Whether `kept` holds every record past `acked_seq`. Records leave the
/// runs from the front only, so together they hold one contiguous range
/// of seqs, up to the log's end.
fn continues(kept: &[FramedTail], acked_seq: u64) -> bool {
    let Some(active) = kept.last() else { return false };
    let end = active.marks.last().map_or(active.first_seq, |m| m.seq + 1);
    let front = kept.iter().find_map(|run| run.marks.first()).map_or(end, |m| m.seq);
    (front..=end).contains(&(acked_seq + 1))
}

/// The records past `acked_seq` of a segment [`walk`] read, as a run.
fn run_of(segment: SegmentRecords, acked_seq: u64) -> FramedTail {
    let SegmentRecords { header, file, start, records, .. } = segment;
    let end = records.last().map_or(start, |(_, end)| *end);
    let marks: Vec<RecordMark> = records.iter().map(|(e, end)| RecordMark::of(e, *end)).collect();
    FramedTail {
        index: header.index,
        base_seq: header.base_seq,
        offset: start,
        first_seq: marks.first().map_or(acked_seq + 1, |m| m.seq),
        bytes: file[start as usize..end as usize].to_vec(),
        marks,
    }
}

/// What one [`Wal::apply_frame`] did.
#[derive(Debug)]
pub struct ShipApply {
    /// Entries newly added to the standby's log, in sequence order —
    /// the caller commits these to its live replica.
    pub entries: Vec<AuditEntry>,
    /// The ack to return to the primary.
    pub ack: ShipAck,
}

impl Wal {
    /// Apply one shipped frame to a standby's log: write its records past
    /// [`Wal::last_seq`] into the copy of its segment, verbatim, with one
    /// write and one sync. A frame for a later segment starts that copy
    /// (it must start at its `base_seq`) and leaves the copy before as it
    /// is. A torn or corrupt frame is declined as torn; a gap (a frame
    /// starting past `last_seq + 1`) is declined by re-stating the cursor.
    /// Either way the primary re-plans from the cursor. Duplicates are
    /// ignored idempotently.
    pub fn apply_frame(&mut self, frame: &ShipFrame) -> io::Result<ShipApply> {
        let last_seq = self.last_seq();
        let decline = |torn| ShipApply { entries: Vec::new(), ack: ShipAck { last_seq, torn } };
        let Some(mut entries) = verify(frame) else { return Ok(decline(true)) };
        let held = entries.partition_point(|(e, _)| e.stamped.seq <= last_seq);
        let Some((first, _)) = entries.get(held) else {
            return Ok(decline(false)); // pure duplicate — idempotent
        };
        if first.stamped.seq > last_seq + 1 {
            return Ok(decline(false)); // gap: earlier entries missing
        }
        if frame.index != self.active_segment_index() {
            if first.stamped.seq != frame.base_seq {
                // `base_seq` sits outside the records' CRC, and replay and
                // compaction trust a copy's header: a copy starts where
                // its first record does.
                return Ok(decline(true));
            }
            self.start_segment(frame.index, frame.base_seq)?;
        }
        let skip = held.checked_sub(1).map_or(0, |i| entries[i].1 as usize);
        self.active.write_records(&frame.records[skip..], frame.last_seq)?;
        self.sync()?;
        let entries = entries.drain(held..).map(|(e, _)| e).collect();
        Ok(ShipApply { entries, ack: ShipAck { last_seq: frame.last_seq, torn: false } })
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
    use crate::segment::{list_segments, read_segment, segment_file_name};
    use rave_scene::{NodeKind, SceneTree, SceneUpdate, StampedUpdate};
    use std::path::PathBuf;

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

    /// What the directory alone plans for a standby at `acked_seq`.
    fn fresh(dir: &Path, acked_seq: u64, max_lag: u64, limit: usize) -> Vec<ShipFrame> {
        plan(dir, &mut [], acked_seq, max_lag, limit, &mut 0).unwrap()
    }

    /// A standby's log on `dir`, its copies filled to `seg_bytes`.
    fn standby_log(dir: &Path, seg_bytes: u64) -> Wal {
        Wal::open(dir, seg_bytes).unwrap().0
    }

    /// The standby's log holds no record: one segment, the one a log
    /// opened on an empty directory starts, and nothing in it.
    fn holds_nothing(dir: &Path) -> bool {
        list_segments(dir).unwrap().len() == 1 && Wal::replay_after(dir, 0).unwrap().is_empty()
    }

    /// Drive plan/apply to quiescence; returns frames shipped.
    fn drain(dir: &Path, standby: &mut Wal, max_lag: u64) -> usize {
        let mut shipped = 0;
        loop {
            let frames = fresh(dir, standby.last_seq(), max_lag, 4);
            if frames.is_empty() {
                return shipped;
            }
            for f in &frames {
                standby.apply_frame(f).unwrap();
                shipped += 1;
            }
        }
    }

    #[test]
    fn full_ship_reproduces_the_log_exactly() {
        let (pdir, sdir) = (tmp_dir("full-p"), tmp_dir("full-s"));
        let live = primary_session(&pdir, 40, 256); // several rotations
        let mut standby = standby_log(&sdir, 256);
        drain(&pdir, &mut standby, 0);
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
        {
            let mut standby = standby_log(&sdir, 256);
            // Ship only the first couple of frames, then "crash".
            let frames = fresh(&pdir, 0, 0, 2);
            for f in &frames {
                standby.apply_frame(f).unwrap();
            }
        }
        // A fresh standby process resumes from its durable cursor: the
        // next plan starts past everything already held.
        let mut standby = standby_log(&sdir, 256);
        let held = standby.last_seq();
        assert!(held > 0, "prefix survived the restart");
        let frames = fresh(&pdir, held, 0, 16);
        assert_eq!(frames[0].first_seq, held + 1, "nothing held is shipped again");
        drain(&pdir, &mut standby, 0);
        assert_eq!(standby.last_seq(), 30);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn torn_frame_is_rerequested_and_converges() {
        let (pdir, sdir) = (tmp_dir("torn-p"), tmp_dir("torn-s"));
        let live = primary_session(&pdir, 30, 256);
        let mut standby = standby_log(&sdir, 256);
        let mut frame = fresh(&pdir, 0, 0, 1).remove(0);
        assert_eq!((frame.index, frame.first_seq), (0, 1), "sealed segment 0's records");
        // Damage the frame in flight: flip a byte inside the records.
        let n = frame.records.len();
        frame.records[n - 3] ^= 0xFF;
        let apply = standby.apply_frame(&frame).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: true }, "declined as torn");
        assert!(apply.entries.is_empty() && holds_nothing(&sdir));
        // The plan from the unmoved cursor ships the records again, intact,
        // and the stream converges.
        let again = fresh(&pdir, apply.ack.last_seq, 0, 1).remove(0);
        frame.records[n - 3] ^= 0xFF;
        assert_eq!(again, frame);
        let apply = standby.apply_frame(&again).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: frame.last_seq, torn: false });
        drain(&pdir, &mut standby, 0);
        assert_eq!(recover(&sdir).unwrap().tree, live);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn lag_bound_withholds_the_newest_tail_entries() {
        let (pdir, sdir) = (tmp_dir("lag-p"), tmp_dir("lag-s"));
        primary_session(&pdir, 20, 1 << 20); // one active segment, no seals
        let mut standby = standby_log(&sdir, 1 << 20);
        drain(&pdir, &mut standby, 5);
        assert_eq!(standby.last_seq(), 15, "newest 5 entries withheld within the lag bound");
        // Tightening the bound ships the rest.
        drain(&pdir, &mut standby, 0);
        assert_eq!(standby.last_seq(), 20);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn gap_frames_are_declined_not_installed() {
        let (pdir, sdir) = (tmp_dir("gap-p"), tmp_dir("gap-s"));
        primary_session(&pdir, 30, 256);
        let mut standby = standby_log(&sdir, 256);
        // Deliver a later segment's records first: declined, cursor unmoved.
        let frames = fresh(&pdir, 0, 0, 8);
        let later = frames.iter().find(|f| f.index > 0).expect("multiple segments");
        let apply = standby.apply_frame(later).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: false });
        assert!(apply.entries.is_empty());
        assert!(holds_nothing(&sdir), "nothing installed");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn plan_respects_the_frame_limit() {
        let (pdir, _s) = (tmp_dir("limit-p"), ());
        primary_session(&pdir, 50, 128); // many segments
        assert!(list_segments(&pdir).unwrap().len() > 3);
        assert_eq!(fresh(&pdir, 0, 0, 2).len(), 2);
        assert!(fresh(&pdir, 0, 0, 0).is_empty());
        let _ = std::fs::remove_dir_all(&pdir);
    }

    #[test]
    fn compacted_history_is_an_explicit_error() {
        let (pdir, _) = (tmp_dir("compact-p"), ());
        primary_session(&pdir, 30, 256);
        // Simulate compaction deleting the oldest segment.
        let (_, first) = list_segments(&pdir).unwrap().into_iter().next().unwrap();
        std::fs::remove_file(&first).unwrap();
        let err = plan(&pdir, &mut [], 0, 0, 8, &mut 0).unwrap_err();
        assert!(err.to_string().contains("compacted"), "{err}");
        let _ = std::fs::remove_dir_all(&pdir);
    }

    /// A log torn before its end — a record of sealed segment 0 damaged
    /// while later segments hold records — is refused, not planned around:
    /// the records past the tear would reach the standby only past a gap,
    /// which it declines, so the link would ship the same frames forever.
    #[test]
    fn a_log_torn_before_its_end_is_refused() {
        let pdir = tmp_dir("torn-log-p");
        primary_session(&pdir, 60, 512);
        let (_, first) = &list_segments(&pdir).unwrap()[0];
        let mut bytes = std::fs::read(first).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(first, &bytes).unwrap();
        let before_the_tear = read_segment(first).unwrap().entries.len() as u64;
        for acked in [0, before_the_tear] {
            let err = plan(&pdir, &mut [], acked, 0, 4, &mut 0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "at {acked}: {err}");
        }
        assert_eq!(recover(&pdir).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&pdir);
    }

    #[test]
    fn duplicate_frames_are_idempotent() {
        let (pdir, sdir) = (tmp_dir("dup-p"), tmp_dir("dup-s"));
        let live = primary_session(&pdir, 25, 256);
        let mut standby = standby_log(&sdir, 256);
        let frames = fresh(&pdir, 0, 0, 16);
        for f in &frames {
            standby.apply_frame(f).unwrap();
        }
        let before = standby.last_seq();
        for f in &frames {
            let apply = standby.apply_frame(f).unwrap();
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

    /// Several records a tick on small segments, so that rotations fall
    /// between ticks with records the standby lacks left in the sealed
    /// segment: after the first tick every frame is cut from the WAL's
    /// runs, the sealed one's included, and is what the directory alone
    /// plans.
    #[test]
    fn kept_runs_ship_across_rotations_without_reading_a_file() {
        let (pdir, sdir) = (tmp_dir("cursor-p"), tmp_dir("cursor-s"));
        let (mut wal, _) = Wal::open(&pdir, 3000).unwrap();
        append_renames(&mut wal, 1..=3);
        wal.keep_unshipped(true);
        let mut standby = standby_log(&sdir, 3000);
        let (mut read, mut first_tick_read, mut across_a_rotation) = (0, 0, 0);
        for tick in 0..60u64 {
            if tick > 0 {
                append_renames(&mut wal, tick * 7 - 3..=tick * 7 + 3);
            }
            let want = fresh(&pdir, standby.last_seq(), 0, 8);
            let frames = plan(&pdir, wal.unshipped(), standby.last_seq(), 0, 8, &mut read).unwrap();
            assert_eq!(frames, want, "tick {tick}: the runs change what is read, not what ships");
            assert!(wal.unshipped().len() <= 2);
            // Two frames: the sealed segment's last records, then the new one's.
            across_a_rotation += usize::from(frames.len() == 2);
            for f in &frames {
                standby.apply_frame(f).unwrap();
            }
            assert_eq!(standby.last_seq(), tick * 7 + 3);
            if tick == 0 {
                // Seqs 1-3 were framed before keeping started: read back.
                first_tick_read = read;
                assert!(first_tick_read > 0);
            }
        }
        assert!(across_a_rotation >= 3, "{across_a_rotation} ticks shipped a sealed run");
        assert_eq!(read, first_tick_read, "no file read after the first tick");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn records_held_back_by_the_lag_stay_in_memory() {
        let (pdir, sdir) = (tmp_dir("held-p"), tmp_dir("held-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        wal.keep_unshipped(true);
        let mut standby = standby_log(&sdir, 1 << 20);
        let mut read = 0;
        for tick in 0..6u64 {
            append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
            let want = fresh(&pdir, standby.last_seq(), 5, 4);
            let frames = plan(&pdir, wal.unshipped(), standby.last_seq(), 5, 4, &mut read).unwrap();
            assert_eq!((&frames, read), (&want, 0), "tick {tick}");
            let held: usize = wal.unshipped().iter().map(|run| run.marks.len()).sum();
            assert_eq!(held, 5.min(tick as usize * 4 + 4), "tick {tick}: the lag's records stay");
            for f in &frames {
                standby.apply_frame(f).unwrap();
            }
            assert_eq!(standby.last_seq(), (tick * 4 + 4).saturating_sub(5));
        }
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn the_directory_is_read_when_the_standby_falls_behind_the_runs() {
        let (pdir, sdir) = (tmp_dir("behind-p"), tmp_dir("behind-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        wal.keep_unshipped(true);
        append_renames(&mut wal, 1..=10);
        let mut read = 0;
        let frames = plan(&pdir, wal.unshipped(), 0, 0, 4, &mut read).unwrap();
        assert_eq!((frames[0].last_seq, read), (10, 0));
        // The frame never arrived: the standby still reports seq 0, and
        // the plan starts over from there, read back from the file; the
        // runs no longer hold what the lost frame carried.
        append_renames(&mut wal, 11..=12);
        let again = plan(&pdir, wal.unshipped(), 0, 0, 4, &mut read).unwrap();
        assert_eq!((again[0].first_seq, again[0].count), (1, 12));
        assert!(read > 0);
        assert_eq!(again, fresh(&pdir, 0, 0, 4));
        assert!(wal.unshipped().iter().all(|run| run.marks.is_empty()), "shipped: gone");
        let mut standby = standby_log(&sdir, 1 << 20);
        standby.apply_frame(&again[0]).unwrap();
        assert_eq!(standby.last_seq(), 12);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    #[test]
    fn a_torn_tail_frame_is_rerequested_and_converges() {
        let (pdir, sdir) = (tmp_dir("torn-tail-p"), tmp_dir("torn-tail-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        append_renames(&mut wal, 1..=6);
        let mut standby = standby_log(&sdir, 1 << 20);
        let mut frame = fresh(&pdir, 0, 0, 1).remove(0);
        let n = frame.records.len();
        frame.records[n - 2] ^= 0x10;
        let apply = standby.apply_frame(&frame).unwrap();
        assert_eq!(apply.ack, ShipAck { last_seq: 0, torn: true });
        assert!(apply.entries.is_empty() && holds_nothing(&sdir));
        let frames = fresh(&pdir, apply.ack.last_seq, 0, 4);
        for f in &frames {
            standby.apply_frame(f).unwrap();
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
        let early = fresh(&pdir, 0, 0, 1).remove(0);
        append_renames(&mut wal, 6..=8);
        let late = fresh(&pdir, 0, 0, 1).remove(0);
        let mut standby = standby_log(&sdir, 1 << 20);
        standby.apply_frame(&early).unwrap();
        let apply = standby.apply_frame(&late).unwrap();
        let seqs: Vec<u64> = apply.entries.iter().map(|e| e.stamped.seq).collect();
        assert_eq!((seqs, apply.ack.last_seq), (vec![6, 7, 8], 8));
        let name = segment_file_name(0);
        let (p, s) =
            (std::fs::read(pdir.join(&name)).unwrap(), std::fs::read(sdir.join(&name)).unwrap());
        assert_eq!(p, s, "the copy is the primary's segment, fill and all");
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// Frames on one segment extend the copy the standby's log holds open,
    /// and a restarted standby's log goes on extending the copy it opened:
    /// the copy stays the primary's segment, fill and all.
    #[test]
    fn frames_on_one_segment_extend_the_open_copy_across_a_restart() {
        let (pdir, sdir) = (tmp_dir("writer-p"), tmp_dir("writer-s"));
        let (mut wal, _) = Wal::open(&pdir, 1 << 20).unwrap();
        let name = segment_file_name(0);
        for restart in 0..2u64 {
            let mut standby = standby_log(&sdir, 1 << 20);
            for tick in restart * 6..restart * 6 + 6 {
                append_renames(&mut wal, tick * 4 + 1..=tick * 4 + 4);
                for f in &fresh(&pdir, standby.last_seq(), 0, 4) {
                    standby.apply_frame(f).unwrap();
                }
            }
            assert_eq!(standby.last_seq(), restart * 24 + 24);
            let (p, s) = (std::fs::read(pdir.join(&name)), std::fs::read(sdir.join(&name)));
            assert_eq!(p.unwrap(), s.unwrap(), "restart {restart}");
        }
        assert_eq!(list_segments(&sdir).unwrap().len(), 1);
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
        let mut standby = standby_log(&sdir, 600);
        append_renames(&mut wal, 1..=3);
        standby.apply_frame(&fresh(&pdir, 0, 0, 4)[0]).unwrap();
        let mut last = 3;
        while wal.active_segment_index() == 0 {
            last += 1;
            append_renames(&mut wal, last..=last);
        }
        let frames = fresh(&pdir, 3, 0, 4);
        let (_, path) = &list_segments(&pdir).unwrap()[0];
        let sealed = std::fs::read(path).unwrap();
        let first = &frames[0];
        assert_eq!((first.index, first.first_seq, first.last_seq), (0, 4, last - 1));
        let held = read_segment(path).unwrap().clean_len as usize - first.records.len();
        assert_eq!(&sealed[held..], &first.records[..], "only the records past the cursor");
        for f in &frames {
            standby.apply_frame(f).unwrap();
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
        let mut standby = standby_log(&sdir, 256);
        // The log opened on an empty directory started segment 0: the
        // first frame to start a copy is segment 1's.
        let first = fresh(&pdir, 0, 0, 1).remove(0);
        let held = standby.apply_frame(&first).unwrap().ack.last_seq;
        let mut frame = fresh(&pdir, held, 0, 1).remove(0);
        assert_eq!(frame.index, 1);
        frame.base_seq ^= 0x4;
        assert_eq!(
            standby.apply_frame(&frame).unwrap().ack,
            ShipAck { last_seq: held, torn: true }
        );
        assert_eq!(list_segments(&sdir).unwrap().len(), 1, "nothing created");
        drain(&pdir, &mut standby, 0);
        assert_eq!(recover(&sdir).unwrap().tree, live);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&sdir);
    }
}
