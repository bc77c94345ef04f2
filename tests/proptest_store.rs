//! Property tests on the durable store: WAL record framing round-trips
//! any payload, recovery after *arbitrary* file truncation always
//! replays a strict prefix of the session — never garbage, never a
//! reordering, never a partial update — and delta checkpoints recover
//! exactly what full snapshots recover, fall back to full snapshots when
//! they must, and never turn a broken chain into a shorter history.

use proptest::prelude::*;
use rave::math::Vec3;
use rave::scene::wire;
use rave::scene::{
    AuditEntry, AvatarInfo, CameraParams, MeshData, NodeId, NodeKind, SceneTree, SceneUpdate,
    StampedUpdate, Transform,
};
use rave::store::record::{encode_record, scan_records, RECORD_HEADER_LEN};
use rave::store::wal::Wal;
use rave::store::{write_snapshot, CheckpointKind, Store, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rave-prop-store-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry(seq: u64, name: &str) -> AuditEntry {
    AuditEntry {
        at_secs: seq as f64 * 0.25,
        stamped: StampedUpdate {
            seq,
            origin: "prop".into(),
            update: SceneUpdate::SetName { id: NodeId(0), name: name.into() },
        },
    }
}

proptest! {
    /// Any non-empty payloads, framed back to back, scan out unchanged and
    /// in order — and the scan reports the buffer fully clean. (An empty
    /// one frames as an all-zero header, which a scan reads as torn.)
    #[test]
    fn record_framing_roundtrips(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..200), 0..20)
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            encode_record(p, &mut buf);
        }
        let scan = scan_records(&buf);
        prop_assert!(scan.torn.is_none());
        prop_assert_eq!(scan.clean_len, buf.len());
        prop_assert_eq!(scan.payloads.len(), payloads.len());
        for (got, want) in scan.payloads.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Wire-encoded audit entries round-trip through the WAL record
    /// framing exactly.
    #[test]
    fn audit_entries_roundtrip_through_framing(
        names in prop::collection::vec("[a-z]{0,12}", 1..30)
    ) {
        let mut buf = Vec::new();
        let entries: Vec<AuditEntry> = names
            .iter()
            .enumerate()
            .map(|(i, n)| entry(i as u64 + 1, n))
            .collect();
        for e in &entries {
            encode_record(&wire::encode_entry(e), &mut buf);
        }
        let scan = scan_records(&buf);
        prop_assert_eq!(scan.payloads.len(), entries.len());
        for (payload, want) in scan.payloads.iter().zip(&entries) {
            let got = wire::decode_entry(payload).unwrap();
            prop_assert_eq!(&got, want);
        }
    }

    /// Truncate the WAL's active segment at ANY byte boundary: recovery
    /// still succeeds and replays exactly the entries whose records
    /// survived intact — a strict prefix of what was appended.
    #[test]
    fn recovery_after_arbitrary_truncation_is_strict_prefix(
        n in 1u64..25,
        cut_frac in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let dir = tmp_dir("trunc", case);
        let mut tree = SceneTree::new();
        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
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
                stamped: StampedUpdate { seq, origin: "prop".into(), update },
            }).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // One segment (1 MiB cap): cut it anywhere between the header and
        // the last record's end, past which the segment holds its fill.
        let (_, seg) = rave::store::segment::list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        let min = rave::store::segment::SEGMENT_HEADER_LEN;
        let end = min + scan_records(&bytes[min..]).clean_len;
        prop_assert!(end < bytes.len(), "the segment is filled past its records");
        let cut = min + ((end - min) as f64 * cut_frac) as usize;
        std::fs::write(&seg, &bytes[..cut]).unwrap();

        let rec = rave::store::recover(&dir).unwrap();
        // A strict prefix: seqs 1..=k for some k <= n, each fully applied.
        prop_assert!(rec.last_seq <= n);
        prop_assert_eq!(rec.entries.len() as u64, rec.last_seq);
        for (i, e) in rec.entries.iter().enumerate() {
            prop_assert_eq!(e.stamped.seq, i as u64 + 1);
        }
        // And the recovered tree is exactly the prefix state.
        let mut prefix = SceneTree::new();
        for e in &rec.entries {
            e.stamped.update.apply(&mut prefix).unwrap();
        }
        prop_assert_eq!(&rec.tree, &prefix);
        // Cutting inside record i's bytes loses at most record i and
        // later: everything before the cut's record boundary survives.
        let full_records = {
            let scan = scan_records(&bytes[min..cut]);
            scan.payloads.len() as u64
        };
        prop_assert_eq!(rec.last_seq, full_records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn truncation_sweep_every_byte_of_a_small_log() {
    // Exhaustive companion to the random property: a 5-entry log cut at
    // every single byte offset.
    let dir = tmp_dir("sweep", 0);
    let mut tree = SceneTree::new();
    let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
    for seq in 1..=5 {
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
            stamped: StampedUpdate { seq, origin: "sweep".into(), update },
        })
        .unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let (_, seg) = rave::store::segment::list_segments(&dir).unwrap().pop().unwrap();
    let bytes = std::fs::read(&seg).unwrap();
    let min = rave::store::segment::SEGMENT_HEADER_LEN;
    // Past the last record the segment holds its fill: cut up to there.
    let end = min + scan_records(&bytes[min..]).clean_len;
    assert!(end < bytes.len(), "the segment is filled past its records");
    let mut last_seen = 0;
    for cut in min..=end {
        // The file cut short at `cut`...
        std::fs::write(&seg, &bytes[..cut]).unwrap();
        let rec = rave::store::recover(&dir).unwrap();
        assert!(rec.last_seq >= last_seen, "prefix length monotone in cut at {cut}");
        assert_eq!(rec.entries.len() as u64, rec.last_seq);
        last_seen = rec.last_seq;
        assert_eq!(RECORD_HEADER_LEN, 8, "framing constant the offsets in this sweep rely on");
        // ...and the records past `cut` never having left the fill: every
        // record whose bytes are all there survives (one whose last bytes
        // were zeros anyway is whole), the torn one does not.
        let mut torn = bytes[..end].to_vec();
        torn[cut..].fill(0);
        let mut file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        std::io::Write::write_all(&mut file, &torn).unwrap();
        drop(file);
        let over_fill = rave::store::recover(&dir).unwrap();
        let whole = scan_records(&torn[min..]).payloads.len() as u64;
        assert_eq!(over_fill.last_seq, whole, "torn over the fill at {cut}");
        assert!((rec.last_seq..=rec.last_seq + 1).contains(&whole), "at {cut}");
    }
    assert_eq!(last_seen, 5, "full file recovers everything");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- delta checkpoints against full snapshots ---------------------------

/// A mesh of `tris` copies of one triangle: a payload whose size a cost
/// edit changes, like a tiny mesh of the benchmark's storm.
fn tiny_mesh(tris: u32) -> NodeKind {
    let corners = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
    NodeKind::Mesh(Arc::new(MeshData::new(corners, vec![[0, 1, 2]; tris as usize])))
}

/// A master scene and a store driven in lockstep, as a data service drives
/// them: every update applied, appended, and checkpointed when due.
struct Session {
    store: Store,
    master: SceneTree,
    seq: u64,
    /// Content nodes that may be edited or removed.
    content: Vec<NodeId>,
    camera: NodeId,
    avatar: NodeId,
    /// Every checkpoint written: its seq and kind.
    checkpoints: Vec<(u64, CheckpointKind)>,
}

impl Session {
    fn open(dir: &Path, cfg: StoreConfig, meshes: u32) -> Session {
        let mut master = SceneTree::new();
        master.record_edits();
        let (camera, avatar) = (master.allocate_id(), master.allocate_id());
        let mut s = Session {
            store: Store::open(dir, cfg).unwrap(),
            master,
            seq: 0,
            content: Vec::new(),
            camera,
            avatar,
            checkpoints: Vec::new(),
        };
        let root = s.master.root();
        s.commit(SceneUpdate::AddNode {
            id: camera,
            parent: root,
            name: "cam".into(),
            kind: NodeKind::Camera(CameraParams::default()),
        });
        let avatar_kind = NodeKind::Avatar(AvatarInfo {
            label: "desk".into(),
            color: Vec3::ONE,
            camera: CameraParams::default(),
        });
        s.commit(SceneUpdate::AddNode {
            id: avatar,
            parent: root,
            name: "me".into(),
            kind: avatar_kind,
        });
        for i in 0..meshes {
            s.add(100 + 7 * i);
        }
        s
    }

    fn add(&mut self, tris: u32) {
        let id = self.master.allocate_id();
        let parent = self.master.root();
        self.commit(SceneUpdate::AddNode {
            id,
            parent,
            name: format!("m{id}"),
            kind: tiny_mesh(tris),
        });
        self.content.push(id);
    }

    fn commit(&mut self, update: SceneUpdate) -> Option<CheckpointKind> {
        self.seq += 1;
        update.apply(&mut self.master).unwrap();
        let stamped = StampedUpdate { seq: self.seq, origin: "storm".into(), update };
        self.store.append(&AuditEntry { at_secs: self.seq as f64, stamped }).unwrap();
        if !self.store.checkpoint_due() {
            return None;
        }
        let report = self.store.checkpoint(&self.master, self.seq as f64).unwrap();
        self.checkpoints.push((self.seq, report.kind));
        Some(report.kind)
    }

    fn pick(&self, pick: usize) -> NodeId {
        self.content[pick % self.content.len()]
    }

    /// One transform on each of `n` content nodes and a cost edit on
    /// every fourth: the benchmark's 12:4 storm.
    fn storm_round(&mut self, round: u64, n: usize) {
        for k in 0..n {
            let id = self.pick(round as usize * 31 + k * 7);
            let update = if k % 4 == 3 {
                SceneUpdate::ReplaceKind {
                    id,
                    kind: tiny_mesh(10 + (round as u32 * 13 + k as u32) % 390),
                }
            } else {
                let at = Vec3::new(round as f32, k as f32, 0.5);
                SceneUpdate::SetTransform { id, transform: Transform::from_translation(at) }
            };
            self.commit(update);
        }
    }
}

fn kinds(s: &Session) -> Vec<CheckpointKind> {
    s.checkpoints.iter().map(|(_, kind)| *kind).collect()
}

/// One step of a generated storm: 0 adds a node, 1 removes one, 2–3 change
/// a node's cost, 4 renames one, 5 moves the camera, 6 the avatar, and
/// the rest move a node.
fn storm_step() -> impl Strategy<Value = (u8, usize, u32)> {
    (0u8..20, any::<usize>(), 1u32..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every checkpoint of a generated storm, recovery from base +
    /// deltas + WAL equals recovery from a full snapshot of the master at
    /// the same seq — allocator included — and a window that held an
    /// insert or a removal was written as a full snapshot.
    #[test]
    fn delta_chains_recover_what_a_full_snapshot_recovers(
        steps in prop::collection::vec(storm_step(), 1..120),
        case in any::<u64>(),
    ) {
        let dir = tmp_dir("chain", case);
        let full_dir = tmp_dir("chain-full", case);
        let cfg = StoreConfig { checkpoint_every: 6, segment_max_bytes: 2048 };
        let mut s = Session::open(&dir, cfg, 8);
        let mut structural = false;
        for (step, (what, pick, tris)) in steps.into_iter().enumerate() {
            let id = s.pick(pick);
            let update = match what {
                0 => {
                    structural = true;
                    let new = s.master.allocate_id();
                    s.content.push(new);
                    SceneUpdate::AddNode { id: new, parent: id, name: format!("a{step}"), kind: tiny_mesh(tris) }
                }
                1 if s.content.len() > 1 => {
                    structural = true;
                    let removed = s.master.descendants(id);
                    s.content.retain(|n| !removed.contains(n));
                    SceneUpdate::RemoveNode { id }
                }
                2 | 3 => SceneUpdate::ReplaceKind { id, kind: tiny_mesh(tris) },
                4 => SceneUpdate::SetName { id, name: format!("r{step}") },
                5 => SceneUpdate::CameraMoved {
                    id: s.camera,
                    camera: CameraParams::look_at(Vec3::new(tris as f32, 1.0, 2.0), Vec3::ZERO, Vec3::Y),
                },
                6 => SceneUpdate::AvatarUpdated {
                    id: s.avatar,
                    avatar: AvatarInfo {
                        label: format!("desk{step}"),
                        color: Vec3::X,
                        camera: CameraParams::look_at(Vec3::new(0.0, tris as f32, 1.0), Vec3::ZERO, Vec3::Y),
                    },
                },
                _ => SceneUpdate::SetTransform {
                    id,
                    transform: Transform::from_translation(Vec3::new(step as f32, tris as f32, 0.0)),
                },
            };
            let Some(kind) = s.commit(update) else { continue };
            if structural {
                prop_assert_eq!(kind, CheckpointKind::Full, "structure in the window at seq {}", s.seq);
            }
            structural = false;
            let rec = rave::store::recover(&dir).unwrap();
            let _ = std::fs::remove_dir_all(&full_dir);
            std::fs::create_dir_all(&full_dir).unwrap();
            write_snapshot(&full_dir, &s.master, s.seq, s.seq as f64).unwrap();
            let full = rave::store::recover(&full_dir).unwrap();
            prop_assert_eq!(rec.last_seq, s.seq);
            prop_assert_eq!(&rec.tree, &full.tree);
            prop_assert_eq!(&rec.tree, &s.master);
            prop_assert_eq!(rec.tree.id_allocator_state(), s.master.id_allocator_state());
        }
        // And past the last checkpoint, the WAL tail on top of the chain.
        prop_assert_eq!(&rave::store::recover(&dir).unwrap().tree, &s.master);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&full_dir);
    }
}

#[test]
fn structure_free_windows_write_deltas_and_each_fallback_writes_a_full_snapshot() {
    use CheckpointKind::{Delta, Full};
    let cfg = StoreConfig { checkpoint_every: 16, ..Default::default() };

    // The storm shape: a base, then deltas until the chain would pass
    // half the base.
    let dir = tmp_dir("fallback-storm", 0);
    let mut s = Session::open(&dir, cfg, 30);
    for round in 0..12 {
        s.storm_round(round, 16);
    }
    let storm = kinds(&s);
    // The two import windows add nodes; the storm's do not.
    assert_eq!(&storm[..4], &[Full, Full, Delta, Delta], "{storm:?}");
    assert!(storm[2..].contains(&Full), "the chain's size sends a new base: {storm:?}");
    assert_eq!(rave::store::recover(&dir).unwrap().tree, s.master);

    // A window longer than the journal keeps: 600 pose entries against a
    // cap of 512, where 500 still write a delta.
    for (n, want) in [(500, Delta), (600, Full)] {
        let dir = tmp_dir("fallback-cap", n);
        let cfg = StoreConfig { checkpoint_every: n, ..Default::default() };
        let mut s = Session::open(&dir, cfg, 30);
        while s.checkpoints.is_empty() {
            s.storm_round(0, 1);
        }
        for k in 0..n {
            let id = s.pick(k as usize);
            s.commit(SceneUpdate::SetTransform {
                id,
                transform: Transform::from_translation(Vec3::new(k as f32, 0.0, 0.0)),
            });
        }
        assert_eq!(kinds(&s), vec![Full, want], "window of {n}");
        assert_eq!(rave::store::recover(&dir).unwrap().tree, s.master);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Another tree value than the last checkpoint's: a clone, and a tree
    // seeded from a recovery. Then a tree nobody started recording.
    let seeded = rave::store::recover(&dir).unwrap().tree;
    let mut others = [s.master.clone(), seeded, s.master.clone()];
    for (i, other) in others.iter_mut().enumerate() {
        let before = s.checkpoints.len();
        let first = s.pick(i);
        let update = SceneUpdate::SetTransform { id: first, transform: Transform::IDENTITY };
        update.apply(other).unwrap();
        s.master = std::mem::take(other);
        if i < 2 {
            s.master.record_edits();
        }
        while s.checkpoints.len() == before {
            s.storm_round(20 + i as u64, 1);
        }
        assert_eq!(s.checkpoints.last().unwrap().1, Full, "tree {i}");
        while s.checkpoints.len() == before + 1 {
            s.storm_round(30 + i as u64, 1);
        }
        let next = s.checkpoints.last().unwrap().1;
        assert_eq!(next, if i < 2 { Delta } else { Full }, "tree {i}, next window");
    }
    assert_eq!(rave::store::recover(&dir).unwrap().tree, s.master);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A session of one base and at least three deltas, with `retain`: the
/// whole WAL kept (a standby that acknowledged nothing), or compacted
/// behind every checkpoint.
fn chained_session(tag: &str, retain: bool) -> (PathBuf, Session) {
    let dir = tmp_dir(tag, retain as u64);
    let cfg = StoreConfig { checkpoint_every: 16, segment_max_bytes: 256 };
    let mut s = Session::open(&dir, cfg, 30);
    if retain {
        s.store.set_retention_floor(Some(0));
    }
    let mut round = 0;
    while kinds(&s).iter().filter(|k| **k == CheckpointKind::Delta).count() < 3 {
        s.storm_round(round, 16);
        round += 1;
    }
    // A tail past the last delta, so a shorter recovery could hide.
    s.storm_round(round, 5);
    s.store.sync().unwrap();
    assert_eq!(s.checkpoints[s.checkpoints.len() - 4].1, CheckpointKind::Full);
    (dir, s)
}

#[test]
fn a_broken_delta_chain_never_recovers_a_silently_shorter_scene() {
    let delta_path = |dir: &Path, seq: u64| dir.join(rave::store::snapshot::delta_file_name(seq));
    type Damage = (&'static str, fn(&Path));
    let damages: [Damage; 3] = [
        ("missing", |p| std::fs::remove_file(p).unwrap()),
        ("bit flip", |p| {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(p, bytes).unwrap();
        }),
        ("torn", |p| {
            let bytes = std::fs::read(p).unwrap();
            std::fs::write(p, &bytes[..bytes.len() - 9]).unwrap();
        }),
    ];
    for (what, damage) in damages {
        for victim in [2, 1] {
            // The log still reaches back: recovery goes on from the intact
            // prefix of the chain and replays the rest.
            let (dir, s) = chained_session("broken-kept", true);
            let (seq, _) = s.checkpoints[s.checkpoints.len() - victim];
            damage(&delta_path(&dir, seq));
            let rec = rave::store::recover(&dir).unwrap();
            assert_eq!(rec.tree, s.master, "{what} delta {victim} from the end, log kept");
            assert_eq!(rec.last_seq, s.seq);
            assert_eq!(rec.deltas, 3 - victim, "{what}: the prefix before the damage");
            std::fs::remove_dir_all(&dir).unwrap();

            // Compacted behind the damaged delta: nothing silently shorter.
            let (dir, s) = chained_session("broken-compacted", false);
            let (seq, _) = s.checkpoints[s.checkpoints.len() - victim];
            damage(&delta_path(&dir, seq));
            let err = rave::store::recover(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    // The log reaches back to the intact prefix but lost its own tail too:
    // it ends before the damaged delta, which still says how far the
    // history went.
    let (dir, s) = chained_session("broken-short-log", true);
    let (prev, _) = s.checkpoints[s.checkpoints.len() - 2];
    let (last, _) = s.checkpoints[s.checkpoints.len() - 1];
    std::fs::remove_file(delta_path(&dir, last)).unwrap();
    for (_, seg) in rave::store::segment::list_segments(&dir).unwrap() {
        if rave::store::segment::read_segment_header(&seg).unwrap().base_seq > prev + 1 {
            std::fs::remove_file(seg).unwrap();
        }
    }
    std::fs::write(delta_path(&dir, last), b"RAVEDLTA torn").unwrap();
    let err = rave::store::recover(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "short log: {err}");
    std::fs::remove_dir_all(&dir).unwrap();

    // The log itself damaged: the last sealed segment, which holds records
    // past the newest checkpoint, missing, bit-flipped or torn, while the
    // active segment after it holds later ones.
    for (what, damage) in damages {
        let (dir, s) = chained_session("broken-log", true);
        let (last, _) = *s.checkpoints.last().unwrap();
        let segments = rave::store::segment::list_segments(&dir).unwrap();
        let [.., (_, sealed), (_, active)] = &segments[..] else { panic!("no sealed segment") };
        let active_base = rave::store::segment::read_segment_header(active).unwrap().base_seq;
        assert!(active_base > last + 1, "the sealed segment holds records past seq {last}");
        damage(sealed);
        let err = rave::store::recover(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what} sealed segment: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A log rotated on appends and by hand (empty segments included),
    /// with holes in its seqs where refused updates were stamped (some
    /// where a segment starts), compacted behind a checkpoint at `s` and a
    /// standby at `f`: every
    /// segment deleted holds only records at or below min(s, f), and
    /// replay past any cursor from min(s, f) on reads the same records
    /// before and after the compaction.
    #[test]
    fn compaction_deletes_only_what_replay_past_its_floor_skips(
        steps in prop::collection::vec((any::<bool>(), any::<bool>(), 0u64..5), 1..40),
        seg_bytes in 96u64..600,
        s_frac in 0.0f64..1.0,
        (standby, f_frac) in (any::<bool>(), 0.0f64..1.0),
        case in any::<u64>(),
    ) {
        let dir = tmp_dir("compact-replay", case);
        let (mut wal, _) = Wal::open(&dir, seg_bytes).unwrap();
        let mut n = 0;
        for (rotate, hole, appends) in steps {
            if rotate {
                wal.rotate().unwrap();
            }
            n += u64::from(hole);
            for _ in 0..appends {
                n += 1;
                wal.append(&entry(n, &format!("n{n}"))).unwrap();
            }
        }
        wal.sync().unwrap();
        let s = ((n + 1) as f64 * s_frac) as u64;
        let f = standby.then_some(((n + 1) as f64 * f_frac) as u64);
        let floor = f.map_or(s, |f| f.min(s));
        let held: BTreeMap<u64, Vec<u64>> = rave::store::segment::list_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(index, path)| {
                let contents = rave::store::segment::read_segment(&path).unwrap();
                (index, contents.entries.iter().map(|e| e.stamped.seq).collect())
            })
            .collect();
        let before: Vec<_> = (floor..=n).map(|c| Wal::replay_after(&dir, c).unwrap()).collect();

        let report = rave::store::compact(&dir, s, f).unwrap();
        for index in &report.segments_deleted {
            prop_assert!(held[index].iter().all(|&seq| seq <= floor), "segment {} held {:?}", index, held[index]);
        }
        for (c, want) in (floor..=n).zip(&before) {
            prop_assert_eq!(&Wal::replay_after(&dir, c).unwrap(), want, "cursor {}", c);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
