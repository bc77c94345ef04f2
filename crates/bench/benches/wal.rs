//! The session store against the trail export: the rave-store binary WAL
//! versus the JSON-lines `AuditTrail::save`/`load`, on a 10k-update
//! session — append (write the whole session to disk) and replay (read
//! it back and rebuild the scene) — and a delta checkpoint against a full
//! one on the `edit_storm` shape. Emits `BENCH_wal.json` at the repo root
//! with the measured times (`BENCH_QUICK=1` times fewer rounds).

use bench::harness::{best_of, median, num, obj, quick, secs, tmp_dir, Lcg, Report};
use rave_math::Vec3;
use rave_scene::{
    AuditEntry, AuditTrail, MeshData, NodeId, NodeKind, SceneTree, SceneUpdate, StampedUpdate,
    Transform,
};
use rave_store::wal::Wal;
use rave_store::{CheckpointKind, Store, StoreConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const UPDATES: u64 = 10_000;

/// A session of `n` updates: node adds followed by transform churn, the
/// shape a collaborative editing session actually has.
fn session(n: u64) -> (SceneTree, Vec<AuditEntry>) {
    let mut tree = SceneTree::new();
    let mut entries = Vec::with_capacity(n as usize);
    let mut nodes = Vec::new();
    for seq in 1..=n {
        let update = if seq <= n / 4 || nodes.is_empty() {
            let id = tree.allocate_id();
            nodes.push(id);
            SceneUpdate::AddNode {
                id,
                parent: tree.root(),
                name: format!("n{seq}"),
                kind: NodeKind::Group,
            }
        } else {
            let id = nodes[(seq as usize * 7919) % nodes.len()];
            SceneUpdate::SetTransform {
                id,
                transform: rave_scene::Transform::from_translation(rave_math::Vec3::new(
                    seq as f32, 0.0, 0.0,
                )),
            }
        };
        update.apply(&mut tree).unwrap();
        entries.push(AuditEntry {
            at_secs: seq as f64 * 0.1,
            stamped: StampedUpdate { seq, origin: "bench".into(), update },
        });
    }
    (tree, entries)
}

fn wal_write(dir: &PathBuf, entries: &[AuditEntry]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let (mut wal, _) = Wal::open(dir, 8 << 20, false).unwrap();
    for e in entries {
        wal.append(e).unwrap();
    }
    wal.sync().unwrap();
}

fn wal_replay(dir: &Path) -> SceneTree {
    let rec = rave_store::recover(dir).unwrap();
    assert_eq!(rec.last_seq, UPDATES);
    rec.tree
}

fn jsonl_write(path: &PathBuf, trail: &AuditTrail) {
    let f = std::fs::File::create(path).unwrap();
    trail.save(std::io::BufWriter::new(f)).unwrap();
}

fn jsonl_replay(path: &PathBuf) -> SceneTree {
    let f = std::fs::File::open(path).unwrap();
    let trail = AuditTrail::load(std::io::BufReader::new(f)).unwrap();
    trail.replay_all().unwrap()
}

fn dir_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir).unwrap().map(|d| d.unwrap().metadata().unwrap().len()).sum()
}

/// A mesh of `tris` copies of one triangle (the benchmark's tiny mesh).
fn tiny_mesh(tris: u64) -> NodeKind {
    let corners = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
    NodeKind::Mesh(Arc::new(MeshData::new(corners, vec![[0, 1, 2]; tris as usize])))
}

/// Median wall seconds of a full checkpoint and of a delta one on the
/// `edit_storm` shape: 500 tiny meshes, then one 256-update window of
/// 192 transforms and 64 cost-changing replacements. Each sample opens a
/// fresh store, so the first checkpoint is the full one and the second
/// extends it.
fn checkpoint_pair(samples: usize) -> (f64, f64) {
    let mut rng = Lcg(7);
    let mut tree = SceneTree::new();
    let root = tree.root();
    let nodes: Vec<NodeId> = (0..500)
        .map(|i| tree.add_node(root, format!("mesh{i}"), tiny_mesh(rng.in_range(10, 400))).unwrap())
        .collect();
    tree.record_edits();
    let dir = tmp_dir("wal-checkpoint");
    let (mut full, mut delta) = (Vec::new(), Vec::new());
    let mut seq = 0;
    for _ in 0..samples {
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut window = |tree: &mut SceneTree, store: &mut Store, n: usize| {
            for k in 0..n {
                let id = nodes[rng.pick(nodes.len())];
                let update = if k % 4 == 3 {
                    SceneUpdate::ReplaceKind { id, kind: tiny_mesh(rng.in_range(10, 400)) }
                } else {
                    let at = Vec3::new(k as f32, 0.0, 1.0);
                    SceneUpdate::SetTransform { id, transform: Transform::from_translation(at) }
                };
                update.apply(tree).unwrap();
                seq += 1;
                let stamped = StampedUpdate { seq, origin: "bench".into(), update };
                store.append(&AuditEntry { at_secs: seq as f64, stamped }).unwrap();
            }
        };
        window(&mut tree, &mut store, 1);
        let mut report = None;
        full.push(secs(|| report = Some(store.checkpoint(&tree, 0.0).unwrap())));
        assert_eq!(report.take().unwrap().kind, CheckpointKind::Full);
        window(&mut tree, &mut store, 256);
        delta.push(secs(|| report = Some(store.checkpoint(&tree, 1.0).unwrap())));
        assert_eq!(report.unwrap().kind, CheckpointKind::Delta);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (median(&mut full), median(&mut delta))
}

fn main() {
    let (live, entries) = session(UPDATES);
    let mut trail = AuditTrail::new();
    for e in &entries {
        trail.record(e.at_secs, e.stamped.clone()).unwrap();
    }
    let wal_dir = tmp_dir("wal");
    let jsonl_path = tmp_dir("wal-jsonl").join("session.jsonl");

    // Headline numbers for BENCH_wal.json: best-of-N, both paths ending
    // in an identical reconstructed scene.
    let rounds = if quick() { 2 } else { 5 };
    let wal_append = best_of(rounds, || wal_write(&wal_dir, &entries));
    let jsonl_save = best_of(rounds, || jsonl_write(&jsonl_path, &trail));
    let wal_rep = best_of(rounds, || wal_replay(&wal_dir));
    let jsonl_rep = best_of(rounds, || jsonl_replay(&jsonl_path));
    assert_eq!(wal_replay(&wal_dir), live);
    assert_eq!(jsonl_replay(&jsonl_path).len(), live.len());
    let wal_bytes = dir_bytes(&wal_dir);
    let jsonl_bytes = std::fs::metadata(&jsonl_path).unwrap().len();
    let (full_secs, delta_secs) = checkpoint_pair(if quick() { 5 } else { 21 });

    Report::new("wal")
        .set("updates", UPDATES)
        .set(
            "wal",
            obj([
                ("append_secs", num(wal_append, 6)),
                ("replay_secs", num(wal_rep, 6)),
                ("bytes", wal_bytes.to_value()),
            ]),
        )
        .set(
            "jsonl",
            obj([
                ("save_secs", num(jsonl_save, 6)),
                ("replay_secs", num(jsonl_rep, 6)),
                ("bytes", jsonl_bytes.to_value()),
            ]),
        )
        .set(
            "checkpoint",
            obj([
                ("full_secs", num(full_secs, 6)),
                ("delta_secs", num(delta_secs, 6)),
                ("delta_over_full", num(delta_secs / full_secs, 3)),
            ]),
        )
        .set("replay_speedup", num(jsonl_rep / wal_rep, 2))
        .set("size_ratio", num(jsonl_bytes as f64 / wal_bytes as f64, 2))
        .write();

    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(jsonl_path.parent().unwrap());
}
