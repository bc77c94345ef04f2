//! The session store against the trail export: the rave-store binary WAL
//! versus the JSON-lines `AuditTrail::save`/`load`, on a 10k-update
//! session — append (write the whole session to disk) and replay (read
//! it back and rebuild the scene). Emits `BENCH_wal.json` at the repo
//! root with the measured times (`BENCH_QUICK=1` times fewer rounds).

use bench::harness::{best_of, num, obj, quick, tmp_dir, Report};
use rave_scene::{AuditEntry, AuditTrail, NodeKind, SceneTree, SceneUpdate, StampedUpdate};
use rave_store::wal::Wal;
use serde::Serialize;
use std::path::{Path, PathBuf};

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
        .set("replay_speedup", num(jsonl_rep / wal_rep, 2))
        .set("size_ratio", num(jsonl_bytes as f64 / wal_bytes as f64, 2))
        .write();

    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(jsonl_path.parent().unwrap());
}
