//! What the JSON-writing benches share: stopwatches, a seeded generator,
//! thread pools, scratch directories, the one `BENCH_QUICK` switch, and
//! the [`Report`] that writes `BENCH_<name>.json` with a `host` block
//! saying what machine, compiler and commit produced the numbers. The
//! floors those numbers are held to live in `floors.json`, read by
//! `cargo run -p bench --bin check`.

use rave_math::Vec3;
use rave_models::{build_with_budget, PaperModel};
use rave_net::{LinkSpec, Network};
use rave_scene::{CameraParams, NodeKind, SceneTree};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// `BENCH_QUICK=1`: the CI smoke run — fewer rounds and smaller grids,
/// same JSON shape, same floors.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Wall seconds of one call of `f`.
pub fn secs<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Best-of-`rounds` wall seconds of `f`: steady-state and cache-warm.
pub fn best_of<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..rounds).map(|_| secs(&mut f)).fold(f64::INFINITY, f64::min)
}

/// Median of a stream of equivalent events' timings: robust against a
/// stray preemption landing on one of them, where a mean would let one
/// 50 ms hiccup bury a 0.2 ms steady state.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    samples[samples.len() / 2]
}

/// Seeded generator, so every run of a bench builds the same inputs.
pub struct Lcg(pub u64);

impl Lcg {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    pub fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds")
}

/// An empty scratch directory of this process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rave-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
    dir
}

/// One paper model under the root, and a camera that frames it.
pub fn staged(model: PaperModel, budget: u64) -> (SceneTree, CameraParams) {
    let mesh = build_with_budget(model, budget);
    let mut tree = SceneTree::new();
    let root = tree.root();
    tree.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let b = tree.world_bounds(root);
    let cam = CameraParams::look_at(
        b.center() + Vec3::new(0.0, 0.2 * b.radius(), 2.0 * b.radius()),
        b.center(),
        Vec3::Y,
    );
    (tree, cam)
}

/// A 2004-vintage machine room scaled up: `segments` switched 100 Mbit
/// LANs (`seg<s>`), `hosts_per_segment` hosts each (`host<s>x<h>`), full
/// inter-segment bridging.
pub fn machine_room(segments: usize, hosts_per_segment: usize) -> Network {
    let mut net = Network::new();
    net.set_default_inter_link(LinkSpec::ethernet_100mb());
    for s in 0..segments {
        let seg = format!("seg{s}");
        net.add_segment(&seg, LinkSpec::ethernet_100mb());
        for h in 0..hosts_per_segment {
            net.add_host(&format!("host{s}x{h}"), &seg);
        }
    }
    net
}

/// The repository root, where the `BENCH_*.json` files are committed.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A JSON object with its keys in the order given.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `x` rounded to `decimals` places, so the file reads like a table
/// (non-finite values print as `null`).
pub fn num(x: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::F64((x * scale).round() / scale)
}

/// First line of a command's stdout, `"unknown"` when it cannot run.
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One bench's results: `bench`, the `host` block, then every key in the
/// order it was set.
pub struct Report {
    name: String,
    fields: Vec<(String, Value)>,
}

impl Report {
    /// A report that will be written to `BENCH_<name>.json`.
    pub fn new(name: &str) -> Self {
        let host = obj([
            ("cores", std::thread::available_parallelism().map_or(1, |n| n.get()).to_value()),
            ("rustc", first_line("rustc", &["--version"]).to_value()),
            ("commit", first_line("git", &["describe", "--always", "--dirty"]).to_value()),
            ("quick", quick().to_value()),
        ]);
        let fields = vec![("bench".to_string(), name.to_value()), ("host".to_string(), host)];
        Self { name: name.to_string(), fields }
    }

    pub fn set(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        self.fields.push((key.to_string(), value.to_value()));
        self
    }

    /// Write `BENCH_<name>.json` into `dir` and echo it.
    pub fn write_to(&self, dir: &Path) -> PathBuf {
        let dest = dir.join(format!("BENCH_{}.json", self.name));
        let mut out = serde_json::to_string_pretty(&Value::Map(self.fields.clone()))
            .expect("a Value always prints");
        out.push('\n');
        std::fs::write(&dest, &out).expect("report file is writable");
        println!("{out}wrote {}", dest.display());
        dest
    }

    /// Write `BENCH_<name>.json` at the repository root.
    pub fn write(&self) -> PathBuf {
        self.write_to(&repo_root())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_file_parses_back_with_host_block_and_stable_key_order() {
        let dir = tmp_dir("report");
        let mut report = Report::new("unit");
        report.set("zeta", 3u64).set("alpha", num(1.23456, 2));
        report.set("configs", vec![obj([("nodes", 10u64.to_value()), ("ms", num(0.5, 3))])]);
        let path = report.write_to(&dir);
        assert_eq!(path.file_name().unwrap(), "BENCH_unit.json");

        let text = std::fs::read_to_string(&path).unwrap();
        let Value::Map(fields) = serde_json::from_str::<Value>(&text).unwrap() else {
            panic!("report is a JSON object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "host", "zeta", "alpha", "configs"], "insertion order kept");
        assert_eq!(fields[0].1, Value::Str("unit".into()));
        assert_eq!(fields[3].1, Value::F64(1.23));
        let Value::Map(host) = &fields[1].1 else { panic!("host is an object") };
        let host_keys: Vec<&str> = host.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(host_keys, ["cores", "rustc", "commit", "quick"]);
        assert!(matches!(host[0].1, Value::U64(n) if n >= 1));
        assert_eq!(host[3].1, Value::Bool(quick()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
