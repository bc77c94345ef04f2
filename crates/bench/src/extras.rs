//! Text-level measurements from §5.1 and §5.5 that have no table number,
//! plus the parallel-pipeline readout (engine speedup + cost-feedback
//! tile planning).

use crate::RunOpts;
use rave_core::capacity::CapacityReport;
use rave_core::sched::ThroughputTracker;
use rave_core::tiles::{plan_tiles, plan_tiles_with_feedback, render_tiled_frame};
use rave_core::world::RaveWorld;
use rave_core::{ClientId, RaveConfig, RenderServiceId};
use rave_math::{Vec3, Viewport};
use rave_models::{build_with_budget, PaperModel};
use rave_render::machine::PdaProfile;
use rave_render::{Framebuffer, OffscreenMode, Renderer};
use rave_scene::{CameraParams, MeshData, NodeCost, NodeKind, SceneTree};
use rave_sim::Simulation;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// §5.1's PDA import ablation and bandwidth arithmetic.
#[derive(Debug, Clone)]
pub struct PdaAblation {
    /// J2ME per-pixel import of one 200×200 frame (paper: "over two
    /// minutes").
    pub j2me_import_s: f64,
    /// C/C++ cast import of the same frame (paper: part of the ~0.2 s
    /// receive+blit, i.e. negligible next to the wire).
    pub cast_import_s: f64,
    /// Measured streaming fps at 200×200 (paper: ~5 fps ceiling).
    pub fps_200: f64,
    /// Measured streaming fps at 640×480 (paper: ~0.6 fps).
    pub fps_640: f64,
    /// Effective wireless goodput implied (paper: ≈580 kB/s).
    pub goodput_bytes_s: f64,
}

pub fn pda_ablation(_opts: &RunOpts) -> PdaAblation {
    let pda = PdaProfile::zaurus();
    let frame_200 = 200 * 200 * 3u64;
    let frame_640 = 640 * 480 * 3u64;
    let link = rave_net::LinkSpec::wireless_11mb(1.0);
    PdaAblation {
        j2me_import_s: pda.import_j2me(frame_200),
        cast_import_s: pda.import_cast(frame_200),
        fps_200: link.sustained_rate(frame_200),
        fps_640: link.sustained_rate(frame_640),
        goodput_bytes_s: link.goodput_bytes_per_sec(),
    }
}

pub fn render_pda(a: &PdaAblation) -> String {
    crate::render_table(
        "§5.1: PDA image import + wireless bandwidth — measured (paper)",
        &["Quantity", "Measured", "Paper"],
        &[
            vec![
                "J2ME per-pixel import, 200x200".into(),
                format!("{:.0} s", a.j2me_import_s),
                "over 2 minutes".into(),
            ],
            vec![
                "C/C++ cast import, 200x200".into(),
                format!("{:.4} s", a.cast_import_s),
                "~0 (receive-bound)".into(),
            ],
            vec![
                "wire-limited fps at 200x200".into(),
                format!("{:.1} fps", a.fps_200),
                "5 fps".into(),
            ],
            vec![
                "wire-limited fps at 640x480".into(),
                format!("{:.2} fps", a.fps_640),
                "0.6 fps".into(),
            ],
            vec![
                "wireless goodput".into(),
                format!("{:.0} kB/s", a.goodput_bytes_s / 1e3),
                "~580 kB/s".into(),
            ],
        ],
    )
}

/// §5.5's tile-update latency: time from a mouse drag (camera move) to
/// the remote tile arriving, on 100 Mbit ethernet.
#[derive(Debug, Clone)]
pub struct TileLatencyRow {
    pub model: PaperModel,
    pub polygons: u64,
    pub latency_s: f64,
    pub paper_s: Option<f64>,
}

pub fn tile_latency(_opts: &RunOpts) -> Vec<TileLatencyRow> {
    [
        (PaperModel::Galleon, Some(0.05)),
        (PaperModel::SkeletalHand, Some(0.3)),
        (PaperModel::Skeleton, None),
    ]
    .into_iter()
    .map(|(model, paper)| {
        let polygons = model.target_polygons();
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 56));
        let owner = sim.world.spawn_render_service("laptop");
        let helper = sim.world.spawn_render_service("desktop");
        // Capacity interrogation happens at session setup, before the
        // scene is replicated out — afterwards the big models leave the
        // helper no nominal headroom and `plan_tiles` would drop it.
        let cfg = sim.world.config.clone();
        let report = sim.world.render(helper).capacity_report(&cfg);
        // Count-exact placeholder content on both replicas.
        for rs in [owner, helper] {
            let mesh = MeshData {
                positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
                normals: vec![],
                colors: vec![],
                triangles: vec![[0, 1, 2]; polygons as usize],
                texture_bytes: 0,
            };
            let scene = &mut sim.world.render_mut(rs).scene;
            let root = scene.root();
            scene.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        }
        let viewport = Viewport::new(400, 300);
        let client = ClientId(1);
        let cam = CameraParams::default();
        sim.world.render_mut(owner).open_session(client, viewport, cam, OffscreenMode::Sequential);
        let plan = plan_tiles(&viewport, owner, &[report]);
        // The drag: a camera move followed by the remote tile round trip.
        let mut cam2 = cam;
        cam2.orbit(Vec3::ZERO, 0.1, 0.0);
        let t0 = sim.now();
        let result = render_tiled_frame(&mut sim, owner, client, &plan, cam2, &BTreeSet::new());
        TileLatencyRow {
            model,
            polygons,
            latency_s: (result.completed_at - t0).as_secs(),
            paper_s: paper,
        }
    })
    .collect()
}

pub fn render_tile_latency(rows: &[TileLatencyRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.name().to_string(),
                format!("{:.2} M", r.polygons as f64 / 1e6),
                format!("{:.3} s", r.latency_s),
                r.paper_s.map_or("-".into(), |p| format!("~{p} s")),
            ]
        })
        .collect();
    crate::render_table(
        "§5.5: mouse-drag -> remote-tile latency on 100Mb ethernet — measured (paper)",
        &["Model", "Polygons", "Drag->tile latency", "Paper"],
        &table_rows,
    )
}

/// The parallel-pipeline readout: binned-engine speedup over the serial
/// reference at several rayon thread counts, and how the cost-feedback
/// planner reshapes tile widths once per-tile throughput is observed.
#[derive(Debug, Clone)]
pub struct ParallelRenderReport {
    pub budget: u64,
    /// Serial immediate-mode reference, full 200x200 frame.
    pub baseline_secs: f64,
    /// (threads, binned-engine seconds) per thread count.
    pub engine: Vec<(usize, f64)>,
    /// (service label, cold-plan width, feedback-plan width).
    pub feedback_widths: Vec<(String, u32, u32)>,
}

pub fn parallel_render(opts: &RunOpts) -> ParallelRenderReport {
    let budget = if opts.quick { 5_500 } else { 50_000 };
    let mesh = build_with_budget(PaperModel::Galleon, budget);
    let mut tree = SceneTree::new();
    let root = tree.root();
    tree.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let b = tree.world_bounds(root);
    let cam = CameraParams::look_at(
        b.center() + Vec3::new(0.0, 0.2 * b.radius(), 2.0 * b.radius()),
        b.center(),
        Vec3::Y,
    );
    let renderer = Renderer::default();
    let mut fb = Framebuffer::new(200, 200);

    let best_of = |n: usize, f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let baseline_secs = best_of(3, &mut || {
        renderer.render_reference(&tree, &cam, &mut fb);
    });
    let engine = [1usize, 2, 4, 8]
        .into_iter()
        .map(|t| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().unwrap();
            let secs = best_of(3, &mut || {
                pool.install(|| renderer.render(&tree, &cam, &mut fb));
            });
            (t, secs)
        })
        .collect();

    // Cost-feedback demo: one helper observed rendering 4x faster than
    // the owner; the warm plan should hand it the wider strip.
    let vp = Viewport::new(200, 200);
    let owner = RenderServiceId(1);
    let helper = RenderServiceId(2);
    let report = CapacityReport {
        service: helper,
        host: "desktop".into(),
        polys_per_sec: 1e7,
        poly_headroom: 1 << 20,
        texture_headroom: 1 << 30,
        volume_hw: false,
        assigned: NodeCost::ZERO,
        rolling_fps: None,
    };
    let cold = plan_tiles(&vp, owner, std::slice::from_ref(&report));
    let mut tracker = ThroughputTracker::new();
    tracker.record(owner, 100_000, 1.0);
    tracker.record(helper, 400_000, 1.0);
    let warm = plan_tiles_with_feedback(&vp, owner, std::slice::from_ref(&report), &tracker);
    let width_of = |plan: &rave_core::tiles::TilePlan, svc: RenderServiceId| {
        plan.tiles.iter().find(|(_, s)| *s == svc).map_or(0, |(t, _)| t.width)
    };
    let feedback_widths = vec![
        ("owner (1x observed)".into(), width_of(&cold, owner), width_of(&warm, owner)),
        ("helper (4x observed)".into(), width_of(&cold, helper), width_of(&warm, helper)),
    ];

    ParallelRenderReport { budget, baseline_secs, engine, feedback_widths }
}

pub fn render_parallel_render(r: &ParallelRenderReport) -> String {
    let mut rows = vec![vec![
        "serial reference".into(),
        format!("{:.1} ms", r.baseline_secs * 1e3),
        "1.00x".into(),
    ]];
    for &(t, secs) in &r.engine {
        rows.push(vec![
            format!("binned engine, {t} thread{}", if t == 1 { "" } else { "s" }),
            format!("{:.1} ms", secs * 1e3),
            format!("{:.2}x", r.baseline_secs / secs),
        ]);
    }
    let mut out = crate::render_table(
        &format!("Parallel pipeline: 200x200 Galleon frame, {} triangles", r.budget),
        &["Engine", "Frame time", "Speedup"],
        &rows,
    );
    let feedback_rows: Vec<Vec<String>> = r
        .feedback_widths
        .iter()
        .map(|(label, cold, warm)| vec![label.clone(), format!("{cold} px"), format!("{warm} px")])
        .collect();
    out.push_str(&crate::render_table(
        "Cost-feedback tile planning: strip widths before/after observation",
        &["Service", "Cold plan", "Feedback plan"],
        &feedback_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pda_ablation_matches_paper_magnitudes() {
        let a = pda_ablation(&RunOpts::default());
        assert!(a.j2me_import_s > 120.0);
        assert!(a.cast_import_s < 0.05);
        assert!((4.0..6.0).contains(&a.fps_200));
        assert!((0.5..0.75).contains(&a.fps_640));
        assert!((500e3..650e3).contains(&a.goodput_bytes_s));
    }

    #[test]
    fn parallel_render_report_is_coherent() {
        let r = parallel_render(&RunOpts { quick: true, out_dir: "out" });
        assert_eq!(r.engine.len(), 4);
        assert!(r.baseline_secs > 0.0);
        for &(_, secs) in &r.engine {
            assert!(secs > 0.0);
        }
        // The binned engine (vertex cache, alloc-free clipping) beats the
        // immediate-mode reference even on one thread.
        assert!(
            r.engine[0].1 < r.baseline_secs,
            "binned 1t {} vs serial {}",
            r.engine[0].1,
            r.baseline_secs
        );
        // Feedback hands the 4x-observed helper a wider strip.
        let owner = &r.feedback_widths[0];
        let helper = &r.feedback_widths[1];
        assert!(helper.2 > helper.1, "helper widened: {helper:?}");
        assert!(owner.2 < owner.1, "owner narrowed: {owner:?}");
        assert_eq!(owner.2 + helper.2, 200, "feedback plan still covers the frame");
    }

    #[test]
    fn tile_latency_ordering_matches_paper() {
        let rows = tile_latency(&RunOpts::default());
        // Galleon fast (~tens of ms), hand slower (~0.2-0.4 s), skeleton
        // slowest.
        assert!(rows[0].latency_s < 0.1, "galleon {}", rows[0].latency_s);
        assert!((0.1..0.5).contains(&rows[1].latency_s), "hand {}", rows[1].latency_s);
        assert!(rows[2].latency_s > rows[1].latency_s);
    }
}
