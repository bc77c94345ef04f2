//! Ablation studies of the design choices DESIGN.md calls out.

use crate::RunOpts;
use rave_compress::adaptive::{select, EndpointSpeed};
use rave_core::bootstrap::marshal_comparison;
use rave_grid::{SoapCodec, SoapEnvelope, SoapValue};
use rave_math::{Vec3, Viewport};
use rave_models::{build_with_budget, PaperModel};
use rave_net::LinkSpec;
use rave_render::{Framebuffer, Renderer};
use rave_scene::{CameraParams, NodeKind, SceneTree};
use std::sync::Arc;

/// Ablation 1 (§4.3): SOAP vs raw binary sockets for bulk scene data —
/// the reason RAVE "backs off from SOAP" after discovery.
#[derive(Debug, Clone)]
pub struct SoapVsBinaryRow {
    pub payload_bytes: u64,
    pub soap_wire_bytes: u64,
    pub soap_total_s: f64,
    pub binary_total_s: f64,
    pub soap_penalty: f64,
}

pub fn soap_vs_binary(_opts: &RunOpts) -> Vec<SoapVsBinaryRow> {
    let codec = SoapCodec::default();
    let link = LinkSpec::ethernet_100mb();
    [1_000u64, 100_000, 1_000_000, 20_000_000]
        .into_iter()
        .map(|n| {
            let payload = vec![0u8; n as usize];
            let env = SoapEnvelope::new("data", "put").arg("blob", SoapValue::Bytes(payload));
            let soap_bytes = codec.wire_size(&env);
            // marshal + wire + demarshal.
            let soap_total =
                codec.marshal_time(&env).as_secs() * 2.0 + link.transfer_time(soap_bytes).as_secs();
            let binary_total = link.transfer_time(n + 7).as_secs();
            SoapVsBinaryRow {
                payload_bytes: n,
                soap_wire_bytes: soap_bytes,
                soap_total_s: soap_total,
                binary_total_s: binary_total,
                soap_penalty: soap_total / binary_total,
            }
        })
        .collect()
}

pub fn render_soap(rows: &[SoapVsBinaryRow]) -> String {
    let table_rows = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.3} MB", r.payload_bytes as f64 / 1e6),
                format!("{:.3} MB", r.soap_wire_bytes as f64 / 1e6),
                format!("{:.3} s", r.soap_total_s),
                format!("{:.4} s", r.binary_total_s),
                format!("{:.1}x", r.soap_penalty),
            ]
        })
        .collect::<Vec<_>>();
    crate::render_table(
        "Ablation: SOAP vs binary sockets for bulk transfer (100Mb ethernet)",
        &["Payload", "SOAP wire size", "SOAP total", "Binary total", "SOAP penalty"],
        &table_rows,
    )
}

/// Ablation 2 (§5.5): introspective vs direct scene marshalling — the
/// measured bootstrap bottleneck.
#[derive(Debug, Clone)]
pub struct MarshalRow {
    pub model: PaperModel,
    pub bytes: u64,
    pub introspective_s: f64,
    pub direct_s: f64,
    pub speedup: f64,
}

pub fn marshalling(opts: &RunOpts) -> Vec<MarshalRow> {
    [PaperModel::Galleon, PaperModel::Elle, PaperModel::SkeletalHand]
        .into_iter()
        .map(|model| {
            let mesh = build_with_budget(model, opts.budget(model));
            let mut scene = SceneTree::new();
            let root = scene.root();
            scene.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
            let (intro, direct, stats) = marshal_comparison(&scene);
            MarshalRow {
                model,
                bytes: stats.bytes,
                introspective_s: intro.as_secs(),
                direct_s: direct.as_secs(),
                speedup: intro.as_secs() / direct.as_secs().max(1e-12),
            }
        })
        .collect()
}

pub fn render_marshalling(rows: &[MarshalRow]) -> String {
    let table_rows = rows
        .iter()
        .map(|r| {
            vec![
                r.model.name().to_string(),
                format!("{:.1} MB", r.bytes as f64 / 1e6),
                format!("{:.2} s", r.introspective_s),
                format!("{:.3} s", r.direct_s),
                format!("{:.0}x", r.speedup),
            ]
        })
        .collect::<Vec<_>>();
    crate::render_table(
        "Ablation: introspective vs direct scene marshalling (the §5.5 bottleneck)",
        &["Model", "Payload", "Introspective", "Direct", "Direct speedup"],
        &table_rows,
    )
}

/// Ablation 3: tile-count sweep — how splitting the framebuffer across
/// more assistants trades render parallelism against per-tile transfer
/// overhead (owner on the laptop, helpers on clones of the tower).
#[derive(Debug, Clone)]
pub struct TileSweepRow {
    pub tiles: u32,
    pub frame_time_s: f64,
}

pub fn tile_sweep(_opts: &RunOpts) -> Vec<TileSweepRow> {
    use rave_render::{MachineProfile, OffscreenMode};
    let owner = MachineProfile::centrino_laptop();
    let helper = MachineProfile::xeon_tower();
    let link = LinkSpec::ethernet_100mb();
    let polygons = 2_800_000u64; // the skeleton
    let viewport = Viewport::new(400, 400);
    (1..=8)
        .map(|tiles| {
            let tile_px = (viewport.pixel_count() as u64) / tiles as u64;
            // Per-tile polygon work: every service still transforms all
            // vertices, but triangles outside its tile are rejected by the
            // (cheap) screen-bounds test before rasterization — modelled
            // as ~30% of full per-triangle cost for rejected triangles,
            // assuming roughly uniform screen distribution.
            let tile_polys = (polygons as f64 * (0.3 + 0.7 / tiles as f64)) as u64;
            // Owner renders its tile on-screen; helpers render theirs
            // off-screen and ship them; frame completes at the max.
            let owner_t = owner.onscreen_cost(tile_polys, tile_px).total();
            let helper_t = if tiles > 1 {
                helper.offscreen_cost(tile_polys, tile_px, OffscreenMode::Sequential).total()
                    + link.transfer_time(tile_px * 3).as_secs()
                    + link.transfer_time(128).as_secs()
            } else {
                0.0
            };
            TileSweepRow { tiles, frame_time_s: owner_t.max(helper_t) }
        })
        .collect()
}

pub fn render_tile_sweep(rows: &[TileSweepRow]) -> String {
    let table_rows = rows
        .iter()
        .map(|r| {
            vec![
                r.tiles.to_string(),
                format!("{:.1} ms", r.frame_time_s * 1e3),
                format!("{:.1} fps", 1.0 / r.frame_time_s),
            ]
        })
        .collect::<Vec<_>>();
    crate::render_table(
        "Ablation: tile-count sweep, 2.8M polygons at 400x400 (laptop owner + tower helpers)",
        &["Tiles", "Frame time", "fps"],
        &table_rows,
    )
}

/// Ablation 4 (§6 future work): compression codec selection across
/// signal qualities, on a real rendered frame.
#[derive(Debug, Clone)]
pub struct CompressionRow {
    pub signal: f64,
    pub codec: &'static str,
    pub bytes: u64,
    pub frame_time_s: f64,
    pub raw_time_s: f64,
}

pub fn compression(opts: &RunOpts) -> Vec<CompressionRow> {
    // A real frame pair from the galleon.
    let mesh = build_with_budget(PaperModel::Galleon, opts.budget(PaperModel::Galleon));
    let mut tree = SceneTree::new();
    let root = tree.root();
    tree.add_node(root, "m", NodeKind::Mesh(Arc::new(mesh))).unwrap();
    let b = tree.world_bounds(root);
    let cam0 = CameraParams::look_at(
        b.center() + Vec3::new(0.0, 0.2 * b.radius(), 2.0 * b.radius()),
        b.center(),
        Vec3::Y,
    );
    let mut cam1 = cam0;
    cam1.orbit(b.center(), 0.05, 0.0);
    let renderer = Renderer::default();
    let mut f0 = Framebuffer::new(200, 200);
    renderer.render(&tree, &cam0, &mut f0);
    let mut f1 = Framebuffer::new(200, 200);
    renderer.render(&tree, &cam1, &mut f1);
    let prev = f0.to_rgb_bytes();
    let cur = f1.to_rgb_bytes();

    [1.0, 0.5, 0.25, 0.1]
        .into_iter()
        .map(|signal| {
            let link = LinkSpec::wireless_11mb(signal);
            let choice = select(
                &cur,
                Some(&prev),
                &link,
                EndpointSpeed::workstation(),
                EndpointSpeed::pda(),
                true,
            );
            CompressionRow {
                signal,
                codec: choice.codec.name(),
                bytes: choice.encoded_bytes,
                frame_time_s: choice.total_time.as_secs(),
                raw_time_s: link.transfer_time(cur.len() as u64).as_secs(),
            }
        })
        .collect()
}

pub fn render_compression(rows: &[CompressionRow]) -> String {
    let table_rows = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.signal * 100.0),
                r.codec.to_string(),
                format!("{} B", r.bytes),
                format!("{:.0} ms", r.frame_time_s * 1e3),
                format!("{:.0} ms", r.raw_time_s * 1e3),
                format!("{:.1}x", r.raw_time_s / r.frame_time_s),
            ]
        })
        .collect::<Vec<_>>();
    crate::render_table(
        "Ablation (§6): adaptive compression under degrading wireless signal",
        &["Signal", "Chosen codec", "Frame bytes", "Frame time", "Raw time", "Gain"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOpts {
        RunOpts { quick: true, out_dir: "target/bench-test-out" }
    }

    #[test]
    fn soap_penalty_grows_with_payload() {
        let rows = soap_vs_binary(&opts());
        assert!(rows.last().unwrap().soap_penalty > rows[0].soap_penalty);
        assert!(rows.last().unwrap().soap_penalty > 2.0, "SOAP loses big for bulk");
        // Base64 blow-up visible on the wire.
        for r in &rows {
            assert!(r.soap_wire_bytes as f64 > r.payload_bytes as f64 * 4.0 / 3.0);
        }
    }

    #[test]
    fn direct_marshalling_wins_by_orders_of_magnitude() {
        let rows = marshalling(&opts());
        for r in &rows {
            assert!(r.speedup > 20.0, "{:?}", r);
        }
    }

    /// The quick marshalling rows, bit for bit: the payload counted and
    /// both prices of it. EXPERIMENTS' marshalling ablation quotes these.
    #[test]
    fn marshalling_rows_are_pinned() {
        let rows: Vec<(u64, u64, u64)> = marshalling(&opts())
            .iter()
            .map(|r| (r.bytes, r.introspective_s.to_bits(), r.direct_s.to_bits()))
            .collect();
        let want = [
            (74_013, 0x3fc5cf77a1f80cec, 0x3f6e50d3572a8940),
            (60_189, 0x3fc1bd9a29e25199, 0x3f68a7462a86bc47),
            (498_621, 0x3ff25a149914389c, 0x3f998786719ea8cd),
        ];
        assert_eq!(rows, want);
    }

    #[test]
    fn tile_sweep_has_sweet_spot() {
        let rows = tile_sweep(&opts());
        // More tiles help initially...
        assert!(rows[1].frame_time_s < rows[0].frame_time_s);
        // ...monotone non-increasing until transfer overheads flatten it.
        let best = rows.iter().map(|r| r.frame_time_s).fold(f64::INFINITY, f64::min);
        assert!(best < rows[0].frame_time_s * 0.7);
    }

    #[test]
    fn compression_gain_rises_as_signal_falls() {
        let rows = compression(&opts());
        let first_gain = rows[0].raw_time_s / rows[0].frame_time_s;
        let last_gain = rows.last().unwrap().raw_time_s / rows.last().unwrap().frame_time_s;
        assert!(last_gain >= first_gain);
        assert!(last_gain > 2.0, "weak signal must benefit from compression");
    }
}
