//! Framebuffer (tile) distribution (§3.2.5) and the Fig 5 tearing
//! scenario.
//!
//! "To distribute the framebuffer, the render service divides its target
//! frame buffer into tiles. A single tile is rendered locally, whilst the
//! remaining tiles are rendered remotely... The assisting render service
//! renders to an off-screen buffer, which it then forwards directly to
//! the requesting render service."
//!
//! The services of a plan draw at the same time here too: a frame first
//! decides, tile by tile, whether each service lends its retained tile
//! again or draws it, then draws every tile that must be drawn in one
//! parallel section ([`rave_render::section`]), and only then sends,
//! charges and stitches the tiles in plan order.

use crate::capacity::CapacityReport;
use crate::config::CompressionMode;
use crate::frame_stream::{self, Outgoing};
use crate::ids::{ClientId, RenderServiceId};
use crate::render_service::{FrameKey, RenderService, RenderSession, TileDraw};
use crate::sched::placement::rank_helpers;
use crate::sched::ThroughputTracker;
use crate::trace::TraceEvent;
use crate::world::RaveSim;
use rave_compress::adaptive::EndpointSpeed;
use rave_math::Viewport;
use rave_render::composite::stitch_tiles;
use rave_render::section::draw_at_once;
use rave_render::{Framebuffer, OffscreenMode};
use rave_scene::CameraParams;
use rave_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A tile assignment: who renders which rectangle of the target image.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePlan {
    pub tiles: Vec<(Viewport, RenderServiceId)>,
}

impl TilePlan {
    pub fn helpers(&self) -> BTreeSet<RenderServiceId> {
        self.tiles.iter().skip(1).map(|(_, rs)| *rs).collect()
    }
}

/// Order helpers strongest-first, dropping those that can contribute
/// nothing: zero advertised headroom, or beyond what the viewport can
/// give a ≥1px strip (one column per participant is the floor). The
/// ranking itself is the scheduler's shared participant-selection
/// primitive; the owner always keeps a strip, so at most `width - 1`
/// helpers fit.
fn usable_helpers<'a>(
    viewport: &Viewport,
    helpers: &'a [CapacityReport],
) -> Vec<&'a CapacityReport> {
    rank_helpers(helpers, viewport.width.saturating_sub(1) as usize)
}

/// Split `viewport` into one tile per participant. The owner takes the
/// first tile; helpers are ordered most-capacity-first so the largest
/// remainder tiles go to the strongest assistants.
///
/// Degenerate inputs degrade to fewer (never zero-width) tiles: helpers
/// advertising zero capacity are dropped, and a viewport narrower than
/// the participant count keeps only the strongest helpers that can still
/// get a ≥1px strip.
pub fn plan_tiles(
    viewport: &Viewport,
    owner: RenderServiceId,
    helpers: &[CapacityReport],
) -> TilePlan {
    let ordered = usable_helpers(viewport, helpers);
    let n = ordered.len() as u32 + 1;
    // Vertical strips: exactly one tile per participant, covering every
    // pixel exactly once (Fig 5 shows precisely this side-by-side split).
    let cells = viewport.split_tiles(n, 1);
    let mut tiles = Vec::with_capacity(n as usize);
    for (i, cell) in cells.into_iter().enumerate() {
        let svc = if i == 0 { owner } else { ordered[i - 1].service };
        tiles.push((cell, svc));
    }
    TilePlan { tiles }
}

/// Like [`plan_tiles`], but strip widths follow *measured* throughput
/// (in [`rave_render::raster::RasterStats::cost_units`] per second) from
/// `tracker` where available: a helper that advertised a big GPU but
/// delivers tiles slowly shrinks, a quietly fast one grows. This is the
/// §3.2.5 feedback loop closed: advertised capacity seeds the plan, but
/// the split converges on what each service *actually* delivers.
/// Services never observed get the mean observed throughput (neutral
/// weight); with no observations at all this is exactly [`plan_tiles`].
pub fn plan_tiles_with_feedback(
    viewport: &Viewport,
    owner: RenderServiceId,
    helpers: &[CapacityReport],
    tracker: &ThroughputTracker,
) -> TilePlan {
    let ordered = usable_helpers(viewport, helpers);
    if tracker.observed_services() == 0 || viewport.width == 0 {
        return plan_tiles(viewport, owner, helpers);
    }
    let participants: Vec<RenderServiceId> =
        std::iter::once(owner).chain(ordered.iter().map(|r| r.service)).collect();
    // Integer weights normalized to the fastest observed service; the
    // 1-unit floor keeps never-observed stragglers in the plan.
    let weights = tracker.split_weights(&participants);
    let cells = viewport.split_columns_weighted(&weights);
    TilePlan { tiles: cells.into_iter().zip(participants).collect() }
}

/// Measured cost of one tile in a distributed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCost {
    pub service: RenderServiceId,
    /// Work performed, in `RasterStats::cost_units` (measured from real
    /// rasterization when images are produced, else the machine-model
    /// proxy `pixels + 8·polygons`).
    pub cost_units: u64,
    /// Machine-model render seconds for the tile (excludes network).
    pub render_seconds: f64,
    /// False for stale tiles reused from a previous frame — they carry
    /// no fresh measurement.
    pub fresh: bool,
}

/// Result of one distributed tiled frame.
#[derive(Debug)]
pub struct TiledFrameResult {
    /// When every tile (fresh or stale) was in place.
    pub completed_at: SimTime,
    /// Arrival time per tile, parallel to the plan.
    pub tile_arrivals: Vec<SimTime>,
    /// The stitched image (only when the world renders images).
    pub image: Option<Framebuffer>,
    /// Whether any stale tile was used (tearing possible).
    pub used_stale_tile: bool,
    /// Per-tile measured cost, parallel to the plan — the feedback signal
    /// for [`ThroughputTracker`].
    pub tile_costs: Vec<TileCost>,
}

/// The stitched image of a session's tiled frames, kept by the owner's
/// session from one frame to the next, and what each tile of it holds.
#[derive(Debug, Clone)]
pub(crate) struct Composite {
    image: Framebuffer,
    /// Parallel to the plan the image was stitched under: each tile's
    /// rectangle and what the pixels now in it are a render of
    /// ([`RenderSession::rendered_key`] of the session they were copied
    /// from) — `None` when that is not known, and the tile is copied again.
    tiles: Vec<(Viewport, Option<FrameKey>)>,
}

impl Composite {
    /// Where `client`'s session on `owner` keeps its composite.
    fn slot(sim: &mut RaveSim, owner: RenderServiceId, client: ClientId) -> &mut Option<Composite> {
        let session = sim.world.render_mut(owner).sessions.get_mut(&client);
        &mut session.expect("owner session").composite
    }

    /// The kept composite while it is of `viewport`'s size and `plan`'s
    /// rectangles, else a blank one: pixels no tile of the plan covers are
    /// what a fresh target has there.
    fn for_plan(kept: Option<Composite>, viewport: &Viewport, plan: &TilePlan) -> Composite {
        let rectangles = || plan.tiles.iter().map(|(vp, _)| *vp);
        kept.filter(|c| {
            (c.image.width(), c.image.height()) == (viewport.width, viewport.height)
                && c.tiles.iter().map(|(vp, _)| *vp).eq(rectangles())
        })
        .unwrap_or_else(|| Composite {
            image: Framebuffer::new(viewport.width, viewport.height),
            tiles: rectangles().map(|vp| (vp, None)).collect(),
        })
    }
}

/// Feed one frame's measured tile costs into `tracker` and trace the
/// updated picture. Stale tiles are skipped (nothing was rendered). The
/// same observations also land in the world's scheduler-level tracker,
/// where the `CostDrift` rebalance trigger reads them.
pub fn record_tile_costs(
    sim: &mut RaveSim,
    result: &TiledFrameResult,
    tracker: &mut ThroughputTracker,
) {
    let mut rates = Vec::new();
    for tc in &result.tile_costs {
        if !tc.fresh {
            continue;
        }
        tracker.record(tc.service, tc.cost_units, tc.render_seconds);
        sim.world.sched.throughput.record(tc.service, tc.cost_units, tc.render_seconds);
        rates.push((tc.service, tracker.throughput(tc.service).unwrap_or(0.0)));
    }
    if !rates.is_empty() {
        sim.world.trace.record(result.completed_at, TraceEvent::TileCosts { rates });
    }
}

/// Render one frame of `client`'s session on `owner` under `plan`,
/// "continuously stream... best effort" semantics:
///
/// - the owner renders its own tile on-screen;
/// - each helper renders its tile off-screen *with the camera it
///   currently knows* and ships it back;
/// - helpers in `stalled` do not respond this frame, so the owner reuses
///   the tile they last delivered (stale camera, stale scene ⇒ the Fig 5
///   tear). The paper produced its figure "by artificially stalling the
///   remote render service" — `stalled` is that injection point.
///
/// Camera propagation: non-stalled helpers receive `camera` with the
/// request; stalled ones keep their session camera unchanged.
///
/// Every service renders its tile into its session's retained
/// `last_frame` ([`RenderService::rasterize_session_tile`]) and the stitch
/// reads the tiles from there, so a plan names each service once and,
/// while it stays the same, a frame allocates no tile buffer — and a
/// service whose scene and camera have not moved since its last tile
/// lends that tile again instead of drawing it.
///
/// Lend or draw is decided once per tile, first; the tiles to draw are
/// then drawn at the same time, in one parallel section that shares the
/// threads equally (`draw_tiles`). A frame that draws
/// nothing starts no section, and one that draws one tile draws it with
/// every thread. Requests, transfers, costs and the stitch follow in plan
/// order; the virtual clock charges each tile its own service's render
/// time, as for assistants that each draw on their own machine.
///
/// The stitched image stays in the owner's session, and a frame copies
/// into it only the tiles that are a render of something else than what
/// it holds of them (a tile rendered outside a session is always copied;
/// a plan with other rectangles, or a viewport of another size, starts
/// from a blank image). `image` shares that image's planes
/// ([`Framebuffer`] is copy-on-write): a frame in which no tile was
/// redrawn copies nothing, and a caller still holding an earlier `image`
/// when a tile is next copied keeps its pixels — that copy pays for a
/// whole-image one first, which is what dropping the image before asking
/// for the next frame saves.
///
/// [`RenderService::rasterize_session_tile`]: crate::render_service::RenderService::rasterize_session_tile
pub fn render_tiled_frame(
    sim: &mut RaveSim,
    owner: RenderServiceId,
    client: ClientId,
    plan: &TilePlan,
    camera: CameraParams,
    stalled: &BTreeSet<RenderServiceId>,
) -> TiledFrameResult {
    let t0 = sim.now();
    let produce_images = sim.world.config.produce_images;
    let adaptive = matches!(sim.world.config.frame_compression, CompressionMode::Adaptive);
    let owner_host = sim.world.render(owner).host.clone();
    let full_viewport = {
        let rs = sim.world.render_mut(owner);
        let session = rs.sessions.get_mut(&client).expect("owner session");
        session.camera = camera;
        session.viewport
    };
    debug_assert_eq!(
        plan.tiles.iter().map(|(_, svc)| *svc).collect::<BTreeSet<_>>().len(),
        plan.tiles.len(),
        "one tile per service"
    );

    // Lend or draw, decided once per tile, before anything is sent: the
    // owner and every helper that answers take the camera and lend their
    // retained tile again when nothing it depends on moved; the tiles that
    // must be drawn are drawn together.
    let mut draws = Vec::new();
    for (tile_vp, svc) in &plan.tiles {
        if *svc != owner && stalled.contains(svc) {
            continue;
        }
        let rs = sim.world.render_mut(*svc);
        if *svc != owner {
            let entry = rs.sessions.entry(client).or_insert_with(|| {
                RenderSession::new(client, *tile_vp, camera, OffscreenMode::Sequential)
            });
            entry.camera = camera;
            entry.viewport = *tile_vp;
        }
        if produce_images {
            let draw = rs.lend_session_tile(client, &camera, &full_viewport, tile_vp);
            draws.extend(draw.map(|draw| (*svc, draw)));
        }
    }
    draw_tiles(sim, draws);
    // What a drawn or lent tile measured.
    let measured = |sim: &RaveSim, svc: RenderServiceId| {
        let (_, stats) = sim.world.render(svc).session_tile(client).expect("tile drawn or lent");
        stats.raster.cost_units()
    };

    let mut tile_arrivals = Vec::with_capacity(plan.tiles.len());
    // Parallel to the plan: a tile rendered outside its service's retained
    // buffer (a stalled helper with no delivered tile to reuse).
    let mut rendered_aside: Vec<Option<Framebuffer>> = Vec::with_capacity(plan.tiles.len());
    let mut tile_costs = Vec::with_capacity(plan.tiles.len());
    let mut used_stale = false;

    for (tile_vp, svc) in &plan.tiles {
        let pixels = tile_vp.pixel_count() as u64;
        if *svc == owner {
            // Local tile, on-screen path.
            let polys = sim.world.render(owner).assigned_cost().polygons;
            let cost = sim.world.render(owner).machine.onscreen_cost(polys, pixels);
            let done = t0 + SimTime::from_secs(cost.total());
            tile_arrivals.push(done);
            // Machine-model proxy when pixel work is skipped.
            let units = if produce_images { measured(sim, owner) } else { pixels + 8 * polys };
            rendered_aside.push(None);
            tile_costs.push(TileCost {
                service: owner,
                cost_units: units,
                render_seconds: cost.total(),
                fresh: true,
            });
            continue;
        }
        let helper_host = sim.world.render(*svc).host.clone();
        if stalled.contains(svc) {
            // No response this frame: the tile the helper last delivered
            // is still here, and is the stale tile. Only a helper that
            // never delivered this tile (first frame, changed plan) is
            // rendered for, with the camera it last heard of.
            used_stale = true;
            tile_arrivals.push(t0);
            let helper = sim.world.render(*svc);
            let session = helper.sessions.get(&client);
            let delivered = session.is_some_and(|s| {
                let size = s.last_frame.as_ref().map(|fb| (fb.width(), fb.height()));
                s.viewport == *tile_vp && size == Some((tile_vp.width, tile_vp.height))
            });
            rendered_aside.push((produce_images && !delivered).then(|| {
                let stale_camera = session.map_or(camera, |s| s.camera);
                helper.rasterize_tile_with_stats(&stale_camera, &full_viewport, tile_vp).0
            }));
            tile_costs.push(TileCost {
                service: *svc,
                cost_units: 0,
                render_seconds: 0.0,
                fresh: false,
            });
            continue;
        }
        // Fresh helper tile: request → off-screen render → tile transfer.
        let req_arrives = sim.world.send_bytes(t0, &owner_host, &helper_host, 128);
        let polys = sim.world.render(*svc).assigned_cost().polygons;
        let cost =
            sim.world.render(*svc).machine.offscreen_cost(polys, pixels, OffscreenMode::Sequential);
        let rendered = req_arrives + SimTime::from_secs(cost.total());
        // Tile return: raw 24 bpp, or the compressed stream when the
        // world has real pixels to encode. Always lossless — the tile is
        // stitched into a composite that must match a monolithic render.
        let units = if produce_images { measured(sim, *svc) } else { pixels + 8 * polys };
        let arrival = if produce_images && adaptive {
            // The stream reads the tile from the helper's session, and
            // sends one it already holds as a header.
            let out = frame_stream::send_frame(
                &mut sim.world,
                rendered,
                *svc,
                client,
                &helper_host,
                &owner_host,
                Outgoing::Session,
                EndpointSpeed::workstation(),
                EndpointSpeed::workstation(),
                false,
            );
            // The owner decodes before it can stitch.
            out.arrival + SimTime::from_secs(out.decode_secs)
        } else {
            sim.world.send_bytes(rendered, &helper_host, &owner_host, pixels * 3)
        };
        tile_arrivals.push(arrival);
        rendered_aside.push(None);
        tile_costs.push(TileCost {
            service: *svc,
            cost_units: units,
            render_seconds: cost.total(),
            fresh: true,
        });
    }

    let completed_at = tile_arrivals.iter().copied().fold(t0, SimTime::max);
    let image = produce_images.then(|| {
        let kept = Composite::slot(sim, owner, client).take();
        let mut composite = Composite::for_plan(kept, &full_viewport, plan);
        let mut moved: Vec<(Viewport, &Framebuffer)> = Vec::new();
        for (((vp, svc), aside), (_, held)) in
            plan.tiles.iter().zip(&rendered_aside).zip(&mut composite.tiles)
        {
            let (tile, key) = match aside {
                Some(tile) => (tile, None),
                None => {
                    let session = sim.world.render(*svc).sessions.get(&client);
                    let session = session.expect("tile rendered or kept");
                    (
                        session.last_frame.as_ref().expect("tile rendered or kept"),
                        session.rendered_key(),
                    )
                }
            };
            // (A key with a NaN in it equals nothing, itself included.)
            if key.is_none() || held.as_ref() != key {
                moved.push((*vp, tile));
                *held = key.cloned();
            }
        }
        stitch_tiles(&mut composite.image, &moved);
        let image = composite.image.clone();
        *Composite::slot(sim, owner, client) = Some(composite);
        image
    });
    let row = TraceEvent::TiledFrame { client, owner, tiles: plan.tiles.len(), stale: used_stale };
    sim.world.trace.record(completed_at, row);
    TiledFrameResult { completed_at, tile_arrivals, image, used_stale_tile: used_stale, tile_costs }
}

/// Draw the tiles their services could not lend, at the same time, as the
/// assisting services of §3.2.5 do: one draw keeps every thread, two or
/// more share them in one section ([`rave_render::section::draw_at_once`],
/// in plan order). A tile's pixels, depths and statistics do not depend on
/// the threads it was drawn with.
fn draw_tiles(sim: &mut RaveSim, draws: Vec<(RenderServiceId, TileDraw)>) {
    if draws.len() <= 1 {
        for (svc, draw) in draws {
            sim.world.render_mut(svc).draw_session_tile(draw);
        }
        return;
    }
    // The world's map hands out the services' disjoint borrows; each draw
    // takes its own service's by id, once.
    let mut services: BTreeMap<RenderServiceId, &mut RenderService> = sim
        .world
        .render_services
        .iter_mut()
        .filter(|(id, _)| draws.iter().any(|(svc, _)| svc == *id))
        .map(|(id, rs)| (*id, rs))
        .collect();
    let jobs: Vec<(&mut RenderService, TileDraw)> = draws
        .into_iter()
        .map(|(svc, draw)| (services.remove(&svc).expect("one draw per service"), draw))
        .collect();
    draw_at_once(jobs, |(rs, draw)| rs.draw_session_tile(draw));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::rebalance::{process_events, SchedEvent};
    use crate::trace::TraceKind;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{MeshData, NodeCost, NodeKind};
    use rave_sim::Simulation;
    use std::sync::Arc;

    fn report(id: RenderServiceId, headroom: u64) -> CapacityReport {
        CapacityReport {
            service: id,
            host: "x".into(),
            polys_per_sec: 1e7,
            poly_headroom: headroom,
            texture_headroom: u64::MAX,
            volume_hw: false,
            assigned: NodeCost::ZERO,
            rolling_fps: None,
        }
    }

    #[test]
    fn plan_covers_viewport_once() {
        let vp = Viewport::new(400, 400);
        let plan = plan_tiles(
            &vp,
            RenderServiceId(1),
            &[report(RenderServiceId(2), 100), report(RenderServiceId(3), 500)],
        );
        assert_eq!(plan.tiles.len(), 3);
        let total: usize = plan.tiles.iter().map(|(t, _)| t.pixel_count()).sum();
        assert_eq!(total, vp.pixel_count());
        // Owner gets the first tile.
        assert_eq!(plan.tiles[0].1, RenderServiceId(1));
        // Strongest helper ordered first.
        assert_eq!(plan.tiles[1].1, RenderServiceId(3));
    }

    #[test]
    fn plan_with_no_helpers_is_single_tile() {
        let vp = Viewport::new(100, 100);
        let plan = plan_tiles(&vp, RenderServiceId(1), &[]);
        assert_eq!(plan.tiles.len(), 1);
        assert_eq!(plan.tiles[0].0, vp);
    }

    fn assert_no_degenerate_tiles(vp: &Viewport, plan: &TilePlan) {
        let total: usize = plan.tiles.iter().map(|(t, _)| t.pixel_count()).sum();
        assert_eq!(total, vp.pixel_count(), "plan covers viewport");
        assert!(plan.tiles.iter().all(|(t, _)| t.width > 0), "no zero-width tiles");
    }

    #[test]
    fn zero_capacity_helpers_are_dropped() {
        let vp = Viewport::new(300, 200);
        let plan = plan_tiles(
            &vp,
            RenderServiceId(1),
            &[report(RenderServiceId(2), 0), report(RenderServiceId(3), 50)],
        );
        // The dead helper gets no tile; the live one still assists.
        assert_eq!(plan.tiles.len(), 2);
        assert_eq!(plan.tiles[1].1, RenderServiceId(3));
        assert_no_degenerate_tiles(&vp, &plan);

        let all_dead = plan_tiles(
            &vp,
            RenderServiceId(1),
            &[report(RenderServiceId(2), 0), report(RenderServiceId(3), 0)],
        );
        assert_eq!(all_dead.tiles.len(), 1, "owner renders alone");
        assert_no_degenerate_tiles(&vp, &all_dead);
    }

    #[test]
    fn narrow_viewport_keeps_strongest_helpers_only() {
        // 3 pixels wide, 5 participants: owner + 2 strongest helpers fit.
        let vp = Viewport::new(3, 64);
        let helpers: Vec<_> = (2..=5).map(|i| report(RenderServiceId(i), i * 10)).collect();
        let plan = plan_tiles(&vp, RenderServiceId(1), &helpers);
        assert_eq!(plan.tiles.len(), 3);
        assert_eq!(plan.tiles[0].1, RenderServiceId(1));
        assert_eq!(plan.tiles[1].1, RenderServiceId(5));
        assert_eq!(plan.tiles[2].1, RenderServiceId(4));
        assert_no_degenerate_tiles(&vp, &plan);
    }

    #[test]
    fn feedback_plan_reweights_toward_fast_services() {
        let vp = Viewport::new(400, 300);
        let owner = RenderServiceId(1);
        let helpers = [report(RenderServiceId(2), 100), report(RenderServiceId(3), 100)];

        let mut tracker = ThroughputTracker::new();
        // No observations: identical to the capacity plan.
        let cold = plan_tiles_with_feedback(&vp, owner, &helpers, &tracker);
        assert_eq!(cold, plan_tiles(&vp, owner, &helpers));

        // Helper 3 demonstrably renders 4x faster than everyone else.
        tracker.record(owner, 10_000, 1.0);
        tracker.record(RenderServiceId(2), 10_000, 1.0);
        tracker.record(RenderServiceId(3), 40_000, 1.0);
        let warm = plan_tiles_with_feedback(&vp, owner, &helpers, &tracker);
        assert_no_degenerate_tiles(&vp, &warm);
        let width_of = |plan: &TilePlan, svc: RenderServiceId| {
            plan.tiles.iter().find(|(_, s)| *s == svc).map(|(t, _)| t.width).unwrap()
        };
        assert!(
            width_of(&warm, RenderServiceId(3)) > 2 * width_of(&warm, RenderServiceId(2)),
            "observed-fast helper gets a much wider strip: {warm:?}"
        );
    }

    #[test]
    fn tracker_ewma_converges_and_ignores_zero_durations() {
        let mut tracker = ThroughputTracker::new();
        let svc = RenderServiceId(7);
        tracker.record(svc, 1000, 0.0); // stale tile: no measurement
        assert!(tracker.throughput(svc).is_none());
        tracker.record(svc, 1000, 1.0);
        assert_eq!(tracker.throughput(svc).unwrap(), 1000.0);
        for _ in 0..40 {
            tracker.record(svc, 4000, 1.0);
        }
        let rate = tracker.throughput(svc).unwrap();
        assert!((rate - 4000.0).abs() < 10.0, "EWMA converged: {rate}");
    }

    fn tiled_world() -> (RaveSim, RenderServiceId, RenderServiceId, ClientId) {
        let cfg = RaveConfig { produce_images: true, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 5));
        let owner = sim.world.spawn_render_service("laptop");
        let helper = sim.world.spawn_render_service("tower");
        // Both replicas hold the same small scene (a triangle strip).
        let mesh = MeshData::new(
            vec![Vec3::new(-1.5, -1.0, 0.0), Vec3::new(1.5, -1.0, 0.0), Vec3::new(0.0, 1.5, 0.0)],
            vec![[0, 1, 2]],
        );
        for rs in [owner, helper] {
            let scene = &mut sim.world.render_mut(rs).scene;
            let root = scene.root();
            scene
                .insert_with_id(
                    rave_scene::NodeId(1),
                    root,
                    "tri",
                    NodeKind::Mesh(Arc::new(mesh.clone())),
                )
                .unwrap();
        }
        let client = sim.world.spawn_thin_client("zaurus");
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        sim.world.render_mut(owner).open_session(
            client,
            Viewport::new(64, 64),
            cam,
            OffscreenMode::Sequential,
        );
        (sim, owner, helper, client)
    }

    #[test]
    fn tiled_render_matches_monolithic_image() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let result = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let tiled = result.image.unwrap();
        // Monolithic reference.
        let mono = sim.world.render_mut(owner).rasterize(client).unwrap().clone();
        assert_eq!(mono.diff_fraction(&tiled, 0.0), 0.0, "tiling is invisible");
        assert!(!result.used_stale_tile);
    }

    #[test]
    fn stalled_helper_with_moved_camera_tears() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam0 = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        // Frame 1: everyone in sync.
        render_tiled_frame(&mut sim, owner, client, &plan, cam0, &BTreeSet::new());
        // Frame 2: camera moved, helper stalled.
        let mut cam1 = cam0;
        cam1.orbit(Vec3::ZERO, 0.35, 0.0);
        let stalled: BTreeSet<_> = [helper].into_iter().collect();
        let torn =
            render_tiled_frame(&mut sim, owner, client, &plan, cam1, &stalled).image.unwrap();
        assert!(sim.world.trace.render().contains("stale=true"));
        // Reference run in a fresh world: helper not stalled.
        let (mut sim2, o2, h2, c2) = tiled_world();
        let plan2 = plan_tiles(&Viewport::new(64, 64), o2, &[report(h2, 100)]);
        render_tiled_frame(&mut sim2, o2, c2, &plan2, cam0, &BTreeSet::new());
        let clean =
            render_tiled_frame(&mut sim2, o2, c2, &plan2, cam1, &BTreeSet::new()).image.unwrap();
        assert!(
            torn.diff_fraction(&clean, 0.0) > 0.0,
            "stale tile produces a visibly different (torn) image"
        );
    }

    /// A helper that does not answer cannot have drawn anything new: its
    /// stale tile is the one it delivered, not a render of what its scene
    /// has become since.
    #[test]
    fn stale_tile_is_the_tile_that_was_delivered() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let (helper_tile, _) = plan.tiles[1];
        let first = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let delivered = first.image.unwrap().crop(helper_tile);

        // The scene moves on (both replicas), then the helper stalls.
        for rs in [owner, helper] {
            let moved = rave_scene::Transform::from_translation(Vec3::new(0.0, 0.6, 0.0));
            sim.world.render_mut(rs).scene.set_transform(rave_scene::NodeId(1), moved);
        }
        let stalled: BTreeSet<_> = [helper].into_iter().collect();
        let second = render_tiled_frame(&mut sim, owner, client, &plan, cam, &stalled);
        assert!(second.used_stale_tile);
        let image = second.image.unwrap();
        assert_eq!(image.crop(helper_tile), delivered, "the stale tile is last frame's tile");
        // The owner's tile is fresh, and what the helper would draw now is
        // not what was stitched in.
        let (owner_tile, _) = plan.tiles[0];
        let fresh = |rs: RenderServiceId, tile: &Viewport| {
            sim.world.render(rs).rasterize_tile_with_stats(&cam, &Viewport::new(64, 64), tile).0
        };
        assert_eq!(image.crop(owner_tile), fresh(owner, &owner_tile));
        assert_ne!(delivered, fresh(helper, &helper_tile), "the edit shows on the helper's tile");
    }

    /// A helper stalled before it ever delivered this tile has nothing to
    /// reuse: its tile is rendered with the camera it last heard of (the
    /// requested one when it has no session at all).
    #[test]
    fn helper_stalled_on_its_first_frame_is_rendered_for() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let stalled: BTreeSet<_> = [helper].into_iter().collect();
        let result = render_tiled_frame(&mut sim, owner, client, &plan, cam, &stalled);
        assert!(result.used_stale_tile);
        let mono = sim.world.render_mut(owner).rasterize(client).unwrap().clone();
        assert_eq!(result.image.unwrap(), mono);
        assert!(!sim.world.render(helper).sessions.contains_key(&client), "nothing was asked");
    }

    /// After a session's first tiled frame no tile buffer is allocated:
    /// owner and helper render into the ones they hold, a stalled frame
    /// leaves the helper's alone.
    #[test]
    fn tile_buffers_are_retained_across_frames() {
        let (mut sim, owner, helper, client) = tiled_world();
        let mut cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let buffers = |sim: &RaveSim| {
            [owner, helper].map(|rs| {
                let fb = sim.world.render(rs).sessions[&client].last_frame.as_ref().unwrap();
                (fb.color_pixels().as_ptr(), fb.depth_pixels().as_ptr(), fb.width(), fb.height())
            })
        };
        render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let first = buffers(&sim);
        assert_eq!((first[0].2, first[1].2), (plan.tiles[0].0.width, plan.tiles[1].0.width));
        let stalled: BTreeSet<_> = [helper].into_iter().collect();
        for stall in [false, true, false] {
            cam.orbit(Vec3::ZERO, 0.2, 0.0);
            let stalled = if stall { stalled.clone() } else { BTreeSet::new() };
            let result = render_tiled_frame(&mut sim, owner, client, &plan, cam, &stalled);
            assert_eq!(buffers(&sim), first, "same allocations, stall={stall}");
            if !stall {
                let mono = {
                    let rs = sim.world.render(owner);
                    let mut fb = Framebuffer::new(64, 64);
                    rs.renderer.render_reference(&rs.scene, &cam, &mut fb);
                    fb
                };
                assert_eq!(result.image.unwrap(), mono, "reused buffers hold no old pixels");
            }
        }
    }

    fn frame_counts(sim: &RaveSim, rs: RenderServiceId, client: ClientId) -> (u64, u64) {
        let s = &sim.world.render(rs).sessions[&client];
        (s.frames_drawn, s.frames_reused)
    }

    /// On a camera that stands still the second frame draws nothing: every
    /// service lends its tile again, and the costs the feedback planner
    /// reads are the ones the skipped renders would have measured.
    #[test]
    fn a_still_camera_reuses_every_tile_and_reports_the_same_costs() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let first = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let second = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        for rs in [owner, helper] {
            assert_eq!(frame_counts(&sim, rs, client), (1, 1), "{rs}: one draw, one reuse");
        }
        // `render_seconds`, the virtual clock's charge, among them.
        assert_eq!(second.tile_costs, first.tile_costs);
        let measured = |tc: &TileCost| tc.fresh && tc.cost_units > 0 && tc.render_seconds > 0.0;
        assert!(second.tile_costs.iter().all(measured));
        assert_eq!(second.image, first.image);

        // A scene edit on one replica: that service draws, the other lends.
        let moved = rave_scene::Transform::from_translation(Vec3::new(0.0, 0.3, 0.0));
        sim.world.render_mut(helper).scene.set_transform(rave_scene::NodeId(1), moved);
        render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        assert_eq!(frame_counts(&sim, owner, client), (1, 2));
        assert_eq!(frame_counts(&sim, helper, client), (2, 1));
    }

    /// Figure 5's three frames — in sync, camera dragged with the helper
    /// stalled, healed — are what they were before frames were lent again:
    /// the torn frame is the owner's new view beside the tile the helper
    /// delivered for the old one, and the healed frame redraws only the
    /// helper's tile (the owner's camera did not move again).
    #[test]
    fn fig5_sequence_is_unchanged_by_frame_reuse() {
        let (mut sim, owner, helper, client) = tiled_world();
        let full = Viewport::new(64, 64);
        let cam0 = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let mut cam1 = cam0;
        cam1.orbit(Vec3::ZERO, 0.35, 0.0);
        let plan = plan_tiles(&full, owner, &[report(helper, 100)]);
        let ((owner_tile, _), (helper_tile, _)) = (plan.tiles[0], plan.tiles[1]);
        let reference =
            |sim: &RaveSim, rs: RenderServiceId, cam: &CameraParams, tile: &Viewport| {
                let rs = sim.world.render(rs);
                let mut fb = Framebuffer::new(tile.width, tile.height);
                rs.renderer.render_tile_reference(&rs.scene, cam, &full, tile, &mut fb);
                fb
            };
        let stalled: BTreeSet<_> = [helper].into_iter().collect();

        let clean = render_tiled_frame(&mut sim, owner, client, &plan, cam0, &BTreeSet::new());
        let torn = render_tiled_frame(&mut sim, owner, client, &plan, cam1, &stalled);
        let healed = render_tiled_frame(&mut sim, owner, client, &plan, cam1, &BTreeSet::new());

        let clean = clean.image.unwrap();
        assert_eq!(clean.crop(owner_tile), reference(&sim, owner, &cam0, &owner_tile));
        assert_eq!(clean.crop(helper_tile), reference(&sim, helper, &cam0, &helper_tile));
        let torn = torn.image.unwrap();
        assert_eq!(torn.crop(owner_tile), reference(&sim, owner, &cam1, &owner_tile));
        assert_eq!(torn.crop(helper_tile), reference(&sim, helper, &cam0, &helper_tile));
        let healed = healed.image.unwrap();
        assert_eq!(healed.crop(owner_tile), reference(&sim, owner, &cam1, &owner_tile));
        assert_eq!(healed.crop(helper_tile), reference(&sim, helper, &cam1, &helper_tile));
        assert_eq!(frame_counts(&sim, owner, client), (2, 1));
        assert_eq!(frame_counts(&sim, helper, client), (2, 0), "a stalled helper renders nothing");
    }

    #[test]
    fn compressed_tile_return_stays_bit_exact_and_shrinks_static_frames() {
        let (mut sim, owner, helper, client) = tiled_world();
        sim.world.config.frame_compression = CompressionMode::Adaptive;
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let r1 = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let tiled = r1.image.unwrap();
        let mono = sim.world.render_mut(owner).rasterize(client).unwrap().clone();
        assert_eq!(mono.diff_fraction(&tiled, 0.0), 0.0, "compressed tiling is invisible");

        // Frame 2, camera unchanged: the helper tile is byte-identical, so
        // the dirty-strip container ships almost nothing.
        let before = sim.world.frame_cache.stats(helper, client).unwrap();
        let r2 = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        let after = sim.world.frame_cache.stats(helper, client).unwrap();
        assert_eq!(after.frames, before.frames + 1);
        let frame2_bytes = after.encoded_bytes - before.encoded_bytes;
        assert!(frame2_bytes < 64, "static tile resend cost {frame2_bytes} bytes");
        assert_eq!(r2.image.unwrap().diff_fraction(&mono, 0.0), 0.0);
    }

    #[test]
    fn a_failed_helper_takes_its_tile_stream_with_it() {
        let (mut sim, owner, helper, client) = tiled_world();
        sim.world.config.frame_compression = CompressionMode::Adaptive;
        let other = sim.world.spawn_render_service("onyx");
        let scene = sim.world.render(helper).scene.clone();
        sim.world.render_mut(other).scene = scene;
        let ds = sim.world.spawn_data_service("adrenochrome", "wall");
        for rs in [owner, helper, other] {
            sim.world.data_mut(ds).subscribe_live(rs, rave_scene::InterestSet::subtrees([]));
        }
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan =
            plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100), report(other, 100)]);
        render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        // The owner's own stream, on to its thin client.
        let stream = crate::frame_stream::FrameChannel::new(0.3, 30);
        sim.world.frame_cache.insert(owner, client, stream);
        assert_eq!(sim.world.frame_cache.len(), 3);

        let failure = SchedEvent::Failure { service: helper };
        process_events(&mut sim, ds, &[failure]);
        assert!(sim.world.frame_cache.stats(helper, client).is_none(), "dead helper's stream");
        assert_eq!(sim.world.frame_cache.len(), 2);
        assert_eq!(sim.world.frame_cache.stats(other, client).unwrap().frames, 1);
        assert!(sim.world.frame_cache.get(owner, client).is_some());
    }

    #[test]
    fn helper_tiles_cost_network_time() {
        let (mut sim, owner, helper, client) = tiled_world();
        sim.world.config.produce_images = false;
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let result = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        assert!(result.image.is_none());
        // Helper tile arrives after the local one (network round trip).
        assert!(result.tile_arrivals[1] > result.tile_arrivals[0]);
        assert_eq!(result.completed_at, result.tile_arrivals[1]);
    }

    #[test]
    fn frame_costs_feed_tracker_and_trace() {
        let (mut sim, owner, helper, client) = tiled_world();
        let cam = CameraParams::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, Vec3::Y);
        let plan = plan_tiles(&Viewport::new(64, 64), owner, &[report(helper, 100)]);
        let result = render_tiled_frame(&mut sim, owner, client, &plan, cam, &BTreeSet::new());
        assert_eq!(result.tile_costs.len(), 2);
        assert!(result.tile_costs.iter().all(|tc| tc.fresh && tc.render_seconds > 0.0));

        let mut tracker = ThroughputTracker::new();
        record_tile_costs(&mut sim, &result, &mut tracker);
        assert!(tracker.throughput(owner).is_some());
        assert!(tracker.throughput(helper).is_some());
        assert_eq!(sim.world.trace.count(TraceKind::TileCostFeedback), 1);

        // A stalled helper's stale tile carries no fresh measurement.
        let stalled: BTreeSet<_> = [helper].into_iter().collect();
        let r2 = render_tiled_frame(&mut sim, owner, client, &plan, cam, &stalled);
        assert!(!r2.tile_costs[1].fresh);
        let before = tracker.throughput(helper).unwrap();
        record_tile_costs(&mut sim, &r2, &mut tracker);
        assert_eq!(tracker.throughput(helper).unwrap(), before);
    }
}
