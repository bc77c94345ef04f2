//! The render service (§3.1.2).
//!
//! Holds a local scene replica, renders on- or off-screen for any number
//! of sessions, advertises its capacity, and tracks its own load. "If
//! multiple users view the same session, then a single copy of the data
//! are stored in the render service to save resources" — sessions share
//! `scene`.

use crate::capacity::CapacityReport;
use crate::config::RaveConfig;
use crate::ids::{ClientId, RenderServiceId};
use rave_math::Viewport;
use rave_render::{Framebuffer, MachineProfile, OffscreenMode, RenderCost, RenderStats, Renderer};
use rave_scene::{CameraParams, EditStamp, InterestSet, NodeCost, NodeId, SceneTree};
use rave_sim::{Occupancy, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Frames in the rolling fps window.
pub const FPS_WINDOW: usize = 10;

/// Everything the pixels, depths and statistics of a session's frame are a
/// function of. Compared with plain `==`: a NaN in the camera or the style
/// never equals itself, and such a frame is drawn every time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FrameKey {
    scene: EditStamp,
    camera: CameraParams,
    full_viewport: Viewport,
    tile: Viewport,
    renderer: Renderer,
}

/// One client's rendering session on a render service.
#[derive(Debug, Clone)]
pub struct RenderSession {
    pub client: ClientId,
    pub viewport: Viewport,
    pub camera: CameraParams,
    pub mode: OffscreenMode,
    /// Frames [`RenderService::rasterize_session_tile`] rendered for this
    /// session, and frames it handed out again because nothing the picture
    /// depends on had moved since the last one.
    pub frames_drawn: u64,
    pub frames_reused: u64,
    /// Last rendered image — the whole frame, or the session's tile of a
    /// distributed one — kept for delta compression, stale-tile reuse and
    /// frame reuse, and rendered into again by the next frame of the same
    /// size. Read it freely; nothing outside this module may write it: the
    /// session lends it back as the next frame while its record of what it
    /// holds matches the request, and only a change of size would show.
    pub last_frame: Option<Framebuffer>,
    /// What `last_frame` is a render of, and the statistics that render
    /// returned; `None` when it holds no finished render.
    rendered: Option<(FrameKey, RenderStats)>,
    /// The stitched image of this session's tiled frames, when it is the
    /// owner of some ([`crate::tiles::render_tiled_frame`]).
    pub(crate) composite: Option<crate::tiles::Composite>,
}

impl RenderSession {
    pub fn new(
        client: ClientId,
        viewport: Viewport,
        camera: CameraParams,
        mode: OffscreenMode,
    ) -> Self {
        Self {
            client,
            viewport,
            camera,
            mode,
            frames_drawn: 0,
            frames_reused: 0,
            last_frame: None,
            rendered: None,
            composite: None,
        }
    }

    /// What `last_frame` is a finished render of, when it is one.
    pub(crate) fn rendered_key(&self) -> Option<&FrameKey> {
        self.rendered.as_ref().map(|(key, _)| key)
    }

    /// The retained buffer to render a `width`×`height` image into: the
    /// previous frame's when it has that size, else a fresh one that
    /// replaces it. A session that keeps its size allocates once.
    fn frame_buffer(&mut self, width: u32, height: u32) -> &mut Framebuffer {
        let fb = self
            .last_frame
            .take()
            .filter(|fb| (fb.width(), fb.height()) == (width, height))
            .unwrap_or_else(|| Framebuffer::new(width, height));
        self.last_frame.insert(fb)
    }
}

/// A render service instance.
#[derive(Debug, Clone)]
pub struct RenderService {
    pub id: RenderServiceId,
    pub host: String,
    pub machine: MachineProfile,
    /// Local replica of (the subscribed subset of) the session scene.
    pub scene: SceneTree,
    pub interest: InterestSet,
    pub sessions: BTreeMap<ClientId, RenderSession>,
    pub renderer: Renderer,
    /// Frame completion times for the rolling fps window.
    frame_times: VecDeque<SimTime>,
    /// Set when the replica is still bootstrapping (scene not yet live).
    pub bootstrapping: bool,
    /// Whether this instance can render off-screen. An *active render
    /// client* (§3.1.2) "can only render to the screen and does not
    /// support off-screen rendering" because it has no service container.
    pub offscreen_capable: bool,
    /// The render hardware's occupancy timeline: one off-screen frame at
    /// a time, queued back-to-back. Pipelined streams queue the render of
    /// frame N+1 behind frame N here while N's encode/transmit proceeds
    /// on other resources.
    pub gpu: Occupancy,
    /// The frame-encoder CPU's occupancy timeline (distinct from the
    /// GPU, so encoding frame N never blocks rendering N+1).
    pub encoder: Occupancy,
}

impl RenderService {
    pub fn new(id: RenderServiceId, host: &str, machine: MachineProfile) -> Self {
        Self {
            id,
            host: host.into(),
            machine,
            scene: SceneTree::new(),
            interest: InterestSet::everything(),
            sessions: BTreeMap::new(),
            renderer: Renderer::default(),
            frame_times: VecDeque::new(),
            bootstrapping: false,
            offscreen_capable: true,
            gpu: Occupancy::new(),
            encoder: Occupancy::new(),
        }
    }

    /// An active render client: same engine, no off-screen service.
    pub fn active_client(id: RenderServiceId, host: &str, machine: MachineProfile) -> Self {
        Self { offscreen_capable: false, ..Self::new(id, host, machine) }
    }

    pub fn open_session(
        &mut self,
        client: ClientId,
        viewport: Viewport,
        camera: CameraParams,
        mode: OffscreenMode,
    ) {
        self.sessions.insert(client, RenderSession::new(client, viewport, camera, mode));
    }

    pub fn close_session(&mut self, client: ClientId) -> bool {
        self.sessions.remove(&client).is_some()
    }

    /// Cost of the content this service currently holds.
    pub fn assigned_cost(&self) -> NodeCost {
        self.scene.total_cost()
    }

    /// The cost model's render time for one off-screen frame of the
    /// current scene at `client`'s session settings. The polygon count
    /// charged is the *replica's* content (what the service must process);
    /// frustum culling savings are deliberately not credited, matching the
    /// paper's worst-case framing ("views were arranged to have the
    /// maximum possible number of visible polygons").
    pub fn offscreen_render_cost(&self, client: ClientId) -> Option<RenderCost> {
        if !self.offscreen_capable {
            return None;
        }
        let session = self.sessions.get(&client)?;
        let cost = self.assigned_cost();
        Some(self.machine.offscreen_cost(
            cost.polygons,
            session.viewport.pixel_count() as u64,
            session.mode,
        ))
    }

    /// On-screen render time for a local console session.
    pub fn onscreen_render_cost(&self, client: ClientId) -> Option<RenderCost> {
        let session = self.sessions.get(&client)?;
        let cost = self.assigned_cost();
        Some(self.machine.onscreen_cost(cost.polygons, session.viewport.pixel_count() as u64))
    }

    /// Actually rasterize a session's frame (figure generation). Separate
    /// from the cost model so timing experiments can skip pixel work.
    ///
    /// The whole frame is the one tile of itself: everything
    /// [`RenderService::rasterize_session_tile`] says holds.
    pub fn rasterize(&mut self, client: ClientId) -> Option<&Framebuffer> {
        let session = self.sessions.get(&client)?;
        let camera = session.camera;
        let whole = Viewport::new(session.viewport.width, session.viewport.height);
        self.rasterize_session_tile(client, &camera, &whole, &whole).map(|(fb, _)| fb)
    }

    /// Rasterize one tile of a session's image (framebuffer
    /// distribution), with the render statistics, whose
    /// [`rave_render::raster::RasterStats::cost_units`] is the
    /// measured-cost signal for feedback tile planning.
    pub fn rasterize_tile_with_stats(
        &self,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> (Framebuffer, RenderStats) {
        let mut fb = Framebuffer::new(tile.width, tile.height);
        let stats = self.renderer.render_tile(&self.scene, camera, full_viewport, tile, &mut fb);
        (fb, stats)
    }

    /// [`RenderService::rasterize_tile_with_stats`] for a tile that belongs
    /// to `client`'s session — the one way a session's frame is rendered.
    /// `None` without such a session.
    ///
    /// The tile is rendered into the session's retained `last_frame`
    /// (replaced when the size changed) and lent back from there, so a
    /// service that renders the same tile frame after frame allocates it
    /// once, and the tile it last delivered stays at hand.
    ///
    /// A frame pays for what changed since the last one: when the scene
    /// ([`SceneTree::edit_stamp`]), the camera, both rectangles and the
    /// renderer's style are what the retained frame was rendered from,
    /// that frame and its statistics — the ones the render would produce
    /// again — are handed out as they are. A best-effort stream
    /// (§5.1) asks for many such frames. Anything else draws.
    pub fn rasterize_session_tile(
        &mut self,
        client: ClientId,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> Option<(&Framebuffer, RenderStats)> {
        let session = self.sessions.get_mut(&client)?;
        let request = FrameKey {
            scene: self.scene.edit_stamp(),
            camera: *camera,
            full_viewport: *full_viewport,
            tile: *tile,
            renderer: self.renderer.clone(),
        };
        let sized = session
            .last_frame
            .as_ref()
            .is_some_and(|fb| (fb.width(), fb.height()) == (tile.width, tile.height));
        let stats = match &session.rendered {
            Some((key, stats)) if sized && *key == request => {
                session.frames_reused += 1;
                *stats
            }
            _ => {
                // No record while the buffer is being drawn into.
                session.rendered = None;
                let fb = session.frame_buffer(tile.width, tile.height);
                let stats = self.renderer.render_tile(&self.scene, camera, full_viewport, tile, fb);
                session.rendered = Some((request, stats));
                session.frames_drawn += 1;
                stats
            }
        };
        Some((session.last_frame.as_ref()?, stats))
    }

    /// Queue one off-screen render on the GPU timeline: it starts no
    /// earlier than `ready` (the frame's request arrival) and no earlier
    /// than the previous queued render's completion. Returns the render's
    /// `(start, done)` window.
    pub fn queue_render(&mut self, ready: SimTime, render_secs: f64) -> (SimTime, SimTime) {
        self.gpu.acquire(ready, render_secs)
    }

    /// Record a frame completion for load tracking; the system's frame
    /// loops pass [`FPS_WINDOW`].
    pub fn record_frame(&mut self, at: SimTime, window: usize) {
        self.frame_times.push_back(at);
        while self.frame_times.len() > window {
            self.frame_times.pop_front();
        }
    }

    /// Rolling fps over the recorded window.
    pub fn rolling_fps(&self) -> Option<f64> {
        if self.frame_times.len() < 2 {
            return None;
        }
        let span =
            (*self.frame_times.back().unwrap() - *self.frame_times.front().unwrap()).as_secs();
        if span <= 0.0 {
            return None;
        }
        Some((self.frame_times.len() - 1) as f64 / span)
    }

    /// Polygons a frame can hold while this service sustains `target_fps`,
    /// at the pixel count of its largest open session (400×400 when idle).
    pub fn poly_budget(&self, target_fps: f64) -> u64 {
        let pixels = self.sessions.values().map(|s| s.viewport.pixel_count() as u64).max();
        self.machine.poly_budget_at_fps(target_fps, pixels.unwrap_or(160_000))
    }

    /// The subtree roots this service holds: the root's children for a
    /// full replica, its interest roots otherwise.
    pub fn held_roots(&self) -> Vec<NodeId> {
        if self.interest.is_everything() {
            let root = self.scene.node(self.scene.root());
            root.map(|root| root.children().collect()).unwrap_or_default()
        } else {
            self.interest.roots().collect()
        }
    }

    /// Answer a capacity interrogation (§3.2.5).
    pub fn capacity_report(&self, config: &RaveConfig) -> CapacityReport {
        let assigned = self.assigned_cost();
        let fillable = (self.poly_budget(config.target_fps) as f64 * config.fill_factor) as u64;
        CapacityReport {
            service: self.id,
            host: self.host.clone(),
            polys_per_sec: self.machine.poly_rate,
            poly_headroom: fillable.saturating_sub(assigned.polygons),
            texture_headroom: self.machine.texture_memory.saturating_sub(assigned.texture_bytes),
            volume_hw: self.machine.volume_hw,
            assigned,
            rolling_fps: self.rolling_fps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rave_math::Vec3;
    use rave_scene::{MeshData, NodeKind, Transform};
    use std::sync::Arc;

    fn service_with_polys(n: u64) -> RenderService {
        let mut rs =
            RenderService::new(RenderServiceId(1), "laptop", MachineProfile::centrino_laptop());
        let mesh = MeshData {
            positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; n as usize],
            texture_bytes: 0,
        };
        rs.scene.add_node(rs.scene.root(), "content", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        rs
    }

    #[test]
    fn sessions_share_one_scene_copy() {
        let mut rs = service_with_polys(100);
        rs.open_session(
            ClientId(1),
            Viewport::new(200, 200),
            CameraParams::default(),
            OffscreenMode::Sequential,
        );
        rs.open_session(
            ClientId(2),
            Viewport::new(100, 100),
            CameraParams::default(),
            OffscreenMode::Sequential,
        );
        assert_eq!(rs.sessions.len(), 2);
        // One scene; cost counted once.
        assert_eq!(rs.assigned_cost().polygons, 100);
    }

    #[test]
    fn active_client_refuses_offscreen() {
        let mut rs = RenderService::active_client(
            RenderServiceId(2),
            "desktop",
            MachineProfile::athlon_desktop(),
        );
        rs.open_session(
            ClientId(1),
            Viewport::new(200, 200),
            CameraParams::default(),
            OffscreenMode::Sequential,
        );
        assert!(rs.offscreen_render_cost(ClientId(1)).is_none());
        assert!(rs.onscreen_render_cost(ClientId(1)).is_some());
    }

    #[test]
    fn render_cost_scales_with_scene() {
        let mut small = service_with_polys(1_000);
        let mut big = service_with_polys(1_000_000);
        for rs in [&mut small, &mut big] {
            rs.open_session(
                ClientId(1),
                Viewport::new(200, 200),
                CameraParams::default(),
                OffscreenMode::Sequential,
            );
        }
        let ts = small.offscreen_render_cost(ClientId(1)).unwrap().total();
        let tb = big.offscreen_render_cost(ClientId(1)).unwrap().total();
        assert!(tb > ts * 5.0);
    }

    #[test]
    fn rolling_fps_reflects_frame_times() {
        let mut rs = service_with_polys(10);
        rs.open_session(
            ClientId(1),
            Viewport::new(64, 64),
            CameraParams::default(),
            OffscreenMode::Sequential,
        );
        for i in 0..10 {
            rs.record_frame(SimTime::from_secs(i as f64 * 0.1), 10);
        }
        let fps = rs.rolling_fps().unwrap();
        assert!((fps - 10.0).abs() < 0.5, "fps {fps}");
    }

    #[test]
    fn fps_window_slides() {
        let mut rs = service_with_polys(10);
        // Slow frames then fast frames: window forgets the slow past.
        for i in 0..5 {
            rs.record_frame(SimTime::from_secs(i as f64), 5);
        }
        for i in 0..5 {
            rs.record_frame(SimTime::from_secs(5.0 + i as f64 * 0.01), 5);
        }
        assert!(rs.rolling_fps().unwrap() > 50.0);
    }

    #[test]
    fn capacity_shrinks_with_assignment() {
        let empty = service_with_polys(0);
        let loaded = service_with_polys(300_000);
        let cfg = RaveConfig::default();
        let h0 = empty.capacity_report(&cfg).poly_headroom;
        let h1 = loaded.capacity_report(&cfg).poly_headroom;
        assert!(h0 > h1);
        assert_eq!(h0 - h1, 300_000);
    }

    #[test]
    fn rasterize_produces_image_and_caches_last_frame() {
        let mut rs = service_with_polys(1);
        rs.open_session(
            ClientId(1),
            Viewport::new(32, 32),
            CameraParams::look_at(Vec3::new(0.3, 0.3, 3.0), Vec3::new(0.3, 0.3, 0.0), Vec3::Y),
            OffscreenMode::Sequential,
        );
        let background = rs.renderer.background;
        let fb = rs.rasterize(ClientId(1)).unwrap();
        assert!(fb.coverage(background) > 0);
        let bytes = fb.to_rgb_bytes();
        let kept = rs.sessions[&ClientId(1)].last_frame.as_ref().expect("frame retained");
        assert_eq!(bytes, kept.to_rgb_bytes(), "the lent frame is the retained one");
    }

    #[test]
    fn rasterize_reuses_the_frame_until_the_viewport_changes() {
        let mut rs = service_with_polys(1);
        let camera =
            CameraParams::look_at(Vec3::new(0.3, 0.3, 3.0), Vec3::new(0.3, 0.3, 0.0), Vec3::Y);
        let client = ClientId(1);
        rs.open_session(client, Viewport::new(32, 32), camera, OffscreenMode::Sequential);
        // What a fresh buffer gets for a camera and size: the oracle.
        let fresh = |rs: &RenderService, vp: Viewport, camera: &CameraParams| {
            let mut fb = Framebuffer::new(vp.width, vp.height);
            rs.renderer.render_reference(&rs.scene, camera, &mut fb);
            fb
        };

        let first = rs.rasterize(client).unwrap().clone();
        assert_eq!(first, fresh(&rs, Viewport::new(32, 32), &camera));

        // Same size, the triangle moved out of view: the reused buffer
        // must not keep the previous frame's pixels or depths.
        let away =
            CameraParams::look_at(Vec3::new(50.0, 0.0, 3.0), Vec3::new(50.0, 0.0, 0.0), Vec3::Y);
        rs.sessions.get_mut(&client).unwrap().camera = away;
        let second = rs.rasterize(client).unwrap().clone();
        assert_eq!(second.coverage(rs.renderer.background), 0, "no stale pixels");
        assert_eq!(second, fresh(&rs, Viewport::new(32, 32), &away));

        // New size: a frame of that size, again equal to a fresh render.
        let session = rs.sessions.get_mut(&client).unwrap();
        session.viewport = Viewport::new(48, 20);
        session.camera = camera;
        let third = rs.rasterize(client).unwrap().clone();
        assert_eq!((third.width(), third.height()), (48, 20));
        assert_eq!(third, fresh(&rs, Viewport::new(48, 20), &camera));
    }

    // ---- frame reuse ---------------------------------------------------

    const CLIENT: ClientId = ClientId(1);
    const FULL: Viewport = Viewport { x: 0, y: 0, width: 48, height: 32 };
    const TILE: Viewport = Viewport { x: 16, y: 0, width: 20, height: 32 };

    fn camera() -> CameraParams {
        CameraParams::look_at(Vec3::new(0.2, 0.1, 4.0), Vec3::ZERO, Vec3::Y)
    }

    fn avatar(label: &str) -> rave_scene::AvatarInfo {
        rave_scene::AvatarInfo { label: label.into(), color: Vec3::X, camera: camera() }
    }

    /// A service whose scene has a node of every kind an update can
    /// target — ids 1 (mesh), 2 (group), 3 (camera), 4 (avatar) — and an
    /// open session for [`CLIENT`].
    fn reuse_service() -> RenderService {
        let mut rs = service_with_polys(0);
        let root = rs.scene.root();
        let mesh = MeshData::new(
            vec![Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            vec![[0, 1, 2]],
        );
        rs.scene.remove(NodeId(1)).unwrap();
        for (id, name, kind) in [
            (1, "mesh", NodeKind::Mesh(Arc::new(mesh))),
            (2, "group", NodeKind::Group),
            (3, "camera", NodeKind::Camera(camera())),
            (4, "avatar", NodeKind::Avatar(avatar("Desktop"))),
        ] {
            rs.scene.insert_with_id(NodeId(id), root, name, kind).unwrap();
        }
        rs.scene.set_transform(NodeId(4), Transform::from_translation(Vec3::new(0.6, 0.4, 0.5)));
        rs.open_session(CLIENT, FULL, camera(), OffscreenMode::Sequential);
        rs
    }

    /// Ask for `CLIENT`'s tile and hold what comes back — drawn or lent
    /// again — to a fresh reference render of the same inputs: pixels,
    /// depths, every statistic. Returns whether the frame was drawn.
    fn drew(
        rs: &mut RenderService,
        camera: &CameraParams,
        full: &Viewport,
        tile: &Viewport,
    ) -> bool {
        let counts = |rs: &RenderService| {
            let s = &rs.sessions[&CLIENT];
            (s.frames_drawn, s.frames_reused)
        };
        let before = counts(rs);
        let (fb, stats) = rs.rasterize_session_tile(CLIENT, camera, full, tile).unwrap();
        let fb = fb.clone();
        let mut reference = Framebuffer::new(tile.width, tile.height);
        let want = rs.renderer.render_tile_reference(&rs.scene, camera, full, tile, &mut reference);
        assert_eq!(fb, reference, "pixels or depths");
        assert_eq!(stats, want, "statistics");
        let after = counts(rs);
        assert_eq!(after.0 + after.1, before.0 + before.1 + 1, "one frame counted");
        after.0 > before.0
    }

    /// `what` just happened: the next frame must be drawn, and the one
    /// after it, nothing having happened, lent.
    fn expect_draw(
        rs: &mut RenderService,
        cam: &CameraParams,
        full: &Viewport,
        tile: &Viewport,
        what: &str,
    ) {
        assert!(drew(rs, cam, full, tile), "{what} must force a draw");
        assert!(!drew(rs, cam, full, tile), "the frame after {what} is lent again");
    }

    #[test]
    fn an_unchanged_frame_is_lent_again_not_redrawn() {
        let mut rs = reuse_service();
        let buffer = |rs: &RenderService| {
            let fb = rs.sessions[&CLIENT].last_frame.as_ref().unwrap();
            (fb.color_pixels().as_ptr(), fb.depth_pixels().as_ptr())
        };
        assert!(drew(&mut rs, &camera(), &FULL, &TILE), "the first frame is drawn");
        let first = buffer(&rs);
        for _ in 0..3 {
            assert!(!drew(&mut rs, &camera(), &FULL, &TILE));
            assert_eq!(buffer(&rs), first, "same buffer");
        }
        let s = &rs.sessions[&CLIENT];
        assert_eq!((s.frames_drawn, s.frames_reused), (1, 3));

        // The whole-frame entry point is the same path.
        assert!(rs.rasterize(CLIENT).is_some());
        assert!(rs.rasterize(CLIENT).is_some());
        let s = &rs.sessions[&CLIENT];
        assert_eq!((s.frames_drawn, s.frames_reused), (2, 4), "tile → whole frame draws once");
        let mut whole = Framebuffer::new(FULL.width, FULL.height);
        rs.renderer.render_reference(&rs.scene, &camera(), &mut whole);
        assert_eq!(rs.sessions[&CLIENT].last_frame.as_ref(), Some(&whole));
    }

    #[test]
    fn camera_rectangles_and_style_are_part_of_what_a_frame_is() {
        let mut rs = reuse_service();
        let (mut cam, mut full, mut tile) = (camera(), FULL, TILE);
        assert!(drew(&mut rs, &cam, &full, &tile));

        cam.orbit(Vec3::ZERO, 0.1, 0.0);
        expect_draw(&mut rs, &cam, &full, &tile, "camera position");
        cam.fov_y *= 0.9;
        expect_draw(&mut rs, &cam, &full, &tile, "camera lens");
        tile = Viewport::with_origin(17, 0, 20, 32);
        expect_draw(&mut rs, &cam, &full, &tile, "tile origin, same size");
        tile = Viewport::with_origin(17, 0, 12, 32);
        expect_draw(&mut rs, &cam, &full, &tile, "tile size");
        full = Viewport::new(64, 32);
        expect_draw(&mut rs, &cam, &full, &tile, "full viewport");

        type Restyle = fn(&mut Renderer);
        let styles: [(&str, Restyle); 9] = [
            ("light_dir", |r| r.lighting.light_dir = Vec3::new(0.0, 0.0, 1.0)),
            ("ambient", |r| r.lighting.ambient = 0.5),
            ("background", |r| r.background = rave_render::Rgb(1, 2, 3)),
            ("transfer.threshold", |r| r.transfer.threshold = 0.3),
            ("transfer.opacity_scale", |r| r.transfer.opacity_scale = 2.0),
            ("transfer.tint", |r| r.transfer.tint = Vec3::new(1.0, 0.5, 0.25)),
            ("volume_steps", |r| r.volume_steps = 16),
            ("default_material", |r| r.default_material = Vec3::new(0.2, 0.9, 0.2)),
            ("skip_subtree", |r| r.skip_subtree = Some(NodeId(4))),
        ];
        for (what, restyle) in styles {
            restyle(&mut rs.renderer);
            expect_draw(&mut rs, &cam, &full, &tile, what);
        }

        // The session's own viewport, through `rasterize`.
        let drawn = |rs: &RenderService| rs.sessions[&CLIENT].frames_drawn;
        rs.rasterize(CLIENT).unwrap();
        let before = drawn(&rs);
        rs.rasterize(CLIENT).unwrap();
        assert_eq!(drawn(&rs), before);
        rs.sessions.get_mut(&CLIENT).unwrap().viewport = Viewport::new(48, 33);
        rs.rasterize(CLIENT).unwrap();
        assert_eq!(drawn(&rs), before + 1, "session viewport");
        rs.sessions.get_mut(&CLIENT).unwrap().camera = cam;
        rs.rasterize(CLIENT).unwrap();
        assert_eq!(drawn(&rs), before + 2, "session camera");
    }

    #[test]
    fn every_scene_edit_forces_a_draw() {
        use rave_scene::SceneUpdate;
        let mut rs = reuse_service();
        let cam = camera();
        assert!(drew(&mut rs, &cam, &FULL, &TILE));
        let moved = |x: f32| Transform::from_translation(Vec3::new(x, 0.0, 0.0));
        let small = || {
            NodeKind::Mesh(Arc::new(MeshData::new(
                vec![Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.5, 0.0)],
                vec![[0, 1, 2]],
            )))
        };
        let mut other = SceneTree::new();
        other.insert_with_id(NodeId(40), other.root(), "merged", small()).unwrap();
        type Edit<'a> = Box<dyn Fn(&mut SceneTree) + 'a>;
        let edits: Vec<(&str, Edit<'_>)> = vec![
            ("set_transform", Box::new(|t| assert!(t.set_transform(NodeId(1), moved(0.3))))),
            (
                "set_transform, same value",
                Box::new(|t| assert!(t.set_transform(NodeId(1), moved(0.3)))),
            ),
            ("add_node", Box::new(|t| assert!(t.add_node(NodeId(2), "new", small()).is_ok()))),
            ("reparent", Box::new(|t| t.reparent(NodeId(1), NodeId(2)).unwrap())),
            ("kind_mut", Box::new(|t| *t.node_mut(NodeId(1)).unwrap().kind_mut() = small())),
            ("set_kind", Box::new(|t| t.node_mut(NodeId(2)).unwrap().set_kind(small()))),
            (
                "transform_mut",
                Box::new(|t| {
                    t.node_mut(NodeId(2)).unwrap().transform_mut().scale = Vec3::splat(2.0)
                }),
            ),
            ("merge_subset", Box::new(move |t| t.merge_subset(&other))),
            ("remove", Box::new(|t| assert!(t.remove(NodeId(40)).is_ok()))),
        ];
        for (what, edit) in &edits {
            edit(&mut rs.scene);
            expect_draw(&mut rs, &cam, &FULL, &TILE, what);
        }

        let mut pose = cam;
        pose.orbit(Vec3::ZERO, 0.4, 0.2);
        let updates = [
            SceneUpdate::AddNode {
                id: NodeId(50),
                parent: NodeId(0),
                name: "added".into(),
                kind: small(),
            },
            SceneUpdate::SetTransform { id: NodeId(50), transform: moved(-0.4) },
            SceneUpdate::SetName { id: NodeId(50), name: "renamed".into() },
            SceneUpdate::ReplaceKind { id: NodeId(50), kind: NodeKind::Group },
            SceneUpdate::CameraMoved { id: NodeId(3), camera: pose },
            SceneUpdate::CameraMoved { id: NodeId(4), camera: pose },
            SceneUpdate::AvatarUpdated { id: NodeId(4), avatar: avatar("Laptop") },
            SceneUpdate::RemoveNode { id: NodeId(50) },
        ];
        for update in &updates {
            update.apply(&mut rs.scene).unwrap();
            expect_draw(&mut rs, &cam, &FULL, &TILE, &format!("{update:?}"));
        }
    }

    /// `scene` is a `pub` field: a tree assigned over it is another tree
    /// even when it is an equal one, and a cloned service does not inherit
    /// the right to reuse what the original rendered.
    #[test]
    fn a_replaced_scene_or_a_cloned_service_draws() {
        let mut rs = reuse_service();
        let cam = camera();
        assert!(drew(&mut rs, &cam, &FULL, &TILE));
        let equal = rs.scene.clone();
        assert_eq!(equal, rs.scene);
        rs.scene = equal;
        assert!(drew(&mut rs, &cam, &FULL, &TILE), "rs.scene = other");
        assert!(!drew(&mut rs, &cam, &FULL, &TILE));

        let mut twin = rs.clone();
        assert!(drew(&mut twin, &cam, &FULL, &TILE), "a cloned service");
        assert!(!drew(&mut twin, &cam, &FULL, &TILE));
        assert!(!drew(&mut rs, &cam, &FULL, &TILE), "the original still holds its frame");

        // Same edit count on two trees: the counters coincide, and only
        // the identity tells the swapped-in tree from the rendered one.
        let mut a = reuse_service();
        let mut b = reuse_service();
        b.scene.set_transform(NodeId(1), Transform::from_translation(Vec3::new(0.5, 0.0, 0.0)));
        a.scene.set_transform(NodeId(1), Transform::IDENTITY);
        assert!(drew(&mut a, &cam, &FULL, &TILE));
        std::mem::swap(&mut a.scene, &mut b.scene);
        assert!(drew(&mut a, &cam, &FULL, &TILE), "a swapped-in tree");
    }

    /// Fail open: a camera that does not equal itself is drawn every time,
    /// and a retained buffer that is gone or has another size is not lent.
    #[test]
    fn what_cannot_be_compared_is_drawn() {
        let mut rs = reuse_service();
        let mut nan = camera();
        nan.position.x = f32::NAN;
        assert!(drew(&mut rs, &nan, &FULL, &TILE));
        assert!(drew(&mut rs, &nan, &FULL, &TILE), "NaN != NaN");

        let cam = camera();
        assert!(drew(&mut rs, &cam, &FULL, &TILE));
        rs.sessions.get_mut(&CLIENT).unwrap().last_frame = None;
        assert!(drew(&mut rs, &cam, &FULL, &TILE), "no buffer to lend");
        rs.sessions.get_mut(&CLIENT).unwrap().last_frame = Some(Framebuffer::new(7, 7));
        assert!(drew(&mut rs, &cam, &FULL, &TILE), "a buffer of another size");
        assert!(!drew(&mut rs, &cam, &FULL, &TILE));
    }

    /// Frames are counted on the session they were rendered for, by the
    /// function that decides between drawing and lending.
    #[test]
    fn frames_are_credited_to_the_session_that_rendered_them() {
        let mut rs = reuse_service();
        let second = ClientId(2);
        rs.open_session(second, Viewport::new(24, 24), camera(), OffscreenMode::Sequential);
        for _ in 0..3 {
            rs.rasterize(second).unwrap();
            rs.record_frame(SimTime::from_secs(1.0), 4);
        }
        let counts = |c: ClientId| (rs.sessions[&c].frames_drawn, rs.sessions[&c].frames_reused);
        assert_eq!(counts(CLIENT), (0, 0), "the lowest client id rendered nothing");
        assert_eq!(counts(second), (1, 2));
        assert!(rs.rasterize(ClientId(9)).is_none(), "no session, no frame");
    }

    #[test]
    fn queue_render_runs_back_to_back() {
        let mut rs = service_with_polys(10);
        let (s1, d1) = rs.queue_render(SimTime::from_secs(1.0), 0.5);
        assert_eq!(s1, SimTime::from_secs(1.0));
        assert_eq!(d1, SimTime::from_secs(1.5));
        // Second frame ready while the first still renders: queues.
        let (s2, d2) = rs.queue_render(SimTime::from_secs(1.2), 0.5);
        assert_eq!(s2, d1);
        assert_eq!(d2, SimTime::from_secs(2.0));
        assert_eq!(rs.gpu.jobs(), 2);
        assert!((rs.gpu.busy_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn close_session() {
        let mut rs = service_with_polys(1);
        rs.open_session(
            ClientId(1),
            Viewport::new(8, 8),
            CameraParams::default(),
            OffscreenMode::Sequential,
        );
        assert!(rs.close_session(ClientId(1)));
        assert!(!rs.close_session(ClientId(1)));
    }
}
