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
use rave_render::{Framebuffer, MachineProfile, OffscreenMode, RenderCost, Renderer};
use rave_scene::{CameraParams, InterestSet, NodeCost, SceneTree};
use rave_sim::{Occupancy, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// One client's rendering session on a render service.
#[derive(Debug, Clone)]
pub struct RenderSession {
    pub client: ClientId,
    pub viewport: Viewport,
    pub camera: CameraParams,
    pub mode: OffscreenMode,
    pub frames_rendered: u64,
    /// Last rendered image — the whole frame, or the session's tile of a
    /// distributed one — kept for delta compression and stale-tile reuse,
    /// and rendered into again by the next frame of the same size.
    pub last_frame: Option<Framebuffer>,
}

impl RenderSession {
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
        self.sessions.insert(
            client,
            RenderSession { client, viewport, camera, mode, frames_rendered: 0, last_frame: None },
        );
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
    /// The frame is rendered into the session's retained `last_frame`
    /// buffer (replaced when the viewport changed size) and lent back from
    /// there: a streaming session allocates its frame once, not per frame.
    pub fn rasterize(&mut self, client: ClientId) -> Option<&Framebuffer> {
        let session = self.sessions.get_mut(&client)?;
        let camera = session.camera;
        let fb = session.frame_buffer(session.viewport.width, session.viewport.height);
        self.renderer.render(&self.scene, &camera, fb);
        Some(fb)
    }

    /// Rasterize one tile of a session's image (framebuffer
    /// distribution).
    pub fn rasterize_tile(
        &self,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> Framebuffer {
        self.rasterize_tile_with_stats(camera, full_viewport, tile).0
    }

    /// Like [`RenderService::rasterize_tile`] but also returns the render
    /// statistics, whose [`rave_render::raster::RasterStats::cost_units`] is the
    /// measured-cost signal for feedback tile planning.
    pub fn rasterize_tile_with_stats(
        &self,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> (Framebuffer, rave_render::RenderStats) {
        let mut fb = Framebuffer::new(tile.width, tile.height);
        let stats = self.renderer.render_tile(&self.scene, camera, full_viewport, tile, &mut fb);
        (fb, stats)
    }

    /// [`RenderService::rasterize_tile_with_stats`] for a tile that belongs
    /// to `client`'s session: rendered into the session's retained
    /// `last_frame` (as [`RenderService::rasterize`] does for a whole
    /// frame) and lent back from there, so a service that renders the same
    /// tile frame after frame allocates it once, and the tile it last
    /// delivered stays at hand. `None` without such a session.
    pub fn rasterize_session_tile(
        &mut self,
        client: ClientId,
        camera: &CameraParams,
        full_viewport: &Viewport,
        tile: &Viewport,
    ) -> Option<(&Framebuffer, rave_render::RenderStats)> {
        let fb = self.sessions.get_mut(&client)?.frame_buffer(tile.width, tile.height);
        let stats = self.renderer.render_tile(&self.scene, camera, full_viewport, tile, fb);
        Some((fb, stats))
    }

    /// Queue one off-screen render on the GPU timeline: it starts no
    /// earlier than `ready` (the frame's request arrival) and no earlier
    /// than the previous queued render's completion. Returns the render's
    /// `(start, done)` window.
    pub fn queue_render(&mut self, ready: SimTime, render_secs: f64) -> (SimTime, SimTime) {
        self.gpu.acquire(ready, render_secs)
    }

    /// Record a frame completion for load tracking.
    pub fn record_frame(&mut self, at: SimTime, window: usize) {
        if let Some(session) = self.sessions.values_mut().next() {
            session.frames_rendered += 1;
        }
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

    /// Answer a capacity interrogation (§3.2.5).
    pub fn capacity_report(&self, config: &RaveConfig) -> CapacityReport {
        let assigned = self.assigned_cost();
        // Pixel budget assumes the largest open session (or a default
        // 400x400 when idle).
        let pixels = self
            .sessions
            .values()
            .map(|s| s.viewport.pixel_count() as u64)
            .max()
            .unwrap_or(160_000);
        let per_frame_budget = self.machine.poly_budget_at_fps(config.target_fps, pixels);
        let fillable = (per_frame_budget as f64 * config.fill_factor) as u64;
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
    use rave_scene::{MeshData, NodeKind};
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
