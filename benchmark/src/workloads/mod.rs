//! The four scripted workloads and what they share.
//!
//! A workload is a closed loop of fixed-work rounds over one `RaveSim`
//! world: the next round starts only after the previous one's events have
//! drained. Everything it does to the system goes through public functions
//! of the `rave-*` crates; `README.md` lists them.

pub mod collab_fanout;
pub mod edit_storm;
pub mod pda_stream;
pub mod tile_wall;

use crate::spans::Tracer;
use rave_compress::adaptive::{CodecSelector, EndpointSpeed};
use rave_compress::{quantize, stream};
use rave_core::{DataServiceId, RaveSim, RenderServiceId};
use rave_math::Vec3;
use rave_net::{multicast_deliver, LinkSpec, Network};
use rave_scene::{CameraParams, MeshData, NodeKind, StampedUpdate};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Seed of the world's own RNG. Fixed: `--seed` reaches the program only
/// as generated inputs.
pub const WORLD_SEED: u64 = 7;

/// Untimed rounds run at the end of set-up so codec probes, caches and the
/// first plan are behind the timed loop.
pub const WARM_UP_ROUNDS: u64 = 2;

/// Operations attempted and failed, and the oracle verdicts.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation of the script (a publish, a frame, a replan) or
    /// one oracle comparison. A failed one is described lazily.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Cumulative books a workload keeps since its world was made; the harness
/// takes differences over a fixed span of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// Virtual clock.
    pub sim_secs: f64,
    /// Bytes put on the simulated wire: channels the workload uses plus
    /// multicast fan-out.
    pub wire_bytes: u64,
}

/// Per-layer numbers that are counts or virtual-time results, not spans.
pub type LayerCounts = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    /// Whether the workload rasterizes, and so spends part of every round
    /// on all cores at once. Decides the yardstick sample taken beside it
    /// ([`crate::yardstick::sample`]).
    const PARALLEL: bool;

    /// Build models, world, scene, subscriptions, bootstrap; run the
    /// warm-up rounds.
    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self;

    /// One fixed-work round, ending with the event queue drained.
    fn round(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks);

    fn counters(&mut self) -> Counters;

    /// What the session still does after its last round (`edit_storm`'s
    /// failover and recovery). Timed with set-up as the wall time spent
    /// outside the rounds.
    fn tail(&mut self, _tr: &mut Tracer, _checks: &mut Checks) {}

    /// After the tail: the final oracles and the layer counts over
    /// `rounds` timed rounds. Harness work, on no clock.
    fn finish(self, rounds: u64, tr: &mut Tracer, checks: &mut Checks) -> LayerCounts;
}

/// Bytes and messages sent so far on the listed host pairs' channels, both
/// directions.
pub fn channel_totals(sim: &mut RaveSim, pairs: &[(String, String)]) -> (u64, u64) {
    let (mut bytes, mut msgs) = (0, 0);
    for (a, b) in pairs {
        for (from, to) in [(a, b), (b, a)] {
            let channel = sim.world.channel(from, to);
            bytes += channel.bytes_sent();
            msgs += channel.messages_sent();
        }
    }
    (bytes, msgs)
}

/// The camera a pixel workload starts from: on the seed's orbit around a
/// model of this centre and bounding radius, looking at it.
pub fn orbit_camera(seed: u64, center: Vec3, radius: f32) -> CameraParams {
    let orbit = crate::gen::orbit(seed);
    let eye = center
        + Vec3::new(
            orbit.yaw0.sin() * radius * orbit.distance,
            radius * orbit.height,
            orbit.yaw0.cos() * radius * orbit.distance,
        );
    CameraParams::look_at(eye, center, Vec3::Y)
}

/// Repeat, as shadows of the latest `publish.batch`, what fanning a batch
/// out did: `DataService::route` per update, then multicast delivery
/// planning to the routed hosts. Returns the number of (update, subscriber)
/// deliveries.
pub fn shadow_fanout(
    sim: &mut RaveSim,
    ds: DataServiceId,
    stamped: &[Arc<StampedUpdate>],
    tr: &mut Tracer,
) -> u64 {
    let n = stamped.len() as u64;
    let routed: Vec<Vec<RenderServiceId>> = tr.shadow("route", "publish.batch", n, || {
        let ds = sim.world.data_mut(ds);
        stamped.iter().map(|s| ds.route(s)).collect()
    });
    let world = &sim.world;
    let ds_host = world.data(ds).host.as_str();
    let hosts: Vec<Vec<&str>> = routed
        .iter()
        .map(|t| t.iter().map(|rs| world.render(*rs).host.as_str()).collect())
        .collect();
    tr.shadow("net.multicast_deliver", "publish.batch", n, || {
        for (s, hosts) in stamped.iter().zip(&hosts) {
            black_box(multicast_deliver(&world.network, ds_host, hosts, s.wire_size()));
        }
    });
    routed.iter().map(|t| t.len() as u64).sum()
}

/// Event-trace volume: events held and bytes of their detail strings.
pub fn trace_counts(sim: &RaveSim, rounds: u64, out: &mut LayerCounts) {
    let events = sim.world.trace.events();
    out.insert("trace.events", events.len() as f64);
    out.insert("trace.events_per_round", events.len() as f64 / rounds.max(1) as f64);
    out.insert("trace.detail_bytes", events.iter().map(|e| e.detail.len()).sum::<usize>() as f64);
}

/// `segments` switched 100 Mbit LANs of `hosts_per_segment` hosts each,
/// fully bridged — the repository's own scale-run topology.
pub fn machine_room(segments: usize, hosts_per_segment: usize) -> Network {
    let mut net = Network::new();
    net.set_default_inter_link(LinkSpec::ethernet_100mb());
    for s in 0..segments {
        let seg = format!("seg{s}");
        net.add_segment(&seg, LinkSpec::ethernet_100mb());
        for h in 0..hosts_per_segment {
            net.add_host(&room_host(s, h), &seg);
        }
    }
    net
}

pub fn room_host(segment: usize, host: usize) -> String {
    format!("host{segment}x{host}")
}

/// A mesh that costs `tris` polygons and almost no memory.
pub fn tiny_mesh(tris: u32) -> NodeKind {
    NodeKind::Mesh(Arc::new(MeshData {
        positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
        normals: vec![],
        colors: vec![],
        triangles: vec![[0, 1, 2]; tris as usize],
        texture_bytes: 0,
    }))
}

pub fn vec3(p: [f32; 3]) -> Vec3 {
    Vec3::new(p[0], p[1], p[2])
}

/// Whether a receiver's view is the sent frame: every byte the sent one or
/// its RGB565 quantisation (a lossy frame leaves clean strips exact).
fn view_matches(view: &[u8], rgb: &[u8]) -> bool {
    if view == rgb {
        return true;
    }
    let Some(q) = quantize::decode_565(&quantize::encode_565(rgb)) else { return false };
    view.len() == rgb.len() && view.iter().zip(rgb).zip(&q).all(|((v, r), q)| v == r || v == q)
}

/// The benchmark's copy of one compressed frame stream's sender state
/// (`FrameChannel` keeps its buffers private), advanced with the same
/// calls in the same order, so each codec stage can be repeated and timed
/// on exactly the inputs the real stream had.
pub struct StreamMirror {
    selector: CodecSelector,
    last_raw: Option<Vec<u8>>,
    prev_view: Option<Vec<u8>>,
    link: LinkSpec,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
    allow_lossy: bool,
    strip_bytes: usize,
    /// Container bytes the mirror produced; must equal the real stream's.
    pub encoded_bytes: u64,
}

impl StreamMirror {
    pub fn new(
        sim: &RaveSim,
        from: &str,
        to: &str,
        receiver: EndpointSpeed,
        allow_lossy: bool,
    ) -> Self {
        let cfg = &sim.world.config;
        Self {
            selector: CodecSelector::new(cfg.codec_ewma_alpha, cfg.codec_reprobe_every),
            last_raw: None,
            prev_view: None,
            link: sim.world.network.link_between(from, to).clone(),
            sender: EndpointSpeed::workstation(),
            receiver,
            allow_lossy,
            strip_bytes: cfg.frame_strip_bytes,
            encoded_bytes: 0,
        }
    }

    /// Repeat select → encode → decode for one frame as shadows of the
    /// direct span `of`, then check the receiver's view: the sent pixels,
    /// or their RGB565 quantisation under a lossy codec.
    pub fn send(&mut self, tr: &mut Tracer, of: &'static str, rgb: Vec<u8>, checks: &mut Checks) {
        let est = tr.shadow("compress.select", of, 1, || {
            self.selector.choose(
                &rgb,
                self.prev_view.as_deref(),
                &self.link,
                self.sender,
                self.receiver,
                self.allow_lossy,
            )
        });
        let strips = stream::strip_count_for(rgb.len(), self.strip_bytes);
        let (payload, _meta) = tr.shadow("compress.encode", of, 1, || {
            stream::encode_frame_with_meta(
                est.codec,
                &rgb,
                self.last_raw.as_deref(),
                self.prev_view.as_deref(),
                strips,
            )
        });
        let view = tr.shadow("compress.decode", of, 1, || {
            stream::decode_frame(&payload, self.prev_view.as_deref())
        });
        tr.untimed(|| {
            let ok = view.as_deref().is_some_and(|v| view_matches(v, &rgb));
            checks.check(ok, || {
                format!("decoded frame differs from the sent one ({})", est.codec.name())
            });
            self.selector.observe(est.codec, rgb.len() as u64, payload.len() as u64);
            self.encoded_bytes += payload.len() as u64;
            self.prev_view = view;
            self.last_raw = Some(rgb);
        });
    }
}
