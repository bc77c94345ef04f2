//! Tunable system parameters.

use rave_sim::SimTime;

/// How render services ship frames to thin clients and tile owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionMode {
    /// Uncompressed 24 bpp — the paper's measured baseline (Table 2).
    #[default]
    Raw,
    /// Adaptive codec selection + dirty-strip reuse through
    /// `rave_compress::stream` (the §6 future-work item, built out).
    Adaptive,
}

/// Global RAVE configuration: the thresholds and knobs §3.2.7 describes
/// qualitatively, made explicit.
#[derive(Debug, Clone)]
pub struct RaveConfig {
    /// A render service whose rolling frame rate drops below this reports
    /// itself overloaded to the data service.
    pub overload_fps: f64,
    /// A render service sustaining more than this is a migration target
    /// (has spare capacity).
    pub underload_fps: f64,
    /// How long under-load must persist before the data service reacts —
    /// "for a given amount of time, to smooth out spikes of usage".
    pub underload_debounce: SimTime,
    /// Frames in the rolling fps window.
    pub fps_window: usize,
    /// Target interactive rate used when interrogating capacity
    /// ("available polygons per second ... and still maintain its current
    /// interactive frame rate").
    pub target_fps: f64,
    /// Headroom factor the planner leaves on each service (1.0 = fill to
    /// capacity; 0.8 = leave 20%).
    pub fill_factor: f64,
    /// Whether render services actually rasterize pixels (figure
    /// generation) or only charge the cost model (timing runs with
    /// multi-million-polygon scenes).
    pub produce_images: bool,
    /// Introspection marshalling rates for scene bootstrap (§5.5): the
    /// Java-reflection path, seconds per field visit and per byte.
    pub introspect_per_field: f64,
    pub introspect_per_byte: f64,
    /// Direct marshalling per byte (the ablation comparator).
    pub direct_per_byte: f64,
    /// Updates between durable snapshot checkpoints when a session store
    /// is attached (§3.1.1's "intermittently streamed to disk" cadence).
    pub checkpoint_every: u64,
    /// Frame transport for thin-client streams and helper tile returns.
    pub frame_compression: CompressionMode,
    /// Re-probe (trial-encode all codecs) every N frames in adaptive
    /// mode; between probes the selector estimates from EWMA ratios.
    pub codec_reprobe_every: u64,
    /// EWMA weight of the newest measured compression ratio, in (0, 1].
    pub codec_ewma_alpha: f64,
    /// Permit lossy (RGB565) codecs on thin-client frame streams. Tile
    /// returns are always lossless regardless (they are stitched into a
    /// composite that must match the monolithic render).
    pub allow_lossy_frames: bool,
    /// Target bytes per strip in the dirty-strip frame container.
    pub frame_strip_bytes: usize,
    /// Maximum frames in flight (requested but not yet displayed) on a
    /// thin-client stream. Depth 1 is the paper's strictly serial cycle
    /// (request → render → transfer → display, one at a time) and
    /// reproduces the Table-2 timings bit-identically; depth ≥ 2 overlaps
    /// the render of frame N+1 with the encode/transmit of frame N and
    /// the decode/import of frame N−1, hiding every latency except the
    /// bottleneck stage's.
    pub pipeline_depth: usize,
    /// Emit a `TraceKind::SchedDecision` record (candidates, scores,
    /// choice) for every migration/failure placement decision.
    pub sched_decision_trace: bool,
    /// Replication lag bound, in committed updates: the newest entries of
    /// the primary's *unsealed* segment may stay unshipped up to this
    /// count (0 = ship every entry immediately). Sealed segments always
    /// ship whole.
    pub ship_max_lag: u64,
    /// Record a `TraceKind::UpdateDelivered` event per applied update per
    /// replica. On by default (tests and experiment logs read them);
    /// scale runs with 10k subscribers turn it off — one presence update
    /// would otherwise allocate 10k trace strings.
    pub update_delivery_trace: bool,
    /// Maximum live `(render service, client)` frame-stream channels held
    /// in the world's `FrameCache`; past it the least-recently-used
    /// stream is evicted (it restarts from a keyframe on its next frame)
    /// and a `TraceKind::FrameCacheEvict` event is recorded. 0 =
    /// unbounded, the pre-10k-session behaviour.
    pub frame_cache_budget: usize,
}

impl Default for RaveConfig {
    fn default() -> Self {
        Self {
            overload_fps: 10.0,
            underload_fps: 40.0,
            underload_debounce: SimTime::from_secs(5.0),
            fps_window: 10,
            target_fps: 15.0,
            fill_factor: 0.85,
            produce_images: false,
            // Calibrated against Table 5: a 20 MB model bootstraps in
            // ≈68 s, of which ≈58 s is marshalling (the rest is instance
            // creation + wire time) ⇒ ≈2.3 µs/byte through the
            // introspective path.
            introspect_per_field: 4.0e-6,
            introspect_per_byte: 2.3e-6,
            // Direct serialization: bulk memcpy-ish, ~50 ns/byte.
            direct_per_byte: 50.0e-9,
            checkpoint_every: 256,
            frame_compression: CompressionMode::Raw,
            codec_reprobe_every: 30,
            codec_ewma_alpha: 0.3,
            allow_lossy_frames: true,
            frame_strip_bytes: 16 * 1024,
            pipeline_depth: 1,
            sched_decision_trace: true,
            ship_max_lag: 64,
            update_delivery_trace: true,
            frame_cache_budget: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_ordered() {
        let c = RaveConfig::default();
        assert!(c.overload_fps < c.underload_fps);
        assert!(c.fill_factor > 0.0 && c.fill_factor <= 1.0);
        assert!(c.introspect_per_byte > c.direct_per_byte * 10.0);
    }

    #[test]
    fn default_frame_transport_is_the_paper_baseline() {
        let c = RaveConfig::default();
        assert_eq!(c.frame_compression, CompressionMode::Raw);
        assert!(c.codec_ewma_alpha > 0.0 && c.codec_ewma_alpha <= 1.0);
        assert!(c.frame_strip_bytes > 0);
        assert_eq!(c.pipeline_depth, 1, "serial frame cycle keeps Table-2 calibration");
    }

    #[test]
    fn default_sched_knobs_sane() {
        let c = RaveConfig::default();
        assert!(c.sched_decision_trace, "decision audit on by default");
    }

    #[test]
    fn default_collab_knobs_sane() {
        let c = RaveConfig::default();
        assert!(c.update_delivery_trace, "delivery audit on by default");
        assert_eq!(c.frame_cache_budget, 0, "frame cache unbounded unless opted in");
    }

    #[test]
    fn default_ship_knobs_sane() {
        let c = RaveConfig::default();
        assert!(c.ship_max_lag < c.checkpoint_every, "lag bound inside a checkpoint window");
    }
}
