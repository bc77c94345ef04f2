//! Tunable system parameters.
//!
//! A value is a field of [`RaveConfig`] only while something gives it a
//! second value; a knob with one value is a constant beside the code that
//! reads it (`sched::rebalance::{OVERLOAD_FPS, UNDERLOAD_FPS,
//! UNDERLOAD_DEBOUNCE, DRIFT_RATIO}`, `render_service::FPS_WINDOW`,
//! `bootstrap::{INTROSPECT_PER_FIELD, INTROSPECT_PER_BYTE,
//! DIRECT_PER_BYTE}`, `thin_client::ALLOW_LOSSY_FRAMES`); a store knob is
//! a field of `rave_store::StoreConfig`, which failover carries over. Why
//! each of the ten is a field:
//!
//! | field | who gives it another value |
//! |---|---|
//! | `produce_images` | figures, examples, `pda_stream`, `tile_wall` (true) |
//! | `frame_compression` | the frame-stream bench, `pipelined_streaming`, both pixel workloads |
//! | `pipeline_depth` | `pipelined_streaming` and the pipeline benches (1–4), `pda_stream` (2) |
//! | `ship_max_lag` | the failover bench grid, `edit_storm` (0) |
//! | `update_delivery_trace` | `collab_fanout` and the 10k-subscriber bench (false): at 10k subscribers one update is 10k rows, over twice what the trace keeps |
//! | `target_fps`, `fill_factor`, `codec_reprobe_every`, `codec_ewma_alpha`, `frame_strip_bytes` | nobody: `benchmark/` *reads* them, so they wait for its refresh (ROADMAP "Unlocked deletions") |

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

/// Global RAVE configuration (see the module docs for why each value is
/// a field and not a constant).
#[derive(Debug, Clone)]
pub struct RaveConfig {
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
    /// Frame transport for thin-client streams and helper tile returns.
    pub frame_compression: CompressionMode,
    /// Re-probe (trial-encode all codecs) every N frames in adaptive
    /// mode; between probes the selector estimates from EWMA ratios.
    pub codec_reprobe_every: u64,
    /// EWMA weight of the newest measured compression ratio, in (0, 1].
    pub codec_ewma_alpha: f64,
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
    /// Replication lag bound, in committed updates: the newest entries of
    /// the primary's *unsealed* segment may stay unshipped up to this
    /// count (0 = ship every entry immediately). Sealed segments always
    /// ship whole.
    pub ship_max_lag: u64,
    /// Record a `TraceKind::UpdateDelivered` row per applied update per
    /// replica. On by default (tests and experiment logs read them);
    /// scale runs with 10k subscribers turn it off — one presence update
    /// would be 10k rows, over twice the [`crate::trace::KEEP`] it keeps.
    pub update_delivery_trace: bool,
}

impl Default for RaveConfig {
    fn default() -> Self {
        Self {
            target_fps: 15.0,
            fill_factor: 0.85,
            produce_images: false,
            frame_compression: CompressionMode::Raw,
            codec_reprobe_every: 30,
            codec_ewma_alpha: 0.3,
            frame_strip_bytes: 16 * 1024,
            pipeline_depth: 1,
            ship_max_lag: 64,
            update_delivery_trace: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fill_factor_is_a_fraction() {
        let c = RaveConfig::default();
        assert!(c.fill_factor > 0.0 && c.fill_factor <= 1.0);
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
    fn default_collab_knobs_sane() {
        let c = RaveConfig::default();
        assert!(c.update_delivery_trace, "delivery audit on by default");
    }

    #[test]
    fn default_ship_knobs_sane() {
        let c = RaveConfig::default();
        let checkpoint_every = rave_store::StoreConfig::default().checkpoint_every;
        assert!(c.ship_max_lag < checkpoint_every, "lag bound inside a checkpoint window");
    }
}
