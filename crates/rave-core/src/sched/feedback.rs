//! Measured-throughput feedback: the §3.2.5 loop closed. Advertised
//! capacity seeds every plan, but the scheduler converges on what each
//! service *actually* delivers — the LBNL WAN-visualization lesson of
//! making placement decisions from continuously measured throughput
//! rather than static capacity claims.
//!
//! [`ThroughputTracker`] is the EWMA promoted out of `tiles.rs`,
//! generalized so dataset and volume placement learn from the same
//! measurements as tile splitting. The unit is
//! whatever cost measure the workload reports per second —
//! `RasterStats::cost_units` for tiles, polygons for dataset shards,
//! voxels for bricks; one tracker per unit domain.

use crate::ids::RenderServiceId;
use std::collections::BTreeMap;

/// Exponentially-weighted per-service throughput (work units per second).
#[derive(Debug, Clone, Default)]
pub struct ThroughputTracker {
    observed: BTreeMap<RenderServiceId, f64>,
}

impl ThroughputTracker {
    /// The EWMA smoothing factor: new observations get this share.
    pub const ALPHA: f64 = 0.3;

    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed work item: `units` of work finished in
    /// `seconds`. Non-positive durations are ignored (stale results cost
    /// nothing and measure nothing).
    pub fn record(&mut self, service: RenderServiceId, units: u64, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let rate = units as f64 / seconds;
        match self.observed.entry(service) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(rate);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let v = e.get_mut();
                *v = (1.0 - Self::ALPHA) * *v + Self::ALPHA * rate;
            }
        }
    }

    /// Forget a service (it left or failed).
    pub fn forget(&mut self, service: RenderServiceId) {
        self.observed.remove(&service);
    }

    /// Smoothed throughput for a service, if it has ever been observed.
    pub fn throughput(&self, service: RenderServiceId) -> Option<f64> {
        self.observed.get(&service).copied()
    }

    pub fn observed_services(&self) -> usize {
        self.observed.len()
    }

    /// Integer split weights for `participants`, normalized to the
    /// fastest observed participant (scale 1000). Never-observed services
    /// get the mean observed rate (neutral weight) and the 1-unit floor
    /// keeps stragglers in the plan. This is the exact weighting
    /// `plan_tiles_with_feedback` has always used, shared here so any
    /// workload split can reuse it.
    pub fn split_weights(&self, participants: &[RenderServiceId]) -> Vec<u64> {
        let known: Vec<f64> = participants.iter().filter_map(|&svc| self.throughput(svc)).collect();
        let mean = known.iter().sum::<f64>() / known.len().max(1) as f64;
        let max = known.iter().cloned().fold(mean, f64::max).max(1e-12);
        participants
            .iter()
            .map(|&svc| {
                let rate = self.throughput(svc).unwrap_or(mean);
                ((rate / max * 1000.0).round() as u64).max(1)
            })
            .collect()
    }

    /// Has the measured rate for `service` drifted below
    /// `drift_ratio × expected`? The `CostDrift` rebalance trigger: a
    /// service that advertised a big GPU but delivers slowly should be
    /// re-planned before it ever trips the overload fps threshold.
    pub fn drifted_below(&self, service: RenderServiceId, expected: f64, drift_ratio: f64) -> bool {
        match self.throughput(service) {
            Some(measured) if expected > 0.0 => measured < expected * drift_ratio,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_and_ignores_zero_durations() {
        let mut t = ThroughputTracker::new();
        let svc = RenderServiceId(7);
        t.record(svc, 1000, 0.0);
        assert!(t.throughput(svc).is_none());
        t.record(svc, 1000, 1.0);
        assert_eq!(t.throughput(svc).unwrap(), 1000.0);
        for _ in 0..40 {
            t.record(svc, 4000, 1.0);
        }
        assert!((t.throughput(svc).unwrap() - 4000.0).abs() < 10.0);
    }

    #[test]
    fn split_weights_normalize_to_fastest() {
        let mut t = ThroughputTracker::new();
        let (a, b, c) = (RenderServiceId(1), RenderServiceId(2), RenderServiceId(3));
        t.record(a, 1000, 1.0);
        t.record(b, 4000, 1.0);
        let w = t.split_weights(&[a, b, c]);
        assert_eq!(w[1], 1000, "fastest participant anchors the scale");
        assert_eq!(w[0], 250);
        // Never-observed c gets the mean (2500/4000).
        assert_eq!(w[2], 625);
    }

    #[test]
    fn drift_detection_needs_observation() {
        let mut t = ThroughputTracker::new();
        let svc = RenderServiceId(9);
        assert!(!t.drifted_below(svc, 1e6, 0.5), "no observation, no drift");
        t.record(svc, 100_000, 1.0);
        assert!(t.drifted_below(svc, 1e6, 0.5));
        assert!(!t.drifted_below(svc, 150_000.0, 0.5));
    }

    #[test]
    fn forget_removes_observation() {
        let mut t = ThroughputTracker::new();
        let svc = RenderServiceId(3);
        t.record(svc, 10, 1.0);
        assert_eq!(t.observed_services(), 1);
        t.forget(svc);
        assert!(t.throughput(svc).is_none());
    }
}
