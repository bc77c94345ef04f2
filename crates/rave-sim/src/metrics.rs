//! Lightweight measurement primitives shared by every experiment harness.

use crate::time::SimTime;

/// A single-server resource timeline: a busy-until cursor plus busy-time
/// accounting.
///
/// This is the primitive behind pipelined stage occupancy — a render
/// GPU, a serializing wire, a client CPU — each modelled as a resource
/// that serves one job at a time. [`Occupancy::acquire`] queues a job
/// behind whatever the resource is already committed to and returns the
/// `(start, end)` window it occupies, so overlapped stages charge
/// virtual time correctly instead of magically parallelizing.
///
/// The accumulated busy seconds make utilization over a span a one-line
/// query, which is how per-stage utilization and "which resource bound
/// this frame" diagnostics are computed.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    busy_until: SimTime,
    busy_secs: f64,
    jobs: u64,
}

impl Default for Occupancy {
    fn default() -> Self {
        Self { busy_until: SimTime::ZERO, busy_secs: 0.0, jobs: 0 }
    }
}

impl Occupancy {
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a job that becomes eligible at `ready` and needs `secs` of
    /// exclusive service. Returns its `(start, end)` window: the job
    /// starts at `max(ready, busy_until)` and the cursor advances to its
    /// end.
    pub fn acquire(&mut self, ready: SimTime, secs: f64) -> (SimTime, SimTime) {
        let start = ready.max(self.busy_until);
        let end = start + SimTime::from_secs(secs);
        self.busy_until = end;
        self.busy_secs += secs;
        self.jobs += 1;
        (start, end)
    }

    /// When the resource finishes its last queued job.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// How long a job ready at `ready` would wait before starting.
    pub fn wait(&self, ready: SimTime) -> SimTime {
        if self.busy_until > ready {
            self.busy_until - ready
        } else {
            SimTime::ZERO
        }
    }

    /// Total service seconds accumulated across all jobs.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of `span` the resource spent busy (0.0 for an empty span).
    pub fn utilization(&self, span: SimTime) -> f64 {
        if span <= SimTime::ZERO {
            0.0
        } else {
            self.busy_secs / span.as_secs()
        }
    }
}

/// The mean of recorded samples, kept as a running sum and count: the
/// experiment tables report means and nothing else.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Starts at `-0.0`, where `Iterator::sum::<f64>` starts, and adds in
    /// record order, so the mean is bit-identical to summing the samples.
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { sum: -0.0, count: 0 }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.mean(), 3.0);
    }

    proptest! {
        /// The running mean is the mean of the samples, bit for bit —
        /// signed zeros included.
        #[test]
        fn running_mean_equals_the_sample_mean(
            samples in prop::collection::vec(
                prop_oneof![Just(0.0f64), Just(-0.0f64), -1e6f64..1e6], 1..40),
        ) {
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let want = samples.iter().sum::<f64>() / samples.len() as f64;
            prop_assert_eq!(h.mean().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn occupancy_queues_back_to_back() {
        let mut o = Occupancy::new();
        let (s1, e1) = o.acquire(SimTime::from_secs(1.0), 2.0);
        assert_eq!(s1, SimTime::from_secs(1.0));
        assert_eq!(e1, SimTime::from_secs(3.0));
        // Ready before the cursor frees: queues behind the first job.
        let (s2, e2) = o.acquire(SimTime::from_secs(2.0), 1.0);
        assert_eq!(s2, SimTime::from_secs(3.0));
        assert_eq!(e2, SimTime::from_secs(4.0));
        assert_eq!(o.busy_until(), e2);
        assert_eq!(o.jobs(), 2);
        assert_eq!(o.busy_secs(), 3.0);
    }

    #[test]
    fn occupancy_idle_gap_resets() {
        let mut o = Occupancy::new();
        o.acquire(SimTime::ZERO, 1.0);
        assert_eq!(o.wait(SimTime::from_secs(0.5)), SimTime::from_secs(0.5));
        assert_eq!(o.wait(SimTime::from_secs(5.0)), SimTime::ZERO);
        let (s, _) = o.acquire(SimTime::from_secs(5.0), 1.0);
        assert_eq!(s, SimTime::from_secs(5.0));
    }

    #[test]
    fn occupancy_utilization_over_span() {
        let mut o = Occupancy::new();
        o.acquire(SimTime::ZERO, 1.0);
        o.acquire(SimTime::from_secs(3.0), 1.0);
        assert!((o.utilization(SimTime::from_secs(4.0)) - 0.5).abs() < 1e-12);
        assert_eq!(Occupancy::new().utilization(SimTime::ZERO), 0.0);
    }
}
