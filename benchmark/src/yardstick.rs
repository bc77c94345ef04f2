//! A fixed piece of work timed between the rounds, to take the host's own
//! speed out of the wall metrics.
//!
//! The reference host is a shared 2-core VM whose execution speed moves on
//! every time scale: ±15 % from one millisecond to the next, 2–3 % between
//! stretches of a few seconds, and 20–30 % over tens of minutes (README,
//! "Host speed"). Medians over repetitions take care of the fast part. The
//! slow part shifts a whole run, so nothing inside the run can vote it out;
//! but a yardstick sampled all through the run sees the same factor. The
//! yardstick mixes what the workloads do — branchy sorting, hashed lookups,
//! streaming over a framebuffer-sized buffer, float arithmetic — and
//! touches nothing of the system under test.
//!
//! A sample is one serial pass of that work and, for the workloads that
//! rasterize, a second pass on every core at once: their frames are a
//! parallel raster plus serial coding, and how soon and how fast the second
//! core answers moves on this host independently of the first (README, same
//! section: over 30 runs the serial pass alone left `pda_stream`'s median
//! round spread by 9 %, both passes by 3 %). Which sample a workload gets
//! is a constant of the benchmark ([`crate::workloads::Workload::PARALLEL`]),
//! never read off the program under test, so both sides of a comparison
//! are scaled alike.
//!
//! Wall metrics are reported at *nominal speed*: as if every pass took
//! exactly one millisecond, which is a definition, not a measurement of any
//! host. A run's wall times are multiplied by `nominal / median(samples)` —
//! one factor for the whole run, from every sample it took. The unscaled
//! numbers and the factor are printed with every run.

use rave_sim::SimRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One pass of the yardstick, by definition. (About what a serial pass
/// takes on the reference host, so scaled and measured times are of the
/// same size there.)
pub const NOMINAL_PASS_NS: f64 = 1_000_000.0;

const KEYS: usize = 16 * 1024;
const PIXELS: usize = 640 * 480;

/// The memory one pass works in. Made and dropped by the sampling thread,
/// inside the clock: a pass on another core then allocates nothing there,
/// so the process's peak memory does not depend on how many allocator
/// arenas the yardstick's threads happened to open.
struct Scratch {
    keys: Vec<u64>,
    table: HashMap<u64, u64>,
    frame: Vec<u8>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            keys: Vec::with_capacity(KEYS),
            table: HashMap::with_capacity(KEYS),
            frame: vec![0u8; PIXELS * 3],
        }
    }
}

/// One pass; returns a checksum so none of it can be optimised out.
fn work(scratch: &mut Scratch) -> u64 {
    let Scratch { keys, table, frame } = scratch;
    let mut rng = SimRng::new(0x5eed);
    keys.extend((0..KEYS).map(|_| rng.next_u64()));
    keys.sort_unstable();
    for (i, k) in keys.iter().enumerate() {
        table.insert(*k, i as u64);
    }
    let mut sum = keys.iter().map(|k| table[k]).sum::<u64>();

    for (i, b) in frame.iter_mut().enumerate() {
        *b = (i as u64).wrapping_mul(0x9E37_79B9) as u8;
    }
    sum += frame.iter().map(|b| u64::from(*b)).sum::<u64>();

    let mut depth = 0.0f32;
    for (i, k) in keys.iter().enumerate() {
        depth = depth.mul_add(0.999, (*k as f32).sqrt() / (i + 1) as f32);
    }
    sum + depth.to_bits() as u64
}

/// A pass on each of `cores` cores at once, threads started and joined
/// inside, as the program's own parallel sections are.
fn passes(cores: usize) -> u64 {
    let mut scratch: Vec<Scratch> = (0..cores).map(|_| Scratch::new()).collect();
    let (mine, theirs) = scratch.split_first_mut().expect("at least one core");
    std::thread::scope(|s| {
        let others: Vec<_> = theirs.iter_mut().map(|t| s.spawn(|| work(t))).collect();
        let sum = work(mine);
        others.into_iter().fold(sum, |sum, t| sum.wrapping_add(t.join().expect("pass")))
    })
}

/// One sample, in nanoseconds per pass. An untimed pass first brings the
/// yardstick's own data into the cache, so the reading does not depend on
/// what the program under test left there — a change that shrinks the
/// program's working set does not move the factor. Then a serial pass is
/// timed and, if `parallel`, a pass on every core at once.
pub fn sample(parallel: bool) -> f64 {
    black_box(passes(1));
    let t = Instant::now();
    black_box(passes(1));
    if !parallel {
        return t.elapsed().as_nanos() as f64;
    }
    black_box(passes(std::thread::available_parallelism().map_or(1, |n| n.get())));
    t.elapsed().as_nanos() as f64 / 2.0
}

/// Host speed in yardstick passes per millisecond, from a run's samples.
pub fn host_speed(samples_ns: &[f64]) -> f64 {
    let median = crate::stats::median(samples_ns);
    if median > 0.0 {
        NOMINAL_PASS_NS / median
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(passes(1), passes(1));
        assert_eq!(passes(2), passes(1).wrapping_mul(2));
        assert!(sample(false) > 0.0 && sample(true) > 0.0);
    }

    #[test]
    fn speed_is_nominal_over_median() {
        let ns = NOMINAL_PASS_NS;
        assert_eq!(host_speed(&[ns, ns * 2.0, ns / 2.0]), 1.0);
        assert_eq!(host_speed(&[ns * 2.0]), 0.5);
        assert_eq!(host_speed(&[]), 1.0);
    }
}
