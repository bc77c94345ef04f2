//! Several draws in one parallel section.
//!
//! A distributed frame's services draw their tiles at the same time
//! (§3.2.5): [`draw_at_once`] runs the draws of one frame side by side,
//! each on a share of the threads, instead of one after another on all of
//! them. A draw's serial parts — its scene walk, a vertex stage too small
//! to split, its own section start — then run while the other threads
//! draw, not while they wait.
//!
//! The threads are shared equally. The draws, in the order given, are cut
//! into as many contiguous groups as there are threads (or draws), of
//! near-equal length; each group draws its draws one after another on an
//! equal share of the threads, the first groups taking one thread more
//! when the threads do not divide. So with more draws than threads every draw is drawn
//! single-threaded, and a lone draw keeps every thread, as a draw outside
//! this module does.
//!
//! What a draw writes never depends on its share: the raster's output is
//! the same at any thread count (`renderer`), so only the wall time moves.

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Run every draw in one section on the calling thread's thread count
/// ([`rayon::current_num_threads`]), shared as the module says. Returns
/// when all are drawn.
pub fn draw_at_once<T: Send>(draws: Vec<T>, draw: impl Fn(T) + Sync) {
    let groups = shares(draws.len(), rayon::current_num_threads());
    if groups.len() <= 1 {
        // All of the threads, one draw after another.
        return draws.into_iter().for_each(draw);
    }
    let mut draws = draws.into_iter();
    let work: Vec<(usize, Vec<T>)> =
        groups.iter().map(|&(threads, n)| (threads, draws.by_ref().take(n).collect())).collect();
    let pool = |threads| ThreadPoolBuilder::new().num_threads(threads).build().expect("a pool");
    // One chunk a group: the caller takes the first, a worker each other.
    pool(work.len()).install(|| {
        work.into_par_iter().for_each(|(threads, jobs)| {
            pool(threads).install(|| jobs.into_iter().for_each(&draw));
        })
    });
}

/// How `threads` threads are shared by `draws` draws: per group in order,
/// its threads and how many of the next draws it runs.
fn shares(draws: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1);
    let k = threads.min(draws).max(1);
    (0..k)
        .map(|g| (threads / k + usize::from(g < threads % k), (g + 1) * draws / k - g * draws / k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A lone draw keeps every thread.
    #[test]
    fn a_lone_draw_gets_every_thread() {
        for threads in [1, 2, 3, 8] {
            assert_eq!(shares(1, threads), [(threads, 1)]);
        }
        // One thread: every draw on it, one after another.
        assert_eq!(shares(4, 1), [(1, 4)]);
    }

    /// More draws than threads: contiguous groups of near-equal length,
    /// one thread each.
    #[test]
    fn more_draws_than_threads_are_cut_into_groups_in_order() {
        // tile_wall's four strips (owner, two inner, outer helper) on two
        // threads: each inner strip beside an outer one.
        assert_eq!(shares(4, 2), [(1, 2), (1, 2)]);
        assert_eq!(shares(3, 2), [(1, 1), (1, 2)]);
        assert_eq!(shares(5, 3), [(1, 1), (1, 2), (1, 2)]);
    }

    /// No more draws than threads: one group a draw, the threads shared
    /// equally, the first groups taking what does not divide.
    #[test]
    fn fewer_draws_share_the_threads_equally() {
        assert_eq!(shares(2, 2), [(1, 1), (1, 1)]);
        assert_eq!(shares(3, 4), [(2, 1), (1, 1), (1, 1)]);
        assert_eq!(shares(3, 8), [(3, 1), (3, 1), (2, 1)]);
        assert_eq!(shares(4, 8), [(2, 1); 4]);
        for threads in 1..=9 {
            for draws in 1..=7 {
                let groups = shares(draws, threads);
                assert_eq!(groups.iter().map(|g| g.0).sum::<usize>(), threads);
                assert_eq!(groups.iter().map(|g| g.1).sum::<usize>(), draws);
                assert!(groups.iter().all(|&(t, n)| t >= 1 && n >= 1), "{draws} on {threads}");
            }
        }
    }

    /// Every draw runs once, on the thread count of its group, and the
    /// calling thread's count is what it was afterwards.
    #[test]
    fn each_draw_runs_once_with_its_share() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen = Mutex::new(Vec::new());
        pool.install(|| {
            draw_at_once(vec!['a', 'b', 'c'], |d| {
                seen.lock().unwrap().push((d, rayon::current_num_threads()))
            });
            assert_eq!(rayon::current_num_threads(), 4);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [('a', 2), ('b', 1), ('c', 1)]);

        let seen = Mutex::new(Vec::new());
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        one.install(|| {
            draw_at_once(vec!['x', 'y'], |d| {
                seen.lock().unwrap().push((d, rayon::current_num_threads()))
            })
        });
        assert_eq!(seen.into_inner().unwrap(), [('x', 1), ('y', 1)], "one group, in order");
    }
}
