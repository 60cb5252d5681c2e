//! Two threads on the O(E) passes of a large graph.
//!
//! From [`PARALLEL_MIN_VERTICES`] vertices on, the dual-graph fill,
//! [`CsrGraph::validate`](crate::CsrGraph::validate) and
//! [`cut_sweep`](crate::metrics::cut_sweep) cut their work into a few
//! chunks, which the calling thread and one `rayon::join` worker claim
//! one at a time. A worker that starts late (waking an idle core takes a
//! fraction of a millisecond) or gets no core of its own claims fewer
//! chunks instead of holding the join up. The worker is forked only
//! while fewer threads than the budget hold a core (the shim's fork
//! rule), so on a server whose workers are all busy every chunk runs on
//! the calling thread. Every chunk runs once and the results come back
//! in chunk order, so an output never depends on which thread ran which
//! chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Graphs with at least this many vertices share their O(E) passes with
/// a second thread: cubed-sphere dual graphs from `Ne = 74` on.
///
/// Measured on a 2-vCPU VM with the second vCPU idle, a mesh build plus
/// an SFC partition and report: from `Ne = 75` on, the second thread
/// saves 26–38 % of the wall time for at most 12 % more CPU; at `Ne`
/// 40–64 it saves at most 29 % for 12–62 % more CPU. With the second vCPU busy, a
/// report takes longer on two threads at every size measured (28–97 %
/// at `Ne` 64–128), which is why the fork waits for an idle core.
/// Smaller graphs, among them every graph of the paper grid, run on the
/// calling thread alone.
pub const PARALLEL_MIN_VERTICES: usize = 32_768;

/// Run `task(state, chunk)` on every chunk and return the results in
/// chunk order. With `share`, the calling thread and one `rayon::join`
/// worker claim the chunks one at a time; each thread makes its `state`
/// with `init` when it claims its first chunk and reuses it for the
/// rest. Without `share`, the calling thread runs them all.
pub fn share_chunks<X, S, T, I, F>(chunks: Vec<X>, share: bool, init: I, task: F) -> Vec<T>
where
    X: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, X) -> T + Sync,
{
    let slots: Vec<Mutex<Option<X>>> = chunks.into_iter().map(|x| Mutex::new(Some(x))).collect();
    // The counter hands out slot indices and publishes nothing else: the
    // chunks travel through their slots, the results through the join.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut state = None;
        let mut done = Vec::new();
        loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(c) else {
                return done;
            };
            let chunk = slot
                .lock()
                .expect("a chunk's slot is locked only to take it")
                .take()
                .expect("each index is claimed once");
            let state = state.get_or_insert_with(&init);
            done.push((c, task(state, chunk)));
        }
    };
    let (mut done, theirs) = if share {
        rayon::join(claim, claim)
    } else {
        (claim(), Vec::new())
    };
    done.extend(theirs);
    done.sort_unstable_by_key(|&(c, _)| c);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_runs_once_and_results_keep_chunk_order() {
        for share in [false, true] {
            let inits = AtomicUsize::new(0);
            let out = share_chunks(
                (0..9).collect(),
                share,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, c: usize| c * 10,
            );
            assert_eq!(out, (0..9).map(|c| c * 10).collect::<Vec<_>>());
            assert!(inits.load(Ordering::Relaxed) <= 1 + share as usize);
        }
        assert!(share_chunks(Vec::<usize>::new(), true, || (), |_, c| c).is_empty());
    }

    #[test]
    fn a_full_budget_runs_every_chunk_on_the_caller() {
        // Other tests' threads can only add holders, and a holder more
        // can only prevent a fork: with the budget filled by threads
        // inside `rayon::occupy`, one thread claims every chunk.
        let holders = rayon::current_num_threads();
        let entered = std::sync::Barrier::new(holders + 1);
        let release = std::sync::Barrier::new(holders + 1);
        std::thread::scope(|s| {
            for _ in 0..holders {
                s.spawn(|| {
                    rayon::occupy(|| {
                        entered.wait();
                        release.wait();
                    })
                });
            }
            entered.wait();
            let inits = AtomicUsize::new(0);
            let out = share_chunks(
                (0..9).collect(),
                true,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, c: usize| {
                    // The first chunk gives a forked worker, were there
                    // one, time to claim a chunk of its own and show.
                    let start = std::time::Instant::now();
                    while c == 0
                        && inits.load(Ordering::Relaxed) < 2
                        && start.elapsed() < std::time::Duration::from_millis(50)
                    {
                        std::thread::yield_now();
                    }
                    c * 10
                },
            );
            release.wait();
            assert_eq!(out, (0..9).map(|c| c * 10).collect::<Vec<_>>());
            assert_eq!(inits.load(Ordering::Relaxed), 1);
        });
    }
}
