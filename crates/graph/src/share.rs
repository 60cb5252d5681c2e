//! The process's one core budget, its fork rule and its one fan-out.
//!
//! [`join`] runs its second closure on a new thread only while the
//! threads that hold a core are fewer than the budget ([`set_budget`]).
//! A thread holds a core while it runs a `join`, a forked closure or an
//! [`occupy`] scope, and it counts once however these nest. A caller that
//! registered nothing (the CLI's main thread) counts as one from the
//! moment it calls `join`, so alone it forks as it always did; a service
//! whose workers each run their requests inside `occupy` forks only onto
//! a core that no other request holds.
//!
//! [`share_chunks`] is the fan-out: up to `threads` claimers, each
//! started by a `join`, take chunks one at a time from a shared counter.
//! A claimer that starts late (waking an idle core takes a fraction of a
//! millisecond) or gets no core of its own claims fewer chunks instead of
//! holding the others up. The experiment grid runs on it one cell per
//! chunk, and from [`PARALLEL_MIN_VERTICES`] vertices on the dual-graph
//! fill, [`CsrGraph::validate`](crate::CsrGraph::validate) and
//! [`cut_sweep`](crate::metrics::cut_sweep) share their chunks between two
//! claimers. Every chunk runs once and the results come back in chunk
//! order, so an output never depends on which thread ran which chunk.

use std::cell::Cell;
use std::num::NonZeroUsize;
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

/// The budget set by [`set_budget`]; 0 means "automatic".
static BUDGET_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Threads that hold a core, across the whole process: threads inside
/// [`occupy`] (which `join` enters too) plus the threads `join` has
/// forked. Every access is `Relaxed`: the count publishes no other data,
/// and a stale read only makes one `join` fork or run inline, which no
/// result depends on.
static HOLDERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// How deeply this thread is nested in `occupy` scopes; it is one of
    /// the [`HOLDERS`] exactly while this is above zero.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Set the core budget for the whole process: `0` restores the automatic
/// default, `1` runs every `join` and fan-out inline on its caller, and
/// any other value caps the threads that hold a core at once.
pub fn set_budget(n: usize) {
    BUDGET_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The core budget: the [`set_budget`] value, or by default
/// `available_parallelism` clamped to `2..=8` (at least 2, so that
/// concurrency is exercised even on a single-core machine).
pub fn budget() -> usize {
    match BUDGET_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(2, 8),
        n => n,
    }
}

/// Run `f` with the calling thread counted as holding a core, so that a
/// [`join`] anywhere in the process forks only onto a core that is left
/// over. Scopes nest: a thread counts once, however deep. The slot is
/// released when `f` returns or unwinds.
pub fn occupy<R>(f: impl FnOnce() -> R) -> R {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            let depth = DEPTH.get() - 1;
            DEPTH.set(depth);
            if depth == 0 {
                HOLDERS.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    let depth = DEPTH.get();
    if depth == 0 {
        HOLDERS.fetch_add(1, Ordering::Relaxed);
    }
    DEPTH.set(depth + 1);
    let _leave = Leave;
    f()
}

/// Run two closures, `b` on a second thread while fewer threads than the
/// budget hold a core (the caller included), and return both results.
/// Both always run to completion, a panic in either propagates, and with
/// no core left over both run inline, `a` first; callers must not rely on
/// the order.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = budget();
    occupy(|| {
        // Reserve a core for the forked thread if one is left over.
        let reserved = HOLDERS
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |holders| {
                (holders < budget).then_some(holders + 1)
            })
            .is_ok();
        if !reserved {
            return (a(), b());
        }
        struct Release;
        impl Drop for Release {
            fn drop(&mut self) {
                HOLDERS.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _release = Release;
        std::thread::scope(|s| {
            let hb = s.spawn(|| {
                // The reservation above already counts this thread.
                DEPTH.set(1);
                b()
            });
            let ra = a();
            match hb.join() {
                Ok(rb) => (ra, rb),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    })
}

/// Run `task(state, chunk)` on every chunk and return the results in
/// chunk order. The calling thread and up to `threads - 1` forked ones
/// claim the chunks one at a time; each fork obeys the rule of [`join`].
/// Each claimer makes its `state` with `init` when it claims its first
/// chunk and reuses it for the rest.
pub fn share_chunks<X, S, T, I, F>(chunks: Vec<X>, threads: usize, init: I, task: F) -> Vec<T>
where
    X: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, X) -> T + Sync,
{
    let slots: Vec<Mutex<Option<X>>> = chunks.into_iter().map(|x| Mutex::new(Some(x))).collect();
    // The counter hands out slot indices and publishes nothing else: the
    // chunks travel through their slots, the results through the joins.
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
    let mut done = fan_out(threads, &claim);
    done.sort_unstable_by_key(|&(c, _)| c);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Run `claim` on up to `threads` threads and concatenate what they
/// return. The caller starts the other claimers before it claims itself;
/// one whose fork is refused runs on the caller afterwards and finds no
/// chunk left.
fn fan_out<T: Send>(threads: usize, claim: &(impl Fn() -> Vec<T> + Sync)) -> Vec<T> {
    if threads <= 1 {
        return claim();
    }
    let (mut done, theirs) = join(|| fan_out(threads - 1, claim), claim);
    done.extend(theirs);
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_runs_once_and_results_keep_chunk_order() {
        for threads in [1, 2, 3] {
            let inits = AtomicUsize::new(0);
            let out = share_chunks(
                (0..9).collect(),
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, c: usize| c * 10,
            );
            assert_eq!(out, (0..9).map(|c| c * 10).collect::<Vec<_>>());
            assert!(inits.load(Ordering::Relaxed) <= threads);
            assert!(share_chunks(Vec::<usize>::new(), threads, || (), |_, c| c).is_empty());
        }
    }
}
