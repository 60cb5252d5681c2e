//! The fork rule: `join` forks only while the threads that hold a core
//! are fewer than the budget. A binary of its own, so that no other test
//! shares `cubesfc_graph::share`'s process-wide counts; the cases below
//! take one lock each, because each sets the budget or counts the
//! holders.

use cubesfc_graph::share;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the lock and set the budget; a failed case must not poison the
/// others.
fn with_budget(budget: usize) -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    share::set_budget(budget);
    guard
}

/// The thread that ran `join`'s `b`.
fn b_thread() -> ThreadId {
    share::join(|| (), || thread::current().id()).1
}

/// Run `check` while `holders` other threads sit inside `occupy`.
fn with_holders<R>(holders: usize, check: impl FnOnce() -> R) -> R {
    let entered = Barrier::new(holders + 1);
    let release = Barrier::new(holders + 1);
    thread::scope(|s| {
        for _ in 0..holders {
            s.spawn(|| {
                share::occupy(|| {
                    entered.wait();
                    release.wait();
                })
            });
        }
        entered.wait();
        let r = check();
        release.wait();
        r
    })
}

#[test]
fn a_full_budget_runs_b_on_the_callers_thread() {
    let _g = with_budget(3);
    let me = thread::current().id();
    // Two holders and the caller inside `occupy`: three of three.
    assert_eq!(with_holders(2, || share::occupy(b_thread)), me);
    // An unregistered caller counts as one too.
    assert_eq!(with_holders(2, b_thread), me);
    // One core left over: `b` gets it.
    assert_ne!(with_holders(1, || share::occupy(b_thread)), me);
    assert_ne!(with_holders(1, b_thread), me);
}

#[test]
fn a_panic_inside_occupy_releases_its_slot() {
    let _g = with_budget(3);
    let me = thread::current().id();
    // A request that panics on this thread, and one whose thread dies of
    // its panic.
    let r = std::panic::catch_unwind(|| share::occupy(|| panic!("request boom")));
    assert!(r.is_err());
    let r = thread::spawn(|| share::occupy(|| panic!("worker boom"))).join();
    assert!(r.is_err());
    // A leaked slot would make this one holder plus the caller plus the
    // leak: three of three, and no fork.
    assert_ne!(with_holders(1, b_thread), me);
}

#[test]
fn nested_occupy_counts_once() {
    let _g = with_budget(2);
    let me = thread::current().id();
    // One holder of two, however deep: `b` still gets the second core.
    let nested = share::occupy(|| share::occupy(|| share::occupy(b_thread)));
    assert_ne!(nested, me);

    // A forked `b` holds the core its fork reserved, and no more: with
    // the caller and the forked thread two of three, a join nested in
    // the forked thread's own scopes forks once more.
    share::set_budget(3);
    let (here, inner) = share::join(
        || (),
        || {
            let here = thread::current().id();
            (here, share::occupy(|| share::occupy(b_thread)))
        },
    )
    .1;
    assert_ne!(here, me);
    assert_ne!(inner, here);
    assert_ne!(inner, me);
}

#[test]
fn one_job_runs_every_join_inline() {
    let _g = with_budget(1);
    let me = thread::current().id();
    assert_eq!(b_thread(), me);
    assert_eq!(with_holders(0, b_thread), me);
}

#[test]
fn join_returns_both_results_in_order() {
    let _g = with_budget(0);
    let (a, b) = share::join(|| 1 + 1, || "two");
    assert_eq!(a, 2);
    assert_eq!(b, "two");
}

#[test]
fn join_nests() {
    let _g = with_budget(0);
    fn sum(lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = share::join(|| sum(lo, mid), || sum(mid, hi));
        a + b
    }
    assert_eq!(sum(0, 10_000), 10_000 * 9_999 / 2);
}

#[test]
fn join_propagates_panics() {
    let _g = with_budget(0);
    let r = std::panic::catch_unwind(|| share::join(|| 1, || panic!("worker boom")));
    assert!(r.is_err());
}

#[test]
fn budget_override_round_trips() {
    let _g = with_budget(1);
    assert_eq!(share::budget(), 1);
    let (a, b) = share::join(|| 7, || 11); // must run inline, still correct
    assert_eq!((a, b), (7, 11));
    share::set_budget(0);
    assert!(share::budget() >= 2);
}

#[test]
fn a_full_budget_runs_every_chunk_on_the_caller() {
    let _g = with_budget(0);
    // With the budget filled by threads inside `occupy`, one thread
    // claims every chunk.
    let holders = share::budget();
    let inits = AtomicUsize::new(0);
    let out = with_holders(holders, || {
        share::share_chunks(
            (0..9).collect(),
            2,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, c: usize| {
                // The first chunk gives a forked claimer, were there
                // one, time to claim a chunk of its own and show.
                let start = Instant::now();
                while c == 0
                    && inits.load(Ordering::Relaxed) < 2
                    && start.elapsed() < Duration::from_millis(50)
                {
                    thread::yield_now();
                }
                c * 10
            },
        )
    });
    assert_eq!(out, (0..9).map(|c| c * 10).collect::<Vec<_>>());
    assert_eq!(inits.load(Ordering::Relaxed), 1);
}

#[test]
fn three_claimers_under_a_budget_of_two_use_two_threads() {
    let _g = with_budget(2);
    let seen = Mutex::new(HashSet::new());
    let out = share::share_chunks(
        (0..12).collect(),
        3,
        || (),
        |_, c: usize| {
            seen.lock().unwrap().insert(thread::current().id());
            // Long enough that every claimer that was started gets a
            // chunk before the counter runs out.
            thread::sleep(Duration::from_millis(2));
            c * 10
        },
    );
    assert_eq!(out, (0..12).map(|c| c * 10).collect::<Vec<_>>());
    let threads = seen.into_inner().unwrap().len();
    assert!((1..=2).contains(&threads), "{threads} threads ran tasks");
}
