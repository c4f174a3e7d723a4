//! Property tests for the work-stealing pool: for every pool size (including
//! a forced single-participant pool), every chunk size, and arbitrary item
//! counts, the parallel combinators must be observationally identical to
//! their sequential counterparts — same values, same order, same panics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use eyecod_pool::ThreadPool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `parallel_map` returns exactly `items.map(f)` in order, for any
    /// worker count (0 = caller-only), any chunk granularity and any input
    /// length — including empty, singleton, and `len < chunk`.
    #[test]
    fn map_matches_sequential(
        items in collection::vec(-1_000i64..1_000, 0..97),
        workers in 0usize..5,
        chunk in 1usize..33,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let f = |&x: &i64| x.wrapping_mul(31).wrapping_add(7);
        let expected: Vec<i64> = items.iter().map(f).collect();
        prop_assert_eq!(pool.parallel_map_chunked(&items, chunk, f), expected.clone());
        prop_assert_eq!(pool.parallel_map(&items, f), expected);
    }

    /// The auto-chunking entry point preserves order for non-Copy results
    /// (exercises the MaybeUninit slot writes with heap-owning values).
    #[test]
    fn map_preserves_order_for_owned_results(
        len in 0usize..129,
        workers in 0usize..5,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let items: Vec<usize> = (0..len).collect();
        let out = pool.parallel_map(&items, |&i| format!("item-{i}"));
        prop_assert_eq!(out.len(), len);
        for (i, s) in out.iter().enumerate() {
            let want = format!("item-{i}");
            prop_assert_eq!(s.as_str(), want.as_str());
        }
    }

    /// `parallel_for_chunked` visits every index exactly once, whatever the
    /// chunking or pool size.
    #[test]
    fn for_covers_each_index_once(
        n in 0usize..200,
        workers in 0usize..5,
        chunk in 1usize..41,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_chunked(n, chunk, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} hit count", i);
        }
    }

    /// A panic at an arbitrary item index propagates to the caller with its
    /// payload intact, and the pool stays usable afterwards.
    #[test]
    fn panic_propagates_and_pool_survives(
        len in 1usize..80,
        workers in 0usize..4,
        chunk in 1usize..17,
        panic_seed in 0usize..1_000,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let bad = panic_seed % len;
        let items: Vec<usize> = (0..len).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map_chunked(&items, chunk, |&i| {
                if i == bad {
                    panic!("boom at {i}");
                }
                i * 2
            })
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        prop_assert!(msg.starts_with("boom at "), "payload was {:?}", msg);
        // the same pool must still run clean jobs to completion
        let ok = pool.parallel_map_chunked(&items, chunk, |&i| i + 1);
        prop_assert_eq!(ok, (1..=len).collect::<Vec<_>>());
    }

    /// A forced single-participant pool (one worker) and the caller-only
    /// pool (zero workers) agree with each other and with sequential.
    #[test]
    fn one_thread_pool_equals_sequential(
        items in collection::vec(0u32..10_000, 0..64),
        chunk in 1usize..9,
    ) {
        let one = ThreadPool::with_threads(1);
        let zero = ThreadPool::with_threads(0);
        let f = |&x: &u32| x / 3 + x % 7;
        let expected: Vec<u32> = items.iter().map(f).collect();
        prop_assert_eq!(one.parallel_map_chunked(&items, chunk, f), expected.clone());
        prop_assert_eq!(zero.parallel_map_chunked(&items, chunk, f), expected);
    }
}

/// Degenerate shapes that deserve explicit (non-random) coverage.
#[test]
fn empty_singleton_and_undersized_inputs() {
    for workers in [0usize, 1, 3] {
        let pool = ThreadPool::with_threads(workers);
        let empty: Vec<i32> = vec![];
        assert_eq!(pool.parallel_map(&empty, |&x| x), Vec::<i32>::new());
        assert_eq!(
            pool.parallel_map_chunked(&empty, 8, |&x| x),
            Vec::<i32>::new()
        );
        assert_eq!(pool.parallel_map(&[41], |&x| x + 1), vec![42]);
        // len < chunk: the whole slice is one chunk, still correct
        assert_eq!(
            pool.parallel_map_chunked(&[1, 2, 3], 64, |&x| x * 10),
            vec![10, 20, 30]
        );
    }
}

/// Dropping a pool wakes every parked worker. A worker checks the shutdown
/// flag under the queue lock and then waits on the work condvar, so `Drop`
/// must store the flag under that lock too: stored and notified between a
/// worker's check and its wait, the wake-up is lost, the worker sleeps
/// forever and `Drop`'s `join` hangs. Sequential create/run/drop cycles of
/// 1–3-worker pools hit that window within tens of thousands of cycles.
/// The loop runs on a spawned thread, so a lost wake-up fails the test at
/// the deadline instead of hanging it; each pool is dropped before the
/// next is built, so at most three workers are alive at once.
#[test]
fn drop_never_loses_the_shutdown_wake_up() {
    const CYCLES: usize = 40_000;
    let (done, finished) = mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for i in 0..CYCLES {
            let pool = ThreadPool::with_threads(1 + i % 3);
            let hits = AtomicUsize::new(0);
            pool.parallel_for_chunked(4, 1, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), 4, "cycle {i}");
            drop(pool);
        }
        done.send(()).unwrap();
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("a pool drop hung: a worker missed the shutdown wake-up");
    }
    // finished, or panicked before sending: joining surfaces the panic
    cycles.join().expect("the create/run/drop loop panicked");
}
