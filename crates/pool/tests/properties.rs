//! Property tests for the pool: for every pool size (including the
//! caller-only pool) and arbitrary item counts, the parallel combinators
//! must be observationally identical to their sequential counterparts —
//! same values, same order, same panics — and `for_each_mut` must hand
//! every element to exactly one call.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use eyecod_pool::ThreadPool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `parallel_map` returns exactly `items.map(f)` in order, for any
    /// worker count (0 = caller-only) and any input length — including
    /// empty and singleton.
    #[test]
    fn map_matches_sequential(
        items in collection::vec(-1_000i64..1_000, 0..97),
        workers in 0usize..5,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let f = |&x: &i64| x.wrapping_mul(31).wrapping_add(7);
        let expected: Vec<i64> = items.iter().map(f).collect();
        prop_assert_eq!(pool.parallel_map(&items, f), expected);
    }

    /// Order is preserved for non-Copy results (heap-owning values moved
    /// out of the `Option` slots).
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

    /// `for_each_mut` hands every index to exactly one call, with that
    /// index's own element: each call counts its index and writes its
    /// `&mut`, and afterwards every element reads back its one write.
    #[test]
    fn for_each_mut_hands_each_index_to_one_call(
        len in prop_oneof![Just(0usize), Just(1usize), 2usize..200],
        workers in 0usize..5,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); len];
        pool.for_each_mut(&mut items, |i, item| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            *item = (i, item.1 + 1);
        });
        for (i, (h, item)) in hits.iter().zip(&items).enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} hit count", i);
            prop_assert_eq!(*item, (i, 1), "index {} element", i);
        }
    }

    /// A panic at an arbitrary item index propagates to the caller with its
    /// payload intact, and the pool stays usable afterwards.
    #[test]
    fn panic_propagates_and_pool_survives(
        len in 1usize..80,
        workers in 0usize..4,
        panic_seed in 0usize..1_000,
    ) {
        let pool = ThreadPool::with_threads(workers);
        let bad = panic_seed % len;
        let items: Vec<usize> = (0..len).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&i| {
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
        prop_assert_eq!(msg, format!("boom at {bad}"));
        // the same pool must still run clean jobs to completion
        let ok = pool.parallel_map(&items, |&i| i + 1);
        prop_assert_eq!(ok, (1..=len).collect::<Vec<_>>());
    }

    /// A one-worker pool and the caller-only pool (zero workers) agree
    /// with each other and with sequential.
    #[test]
    fn one_thread_pool_equals_sequential(
        items in collection::vec(0u32..10_000, 0..64),
    ) {
        let one = ThreadPool::with_threads(1);
        let zero = ThreadPool::with_threads(0);
        let f = |&x: &u32| x / 3 + x % 7;
        let expected: Vec<u32> = items.iter().map(f).collect();
        prop_assert_eq!(one.parallel_map(&items, f), expected.clone());
        prop_assert_eq!(zero.parallel_map(&items, f), expected);
    }
}

/// Degenerate shapes that deserve explicit (non-random) coverage.
#[test]
fn empty_singleton_and_undersized_inputs() {
    for workers in [0usize, 1, 3] {
        let pool = ThreadPool::with_threads(workers);
        let empty: Vec<i32> = vec![];
        assert_eq!(pool.parallel_map(&empty, |&x| x), Vec::<i32>::new());
        assert_eq!(pool.try_parallel_map(&empty, |&x| x), Vec::new());
        pool.for_each_mut(&mut [] as &mut [i32], |_, _| unreachable!());
        assert_eq!(pool.parallel_map(&[41], |&x| x + 1), vec![42]);
        // fewer items than participants: some participants find no work
        assert_eq!(pool.parallel_map(&[1, 2, 3], |&x| x * 10), vec![10, 20, 30]);
    }
}

/// A panic inside `for_each_mut` reaches the caller with its original
/// payload (not a message copy), and the pool runs the next job.
#[test]
fn for_each_mut_panic_keeps_its_payload_and_the_pool() {
    #[derive(Debug, PartialEq)]
    struct Payload(usize);
    for workers in [0usize, 1, 3] {
        let pool = ThreadPool::with_threads(workers);
        let mut items = vec![0u32; 64];
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |i, item| {
                if i == 37 {
                    std::panic::panic_any(Payload(i));
                }
                *item = 1;
            })
        }))
        .expect_err("panic must propagate");
        assert_eq!(err.downcast_ref::<Payload>(), Some(&Payload(37)));
        assert_eq!(items[37], 0, "the panicking call wrote nothing");
        pool.for_each_mut(&mut items, |i, item| *item = i as u32);
        assert_eq!(items, (0..64).collect::<Vec<u32>>());
    }
}

/// After an item panics no new item starts: item 0 panics at once while
/// every other item takes 10 ms, so only the items already claimed when
/// the panic swaps the cursor run, not the whole job.
#[test]
fn a_panic_stops_new_items_from_starting() {
    let pool = ThreadPool::with_threads(3);
    let started = AtomicUsize::new(0);
    let mut items = vec![0u8; 128];
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_mut(&mut items, |i, _| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                panic!("first item");
            }
            std::thread::sleep(Duration::from_millis(10));
        })
    }));
    assert!(err.is_err(), "the panic must propagate");
    let started = started.into_inner();
    assert!(started <= 64, "{started} of 128 items started");
}

/// Several workers really take part in a job: 64 items that each sleep
/// 1 ms on a three-worker pool are run by more than one thread.
#[test]
fn actually_uses_multiple_threads_for_large_inputs() {
    let pool = ThreadPool::with_threads(3);
    let ids = Mutex::new(HashSet::new());
    let mut items = vec![0u8; 64];
    pool.for_each_mut(&mut items, |_, _| {
        std::thread::sleep(Duration::from_millis(1));
        ids.lock().unwrap().insert(std::thread::current().id());
    });
    let n = ids.lock().unwrap().len();
    assert!(n > 1, "expected multiple worker threads, saw {n}");
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
            pool.for_each_mut(&mut [(); 4], |_, _| {
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
