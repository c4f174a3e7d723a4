//! Concurrency stress: many independent caller threads hammering the same
//! pool simultaneously must all complete with correct results — no deadlock,
//! no cross-job interference. This is the scenario the pool hits when
//! dataset sweeps and sequence evaluations overlap.

use std::sync::Arc;

use eyecod_pool::{global, ThreadPool};

/// 64 concurrent `parallel_map` calls issued from 16 caller threads sharing
/// one small pool. Callers participate in their own jobs, so even a pool
/// with fewer workers than callers cannot deadlock; every call must return
/// the exact sequential result.
#[test]
fn sixty_four_concurrent_maps_from_many_callers() {
    let pool = Arc::new(ThreadPool::with_threads(3));
    let callers = 16;
    let calls_per_caller = 4; // 64 total

    let handles: Vec<_> = (0..callers)
        .map(|caller| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for round in 0..calls_per_caller {
                    let base = (caller * 1_000 + round * 37) as u64;
                    let items: Vec<u64> = (0..128).map(|i| base + i).collect();
                    let got = pool.parallel_map(&items, |&x| x * x + 1);
                    let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
                    assert_eq!(got, want, "caller {caller} round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread panicked");
    }
}

/// Same pressure through the process-global pool, with nested parallelism
/// inside each job (a map whose items themselves call `parallel_map`) —
/// re-entrancy must not deadlock.
#[test]
fn concurrent_nested_maps_on_global_pool() {
    let handles: Vec<_> = (0..8)
        .map(|caller: u64| {
            std::thread::spawn(move || {
                let outer: Vec<u64> = (0..8).map(|i| caller * 100 + i).collect();
                let got = global().parallel_map(&outer, |&x| {
                    let inner: Vec<u64> = (0..16).map(|i| x + i).collect();
                    global()
                        .parallel_map(&inner, |&y| y * 2)
                        .iter()
                        .sum::<u64>()
                });
                let want: Vec<u64> = outer
                    .iter()
                    .map(|&x| (0..16).map(|i| (x + i) * 2).sum::<u64>())
                    .collect();
                assert_eq!(got, want, "caller {caller}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread panicked");
    }
}

/// `for_each_mut` nested inside `parallel_map` on the global pool: every
/// outer item fills its own buffer through an inner job, and all complete.
#[test]
fn for_each_mut_nested_in_parallel_map_on_global_pool() {
    let outer: Vec<usize> = (0..12).collect();
    let sums = global().parallel_map(&outer, |&o| {
        let mut buf = vec![0usize; 40];
        global().for_each_mut(&mut buf, |i, v| *v = o * 1_000 + i);
        buf.iter().sum::<usize>()
    });
    for (o, &sum) in sums.iter().enumerate() {
        assert_eq!(sum, (0..40).map(|i| o * 1_000 + i).sum::<usize>());
    }
}

/// Panics in some concurrent jobs must not corrupt unrelated jobs running
/// on the same pool at the same time.
#[test]
fn concurrent_panics_do_not_poison_other_jobs() {
    let pool = Arc::new(ThreadPool::with_threads(2));
    let handles: Vec<_> = (0..12)
        .map(|caller: usize| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let items: Vec<usize> = (0..64).collect();
                if caller.is_multiple_of(3) {
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.parallel_map(&items, |&i| {
                            if i == 40 {
                                panic!("job {caller} exploded");
                            }
                            i
                        })
                    }));
                    assert!(err.is_err(), "caller {caller} expected a panic");
                } else {
                    let got = pool.parallel_map(&items, |&i| i + caller);
                    let want: Vec<usize> = items.iter().map(|&i| i + caller).collect();
                    assert_eq!(got, want, "caller {caller}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread panicked");
    }
}
