//! Process-wide thread pool for the EyeCoD pipeline.
//!
//! The pipeline's parallel calls are few and heavy: one tracker frame per
//! session per serve tick, one render + acquire per training sample, one
//! sequence or experiment case per item. The pool serves them with the
//! plainest schedule that keeps every core busy:
//!
//! - **One pool per process** ([`global`], built on first use via
//!   `std::sync::OnceLock`); worker threads are created once and reused by
//!   every call in the program.
//! - **One shared cursor per job.** A job over `0..n` is one
//!   `AtomicUsize`: every participant (the workers and the calling thread)
//!   claims the next single item with `fetch_add` until the cursor passes
//!   `n`. Claiming takes no lock; locks and condvars only appear on the
//!   cold submit/park/complete paths.
//! - **One disjoint-write primitive.** [`ThreadPool::for_each_mut`] hands
//!   each element of a `&mut [T]` to exactly one call. It holds the pool's
//!   only index-to-`&mut` `unsafe`; [`ThreadPool::parallel_map`] builds on
//!   it (ordered results in `Option<R>` slots), and
//!   [`ThreadPool::try_parallel_map`] on that.
//! - **Caller participation.** The submitting thread works the job too,
//!   which makes nested calls deadlock-free: the inner call always has at
//!   least one thread (itself) draining it, even if every worker is busy.
//! - **Panic propagation.** If an item panics, the job keeps the first
//!   payload and swaps its cursor to `n`: no new item starts, items already
//!   started finish, and the payload is re-thrown in the caller via
//!   `resume_unwind`.
//! - **Panic isolation** ([`ThreadPool::try_parallel_map`]): fault-tolerant
//!   callers get `Err(message)` for exactly the items whose closure
//!   panicked while every other item completes — the substrate for the
//!   pipeline's worker-death recovery path (caught panics are counted in
//!   `pool/item_panics_caught`).
//!
//! Callers with many cheap items group them into a few heavier ones (say,
//! rows in chunks of 128) before mapping, since every item is one claim.
//!
//! # Telemetry
//!
//! With the `telemetry` feature (default on) the pool records `pool/jobs`,
//! a `pool/job_wall_ns` histogram, `pool/item_panics_caught` and the
//! `pool/workers` gauge into the [`eyecod_telemetry`] global registry. The
//! counters move once per job (or per caught panic), never per item;
//! disable at runtime with `EYECOD_TELEMETRY=0` or compile out with
//! `--no-default-features`.

use eyecod_telemetry::{static_counter, static_histogram};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Type-erased pointer to the caller's stack context plus the monomorphic
/// trampoline that executes one item through it.
struct TaskRef {
    ctx: *const (),
    run: unsafe fn(*const (), usize),
}

// SAFETY: `ctx` points at a `&(dyn Fn(usize) + Sync)`, which any thread may
// call; the submitting thread keeps it alive until the job's completion
// latch fires, and a participant dereferences it only to run an item it
// claimed, before that item's `complete()` decrement — so the pointer
// never dangles while reachable. `run` is a plain function pointer.
unsafe impl Send for TaskRef {}
// SAFETY: as for `Send`; participants only read both fields.
unsafe impl Sync for TaskRef {}

/// Shared state of one submitted job.
struct JobCore {
    /// The next unclaimed item. Participants `fetch_add` it; a panic swaps
    /// it to `items`, so no new item starts. `Relaxed` suffices: the cursor
    /// publishes no data (every read-modify-write returns a distinct value
    /// under any ordering), and results reach the caller through
    /// `unfinished`'s `AcqRel` decrements and the `done` mutex.
    next: AtomicUsize,
    items: usize,
    /// Items not yet executed (or skipped after a panic). Hitting zero
    /// fires the completion latch.
    unfinished: AtomicUsize,
    /// The first panic's payload; later ones are dropped.
    panic_payload: Mutex<Option<PanicPayload>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    task: TaskRef,
}

impl JobCore {
    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.items
    }

    /// Works the job until the cursor passes the last item.
    fn participate(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items {
                return;
            }
            // SAFETY: `i < items` was claimed by this participant alone, and
            // the caller keeps `ctx` alive until this item's `complete()`
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
                (self.task.run)(self.task.ctx, i)
            }));
            let mut finished = 1;
            if let Err(payload) = outcome {
                lock(&self.panic_payload).get_or_insert(payload);
                // items the cursor had not reached are skipped: `swap`
                // hands each of them to exactly one skipper, and every
                // item below the old cursor was claimed by a `fetch_add`
                let reached = self.next.swap(self.items, Ordering::Relaxed);
                finished += self.items.saturating_sub(reached);
            }
            self.complete(finished);
        }
    }

    fn complete(&self, n: usize) {
        if self.unfinished.fetch_sub(n, Ordering::AcqRel) == n {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }
}

/// Locks a mutex, recovering from poisoning (a panicking participant must
/// not wedge the pool).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct PoolShared {
    /// Pending jobs (cold path). Jobs are pushed on submit and removed by
    /// their submitter once complete; workers only scan.
    queue: Mutex<Vec<Arc<JobCore>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.iter().find(|j| j.has_work()).cloned() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.participate();
    }
}

/// `&mut [T]`'s base pointer, shared with the participants of one
/// [`ThreadPool::for_each_mut`] job.
struct Elements<T>(*mut T);

// SAFETY: the one field is only dereferenced through `get`, whose callers
// pass each index of the borrowed slice at most once, so no element is
// reached from two threads; `T: Send` lets an element's `&mut` (and so
// its mutation or drop) move to the participant that claimed it.
unsafe impl<T: Send> Sync for Elements<T> {}

impl<T> Elements<T> {
    /// The element at `i`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds of the slice this pointer came from, that slice is
    /// still mutably borrowed, and no other live reference reaches the
    /// element.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        unsafe { &mut *self.0.add(i) }
    }
}

/// A reusable pool of persistent workers. Most code should use the
/// process-wide [`global`] pool; dedicated instances exist for callers
/// that need a fixed worker count (tests, a serve registry's own pool).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl ThreadPool {
    /// Builds a pool with exactly `workers` background threads. The
    /// calling thread of each job always participates too, so
    /// `with_threads(0)` is a valid, fully sequential pool.
    pub fn with_threads(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("eyecod-pool-{slot}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            workers,
        }
    }

    /// How many threads execute a job concurrently: the background workers
    /// plus the calling thread, which always participates. A sequential
    /// pool (`with_threads(0)`) reports 1.
    pub fn participants(&self) -> usize {
        self.workers + 1
    }

    /// Calls `f(i, &mut items[i])` once for every index, in parallel. Each
    /// element is handed to exactly one call, so `f` may mutate it freely.
    ///
    /// # Panics
    ///
    /// If `f` panics, no new call starts, calls already started finish,
    /// and the first panic is re-thrown here with its original payload.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let elements = Elements(items.as_mut_ptr());
        // SAFETY: `run_job` calls this with each index in `0..len` at most
        // once and returns only after every started call has finished, and
        // `items` stays mutably borrowed until then
        let run_item = |i: usize| f(i, unsafe { elements.get(i) });
        if let Err(payload) = self.run_job(items.len(), &run_item) {
            panic::resume_unwind(payload)
        }
    }

    /// Maps `f` over `items` in parallel, preserving order.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic of `f`, as [`ThreadPool::for_each_mut`].
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(&items[i])));
        out.into_iter()
            .map(|r| r.expect("every item ran"))
            .collect()
    }

    /// Panic-isolating [`ThreadPool::parallel_map`]: a panicking item
    /// yields `Err(message)` in its own slot instead of poisoning the
    /// whole job, and every other item still completes.
    ///
    /// This is the execution substrate for graceful pipeline degradation:
    /// a worker dying mid-job (injected or real) costs exactly the items
    /// it was running, which the caller can retry or substitute. Caught
    /// panics are counted in `pool/item_panics_caught`.
    pub fn try_parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, String>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map(items, |item| {
            panic::catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
                static_counter!("pool/item_panics_caught").inc();
                panic_message(&payload)
            })
        })
    }

    /// Shared engine: executes `run_item(i)` for all `i in 0..n`, inline
    /// when there is nothing to share (no workers, or one item), else
    /// through one cursor shared with the workers.
    fn run_job(&self, n: usize, run_item: &(dyn Fn(usize) + Sync)) -> Result<(), PanicPayload> {
        if n == 0 {
            return Ok(());
        }
        static_counter!("pool/jobs").inc();
        let _job_timer = static_histogram!("pool/job_wall_ns").timer();
        if self.workers == 0 || n == 1 {
            return panic::catch_unwind(AssertUnwindSafe(|| (0..n).for_each(run_item)));
        }

        /// # Safety
        ///
        /// `ctx` points at a live `&(dyn Fn(usize) + Sync)`.
        unsafe fn trampoline(ctx: *const (), i: usize) {
            // SAFETY: the caller guarantees `ctx`'s type and liveness
            let f = unsafe { &**(ctx as *const &(dyn Fn(usize) + Sync)) };
            f(i)
        }
        let ctx: &&(dyn Fn(usize) + Sync) = &run_item;
        let job = Arc::new(JobCore {
            next: AtomicUsize::new(0),
            items: n,
            unfinished: AtomicUsize::new(n),
            panic_payload: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            task: TaskRef {
                ctx: ctx as *const _ as *const (),
                run: trampoline,
            },
        });

        lock(&self.shared.queue).push(Arc::clone(&job));
        self.shared.work_cv.notify_all();

        // the caller works its own job: guarantees progress even when every
        // worker is busy (nested calls, many concurrent callers)
        job.participate();

        let mut done = lock(&job.done);
        while !*done {
            done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);

        let mut q = lock(&self.shared.queue);
        if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, &job)) {
            q.remove(pos);
        }
        drop(q);

        let payload = lock(&job.panic_payload).take();
        payload.map_or(Ok(()), Err)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Store the flag under the queue lock: a worker checks it under
        // that lock and then waits, so a store (and notify) between its
        // check and its wait would be a lost wake-up and `join` would hang.
        let q = lock(&self.shared.queue);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(q);
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Renders a panic payload as a message, preserving `&str`/`String`
/// payloads (the common `panic!` cases).
fn panic_message(payload: &PanicPayload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, built on first use. Sized to the machine
/// (`available_parallelism - 1` workers, since callers participate);
/// override with the `EYECOD_THREADS` environment variable (`1` means one
/// worker, `0` forces fully sequential execution).
///
/// # Panics
///
/// Panics if `EYECOD_THREADS` is set to anything but a decimal count.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let workers = std::env::var_os("EYECOD_THREADS")
            .and_then(|v| parse_threads("EYECOD_THREADS", &v.to_string_lossy()))
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .saturating_sub(1)
            });
        static_counter!("pool/workers").set(workers as u64);
        ThreadPool::with_threads(workers)
    })
}

/// Parses an `EYECOD_THREADS` value: a decimal worker count, or `None`
/// for an empty value, which counts as unset.
///
/// # Panics
///
/// Panics with the variable's name and value on anything else.
fn parse_threads(name: &str, value: &str) -> Option<usize> {
    let v = value.trim();
    if v.is_empty() {
        return None;
    }
    Some(
        v.parse()
            .unwrap_or_else(|_| panic!("bad {name} value {value:?} (want a decimal worker count)")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_parse_and_empty_means_unset() {
        assert_eq!(parse_threads("EYECOD_THREADS", "0"), Some(0));
        assert_eq!(parse_threads("EYECOD_THREADS", " 3 "), Some(3));
        assert_eq!(parse_threads("EYECOD_THREADS", ""), None);
        assert_eq!(parse_threads("EYECOD_THREADS", "  "), None);
    }

    #[test]
    #[should_panic(expected = "bad EYECOD_THREADS value \"abc\"")]
    fn malformed_thread_count_panics_with_the_variable_name() {
        parse_threads("EYECOD_THREADS", "abc");
    }

    #[test]
    #[should_panic(expected = "bad EYECOD_THREADS value \"-1\"")]
    fn negative_thread_count_panics() {
        parse_threads("EYECOD_THREADS", "-1");
    }

    #[test]
    fn preserves_order() {
        let pool = ThreadPool::with_threads(3);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let pool = ThreadPool::with_threads(2);
        assert_eq!(pool.parallel_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(pool.parallel_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_worker_pool_is_sequential() {
        let pool = ThreadPool::with_threads(0);
        let items: Vec<i32> = (0..100).collect();
        assert_eq!(
            pool.parallel_map(&items, |&x| x - 1),
            (-1..99).collect::<Vec<_>>()
        );
    }

    #[test]
    fn propagates_panics() {
        let pool = ThreadPool::with_threads(2);
        let items: Vec<u32> = (0..256).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&x| {
                if x == 97 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 97"));
        // pool still usable afterwards
        assert_eq!(pool.parallel_map(&[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn try_parallel_map_isolates_item_panics() {
        let pool = ThreadPool::with_threads(2);
        let items: Vec<u32> = (0..128).collect();
        let out = pool.try_parallel_map(&items, |&x| {
            if x % 31 == 7 {
                panic!("injected worker death at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), items.len());
        for (x, r) in items.iter().zip(&out) {
            match r {
                Ok(v) => {
                    assert_ne!(x % 31, 7);
                    assert_eq!(*v, x * 2);
                }
                Err(msg) => {
                    assert_eq!(x % 31, 7);
                    assert!(msg.contains(&format!("injected worker death at {x}")));
                }
            }
        }
        // the pool is not poisoned: a clean job still works
        assert_eq!(pool.parallel_map(&[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn try_parallel_map_with_no_panics_matches_parallel_map() {
        let pool = ThreadPool::with_threads(3);
        let items: Vec<u64> = (0..300).collect();
        let out = pool.try_parallel_map(&items, |&x| x + 1);
        let want: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(
            out.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            want
        );
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let pool = ThreadPool::with_threads(2);
        let rows: Vec<usize> = (0..16).collect();
        let out = pool.parallel_map(&rows, |&r| {
            let cols: Vec<usize> = (0..32).collect();
            pool.parallel_map(&cols, |&c| r * 100 + c)
                .iter()
                .sum::<usize>()
        });
        for (r, &sum) in out.iter().enumerate() {
            assert_eq!(sum, (0..32).map(|c| r * 100 + c).sum::<usize>());
        }
    }

    #[test]
    fn for_each_mut_covers_every_index_once() {
        let pool = ThreadPool::with_threads(3);
        let mut hits = vec![0usize; 500];
        pool.for_each_mut(&mut hits, |i, h| *h += i + 1);
        assert_eq!(hits, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_works() {
        let items: Vec<u32> = (0..64).collect();
        assert_eq!(
            global().parallel_map(&items, |&x| x + 1),
            (1..65).collect::<Vec<_>>()
        );
    }
}
