//! Process-wide work-stealing thread pool for the EyeCoD pipeline.
//!
//! The seed implementation spun up a fresh set of scoped threads per call
//! and funnelled every result through one mutex, serialising exactly the
//! part that was supposed to be parallel. This crate replaces it with a
//! lazily-initialised, reusable pool:
//!
//! - **One pool per process** ([`global`], built on first use via
//!   `std::sync::OnceLock`); worker threads are created once and reused by
//!   every `parallel_map` in the program.
//! - **Per-participant chunked deques with work stealing.** Each job
//!   pre-splits its index space evenly across participants (all workers
//!   plus the calling thread). A participant's share is one packed
//!   `AtomicU64` `(begin, end)` range: the owner CAS-pops chunks from the
//!   front, idle participants CAS-steal chunks from the back. The hot path
//!   takes **zero locks** — locks and condvars only appear on the cold
//!   submit/park/complete paths.
//! - **Pre-allocated result slots.** `parallel_map` writes each result
//!   into its own `Vec<MaybeUninit<R>>` slot, so output order always
//!   matches input order and no synchronisation is needed between writers.
//! - **Caller participation.** The submitting thread works the job too,
//!   which makes nested/re-entrant `parallel_map` calls deadlock-free: the
//!   inner call always has at least one thread (itself) draining it, even
//!   if every worker is busy.
//! - **Panic propagation.** If the mapped closure panics, the job is
//!   poisoned, remaining work is drained, and the first panic payload is
//!   re-thrown in the caller via `resume_unwind`. Already-initialised
//!   result slots are leaked rather than dropped (a panic never triggers
//!   drops of results the caller never observed).
//! - **Panic isolation** ([`ThreadPool::try_parallel_map`]): fault-tolerant
//!   callers get `Err(message)` for exactly the items whose closure
//!   panicked while every other item completes — the substrate for the
//!   pipeline's worker-death recovery path (caught panics are counted in
//!   `pool/item_panics_caught`).
//!
//! [`BatchRunner`] layers windowed submission on top for long job lists
//! whose per-job working state is heavy (e.g. training a tracker per
//! configuration): only one window's results are buffered at a time.
//!
//! # Telemetry
//!
//! With the `telemetry` feature (default on) the pool records `pool/jobs`,
//! `pool/chunks_self` vs `pool/chunks_stolen` (chunk claims by owners vs
//! thieves), a `pool/job_wall_ns` histogram, and the `pool/workers` gauge
//! into the [`eyecod_telemetry`] global registry. Counters are one relaxed
//! atomic op per *chunk*, never per item, so the stealing hot path stays
//! lock-free; disable at runtime with `EYECOD_TELEMETRY=0` or compile out
//! with `--no-default-features`.

use eyecod_telemetry::{static_counter, static_histogram};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Index ranges are packed two-per-`u64`, capping a single job's size.
pub const MAX_ITEMS: usize = u32::MAX as usize;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

#[inline]
fn pack(begin: u32, end: u32) -> u64 {
    ((begin as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Type-erased pointer to the caller's stack context plus the monomorphic
/// trampoline that executes one item through it.
///
/// Soundness: the submitting thread keeps the context alive until the
/// job's completion latch fires, and participants never dereference `ctx`
/// after contributing their final `complete()` decrement — so the pointer
/// never dangles while reachable.
struct TaskRef {
    ctx: *const (),
    run: unsafe fn(*const (), usize),
}

unsafe impl Send for TaskRef {}
unsafe impl Sync for TaskRef {}

/// Shared state of one submitted job.
struct JobCore {
    /// One packed `(begin, end)` range per participant. Owners pop from the
    /// front, thieves steal from the back; both via CAS on the same word.
    ranges: Box<[AtomicU64]>,
    /// Pop/steal granularity in items.
    chunk: u32,
    /// Items not yet executed (or drained after a poison). Hitting zero
    /// fires the completion latch.
    unfinished: AtomicUsize,
    poisoned: AtomicBool,
    panic_payload: Mutex<Option<PanicPayload>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    task: TaskRef,
}

impl JobCore {
    fn new(items: usize, chunk: usize, participants: usize, task: TaskRef) -> Self {
        debug_assert!(items > 0 && items <= MAX_ITEMS && participants > 0);
        let chunk = chunk.clamp(1, MAX_ITEMS) as u32;
        // pre-split the index space evenly so every participant starts on
        // its own cache-friendly contiguous share
        let ranges: Box<[AtomicU64]> = (0..participants)
            .map(|p| {
                let b = (p * items / participants) as u32;
                let e = ((p + 1) * items / participants) as u32;
                AtomicU64::new(pack(b, e))
            })
            .collect();
        JobCore {
            ranges,
            chunk,
            unfinished: AtomicUsize::new(items),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            task,
        }
    }

    fn has_work(&self) -> bool {
        self.ranges.iter().any(|r| {
            let (b, e) = unpack(r.load(Ordering::Relaxed));
            b < e
        })
    }

    /// Owner side: claim the next chunk from the front of `slot`'s range.
    fn pop_front(&self, slot: usize) -> Option<(u32, u32)> {
        let r = &self.ranges[slot];
        let mut cur = r.load(Ordering::Acquire);
        loop {
            let (b, e) = unpack(cur);
            if b >= e {
                return None;
            }
            let nb = (b + self.chunk).min(e);
            match r.compare_exchange_weak(cur, pack(nb, e), Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some((b, nb)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief side: claim a chunk from the back of `slot`'s range.
    fn steal_back(&self, slot: usize) -> Option<(u32, u32)> {
        let r = &self.ranges[slot];
        let mut cur = r.load(Ordering::Acquire);
        loop {
            let (b, e) = unpack(cur);
            if b >= e {
                return None;
            }
            let ne = e - self.chunk.min(e - b);
            match r.compare_exchange_weak(cur, pack(b, ne), Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some((ne, e)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Empties every range (used after a poison) and returns how many
    /// items were discarded. `swap` guarantees each item is claimed exactly
    /// once, either here or by a concurrent pop/steal.
    fn drain_all(&self) -> usize {
        self.ranges
            .iter()
            .map(|r| {
                let (b, e) = unpack(r.swap(pack(0, 0), Ordering::AcqRel));
                e.saturating_sub(b) as usize
            })
            .sum()
    }

    /// Works the job as participant `slot` until no chunk can be claimed:
    /// own range first, then round-robin stealing from the others.
    fn participate(&self, slot: usize) {
        loop {
            let participants = self.ranges.len();
            let mut stole = false;
            let claimed = self.pop_front(slot).or_else(|| {
                stole = true;
                (1..participants)
                    .filter_map(|off| self.steal_back((slot + off) % participants))
                    .next()
            });
            let Some((b, e)) = claimed else { return };
            if stole {
                static_counter!("pool/chunks_stolen").inc();
            } else {
                static_counter!("pool/chunks_self").inc();
            }
            self.execute(b, e);
            if self.poisoned.load(Ordering::Relaxed) {
                return;
            }
        }
    }

    fn execute(&self, b: u32, e: u32) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            for i in b..e {
                unsafe { (self.task.run)(self.task.ctx, i as usize) }
            }
        }));
        let mut finished = (e - b) as usize;
        if let Err(payload) = outcome {
            // first panic wins; later ones are dropped
            if !self.poisoned.swap(true, Ordering::SeqCst) {
                *lock(&self.panic_payload) = Some(payload);
            }
            finished += self.drain_all();
        }
        self.complete(finished);
    }

    fn complete(&self, n: usize) {
        if n > 0 && self.unfinished.fetch_sub(n, Ordering::AcqRel) == n {
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

fn worker_loop(shared: Arc<PoolShared>, slot: usize) {
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
        job.participate(slot);
    }
}

/// A reusable work-stealing pool. Most code should use the process-wide
/// [`global`] pool; dedicated instances exist for tests that need a fixed
/// worker count.
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
                    .spawn(move || worker_loop(shared, slot))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of background worker threads (callers add one more
    /// participant per job).
    pub fn threads(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` in parallel, preserving order. Chunk size is
    /// picked automatically (a few chunks per participant so stealing can
    /// rebalance uneven items).
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let participants = self.workers + 1;
        let chunk = (items.len() / (participants * 8)).max(1);
        self.parallel_map_chunked(items, chunk, f)
    }

    /// [`ThreadPool::parallel_map`] with an explicit pop/steal granularity.
    /// Use `chunk = 1` for heavy, uneven items; larger chunks amortise
    /// claiming overhead for cheap uniform items.
    pub fn parallel_map_chunked<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let mut out: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let out_ptr = SendPtr(out.as_mut_ptr());
        let run_item = |i: usize| {
            let val = f(&items[i]);
            // each index writes only its own slot, so no synchronisation
            // is needed between writers
            unsafe { out_ptr.get().add(i).write(MaybeUninit::new(val)) };
        };
        match self.run_job(n, chunk, &run_item) {
            Ok(()) => {
                // every slot was written exactly once; reinterpret in place
                let mut out = ManuallyDrop::new(out);
                unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, n) }
            }
            Err(payload) => {
                // `out` drops as Vec<MaybeUninit<R>>: the buffer is freed
                // but initialised results are leaked, never dropped —
                // required, since we cannot know which subset was written
                panic::resume_unwind(payload)
            }
        }
    }

    /// Panic-isolating [`ThreadPool::parallel_map_chunked`]: a panicking
    /// item yields `Err(message)` in its own slot instead of poisoning the
    /// whole job, and every other item still completes.
    ///
    /// This is the execution substrate for graceful pipeline degradation:
    /// a worker dying mid-job (injected or real) costs exactly the items
    /// it was running, which the caller can retry or substitute. Caught
    /// panics are counted in `pool/item_panics_caught`.
    pub fn try_parallel_map<T, R, F>(
        &self,
        items: &[T],
        chunk: usize,
        f: F,
    ) -> Vec<Result<R, String>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map_chunked(items, chunk, |item| {
            match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => Ok(r),
                Err(payload) => {
                    static_counter!("pool/item_panics_caught").inc();
                    Err(panic_message(&payload))
                }
            }
        })
    }

    /// How many threads execute a job concurrently: the background workers
    /// plus the calling thread, which always participates. A sequential
    /// pool (`with_threads(0)`) reports 1. Callers that partition work per
    /// thread (e.g. one batched-GEMM sub-batch per participant) size their
    /// partitions with this.
    pub fn participants(&self) -> usize {
        self.workers + 1
    }

    /// Runs `f(i)` for every `i in 0..n` in parallel with the given chunk
    /// granularity. The index-space primitive underlying `parallel_map`;
    /// useful for tiled kernels that write disjoint output regions.
    pub fn parallel_for_chunked<F>(&self, n: usize, chunk: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if let Err(payload) = self.run_job(n, chunk, &f) {
            panic::resume_unwind(payload)
        }
    }

    /// Shared engine: executes `run_item(i)` for all `i in 0..n`, either
    /// inline (no workers / single chunk) or through the stealing deques.
    fn run_job(
        &self,
        n: usize,
        chunk: usize,
        run_item: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PanicPayload> {
        if n == 0 {
            return Ok(());
        }
        assert!(n <= MAX_ITEMS, "job of {n} items exceeds MAX_ITEMS");
        static_counter!("pool/jobs").inc();
        let _job_timer = static_histogram!("pool/job_wall_ns").timer();
        if self.workers == 0 || n <= chunk.max(1) {
            // no parallelism to extract: run inline on the caller — one
            // self-executed chunk from the telemetry point of view
            static_counter!("pool/chunks_self").inc();
            return panic::catch_unwind(AssertUnwindSafe(|| {
                for i in 0..n {
                    run_item(i);
                }
            }));
        }

        unsafe fn trampoline(ctx: *const (), i: usize) {
            let f = unsafe { &**(ctx as *const &(dyn Fn(usize) + Sync)) };
            f(i)
        }
        let ctx: &&(dyn Fn(usize) + Sync) = &run_item;
        let job = Arc::new(JobCore::new(
            n,
            chunk,
            self.workers + 1,
            TaskRef {
                ctx: ctx as *const _ as *const (),
                run: trampoline,
            },
        ));

        lock(&self.shared.queue).push(Arc::clone(&job));
        self.shared.work_cv.notify_all();

        // the caller works its own job: guarantees progress even when every
        // worker is busy (nested parallel_map, many concurrent callers)
        job.participate(self.workers);

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

        if job.poisoned.load(Ordering::SeqCst) {
            let payload = lock(&job.panic_payload)
                .take()
                .unwrap_or_else(|| Box::new("pool job panicked"));
            return Err(payload);
        }
        Ok(())
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

struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// Soundness: only used for disjoint per-index writes into a buffer the
// submitting thread keeps alive until the job's completion latch fires.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

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

/// [`ThreadPool::parallel_map`] on the [`global`] pool.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().parallel_map(items, f)
}

/// [`ThreadPool::parallel_map_chunked`] on the [`global`] pool.
pub fn parallel_map_chunked<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().parallel_map_chunked(items, chunk, f)
}

/// [`ThreadPool::try_parallel_map`] on the [`global`] pool.
pub fn try_parallel_map<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().try_parallel_map(items, chunk, f)
}

/// [`ThreadPool::parallel_for_chunked`] on the [`global`] pool.
pub fn parallel_for_chunked<F>(n: usize, chunk: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    global().parallel_for_chunked(n, chunk, f)
}

/// Windowed batch executor for long lists of *heavy* jobs (e.g. one
/// tracker-training run per configuration).
///
/// Jobs are submitted `window` at a time with chunk granularity 1, so at
/// most `window` jobs' results (and at most `participants` jobs' working
/// state) are in flight before being moved into the output — memory stays
/// bounded however long the job list is, while stealing keeps all cores
/// busy within each window.
pub struct BatchRunner<'p> {
    pool: &'p ThreadPool,
    window: usize,
}

impl<'p> BatchRunner<'p> {
    /// A runner on `pool` with a default window of twice the participant
    /// count (enough slack for stealing to smooth uneven job costs).
    pub fn new(pool: &'p ThreadPool) -> Self {
        BatchRunner {
            pool,
            window: (pool.threads() + 1) * 2,
        }
    }

    /// A runner on the [`global`] pool.
    pub fn on_global() -> BatchRunner<'static> {
        BatchRunner::new(global())
    }

    /// Overrides how many jobs may be in flight per submission.
    pub fn window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = window;
        self
    }

    /// Evaluates `f` over every job, preserving order.
    pub fn run<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(jobs.len());
        for window in jobs.chunks(self.window) {
            out.extend(self.pool.parallel_map_chunked(window, 1, &f));
        }
        out
    }

    /// Streaming variant: results are handed to `sink(index, result)` in
    /// order as each window completes, never accumulating more than one
    /// window of results.
    pub fn run_with<T, R, F, S>(&self, jobs: &[T], f: F, mut sink: S)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
        S: FnMut(usize, R),
    {
        for (w, window) in jobs.chunks(self.window).enumerate() {
            let results = self.pool.parallel_map_chunked(window, 1, &f);
            for (i, r) in results.into_iter().enumerate() {
                sink(w * self.window + i, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
            pool.parallel_map_chunked(&items, 4, |&x| {
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
        let out = pool.try_parallel_map(&items, 4, |&x| {
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
        let out = pool.try_parallel_map(&items, 8, |&x| x + 1);
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
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::with_threads(3);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_chunked(500, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn batch_runner_matches_map_with_any_window() {
        let pool = ThreadPool::with_threads(2);
        let jobs: Vec<u32> = (0..37).collect();
        let want: Vec<u32> = jobs.iter().map(|&x| x * x).collect();
        for window in [1, 3, 8, 64] {
            let runner = BatchRunner::new(&pool).window(window);
            assert_eq!(runner.run(&jobs, |&x| x * x), want);
            let mut streamed = vec![0u32; jobs.len()];
            runner.run_with(&jobs, |&x| x * x, |i, r| streamed[i] = r);
            assert_eq!(streamed, want);
        }
    }

    #[test]
    fn global_pool_works() {
        let items: Vec<u32> = (0..64).collect();
        assert_eq!(
            parallel_map(&items, |&x| x + 1),
            (1..65).collect::<Vec<_>>()
        );
    }
}
