//! The session registry and its serve tick.
//!
//! Sessions live in a columnar [`SessionStore`] (rows = sessions, columns
//! = per-stage state). One tick serves every staged frame:
//!
//! 1. **front half**, one pool job per session over the store's columns:
//!    [`EyeTracker::front_stages`] (capture → recon → ROI refresh when due
//!    → crop/resize), the same call a standalone `process_frame` makes;
//! 2. **route**, serially in work order: pick each frame's gaze batch and
//!    collect the fleet's int8 calibration crops;
//! 3. **batched gaze**, one forward per pool participant per route;
//! 4. **complete**, serially in work order, through
//!    [`EyeTracker::complete_stage_with_pred`];
//! 5. **calibrate** the fleet's shared int8 network once its crops are in.
//!
//! **Worker-panic recovery.** Every front-half job checks the registry's
//! execution-plane fault plan at entry ([`FaultPlan::worker_panics`], job id
//! = work index) and panics *before touching any column* when listed; the
//! tick catches the unwind and re-runs the job inline at attempt 1 (which
//! never re-fires). Because the injected panic happens at the entry point,
//! the retry replays the job from clean state and the tick's output is
//! byte-identical to an unfaulted run. (A *genuine* mid-job panic is also
//! caught, but its retry re-executes the body as-is; a deterministic bug
//! surfaces on the retry instead of being silently absorbed.)

use crate::store::{
    stamp_stage_row, QueuedFrame, Route, SendPtr, SessionStore, STAGES, STAGE_CAPTURE, STAGE_CROP,
    STAGE_GAZE, STAGE_RECON,
};
use crate::{ServeConfig, ServeError, SessionId};
use eyecod_core::acquisition::Acquisition;
use eyecod_core::metrics::TrackingStats;
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackedFrame};
use eyecod_core::training::TrackerModels;
use eyecod_eyedata::GazeVector;
use eyecod_faults::{FaultPlan, RecoveryPolicy};
use eyecod_models::infer::WorkspaceArena;
use eyecod_models::quantized::QuantizedGazeNet;
use eyecod_pool::ThreadPool;
use eyecod_telemetry::{static_counter, static_histogram};
use eyecod_tensor::{Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What happened to a fed frame.
#[derive(Debug, Clone)]
pub enum FeedOutcome {
    /// The frame was queued; `depth` is the queue depth afterwards.
    Queued {
        /// Ingress queue depth after this frame was enqueued.
        depth: usize,
    },
    /// The queue was full: the *oldest* queued frame was shed (drop-head,
    /// so the freshest data survives) and this frame took its place. The
    /// shed frame's accounting output is returned — graded
    /// [`Degraded`](eyecod_faults::FrameQuality::Degraded) once any frame
    /// has been tracked.
    Shed(TrackedFrame),
}

impl FeedOutcome {
    /// The shed frame, if this feed shed one.
    pub fn shed(&self) -> Option<&TrackedFrame> {
        match self {
            FeedOutcome::Shed(f) => Some(f),
            FeedOutcome::Queued { .. } => None,
        }
    }

    /// Whether this feed shed a frame.
    pub fn was_shed(&self) -> bool {
        matches!(self, FeedOutcome::Shed(_))
    }
}

/// Point-in-time view of one session.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The session's id.
    pub id: SessionId,
    /// The gaze backend this session was created with.
    pub backend: GazeBackend,
    /// Accumulated per-session statistics (processed + shed frames).
    pub stats: TrackingStats,
    /// Current ingress queue depth (always ≤
    /// [`ServeConfig::queue_capacity`]).
    pub queue_depth: usize,
    /// Frames ever fed to this session (queued + shed).
    pub frames_ingested: u64,
    /// The most recent output (processed or shed), if any.
    pub last: Option<TrackedFrame>,
}

/// What one serve tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Sessions that had a frame staged this tick.
    pub staged: usize,
    /// Frames completed (equals `staged`; split out for clarity in logs).
    pub completed: usize,
    /// Gaze forwards routed through the f32 path (including int8 sessions
    /// still warming up toward the shared calibration, and latent sessions
    /// on their ROI-refresh frames).
    pub f32_forwards: usize,
    /// Gaze forwards routed through the shared int8 network.
    pub int8_forwards: usize,
    /// Gaze forwards routed through the recon-free latent network
    /// (latent sessions on steady-state frames).
    pub latent_forwards: usize,
}

enum PoolHandle {
    Global,
    Owned(ThreadPool),
}

impl PoolHandle {
    fn get(&self) -> &ThreadPool {
        match self {
            PoolHandle::Global => eyecod_pool::global(),
            PoolHandle::Owned(p) => p,
        }
    }
}

/// The multi-session serving registry. See the crate docs for the model;
/// the short version: [`create`](ServeRegistry::create) sessions,
/// [`feed`](ServeRegistry::feed) them frames (bounded queues, drop-head
/// shedding), drive everything with [`tick`](ServeRegistry::tick)
/// (pooled per-session front halves + cross-session batched gaze
/// forwards), [`snapshot`](ServeRegistry::snapshot) or
/// [`evict`](ServeRegistry::evict) when done.
pub struct ServeRegistry {
    config: ServeConfig,
    models: TrackerModels,
    /// Built once from the config, cloned per session — sessions share the
    /// same mask/reconstruction geometry, so each create skips the
    /// Tikhonov setup.
    acquisition: Acquisition,
    /// Handed to every created session; its execution plane also drives
    /// the tick's worker-panic injection.
    faults: FaultPlan,
    recovery: RecoveryPolicy,
    pool: PoolHandle,
    store: SessionStore,
    /// Rows with a staged frame this tick (reused across ticks).
    work: Vec<u32>,
    /// Per-work-index panic flags of the current front half.
    failed: Vec<u8>,
    f32_batch: Vec<u32>,
    i8_batch: Vec<u32>,
    lat_batch: Vec<u32>,
    f32_arena: WorkspaceArena,
    i8_arena: WorkspaceArena,
    lat_arena: WorkspaceArena,
    /// The fleet-shared int8 network, once calibrated. Per-session
    /// calibration would give each session data-dependent activation
    /// scales and defeat cross-session batching; sharing one network
    /// calibrated on the first crops the fleet produces mirrors a deployed
    /// parameter server.
    shared_qnet: Option<QuantizedGazeNet>,
    /// Gaze crops collected from warming int8 sessions, pending the shared
    /// calibration.
    calib: Vec<Tensor>,
}

impl ServeRegistry {
    /// Builds a registry from a configuration and trained models.
    ///
    /// The fault plan defaults to [`FaultPlan::from_env`] and the recovery
    /// policy to [`RecoveryPolicy::default`]; override with
    /// [`ServeRegistry::with_faults`] / [`ServeRegistry::with_recovery`]
    /// before creating sessions.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ServeConfig, models: TrackerModels) -> Self {
        config.validate();
        let acquisition = EyeTracker::build_acquisition(&config.tracker);
        let pool = match config.threads {
            Some(n) => PoolHandle::Owned(ThreadPool::with_threads(n)),
            None => PoolHandle::Global,
        };
        ServeRegistry {
            config,
            models,
            acquisition,
            faults: FaultPlan::from_env(),
            recovery: RecoveryPolicy::default(),
            pool,
            store: SessionStore::new(),
            work: Vec::new(),
            failed: Vec::new(),
            f32_batch: Vec::new(),
            i8_batch: Vec::new(),
            lat_batch: Vec::new(),
            f32_arena: WorkspaceArena::new(),
            i8_arena: WorkspaceArena::new(),
            lat_arena: WorkspaceArena::new(),
            shared_qnet: None,
            calib: Vec::new(),
        }
    }

    /// Replaces the fault plan handed to every *subsequently created*
    /// session (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Replaces the recovery policy handed to every *subsequently created*
    /// session (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        policy.validate();
        self.recovery = policy;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Live session count.
    pub fn sessions_active(&self) -> usize {
        self.store.active
    }

    /// Whether `id` resolves to a live session.
    pub fn contains(&self, id: SessionId) -> bool {
        self.store.resolve(id).is_ok()
    }

    /// Whether the fleet-shared int8 network has been calibrated yet.
    pub fn int8_calibrated(&self) -> bool {
        self.shared_qnet.is_some()
    }

    /// Creates a session with the configured default backend.
    pub fn create(&mut self) -> Result<SessionId, ServeError> {
        self.create_with_backend(self.config.tracker.gaze_backend)
    }

    /// Creates a session with an explicit gaze backend (fleets mix f32 and
    /// int8 sessions freely; int8 sessions share one fleet-calibrated
    /// network).
    pub fn create_with_backend(&mut self, backend: GazeBackend) -> Result<SessionId, ServeError> {
        if self.store.active >= self.config.max_sessions {
            return Err(ServeError::AtCapacity(self.config.max_sessions));
        }
        let mut cfg = self.config.tracker.clone();
        cfg.gaze_backend = backend;
        let mut tracker =
            EyeTracker::with_acquisition(cfg, self.models.clone_models(), self.acquisition.clone())
                .with_faults(self.faults.clone())
                .with_recovery(self.recovery);
        if backend == GazeBackend::Int8 && self.shared_qnet.is_some() {
            tracker.mark_int8_calibrated();
        }
        let id = self.store.insert(tracker, backend);
        static_counter!("serve/sessions_created").inc();
        static_counter!("serve/sessions_active").set(self.store.active as u64);
        Ok(id)
    }

    /// Evicts a session, returning its final snapshot. The row's
    /// generation is bumped, so the evicted id (and any copy of it) can
    /// never resolve again.
    pub fn evict(&mut self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let snap = self.snapshot(id)?;
        self.store.remove(id.index() as usize);
        static_counter!("serve/sessions_evicted").inc();
        static_counter!("serve/sessions_active").set(self.store.active as u64);
        Ok(snap)
    }

    /// Enqueues a frame for `id` (production path: no ground-truth label).
    ///
    /// Never blocks and never panics on load: a full queue sheds its
    /// oldest frame (returned via [`FeedOutcome::Shed`]) and the new frame
    /// is queued, so depth stays ≤ [`ServeConfig::queue_capacity`].
    pub fn feed(
        &mut self,
        id: SessionId,
        scene: &Tensor,
        noise_seed: u64,
    ) -> Result<FeedOutcome, ServeError> {
        self.feed_inner(id, scene, noise_seed, None)
    }

    /// [`ServeRegistry::feed`] with a ground-truth gaze label; the frame's
    /// angular error is folded into the session's [`TrackingStats`] when
    /// it completes.
    pub fn feed_labeled(
        &mut self,
        id: SessionId,
        scene: &Tensor,
        noise_seed: u64,
        truth: GazeVector,
    ) -> Result<FeedOutcome, ServeError> {
        self.feed_inner(id, scene, noise_seed, Some(truth))
    }

    fn feed_inner(
        &mut self,
        id: SessionId,
        scene: &Tensor,
        noise_seed: u64,
        truth: Option<GazeVector>,
    ) -> Result<FeedOutcome, ServeError> {
        let expected = self.config.tracker.scene_size;
        let s = scene.shape();
        if (s.h, s.w) != (expected, expected) {
            return Err(ServeError::SceneShape {
                expected,
                got: (s.h, s.w),
            });
        }
        let capacity = self.config.queue_capacity;
        let row = self.store.resolve(id)?;
        self.store.frames_ingested[row] += 1;
        static_counter!("serve/frames_ingested").inc();
        let shed = if self.store.queues[row].len() >= capacity {
            let old = self.store.queues[row]
                .pop_front()
                .expect("full queue is non-empty");
            self.store.spares[row].push(old.scene);
            let out = self.store.trackers[row]
                .as_mut()
                .expect("resolved row is live")
                .shed_frame();
            self.store.stats[row].record_shed();
            self.store.lasts[row] = Some(out.clone());
            static_counter!("serve/frames_shed").inc();
            Some(out)
        } else {
            None
        };
        let mut buf = self.store.spares[row]
            .pop()
            .unwrap_or_else(|| Tensor::zeros(Shape::new(1, 1, 1, 1)));
        buf.copy_from(scene);
        self.store.queues[row].push_back(QueuedFrame {
            scene: buf,
            noise_seed,
            truth,
        });
        Ok(match shed {
            Some(f) => FeedOutcome::Shed(f),
            None => FeedOutcome::Queued {
                depth: self.store.queues[row].len(),
            },
        })
    }

    /// Point-in-time view of one session.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let row = self.store.resolve(id)?;
        Ok(SessionSnapshot {
            id,
            backend: self.store.backends[row],
            stats: self.store.stats[row].clone(),
            queue_depth: self.store.queues[row].len(),
            frames_ingested: self.store.frames_ingested[row],
            last: self.store.lasts[row].clone(),
        })
    }

    /// Fleet-aggregate statistics: every live session's stats merged.
    pub fn fleet_stats(&self) -> TrackingStats {
        let mut total = TrackingStats::new();
        for row in 0..self.store.rows() {
            if self.store.is_live(row) {
                total.merge(&self.store.stats[row]);
            }
        }
        total
    }

    /// Runs one serve tick: pops at most one frame per session (stable
    /// slot order), runs every staged frame's front half as one pool job
    /// per session, batches the gaze forwards per route, and completes each
    /// frame in slot order (see the module docs for the five steps).
    ///
    /// Neither batching nor the pool ever changes results: batched
    /// forwards process items independently, fault draws are pure hashes
    /// of (seed, site, frame), and routing, completion and calibration run
    /// serially in slot order. So every f32 and latent session serves
    /// exactly what a standalone [`EyeTracker::process_frame`] would on the
    /// same frames, and every session's output is invariant to batch
    /// composition and worker count — the properties the registry test
    /// suites pin.
    pub fn tick(&mut self) -> TickReport {
        self.tick_impl(None)
    }

    /// [`ServeRegistry::tick`] that also returns every completed frame in
    /// completion order — the golden-trace hook of the registry test
    /// suites. (Allocates for the trace; production loops use `tick`.)
    pub fn tick_traced(&mut self) -> (TickReport, Vec<(SessionId, TrackedFrame)>) {
        let mut trace = Vec::new();
        let report = self.tick_impl(Some(&mut trace));
        (report, trace)
    }

    fn tick_impl(&mut self, mut trace: Option<&mut Vec<(SessionId, TrackedFrame)>>) -> TickReport {
        static_counter!("serve/ticks").inc();
        let tick_timer = static_histogram!("serve/tick_ns").timer();
        // stage: at most one queued frame per session, slot order
        self.work.clear();
        for row in 0..self.store.rows() {
            if self.store.is_live(row) {
                if let Some(qf) = self.store.queues[row].pop_front() {
                    self.store.staged[row] = Some(qf);
                    self.work.push(row as u32);
                }
            }
        }
        let staged = self.work.len();
        if staged == 0 {
            drop(tick_timer);
            return TickReport::default();
        }
        // steady-state proof: an untraced tick with no ROI refresh due must
        // not allocate
        let steady = trace.is_none()
            && !self.work.iter().any(|&r| {
                let t = self.store.trackers[r as usize].as_ref().expect("staged");
                t.frames_processed()
                    .is_multiple_of(t.config().roi_period as u64)
            });
        let allocs_before = eyecod_core::alloc_counter::allocations();

        self.run_front_half();

        // route serially in work order: warming int8 sessions contribute
        // their calibration crops deterministically
        self.f32_batch.clear();
        self.i8_batch.clear();
        self.lat_batch.clear();
        for w in 0..staged {
            let row = self.work[w] as usize;
            let cur = self.store.cursors[row].as_ref().expect("front half ran");
            let (has_input, due, frame) = (cur.has_gaze_input(), cur.due(), cur.frame());
            if has_input {
                self.store.stamp_stage(row, STAGE_GAZE, frame);
            }
            self.route_row(row, has_input, due);
        }
        let (f32_forwards, int8_forwards, latent_forwards) = (
            self.f32_batch.len(),
            self.i8_batch.len(),
            self.lat_batch.len(),
        );
        let group = std::mem::take(&mut self.f32_batch);
        self.run_batch(&group, Route::F32);
        self.f32_batch = group;
        let group = std::mem::take(&mut self.i8_batch);
        self.run_batch(&group, Route::Int8);
        self.i8_batch = group;
        let group = std::mem::take(&mut self.lat_batch);
        self.run_batch(&group, Route::Latent);
        self.lat_batch = group;

        // complete in work order: scatter predictions back, grade and
        // account each frame through the tracker's recovery tail
        for w in 0..staged {
            let row = self.work[w] as usize;
            let route = self.store.routes[row];
            let cur = self.store.cursors[row].take().expect("front half ran");
            let upstream = if route == Route::Fallback {
                STAGE_CROP
            } else {
                STAGE_GAZE
            };
            self.store.check_stage(row, upstream, cur.frame());
            let store = &mut self.store;
            let tracker = store.trackers[row].as_mut().expect("staged row is live");
            let out = if route == Route::Fallback {
                tracker.complete_stage(cur, &mut store.preds[row])
            } else {
                let (p, j) = store.batch_pos[row];
                let arena = match route {
                    Route::Int8 => &self.i8_arena,
                    Route::Latent => &self.lat_arena,
                    _ => &self.f32_arena,
                };
                let j = j as usize;
                let pred = &arena.slot(p as usize).output.as_slice()[j * 3..j * 3 + 3];
                tracker.complete_stage_with_pred(cur, pred, &mut store.preds[row])
            };
            self.account_completion(row, out, trace.as_deref_mut());
        }
        if steady {
            static_counter!("serve/steady_state_allocs")
                .add(eyecod_core::alloc_counter::allocations() - allocs_before);
        }
        static_counter!("serve/frames_completed").add(staged as u64);

        // fleet int8 calibration, once the warm-up crops are in — at tick
        // end so the tick that fills the window still serves f32, exactly
        // like the single-tracker warm-up
        let calib_target = self.config.tracker.calibration_frames;
        if self.shared_qnet.is_none() && calib_target > 0 && self.calib.len() >= calib_target {
            let batch = Tensor::stack(&self.calib);
            self.shared_qnet = Some(QuantizedGazeNet::from_calibrated(&self.models.gaze, &batch));
            self.calib.clear();
            self.calib.shrink_to_fit();
            static_counter!("serve/int8_calibrations").inc();
            // the int8 trackers' warm-up ends here too: their frames stop
            // being exempt from the motion gate, as a standalone tracker's
            // do once it calibrates
            for (tracker, backend) in self.store.trackers.iter_mut().zip(&self.store.backends) {
                if let (Some(t), GazeBackend::Int8) = (tracker, backend) {
                    t.mark_int8_calibrated();
                }
            }
        }
        drop(tick_timer);
        TickReport {
            staged,
            completed: staged,
            f32_forwards,
            int8_forwards,
            latent_forwards,
        }
    }

    /// The front half of every staged frame, one pool job per session:
    /// [`EyeTracker::front_stages`] over the session's columns, stamping the
    /// capture/recon/crop epochs. Jobs listed in the fault plan's execution
    /// plane panic at entry and are re-run inline (see the module docs).
    fn run_front_half(&mut self) {
        let ServeRegistry {
            faults,
            pool,
            store,
            work,
            failed,
            ..
        } = self;
        let n = work.len();
        failed.clear();
        failed.resize(n, 0);
        let trackers = SendPtr(store.trackers.as_mut_ptr());
        let staged = SendPtr(store.staged.as_mut_ptr());
        let cursors = SendPtr(store.cursors.as_mut_ptr());
        let acquires = SendPtr(store.acquires.as_mut_ptr());
        let images = SendPtr(store.images.as_mut_ptr());
        let crops = SendPtr(store.crops.as_mut_ptr());
        let gaze_ins = SendPtr(store.gaze_ins.as_mut_ptr());
        let epochs = SendPtr(store.epochs.as_mut_ptr());
        let work: &[u32] = work;
        let job = |w: usize| {
            let row = work[w] as usize;
            // SAFETY: `work` holds unique live rows, so concurrent jobs
            // touch disjoint elements of every column
            unsafe {
                let tracker = trackers.get(row).as_mut().expect("staged row is live");
                let qf = staged.get(row).as_ref().expect("frame staged");
                let cur = tracker.front_stages(
                    &qf.scene,
                    qf.noise_seed,
                    acquires.get(row),
                    images.get(row),
                    crops.get(row),
                    gaze_ins.get(row),
                );
                let epoch = epochs.get(row);
                for stage in [STAGE_CAPTURE, STAGE_RECON, STAGE_CROP] {
                    stamp_stage_row(epoch, stage, cur.frame(), row);
                }
                *cursors.get(row) = Some(cur);
            }
        };
        let flags = SendPtr(failed.as_mut_ptr());
        let plan: &FaultPlan = faults;
        pool.get().parallel_for_chunked(n, 1, |w| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if plan.worker_panics(w as u64, 0) {
                    panic!("injected exec-plane fault: front-half job {w}");
                }
                job(w);
            }));
            if caught.is_err() {
                // SAFETY: flag `w` belongs to this job alone
                *unsafe { flags.get(w) } = 1;
            }
        });
        // deterministic inline retry: attempt 1 never re-fires an injected
        // panic, and the panic happened before any column write
        let mut recovered = 0u64;
        for (w, &flag) in failed.iter().enumerate() {
            if flag != 0 {
                job(w);
                recovered += 1;
            }
        }
        if recovered > 0 {
            static_counter!("serve/sched_panics_recovered").add(recovered);
        }
    }

    /// Routes row `row`'s staged gaze input: picks the forward path,
    /// collects fleet calibration crops from warming int8 sessions, and
    /// appends the row to the matching batch group. Must run in work
    /// order — calibration collection is deterministic and
    /// pool-size-invariant because of it.
    ///
    /// `refresh_due` is the frame's scheduled ROI-refresh flag: latent
    /// sessions route their refresh frames (recon-path crops) through the
    /// f32 batch and their steady-state frames (projected measurements)
    /// through the latent batch, mirroring the tracker's own dispatch.
    fn route_row(&mut self, row: usize, has_input: bool, refresh_due: bool) {
        if !has_input {
            self.store.routes[row] = Route::Fallback;
            return;
        }
        let calibrated = self.shared_qnet.is_some();
        let backend = self.store.backends[row];
        if backend == GazeBackend::Int8 && calibrated {
            self.store.routes[row] = Route::Int8;
            self.i8_batch.push(row as u32);
        } else if backend == GazeBackend::Latent && !refresh_due {
            self.store.routes[row] = Route::Latent;
            self.lat_batch.push(row as u32);
        } else {
            // never let a corrupted crop into the calibration batch, as in
            // the standalone tracker's warm-up
            let crop = &self.store.gaze_ins[row];
            if backend == GazeBackend::Int8
                && !calibrated
                && self.calib.len() < self.config.tracker.calibration_frames
                && !crop.has_non_finite()
            {
                self.calib.push(crop.clone());
            }
            self.store.routes[row] = Route::F32;
            self.f32_batch.push(row as u32);
        }
    }

    /// Folds a completed frame into the session's accounting columns and
    /// the trace, and recycles the staged scene buffer.
    fn account_completion(
        &mut self,
        row: usize,
        out: TrackedFrame,
        trace: Option<&mut Vec<(SessionId, TrackedFrame)>>,
    ) {
        let qf = self.store.staged[row].take().expect("staged frame present");
        match &qf.truth {
            Some(t) => self.store.stats[row].record(&out, t),
            None => self.store.stats[row].record_unlabeled(&out),
        }
        self.store.spares[row].push(qf.scene);
        match trace {
            Some(tr) => {
                self.store.lasts[row] = Some(out.clone());
                tr.push((SessionId::new(row as u32, self.store.generations[row]), out));
            }
            None => self.store.lasts[row] = Some(out),
        }
    }

    /// Batched gaze forward for one route group: partitions `group` into
    /// one contiguous sub-batch per pool participant, gathers each
    /// sub-batch into its arena slot, and runs the slots' forwards in
    /// parallel. On a sequential pool this is literally one batched GEMM,
    /// executed inline with zero allocation once the arena is warm.
    ///
    /// `route` selects the network and arena: [`Route::F32`],
    /// [`Route::Int8`] or [`Route::Latent`] (never [`Route::Fallback`]).
    fn run_batch(&mut self, group: &[u32], route: Route) {
        if group.is_empty() {
            return;
        }
        let batch_timer = static_histogram!("serve/batch_ns").timer();
        static_counter!("serve/batches").inc();
        static_counter!("serve/batch_size").add(group.len() as u64);
        let n = group.len();
        let parts = self.pool.get().participants().min(n);
        let (gh, gw) = self.config.tracker.gaze_input;
        let arena = match route {
            Route::Int8 => &mut self.i8_arena,
            Route::Latent => &mut self.lat_arena,
            Route::F32 => &mut self.f32_arena,
            Route::Fallback => unreachable!("fallback rows never batch"),
        };
        arena.ensure(parts);
        // gather: chunk p covers group[p*n/parts .. (p+1)*n/parts]
        for p in 0..parts {
            let (start, end) = (p * n / parts, (p + 1) * n / parts);
            let slot = arena.slot_mut(p);
            slot.input.reset(Shape::new(end - start, 1, gh, gw));
            for (j, &row) in group[start..end].iter().enumerate() {
                let row = row as usize;
                self.store.batch_pos[row] = (p as u32, j as u32);
                slot.input
                    .batch_item_slice_mut(j)
                    .copy_from_slice(self.store.gaze_ins[row].as_slice());
            }
        }
        {
            let pool = self.pool.get();
            let slots = SendPtr(arena.slots_mut().as_mut_ptr());
            let gaze = &self.models.gaze;
            let latent = &self.models.latent;
            let qnet = self.shared_qnet.as_ref();
            pool.parallel_for_chunked(parts, 1, |p| {
                // SAFETY: each job takes a distinct arena slot
                let slot = unsafe { slots.get(p) };
                match route {
                    Route::Int8 => qnet
                        .expect("int8 batches only run once calibrated")
                        .forward_into(&slot.input, &mut slot.ws, &mut slot.output),
                    Route::Latent => {
                        latent.forward_infer(&slot.input, &mut slot.ws, &mut slot.output)
                    }
                    _ => gaze.forward_infer(&slot.input, &mut slot.ws, &mut slot.output),
                }
            });
        }
        drop(batch_timer);
    }

    /// The epoch column row for `row` — test/debug hook for the
    /// stage-conformance invariant.
    #[doc(hidden)]
    pub fn stage_epochs(&self, id: SessionId) -> Result<[u64; STAGES], ServeError> {
        let row = self.store.resolve(id)?;
        Ok(self.store.epochs[row])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyecod_core::tracker::TrackerConfig;
    use eyecod_core::training::{train_tracker_models, TrainingSetup};
    use eyecod_eyedata::render::{render_eye, EyeParams};
    use eyecod_faults::FrameQuality;
    use std::sync::OnceLock;

    /// Train once, share across tests (training is the expensive part).
    fn registry(mut mutate: impl FnMut(&mut ServeConfig)) -> ServeRegistry {
        static MODELS: OnceLock<(TrackerConfig, TrackerModels)> = OnceLock::new();
        let (cfg, models) = MODELS.get_or_init(|| {
            let mut cfg = TrackerConfig::small();
            // these unit tests pin exact per-tick forward counts, which
            // assume every staged frame reaches its gaze batch — run the
            // dense path even under ambient EYECOD_DELTA=1 (the delta
            // serve semantics have their own differential suite)
            cfg.delta = false;
            let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
            (cfg, models)
        });
        let mut sc = ServeConfig::new(cfg.clone());
        sc.threads = Some(0); // sequential: unit tests stay deterministic & cheap
        mutate(&mut sc);
        ServeRegistry::new(sc, models.clone_models()).with_faults(FaultPlan::none())
    }

    fn scene(seed: u64) -> Tensor {
        let mut p = EyeParams::centered(48);
        p.yaw = 0.02 * (seed as f32 % 7.0) - 0.07;
        render_eye(&p, 48, seed).image
    }

    #[test]
    fn lifecycle_ids_are_generational() {
        let mut reg = registry(|_| {});
        let a = reg.create().unwrap();
        let b = reg.create().unwrap();
        assert_eq!(reg.sessions_active(), 2);
        assert!(reg.contains(a) && reg.contains(b));
        assert_ne!(a, b);

        let snap = reg.evict(a).unwrap();
        assert_eq!(snap.id, a);
        assert_eq!(reg.sessions_active(), 1);
        assert!(!reg.contains(a));
        assert_eq!(reg.snapshot(a).unwrap_err(), ServeError::StaleSession(a));
        assert_eq!(reg.evict(a).unwrap_err(), ServeError::StaleSession(a));

        // the freed row is reused under a fresh generation: the old id
        // still cannot resolve
        let c = reg.create().unwrap();
        assert_eq!(c.index(), a.index());
        assert_ne!(c.generation(), a.generation());
        assert!(!reg.contains(a));
        assert!(reg.contains(c));
    }

    #[test]
    fn capacity_and_shape_are_enforced() {
        let mut reg = registry(|c| c.max_sessions = 1);
        let id = reg.create().unwrap();
        assert_eq!(reg.create().unwrap_err(), ServeError::AtCapacity(1));
        let bad = Tensor::zeros(Shape::new(1, 1, 32, 32));
        assert_eq!(
            reg.feed(id, &bad, 0).unwrap_err(),
            ServeError::SceneShape {
                expected: 48,
                got: (32, 32)
            }
        );
    }

    #[test]
    fn full_queue_sheds_oldest_and_stays_bounded() {
        // one leg per recon route: shed frames grade Degraded once a
        // session has tracked an image (f32) or a raw measurement (the
        // latent session, whose steady frames reconstruct nothing)
        for backend in [GazeBackend::F32, GazeBackend::Latent] {
            let mut reg = registry(|c| {
                c.queue_capacity = 2;
                c.tracker.gaze_backend = backend;
            });
            let id = reg.create().unwrap();
            let img = scene(0);
            assert!(matches!(
                reg.feed(id, &img, 0).unwrap(),
                FeedOutcome::Queued { depth: 1 }
            ));
            assert!(matches!(
                reg.feed(id, &img, 1).unwrap(),
                FeedOutcome::Queued { depth: 2 }
            ));
            // third feed sheds the oldest; nothing tracked yet -> Lost
            let out = reg.feed(id, &img, 2).unwrap();
            let shed = out.shed().expect("queue was full");
            assert_eq!(shed.quality, FrameQuality::Lost);
            assert_eq!(shed.frame, 0, "drop-head: the oldest frame is shed");
            let snap = reg.snapshot(id).unwrap();
            assert_eq!(snap.queue_depth, 2);
            assert_eq!(snap.frames_ingested, 3);
            assert_eq!(snap.stats.frames_shed, 1);

            // once a frame has been tracked, shed frames degrade instead
            reg.tick();
            reg.feed(id, &img, 3).unwrap();
            let out = reg.feed(id, &img, 4).unwrap();
            assert_eq!(
                out.shed().expect("full again").quality,
                FrameQuality::Degraded,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn tick_completes_frames_and_frame_indices_stay_dense() {
        // session `a` is f32 even under ambient EYECOD_GAZE_BACKEND: the
        // forward counts below assume f32 + int8 sessions
        let mut reg = registry(|c| c.tracker.gaze_backend = GazeBackend::F32);
        let a = reg.create().unwrap();
        let b = reg.create_with_backend(GazeBackend::Int8).unwrap();
        for i in 0..3u64 {
            reg.feed(a, &scene(i), i).unwrap();
            reg.feed(b, &scene(i), i).unwrap();
        }
        for seen in 0..3u64 {
            let (report, trace) = reg.tick_traced();
            assert_eq!(report.staged, 2);
            assert_eq!(report.completed, 2);
            assert_eq!(report.f32_forwards + report.int8_forwards, 2);
            for (id, frame) in &trace {
                assert!(*id == a || *id == b);
                assert_eq!(frame.frame, seen, "frame indices are per-session dense");
                assert!(frame.quality.usable());
            }
        }
        // queues drained: an empty tick is a no-op
        assert_eq!(reg.tick(), TickReport::default());
        let snap = reg.snapshot(a).unwrap();
        assert_eq!(snap.stats.frames, 3);
        assert_eq!(snap.queue_depth, 0);
        assert!(snap.last.is_some());
        assert_eq!(reg.fleet_stats().frames, 6);
    }

    #[test]
    fn int8_sessions_share_one_fleet_calibration() {
        let mut reg = registry(|_| {});
        let ids: Vec<_> = (0..4)
            .map(|_| reg.create_with_backend(GazeBackend::Int8).unwrap())
            .collect();
        assert!(!reg.int8_calibrated());
        // calibration_frames = 8 and 4 warming sessions feed crops per
        // tick: the window fills during tick 2, calibrating at its end
        for t in 0..2u64 {
            for id in &ids {
                reg.feed(*id, &scene(t), t).unwrap();
            }
            let report = reg.tick();
            assert_eq!(report.int8_forwards, 0, "still warming");
        }
        assert!(reg.int8_calibrated());
        for id in &ids {
            reg.feed(*id, &scene(9), 9).unwrap();
        }
        let report = reg.tick();
        assert_eq!(report.f32_forwards, 0);
        assert_eq!(report.int8_forwards, 4);
    }
}
