//! The session registry and its serve tick.
//!
//! Sessions live in a columnar [`SessionStore`] (rows = sessions, columns
//! = per-stage state); the tick executes in one of three
//! [`TickMode`]s — the sequential AoS reference, PR 6's batched tick, or
//! the columnar stage-scheduled tick (see `scheduler.rs`) — all of which
//! produce identical per-session outputs.

use crate::store::{QueuedFrame, Route, SendPtr, SessionStore, STAGES};
use crate::{ServeConfig, ServeError, SessionId, TickMode};
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

pub(crate) enum PoolHandle {
    Global,
    Owned(ThreadPool),
}

/// The multi-session serving registry. See the crate docs for the model;
/// the short version: [`create`](ServeRegistry::create) sessions,
/// [`feed`](ServeRegistry::feed) them frames (bounded queues, drop-head
/// shedding), drive everything with [`tick`](ServeRegistry::tick)
/// (per-stage column sweeps or pooled AoS prepare + cross-session batched
/// gaze forwards, per [`TickMode`]),
/// [`snapshot`](ServeRegistry::snapshot) or
/// [`evict`](ServeRegistry::evict) when done.
pub struct ServeRegistry {
    pub(crate) config: ServeConfig,
    pub(crate) models: TrackerModels,
    /// Built once from the config, cloned per session — sessions share the
    /// same mask/reconstruction geometry, so each create skips the
    /// Tikhonov setup.
    acquisition: Acquisition,
    pub(crate) faults: FaultPlan,
    recovery: RecoveryPolicy,
    pub(crate) pool: PoolHandle,
    pub(crate) store: SessionStore,
    /// Rows with a staged frame this tick (reused across ticks).
    pub(crate) work: Vec<u32>,
    pub(crate) f32_batch: Vec<u32>,
    pub(crate) i8_batch: Vec<u32>,
    pub(crate) lat_batch: Vec<u32>,
    pub(crate) f32_arena: WorkspaceArena,
    pub(crate) i8_arena: WorkspaceArena,
    pub(crate) lat_arena: WorkspaceArena,
    /// The fleet-shared int8 network, once calibrated. Per-session
    /// calibration would give each session data-dependent activation
    /// scales and defeat cross-session batching; sharing one network
    /// calibrated on the first crops the fleet produces mirrors a deployed
    /// parameter server.
    pub(crate) shared_qnet: Option<QuantizedGazeNet>,
    /// Gaze crops collected from warming int8 sessions, pending the shared
    /// calibration.
    pub(crate) calib: Vec<Tensor>,
    /// Reusable stage-scheduler state (scheduled mode).
    pub(crate) sched: crate::scheduler::SchedState,
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
            f32_batch: Vec::new(),
            i8_batch: Vec::new(),
            lat_batch: Vec::new(),
            f32_arena: WorkspaceArena::new(),
            i8_arena: WorkspaceArena::new(),
            lat_arena: WorkspaceArena::new(),
            shared_qnet: None,
            calib: Vec::new(),
            sched: crate::scheduler::SchedState::new(),
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
        let tracker =
            EyeTracker::with_acquisition(cfg, self.models.clone_models(), self.acquisition.clone())
                .with_faults(self.faults.clone())
                .with_recovery(self.recovery);
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

    /// The pool this registry schedules on.
    pub(crate) fn pool(&self) -> &ThreadPool {
        match &self.pool {
            PoolHandle::Global => eyecod_pool::global(),
            PoolHandle::Owned(p) => p,
        }
    }

    /// Runs one serve tick: pops at most one frame per session (stable
    /// slot order), executes every staged frame per the configured
    /// [`TickMode`], and completes each frame.
    ///
    /// Neither batching nor stage scheduling ever changes results: batched
    /// GEMMs process items independently and fault draws are pure hashes
    /// of (seed, site, frame), so per-session outputs are invariant to
    /// batch composition, stage interleaving and worker count — the
    /// property the differential and scheduler-invariant suites pin
    /// against [`TickMode::Sequential`].
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
        // 1. stage: at most one queued frame per session, slot order
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
        // 2. execute per the configured mode
        let (f32_forwards, int8_forwards, latent_forwards) = match self.config.mode {
            TickMode::Sequential => self.tick_sequential(trace.as_deref_mut()),
            TickMode::Batched => self.tick_batched(trace.as_deref_mut()),
            TickMode::Scheduled => self.tick_scheduled(trace),
        };
        static_counter!("serve/frames_completed").add(staged as u64);
        // 3. fleet int8 calibration, once the warm-up crops are in — at
        // tick end so the tick that fills the window still serves f32,
        // exactly like the single-tracker warm-up
        let calib_target = self.config.tracker.calibration_frames;
        if self.shared_qnet.is_none() && calib_target > 0 && self.calib.len() >= calib_target {
            let batch = Tensor::stack(&self.calib);
            self.shared_qnet = Some(QuantizedGazeNet::from_calibrated(&self.models.gaze, &batch));
            self.calib.clear();
            self.calib.shrink_to_fit();
            static_counter!("serve/int8_calibrations").inc();
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

    /// Routes row `row`'s prepared gaze input: picks the forward path,
    /// collects fleet calibration crops from warming int8 sessions, and
    /// appends the row to the matching batch group. Must run in work
    /// order — calibration collection is deterministic and
    /// pool-size-invariant because of it.
    ///
    /// `refresh_due` is the frame's scheduled ROI-refresh flag: latent
    /// sessions route their refresh frames (recon-path crops) through the
    /// f32 batch and their steady-state frames (projected measurements)
    /// through the latent batch, mirroring the tracker's own dispatch.
    pub(crate) fn route_row(
        &mut self,
        row: usize,
        has_input: bool,
        input_non_finite: bool,
        refresh_due: bool,
    ) {
        if !has_input {
            self.store.routes[row] = Route::Fallback;
            return;
        }
        let calibrated = self.shared_qnet.is_some();
        let calib_open = self.calib.len() < self.config.tracker.calibration_frames;
        let backend = self.store.backends[row];
        if backend == GazeBackend::Int8 && calibrated {
            self.store.routes[row] = Route::Int8;
            self.i8_batch.push(row as u32);
        } else if backend == GazeBackend::Latent && !refresh_due {
            self.store.routes[row] = Route::Latent;
            self.lat_batch.push(row as u32);
        } else {
            if backend == GazeBackend::Int8 && !calibrated && calib_open && !input_non_finite {
                let crop = match self.config.mode {
                    TickMode::Scheduled => self.store.gaze_ins[row].clone(),
                    _ => self.store.preps[row]
                        .as_ref()
                        .expect("prepared")
                        .gaze_input()
                        .clone(),
                };
                self.calib.push(crop);
            }
            self.store.routes[row] = Route::F32;
            self.f32_batch.push(row as u32);
        }
    }

    /// The sequential AoS reference tick: each staged session runs its
    /// whole frame pipeline inline in work order — per-session
    /// `prepare_frame` through the tracker-owned scratch, routing (with
    /// the same fleet-shared int8 semantics as every other mode), an
    /// individual gaze forward, and completion. The golden path the
    /// differential suites compare the batched and scheduled ticks
    /// against.
    fn tick_sequential(
        &mut self,
        mut trace: Option<&mut Vec<(SessionId, TrackedFrame)>>,
    ) -> (usize, usize, usize) {
        self.f32_batch.clear();
        self.i8_batch.clear();
        self.lat_batch.clear();
        for w in 0..self.work.len() {
            let row = self.work[w] as usize;
            // prepare inline (AoS: the tracker's own scratch buffers)
            let prep = {
                let qf = self.store.staged[row].as_ref().expect("staged");
                self.store.trackers[row]
                    .as_mut()
                    .expect("staged row is live")
                    .prepare_frame(&qf.scene, qf.noise_seed)
            };
            let has_input = prep.has_gaze_input();
            let non_finite = has_input && prep.gaze_input().has_non_finite();
            let due = prep.refresh_due();
            self.store.preps[row] = Some(prep);
            self.route_row(row, has_input, non_finite, due);
            // forward individually + complete
            let route = self.store.routes[row];
            let mut pred = [0.0f32; 3];
            if route != Route::Fallback {
                self.forward_single(row, route, &mut pred);
            }
            let prep = self.store.preps[row].take().expect("prepared");
            let tracker = self.store.trackers[row].as_mut().expect("live");
            let out = if route == Route::Fallback {
                tracker.complete_frame(prep)
            } else {
                tracker.complete_frame_with_pred(prep, &pred)
            };
            self.account_completion(row, out, trace.as_deref_mut());
        }
        (
            self.f32_batch.len(),
            self.i8_batch.len(),
            self.lat_batch.len(),
        )
    }

    /// PR 6's batched tick: pooled AoS prepare (one job per session),
    /// serial routing, one batched gaze GEMM per pool participant, serial
    /// completion.
    fn tick_batched(
        &mut self,
        mut trace: Option<&mut Vec<(SessionId, TrackedFrame)>>,
    ) -> (usize, usize, usize) {
        // prepare in parallel: acquisition / ROI refresh / crop+resize,
        // one pool job per session
        {
            let trackers = SendPtr(self.store.trackers.as_mut_ptr());
            let preps = SendPtr(self.store.preps.as_mut_ptr());
            let staged = SendPtr(self.store.staged.as_mut_ptr());
            let work = &self.work;
            self.pool().parallel_for_chunked(work.len(), 1, |i| {
                // SAFETY: `work` holds unique rows, so every job touches a
                // distinct session's columns
                let row = work[i] as usize;
                let tracker = unsafe { trackers.get(row) }.as_mut().expect("staged row");
                let qf = unsafe { staged.get(row) }.as_ref().expect("staged frame");
                *unsafe { preps.get(row) } = Some(tracker.prepare_frame(&qf.scene, qf.noise_seed));
            });
        }
        // route serially in work order
        self.f32_batch.clear();
        self.i8_batch.clear();
        self.lat_batch.clear();
        for w in 0..self.work.len() {
            let row = self.work[w] as usize;
            let prep = self.store.preps[row].as_ref().expect("prepared");
            let has_input = prep.has_gaze_input();
            let non_finite = has_input && prep.gaze_input().has_non_finite();
            let due = prep.refresh_due();
            self.route_row(row, has_input, non_finite, due);
        }
        let counts = (
            self.f32_batch.len(),
            self.i8_batch.len(),
            self.lat_batch.len(),
        );
        // batched forwards: one GEMM per pool participant
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
        for w in 0..self.work.len() {
            let row = self.work[w] as usize;
            let route = self.store.routes[row];
            let mut pred = [0.0f32; 3];
            let use_pred = route != Route::Fallback;
            if use_pred {
                let (p, j) = self.store.batch_pos[row];
                let arena = match route {
                    Route::Int8 => &self.i8_arena,
                    Route::Latent => &self.lat_arena,
                    _ => &self.f32_arena,
                };
                let out = arena.slot(p as usize).output.as_slice();
                pred.copy_from_slice(&out[j as usize * 3..j as usize * 3 + 3]);
            }
            let prep = self.store.preps[row].take().expect("prepared");
            let tracker = self.store.trackers[row].as_mut().expect("live");
            let out = if use_pred {
                tracker.complete_frame_with_pred(prep, &pred)
            } else {
                tracker.complete_frame(prep)
            };
            self.account_completion(row, out, trace.as_deref_mut());
        }
        counts
    }

    /// Folds a completed frame into the session's accounting columns and
    /// the trace, and recycles the staged scene buffer.
    pub(crate) fn account_completion(
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
    /// The gather reads each row's gaze input from the mode's layout: the
    /// `gaze_ins` column in scheduled mode, the AoS prepared frame
    /// otherwise.
    ///
    /// `route` selects the network and arena: [`Route::F32`],
    /// [`Route::Int8`] or [`Route::Latent`] (never [`Route::Fallback`]).
    pub(crate) fn run_batch(&mut self, group: &[u32], route: Route) {
        if group.is_empty() {
            return;
        }
        let batch_timer = static_histogram!("serve/batch_ns").timer();
        static_counter!("serve/batches").inc();
        static_counter!("serve/batch_size").add(group.len() as u64);
        let columnar = self.config.mode == TickMode::Scheduled;
        let n = group.len();
        let parts = self.pool().participants().min(n);
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
                let src = if columnar {
                    self.store.gaze_ins[row].as_slice()
                } else {
                    self.store.preps[row]
                        .as_ref()
                        .expect("prepared")
                        .gaze_input()
                        .as_slice()
                };
                slot.input.batch_item_slice_mut(j).copy_from_slice(src);
            }
        }
        {
            let pool = match &self.pool {
                PoolHandle::Global => eyecod_pool::global(),
                PoolHandle::Owned(p) => p,
            };
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

    /// The sequential-mode forward: the same routing and shared int8
    /// semantics, but each forward runs individually through arena slot 0.
    fn forward_single(&mut self, row: usize, route: Route, pred: &mut [f32; 3]) {
        let arena = match route {
            Route::Int8 => &mut self.i8_arena,
            Route::Latent => &mut self.lat_arena,
            Route::F32 => &mut self.f32_arena,
            Route::Fallback => unreachable!("fallback rows never forward"),
        };
        arena.ensure(1);
        let slot = arena.slot_mut(0);
        let input = match self.config.mode {
            TickMode::Scheduled => &self.store.gaze_ins[row],
            _ => self.store.preps[row]
                .as_ref()
                .expect("prepared")
                .gaze_input(),
        };
        slot.input.copy_from(input);
        match route {
            Route::Int8 => self
                .shared_qnet
                .as_ref()
                .expect("int8 forwards only run once calibrated")
                .forward_into(&slot.input, &mut slot.ws, &mut slot.output),
            Route::Latent => {
                self.models
                    .latent
                    .forward_infer(&slot.input, &mut slot.ws, &mut slot.output)
            }
            _ => self
                .models
                .gaze
                .forward_infer(&slot.input, &mut slot.ws, &mut slot.output),
        }
        pred.copy_from_slice(&slot.output.as_slice()[..3]);
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
        // an f32 session even under ambient EYECOD_GAZE_BACKEND: shed
        // frames grade Degraded once a reconstructed image exists, which
        // a latent session's steady (recon-free) frames never produce
        let mut reg = registry(|c| {
            c.queue_capacity = 2;
            c.tracker.gaze_backend = GazeBackend::F32;
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
            FrameQuality::Degraded
        );
    }

    #[test]
    fn tick_completes_frames_and_frame_indices_stay_dense() {
        for mode in [TickMode::Sequential, TickMode::Batched, TickMode::Scheduled] {
            // session `a` is f32 even under ambient EYECOD_GAZE_BACKEND:
            // the forward counts below assume f32 + int8 sessions
            let mut reg = registry(|c| {
                c.mode = mode;
                c.tracker.gaze_backend = GazeBackend::F32;
            });
            let a = reg.create().unwrap();
            let b = reg.create_with_backend(GazeBackend::Int8).unwrap();
            for i in 0..3u64 {
                reg.feed(a, &scene(i), i).unwrap();
                reg.feed(b, &scene(i), i).unwrap();
            }
            for seen in 0..3u64 {
                let (report, trace) = reg.tick_traced();
                assert_eq!(report.staged, 2, "{mode:?}");
                assert_eq!(report.completed, 2, "{mode:?}");
                assert_eq!(report.f32_forwards + report.int8_forwards, 2, "{mode:?}");
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
    }

    #[test]
    fn int8_sessions_share_one_fleet_calibration() {
        for mode in [TickMode::Sequential, TickMode::Batched, TickMode::Scheduled] {
            let mut reg = registry(|c| c.mode = mode);
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
                assert_eq!(report.int8_forwards, 0, "{mode:?}: still warming");
            }
            assert!(reg.int8_calibrated(), "{mode:?}");
            for id in &ids {
                reg.feed(*id, &scene(9), 9).unwrap();
            }
            let report = reg.tick();
            assert_eq!(report.f32_forwards, 0, "{mode:?}");
            assert_eq!(report.int8_forwards, 4, "{mode:?}");
        }
    }
}
