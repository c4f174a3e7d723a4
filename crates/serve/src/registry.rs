//! The session registry and its serve tick.
//!
//! Sessions live in a [`SessionStore`] of slots, one `Session` struct per
//! live slot. One tick serves every staged frame:
//!
//! 1. **frames**, one pool call per slot ([`ThreadPool::for_each_mut`]):
//!    the session's own [`EyeTracker::process_frame`] on the staged scene,
//!    the exact call a standalone tracker makes; empty and unstaged slots
//!    return at once;
//! 2. **account**, serially in slot order: fold each frame into the
//!    session's statistics, count its gaze network into the
//!    [`TickReport`], and recycle the staged scene buffer.
//!
//! **Worker-panic recovery.** Every frame job checks the registry's
//! execution-plane fault plan at entry ([`FaultPlan::worker_panics`]; job
//! id = the frame's index among the tick's staged frames, in slot order)
//! and panics *before touching the session* when listed; the tick catches
//! the unwind and re-runs the job inline at attempt 1 (which never
//! re-fires). Because the injected panic happens at the entry point,
//! the retry replays the job from clean state and the tick's output is
//! byte-identical to an unfaulted run. Each tick reports its re-runs in
//! [`TickReport::panics_recovered`] (and the `serve/panics_recovered`
//! counter). (A *genuine* mid-job panic is also caught, but its retry
//! re-executes the body as-is; a deterministic bug surfaces on the retry
//! instead of being silently absorbed.)

use crate::store::{QueuedFrame, Session, SessionStore, Staged};
use crate::{ServeConfig, ServeError, SessionId};
use eyecod_core::acquisition::Acquisition;
use eyecod_core::metrics::TrackingStats;
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackedFrame};
use eyecod_core::training::TrackerModels;
use eyecod_faults::{FaultPlan, RecoveryPolicy};
use eyecod_pool::ThreadPool;
use eyecod_telemetry::{static_counter, static_histogram};
use eyecod_tensor::{Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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

/// What one serve tick did. The forward counts sum the frames'
/// [`TrackedFrame::network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Sessions that had a frame staged this tick.
    pub staged: usize,
    /// Frames completed (equals `staged`; split out for clarity in logs).
    pub completed: usize,
    /// Gaze forwards through the f32 network (including int8 sessions
    /// still collecting their calibration crops, and latent sessions on
    /// their ROI-refresh frames).
    pub f32_forwards: usize,
    /// Gaze forwards through a session's calibrated int8 network.
    pub int8_forwards: usize,
    /// Gaze forwards through the recon-free latent network (latent
    /// sessions on steady-state frames).
    pub latent_forwards: usize,
    /// Frame jobs that panicked (the fault plan's execution plane) and
    /// were re-run inline.
    pub panics_recovered: usize,
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
/// shedding), drive everything with [`tick`](ServeRegistry::tick) (one
/// pooled `process_frame` per session), [`snapshot`](ServeRegistry::snapshot)
/// or [`evict`](ServeRegistry::evict) when done.
pub struct ServeRegistry {
    config: ServeConfig,
    /// One weight set, shared read-only by every session's tracker.
    models: Arc<TrackerModels>,
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
}

impl ServeRegistry {
    /// Builds a registry from a configuration and trained models; every
    /// session reads this one weight set.
    ///
    /// The fault plan defaults to [`FaultPlan::none`] and the recovery
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
            models: Arc::new(models),
            acquisition,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            pool,
            store: SessionStore::new(),
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
        self.store.get(id).is_ok()
    }

    /// Whether every live int8 session serves from its own calibrated int8
    /// network: false while any int8 session is still collecting its
    /// calibration crops, and false when no int8 session is live.
    pub fn int8_calibrated(&self) -> bool {
        let mut int8 = self
            .store
            .sessions()
            .map(|s| &s.tracker)
            .filter(|t| t.config().gaze_backend == GazeBackend::Int8)
            .peekable();
        int8.peek().is_some() && int8.all(|t| t.quantized_gaze().is_some())
    }

    /// Creates a session with the configured default backend.
    pub fn create(&mut self) -> Result<SessionId, ServeError> {
        self.create_with_backend(self.config.tracker.gaze_backend)
    }

    /// Creates a session with an explicit gaze backend (fleets mix
    /// backends freely; an int8 session calibrates on its own first
    /// crops, as a standalone tracker does).
    pub fn create_with_backend(&mut self, backend: GazeBackend) -> Result<SessionId, ServeError> {
        if self.store.active >= self.config.max_sessions {
            return Err(ServeError::AtCapacity(self.config.max_sessions));
        }
        let mut cfg = self.config.tracker.clone();
        cfg.gaze_backend = backend;
        let tracker =
            EyeTracker::with_acquisition(cfg, Arc::clone(&self.models), self.acquisition.clone())
                .with_faults(self.faults.clone())
                .with_recovery(self.recovery);
        let id = self.store.insert(tracker);
        static_counter!("serve/sessions_created").inc();
        static_counter!("serve/sessions_active").set(self.store.active as u64);
        Ok(id)
    }

    /// Evicts a session, returning its final snapshot. The slot's
    /// generation is bumped, so the evicted id (and any copy of it) can
    /// never resolve again.
    pub fn evict(&mut self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let snap = self.snapshot(id)?;
        self.store.remove(id)?;
        static_counter!("serve/sessions_evicted").inc();
        static_counter!("serve/sessions_active").set(self.store.active as u64);
        Ok(snap)
    }

    /// Enqueues a frame for `id`.
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
        let expected = self.config.tracker.scene_size;
        if scene.shape() != Shape::new(1, 1, expected, expected) {
            return Err(ServeError::SceneShape {
                expected,
                got: scene.shape(),
            });
        }
        let capacity = self.config.queue_capacity;
        let session = self.store.get_mut(id)?;
        session.frames_ingested += 1;
        static_counter!("serve/frames_ingested").inc();
        let shed = if session.queue.len() >= capacity {
            let old = session.queue.pop_front().expect("full queue is non-empty");
            session.spares.push(old.scene);
            let out = session.tracker.shed_frame();
            session.stats.record_shed();
            session.last = Some(out.clone());
            static_counter!("serve/frames_shed").inc();
            Some(out)
        } else {
            None
        };
        let mut buf = session
            .spares
            .pop()
            .unwrap_or_else(|| Tensor::zeros(Shape::new(1, 1, 1, 1)));
        buf.copy_from(scene);
        session.queue.push_back(QueuedFrame {
            scene: buf,
            noise_seed,
        });
        Ok(match shed {
            Some(f) => FeedOutcome::Shed(f),
            None => FeedOutcome::Queued {
                depth: session.queue.len(),
            },
        })
    }

    /// Point-in-time view of one session.
    pub fn snapshot(&self, id: SessionId) -> Result<SessionSnapshot, ServeError> {
        let session = self.store.get(id)?;
        Ok(SessionSnapshot {
            id,
            backend: session.tracker.config().gaze_backend,
            stats: session.stats.clone(),
            queue_depth: session.queue.len(),
            frames_ingested: session.frames_ingested,
            last: session.last.clone(),
        })
    }

    /// Fleet-aggregate statistics: every live session's stats merged.
    pub fn fleet_stats(&self) -> TrackingStats {
        let mut total = TrackingStats::new();
        for session in self.store.sessions() {
            total.merge(&session.stats);
        }
        total
    }

    /// Runs one serve tick: pops at most one frame per session (stable
    /// slot order), runs each staged frame through its session's
    /// [`EyeTracker::process_frame`] as one pool call per session, then
    /// accounts every frame serially in slot order (see the module docs).
    ///
    /// The pool never changes results: each job touches only its own
    /// session, and fault draws are pure hashes of (seed, site, frame). So
    /// every session serves exactly what a standalone tracker would on the
    /// same frames, whatever the worker count — the properties the
    /// registry test suites pin.
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
        // stage: at most one queued frame per session, numbered in slot
        // order; a tick with an ROI refresh due may allocate, so only the
        // others count toward the steady-state proof
        let mut staged = 0;
        let mut steady = trace.is_none();
        for session in self
            .store
            .slots
            .iter_mut()
            .filter_map(|s| s.session.as_mut())
        {
            if let Some(frame) = session.queue.pop_front() {
                let t = &session.tracker;
                steady &= !t
                    .frames_processed()
                    .is_multiple_of(t.config().roi_period as u64);
                session.staged = Some(Staged {
                    frame,
                    job: staged as u64,
                    panicked: false,
                });
                staged += 1;
            }
        }
        if staged == 0 {
            drop(tick_timer);
            return TickReport::default();
        }
        let allocs_before = eyecod_core::alloc_counter::allocations();

        let plan = &self.faults;
        self.pool
            .get()
            .for_each_mut(&mut self.store.slots, |_, slot| {
                let Some(session) = slot.session.as_mut().filter(|s| s.staged.is_some()) else {
                    return;
                };
                if catch_unwind(AssertUnwindSafe(|| run_frame(session, plan, 0))).is_err() {
                    session.staged.as_mut().expect("frame staged").panicked = true;
                }
            });

        // account serially in slot order, so no statistic or trace depends
        // on how the pool ran the jobs
        let mut report = TickReport {
            staged,
            completed: staged,
            ..TickReport::default()
        };
        for (index, slot) in self.store.slots.iter_mut().enumerate() {
            let Some(session) = slot.session.as_mut() else {
                continue;
            };
            if session.staged.as_ref().is_some_and(|s| s.panicked) {
                // deterministic inline retry: attempt 1 never re-fires an
                // injected panic, and the panic happened before the job
                // touched the session
                run_frame(session, plan, 1);
                report.panics_recovered += 1;
            }
            let Some(Staged { frame, .. }) = session.staged.take() else {
                continue;
            };
            let out = session.last.as_ref().expect("frame job ran");
            match out.network {
                Some(GazeBackend::F32) => report.f32_forwards += 1,
                Some(GazeBackend::Int8) => report.int8_forwards += 1,
                Some(GazeBackend::Latent) => report.latent_forwards += 1,
                None => {}
            }
            session.stats.record_unlabeled(out);
            if let Some(tr) = trace.as_deref_mut() {
                tr.push((SessionId::new(index as u32, slot.generation), out.clone()));
            }
            session.spares.push(frame.scene);
        }
        if report.panics_recovered > 0 {
            static_counter!("serve/panics_recovered").add(report.panics_recovered as u64);
        }
        if steady {
            static_counter!("serve/steady_state_allocs")
                .add(eyecod_core::alloc_counter::allocations() - allocs_before);
        }
        static_counter!("serve/frames_completed").add(staged as u64);
        drop(tick_timer);
        report
    }
}

/// One frame job: the session's staged frame through its tracker's
/// `process_frame`, the output left in `last`. A job the fault plan's
/// execution plane lists panics at entry, before touching the session.
fn run_frame(session: &mut Session, plan: &FaultPlan, attempt: u32) {
    let staged = session.staged.as_ref().expect("frame staged");
    if plan.worker_panics(staged.job, attempt) {
        panic!("injected exec-plane fault: frame job {}", staged.job);
    }
    let frame = &staged.frame;
    session.last = Some(
        session
            .tracker
            .process_frame(&frame.scene, frame.noise_seed),
    );
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
            let cfg = TrackerConfig::small();
            let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
            (cfg, models)
        });
        let mut sc = ServeConfig::new(cfg.clone());
        sc.threads = Some(0); // sequential: unit tests stay deterministic & cheap
        mutate(&mut sc);
        ServeRegistry::new(sc, models.clone_models())
    }

    fn scene(seed: u64) -> Tensor {
        let mut p = EyeParams::centered(48);
        p.yaw = 0.02 * (seed as f32 % 7.0) - 0.07;
        render_eye(&p, 48, seed).image
    }

    #[test]
    fn lifecycle_ids_are_generational() {
        for backend in GazeBackend::ALL {
            let mut reg = registry(|c| c.tracker.gaze_backend = backend);
            let a = reg.create().unwrap();
            let b = reg.create().unwrap();
            assert_eq!(reg.sessions_active(), 2);
            assert!(reg.contains(a) && reg.contains(b));
            assert_ne!(a, b);

            let snap = reg.evict(a).unwrap();
            assert_eq!(snap.id, a);
            assert_eq!(snap.backend, backend);
            assert_eq!(reg.sessions_active(), 1);
            assert!(!reg.contains(a));
            assert_eq!(reg.snapshot(a).unwrap_err(), ServeError::StaleSession(a));
            assert_eq!(reg.evict(a).unwrap_err(), ServeError::StaleSession(a));

            // the freed slot is reused under a fresh generation: the old id
            // still cannot resolve
            let c = reg.create().unwrap();
            assert_eq!(c.index(), a.index());
            assert_ne!(c.generation(), a.generation());
            assert!(!reg.contains(a));
            assert!(reg.contains(c));
        }
    }

    #[test]
    fn capacity_and_shape_are_enforced() {
        for backend in GazeBackend::ALL {
            let mut reg = registry(|c| {
                c.max_sessions = 1;
                c.tracker.gaze_backend = backend;
            });
            let id = reg.create().unwrap();
            assert_eq!(reg.create().unwrap_err(), ServeError::AtCapacity(1));
            // a wrong size, a multi-channel and a multi-batch scene: all
            // refused at feed, so no tick ever sees them
            for got in [
                Shape::new(1, 1, 32, 32),
                Shape::new(1, 3, 48, 48),
                Shape::new(2, 1, 48, 48),
            ] {
                assert_eq!(
                    reg.feed(id, &Tensor::zeros(got), 0).unwrap_err(),
                    ServeError::SceneShape { expected: 48, got },
                    "{backend:?}"
                );
            }
            assert_eq!(reg.snapshot(id).unwrap().queue_depth, 0);
            assert_eq!(reg.tick(), TickReport::default());
        }
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
        // `create` takes `small()`'s f32 backend: the forward counts below
        // assume f32 + int8 sessions
        let mut reg = registry(|_| {});
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
    fn int8_calibrated_waits_for_every_live_int8_session() {
        let mut reg = registry(|_| {});
        assert!(!reg.int8_calibrated(), "no int8 session is live");
        let f32 = reg.create().unwrap();
        let early = reg.create_with_backend(GazeBackend::Int8).unwrap();
        // calibration_frames = 8: the session calibrates on its own first
        // eight crops, after the frame that fills the window
        for t in 0..8u64 {
            assert!(!reg.int8_calibrated(), "warming at tick {t}");
            reg.feed(f32, &scene(t), t).unwrap();
            reg.feed(early, &scene(t), t).unwrap();
            let report = reg.tick();
            assert_eq!((report.f32_forwards, report.int8_forwards), (2, 0));
        }
        assert!(reg.int8_calibrated());
        // a second int8 session warms from scratch while the first serves
        // int8
        let late = reg.create_with_backend(GazeBackend::Int8).unwrap();
        assert!(!reg.int8_calibrated(), "the late session is warming");
        for id in [f32, early, late] {
            reg.feed(id, &scene(8), 8).unwrap();
        }
        let report = reg.tick();
        assert_eq!((report.f32_forwards, report.int8_forwards), (2, 1));
        reg.evict(late).unwrap();
        assert!(reg.int8_calibrated(), "every live int8 session calibrated");
        reg.evict(early).unwrap();
        assert!(!reg.int8_calibrated(), "no int8 session is live");
    }
}
