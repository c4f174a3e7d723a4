//! Columnar (structure-of-arrays) session storage.
//!
//! Sessions are rows; per-stage pipeline state lives in parallel columns —
//! acquisition scratch, reconstructed images, ROI crops, gaze inputs,
//! predictions — so the tick's batch gather sweeps one column across all
//! staged sessions with cache-friendly strides instead of hopping between
//! per-session AoS bundles (the ECS archetype layout, after `flax`; the
//! software analogue of the accelerator keeping each pipeline stage's
//! activations in its own global-buffer bank).
//!
//! The store only manages rows and columns; the tick in `registry.rs`
//! executes the stages over them. A standalone tracker runs the same stage
//! calls over its own scratch instead of the columns, which is what makes
//! the two layouts differentially comparable.

use crate::{ServeError, SessionId};
use eyecod_core::acquisition::AcquireScratch;
use eyecod_core::metrics::TrackingStats;
use eyecod_core::tracker::{EyeTracker, GazeBackend, StageCursor, TrackedFrame};
use eyecod_eyedata::GazeVector;
use eyecod_tensor::{Shape, Tensor};
use std::collections::VecDeque;

/// Stage indices for the per-row stage-epoch column (capture, recon,
/// crop/resize, gaze gather). The epoch a stage stamps is `frame + 1`
/// (so 0 means "never ran"), and every downstream stage asserts its
/// upstream stamp matches the cursor's frame — no stage may consume a
/// previous stage's output from a different frame index, whichever pool
/// worker ran it.
pub(crate) const STAGE_CAPTURE: usize = 0;
/// See [`STAGE_CAPTURE`].
pub(crate) const STAGE_RECON: usize = 1;
/// See [`STAGE_CAPTURE`].
pub(crate) const STAGE_CROP: usize = 2;
/// See [`STAGE_CAPTURE`].
pub(crate) const STAGE_GAZE: usize = 3;
/// Number of stamped stages.
pub(crate) const STAGES: usize = 4;

/// Which forward path a staged frame was routed to this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// No gaze input (acquisition lost the frame): completion takes the
    /// tracker's missing-frame fallback, no forward runs.
    Fallback,
    /// The f32 batch (f32 sessions, int8 sessions before the shared
    /// calibration exists, and latent sessions on their ROI-refresh
    /// frames, whose staged input is a recon-path crop).
    F32,
    /// The shared int8 batch.
    Int8,
    /// The latent batch: recon-free sessions on steady-state frames, whose
    /// staged input is a projected raw measurement.
    Latent,
}

/// A frame waiting in a session's ingress queue. `scene` is an owned copy
/// recycled through the session's spare-buffer freelist, so steady-state
/// feeding allocates nothing.
pub(crate) struct QueuedFrame {
    pub(crate) scene: Tensor,
    pub(crate) noise_seed: u64,
    pub(crate) truth: Option<GazeVector>,
}

/// Raw-pointer smuggler for handing *disjoint* `&mut` column elements to
/// pool workers. Safety rests on the caller indexing with unique indices.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// `&mut` to element `i`. Safety: the caller guarantees `i` is in
    /// bounds and no two concurrent calls use the same index. (A method
    /// rather than field access so closures capture the `Sync` wrapper,
    /// not the raw pointer.)
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

/// The columnar session store: one row per slot, one column per piece of
/// per-session state. A row is live while `trackers[row]` is `Some`;
/// `generations[row]` guards stale [`SessionId`]s. Rows are recycled
/// through the free list, keeping every column's allocation warm — column
/// buffers grow on session create / first use and are never shrunk by the
/// steady state (the zero-alloc proof covers the tick).
pub(crate) struct SessionStore {
    // --- row management -------------------------------------------------
    pub(crate) generations: Vec<u32>,
    pub(crate) free: Vec<u32>,
    pub(crate) active: usize,
    // --- identity & control columns ------------------------------------
    pub(crate) trackers: Vec<Option<EyeTracker>>,
    pub(crate) backends: Vec<GazeBackend>,
    // --- ingress columns ------------------------------------------------
    pub(crate) queues: Vec<VecDeque<QueuedFrame>>,
    /// Recycled scene buffers for each ingress queue.
    pub(crate) spares: Vec<Vec<Tensor>>,
    pub(crate) frames_ingested: Vec<u64>,
    // --- per-tick columns -----------------------------------------------
    /// The frame popped for the current tick (between stage and complete).
    pub(crate) staged: Vec<Option<QueuedFrame>>,
    /// The per-frame stage cursor (between the front half and completion).
    pub(crate) cursors: Vec<Option<StageCursor>>,
    pub(crate) routes: Vec<Route>,
    /// `(arena slot, row-in-sub-batch)` of this session's crop in the
    /// current batch.
    pub(crate) batch_pos: Vec<(u32, u32)>,
    // --- stage-state columns ---------------------------------------------
    /// Acquisition scratch: capture temporaries + reconstruction
    /// workspace (written by the capture stage, read by the recon stage).
    pub(crate) acquires: Vec<AcquireScratch>,
    /// Reconstructed (or fallback) image per session.
    pub(crate) images: Vec<Tensor>,
    /// ROI crop of `images[row]`.
    pub(crate) crops: Vec<Tensor>,
    /// Resized gaze-network inputs — the column the batched gaze gather
    /// and the int8 calibration read.
    pub(crate) gaze_ins: Vec<Tensor>,
    /// Per-session prediction buffers (scattered back from the batch
    /// output, or written by fault staging during completion).
    pub(crate) preds: Vec<Tensor>,
    /// Stage-epoch stamps (`frame + 1` per stage) for the conformance
    /// invariant; see [`STAGE_CAPTURE`].
    pub(crate) epochs: Vec<[u64; STAGES]>,
    // --- accounting columns ----------------------------------------------
    pub(crate) stats: Vec<TrackingStats>,
    pub(crate) lasts: Vec<Option<TrackedFrame>>,
}

impl SessionStore {
    pub(crate) fn new() -> Self {
        SessionStore {
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            trackers: Vec::new(),
            backends: Vec::new(),
            queues: Vec::new(),
            spares: Vec::new(),
            frames_ingested: Vec::new(),
            staged: Vec::new(),
            cursors: Vec::new(),
            routes: Vec::new(),
            batch_pos: Vec::new(),
            acquires: Vec::new(),
            images: Vec::new(),
            crops: Vec::new(),
            gaze_ins: Vec::new(),
            preds: Vec::new(),
            epochs: Vec::new(),
            stats: Vec::new(),
            lasts: Vec::new(),
        }
    }

    /// Number of rows (live + recycled).
    pub(crate) fn rows(&self) -> usize {
        self.generations.len()
    }

    /// Whether `row` currently holds a live session.
    pub(crate) fn is_live(&self, row: usize) -> bool {
        self.trackers.get(row).is_some_and(Option::is_some)
    }

    /// Inserts a session, reusing a free row when one exists, and returns
    /// its id. Recycled rows keep their warm column buffers (images,
    /// crops, scratch) — only the logical state is reset.
    pub(crate) fn insert(&mut self, tracker: EyeTracker, backend: GazeBackend) -> SessionId {
        let row = match self.free.pop() {
            Some(row) => {
                let r = row as usize;
                self.trackers[r] = Some(tracker);
                self.backends[r] = backend;
                self.queues[r].clear();
                self.spares[r].clear();
                // the previous occupant's delta caches must not leak into
                // the new session: unprime them (the warmed buffers stay,
                // like every other column allocation) so the first frames
                // run dense until a refresh re-primes — exactly as a fresh
                // standalone tracker's own scratch would
                self.acquires[r].invalidate_delta();
                self.frames_ingested[r] = 0;
                self.staged[r] = None;
                self.cursors[r] = None;
                self.routes[r] = Route::Fallback;
                self.batch_pos[r] = (0, 0);
                self.epochs[r] = [0; STAGES];
                self.stats[r] = TrackingStats::new();
                self.lasts[r] = None;
                r
            }
            None => {
                self.generations.push(0);
                self.trackers.push(Some(tracker));
                self.backends.push(backend);
                self.queues.push(VecDeque::new());
                self.spares.push(Vec::new());
                self.frames_ingested.push(0);
                self.staged.push(None);
                self.cursors.push(None);
                self.routes.push(Route::Fallback);
                self.batch_pos.push((0, 0));
                self.acquires.push(AcquireScratch::new());
                self.images.push(Tensor::zeros(Shape::new(1, 1, 1, 1)));
                self.crops.push(Tensor::zeros(Shape::new(1, 1, 1, 1)));
                self.gaze_ins.push(Tensor::zeros(Shape::new(1, 1, 1, 1)));
                self.preds.push(Tensor::zeros(Shape::new(1, 1, 1, 1)));
                self.epochs.push([0; STAGES]);
                self.stats.push(TrackingStats::new());
                self.lasts.push(None);
                self.generations.len() - 1
            }
        };
        self.active += 1;
        SessionId::new(row as u32, self.generations[row])
    }

    /// Removes a session, bumping the row's generation so the evicted id
    /// (and any copy of it) can never resolve again. The row's column
    /// buffers stay allocated for the next occupant.
    pub(crate) fn remove(&mut self, row: usize) {
        self.trackers[row] = None;
        self.staged[row] = None;
        self.cursors[row] = None;
        self.queues[row].clear();
        self.spares[row].clear();
        self.generations[row] = self.generations[row].wrapping_add(1);
        self.free.push(row as u32);
        self.active -= 1;
    }

    /// Resolves an id to its row, enforcing liveness and generation.
    pub(crate) fn resolve(&self, id: SessionId) -> Result<usize, ServeError> {
        let row = id.index() as usize;
        match self.generations.get(row) {
            None => Err(ServeError::UnknownSession(id)),
            Some(&g) if g != id.generation() => Err(ServeError::StaleSession(id)),
            Some(_) if self.trackers[row].is_none() => Err(ServeError::UnknownSession(id)),
            Some(_) => Ok(row),
        }
    }

    /// Stamps stage `stage` of `row` as produced by `frame`, asserting the
    /// upstream stage (if any) was produced by the *same* frame — the
    /// tick's stage-conformance invariant.
    ///
    /// # Panics
    ///
    /// Panics if the upstream stamp belongs to a different frame index.
    pub(crate) fn stamp_stage(&mut self, row: usize, stage: usize, frame: u64) {
        stamp_stage_row(&mut self.epochs[row], stage, frame, row);
    }

    /// Asserts stage `stage` of `row` was produced by `frame` without
    /// stamping anything (used at completion).
    ///
    /// # Panics
    ///
    /// Panics if the stamp belongs to a different frame index.
    pub(crate) fn check_stage(&self, row: usize, stage: usize, frame: u64) {
        let got = self.epochs[row][stage];
        assert_eq!(
            got,
            frame + 1,
            "completion of row {row} consuming stage {stage} output from frame {} (want {frame})",
            got.wrapping_sub(1),
        );
    }
}

/// [`SessionStore::stamp_stage`] over a borrowed epoch row — the form a
/// pool job calls through its raw column pointer.
///
/// # Panics
///
/// Panics if the upstream stamp belongs to a different frame index.
pub(crate) fn stamp_stage_row(epoch: &mut [u64; STAGES], stage: usize, frame: u64, row: usize) {
    if stage > 0 {
        let up = epoch[stage - 1];
        assert_eq!(
            up,
            frame + 1,
            "stage {stage} of row {row} consuming stage {} output from frame {} (want {})",
            stage - 1,
            up.wrapping_sub(1),
            frame,
        );
    }
    epoch[stage] = frame + 1;
}
