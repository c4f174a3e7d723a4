//! Columnar (structure-of-arrays) session storage.
//!
//! Sessions are rows; per-session lifecycle state lives in parallel
//! columns — the tracker, the ingress queue and its recycled scene
//! buffers, the frame staged for the current tick, and the accounting.
//! Every piece of per-frame pipeline state (acquisition scratch, delta
//! caches, images, crops, inference arenas) lives inside each session's
//! own [`EyeTracker`], exactly as in a standalone tracker, so an evicted
//! session's caches leave with its tracker and can never leak into the
//! row's next occupant.
//!
//! The store only manages rows and columns; the tick in `registry.rs`
//! runs each staged frame through its tracker's `process_frame`.

use crate::{ServeError, SessionId};
use eyecod_core::metrics::TrackingStats;
use eyecod_core::tracker::{EyeTracker, TrackedFrame};
use eyecod_eyedata::GazeVector;
use eyecod_tensor::Tensor;
use std::collections::VecDeque;

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
// SAFETY: the one field is only dereferenced through `get`, whose caller
// guarantees that concurrent calls use distinct indices, so no element is
// ever aliased across threads.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send`: shared `&SendPtr`s only reach elements through
// `get`'s distinct-index contract.
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
/// through the free list, keeping every column's allocation warm.
pub(crate) struct SessionStore {
    // --- row management -------------------------------------------------
    pub(crate) generations: Vec<u32>,
    pub(crate) free: Vec<u32>,
    pub(crate) active: usize,
    // --- the sessions ---------------------------------------------------
    pub(crate) trackers: Vec<Option<EyeTracker>>,
    // --- ingress columns ------------------------------------------------
    pub(crate) queues: Vec<VecDeque<QueuedFrame>>,
    /// Recycled scene buffers for each ingress queue.
    pub(crate) spares: Vec<Vec<Tensor>>,
    pub(crate) frames_ingested: Vec<u64>,
    /// The frame popped for the current tick.
    pub(crate) staged: Vec<Option<QueuedFrame>>,
    // --- accounting columns ----------------------------------------------
    pub(crate) stats: Vec<TrackingStats>,
    /// The most recent output (processed or shed); the tick's frame job
    /// writes it and the serial accounting reads it.
    pub(crate) lasts: Vec<Option<TrackedFrame>>,
}

impl SessionStore {
    pub(crate) fn new() -> Self {
        SessionStore {
            generations: Vec::new(),
            free: Vec::new(),
            active: 0,
            trackers: Vec::new(),
            queues: Vec::new(),
            spares: Vec::new(),
            frames_ingested: Vec::new(),
            staged: Vec::new(),
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

    /// The live session in `row`, if any.
    pub(crate) fn tracker(&self, row: usize) -> Option<&EyeTracker> {
        self.trackers.get(row).and_then(Option::as_ref)
    }

    /// Inserts a session, reusing a free row when one exists, and returns
    /// its id.
    pub(crate) fn insert(&mut self, tracker: EyeTracker) -> SessionId {
        let row = match self.free.pop() {
            Some(row) => {
                let r = row as usize;
                self.trackers[r] = Some(tracker);
                self.queues[r].clear();
                self.spares[r].clear();
                self.frames_ingested[r] = 0;
                self.staged[r] = None;
                self.stats[r] = TrackingStats::new();
                self.lasts[r] = None;
                r
            }
            None => {
                self.generations.push(0);
                self.trackers.push(Some(tracker));
                self.queues.push(VecDeque::new());
                self.spares.push(Vec::new());
                self.frames_ingested.push(0);
                self.staged.push(None);
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
}
