//! Session storage: one struct per slot.
//!
//! A slot holds its generation and, while live, one [`Session`]: the
//! tracker, the ingress queue and its recycled scene buffers, the
//! accounting, and the frame staged for the current tick. Every piece of
//! per-frame pipeline state (acquisition scratch, delta caches, images,
//! crops, inference arenas) lives inside each session's own
//! [`EyeTracker`], exactly as in a standalone tracker, so an evicted
//! session's state leaves with it and can never leak into the slot's next
//! occupant.
//!
//! The store only manages slots; the tick in `registry.rs` hands each
//! slot to one pool call, which runs the staged frame through the
//! session's `process_frame`.

use crate::{ServeError, SessionId};
use eyecod_core::metrics::TrackingStats;
use eyecod_core::tracker::{EyeTracker, TrackedFrame};
use eyecod_tensor::Tensor;
use std::collections::VecDeque;

/// A frame waiting in a session's ingress queue. `scene` is an owned copy
/// recycled through the session's spare-buffer freelist, so steady-state
/// feeding allocates nothing.
pub(crate) struct QueuedFrame {
    pub(crate) scene: Tensor,
    pub(crate) noise_seed: u64,
}

/// The frame popped for the current tick.
pub(crate) struct Staged {
    pub(crate) frame: QueuedFrame,
    /// The frame's job id: its index among this tick's staged frames, in
    /// slot order (what the fault plan's execution plane keys on).
    pub(crate) job: u64,
    /// Set when the frame's pool call panicked; the tick re-runs it.
    pub(crate) panicked: bool,
}

/// One live session.
pub(crate) struct Session {
    pub(crate) tracker: EyeTracker,
    pub(crate) queue: VecDeque<QueuedFrame>,
    /// Recycled scene buffers for the ingress queue.
    pub(crate) spares: Vec<Tensor>,
    pub(crate) frames_ingested: u64,
    pub(crate) stats: TrackingStats,
    /// The most recent output (processed or shed); the tick's frame job
    /// writes it and the serial accounting reads it.
    pub(crate) last: Option<TrackedFrame>,
    pub(crate) staged: Option<Staged>,
}

/// A registry slot. `generation` guards stale [`SessionId`]s; the slot is
/// live while `session` is `Some`.
pub(crate) struct Slot {
    pub(crate) generation: u32,
    pub(crate) session: Option<Session>,
}

/// The slots, plus a free list of the empty ones for reuse.
pub(crate) struct SessionStore {
    pub(crate) slots: Vec<Slot>,
    free: Vec<u32>,
    pub(crate) active: usize,
}

impl SessionStore {
    pub(crate) fn new() -> Self {
        SessionStore {
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
        }
    }

    /// Every live session, in slot order.
    pub(crate) fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.slots.iter().filter_map(|s| s.session.as_ref())
    }

    /// Inserts a session, reusing a free slot when one exists, and returns
    /// its id.
    pub(crate) fn insert(&mut self, tracker: EyeTracker) -> SessionId {
        let session = Session {
            tracker,
            queue: VecDeque::new(),
            spares: Vec::new(),
            frames_ingested: 0,
            stats: TrackingStats::new(),
            last: None,
            staged: None,
        };
        let index = match self.free.pop() {
            Some(index) => index as usize,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    session: None,
                });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[index];
        slot.session = Some(session);
        self.active += 1;
        SessionId::new(index as u32, slot.generation)
    }

    /// Removes a live session, bumping the slot's generation so its id
    /// (and any copy of it) can never resolve again.
    pub(crate) fn remove(&mut self, id: SessionId) -> Result<Session, ServeError> {
        self.get(id)?;
        let slot = &mut self.slots[id.index() as usize];
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index());
        self.active -= 1;
        Ok(slot.session.take().expect("resolved slot is live"))
    }

    /// The live session `id` names, enforcing liveness and generation.
    pub(crate) fn get(&self, id: SessionId) -> Result<&Session, ServeError> {
        match self.slots.get(id.index() as usize) {
            None => Err(ServeError::UnknownSession(id)),
            Some(s) if s.generation != id.generation() => Err(ServeError::StaleSession(id)),
            Some(s) => s.session.as_ref().ok_or(ServeError::UnknownSession(id)),
        }
    }

    /// [`SessionStore::get`], mutably.
    pub(crate) fn get_mut(&mut self, id: SessionId) -> Result<&mut Session, ServeError> {
        self.get(id)?;
        Ok(self.slots[id.index() as usize]
            .session
            .as_mut()
            .expect("resolved slot is live"))
    }
}
