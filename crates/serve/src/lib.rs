//! Multi-session serving layer: one process, thousands of eyes.
//!
//! A [`ServeRegistry`] hosts many concurrent [`EyeTracker`] sessions behind
//! a create/feed/tick/snapshot/evict lifecycle:
//!
//! * **Generational ids** — [`SessionId`] carries the slot's generation, so
//!   an id kept across an evict can never resolve to the slot's next
//!   occupant; every lookup is O(1).
//! * **One tick, one frame path** — each serve tick runs every staged
//!   frame through its session's own [`EyeTracker::process_frame`] — the
//!   exact call a standalone tracker makes — as one pool call per session
//!   (`eyecod-pool`'s `for_each_mut` over the session slots), then
//!   accounts the frames serially in slot order. Each slot holds one
//!   session struct (tracker, ingress queue, accounting, staged frame);
//!   all per-frame pipeline state lives inside each tracker. Sessions
//!   share one read-only `Arc<TrackerModels>`, and an int8 session
//!   calibrates on its own first crops, as a standalone tracker does. There is no cross-session batch:
//!   every convolution kernel runs batch items one at a time, so a batch
//!   shares no work.
//! * **Backpressure** — each session has a bounded ingress queue
//!   ([`ServeConfig::queue_capacity`]); feeding a full queue sheds the
//!   *oldest* queued frame so the freshest data survives. Shed frames
//!   degrade ([`FrameQuality::Degraded`] once any frame has been tracked)
//!   instead of panicking or blocking, and are accounted in
//!   `serve/frames_shed` plus each session's
//!   [`TrackingStats::frames_shed`].
//! * **Telemetry** — fleet counters (`serve/sessions_active`,
//!   `serve/frames_ingested`, `serve/frames_shed`,
//!   `serve/panics_recovered`, `serve/steady_state_allocs`) and the
//!   `serve/tick_ns` latency histogram flow into the global name-keyed
//!   registry and merge with per-tracker metrics (each hosted frame records
//!   the same `tracker/*` counters and stage histograms a standalone frame
//!   does) in snapshots.
//!
//! Determinism is preserved end to end: a frame job touches only its own
//! session, and accounting runs in slot order. So a registry driven by an
//! N-worker pool produces frame-for-frame identical output to a
//! sequential one, and every session serves exactly what a standalone
//! tracker would — the properties the registry test suites pin.
//!
//! [`EyeTracker`]: eyecod_core::tracker::EyeTracker
//! [`EyeTracker::process_frame`]: eyecod_core::tracker::EyeTracker::process_frame
//! [`FrameQuality::Degraded`]: eyecod_faults::FrameQuality::Degraded
//! [`TrackingStats::frames_shed`]: eyecod_core::metrics::TrackingStats

mod config;
mod registry;
mod store;

pub use config::ServeConfig;
pub use registry::{FeedOutcome, ServeRegistry, SessionSnapshot, TickReport};

use eyecod_tensor::Shape;

/// A generational session handle: `index` addresses the registry slot,
/// `generation` guards against use-after-evict. Ids from evicted sessions
/// fail every lookup with [`ServeError::StaleSession`] — a slot reused by a
/// later session bumps its generation first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

impl SessionId {
    /// The registry slot this id addresses.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The slot generation this id was minted under.
    pub fn generation(self) -> u32 {
        self.generation
    }

    pub(crate) fn new(index: u32, generation: u32) -> Self {
        SessionId { index, generation }
    }
}

/// Why a registry operation was refused. All refusals are recoverable —
/// the registry never panics on bad ids or bad frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The id's slot holds no session (never created, or index out of
    /// range).
    UnknownSession(SessionId),
    /// The id's slot was recycled: the session it referred to was evicted.
    StaleSession(SessionId),
    /// The registry is at [`ServeConfig::max_sessions`].
    AtCapacity(usize),
    /// The fed scene is not one `(1, 1, S, S)` plane of the configured
    /// scene size `S`.
    SceneShape {
        /// Configured square scene size.
        expected: usize,
        /// The offending scene's shape.
        got: Shape,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServeError::StaleSession(id) => write!(f, "stale session id {id:?} (evicted)"),
            ServeError::AtCapacity(max) => write!(f, "registry at capacity ({max} sessions)"),
            ServeError::SceneShape { expected, got } => {
                write!(
                    f,
                    "scene must be one {expected}x{expected} plane, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}
