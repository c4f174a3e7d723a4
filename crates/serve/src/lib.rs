//! Multi-session serving layer: one process, thousands of eyes.
//!
//! A [`ServeRegistry`] hosts many concurrent [`EyeTracker`] sessions behind
//! a create/feed/tick/snapshot/evict lifecycle:
//!
//! * **Generational ids** — [`SessionId`] carries the slot's generation, so
//!   an id kept across an evict can never resolve to the slot's next
//!   occupant; every lookup is O(1).
//! * **One tick** — each serve tick runs every staged frame's front half
//!   (capture → recon → ROI refresh when due → crop/resize, the tracker's
//!   own [`front_stages`] call) as one job per session on the shared
//!   work-stealing pool (`eyecod-pool`), over per-session columns of a
//!   columnar `SessionStore` (rows = sessions, per-stage state = columns).
//!   Every stage stamps a per-session epoch, and each consumer asserts its
//!   upstream stage ran for the *same* frame index.
//! * **Cross-session micro-batching** — the tick gathers every staged
//!   gaze input into per-worker [`WorkspaceArena`] slots and runs one
//!   batched forward per worker instead of one per session: the paper's
//!   time-multiplexing of two DNNs over one set of MAC lanes, lifted to a
//!   fleet. Int8 sessions share a single fleet-calibrated
//!   [`QuantizedGazeNet`]; until enough calibration crops have been
//!   collected they ride the f32 batch, mirroring the single-tracker
//!   warm-up.
//! * **Backpressure** — each session has a bounded ingress queue
//!   ([`ServeConfig::queue_capacity`]); feeding a full queue sheds the
//!   *oldest* queued frame so the freshest data survives. Shed frames
//!   degrade ([`FrameQuality::Degraded`] once any frame has been tracked)
//!   instead of panicking or blocking, and are accounted in
//!   `serve/frames_shed` plus each session's
//!   [`TrackingStats::frames_shed`].
//! * **Telemetry** — fleet counters (`serve/sessions_active`,
//!   `serve/frames_ingested`, `serve/frames_shed`, `serve/batch_size`,
//!   `serve/sched_panics_recovered`, `serve/steady_state_allocs`) and the
//!   `serve/tick_ns` / `serve/batch_ns` latency histograms flow into the
//!   global name-keyed registry and merge with per-tracker metrics in
//!   snapshots.
//!
//! Determinism is preserved end to end: batching partitions a tick's
//! forwards but never reorders or mixes them (batched forwards process
//! items independently), and routing, completion and calibration run in
//! slot order. So a registry driven by an N-worker pool produces
//! frame-for-frame identical output to a sequential one, and every f32 and
//! latent session serves exactly what a standalone tracker would — the
//! properties the registry test suites pin.
//!
//! [`front_stages`]: eyecod_core::tracker::EyeTracker::front_stages
//! [`EyeTracker`]: eyecod_core::tracker::EyeTracker
//! [`WorkspaceArena`]: eyecod_models::infer::WorkspaceArena
//! [`QuantizedGazeNet`]: eyecod_models::quantized::QuantizedGazeNet
//! [`FrameQuality::Degraded`]: eyecod_faults::FrameQuality::Degraded
//! [`TrackingStats::frames_shed`]: eyecod_core::metrics::TrackingStats

mod config;
mod registry;
mod store;

pub use config::ServeConfig;
pub use registry::{FeedOutcome, ServeRegistry, SessionSnapshot, TickReport};

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
    /// The fed scene does not match the configured resolution.
    SceneShape {
        /// Configured square scene size.
        expected: usize,
        /// The offending scene's `(h, w)`.
        got: (usize, usize),
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServeError::StaleSession(id) => write!(f, "stale session id {id:?} (evicted)"),
            ServeError::AtCapacity(max) => write!(f, "registry at capacity ({max} sessions)"),
            ServeError::SceneShape { expected, got } => {
                write!(f, "scene must be {expected}x{expected}, got {got:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
