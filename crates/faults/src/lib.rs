//! # eyecod-faults
//!
//! The deterministic fault-injection plane for the EyeCoD pipeline.
//!
//! A production eye tracker serving millions of head-mounted devices must
//! survive faults the paper's lab setting never sees: saturated or dead
//! FlatCam sensor pixels, dropped or corrupted frames on the
//! camera→processor link, and stage-level stalls. This crate provides the
//! shared vocabulary for injecting those faults *reproducibly* and for
//! describing how the pipeline degraded in response:
//!
//! * [`FaultPlan`] — a serde round-trippable description of which faults
//!   fire at which rates. Every decision is a pure hash of
//!   `(plan seed, fault site, frame, salt)`, so a plan replays
//!   byte-identically across runs, thread counts and processes — every
//!   fault scenario is a reproducible test fixture. Plans are plain data:
//!   a library constructor starts from [`FaultPlan::none`], a caller
//!   passes a plan in (`with_faults`), and [`FaultPlan::parse`] reads the
//!   presets or inline JSON that `eyecod track --faults` takes.
//! * [`FaultSite`] — the closed set of injection points, grouped into
//!   sensor, link, stage and execution planes. Disjoint groups can never
//!   cross-fire: each site draws from its own hash stream and its own
//!   configured rate.
//! * [`FrameQuality`] / [`FrameFaults`] / [`FaultStats`] — the degradation
//!   grade of one tracked frame and the injected/recovered/unrecovered
//!   accounting that makes degradation observable instead of silent.
//! * [`RecoveryPolicy`] — per-stage retry budgets and staleness limits for
//!   the tracker's fall-back-to-last-good recovery paths.
//!
//! The consumers live in `eyecod-optics` (sensor plane), `eyecod-core`
//! (link + stage planes and the recovery policy), `eyecod-pool`
//! (panic-isolating execution) and `eyecod-accel` (SWPR bank-conflict
//! stalls). This crate itself depends only on the serde shims, so every
//! layer of the workspace can speak the same fault vocabulary.

mod plan;
mod recovery;

pub use plan::{
    ExecFaultConfig, FaultEvent, FaultGroup, FaultPlan, FaultSite, LinkFaultConfig,
    SensorFaultConfig, StageFaultConfig, PPM_SCALE,
};
pub use recovery::{FaultStats, FrameFaults, FrameQuality, RecoveryPolicy};
