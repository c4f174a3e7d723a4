//! Standalone oracle: the serve tick against `EyeTracker::process_frame`.
//!
//! A hosted session runs the same stage calls as a standalone tracker —
//! [`EyeTracker::front_stages`], then a gaze forward, then completion — but
//! its gaze forward runs inside a cross-session batch, on a pool, next to
//! other sessions. None of that may show in its output. Each fleet here is
//! replayed session by session through standalone trackers fed the same
//! frames, and the traces must agree **bit for bit** (gaze bits, quality,
//! ROI, frame index, refresh and skip flags, fault counts):
//!
//! * f32 and latent sessions always, because every f32 kernel on their
//!   paths runs batch items one at a time in a fixed per-element order, so
//!   a batched forward equals per-item forwards;
//! * a lone int8 session too: the fleet calibrates its shared int8 network
//!   on exactly the crops a standalone tracker would calibrate on, at the
//!   same frame, and then tells the tracker, so the motion gate's
//!   calibration exemption ends where the standalone tracker's does.
//!   (Before the tracker learned of the fleet calibration, a hosted int8
//!   session under delta never gated at all.)
//!
//! Fleets with several int8 sessions share one calibration batch drawn
//! from all of them, so no standalone tracker reproduces it; they are
//! pinned by worker-count invariance instead (0, 1 and 3 pool workers
//! partition every batch differently).
//!
//! Every fleet runs with the delta path off and on, under
//! `FaultPlan::none` and `FaultPlan::heavy` — whose execution plane also
//! kills front-half job 1 every tick, so the recovered retry is inside
//! the pin — and in sizes 1, 2, 7 and 32 under all three backend
//! rotations.
//!
//! [`EyeTracker::front_stages`]: eyecod_core::tracker::EyeTracker::front_stages

use std::sync::OnceLock;

use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackedFrame, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::render_eye;
use eyecod_eyedata::EyeMotionGenerator;
use eyecod_faults::FaultPlan;
use eyecod_serve::{ServeConfig, ServeRegistry};
use eyecod_tensor::Tensor;

/// Ticks per fleet run: past the int8 calibration window and two ROI
/// refreshes (frames 0, 10), with steady frames after each.
const TICKS: usize = 20;
const SEQUENCE_FRAMES: usize = 64;

fn shared() -> &'static (TrackerConfig, TrackerModels, Vec<Tensor>) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Vec<Tensor>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        // one motion sequence with fixations and saccades, so the delta
        // legs see motion-gated, sparse and dense frames
        let mut motion = EyeMotionGenerator::with_seed(77);
        let scenes = (0..SEQUENCE_FRAMES)
            .map(|i| render_eye(&motion.next_frame(), cfg.scene_size, 1000 + i as u64).image)
            .collect();
        (cfg, models, scenes)
    })
}

/// The scene session `s` sees at tick `t`: consecutive ticks walk the
/// sequence, and sessions start at different offsets.
fn scene(s: usize, t: usize) -> &'static Tensor {
    let (_, _, scenes) = shared();
    &scenes[(t + 5 * s) % scenes.len()]
}

fn tracker_config(backend: GazeBackend, delta: bool) -> TrackerConfig {
    let (cfg, _, _) = shared();
    TrackerConfig {
        gaze_backend: backend,
        delta,
        ..cfg.clone()
    }
}

fn plan(heavy: bool) -> FaultPlan {
    if heavy {
        FaultPlan::heavy(0xEC0D)
    } else {
        FaultPlan::none()
    }
}

/// The three-backend rotation every fleet cycles through, phase-shifted so
/// `first` lands on session 0.
fn rotation(size: usize, first: GazeBackend) -> Vec<GazeBackend> {
    let all = GazeBackend::ALL;
    let start = all.iter().position(|b| *b == first).unwrap();
    (0..size).map(|s| all[(start + s) % all.len()]).collect()
}

/// One comparable line per completed frame, bit-exact.
fn digest(f: &TrackedFrame) -> String {
    format!(
        "f{} gaze={:08x},{:08x},{:08x} q={:?} roi={:?} refreshed={} skip={} degenerate={} faults={:?}",
        f.frame,
        f.gaze.x.to_bits(),
        f.gaze.y.to_bits(),
        f.gaze.z.to_bits(),
        f.quality,
        f.roi,
        f.roi_refreshed,
        f.gaze_skipped,
        f.gaze_degenerate,
        f.faults,
    )
}

/// Runs one fleet for [`TICKS`] ticks on a `threads`-worker pool and
/// returns each session's trace, in session order.
fn run_fleet(
    backends: &[GazeBackend],
    delta: bool,
    heavy: bool,
    threads: usize,
) -> Vec<Vec<String>> {
    let (_, models, _) = shared();
    let config = ServeConfig {
        threads: Some(threads),
        ..ServeConfig::new(tracker_config(GazeBackend::F32, delta))
    };
    let mut reg = ServeRegistry::new(config, models.clone_models()).with_faults(plan(heavy));
    let ids: Vec<_> = backends
        .iter()
        .map(|b| reg.create_with_backend(*b).unwrap())
        .collect();
    let mut traces = vec![Vec::new(); ids.len()];
    for t in 0..TICKS {
        for (s, id) in ids.iter().enumerate() {
            reg.feed(*id, scene(s, t), t as u64).unwrap();
        }
        let (report, trace) = reg.tick_traced();
        assert_eq!(report.completed, ids.len());
        for (id, f) in &trace {
            let s = ids.iter().position(|i| i == id).unwrap();
            traces[s].push(digest(f));
        }
    }
    traces
}

/// Session `s`'s frames replayed through a standalone tracker.
fn standalone(backend: GazeBackend, delta: bool, heavy: bool, s: usize) -> Vec<TrackedFrame> {
    let (_, models, _) = shared();
    let mut tracker = EyeTracker::new(tracker_config(backend, delta), models.clone_models())
        .with_faults(plan(heavy));
    (0..TICKS)
        .map(|t| tracker.process_frame(scene(s, t), t as u64))
        .collect()
}

/// Every leg of one fleet shape: worker-count invariance for the whole
/// fleet, then the standalone oracle for every session it applies to.
fn check_fleet(size: usize, first: GazeBackend) {
    let backends = rotation(size, first);
    let int8s = backends.iter().filter(|b| **b == GazeBackend::Int8).count();
    for delta in [false, true] {
        for heavy in [false, true] {
            let leg = format!("size {size} from {first:?}, delta {delta}, heavy {heavy}");
            let reference = run_fleet(&backends, delta, heavy, 0);
            for threads in [1, 3] {
                assert_eq!(
                    reference,
                    run_fleet(&backends, delta, heavy, threads),
                    "{leg}: {threads} workers diverged from 0 workers"
                );
            }
            for (s, &backend) in backends.iter().enumerate() {
                if backend == GazeBackend::Int8 && int8s > 1 {
                    continue; // shared calibration: pinned by invariance
                }
                let replay = standalone(backend, delta, heavy, s);
                if backend == GazeBackend::Int8 && delta && !heavy {
                    // the lone int8 session's motion gate is in the pin:
                    // once calibrated, its static frames gate
                    assert!(
                        replay.iter().any(|f| f.gaze_skipped),
                        "{leg}: the sequence must gate some calibrated int8 frames"
                    );
                }
                let want: Vec<_> = replay.iter().map(digest).collect();
                assert_eq!(
                    reference[s], want,
                    "{leg}: {backend:?} session {s} diverged from its standalone replay"
                );
            }
        }
    }
}

#[test]
fn fleets_starting_f32_match_standalone_replays() {
    for size in [1, 2, 7, 32] {
        check_fleet(size, GazeBackend::F32);
    }
}

#[test]
fn fleets_starting_int8_match_standalone_replays() {
    // starting int8 flips which sessions warm through the f32 batch and
    // which rows land where in the arena partitions; size 1 is a lone
    // int8 session
    for size in [1, 2, 7, 32] {
        check_fleet(size, GazeBackend::Int8);
    }
}

#[test]
fn fleets_starting_latent_match_standalone_replays() {
    // starting latent puts the recon-free rows first in the arena
    // partitions, and a size-1 fleet runs a latent session entirely alone
    // (its refresh frames still batch through the f32 route)
    for size in [1, 2, 7, 32] {
        check_fleet(size, GazeBackend::Latent);
    }
}
