//! Standalone oracle: the serve tick against `EyeTracker::process_frame`.
//!
//! A hosted session's frame job is its own tracker's
//! [`EyeTracker::process_frame`], the exact call a standalone tracker
//! makes; around it the tick stages, pools, retries and accounts, next to
//! other sessions. None of that may show in a session's output. Each fleet
//! here is replayed session by session through standalone trackers fed the
//! same frames, and the traces must agree **bit for bit** (gaze bits,
//! quality, ROI, frame index, refresh and skip flags, fault counts) for
//! every session: f32, latent and int8 alike. Each int8 session calibrates
//! on its own first crops, as its standalone twin does, in fleets with any
//! number of int8 sessions, and its motion gate's calibration exemption
//! ends where the twin's does.
//!
//! Every fleet runs on 0, 1 and 3 pool workers (its traces must also agree
//! across worker counts), with the delta path off and on, under
//! `FaultPlan::none` and `FaultPlan::heavy` — whose execution plane also
//! kills frame job 1 every tick, so the recovered retry is inside the pin —
//! and in sizes 1, 2, 7 and 32 under all three backend rotations.
//!
//! [`EyeTracker::process_frame`]: eyecod_core::tracker::EyeTracker::process_frame

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

/// One comparable line per completed frame, bit-exact, with the network
/// its gaze forward ran through.
fn digest(f: &TrackedFrame) -> String {
    format!(
        "f{} gaze={:08x},{:08x},{:08x} q={:?} roi={:?} refreshed={} skip={} degenerate={} faults={:?} net={:?}",
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
        f.network,
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
/// fleet, then the standalone oracle for every session.
fn check_fleet(size: usize, first: GazeBackend) {
    let backends = rotation(size, first);
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
                let replay = standalone(backend, delta, heavy, s);
                if backend == GazeBackend::Int8 && delta && !heavy {
                    // the int8 sessions' motion gate is in the pin: once
                    // calibrated, their static frames gate
                    assert!(
                        replay.iter().any(|f| f.gaze_skipped),
                        "{leg}: the sequence must gate some calibrated int8 frames of session {s}"
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
    // starting int8 puts an int8 session in slot 0 and the most int8
    // sessions in each fleet; size 1 is a lone int8 session
    for size in [1, 2, 7, 32] {
        check_fleet(size, GazeBackend::Int8);
    }
}

#[test]
fn fleets_starting_latent_match_standalone_replays() {
    // starting latent puts a recon-free session in slot 0, and a size-1
    // fleet runs a latent session entirely alone
    for size in [1, 2, 7, 32] {
        check_fleet(size, GazeBackend::Latent);
    }
}
