//! End-to-end regression for the deployed int8 gaze backend: over one fixed
//! 50-frame synthetic sequence the int8 tracker must stay within half a
//! degree of the f32 tracker's mean gaze error, and the pipeline's stage
//! telemetry (frame/refresh counts, per-stage histogram counts) must be
//! identical — the backend swap changes arithmetic, not pipeline structure.
//!
//! Everything lives in ONE test function: the telemetry registry is global
//! to the test binary, so the two tracked runs must not interleave with
//! other frame-processing tests.

use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrainingSetup};
use eyecod::eyedata::render::render_eye;
use eyecod::eyedata::EyeMotionGenerator;

/// Stage-structure metrics of the last tracked run: pipeline counters and
/// per-stage histogram counts (never latencies — those differ by design).
#[cfg(feature = "telemetry")]
fn stage_counts() -> Vec<(&'static str, u64)> {
    let snap = eyecod::telemetry::global().snapshot();
    let mut v = Vec::new();
    for counter in [
        "tracker/frames",
        "tracker/roi_refreshes",
        "tracker/gaze_degenerate",
    ] {
        v.push((counter, snap.counter(counter).unwrap_or(0)));
    }
    for stage in [
        "tracker/frame_ns",
        "tracker/acquire_ns",
        "tracker/segment_ns",
        "tracker/crop_resize_ns",
        "tracker/gaze_forward_ns",
    ] {
        v.push((stage, snap.histogram(stage).map_or(0, |h| h.count)));
    }
    v
}

#[cfg(not(feature = "telemetry"))]
fn stage_counts() -> Vec<(&'static str, u64)> {
    Vec::new()
}

#[test]
fn int8_backend_tracks_within_half_a_degree_of_f32_with_identical_stage_counts() {
    const FRAMES: usize = 50;

    // a dense-path differential (`small()` runs dense): the per-frame
    // solve counts and stage-structure pins below assume every frame
    // reconstructs
    let config = TrackerConfig::small();
    let models = train_tracker_models(&TrainingSetup::quick(), &config);

    // one fixed 50-frame synthetic sequence, shared by both backends
    let mut motion = EyeMotionGenerator::with_seed(77);
    let samples: Vec<_> = (0..FRAMES)
        .map(|i| render_eye(&motion.next_frame(), config.scene_size, 1000 + i as u64))
        .collect();

    #[cfg(feature = "telemetry")]
    eyecod::telemetry::set_enabled(true);

    let run = |backend: GazeBackend| {
        #[cfg(feature = "telemetry")]
        eyecod::telemetry::global().reset();
        let mut cfg = config.clone();
        cfg.gaze_backend = backend;
        let mut tracker = EyeTracker::new(cfg, models.clone_models());
        let mut err_sum = 0.0f32;
        for (i, s) in samples.iter().enumerate() {
            let out = tracker.process_frame(&s.image, 2000 + i as u64);
            err_sum += out.gaze.angular_error_degrees(&s.gaze);
        }
        (err_sum / FRAMES as f32, stage_counts(), tracker)
    };

    let (f32_error, f32_counts, f32_tracker) = run(GazeBackend::F32);
    let (int8_error, int8_counts, int8_tracker) = run(GazeBackend::Int8);

    // the f32 path never quantises; the int8 path must have deployed after
    // its warm-up window (8 calibration frames << 50)
    assert!(f32_tracker.quantized_gaze().is_none());
    assert!(
        int8_tracker.quantized_gaze().is_some(),
        "int8 backend never switched over"
    );

    // accuracy criterion: within half a degree of the f32 backend
    let gap = (int8_error - f32_error).abs();
    assert!(
        gap < 0.5,
        "int8 mean error {int8_error:.3}° vs f32 {f32_error:.3}° — gap {gap:.3}° exceeds 0.5°"
    );
    // both backends must actually track (not agree on garbage)
    assert!(
        f32_error < 18.0,
        "f32 backend lost tracking: {f32_error:.1}°"
    );
    assert!(
        int8_error < 18.0,
        "int8 backend lost tracking: {int8_error:.1}°"
    );

    // identical pipeline structure: same stage counters and histogram counts
    assert_eq!(
        f32_counts, int8_counts,
        "stage telemetry diverged between backends"
    );
    #[cfg(feature = "telemetry")]
    {
        let snap = eyecod::telemetry::global().snapshot();
        assert_eq!(
            snap.counter("tracker/int8_calibrations"),
            Some(1),
            "exactly one calibration at the warm-up boundary"
        );
        assert_eq!(
            snap.counter("tracker/int8_frames"),
            Some((FRAMES - 8) as u64),
            "every post-warm-up frame served by the int8 chain"
        );
    }
}
