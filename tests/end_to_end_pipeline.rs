//! Integration: the full predict-then-focus pipeline from synthetic scene
//! through FlatCam optics, segmentation, ROI and gaze estimation.

use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod::eyedata::render::{render_eye, EyeParams};
use eyecod::eyedata::EyeMotionGenerator;
use std::sync::OnceLock;

fn shared_models() -> &'static (TrackerConfig, TrackerModels) {
    static MODELS: OnceLock<(TrackerConfig, TrackerModels)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let config = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &config);
        (config, models)
    })
}

/// `config` in each `(backend, delta)` cell the pipeline must work in:
/// every gaze backend on the dense path, plus f32 on the event-driven
/// delta path. Each cell is printed as the loop reaches it, so a failing
/// test's captured output names the cell.
fn cells(config: &TrackerConfig) -> impl Iterator<Item = TrackerConfig> + '_ {
    GazeBackend::ALL
        .into_iter()
        .map(|b| (b, false))
        .chain([(GazeBackend::F32, true)])
        .map(|(gaze_backend, delta)| {
            println!("cell: {gaze_backend:?}, delta {delta}");
            TrackerConfig {
                gaze_backend,
                delta,
                ..config.clone()
            }
        })
}

#[test]
fn flatcam_pipeline_tracks_a_sequence() {
    let (config, models) = shared_models();
    for cfg in cells(config) {
        let mut tracker = EyeTracker::new(cfg, models.clone_models());
        let mut motion = EyeMotionGenerator::with_seed(42);
        let stats = tracker.run_sequence(&mut motion, 40);
        assert_eq!(stats.frames, 40);
        assert_eq!(stats.roi_refreshes, 4); // period 10
        assert!(
            stats.mean_error_deg() < 18.0,
            "mean gaze error {:.1}° too high",
            stats.mean_error_deg()
        );
    }
}

#[test]
fn predicted_roi_overlaps_true_eye_region() {
    let (config, models) = shared_models();
    let mut params = EyeParams::centered(config.scene_size);
    params.center_x = 0.55;
    params.center_y = 0.45;
    let sample = render_eye(&params, config.scene_size, 9);
    // the true pupil (scene coordinates) must be inside the predicted ROI
    let (pcy, pcx) = eyecod::eyedata::labels::class_centroid(
        &sample.labels,
        config.scene_size,
        config.scene_size,
        eyecod::eyedata::SegClass::Pupil,
    )
    .expect("rendered eye has a pupil");
    for cfg in cells(config) {
        let mut tracker = EyeTracker::new(cfg, models.clone_models());
        tracker.process_frame(&sample.image, 10);
        let roi = tracker.current_roi();
        assert!(
            (roi.y0 as f32..(roi.y0 + roi.h) as f32).contains(&pcy),
            "pupil y {pcy} outside ROI {roi:?}"
        );
        assert!(
            (roi.x0 as f32..(roi.x0 + roi.w) as f32).contains(&pcx),
            "pupil x {pcx} outside ROI {roi:?}"
        );
    }
}

#[test]
fn pipeline_survives_a_blink() {
    // nearly closed eye: segmentation may find little; the tracker must not
    // panic and must produce a unit gaze vector
    let (config, models) = shared_models();
    let mut params = EyeParams::centered(config.scene_size);
    params.openness = 0.06;
    params.iris_radius = 0.05;
    params.pupil_radius = 0.02;
    let sample = render_eye(&params, config.scene_size, 11);
    for cfg in cells(config) {
        let mut tracker = EyeTracker::new(cfg, models.clone_models());
        let out = tracker.process_frame(&sample.image, 12);
        assert!((out.gaze.norm() - 1.0).abs() < 1e-5);
    }
}

#[test]
fn lens_and_flatcam_pipelines_are_both_functional() {
    // Table 2/3 comparison structure: same pipeline, two acquisitions
    let lens_cfg = TrackerConfig::small_lens();
    let lens_models = train_tracker_models(&TrainingSetup::quick(), &lens_cfg);
    let (config, models) = shared_models();
    for cfg in cells(config) {
        let lens_cfg = TrackerConfig {
            flatcam: false,
            ..cfg.clone()
        };
        let mut lens_tracker = EyeTracker::new(lens_cfg, lens_models.clone_models());
        let mut motion = EyeMotionGenerator::with_seed(4);
        let lens_stats = lens_tracker.run_sequence(&mut motion, 20);

        let mut flat_tracker = EyeTracker::new(cfg, models.clone_models());
        let mut motion2 = EyeMotionGenerator::with_seed(4);
        let flat_stats = flat_tracker.run_sequence(&mut motion2, 20);

        assert!(lens_stats.mean_error_deg() < 18.0);
        assert!(flat_stats.mean_error_deg() < 18.0);
    }
}
