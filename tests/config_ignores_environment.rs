//! Configuration is data: no library constructor reads the environment.
//!
//! The test sets every `EYECOD_*` name that once steered a constructor to
//! a non-default value, then checks that `TrackerConfig::small()`,
//! `EyeTracker::new` and `ServeRegistry::new` still build the documented
//! defaults. It is the only test in its binary, so its `set_var` calls
//! race with nothing.

use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrainingSetup};
use eyecod::eyedata::render::{render_eye, EyeParams};
use eyecod::faults::{FaultPlan, FaultStats};
use eyecod::serve::{ServeConfig, ServeRegistry};

#[test]
fn constructors_ignore_the_environment() {
    std::env::set_var("EYECOD_GAZE_BACKEND", "int8");
    std::env::set_var("EYECOD_DELTA", "1");
    std::env::set_var("EYECOD_DELTA_THRESHOLD", "0");
    std::env::set_var("EYECOD_FAULT_PLAN", "heavy");

    let config = TrackerConfig::small();
    assert_eq!(config.gaze_backend, GazeBackend::F32);
    assert!(!config.delta);
    assert_eq!(config.delta_threshold, 16);

    // the plan and the weights are independent; a tiny training run keeps
    // this test fast
    let setup = TrainingSetup {
        n_samples: 8,
        seg_epochs: 1,
        gaze_epochs: 1,
        ..TrainingSetup::quick()
    };
    let models = train_tracker_models(&setup, &config);
    let tracker = EyeTracker::new(config.clone(), models.clone_models());
    assert_eq!(*tracker.fault_plan(), FaultPlan::none());

    // a registry hands its plan to every session and fires its exec plane
    // in the tick: under `heavy`, job 1 would panic and the sessions'
    // sensors would drop and corrupt frames
    let mut reg = ServeRegistry::new(ServeConfig::new(config.clone()), models);
    let ids = [reg.create().unwrap(), reg.create().unwrap()];
    let scene = render_eye(
        &EyeParams::centered(config.scene_size),
        config.scene_size,
        3,
    )
    .image;
    for frame in 0..12u64 {
        for id in ids {
            reg.feed(id, &scene, frame).unwrap();
        }
        assert_eq!(reg.tick().panics_recovered, 0, "tick {frame}");
    }
    for id in ids {
        let snap = reg.snapshot(id).unwrap();
        assert_eq!(snap.backend, GazeBackend::F32);
        assert_eq!(snap.stats.faults, FaultStats::default());
    }
}
