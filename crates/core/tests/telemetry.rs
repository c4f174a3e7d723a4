//! End-to-end telemetry integration: a tracked sequence populates every
//! per-stage histogram and the pool counters in the global registry.
//!
//! Gated on the `telemetry` feature so `--no-default-features` builds (where
//! recording compiles away) skip it; the runtime toggle is forced on so the
//! `EYECOD_TELEMETRY=0` CI job still exercises the instrumentation.
#![cfg(feature = "telemetry")]

use eyecod_core::tracker::{EyeTracker, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrainingSetup};
use eyecod_eyedata::sequence::EyeMotionGenerator;
use eyecod_faults::{FaultPlan, RecoveryPolicy};
use eyecod_telemetry::global;

#[test]
fn tracked_sequence_populates_stage_histograms_and_pool_counters() {
    eyecod_telemetry::set_enabled(true);
    for delta in [false, true] {
        println!("delta {delta}");
        global().reset();

        // `small()` runs the f32 recon path: the `optics/recon_solves`
        // expectation below is a property of the full-recon backends, not
        // of the latent fast path (which solves on refresh frames only, by
        // design)
        let config = TrackerConfig {
            delta,
            ..TrackerConfig::small()
        };
        let models = train_tracker_models(&TrainingSetup::quick(), &config);
        // training solves too; only the solves tracking makes are counted
        let trained_solves = global()
            .snapshot()
            .counter("optics/recon_solves")
            .unwrap_or(0);
        let mut tracker = EyeTracker::new(config.clone(), models.clone_models());
        let frames = 12;
        let stats = tracker.run_sequence(&mut EyeMotionGenerator::with_seed(3), frames);
        assert_eq!(stats.frames, frames);

        // sequences in parallel exercise the pool counters as well
        EyeTracker::run_sequences_parallel(
            &config,
            &models,
            &[4, 5, 6],
            6,
            &FaultPlan::none(),
            &RecoveryPolicy::default(),
        );

        let snap = global().snapshot();

        // per-stage latency histograms from process_frame
        for stage in [
            "tracker/frame_ns",
            "tracker/acquire_ns",
            "tracker/segment_ns",
            "tracker/crop_resize_ns",
            "tracker/gaze_forward_ns",
        ] {
            let h = snap
                .histogram(stage)
                .unwrap_or_else(|| panic!("missing stage histogram {stage}"));
            assert!(h.count > 0, "{stage} recorded nothing");
            assert!(h.median() <= h.p99(), "{stage} quantiles inconsistent");
            assert!(h.sum >= h.count, "{stage} has sub-nanosecond stages?");
        }
        // the per-frame stages ran once per frame (sequential + 3×6 parallel)
        let total_frames = (frames + 3 * 6) as u64;
        assert_eq!(snap.counter("tracker/frames"), Some(total_frames));
        assert_eq!(
            snap.histogram("tracker/frame_ns").unwrap().count,
            total_frames
        );
        // segmentation only runs on refresh frames
        let seg = snap.histogram("tracker/segment_ns").unwrap();
        assert!(seg.count < total_frames);
        assert_eq!(snap.counter("tracker/roi_refreshes"), Some(seg.count));

        // the FlatCam reconstruction underneath acquisition was timed too:
        // one solve per dense frame; on the delta path these sequences
        // solve on their refresh frames only, and every other frame is
        // gated or updates the cached reconstruction
        let solves = snap.counter("optics/recon_solves").unwrap_or(0) - trained_solves;
        let refreshes = snap.counter("tracker/roi_refreshes").unwrap_or(0);
        let want = if delta { refreshes } else { total_frames };
        assert_eq!(solves, want, "tracking solves, delta {delta}");
        assert!(snap.histogram("optics/recon_solve_ns").is_some());

        // training + parallel sequences submitted pool jobs
        assert!(snap.counter("pool/jobs").unwrap_or(0) > 0, "no pool jobs");
        let h = snap.histogram("pool/job_wall_ns").expect("pool wall hist");
        assert_eq!(Some(h.count), snap.counter("pool/jobs"));

        // the snapshot JSON round-trips with every metric intact
        let json = snap.to_json();
        let back = eyecod_telemetry::Snapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
