//! End-to-end regression for the recon-free latent gaze backend: over one
//! fixed 50-frame synthetic sequence the latent tracker must (a) stay
//! within a bounded mean angular divergence of the full-recon f32 tracker,
//! (b) reproduce the f32 tracker's outputs **bit-identically on ROI-refresh
//! frames** (those frames run the full recon + segmentation pipeline in
//! both backends), (c) keep the pipeline's stage-histogram *structure*
//! identical (same counters, same per-stage sample counts — the latent
//! path swaps what runs inside the crop stage, not which stages run), and
//! (d) perform **zero reconstruction solves on steady-state frames** —
//! `optics/recon_solves` must equal the refresh-frame count exactly.
//!
//! On the divergence bound: the latent net regresses gaze from a bilinear
//! down-projection of the raw FlatCam measurement — a *different function
//! class* than the recon-path net (which sees a Tikhonov-reconstructed ROI
//! crop), trained on the same corpus by the same quick setup. The two
//! paths agree on where the eye points, not on each float: with the quick
//! training budget the observed mean divergence is a few degrees, and the
//! contract bound of 15° asserts "both paths track the same signal"
//! while leaving headroom for training-noise variation across seeds. The
//! truth-error bound (25°) matches the latent unit tests and is looser
//! than the f32 bound (18°) because the projection discards information
//! the reconstruction retains — the fast path trades accuracy for skipped
//! stages, exactly the reconstruct-then-skip bargain of FlatTrack
//! (arXiv 2501.15450).
//!
//! The tracked runs live in ONE test function: the telemetry registry is
//! global to the test binary, so the two runs must not interleave with
//! other frame-processing tests. The batch==per-item leg is net-level
//! (no tracker frames, no telemetry) and may run concurrently.

use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrainingSetup};
use eyecod::eyedata::render::render_eye;
use eyecod::eyedata::EyeMotionGenerator;
use eyecod::models::infer::GazeInferWorkspace;
use eyecod::models::latent::LatentGazeNet;
use eyecod::models::proxy::GazeFamily;
use eyecod::tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
fn latent_backend_tracks_the_f32_path_with_identical_structure_and_no_steady_solves() {
    const FRAMES: usize = 50;

    // a dense-path differential (`small()` runs dense): the per-frame
    // solve counts and stage-structure pins below assume every frame
    // reconstructs
    let config = TrackerConfig::small();
    let models = train_tracker_models(&TrainingSetup::quick(), &config);

    // refresh frames by the tracker's internal counter (frame 0 is due)
    let refresh_frames: Vec<usize> = (0..FRAMES).filter(|i| i % config.roi_period == 0).collect();

    // one fixed 50-frame synthetic sequence, shared by both backends
    let mut motion = EyeMotionGenerator::with_seed(77);
    let samples: Vec<_> = (0..FRAMES)
        .map(|i| render_eye(&motion.next_frame(), config.scene_size, 1000 + i as u64))
        .collect();

    #[cfg(feature = "telemetry")]
    eyecod::telemetry::set_enabled(true);

    #[allow(clippy::type_complexity)]
    let run = |backend: GazeBackend| -> (
        Vec<([u32; 3], bool)>,
        f32,
        Vec<(&'static str, u64)>,
        u64,
        EyeTracker,
    ) {
        #[cfg(feature = "telemetry")]
        eyecod::telemetry::global().reset();
        let mut cfg = config.clone();
        cfg.gaze_backend = backend;
        let mut tracker = EyeTracker::new(cfg, models.clone_models());
        let mut trace = Vec::with_capacity(FRAMES);
        let mut err_sum = 0.0f32;
        for (i, s) in samples.iter().enumerate() {
            let out = tracker.process_frame(&s.image, 2000 + i as u64);
            err_sum += out.gaze.angular_error_degrees(&s.gaze);
            trace.push((
                [
                    out.gaze.x.to_bits(),
                    out.gaze.y.to_bits(),
                    out.gaze.z.to_bits(),
                ],
                out.roi_refreshed,
            ));
        }
        #[cfg(feature = "telemetry")]
        let solves = eyecod::telemetry::global()
            .snapshot()
            .counter("optics/recon_solves")
            .unwrap_or(0);
        #[cfg(not(feature = "telemetry"))]
        let solves = 0u64;
        (
            trace,
            err_sum / FRAMES as f32,
            stage_counts(),
            solves,
            tracker,
        )
    };

    let (f32_trace, f32_error, f32_counts, f32_solves, f32_tracker) = run(GazeBackend::F32);
    let (lat_trace, lat_error, lat_counts, lat_solves, lat_tracker) = run(GazeBackend::Latent);

    // neither path ever quantises — latent is an f32 fast path, not int8
    assert!(f32_tracker.quantized_gaze().is_none());
    assert!(
        lat_tracker.quantized_gaze().is_none(),
        "latent backend must never engage the int8 chain"
    );

    // (a) bounded mean angular divergence between the two paths' outputs
    let mut div_sum = 0.0f32;
    for ((fb, _), (lb, _)) in f32_trace.iter().zip(&lat_trace) {
        let fg = eyecod::eyedata::GazeVector {
            x: f32::from_bits(fb[0]),
            y: f32::from_bits(fb[1]),
            z: f32::from_bits(fb[2]),
        };
        let lg = eyecod::eyedata::GazeVector {
            x: f32::from_bits(lb[0]),
            y: f32::from_bits(lb[1]),
            z: f32::from_bits(lb[2]),
        };
        div_sum += fg.angular_error_degrees(&lg);
    }
    let mean_divergence = div_sum / FRAMES as f32;
    assert!(
        mean_divergence < 15.0,
        "latent path diverged {mean_divergence:.2}° (mean) from the f32 recon path — bound is 15°"
    );

    // both paths must actually track truth (not merely agree on garbage)
    assert!(
        f32_error < 18.0,
        "f32 backend lost tracking: {f32_error:.1}°"
    );
    assert!(
        lat_error < 25.0,
        "latent backend lost tracking: {lat_error:.1}°"
    );

    // (b) refresh frames run the identical full-recon pipeline in both
    // backends — outputs must match to the last bit
    for &i in &refresh_frames {
        assert!(f32_trace[i].1, "frame {i} should have refreshed the ROI");
        assert_eq!(
            f32_trace[i], lat_trace[i],
            "refresh frame {i}: latent output not bit-identical to f32"
        );
    }

    // (c) identical pipeline structure: same stage counters and histogram
    // sample counts — the latent crop stage projects instead of cropping,
    // but records into the same histogram slot
    assert_eq!(
        f32_counts, lat_counts,
        "stage telemetry structure diverged between backends"
    );

    // (d) the acceptance pin: steady-state latent frames perform zero
    // reconstruction solves — solves happen on refresh frames only
    #[cfg(feature = "telemetry")]
    {
        assert_eq!(
            f32_solves, FRAMES as u64,
            "the recon path solves once per frame"
        );
        assert_eq!(
            lat_solves,
            refresh_frames.len() as u64,
            "latent path must reconstruct on refresh frames ONLY"
        );
        let snap = eyecod::telemetry::global().snapshot();
        assert_eq!(
            snap.counter("tracker/latent_frames"),
            Some((FRAMES - refresh_frames.len()) as u64),
            "every non-refresh frame served by the latent net"
        );
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (f32_solves, lat_solves);
}

/// The latent net's batched forward must equal its per-item forward to the
/// last bit — the serve layer batches latent rows across sessions, and that
/// execution-strategy choice must be invisible (the same contract the f32
/// and int8 nets carry).
#[test]
fn latent_batch_forward_matches_per_item_bitwise() {
    const N: usize = 7;
    let (in_h, in_w) = (24, 32);
    let mut rng = StdRng::seed_from_u64(41);
    let mut net = LatentGazeNet::new(GazeFamily::MobileNetLike, in_h, in_w, &mut rng);
    net.set_normalization(0.37, 2.1);

    // synthetic raw measurements at FlatCam sensor extent
    let meas: Vec<Tensor> = (0..N)
        .map(|_| {
            Tensor::from_fn(Shape::new(1, 1, 64, 64), |_, _, _, _| {
                rng.gen_range(0.0f32..1.0f32)
            })
        })
        .collect();

    // per-item: project then forward one at a time
    let mut ws = GazeInferWorkspace::new();
    let mut item_out = Vec::new();
    let mut projected = Vec::new();
    for m in &meas {
        let mut p = Tensor::zeros(Shape::new(1, 1, in_h, in_w));
        net.project_into(m, &mut p);
        let mut out = Tensor::zeros(Shape::new(1, 3, 1, 1));
        net.forward_infer(&p, &mut ws, &mut out);
        item_out.push([out.at(0, 0, 0, 0), out.at(0, 1, 0, 0), out.at(0, 2, 0, 0)]);
        projected.push(p);
    }

    // batched: the same projections gathered into one (N,1,h,w) forward
    let batch = Tensor::from_fn(Shape::new(N, 1, in_h, in_w), |n, _, h, w| {
        projected[n].at(0, 0, h, w)
    });
    let mut batch_out = Tensor::zeros(Shape::new(N, 3, 1, 1));
    net.forward_infer(&batch, &mut ws, &mut batch_out);

    for (n, item) in item_out.iter().enumerate() {
        for (c, v) in item.iter().enumerate() {
            assert_eq!(
                batch_out.at(n, c, 0, 0).to_bits(),
                v.to_bits(),
                "batch row {n} channel {c} diverged from per-item forward"
            );
        }
    }
}
