//! Allocation regression: a warm tracker frame must not touch the heap.
//!
//! The tracker owns every per-stage buffer (acquisition matrices,
//! reconstruction workspace, ROI crop, gaze input, network arenas, the
//! segmentation refresh's input, arena and label buffers), so once those
//! are warm — after two ROI refreshes and, under the int8 backend, after
//! calibration — `process_frame` is designed to perform **zero** transient
//! heap allocations, mirroring the accelerator's fixed on-chip buffers.
//! This test installs the counting global allocator and pins that
//! property for all three gaze backends, dense and with the delta path
//! switched on, on steady frames and on a scheduled refresh frame,
//! segmentation included (the latent fast path
//! senses, projects and regresses through its own pre-warmed buffers —
//! skipping recon entirely must not cost a single allocation either); one
//! stray per-frame `clone()` anywhere in the frame path fails it.
//!
//! The event-driven delta path carries the same contract: once the delta
//! caches are primed (first dense refresh) every steady frame — whether it
//! applies a sparse column update or is skipped outright by the motion
//! gate — and every later dense refresh must also be allocation-free, for
//! all three backends. And the truncated-rank workspace solve
//! (`reconstruct_truncated_into`) is pinned directly: after one warming
//! call, re-solving at any admissible rank touches no heap.
//!
//! Kept as a single `#[test]` so no concurrent test pollutes the process-
//! wide allocation counter while a frame is being measured.

use eyecod_core::alloc_counter::{allocations, CountingAllocator};
use eyecod_core::tracker::{EyeTracker, GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_optics::mat::Mat;
use eyecod_optics::recon::ReconWorkspace;
use eyecod_optics::{FlatCam, SensorModel, SeparableMask, TikhonovReconstructor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_frames_do_not_allocate_on_any_backend() {
    let base = TrackerConfig::small();
    let models = train_tracker_models(&TrainingSetup::quick(), &base);
    // the scene is rendered once, outside the measured window
    let scene = render_eye(&EyeParams::centered(base.scene_size), base.scene_size, 0).image;

    for (backend, delta) in GazeBackend::ALL
        .into_iter()
        .flat_map(|b| [(b, false), (b, true)])
    {
        let config = TrackerConfig {
            gaze_backend: backend,
            delta,
            ..base.clone()
        };
        let mut tracker = EyeTracker::new(config, models.clone_models());

        // warm-up: ROI refreshes fire at frames 0 and 10 (`roi_period` 10)
        // and size both label buffers, int8 calibration completes at frame
        // 7 (`calibration_frames` 8), and frame 11 runs the first
        // fully-warm steady-state frame — by frame 12 every scratch buffer
        // and telemetry static exists
        for frame in 0..12u64 {
            tracker.process_frame(&scene, frame);
        }

        #[cfg(feature = "telemetry")]
        let counter_before = eyecod_telemetry::global()
            .snapshot()
            .counter("tracker/steady_state_allocs");

        // the window runs past the scheduled refresh at frame 20
        for frame in 12..22u64 {
            let before = allocations();
            let out = tracker.process_frame(&scene, frame);
            let allocs = allocations() - before;
            assert_eq!(
                out.roi_refreshed,
                frame == 20,
                "frame {frame} refresh schedule"
            );
            assert_eq!(
                allocs, 0,
                "{backend:?} backend (delta {delta}): frame {frame} (refresh={}) made {allocs} heap allocations",
                out.roi_refreshed
            );
        }

        // the tracker's own accounting agrees: the steady-state counter did
        // not move across the measured window
        #[cfg(feature = "telemetry")]
        assert_eq!(
            counter_before,
            eyecod_telemetry::global()
                .snapshot()
                .counter("tracker/steady_state_allocs"),
            "{backend:?} backend (delta {delta}): tracker/steady_state_allocs grew during steady state"
        );
    }

    // ---- event-driven delta path: gated AND sparse-update frames are
    // allocation-free once primed ----
    //
    // Two scenes, fed as A A B B A A …: repeating a scene gates the frame
    // (zero changed pixels), switching scenes exceeds the gate threshold
    // and runs the sparse column update. Warm-up runs through two ROI
    // refreshes (delta caches prime on each dense refresh, buffers sized
    // to the full column count) and, for int8, past calibration; the
    // measured window then alternates both steady-state frame kinds and
    // runs the dense refresh at frame 30.
    let scene_b = {
        let mut p = EyeParams::centered(base.scene_size);
        p.yaw = 0.25;
        render_eye(&p, base.scene_size, 1).image
    };
    let scenes = [&scene, &scene_b];
    for backend in GazeBackend::ALL {
        let config = TrackerConfig {
            gaze_backend: backend,
            delta: true,
            ..base.clone()
        };
        let mut tracker = EyeTracker::new(config, models.clone_models());
        for frame in 0..22u64 {
            tracker.process_frame(scenes[(frame as usize / 2) % 2], frame);
        }

        let mut gated = 0usize;
        let mut sparse = 0usize;
        for frame in 22..32u64 {
            let input = scenes[(frame as usize / 2) % 2];
            let before = allocations();
            let out = tracker.process_frame(input, frame);
            let delta = allocations() - before;
            assert_eq!(
                out.roi_refreshed,
                frame == 30,
                "frame {frame} refresh schedule"
            );
            assert_eq!(
                delta, 0,
                "{backend:?} backend: delta-mode frame {frame} (skipped={}, refresh={}) made {delta} heap allocations",
                out.gaze_skipped, out.roi_refreshed
            );
            if out.gaze_skipped {
                gated += 1;
            } else if !out.roi_refreshed {
                sparse += 1;
            }
        }
        assert!(
            gated > 0 && sparse > 0,
            "{backend:?} backend: measured window must cover both gated ({gated}) and sparse ({sparse}) frames"
        );
    }

    // ---- truncated-rank workspace solve: warm once, then re-solving at
    // any admissible rank reuses the workspace without touching the heap
    // (ranks shrink below the warming rank; `Mat::reset` keeps capacity) ----
    let mask = SeparableMask::mls(2 * base.scene_size, base.scene_size, 9);
    let cam = FlatCam::new(mask.clone(), SensorModel::low_light());
    let recon = TikhonovReconstructor::new(&mask, 1e-4);
    let y = cam.capture(
        &Mat::from_fn(base.scene_size, base.scene_size, |r, c| {
            ((r * 7 + c * 3) % 11) as f64 / 11.0
        }),
        42,
    );
    let mut ws = ReconWorkspace::new();
    let mut out = Mat::zeros(1, 1);
    recon.reconstruct_truncated_into(&y, base.scene_size, &mut ws, &mut out);
    for rank in [base.scene_size, base.scene_size / 2, 4] {
        let before = allocations();
        recon.reconstruct_truncated_into(&y, rank, &mut ws, &mut out);
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "warm reconstruct_truncated_into at rank {rank} made {delta} heap allocations"
        );
    }
}
