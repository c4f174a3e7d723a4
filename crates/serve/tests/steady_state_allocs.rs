//! Allocation regression for the serving layer: a steady-state serve tick
//! over a warm 16-session registry must not touch the heap.
//!
//! Everything on the feed+tick path is arena- or freelist-backed: ingress
//! scenes recycle through each session's spare-buffer list, the staged
//! work list and panic flags retain capacity across ticks, and each
//! session's frame is its tracker's `process_frame`, whose zero-allocation
//! steady state the core suite pins. Once the fleet is warm — every
//! tracker's scratch built, every int8 session calibrated, every static
//! counter materialised — feeding and ticking 16 sessions (mixed
//! f32/int8/latent) performs **zero** transient heap allocations on
//! non-refresh frames, on the dense path and on the event-driven delta
//! path alike.
//!
//! Kept as a single `#[test]` so no concurrent test pollutes the process-
//! wide allocation counter while a round is being measured.

use eyecod_core::alloc_counter::{allocations, CountingAllocator};
use eyecod_core::tracker::{GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_serve::{ServeConfig, ServeRegistry};
use eyecod_telemetry::static_counter;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_serve_ticks_do_not_allocate() {
    let cfg = TrackerConfig::small();
    let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
    // rendered once, outside the measured window
    let scene = render_eye(&EyeParams::centered(cfg.scene_size), cfg.scene_size, 0).image;
    for delta in [false, true] {
        let mut sc = ServeConfig::new(TrackerConfig {
            delta,
            ..cfg.clone()
        });
        // the sequential inline pool: parallel dispatch would hand jobs to
        // worker threads whose own bookkeeping is outside this test's scope
        sc.threads = Some(0);
        let mut reg = ServeRegistry::new(sc, models.clone_models());
        let ids: Vec<_> = (0..16)
            .map(|s| {
                reg.create_with_backend(GazeBackend::ALL[s % GazeBackend::ALL.len()])
                    .unwrap()
            })
            .collect();

        // warm-up: per-session trackers see frames 0..12, covering both ROI
        // refreshes (`roi_period` 10), every int8 session's calibration (at
        // its frame 7: the motion gate exempts warming frames, so each one
        // runs the crop), spare-buffer growth, column growth, and every
        // telemetry static
        for round in 0..12u64 {
            for id in &ids {
                reg.feed(*id, &scene, round).unwrap();
            }
            reg.tick();
        }
        assert!(
            reg.int8_calibrated(),
            "int8 calibration must finish in warm-up (delta {delta})"
        );

        // frames 12..18 per session: no ROI refresh falls in the window
        // (next is frame 20), so every feed+tick round must be
        // allocation-free
        let steady_before = static_counter!("serve/steady_state_allocs").get();
        for round in 12..18u64 {
            let before = allocations();
            for id in &ids {
                reg.feed(*id, &scene, round).unwrap();
            }
            let report = reg.tick();
            let allocs = allocations() - before;
            assert_eq!(report.staged, 16);
            assert_eq!(
                allocs, 0,
                "steady-state serve round {round} (delta {delta}) made {allocs} heap allocations"
            );
        }
        // the tick's own telemetry must agree with the external proof
        let steady = static_counter!("serve/steady_state_allocs").get() - steady_before;
        assert_eq!(
            steady, 0,
            "serve/steady_state_allocs recorded {steady} allocations in warm ticks (delta {delta})"
        );
    }
}
