//! Fault-tolerance conformance suite: the tracker under a deterministic
//! fault-injection plan must degrade gracefully — never panic, keep the
//! vast majority of frames usable, replay byte-identically from a seed
//! (sequentially and in parallel), and recover identically whether
//! telemetry is recording or not.
//!
//! The acceptance scenario (ISSUE 4): a 60-frame sequence under the
//! `heavy` preset (≥10 % frame drop, ≥5 % dead pixels, injected gaze NaNs
//! and one worker panic) completes with zero panics, ≥90 % of frames
//! graded `Ok`/`Degraded`, and recovery counters that are identical
//! across two runs.
//!
//! Every tracker-driving test runs twice: on the dense path and on the
//! event-driven delta path.

use eyecod::core::metrics::TrackingStats;
use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackedFrame, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod::eyedata::EyeMotionGenerator;
use eyecod::faults::{FaultPlan, RecoveryPolicy};
use std::sync::OnceLock;

fn shared_models() -> &'static (TrackerConfig, TrackerModels) {
    static MODELS: OnceLock<(TrackerConfig, TrackerModels)> = OnceLock::new();
    MODELS.get_or_init(|| {
        let config = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &config);
        (config, models)
    })
}

/// The shared config on the dense path, then on the event-driven delta
/// path. Each is printed as the loop reaches it, so a failing test's
/// captured output names it.
fn configs() -> impl Iterator<Item = TrackerConfig> {
    let (config, _) = shared_models();
    [false, true].into_iter().map(|delta| {
        println!("delta {delta}");
        TrackerConfig {
            delta,
            ..config.clone()
        }
    })
}

fn run_traced(
    config: &TrackerConfig,
    plan: &FaultPlan,
    seed: u64,
    frames: usize,
) -> (TrackingStats, Vec<TrackedFrame>) {
    let (_, models) = shared_models();
    let mut tracker = EyeTracker::new(config.clone(), models.clone_models())
        .with_faults(plan.clone())
        .with_recovery(RecoveryPolicy::default());
    tracker.run_sequence_traced(&mut EyeMotionGenerator::with_seed(seed), frames)
}

fn quality_codes(trace: &[TrackedFrame]) -> String {
    trace.iter().map(|f| f.quality.code()).collect()
}

#[test]
fn golden_trace_replays_byte_identically_under_the_heavy_plan() {
    const FRAMES: usize = 60;
    let plan = FaultPlan::heavy(0xEC0D);

    for config in configs() {
        let (stats_a, trace_a) = run_traced(&config, &plan, 11, FRAMES);
        let (stats_b, trace_b) = run_traced(&config, &plan, 11, FRAMES);

        // byte-identical replay: grades, per-frame accounting, aggregate stats
        assert_eq!(stats_a, stats_b, "stats must replay identically");
        assert_eq!(
            quality_codes(&trace_a),
            quality_codes(&trace_b),
            "quality trace must replay identically"
        );
        for (a, b) in trace_a.iter().zip(&trace_b) {
            assert_eq!(a.faults, b.faults, "frame {} accounting differs", a.frame);
            assert_eq!(a.gaze, b.gaze, "frame {} gaze differs", a.frame);
        }

        // acceptance criterion: the sequence completes with zero panics and
        // at least 90 % of frames graded Ok or Degraded
        assert_eq!(stats_a.frames, FRAMES);
        let usable = stats_a.frames_ok + stats_a.frames_degraded;
        assert!(
            usable * 10 >= FRAMES * 9,
            "only {usable}/{FRAMES} frames usable under the heavy plan"
        );
        // the plan must actually bite, and recovery must actually engage
        assert!(stats_a.faults.injected > 0, "heavy plan injected nothing");
        assert!(stats_a.faults.recovered > 0, "recovery never engaged");
        // a different plan seed draws a different schedule — the trace is a
        // function of the seed, not an artifact of the pipeline
        let (_, other) = run_traced(&config, &FaultPlan::heavy(0xBEEF), 11, FRAMES);
        assert_ne!(quality_codes(&trace_a), quality_codes(&other));
    }
}

#[test]
fn parallel_and_sequential_recovery_counters_are_identical() {
    let (_, models) = shared_models();
    let plan = FaultPlan::heavy(0xEC0D); // includes one worker panic (job 1)
    let policy = RecoveryPolicy::default();
    let seeds = [11u64, 12, 13, 14];
    const FRAMES: usize = 20;

    for config in configs() {
        let parallel =
            EyeTracker::run_sequences_parallel(&config, models, &seeds, FRAMES, &plan, &policy);
        assert_eq!(parallel.len(), seeds.len());
        for (&seed, stats) in seeds.iter().zip(&parallel) {
            let mut fresh = EyeTracker::new(config.clone(), models.clone_models())
                .with_faults(plan.clone())
                .with_recovery(policy);
            let sequential = fresh.run_sequence(&mut EyeMotionGenerator::with_seed(seed), FRAMES);
            assert_eq!(
                stats, &sequential,
                "seed {seed}: parallel run (with injected worker panic) must \
                 be byte-identical to the sequential run"
            );
        }
    }
}

#[test]
fn recovery_is_identical_with_telemetry_muted() {
    // recovery decisions must not depend on observability: the exact same
    // trace comes out whether the telemetry runtime switch is on or off
    let plan = FaultPlan::heavy(0x7E1E);
    for config in configs() {
        let was_enabled = eyecod::telemetry::enabled();
        eyecod::telemetry::set_enabled(false);
        let (stats_muted, trace_muted) = run_traced(&config, &plan, 9, 30);
        eyecod::telemetry::set_enabled(true);
        let (stats_loud, trace_loud) = run_traced(&config, &plan, 9, 30);
        eyecod::telemetry::set_enabled(was_enabled);
        assert_eq!(stats_muted, stats_loud);
        assert_eq!(quality_codes(&trace_muted), quality_codes(&trace_loud));
    }
}

/// The chaos matrix axis: dead pixels, frame drops and gaze NaNs scaled
/// together by `level` (0 = clean … 3 = 9 % dead pixels, 12 % drops).
fn chaos_plan(level: u32) -> FaultPlan {
    let mut p = FaultPlan::none();
    p.seed = 0xC0FFEE;
    p.sensor.dead_pixel_ppm = 30_000 * level;
    p.sensor.frame_drop_ppm = 40_000 * level;
    p.stage.gaze_nan_ppm = 30_000 * level;
    p
}

#[test]
fn chaos_matrix_degrades_gracefully_on_all_backends() {
    const FRAMES: usize = 30;
    // adjacent severity levels draw different fault schedules, so a
    // 30-frame sample carries real variance; the trend across the whole
    // sweep is what must hold
    const SLACK_DEG: f32 = 6.0;
    let (_, models) = shared_models();

    for config in configs() {
        for backend in GazeBackend::ALL {
            let mut errors = Vec::new();
            for level in 0..4u32 {
                let mut cfg = config.clone();
                cfg.gaze_backend = backend;
                let mut tracker = EyeTracker::new(cfg, models.clone_models())
                    .with_faults(chaos_plan(level))
                    .with_recovery(RecoveryPolicy::default());
                let stats = tracker.run_sequence(&mut EyeMotionGenerator::with_seed(31), FRAMES);
                // never panics, never emits garbage
                assert_eq!(stats.frames, FRAMES);
                assert!(
                    stats.mean_error_deg().is_finite() && stats.mean_error_deg() < 45.0,
                    "{backend:?} level {level}: error {:.1}° is garbage",
                    stats.mean_error_deg()
                );
                if backend == GazeBackend::Int8 {
                    // the int8 warm-up calibration must survive faulted
                    // calibration frames and still deploy the quantised net
                    assert!(
                        tracker.quantized_gaze().is_some(),
                        "int8 never calibrated at chaos level {level}"
                    );
                }
                errors.push(stats.mean_error_deg());
            }
            // mean gaze error degrades monotonically with severity, within a
            // small slack for the noise floor of a 30-frame sample
            for w in errors.windows(2) {
                assert!(
                    w[1] + SLACK_DEG >= w[0],
                    "{backend:?}: error improved with more faults: {errors:?}"
                );
            }
            assert!(
                *errors.last().unwrap() > errors[0] + 1.0,
                "{backend:?}: heaviest chaos level does not degrade tracking: {errors:?}"
            );
        }
    }
}

/// Latent staleness edge cases: under a drop-heavy plan the latent fast
/// path falls back to its **last-good measurement** the way the recon path
/// falls back to its last-good image — same recovery skeleton, same
/// counters — so the per-frame fault accounting and the [`FrameQuality`]
/// grades must be *identical* to the f32 recon path under the same plan
/// and seed (the fault schedule is a function of the plan seed and frame
/// index, never of the backend).
#[test]
fn latent_fallbacks_grade_identically_to_the_recon_path() {
    const FRAMES: usize = 40;
    let (_, models) = shared_models();
    // drops + duplicates + dead pixels: exercises the Missing, Duplicate
    // and retry arms of the latent sense stage (no gaze NaNs — the nets
    // differ, so post-forward faults could legitimately grade differently)
    let mut plan = FaultPlan::none();
    plan.seed = 0x57A1E;
    plan.sensor.frame_drop_ppm = 150_000;
    plan.sensor.frame_duplicate_ppm = 80_000;
    plan.sensor.dead_pixel_ppm = 60_000;

    for config in configs() {
        let run = |backend: GazeBackend| {
            let mut cfg = config.clone();
            cfg.gaze_backend = backend;
            let mut tracker = EyeTracker::new(cfg, models.clone_models())
                .with_faults(plan.clone())
                .with_recovery(RecoveryPolicy::default());
            tracker.run_sequence_traced(&mut EyeMotionGenerator::with_seed(23), FRAMES)
        };
        let (f32_stats, f32_trace) = run(GazeBackend::F32);
        let (lat_stats, lat_trace) = run(GazeBackend::Latent);

        // the plan must actually bite, and the last-good fallback must engage
        assert!(f32_stats.faults.injected > 0, "plan injected nothing");
        assert!(f32_stats.faults.recovered > 0, "fallbacks never engaged");
        assert_eq!(
            f32_stats.faults, lat_stats.faults,
            "latent fault accounting diverged from the recon path"
        );
        assert_eq!(
            quality_codes(&f32_trace),
            quality_codes(&lat_trace),
            "latent FrameQuality grades diverged from the recon path"
        );
        for (a, b) in f32_trace.iter().zip(&lat_trace) {
            assert_eq!(
                a.faults, b.faults,
                "frame {}: per-frame accounting diverged",
                a.frame
            );
        }
    }
}

/// A degenerate (injected-NaN) gaze out of the latent net must be replaced
/// by the last-good gaze and flagged — never emitted. Exercises the
/// post-forward recovery arm on the fast path, where the gaze came from
/// the latent net rather than the recon-path net.
#[test]
fn latent_degenerate_gaze_falls_back_to_last_good() {
    const FRAMES: usize = 40;
    let (_, models) = shared_models();
    let mut plan = FaultPlan::none();
    plan.seed = 0x1A7E;
    plan.stage.gaze_nan_ppm = 200_000;
    for config in configs() {
        let cfg = TrackerConfig {
            gaze_backend: GazeBackend::Latent,
            ..config
        };
        let mut tracker = EyeTracker::new(cfg, models.clone_models())
            .with_faults(plan.clone())
            .with_recovery(RecoveryPolicy::default());
        let (stats, trace) =
            tracker.run_sequence_traced(&mut EyeMotionGenerator::with_seed(5), FRAMES);
        assert_eq!(stats.frames, FRAMES);
        let degenerate = trace.iter().filter(|f| f.gaze_degenerate).count();
        assert!(degenerate > 0, "the NaN plan never bit");
        assert!(
            degenerate < FRAMES,
            "every frame degenerate — nothing left to fall back to"
        );
        for f in &trace {
            assert!(
                f.gaze.x.is_finite() && f.gaze.y.is_finite() && f.gaze.z.is_finite(),
                "frame {}: a degenerate latent gaze leaked to the output",
                f.frame
            );
        }
    }
}

#[test]
fn heavy_plan_json_round_trips_through_the_faults_flag_syntax() {
    // a plan exported as JSON and fed back through the parser behind
    // `eyecod track --faults '{…}'` reproduces the exact schedule — the
    // replay-from-a-bug-report workflow
    let plan = FaultPlan::heavy(42);
    let json = plan.to_json();
    let back = FaultPlan::parse(&json).expect("JSON plan must parse");
    assert_eq!(back, plan);
    assert_eq!(back.schedule(60), plan.schedule(60));
}
