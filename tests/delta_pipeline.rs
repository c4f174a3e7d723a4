//! End-to-end regression for the event-driven sparse acquisition path and
//! its motion gate.
//!
//! The delta pipeline replaces dense re-sensing on steady-state frames
//! with a diff against the last fully-sensed scene: changed columns are
//! folded into the cached measurement as a rank-`k` update and the cached
//! reconstruction receives the matching sparse-column spectral correction;
//! frames whose change count stays under the gate threshold skip the gaze
//! forward entirely and serve the last-good direction. This suite pins the
//! contracts the tentpole rests on:
//!
//! 1. **Refresh-frame bit-identity** — scheduled ROI-refresh frames run
//!    the dense path in both modes, so their outputs match the dense
//!    tracker to the last bit (and re-priming there resets any drift the
//!    clean-event deltas accumulated between refreshes).
//! 2. **Bounded steady-state divergence** — between refreshes the delta
//!    tracker accumulates *clean* (noise-free) column updates on top of
//!    the refresh frame's noisy capture, while the dense tracker re-draws
//!    sensor noise every frame. The reconstruction update itself is
//!    algebraically exact for the cached measurement, so the divergence is
//!    the noise-redraw difference pushed through the gaze net — a few
//!    degrees at most, reset to zero at every refresh.
//! 3. **Event-sensor economy** — the dense run solves once per frame; the
//!    delta run solves on refresh frames ONLY (`optics/recon_solves`),
//!    applies one incremental update per super-threshold frame
//!    (`optics/recon_delta_updates`), and skips everything else
//!    (`tracker/gaze_skipped`).
//! 4. **Motion-gate conformance under faults** — with `FaultPlan::heavy`
//!    active the gated pipeline still replays deterministically, the skip
//!    counter agrees with the per-frame `gaze_skipped` flags, and
//!    drop/delay/duplicate handling grades exactly as the recovery
//!    machinery dictates.
//!
//! The telemetry-pinned run lives in ONE test function: the registry is
//! global to the test binary, so the tracked runs must not interleave with
//! other frame-processing tests. Every test here that processes frames
//! holds [`frame_lock`] for its whole body, which keeps the default
//! parallel harness from running a sibling between that test's counter
//! reset and snapshot. The serve-layer legs run their own registries and
//! assert structure (forward counts), not global counters.

use eyecod::core::tracker::{EyeTracker, GazeBackend, TrackedFrame, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod::eyedata::render::render_eye;
use eyecod::eyedata::EyeMotionGenerator;
use eyecod::faults::{FaultPlan, FrameQuality};
use eyecod::serve::{ServeConfig, ServeRegistry, SessionId};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

const FRAMES: usize = 60;
const MOTION_SEED: u64 = 77;

/// Serialises the frame-processing tests of this binary: frames bump the
/// process-global telemetry counters, and the harness runs tests on
/// parallel threads. A panicking holder poisons the lock; the guarded
/// value is `()`, which no panic can leave half-updated, so the next test
/// takes the guard back instead of failing for its sibling.
fn frame_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Train once; every leg reuses the models read-only.
fn shared() -> &'static (TrackerConfig, TrackerModels) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        (cfg, models)
    })
}

/// The fixed synthetic sequence both modes track (fixation runs plus
/// saccades: the default motion model produces both gated and delta
/// frames).
fn samples() -> &'static Vec<eyecod::eyedata::Sample> {
    static SAMPLES: OnceLock<Vec<eyecod::eyedata::Sample>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let (cfg, _) = shared();
        let mut motion = EyeMotionGenerator::with_seed(MOTION_SEED);
        (0..FRAMES)
            .map(|i| render_eye(&motion.next_frame(), cfg.scene_size, 1000 + i as u64))
            .collect()
    })
}

fn run_tracker(delta: bool, threshold: usize, plan: FaultPlan) -> Vec<TrackedFrame> {
    let (cfg, models) = shared();
    let mut c = cfg.clone();
    c.delta = delta;
    c.delta_threshold = threshold;
    let mut tracker = EyeTracker::new(c, models.clone_models()).with_faults(plan);
    samples()
        .iter()
        .enumerate()
        .map(|(i, s)| tracker.process_frame(&s.image, 2000 + i as u64))
        .collect()
}

fn gaze_bits(f: &TrackedFrame) -> [u32; 3] {
    [f.gaze.x.to_bits(), f.gaze.y.to_bits(), f.gaze.z.to_bits()]
}

#[test]
fn delta_pipeline_matches_dense_on_refresh_frames_with_bounded_drift() {
    let _serial = frame_lock();
    // train and render before the counters are reset
    let (cfg, _) = shared();
    samples();
    let refresh: Vec<usize> = (0..FRAMES).filter(|i| i % cfg.roi_period == 0).collect();

    #[cfg(feature = "telemetry")]
    eyecod::telemetry::set_enabled(true);

    #[cfg(feature = "telemetry")]
    eyecod::telemetry::global().reset();
    let dense = run_tracker(false, 16, FaultPlan::none());
    #[cfg(feature = "telemetry")]
    let dense_solves = eyecod::telemetry::global()
        .snapshot()
        .counter("optics/recon_solves")
        .unwrap_or(0);

    #[cfg(feature = "telemetry")]
    eyecod::telemetry::global().reset();
    let delta = run_tracker(true, 16, FaultPlan::none());
    #[cfg(feature = "telemetry")]
    let snap = eyecod::telemetry::global().snapshot();

    let skips = delta.iter().filter(|f| f.gaze_skipped).count();
    let sparse = delta
        .iter()
        .filter(|f| !f.gaze_skipped && !f.roi_refreshed)
        .count();
    assert!(
        skips > 0,
        "the fixed sequence must contain motion-gated frames"
    );
    assert!(
        sparse > 0,
        "the fixed sequence must contain sparse-update frames"
    );
    assert!(
        dense.iter().all(|f| !f.gaze_skipped),
        "dense mode must never gate"
    );

    // (1) refresh frames run the identical dense path in both modes
    for &i in &refresh {
        assert!(dense[i].roi_refreshed && delta[i].roi_refreshed);
        assert!(!delta[i].gaze_skipped, "refresh frames never gate");
        assert_eq!(
            gaze_bits(&dense[i]),
            gaze_bits(&delta[i]),
            "refresh frame {i}: delta output not bit-identical to dense"
        );
    }

    // (2) bounded steady-state divergence, reset at every refresh: the
    // per-frame divergence between the modes stays small everywhere and
    // is exactly zero on refresh frames (checked bitwise above)
    let mut div_sum = 0.0f32;
    let mut div_max = 0.0f32;
    for (d, e) in dense.iter().zip(&delta) {
        let div = d.gaze.angular_error_degrees(&e.gaze);
        div_sum += div;
        div_max = div_max.max(div);
    }
    let div_mean = div_sum / FRAMES as f32;
    assert!(
        div_mean < 8.0,
        "delta path diverged {div_mean:.2}° (mean) from dense — bound is 8°"
    );
    assert!(
        div_max < 25.0,
        "delta path diverged {div_max:.2}° (max) from dense — bound is 25°"
    );

    // both modes still track truth, and the delta run grades every clean
    // frame usable (gated frames are Ok: the gate verified stasis)
    let err = |trace: &[TrackedFrame]| {
        trace
            .iter()
            .zip(samples())
            .map(|(f, s)| f.gaze.angular_error_degrees(&s.gaze))
            .sum::<f32>()
            / FRAMES as f32
    };
    assert!(
        err(&dense) < 18.0,
        "dense lost tracking: {:.1}°",
        err(&dense)
    );
    assert!(
        err(&delta) < 18.0,
        "delta lost tracking: {:.1}°",
        err(&delta)
    );
    assert!(
        delta.iter().all(|f| f.quality == FrameQuality::Ok),
        "a clean delta run must grade every frame Ok"
    );

    // (3) event-sensor economy: solves on refresh frames only; one
    // incremental update per sparse frame; the skip counter agrees with
    // the per-frame flags
    #[cfg(feature = "telemetry")]
    {
        assert_eq!(dense_solves, FRAMES as u64, "dense solves once per frame");
        assert_eq!(
            snap.counter("optics/recon_solves").unwrap_or(0),
            refresh.len() as u64,
            "delta mode must solve on refresh frames ONLY"
        );
        assert_eq!(
            snap.counter("optics/recon_delta_updates").unwrap_or(0),
            sparse as u64,
            "one incremental update per sparse frame"
        );
        assert_eq!(
            snap.counter("tracker/gaze_skipped").unwrap_or(0),
            skips as u64,
            "skip counter must equal the motion-gated frame count"
        );
        assert_eq!(
            snap.counter("tracker/delta_frames").unwrap_or(0),
            sparse as u64,
            "delta-frame counter must equal the sparse frame count"
        );
        assert!(
            snap.counter("tracker/changed_px").unwrap_or(0) > 0,
            "change detection must account super-threshold pixels"
        );
    }
}

/// Motion-gate conformance under an aggressive fault plan: the gated
/// pipeline replays deterministically, skip flags stay consistent, and the
/// recovery machinery grades drop/delay/duplicate frames exactly as in
/// dense mode (those capture gates fire *before* the delta branch and are
/// keyed on the frame index alone).
#[test]
fn motion_gate_survives_heavy_faults_deterministically() {
    let _serial = frame_lock();
    let plan = FaultPlan::heavy(0xEC0D);
    let a = run_tracker(true, 16, plan.clone());
    let b = run_tracker(true, 16, plan.clone());
    assert_eq!(a.len(), FRAMES);
    let digest = |t: &[TrackedFrame]| {
        t.iter()
            .map(|f| {
                format!(
                    "f{} {:?} skip={} gaze={:08x?} faults={:?}",
                    f.frame,
                    f.quality,
                    f.gaze_skipped,
                    gaze_bits(f),
                    f.faults
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(&a), digest(&b), "gated run must replay identically");
    let skips = a.iter().filter(|f| f.gaze_skipped).count();
    assert!(skips > 0, "heavy plan leaves fixation frames to gate");
    // skipped frames carry no fault events and never refresh the ROI
    for f in a.iter().filter(|f| f.gaze_skipped) {
        assert!(f.faults.is_clean(), "gated frame {} saw faults", f.frame);
        assert!(!f.roi_refreshed);
    }
    let injected: u32 = a.iter().map(|f| f.faults.injected).sum();
    let recovered: u32 = a.iter().map(|f| f.faults.recovered).sum();
    assert!(injected > 0, "heavy plan must inject");
    assert!(recovered > 0, "recovery must engage");
    // grading conformance with the recon path: the plan's harsh-preset
    // contract (≥90 % of frames Ok/Degraded over a 60-frame run) must
    // survive the motion gate — gating frames the recovery machinery
    // would have graded must not shift grades toward Lost
    let dense = run_tracker(false, 16, plan);
    let lost = |t: &[TrackedFrame]| t.iter().filter(|f| f.quality == FrameQuality::Lost).count();
    assert!(
        lost(&a) * 10 <= FRAMES,
        "delta mode under the heavy plan lost {}/{FRAMES} frames — the plan's contract allows 10 %",
        lost(&a)
    );
    assert!(
        lost(&a) <= lost(&dense),
        "the motion gate must not add Lost frames over dense mode ({} vs {})",
        lost(&a),
        lost(&dense)
    );
}

/// One comparable line per completed frame.
fn digest(id: SessionId, f: &TrackedFrame) -> String {
    format!(
        "{}:{} f{} gaze={:08x},{:08x},{:08x} q={:?} skip={} refreshed={}",
        id.index(),
        id.generation(),
        f.frame,
        f.gaze.x.to_bits(),
        f.gaze.y.to_bits(),
        f.gaze.z.to_bits(),
        f.quality,
        f.gaze_skipped,
        f.roi_refreshed,
    )
}

/// Drives a mixed-backend delta fleet through one fixed schedule and
/// returns every completed frame's digest plus the per-tick forward
/// counts.
fn run_fleet(threads: usize, ragged: u64) -> (Vec<String>, Vec<usize>) {
    let (cfg, models) = shared();
    let mut tracker_cfg = cfg.clone();
    tracker_cfg.delta = true;
    let mut sc = ServeConfig::new(tracker_cfg);
    sc.threads = Some(threads);
    let mut reg = ServeRegistry::new(sc, models.clone_models());
    let backends = [
        GazeBackend::F32,
        GazeBackend::Int8,
        GazeBackend::Latent,
        GazeBackend::F32,
    ];
    let ids: Vec<SessionId> = backends
        .iter()
        .map(|b| reg.create_with_backend(*b).unwrap())
        .collect();
    let mut out = Vec::new();
    let mut forwards = Vec::new();
    for step in 0..24u64 {
        for (s, id) in ids.iter().enumerate() {
            // a ragged schedule: not every session gets a frame every tick
            if (step + s as u64) % 7 != ragged {
                reg.feed(*id, &samples()[step as usize % FRAMES].image, step)
                    .unwrap();
            }
        }
        let (report, trace) = reg.tick_traced();
        forwards.push(report.f32_forwards + report.int8_forwards + report.latent_forwards);
        out.extend(trace.iter().map(|(id, f)| digest(*id, f)));
    }
    (out, forwards)
}

/// Motion-gated sessions never enter a gaze batch: on any worker count,
/// the per-tick forward counts plus the gated completions add up to the
/// staged frames, and a fully static fleet stops forwarding entirely
/// between refreshes.
#[test]
fn gated_sessions_stay_out_of_gaze_batches() {
    let _serial = frame_lock();
    let (cfg, models) = shared();
    let scene = render_eye(
        &eyecod::eyedata::EyeParams::centered(cfg.scene_size),
        cfg.scene_size,
        5,
    )
    .image;
    for threads in [0, 3] {
        let mut tracker_cfg = cfg.clone();
        tracker_cfg.delta = true;
        let mut sc = ServeConfig::new(tracker_cfg);
        sc.threads = Some(threads);
        let mut reg = ServeRegistry::new(sc, models.clone_models());
        let ids: Vec<SessionId> = (0..3).map(|_| reg.create().unwrap()).collect();
        for step in 0..12u64 {
            for id in &ids {
                reg.feed(*id, &scene, step).unwrap();
            }
            let (report, trace) = reg.tick_traced();
            assert_eq!(report.staged, ids.len(), "{threads} workers step {step}");
            let skipped = trace.iter().filter(|(_, f)| f.gaze_skipped).count();
            let due = step % cfg.roi_period as u64 == 0;
            if due {
                // refresh ticks run the dense path for every session
                assert_eq!(
                    skipped, 0,
                    "{threads} workers step {step}: refresh ticks never gate"
                );
                assert_eq!(
                    report.f32_forwards + report.int8_forwards + report.latent_forwards,
                    ids.len(),
                    "{threads} workers step {step}"
                );
            } else {
                // a static scene gates every session: zero forwards, and
                // every frame still completes with a served gaze
                assert_eq!(
                    skipped,
                    ids.len(),
                    "{threads} workers step {step}: all gated"
                );
                assert_eq!(
                    report.f32_forwards + report.int8_forwards + report.latent_forwards,
                    0,
                    "{threads} workers step {step}: gated sessions must not batch"
                );
            }
            for (_, f) in &trace {
                assert_eq!(f.quality, FrameQuality::Ok, "{threads} workers step {step}");
            }
        }
        for id in &ids {
            let snap = reg.snapshot(*id).unwrap();
            // 12 steps with refreshes at 0 and 10: 10 gated frames each
            assert_eq!(snap.stats.skipped_frames, 10, "{threads} workers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Worker-count invariance for delta fleets: a registry on an N-worker
    /// pool produces frame-for-frame identical output to a sequential one
    /// for the same ragged schedule — the motion gate and the sparse
    /// updates key on per-session state alone, so how the front-half jobs
    /// land on workers must be invisible.
    #[test]
    fn delta_fleet_output_is_worker_count_invariant(
        threads in 1usize..4,
        ragged in 0u64..7,
    ) {
        let _serial = frame_lock();
        let (seq, seq_fwd) = run_fleet(0, ragged);
        let (par, par_fwd) = run_fleet(threads, ragged);
        prop_assert!(!seq.is_empty());
        prop_assert_eq!(seq.len(), par.len(), "{} workers completed a different frame count", threads);
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(a, b, "{} workers diverged", threads);
        }
        prop_assert_eq!(seq_fwd, par_fwd, "forward counts must not depend on workers");
    }
}
