//! Overload + fault chaos: 256 sessions fed at an unsustainable rate
//! under the `heavy` fault preset.
//!
//! The serving layer's promise under abuse is *graceful, bounded, and
//! reproducible* degradation:
//!
//! * zero panics — the whole run completing is the assertion;
//! * queue depth never exceeds the configured capacity, on any session,
//!   at any point;
//! * the fleet `frames_shed` count is exactly the feed excess and only
//!   ever grows;
//! * once a session has produced one good frame, every frame it sheds is
//!   graded `Degraded` — a capacity decision, never `Lost` (which is
//!   reserved for pipeline failures);
//! * the entire scenario — faults, sheds, gaze outputs — replays
//!   byte-identically under the same seed, on any worker count;
//! * worker panics injected into the tick's front-half jobs are recovered
//!   without a trace of them in the output, and every one is counted.
//!
//! Half of each fleet takes the configured default backend through
//! `create`; every test runs once per default — each backend on the dense
//! path, plus f32 on the event-driven delta path.

use std::sync::OnceLock;

use eyecod_core::tracker::{GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_faults::{FaultPlan, FrameQuality};
use eyecod_serve::{ServeConfig, ServeRegistry};
use eyecod_tensor::Tensor;

const SESSIONS: usize = 256;
const QUEUE: usize = 2;
/// Frames fed per session per tick; service rate is 1, so 2 of every 3
/// fed frames must be shed at steady state.
const OVERLOAD: usize = 3;
const CHAOS_TICKS: usize = 8;
const SEED: u64 = 0xC0FFEE;

fn shared() -> &'static (TrackerConfig, TrackerModels, Vec<Tensor>) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Vec<Tensor>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        let scenes = (0..5u64)
            .map(|i| {
                let mut p = EyeParams::centered(cfg.scene_size);
                p.yaw = 0.05 * i as f32 - 0.1;
                render_eye(&p, cfg.scene_size, i).image
            })
            .collect();
        (cfg, models, scenes)
    })
}

/// The `(backend, delta)` cells every scenario runs in. Each cell is
/// printed as the loop reaches it, so a failing test's captured output
/// names the cell.
fn cells() -> impl Iterator<Item = (GazeBackend, bool)> {
    GazeBackend::ALL
        .into_iter()
        .map(|b| (b, false))
        .chain([(GazeBackend::F32, true)])
        .inspect(|(backend, delta)| println!("cell: {backend:?}, delta {delta}"))
}

/// A `ServeConfig` over the shared tracker config in one cell.
fn serve_config((backend, delta): (GazeBackend, bool), threads: usize) -> ServeConfig {
    let (cfg, _, _) = shared();
    let mut sc = ServeConfig::new(TrackerConfig {
        gaze_backend: backend,
        delta,
        ..cfg.clone()
    });
    sc.threads = Some(threads);
    sc
}

/// One comparable line per observed event, for the replay digest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunDigest {
    shed_events: Vec<String>,
    frames: Vec<String>,
    fleet: String,
}

/// Runs the full chaos scenario once in `cell` and returns its digest,
/// asserting the graceful-degradation invariants along the way.
fn run_chaos(cell: (GazeBackend, bool), threads: usize) -> RunDigest {
    let (_, models, scenes) = shared();
    let mut sc = serve_config(cell, threads);
    sc.queue_capacity = QUEUE;
    let mut reg = ServeRegistry::new(sc, models.clone_models()).with_faults(FaultPlan::heavy(SEED));
    // half the fleet takes the cell's default backend, the other half is
    // pinned int8 so fleet-shared calibration is always under load
    let ids: Vec<_> = (0..SESSIONS)
        .map(|s| {
            if s % 2 == 0 {
                reg.create().unwrap()
            } else {
                reg.create_with_backend(GazeBackend::Int8).unwrap()
            }
        })
        .collect();

    // Warm-up at a sustainable rate until every session has one clean
    // frame. Shed grading keys off the tracker's frame history (no frame
    // yet tracked -> nothing to degrade *to* -> Lost), so the
    // Degraded-never-Lost invariant is a steady-state promise; under the
    // heavy preset's 12 % frame drops a few sessions need several rounds.
    let mut warm_rounds = 0;
    loop {
        for (s, id) in ids.iter().enumerate() {
            reg.feed(
                *id,
                &scenes[(warm_rounds + s) % scenes.len()],
                warm_rounds as u64,
            )
            .unwrap();
        }
        reg.tick();
        warm_rounds += 1;
        let cold = ids
            .iter()
            .filter(|id| reg.snapshot(**id).unwrap().stats.frames_ok == 0)
            .count();
        if cold == 0 {
            break;
        }
        assert!(
            warm_rounds < 64,
            "{cold} sessions still without a clean frame after {warm_rounds} warm rounds"
        );
    }

    let warm_shed = reg.fleet_stats().frames_shed;
    let mut digest = RunDigest {
        shed_events: Vec::new(),
        frames: Vec::new(),
        fleet: String::new(),
    };
    let mut last_fleet_shed = warm_shed;
    let mut seed = 1000u64;
    for tick in 0..CHAOS_TICKS {
        for round in 0..OVERLOAD {
            for (s, id) in ids.iter().enumerate() {
                seed += 1;
                let out = reg
                    .feed(*id, &scenes[(tick + round + s) % scenes.len()], seed)
                    .unwrap();
                if let Some(f) = out.shed() {
                    // the core chaos invariant: overload degrades, it
                    // never reports a *lost* frame for a capacity decision
                    assert_eq!(
                        f.quality,
                        FrameQuality::Degraded,
                        "session {id:?} shed frame {} graded {:?}",
                        f.frame,
                        f.quality
                    );
                    digest
                        .shed_events
                        .push(format!("{}:{} f{}", id.index(), tick, f.frame));
                }
                let depth = reg.snapshot(*id).unwrap().queue_depth;
                assert!(
                    depth <= QUEUE,
                    "queue depth {depth} exceeds capacity {QUEUE}"
                );
            }
        }
        let (report, trace) = reg.tick_traced();
        assert_eq!(report.staged, SESSIONS, "every session had work queued");
        for (id, f) in &trace {
            digest.frames.push(format!(
                "{} f{} {:08x}/{:08x}/{:08x} {:?}",
                id.index(),
                f.frame,
                f.gaze.x.to_bits(),
                f.gaze.y.to_bits(),
                f.gaze.z.to_bits(),
                f.quality
            ));
        }
        let fleet = reg.fleet_stats();
        assert!(
            fleet.frames_shed >= last_fleet_shed,
            "frames_shed went backwards"
        );
        last_fleet_shed = fleet.frames_shed;
    }

    // exact shed accounting: every chaos-fed frame was served, is still
    // parked in a queue, or was shed — nothing vanishes
    let fleet = reg.fleet_stats();
    let chaos_shed = fleet.frames_shed - warm_shed;
    let fed = SESSIONS * OVERLOAD * CHAOS_TICKS;
    let served = SESSIONS * CHAOS_TICKS;
    let parked: usize = ids
        .iter()
        .map(|id| reg.snapshot(*id).unwrap().queue_depth)
        .sum();
    assert_eq!(
        chaos_shed,
        fed - served - parked,
        "shed accounting should be exact under a deterministic schedule"
    );
    digest.fleet = format!(
        "frames={} shed={} ok={} degraded={} lost={}",
        fleet.frames, fleet.frames_shed, fleet.frames_ok, fleet.frames_degraded, fleet.frames_lost
    );
    digest
}

#[test]
fn overloaded_fleet_degrades_gracefully_and_replays_exactly() {
    for cell in cells() {
        let first = run_chaos(cell, 0);
        assert!(
            !first.shed_events.is_empty(),
            "the overload schedule must actually shed frames"
        );
        assert_eq!(first.frames.len(), SESSIONS * CHAOS_TICKS);
        // byte-identical replay: same seed, same fleet, same everything
        let second = run_chaos(cell, 0);
        assert_eq!(
            first, second,
            "chaos run is not reproducible under a fixed seed"
        );
    }
}

/// The pool leg of the overload matrix: the same 3× overload under
/// `FaultPlan::heavy` (which also kills front-half job 1 every tick) on 1
/// and 3 pool workers, with zero panics escaping and a digest — sheds,
/// gaze bits, quality grades, fleet totals — byte-identical to the
/// 0-worker run's.
#[test]
fn overloaded_fleet_digest_is_worker_count_invariant() {
    for cell in cells() {
        let reference = run_chaos(cell, 0);
        assert!(!reference.shed_events.is_empty());
        for threads in [1, 3] {
            assert_eq!(
                reference,
                run_chaos(cell, threads),
                "{threads}-worker chaos digest diverged from the 0-worker run"
            );
        }
    }
}

/// The serve-level mirror of the pool's `try_parallel_map` pin: a fault
/// plan that kills front-half jobs at their entry points is recovered by
/// the tick's inline retry, byte-identically to the same fleet run without
/// the plan — and the ticks' reports count every retry.
#[test]
fn injected_worker_panics_recover_byte_identically() {
    let (_, models, scenes) = shared();
    let run = |cell: (GazeBackend, bool), plan: &FaultPlan, threads: usize| {
        let sc = serve_config(cell, threads);
        let mut reg = ServeRegistry::new(sc, models.clone_models()).with_faults(plan.clone());
        // mixed backends: the int8 warm-up and the calibrated int8 batch
        // both run under the injected panics
        let ids: Vec<_> = (0..8)
            .map(|s| {
                if s % 2 == 0 {
                    reg.create().unwrap()
                } else {
                    reg.create_with_backend(GazeBackend::Int8).unwrap()
                }
            })
            .collect();
        let mut out = Vec::new();
        let mut recovered = 0;
        for step in 0..TICKS {
            for (s, id) in ids.iter().enumerate() {
                reg.feed(*id, &scenes[(step as usize + s) % scenes.len()], step)
                    .unwrap();
            }
            let (report, trace) = reg.tick_traced();
            recovered += report.panics_recovered;
            for (id, f) in trace {
                out.push(format!(
                    "{} f{} {:08x}/{:08x}/{:08x} {:?} {:?}",
                    id.index(),
                    f.frame,
                    f.gaze.x.to_bits(),
                    f.gaze.y.to_bits(),
                    f.gaze.z.to_bits(),
                    f.quality,
                    f.faults
                ));
            }
        }
        (out, recovered)
    };
    const TICKS: u64 = 12;
    // kill the first, an interior and the last front-half job of every tick
    let mut plan = FaultPlan::none();
    plan.exec.worker_panic_jobs = vec![0, 3, 7];
    for cell in cells() {
        let (reference, none_recovered) = run(cell, &FaultPlan::none(), 0);
        assert_eq!(none_recovered, 0, "nothing to recover without the plan");
        for threads in [0usize, 3] {
            let (faulted, recovered) = run(cell, &plan, threads);
            assert_eq!(
                reference, faulted,
                "{threads}-worker run with injected worker panics diverged"
            );
            assert_eq!(
                recovered,
                3 * TICKS as usize,
                "{threads}-worker run recovered {recovered} of 3 × {TICKS} injected worker panics"
            );
        }
    }
}
