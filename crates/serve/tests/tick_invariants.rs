//! Invariant property suite for the serve tick.
//!
//! The pool is pure execution strategy: for *any* fleet population, queue
//! depth, feed raggedness and mid-run evict/create churn, the tick's trace
//! is **byte-identical** (gaze bits, quality, ROI, fault accounting) on 0,
//! 1 and 3 pool workers — each worker count distributes the per-session
//! frame jobs differently — and shed/ingest accounting is exact. (What
//! each session serves is pinned against a standalone tracker in
//! `standalone_differential.rs`.) Every check runs on the dense path and
//! on the event-driven delta path.

use std::sync::OnceLock;

use eyecod_core::tracker::{GazeBackend, TrackedFrame, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_serve::{ServeConfig, ServeRegistry, SessionId};
use eyecod_tensor::Tensor;
use proptest::prelude::*;

fn shared() -> &'static (TrackerConfig, TrackerModels, Vec<Tensor>) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Vec<Tensor>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        let scenes = (0..6u64)
            .map(|i| {
                let mut p = EyeParams::centered(cfg.scene_size);
                p.yaw = 0.05 * i as f32 - 0.12;
                p.pitch = 0.03 * i as f32 - 0.08;
                render_eye(&p, cfg.scene_size, i).image
            })
            .collect();
        (cfg, models, scenes)
    })
}

/// SplitMix64 — the schedule's only randomness, so a `Schedule` value
/// fully determines every run that executes it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic fleet schedule: population, queue depth, feed pattern
/// seed, and a churn script (step, slot) of mid-run evict+recreate events.
#[derive(Debug, Clone)]
struct Schedule {
    size: usize,
    queue: usize,
    seed: u64,
    steps: u64,
    churn: Vec<(u64, usize)>,
}

/// One comparable line per completed frame, bit-exact.
fn digest(id: SessionId, f: &TrackedFrame) -> String {
    format!(
        "{}:{} f{} gaze={:08x},{:08x},{:08x} q={:?} roi={:?} refreshed={} degenerate={} faults={:?}",
        id.index(),
        id.generation(),
        f.frame,
        f.gaze.x.to_bits(),
        f.gaze.y.to_bits(),
        f.gaze.z.to_bits(),
        f.quality,
        f.roi,
        f.roi_refreshed,
        f.gaze_degenerate,
        f.faults,
    )
}

/// What one run of a schedule observed: the full frame trace plus exact
/// ingress accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunResult {
    frames: Vec<String>,
    fed: u64,
    shed_at_feed: u64,
    /// Final per-session `(frames_ingested, frames_shed, queue_depth)` in
    /// slot order.
    accounting: Vec<(u64, u64, usize)>,
}

/// A serve config on a `threads`-worker pool, dense or on the delta path.
fn serve_config(delta: bool, threads: usize) -> ServeConfig {
    let (cfg, _, _) = shared();
    let mut sc = ServeConfig::new(TrackerConfig {
        delta,
        ..cfg.clone()
    });
    sc.threads = Some(threads);
    sc
}

/// Three-backend rotation: the tick must hold its invariants with latent
/// sessions interleaved among f32 and int8 sessions.
fn backend(slot: usize) -> GazeBackend {
    GazeBackend::ALL[slot % GazeBackend::ALL.len()]
}

/// Executes `schedule` on a `threads`-worker pool.
fn run_schedule(schedule: &Schedule, delta: bool, threads: usize) -> RunResult {
    let (_, models, scenes) = shared();
    let mut sc = serve_config(delta, threads);
    sc.queue_capacity = schedule.queue;
    let mut reg = ServeRegistry::new(sc, models.clone_models());
    let mut ids: Vec<_> = (0..schedule.size)
        .map(|s| reg.create_with_backend(backend(s)).unwrap())
        .collect();
    let mut out = RunResult {
        frames: Vec::new(),
        fed: 0,
        shed_at_feed: 0,
        accounting: Vec::new(),
    };
    for step in 0..schedule.steps {
        for (s, id) in ids.iter().enumerate() {
            // ragged feeding: some sessions get 0 frames a step, some 2 —
            // queues fill, drain and shed on schedule-determined rhythm
            let feeds = mix(schedule.seed ^ step.wrapping_mul(31) ^ s as u64) % 3;
            for extra in 0..feeds {
                out.fed += 1;
                let scene = &scenes[(step as usize + s + extra as usize) % scenes.len()];
                let fed = reg.feed(*id, scene, step * 100 + extra).unwrap();
                if fed.was_shed() {
                    out.shed_at_feed += 1;
                }
            }
        }
        let (report, trace) = reg.tick_traced();
        assert_eq!(report.staged, report.completed);
        for (id, f) in &trace {
            out.frames.push(digest(*id, f));
        }
        // mid-run churn: evict a slot and refill it (same backend
        // rotation), exercising slot recycling between ticks
        for &(churn_step, slot) in &schedule.churn {
            if churn_step == step && !ids.is_empty() {
                let slot = slot % ids.len();
                let victim = ids.remove(slot);
                reg.evict(victim).unwrap();
                ids.insert(slot, reg.create_with_backend(backend(slot)).unwrap());
            }
        }
    }
    for id in &ids {
        let snap = reg.snapshot(*id).unwrap();
        out.accounting.push((
            snap.frames_ingested,
            snap.stats.frames_shed as u64,
            snap.queue_depth,
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: random populations × queue depths × churn
    /// scripts, replayed under worker counts {0, 1, 3} — every trace and
    /// every ingress count must match byte-for-byte.
    #[test]
    fn tick_is_worker_count_invariant_under_churn(
        size in 2usize..7,
        queue in 1usize..4,
        seed in 0u64..1_000_000,
        churn in proptest::collection::vec((0u64..14, 0usize..8), 0..3),
    ) {
        let schedule = Schedule { size, queue, seed, steps: 14, churn };
        for delta in [false, true] {
            let reference = run_schedule(&schedule, delta, 0);
            prop_assert!(!reference.frames.is_empty());
            // conservation: every fed frame was completed, shed at ingress,
            // or is still parked in a surviving queue (frames parked in
            // *evicted* sessions' queues are the only ones allowed to leave
            // the books)
            let parked: u64 = reference.accounting.iter().map(|(_, _, d)| *d as u64).sum();
            prop_assert!(
                reference.fed >= reference.frames.len() as u64 + reference.shed_at_feed + parked,
                "frame conservation violated (delta {}): fed {} < completed {} + shed {} + parked {}",
                delta, reference.fed, reference.frames.len(), reference.shed_at_feed, parked
            );
            for threads in [1usize, 3] {
                let got = run_schedule(&schedule, delta, threads);
                prop_assert_eq!(
                    &reference, &got,
                    "{}-worker run (delta {}) diverged from the 0-worker run", threads, delta
                );
            }
        }
    }
}

/// Exact shed/ingest bookkeeping on a deliberately overloaded fleet:
/// every fed frame is served, parked, or shed — nothing vanishes, nothing
/// double-counts — and the books agree across worker counts.
#[test]
fn shed_and_ingest_accounting_is_exact() {
    let schedule = Schedule {
        size: 5,
        queue: 1,
        seed: 0xABCDEF,
        steps: 16,
        churn: vec![(9, 2)],
    };
    for delta in [false, true] {
        let reference = run_schedule(&schedule, delta, 0);
        for threads in [1usize, 3] {
            let got = run_schedule(&schedule, delta, threads);
            // conservation: fed = completed + shed + still parked (evicted
            // sessions' parked/served frames leave `accounting`, so
            // compare against the 0-worker run rather than re-deriving)
            assert_eq!(
                reference, got,
                "{threads}-worker accounting (delta {delta}) diverged"
            );
            assert!(got.shed_at_feed > 0, "queue=1 under 0..2 feeds must shed");
            let parked: u64 = got.accounting.iter().map(|(_, _, d)| *d as u64).sum();
            let ingested: u64 = got.accounting.iter().map(|(i, _, _)| *i).sum();
            let shed: u64 = got.accounting.iter().map(|(_, s, _)| *s).sum();
            assert!(parked <= got.accounting.len() as u64, "queue bound");
            assert!(shed <= ingested, "shed frames are a subset of ingested");
        }
    }
}
