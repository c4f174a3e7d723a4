//! Property suite for the registry lifecycle plus the serve tick's
//! worker-count invariance.
//!
//! The lifecycle tests drive random interleavings of
//! create/feed/snapshot/evict against a plain vector model and pin the
//! generational-id guarantees: an evicted id never resolves again (even
//! after its slot is reused), live ids always resolve, and the active
//! session count is exact at every step, for every default backend
//! `create` can hand out and on the event-driven delta path. The
//! invariance test pins the determinism claim from the crate docs: a
//! registry on an N-worker pool produces frame-for-frame identical output
//! to a sequential one, dense and delta.

use std::sync::OnceLock;

use eyecod_core::tracker::{GazeBackend, TrackedFrame, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_serve::{ServeConfig, ServeError, ServeRegistry, SessionId};
use eyecod_tensor::Tensor;
use proptest::prelude::*;

/// Train once and prerender a small scene pool; both are the expensive
/// parts and every test reuses them read-only.
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

fn registry(mutate: impl FnOnce(&mut ServeConfig)) -> ServeRegistry {
    let (cfg, models, _) = shared();
    let mut sc = ServeConfig::new(cfg.clone());
    sc.threads = Some(0);
    mutate(&mut sc);
    ServeRegistry::new(sc, models.clone_models())
}

/// The `(backend, delta)` cells the lifecycle properties hold in: every
/// backend `create` can default to on the dense path, plus f32 on the
/// event-driven delta path. Each cell is printed as the loop reaches it,
/// so a failing test's captured output names the cell.
fn cells() -> impl Iterator<Item = (GazeBackend, bool)> {
    GazeBackend::ALL
        .into_iter()
        .map(|b| (b, false))
        .chain([(GazeBackend::F32, true)])
        .inspect(|(backend, delta)| println!("cell: {backend:?}, delta {delta}"))
}

/// [`registry`] in one cell.
fn registry_in(
    (backend, delta): (GazeBackend, bool),
    mutate: impl FnOnce(&mut ServeConfig),
) -> ServeRegistry {
    registry(|c| {
        c.tracker.gaze_backend = backend;
        c.tracker.delta = delta;
        mutate(c);
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random create/feed/tick/snapshot/evict interleavings against a
    /// vector model: counts exact, live ids resolve, dead ids never do.
    #[test]
    fn lifecycle_interleavings_keep_ids_generational(
        ops in collection::vec((0u8..5, 0usize..8), 4..40),
    ) {
        let (_, _, scenes) = shared();
        for cell in cells() {
            let mut reg = registry_in(cell, |c| {
                c.max_sessions = 4;
                c.queue_capacity = 2;
            });
            let mut live: Vec<SessionId> = Vec::new();
            let mut dead: Vec<SessionId> = Vec::new();
            for &(op, k) in &ops {
                match op {
                    0 => match reg.create() {
                        Ok(id) => {
                            prop_assert!(live.len() < 4, "create succeeded past the cap");
                            prop_assert!(!live.contains(&id));
                            live.push(id);
                        }
                        Err(e) => {
                            prop_assert_eq!(live.len(), 4, "create refused below the cap");
                            prop_assert_eq!(e, ServeError::AtCapacity(4));
                        }
                    },
                    1 if !live.is_empty() => {
                        let id = live.remove(k % live.len());
                        let snap = reg.evict(id);
                        prop_assert!(snap.is_ok());
                        dead.push(id);
                    }
                    2 if !live.is_empty() => {
                        let id = live[k % live.len()];
                        let fed = reg.feed(id, &scenes[k % scenes.len()], k as u64);
                        prop_assert!(fed.is_ok());
                    }
                    3 => {
                        let report = reg.tick();
                        prop_assert!(report.staged <= live.len());
                        prop_assert_eq!(report.staged, report.completed);
                    }
                    4 if !live.is_empty() => {
                        let id = live[k % live.len()];
                        let snap = reg.snapshot(id);
                        prop_assert!(snap.is_ok());
                        prop_assert_eq!(snap.unwrap().id, id);
                    }
                    _ => {}
                }
                // the core generational guarantees, checked after every op
                prop_assert_eq!(reg.sessions_active(), live.len());
                for id in &live {
                    prop_assert!(reg.contains(*id), "live id {id:?} failed to resolve");
                }
                for id in &dead {
                    prop_assert!(!reg.contains(*id), "evicted id {id:?} resolved");
                    let refused = reg.snapshot(*id).unwrap_err();
                    prop_assert!(
                        matches!(refused, ServeError::StaleSession(_) | ServeError::UnknownSession(_)),
                        "evicted id {id:?} refused with the wrong error: {refused:?}"
                    );
                }
            }
        }
    }

    /// Queue depth never exceeds capacity, shed accounting is exact, and
    /// `frames_ingested` counts every feed whatever its outcome.
    #[test]
    fn ingress_accounting_is_exact_under_any_feed_pattern(
        feeds in collection::vec(0usize..6, 1..30),
        capacity in 1usize..4,
    ) {
        let (_, _, scenes) = shared();
        for cell in cells() {
            let mut reg = registry_in(cell, |c| c.queue_capacity = capacity);
            let id = reg.create().unwrap();
            let mut shed = 0u64;
            for (i, s) in feeds.iter().enumerate() {
                let out = reg.feed(id, &scenes[*s], i as u64).unwrap();
                if out.was_shed() {
                    shed += 1;
                }
                let snap = reg.snapshot(id).unwrap();
                prop_assert!(snap.queue_depth <= capacity);
                prop_assert_eq!(snap.frames_ingested, i as u64 + 1);
                prop_assert_eq!(snap.stats.frames_shed as u64, shed);
            }
            prop_assert_eq!(shed, (feeds.len().saturating_sub(capacity)) as u64);
        }
    }
}

/// One comparable line per completed frame (gaze compared bit-for-bit).
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

/// Runs the same mixed-backend fleet schedule on a registry with `threads`
/// background workers, on the dense or the delta path, and returns every
/// completed frame's digest.
fn run_fleet(threads: usize, delta: bool) -> Vec<String> {
    let (_, _, scenes) = shared();
    let mut reg = registry(|c| {
        c.threads = Some(threads);
        c.tracker.delta = delta;
    });
    let mut ids = Vec::new();
    for s in 0..6usize {
        let backend = if s % 2 == 0 {
            GazeBackend::F32
        } else {
            GazeBackend::Int8
        };
        ids.push(reg.create_with_backend(backend).unwrap());
    }
    let mut out = Vec::new();
    for step in 0..30u64 {
        for (s, id) in ids.iter().enumerate() {
            // a ragged schedule: not every session gets a frame every tick
            if !(step + s as u64).is_multiple_of(3) {
                reg.feed(*id, &scenes[(step as usize + s) % scenes.len()], step)
                    .unwrap();
            }
        }
        let (_, trace) = reg.tick_traced();
        out.extend(trace.iter().map(|(id, f)| digest(*id, f)));
        // mid-run churn: evict one session and replace it, same backend
        if step == 17 {
            let victim = ids.remove(2);
            reg.evict(victim).unwrap();
            ids.insert(2, reg.create_with_backend(GazeBackend::F32).unwrap());
        }
    }
    out
}

/// The determinism pin: worker count is invisible in the output. Parallel
/// prepare touches disjoint sessions and the batched GEMM processes items
/// independently, so 0, 1 and 3 background workers must produce
/// byte-identical traces.
#[test]
fn worker_count_never_changes_any_frame() {
    for delta in [false, true] {
        let sequential = run_fleet(0, delta);
        assert!(!sequential.is_empty());
        for threads in [1usize, 3] {
            let parallel = run_fleet(threads, delta);
            assert_eq!(
                sequential.len(),
                parallel.len(),
                "{threads}-worker run (delta {delta}) completed a different frame count"
            );
            for (a, b) in sequential.iter().zip(&parallel) {
                assert_eq!(a, b, "{threads}-worker run (delta {delta}) diverged");
            }
        }
    }
}
