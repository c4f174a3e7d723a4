//! Tick-mode differential: the serve layer's tentpole correctness claim.
//!
//! Registries run the identical fleet schedule — same models, same
//! sessions, same frames — once per [`TickMode`]: the sequential AoS
//! reference, the batched tick, and the columnar scheduled tick. The tick
//! mode is a pure execution-strategy choice, so every session's gaze must
//! agree **bit-identically** with the sequential reference:
//!
//! * int8 sessions because integer arithmetic has no rounding latitude for
//!   an execution strategy to hide in;
//! * f32 and latent sessions because every f32 kernel on their paths runs
//!   batch items one at a time in a fixed per-element order, so a batched
//!   forward is bitwise equal to per-item forwards;
//! * all properties must hold across ragged fleet sizes (1, 2, 7, 32
//!   sessions) and mixed f32/int8/latent populations, where batch
//!   partitioning across arena slots exercises every uneven split.
//!
//! (Deeper scheduled-mode coverage — worker counts, churn, fault plans —
//! lives in `stage_scheduler.rs`; this suite pins the three modes against
//! each other on the clean path.)

use std::sync::OnceLock;

use eyecod_core::tracker::{GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_faults::FaultPlan;
use eyecod_serve::{ServeConfig, ServeRegistry, SessionId, TickMode};
use eyecod_tensor::Tensor;

fn shared() -> &'static (TrackerConfig, TrackerModels, Vec<Tensor>) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Vec<Tensor>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        let scenes = (0..8u64)
            .map(|i| {
                let mut p = EyeParams::centered(cfg.scene_size);
                p.yaw = 0.04 * i as f32 - 0.14;
                p.pitch = -0.03 * i as f32 + 0.1;
                render_eye(&p, cfg.scene_size, i).image
            })
            .collect();
        (cfg, models, scenes)
    })
}

fn registry(mode: TickMode) -> ServeRegistry {
    let (cfg, models, _) = shared();
    let mut sc = ServeConfig::new(cfg.clone());
    sc.mode = mode;
    sc.threads = Some(0);
    ServeRegistry::new(sc, models.clone_models()).with_faults(FaultPlan::none())
}

/// The three-backend rotation every fleet cycles through, phase-shifted so
/// `first` lands on session 0.
fn rotation_from(first: GazeBackend) -> [GazeBackend; 3] {
    const ORDER: [GazeBackend; 3] = [GazeBackend::F32, GazeBackend::Int8, GazeBackend::Latent];
    let start = ORDER.iter().position(|b| *b == first).unwrap();
    [ORDER[start], ORDER[(start + 1) % 3], ORDER[(start + 2) % 3]]
}

/// Runs `ticks` rounds of a `size`-session fleet (backends rotating
/// f32/int8/latent from `first`) and returns, per completed frame, the
/// session id, backend, frame index and raw gaze bits.
fn run(
    mode: TickMode,
    size: usize,
    first: GazeBackend,
    ticks: u64,
) -> Vec<(SessionId, GazeBackend, u64, [u32; 3])> {
    let (_, _, scenes) = shared();
    let mut reg = registry(mode);
    let rotation = rotation_from(first);
    let mut ids = Vec::new();
    for s in 0..size {
        let backend = rotation[s % rotation.len()];
        ids.push((reg.create_with_backend(backend).unwrap(), backend));
    }
    let mut out = Vec::new();
    for step in 0..ticks {
        for (s, (id, _)) in ids.iter().enumerate() {
            reg.feed(*id, &scenes[(step as usize + s) % scenes.len()], step)
                .unwrap();
        }
        let (_, trace) = reg.tick_traced();
        for (id, frame) in trace {
            let backend = ids.iter().find(|(i, _)| *i == id).unwrap().1;
            out.push((
                id,
                backend,
                frame.frame,
                [
                    frame.gaze.x.to_bits(),
                    frame.gaze.y.to_bits(),
                    frame.gaze.z.to_bits(),
                ],
            ));
        }
    }
    out
}

fn compare_fleet(mode: TickMode, size: usize, first: GazeBackend) {
    // long enough that every int8 session passes through warm-up (f32
    // routing), shared calibration, and a stretch of true int8 serving
    let ticks = 12;
    let candidate = run(mode, size, first, ticks);
    let sequential = run(TickMode::Sequential, size, first, ticks);
    assert_eq!(candidate.len(), sequential.len());
    assert_eq!(candidate.len(), size * ticks as usize);
    for ((id_b, backend, frame_b, bits_b), (id_s, _, frame_s, bits_s)) in
        candidate.iter().zip(&sequential)
    {
        assert_eq!(
            (id_b, frame_b),
            (id_s, frame_s),
            "{mode:?}: trace order diverged"
        );
        assert_eq!(
            bits_b, bits_s,
            "{mode:?} size {size}: {backend:?} session {id_b:?} frame {frame_b} not bit-identical"
        );
    }
}

#[test]
fn ragged_fleets_starting_f32_match() {
    for mode in [TickMode::Batched, TickMode::Scheduled] {
        for size in [1usize, 2, 7, 32] {
            compare_fleet(mode, size, GazeBackend::F32);
        }
    }
}

#[test]
fn ragged_fleets_starting_int8_match() {
    // starting int8 flips which sessions warm through the f32 batch and
    // which rows land where in the arena partitions
    for mode in [TickMode::Batched, TickMode::Scheduled] {
        for size in [1usize, 2, 7, 32] {
            compare_fleet(mode, size, GazeBackend::Int8);
        }
    }
}

#[test]
fn ragged_fleets_starting_latent_match() {
    // starting latent puts the recon-free rows first in the arena
    // partitions, and a size-1 fleet runs a latent session entirely alone
    // (its refresh frames still batch through the f32 route)
    for mode in [TickMode::Batched, TickMode::Scheduled] {
        for size in [1usize, 2, 7, 32] {
            compare_fleet(mode, size, GazeBackend::Latent);
        }
    }
}

/// The int8 leg pulled out on its own: across every mixed fleet, the int8
/// sessions' full traces — warm-up frames included — must be bit-identical
/// between the modes.
#[test]
fn int8_sessions_are_bit_identical_in_every_mixed_fleet() {
    let int8_only = |v: Vec<(SessionId, GazeBackend, u64, [u32; 3])>| {
        v.into_iter()
            .filter(|(_, b, _, _)| *b == GazeBackend::Int8)
            .collect::<Vec<_>>()
    };
    for mode in [TickMode::Batched, TickMode::Scheduled] {
        for size in [2usize, 7, 32] {
            let candidate = int8_only(run(mode, size, GazeBackend::Int8, 12));
            let sequential = int8_only(run(TickMode::Sequential, size, GazeBackend::Int8, 12));
            assert!(!candidate.is_empty());
            assert_eq!(
                candidate, sequential,
                "{mode:?} size {size} int8 traces diverged"
            );
        }
    }
}

/// Latent sessions in a mixed fleet must produce the same full trace —
/// steady recon-free frames and f32-routed refresh frames alike — under
/// every tick mode: the latent batch partition (a *third* arena next to
/// f32 and int8) neither reorders nor perturbs rows.
#[test]
fn latent_sessions_trace_identically_in_every_mixed_fleet() {
    let latent_only = |v: Vec<(SessionId, GazeBackend, u64, [u32; 3])>| {
        v.into_iter()
            .filter(|(_, b, _, _)| *b == GazeBackend::Latent)
            .collect::<Vec<_>>()
    };
    for mode in [TickMode::Batched, TickMode::Scheduled] {
        for size in [3usize, 7, 32] {
            let candidate = latent_only(run(mode, size, GazeBackend::Latent, 12));
            let sequential = latent_only(run(TickMode::Sequential, size, GazeBackend::Latent, 12));
            assert!(!candidate.is_empty());
            assert_eq!(
                candidate, sequential,
                "{mode:?} size {size} latent traces diverged"
            );
        }
    }
}
