//! Serving-layer benchmarks: the serve tick, inline and pooled.
//!
//! Two outputs:
//!
//! * `serve/tick_{n}/{inline,pooled}` criterion groups for interactive
//!   comparison (`cargo bench -p eyecod-bench --bench serve`);
//! * a `BENCH_serve.json` artifact at the repository root with one row per
//!   fleet size {1, 16, 256} of mixed f32/int8/latent sessions: the median
//!   and median absolute deviation of the fleet's [`FLEETS`] sample count
//!   of warm ticks on a registry with no pool workers (`inline`) and with
//!   `available_parallelism() - 1` workers (`pooled`). Every row carries
//!   `host_parallelism` and a non-empty `note` saying what the numbers
//!   mean on *this* host: on a 1-CPU host both ticks run inline, and no
//!   parallel gain is claimed.

use criterion::{criterion_group, Criterion};
use eyecod_core::tracker::{GazeBackend, TrackerConfig};
use eyecod_core::training::{train_tracker_models, TrackerModels, TrainingSetup};
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_serve::{ServeConfig, ServeRegistry, SessionId};
use eyecod_tensor::Tensor;
use serde::Serialize;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Fleet sizes, each with its timed ticks per measurement; a measurement
/// warms up with as many untimed ticks first. A 1-session tick takes about
/// 0.2 ms on a shared 2-vCPU host, whose speed drifts from tick to tick,
/// so the small fleets need hundreds of samples for a median that
/// resolves a 20% change; a 256-session tick takes tens of milliseconds.
const FLEETS: [(usize, usize); 3] = [(1, 401), (16, 201), (256, 21)];

fn shared() -> &'static (TrackerConfig, TrackerModels, Tensor) {
    static SHARED: OnceLock<(TrackerConfig, TrackerModels, Tensor)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = TrackerConfig::small();
        let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
        let scene = render_eye(&EyeParams::centered(cfg.scene_size), cfg.scene_size, 0).image;
        (cfg, models, scene)
    })
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A warm fleet: `n` sessions (f32/int8/latent round-robin) on a registry
/// with `workers` pool workers, fed and ticked `rounds` times (at least
/// past the first ROI refresh and the int8 calibration) so measured ticks
/// are steady-state.
fn warm_fleet(n: usize, workers: usize, rounds: usize) -> (ServeRegistry, Vec<SessionId>) {
    let (cfg, models, scene) = shared();
    let sc = ServeConfig {
        threads: Some(workers),
        ..ServeConfig::new(cfg.clone())
    };
    let mut reg = ServeRegistry::new(sc, models.clone_models());
    let ids: Vec<_> = (0..n)
        .map(|s| {
            reg.create_with_backend(GazeBackend::ALL[s % GazeBackend::ALL.len()])
                .unwrap()
        })
        .collect();
    for round in 0..rounds.max(12) as u64 {
        for id in &ids {
            reg.feed(*id, scene, round).unwrap();
        }
        reg.tick();
    }
    (reg, ids)
}

fn bench(c: &mut Criterion) {
    let (_, _, scene) = shared();
    for (n, _) in FLEETS {
        for (workers, tag) in [(0, "inline"), (host_parallelism() - 1, "pooled")] {
            let (mut reg, ids) = warm_fleet(n, workers, 12);
            let mut round = 100u64;
            c.bench_function(&format!("serve/tick_{n}/{tag}"), |bch| {
                bch.iter(|| {
                    for id in &ids {
                        reg.feed(*id, scene, round).unwrap();
                    }
                    round += 1;
                    reg.tick()
                })
            });
        }
    }
}

/// The median and median absolute deviation of one measurement's samples.
#[derive(Clone, Copy)]
struct Timing {
    median_ns: u64,
    mad_ns: u64,
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Wall time of one call of `f`, in nanoseconds.
fn elapsed_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// The spread of `samples` calls of `sample`, each returning its own timed
/// span in nanoseconds.
fn time(samples: usize, mut sample: impl FnMut() -> u64) -> Timing {
    let mut ns: Vec<u64> = (0..samples).map(|_| sample()).collect();
    let median_ns = median(&mut ns);
    let mut dev: Vec<u64> = ns.iter().map(|&v| v.abs_diff(median_ns)).collect();
    Timing {
        median_ns,
        mad_ns: median(&mut dev),
    }
}

/// `samples` warm ticks through a registry with `workers` pool workers,
/// after as many warm-up ticks, each timed without its feeds. One tick in
/// ten refreshes every session's ROI; the median is a steady tick.
fn measure_tick(n: usize, workers: usize, samples: usize) -> Timing {
    let (_, _, scene) = shared();
    let (mut reg, ids) = warm_fleet(n, workers, samples);
    // noise seeds past every warm-up round's
    let mut round = 100_000u64;
    time(samples, || {
        for id in &ids {
            reg.feed(*id, scene, round).unwrap();
        }
        round += 1;
        elapsed_ns(|| {
            std::hint::black_box(reg.tick());
        })
    })
}

#[derive(Serialize)]
struct ServeRow {
    sessions: usize,
    /// Median tick on a registry with no pool workers: every stage runs
    /// on the calling thread.
    inline_tick_ns: u64,
    inline_tick_mad_ns: u64,
    inline_fps: f64,
    /// Pool workers of the pooled tick: `host_parallelism - 1`, so the
    /// calling thread and the workers fill the host.
    pool_workers: usize,
    /// Median tick on a registry with `pool_workers` workers: one
    /// `process_frame` job per session.
    pooled_tick_ns: u64,
    pooled_tick_mad_ns: u64,
    pooled_fps: f64,
    /// Timed samples behind every median.
    samples: usize,
    /// Logical CPUs visible to this run. The pooled tick scales with pool
    /// workers, so rows from hosts with different parallelism are not
    /// comparable.
    host_parallelism: usize,
    /// Always non-empty: how to read this row on this host.
    note: String,
}

fn write_serve_artifact() {
    let cores = host_parallelism();
    let pool_workers = cores - 1;
    let mut rows = Vec::new();
    for (n, samples) in FLEETS {
        let inline = measure_tick(n, 0, samples);
        let pooled = measure_tick(n, pool_workers, samples);
        let sampling = format!(
            "median and MAD of {samples} warm ticks after {samples} warm-up ticks, \
             one in ten of them ROI-refresh ticks"
        );
        let note = if pool_workers == 0 {
            format!(
                "{cores}-CPU host: both ticks run inline, so no parallel gain is measured; \
                 {sampling}"
            )
        } else {
            format!(
                "{cores}-CPU host, pooled tick on the calling thread + {pool_workers} pool \
                 worker(s); {sampling}"
            )
        };
        rows.push(ServeRow {
            sessions: n,
            inline_tick_ns: inline.median_ns,
            inline_tick_mad_ns: inline.mad_ns,
            inline_fps: n as f64 * 1e9 / inline.median_ns as f64,
            pool_workers,
            pooled_tick_ns: pooled.median_ns,
            pooled_tick_mad_ns: pooled.mad_ns,
            pooled_fps: n as f64 * 1e9 / pooled.median_ns as f64,
            samples,
            host_parallelism: cores,
            note,
        });
    }

    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    eyecod_bench::reporting::write_json(root, "BENCH_serve", &rows);
    for r in &rows {
        println!(
            "{:>4} sessions: inline {:>11} ± {:>9} ns ({:>8.1} fps)  pooled/{}w {:>11} ± {:>9} ns ({:>8.1} fps)",
            r.sessions,
            r.inline_tick_ns,
            r.inline_tick_mad_ns,
            r.inline_fps,
            r.pool_workers,
            r.pooled_tick_ns,
            r.pooled_tick_mad_ns,
            r.pooled_fps,
        );
    }
}

criterion_group!(benches, bench);

fn main() {
    // `--artifact-only` skips criterion (CI smoke / artifact refresh)
    if !std::env::args().any(|a| a == "--artifact-only") {
        benches();
        Criterion::default().final_summary();
    }
    write_serve_artifact();
}
