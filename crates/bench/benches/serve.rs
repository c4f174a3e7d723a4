//! Serving-layer benchmarks: the serve tick, inline and pooled.
//!
//! Two outputs:
//!
//! * `serve/tick_{n}/{inline,pooled}` criterion groups for interactive
//!   comparison (`cargo bench -p eyecod-bench --bench serve`);
//! * a `BENCH_serve.json` artifact at the repository root with one row per
//!   fleet size {1, 16, 256} of mixed f32/int8/latent sessions: the median
//!   and median absolute deviation of [`SAMPLES`] warm ticks on a registry
//!   with no pool workers (`inline`) and with `available_parallelism() - 1`
//!   workers (`pooled`). Every row carries `host_parallelism` and a
//!   non-empty `note` saying what the numbers mean on *this* host: on a
//!   1-CPU host both ticks run inline, and no parallel gain is claimed.

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

const FLEETS: [usize; 3] = [1, 16, 256];
/// Timed samples per measurement, after warm-up.
const SAMPLES: usize = 21;

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
/// with `workers` pool workers, fed and ticked past the first ROI refresh
/// and the int8 calibration so measured ticks are steady-state.
fn warm_fleet(n: usize, workers: usize) -> (ServeRegistry, Vec<SessionId>) {
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
    for round in 0..12u64 {
        for id in &ids {
            reg.feed(*id, scene, round).unwrap();
        }
        reg.tick();
    }
    (reg, ids)
}

fn bench(c: &mut Criterion) {
    let (_, _, scene) = shared();
    for n in FLEETS {
        for (workers, tag) in [(0, "inline"), (host_parallelism() - 1, "pooled")] {
            let (mut reg, ids) = warm_fleet(n, workers);
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

/// The spread of [`SAMPLES`] calls of `sample`, each returning its own
/// timed span in nanoseconds.
fn time(mut sample: impl FnMut() -> u64) -> Timing {
    let mut ns: Vec<u64> = (0..SAMPLES).map(|_| sample()).collect();
    let median_ns = median(&mut ns);
    let mut dev: Vec<u64> = ns.iter().map(|&v| v.abs_diff(median_ns)).collect();
    Timing {
        median_ns,
        mad_ns: median(&mut dev),
    }
}

/// Warm ticks through a registry with `workers` pool workers, each timed
/// without its feeds. One tick in ten refreshes every session's ROI, so a
/// sample set holds two refresh ticks; the median is a steady tick.
fn measure_tick(n: usize, workers: usize) -> Timing {
    let (_, _, scene) = shared();
    let (mut reg, ids) = warm_fleet(n, workers);
    let mut round = 100u64;
    time(|| {
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
    for n in FLEETS {
        let inline = measure_tick(n, 0);
        let pooled = measure_tick(n, pool_workers);
        let note = if pool_workers == 0 {
            format!(
                "{cores}-CPU host: both ticks run inline, so no parallel gain is measured; \
                 median and MAD of {SAMPLES} warm ticks, two of them ROI-refresh ticks"
            )
        } else {
            format!(
                "{cores}-CPU host, pooled tick on the calling thread + {pool_workers} pool \
                 worker(s); median and MAD of {SAMPLES} warm ticks, two of them ROI-refresh ticks"
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
            samples: SAMPLES,
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
