//! The `eyecod` command-line tool: run the tracker, simulate the
//! accelerator, compare platforms, inspect models and design masks from
//! one binary.
//!
//! ```text
//! eyecod track     [--frames N] [--lens] [--period N] [--seed S] [--adaptive-roi]
//!                  [--backend f32|int8|latent] [--delta] [--faults PLAN]
//! eyecod simulate  [--orchestration tm|cc|pm] [--no-swpr] [--no-reuse] [--lanes N] [--lens]
//! eyecod compare
//! eyecod model     <ritnet|fbnet|resnet|mobilenet|unet> [--size N] [--full]
//! eyecod mask      [--scene N] [--sensor N] [--seed K] [--raw]
//! ```
//!
//! Configuration comes from flags only. The environment holds just the
//! three process switches that act before any configuration exists
//! (`EYECOD_NO_SIMD`, `EYECOD_THREADS`, `EYECOD_TELEMETRY`); any other
//! `EYECOD_*` variable is rejected.

use eyecod::accel::config::AcceleratorConfig;
use eyecod::accel::schedule::{Orchestration, WindowSimulator};
use eyecod::accel::workload::EyeCodWorkload;
use eyecod::core::tracker::{EyeTracker, GazeBackend, RoiSizing, TrackerConfig};
use eyecod::core::training::{train_tracker_models, TrainingSetup};
use eyecod::eyedata::EyeMotionGenerator;
use eyecod::faults::FaultPlan;
use eyecod::models::summary::{layer_table, ModelSummary};
use eyecod::optics::calibrate::tune_epsilon;
use eyecod::optics::imaging::FlatCam;
use eyecod::optics::mask::SeparableMask;
use eyecod::optics::mat::Mat;
use eyecod::optics::sensor::SensorModel;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` and boolean `--flag`.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// The flags that take no value. A token after one of them is an error,
/// never its value: otherwise `--delta 5` would silently drop the `5`.
const BOOLEAN_FLAGS: [&str; 7] = [
    "lens",
    "raw",
    "delta",
    "adaptive-roi",
    "no-swpr",
    "no-reuse",
    "full",
];

impl Args {
    /// Splits `raw` into positional words and `--flag [value]` pairs; an
    /// error names a boolean flag that was given a value.
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if let Some(name) = raw[i].strip_prefix("--") {
                let next = raw.get(i + 1).filter(|v| !v.starts_with("--"));
                let value = match next {
                    Some(v) if BOOLEAN_FLAGS.contains(&name) => {
                        return Err(format!("--{name} takes no value, got {v:?}"));
                    }
                    Some(v) => {
                        i += 1;
                        Some(v.clone())
                    }
                    None => None,
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(raw[i].clone());
            }
            i += 1;
        }
        Ok(Args { positional, flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name} expects a number")))
            })
            .unwrap_or(default)
    }

    /// The value of `--name`, or `None` when the flag is absent; a flag
    /// given without a value is an error naming what it `expects`.
    fn value(&self, name: &str, expects: &str) -> Option<&str> {
        self.has(name).then(|| {
            self.get(name)
                .unwrap_or_else(|| die(&format!("--{name} expects {expects}")))
        })
    }

    fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name} expects a number")))
            })
            .unwrap_or(default)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `eyecod help` for usage");
    std::process::exit(2);
}

fn usage() {
    println!("eyecod — FlatCam eye-tracking co-design toolkit\n");
    println!("subcommands:");
    println!("  track     run the predict-then-focus tracker on a synthetic sequence");
    println!("            [--frames N=100] [--lens] [--period N=10] [--seed S=7] [--adaptive-roi]");
    println!("            [--backend f32|int8|latent] [--delta] [--faults {FAULTS}]");
    println!("  simulate  run the cycle-level accelerator simulator on the EyeCoD workload");
    println!(
        "            [--orchestration tm|cc|pm] [--no-swpr] [--no-reuse] [--lanes N=128] [--lens]"
    );
    println!("  compare   print the Fig. 14 platform comparison");
    println!("  model     print a network's layer table and summary");
    println!("            <ritnet|fbnet|resnet|mobilenet|unet> [--size N] [--full]");
    println!("  mask      analyse a coded mask design");
    println!("            [--scene N=48] [--sensor N=64] [--seed K=17] [--raw]");
}

/// The `--faults` syntax, as [`FaultPlan::parse`] reads it.
const FAULTS: &str = "none|light[:seed]|heavy[:seed]|{json}";

fn cmd_track(args: &Args) {
    let frames = args.get_usize("frames", 100);
    let seed = args.get_u64("seed", 7);
    let mut config = if args.has("lens") {
        TrackerConfig::small_lens()
    } else {
        TrackerConfig::small()
    };
    config.roi_period = args.get_usize("period", 10);
    if args.has("adaptive-roi") {
        config.roi_sizing = RoiSizing::ScleraAdaptive;
    }
    if let Some(name) = args.value("backend", "f32|int8|latent") {
        config.gaze_backend = GazeBackend::parse(name)
            .unwrap_or_else(|| die(&format!("unknown backend '{name}' (f32|int8|latent)")));
    }
    config.delta = args.has("delta");
    let faults = args
        .value("faults", FAULTS)
        .map_or_else(FaultPlan::none, |spec| {
            FaultPlan::parse(spec)
                .unwrap_or_else(|| die(&format!("unknown fault plan '{spec}' ({FAULTS})")))
        });
    println!(
        "training proxy models ({} camera)...",
        if config.flatcam { "FlatCam" } else { "lens" }
    );
    let models = train_tracker_models(&TrainingSetup::quick(), &config);
    let mut tracker = EyeTracker::new(config, models).with_faults(faults);
    let mut motion = EyeMotionGenerator::with_seed(seed);
    let stats = tracker.run_sequence(&mut motion, frames);
    println!("frames:        {}", stats.frames);
    println!("ROI refreshes: {}", stats.roi_refreshes);
    println!("mean error:    {:.2}°", stats.mean_error_deg());
    println!("max error:     {:.2}°", stats.max_error_deg);
}

fn cmd_simulate(args: &Args) {
    let mut cfg = AcceleratorConfig::paper_default();
    cfg.mac_lanes = args.get_usize("lanes", cfg.mac_lanes);
    if args.has("no-swpr") {
        cfg.swpr_buffer = false;
    }
    if args.has("no-reuse") {
        cfg.intra_channel_reuse = false;
    }
    cfg.orchestration = match args.get("orchestration").unwrap_or("pm") {
        "tm" => Orchestration::TimeMultiplexed,
        "cc" => Orchestration::Concurrent,
        "pm" => Orchestration::PartialTimeMultiplexed,
        other => die(&format!("unknown orchestration '{other}' (tm|cc|pm)")),
    };
    let workload = if args.has("lens") {
        EyeCodWorkload::lens_based().into_workload()
    } else {
        EyeCodWorkload::paper_default().into_workload()
    };
    let sim = WindowSimulator::new(cfg.clone());
    let r = sim.run_window(&workload);
    println!("workload:        {}", r.workload);
    println!("orchestration:   {:?}", r.orchestration);
    println!("throughput:      {:.1} FPS", r.fps);
    println!("utilisation:     {:.1}%", r.avg_utilization * 100.0);
    println!("energy/frame:    {:.4} mJ", r.energy_per_frame_mj);
    println!(
        "worst frame:     {:.0} us",
        r.worst_frame_cycles as f64 / cfg.clock_mhz
    );
    println!("seg absorbed:    {:.0}%", r.seg_absorbed * 100.0);
}

fn cmd_compare() {
    println!(
        "{:<10} {:>10} {:>14} {:>10}",
        "platform", "FPS", "frames/J", "norm. eff."
    );
    for r in eyecod::platforms::compare_all() {
        println!(
            "{:<10} {:>10.2} {:>14.1} {:>10.4}",
            r.name, r.fps, r.frames_per_joule, r.norm_energy_eff
        );
    }
}

fn cmd_model(args: &Args) {
    let name = args
        .positional
        .first()
        .unwrap_or_else(|| die("model needs a name (ritnet|fbnet|resnet|mobilenet|unet)"));
    let spec = match name.as_str() {
        "ritnet" => eyecod::models::ritnet::spec(args.get_usize("size", 128)),
        "unet" => eyecod::models::unet::spec(args.get_usize("size", 512)),
        "fbnet" => eyecod::models::fbnet::spec(96, 160),
        "resnet" => {
            eyecod::models::resnet::spec(args.get_usize("size", 224), args.get_usize("size", 224))
        }
        "mobilenet" => eyecod::models::mobilenet::spec(96, 160),
        other => die(&format!("unknown model '{other}'")),
    };
    if args.has("full") {
        print!("{}", layer_table(&spec));
    }
    let s = ModelSummary::of(&spec);
    println!("model:   {}", s.name);
    println!("layers:  {} ({} compute)", s.layers, s.compute_layers);
    println!("params:  {:.3} M", s.params as f64 / 1e6);
    println!(
        "FLOPs:   {:.3} G (paper MAC convention)",
        s.macs as f64 / 1e9
    );
    println!(
        "peak activations: {:.2} KB (int8, unpartitioned)",
        s.peak_activation_elems as f64 / 1024.0
    );
}

fn cmd_mask(args: &Args) {
    let scene = args.get_usize("scene", 48);
    let sensor = args.get_usize("sensor", 64);
    let seed = args.get_usize("seed", 17) as u32;
    let mask = if args.has("raw") {
        SeparableMask::mls(sensor, scene, seed)
    } else {
        SeparableMask::mls_differential(sensor, scene, seed)
    };
    let (cl, cr) = mask.condition_numbers();
    println!(
        "mask:        {}",
        if args.has("raw") {
            "raw 0/1"
        } else {
            "differential ±1"
        }
    );
    println!("geometry:    {sensor}x{sensor} sensor -> {scene}x{scene} scene");
    println!("condition:   {cl:.1} / {cr:.1}");
    println!("open frac:   {:.2}", mask.open_fraction());
    let cam = FlatCam::new(mask, SensorModel::nir_eye_tracking());
    let calib = Mat::from_fn(scene, scene, |r, c| {
        ((r / 4 + c / 4) % 2) as f64 * 0.6 + 0.2 // checkerboard chart
    });
    let (eps, psnr) = tune_epsilon(&cam, std::slice::from_ref(&calib), -8.0, 0.0, 14);
    println!("tuned eps:   {eps:.2e}");
    println!("chart PSNR:  {psnr:.1} dB");
}

/// The process switches the libraries read themselves.
const SWITCHES: [&str; 3] = ["EYECOD_NO_SIMD", "EYECOD_THREADS", "EYECOD_TELEMETRY"];

/// Rejects every set `EYECOD_*` variable but the [`SWITCHES`], naming the
/// flag that replaced it where one did.
fn reject_stale_env() {
    for (name, value) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if !name.starts_with("EYECOD_") || SWITCHES.contains(&&*name) || value.is_empty() {
            continue;
        }
        let instead = match &*name {
            "EYECOD_GAZE_BACKEND" => "use `eyecod track --backend`",
            "EYECOD_DELTA" => "use `eyecod track --delta`",
            "EYECOD_FAULT_PLAN" => "use `eyecod track --faults`",
            "EYECOD_DELTA_THRESHOLD" => "the motion gate is fixed at the config default",
            _ => "unknown variable",
        };
        die(&format!(
            "{name} is not read ({instead}); only {} are",
            SWITCHES.join(", ")
        ));
    }
}

fn main() -> ExitCode {
    reject_stale_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        usage();
        return ExitCode::from(2);
    };
    let args = Args::parse(&raw[1..]).unwrap_or_else(|e| die(&e));
    match cmd.as_str() {
        "track" => cmd_track(&args),
        "simulate" => cmd_simulate(&args),
        "compare" => cmd_compare(),
        "model" => cmd_model(&args),
        "mask" => cmd_mask(&args),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown subcommand '{other}'");
            usage();
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
