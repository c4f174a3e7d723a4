//! The seed-driven fault plan and its deterministic decision engine.

use serde::{Deserialize, Serialize};

/// Rates are expressed in parts-per-million of [`PPM_SCALE`]: a rate of
/// `100_000` fires on ~10 % of draws. Integer rates keep plans exactly
/// serialisable and the Bernoulli draws exactly reproducible.
pub const PPM_SCALE: u64 = 1_000_000;

/// One injection point in the pipeline.
///
/// Sites are grouped into four planes ([`FaultGroup`]); every site draws
/// from its own hash stream, so enabling one plane can never make another
/// fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// A sensor pixel permanently stuck dark (static per-pixel mask).
    SensorDeadPixel,
    /// A sensor pixel permanently stuck at saturation (static mask).
    SensorHotPixel,
    /// One full sensor row reads out dark for this frame.
    SensorRowDropout,
    /// Escalated Gaussian + shot noise on this frame's measurement.
    SensorNoise,
    /// The sensor delivers no frame at all.
    SensorFrameDrop,
    /// The sensor delivers the previous frame again.
    SensorFrameDuplicate,
    /// The camera→processor link delivers the measurement after the frame
    /// deadline (the processor must proceed with stale data).
    LinkDelay,
    /// The transfer is cut short; the tail of the measurement is lost.
    LinkTruncate,
    /// Bit corruption on the link: measurement values with flipped bits.
    LinkCorrupt,
    /// The segmentation stage misses its deadline.
    StageSegTimeout,
    /// The segmentation stage returns a short labels buffer.
    StageSegTruncatedLabels,
    /// The gaze network emits NaN outputs.
    StageGazeNan,
    /// The gaze network emits an all-zero output.
    StageGazeZero,
    /// The predicted ROI drifts away from the segmentation anchor
    /// (possibly out of scene bounds).
    StageRoiDrift,
    /// A pool worker dies while running a pipeline job.
    ExecWorkerPanic,
    /// An SWPR activation-buffer bank conflict stalls a compute round.
    ExecSwprConflict,
}

/// The four injection planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultGroup {
    /// Faults of the FlatCam sensor itself.
    Sensor,
    /// Faults of the camera→processor link.
    Link,
    /// Faults inside the pipeline's processing stages.
    Stage,
    /// Faults of the execution substrate (pool workers, accelerator).
    Exec,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub const ALL: [FaultSite; 16] = [
        FaultSite::SensorDeadPixel,
        FaultSite::SensorHotPixel,
        FaultSite::SensorRowDropout,
        FaultSite::SensorNoise,
        FaultSite::SensorFrameDrop,
        FaultSite::SensorFrameDuplicate,
        FaultSite::LinkDelay,
        FaultSite::LinkTruncate,
        FaultSite::LinkCorrupt,
        FaultSite::StageSegTimeout,
        FaultSite::StageSegTruncatedLabels,
        FaultSite::StageGazeNan,
        FaultSite::StageGazeZero,
        FaultSite::StageRoiDrift,
        FaultSite::ExecWorkerPanic,
        FaultSite::ExecSwprConflict,
    ];

    /// The plane this site belongs to.
    pub fn group(self) -> FaultGroup {
        use FaultSite::*;
        match self {
            SensorDeadPixel | SensorHotPixel | SensorRowDropout | SensorNoise | SensorFrameDrop
            | SensorFrameDuplicate => FaultGroup::Sensor,
            LinkDelay | LinkTruncate | LinkCorrupt => FaultGroup::Link,
            StageSegTimeout
            | StageSegTruncatedLabels
            | StageGazeNan
            | StageGazeZero
            | StageRoiDrift => FaultGroup::Stage,
            ExecWorkerPanic | ExecSwprConflict => FaultGroup::Exec,
        }
    }

    /// Stable site index used to separate hash streams.
    fn stream_id(self) -> u64 {
        FaultSite::ALL
            .iter()
            .position(|&s| s == self)
            .expect("every site is listed in ALL") as u64
    }
}

/// Sensor-plane fault rates (FlatCam pixel/readout faults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultConfig {
    /// Static probability (ppm) that a given sensor pixel is stuck dark.
    pub dead_pixel_ppm: u32,
    /// Static probability (ppm) that a given sensor pixel is stuck at
    /// saturation.
    pub hot_pixel_ppm: u32,
    /// Per-frame probability (ppm) that one readout row drops out.
    pub row_dropout_ppm: u32,
    /// Per-frame probability (ppm) of a noise-escalation event.
    pub noise_ppm: u32,
    /// Extra Gaussian noise std (measurement units) when escalation fires.
    pub noise_std: f64,
    /// Per-frame probability (ppm) that the frame is dropped entirely.
    pub frame_drop_ppm: u32,
    /// Per-frame probability (ppm) that the previous frame is re-delivered.
    pub frame_duplicate_ppm: u32,
}

/// Link-plane fault rates (camera→processor transport).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultConfig {
    /// Per-frame probability (ppm) the measurement arrives past deadline.
    pub delay_ppm: u32,
    /// Per-frame probability (ppm) the transfer is truncated.
    pub truncate_ppm: u32,
    /// Fraction of the measurement tail lost when truncation fires.
    pub truncate_fraction: f64,
    /// Per-frame probability (ppm) of bit corruption on the link.
    pub corrupt_ppm: u32,
    /// How many measurement values get a flipped bit per corruption event.
    pub corrupt_values: u32,
}

/// Stage-plane fault rates (processing stages misbehaving).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageFaultConfig {
    /// Per-attempt probability (ppm) the segmentation stage times out.
    pub seg_timeout_ppm: u32,
    /// Per-refresh probability (ppm) the labels buffer comes back short.
    pub seg_truncated_labels_ppm: u32,
    /// Per-frame probability (ppm) the gaze net emits NaNs.
    pub gaze_nan_ppm: u32,
    /// Per-frame probability (ppm) the gaze net emits an all-zero vector.
    pub gaze_zero_ppm: u32,
    /// Per-refresh probability (ppm) the ROI drifts from its anchor.
    pub roi_drift_ppm: u32,
    /// Drift magnitude in scene pixels when ROI drift fires.
    pub roi_drift_pixels: u32,
}

/// Execution-plane fault configuration (pool workers, accelerator).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecFaultConfig {
    /// Parallel-job indices whose *first* execution attempt panics
    /// (explicit so a plan can kill exactly one worker, deterministically).
    pub worker_panic_jobs: Vec<u64>,
    /// Per-round probability (ppm) of an SWPR bank conflict.
    pub swpr_conflict_ppm: u32,
    /// Multiplier on a conflicting round's load cycles (≥ 1).
    pub swpr_conflict_penalty: u32,
}

/// A deterministic, seed-driven fault-injection plan.
///
/// Every decision the plan makes is a pure function of
/// `(seed, site, frame, salt)`; there is no internal RNG state, so plans
/// can be shared, cloned and consulted from any thread in any order and
/// still replay byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed separating this plan's hash streams from other plans with the
    /// same rates.
    pub seed: u64,
    /// Sensor-plane rates.
    pub sensor: SensorFaultConfig,
    /// Link-plane rates.
    pub link: LinkFaultConfig,
    /// Stage-plane rates.
    pub stage: StageFaultConfig,
    /// Execution-plane configuration.
    pub exec: ExecFaultConfig,
}

/// One scheduled injection: site × frame (pixel masks are static and not
/// part of the per-frame schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Frame index at which the fault fires.
    pub frame: u64,
    /// The site that fires.
    pub site: FaultSite,
}

/// SplitMix64 finaliser: the avalanche core of every plan decision.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            sensor: SensorFaultConfig {
                dead_pixel_ppm: 0,
                hot_pixel_ppm: 0,
                row_dropout_ppm: 0,
                noise_ppm: 0,
                noise_std: 0.0,
                frame_drop_ppm: 0,
                frame_duplicate_ppm: 0,
            },
            link: LinkFaultConfig {
                delay_ppm: 0,
                truncate_ppm: 0,
                truncate_fraction: 0.25,
                corrupt_ppm: 0,
                corrupt_values: 4,
            },
            stage: StageFaultConfig {
                seg_timeout_ppm: 0,
                seg_truncated_labels_ppm: 0,
                gaze_nan_ppm: 0,
                gaze_zero_ppm: 0,
                roi_drift_ppm: 0,
                roi_drift_pixels: 4,
            },
            exec: ExecFaultConfig {
                worker_panic_jobs: Vec::new(),
                swpr_conflict_ppm: 0,
                swpr_conflict_penalty: 2,
            },
        }
    }

    /// A mild field-failure preset: occasional pixel defects, rare drops
    /// and stage hiccups — the kind of background fault load a healthy
    /// deployed fleet sees.
    pub fn light(seed: u64) -> Self {
        let mut p = Self::none();
        p.seed = seed;
        p.sensor.dead_pixel_ppm = 10_000; // ~1 % of pixels
        p.sensor.hot_pixel_ppm = 2_000;
        p.sensor.row_dropout_ppm = 20_000;
        p.sensor.noise_ppm = 30_000;
        p.sensor.noise_std = 0.02;
        p.sensor.frame_drop_ppm = 20_000; // ~2 % of frames
        p.sensor.frame_duplicate_ppm = 10_000;
        p.link.delay_ppm = 10_000;
        p.link.truncate_ppm = 10_000;
        p.link.corrupt_ppm = 10_000;
        p.stage.seg_timeout_ppm = 20_000;
        p.stage.seg_truncated_labels_ppm = 10_000;
        p.stage.gaze_nan_ppm = 10_000;
        p.stage.gaze_zero_ppm = 10_000;
        p.stage.roi_drift_ppm = 20_000;
        p.exec.swpr_conflict_ppm = 20_000;
        p
    }

    /// A harsh preset: ≥10 % frame drop, ≥5 % dead pixels, injected gaze
    /// NaNs and one worker panic — the acceptance scenario of the
    /// conformance suite. A 60-frame sequence under this plan must finish
    /// with zero panics and ≥90 % frames graded `Ok`/`Degraded`.
    pub fn heavy(seed: u64) -> Self {
        let mut p = Self::none();
        p.seed = seed;
        p.sensor.dead_pixel_ppm = 60_000; // 6 % of pixels
        p.sensor.hot_pixel_ppm = 10_000;
        p.sensor.row_dropout_ppm = 80_000;
        p.sensor.noise_ppm = 100_000;
        p.sensor.noise_std = 0.05;
        p.sensor.frame_drop_ppm = 120_000; // 12 % of frames
        p.sensor.frame_duplicate_ppm = 30_000;
        p.link.delay_ppm = 40_000;
        p.link.truncate_ppm = 40_000;
        p.link.truncate_fraction = 0.25;
        p.link.corrupt_ppm = 60_000;
        p.link.corrupt_values = 6;
        p.stage.seg_timeout_ppm = 100_000;
        p.stage.seg_truncated_labels_ppm = 50_000;
        p.stage.gaze_nan_ppm = 80_000;
        p.stage.gaze_zero_ppm = 40_000;
        p.stage.roi_drift_ppm = 80_000;
        p.stage.roi_drift_pixels = 6;
        p.exec.worker_panic_jobs = vec![1];
        p.exec.swpr_conflict_ppm = 100_000;
        p.exec.swpr_conflict_penalty = 4;
        p
    }

    /// Parses a plan spelled the way `eyecod track --faults` takes it:
    /// `none` / `off` / `0` / empty (no faults), `light` or `heavy`
    /// (presets, optionally `light:<seed>`), or an inline JSON plan
    /// (starts with `{`, as [`FaultPlan::to_json`] writes it). `None` on
    /// anything else, malformed JSON included.
    pub fn parse(value: &str) -> Option<Self> {
        let v = value.trim();
        if v.starts_with('{') {
            return serde_json::from_str(v).ok();
        }
        let (name, seed) = match v.split_once(':') {
            Some((n, s)) => (n, s.parse::<u64>().ok()?),
            None => (v, 0xEC0D),
        };
        match name.to_ascii_lowercase().as_str() {
            "" | "none" | "off" | "0" => Some(Self::none()),
            "light" => Some(Self::light(seed)),
            "heavy" => Some(Self::heavy(seed)),
            _ => None,
        }
    }

    /// True when this plan can never fire anything.
    pub fn is_none(&self) -> bool {
        let s = &self.sensor;
        let l = &self.link;
        let t = &self.stage;
        let e = &self.exec;
        s.dead_pixel_ppm == 0
            && s.hot_pixel_ppm == 0
            && s.row_dropout_ppm == 0
            && s.noise_ppm == 0
            && s.frame_drop_ppm == 0
            && s.frame_duplicate_ppm == 0
            && l.delay_ppm == 0
            && l.truncate_ppm == 0
            && l.corrupt_ppm == 0
            && t.seg_timeout_ppm == 0
            && t.seg_truncated_labels_ppm == 0
            && t.gaze_nan_ppm == 0
            && t.gaze_zero_ppm == 0
            && t.roi_drift_ppm == 0
            && e.worker_panic_jobs.is_empty()
            && e.swpr_conflict_ppm == 0
    }

    /// The configured rate (ppm) for a per-frame site. Pixel-mask sites
    /// return their static per-pixel rate; [`FaultSite::ExecWorkerPanic`]
    /// is list-driven and returns 0.
    pub fn rate_ppm(&self, site: FaultSite) -> u32 {
        use FaultSite::*;
        match site {
            SensorDeadPixel => self.sensor.dead_pixel_ppm,
            SensorHotPixel => self.sensor.hot_pixel_ppm,
            SensorRowDropout => self.sensor.row_dropout_ppm,
            SensorNoise => self.sensor.noise_ppm,
            SensorFrameDrop => self.sensor.frame_drop_ppm,
            SensorFrameDuplicate => self.sensor.frame_duplicate_ppm,
            LinkDelay => self.link.delay_ppm,
            LinkTruncate => self.link.truncate_ppm,
            LinkCorrupt => self.link.corrupt_ppm,
            StageSegTimeout => self.stage.seg_timeout_ppm,
            StageSegTruncatedLabels => self.stage.seg_truncated_labels_ppm,
            StageGazeNan => self.stage.gaze_nan_ppm,
            StageGazeZero => self.stage.gaze_zero_ppm,
            StageRoiDrift => self.stage.roi_drift_ppm,
            ExecWorkerPanic => 0,
            ExecSwprConflict => self.exec.swpr_conflict_ppm,
        }
    }

    /// The raw 64-bit decision word for `(site, frame, salt)`.
    #[inline]
    pub fn word(&self, site: FaultSite, frame: u64, salt: u64) -> u64 {
        mix(
            mix(self.seed ^ site.stream_id().wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ mix(frame.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
                ^ mix(salt.wrapping_mul(0xA24B_AED4_963E_E407)),
        )
    }

    /// Whether `site` fires at `frame` (salt 0).
    #[inline]
    pub fn fires(&self, site: FaultSite, frame: u64) -> bool {
        self.fires_with(site, frame, 0)
    }

    /// Whether `site` fires at `frame` under an extra `salt` (used to give
    /// retry attempts independent draws).
    #[inline]
    pub fn fires_with(&self, site: FaultSite, frame: u64, salt: u64) -> bool {
        let rate = self.rate_ppm(site) as u64;
        if rate == 0 {
            return false;
        }
        if rate >= PPM_SCALE {
            return true;
        }
        self.word(site, frame, salt) % PPM_SCALE < rate
    }

    /// Whether sensor pixel `idx` is statically faulty for a pixel-mask
    /// site ([`FaultSite::SensorDeadPixel`] / [`FaultSite::SensorHotPixel`]).
    /// Frame-independent: the mask is a property of the sensor die.
    #[inline]
    pub fn pixel_faulty(&self, site: FaultSite, idx: usize) -> bool {
        // reuse the frame stream with a dedicated salt so pixel masks and
        // per-frame draws can never alias
        let rate = self.rate_ppm(site) as u64;
        if rate == 0 {
            return false;
        }
        self.word(site, idx as u64, 0x5052_4D41_534B) % PPM_SCALE < rate
    }

    /// A deterministic uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&self, site: FaultSite, frame: u64, salt: u64) -> f64 {
        (self.word(site, frame, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A deterministic standard-normal draw (Box–Muller on two uniforms).
    pub fn gaussian(&self, site: FaultSite, frame: u64, salt: u64) -> f64 {
        let u1 = self.uniform(site, frame, salt.wrapping_mul(2).wrapping_add(1));
        let u2 = self.uniform(site, frame, salt.wrapping_mul(2).wrapping_add(2));
        let r = (-2.0 * (1.0 - u1).max(f64::MIN_POSITIVE).ln()).sqrt();
        r * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A deterministic index draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&self, site: FaultSite, frame: u64, salt: u64, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        (self.word(site, frame, salt.wrapping_add(0x1D8)) % n as u64) as usize
    }

    /// Whether parallel job `job` panics on execution `attempt` (only the
    /// first attempt of explicitly listed jobs is killed, so retries are
    /// guaranteed to converge).
    pub fn worker_panics(&self, job: u64, attempt: u32) -> bool {
        attempt == 0 && self.exec.worker_panic_jobs.contains(&job)
    }

    /// The full per-frame injection schedule over `frames` frames: every
    /// `(frame, site)` pair that fires at salt 0, frame-major then in
    /// [`FaultSite::ALL`] order. Static pixel masks are not per-frame
    /// events and are excluded; so is the list-driven worker panic.
    pub fn schedule(&self, frames: u64) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for frame in 0..frames {
            for &site in FaultSite::ALL.iter() {
                if matches!(
                    site,
                    FaultSite::SensorDeadPixel
                        | FaultSite::SensorHotPixel
                        | FaultSite::ExecWorkerPanic
                ) {
                    continue;
                }
                if self.fires(site, frame) {
                    events.push(FaultEvent { frame, site });
                }
            }
        }
        events
    }

    /// Serialises the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fault plans always serialise")
    }

    /// Parses a plan from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("invalid fault plan JSON: {e:?}"))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for &site in FaultSite::ALL.iter() {
            for frame in 0..50 {
                assert!(!p.fires(site, frame));
            }
        }
        assert!(p.schedule(100).is_empty());
        assert!(!p.worker_panics(0, 0));
    }

    #[test]
    fn rates_are_respected_statistically() {
        let mut p = FaultPlan::none();
        p.sensor.frame_drop_ppm = 100_000; // 10 %
        let fired = (0..20_000)
            .filter(|&f| p.fires(FaultSite::SensorFrameDrop, f))
            .count();
        let frac = fired as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn full_rate_always_fires_and_decisions_are_pure() {
        let mut p = FaultPlan::none();
        p.stage.gaze_nan_ppm = PPM_SCALE as u32;
        assert!(p.fires(FaultSite::StageGazeNan, 3));
        assert_eq!(
            p.word(FaultSite::LinkCorrupt, 9, 2),
            p.word(FaultSite::LinkCorrupt, 9, 2)
        );
        assert_ne!(
            p.word(FaultSite::LinkCorrupt, 9, 2),
            p.word(FaultSite::LinkCorrupt, 9, 3)
        );
        assert_ne!(
            p.word(FaultSite::LinkCorrupt, 9, 2),
            p.word(FaultSite::LinkTruncate, 9, 2)
        );
    }

    #[test]
    fn seeds_separate_streams() {
        let a = FaultPlan::heavy(1);
        let b = FaultPlan::heavy(2);
        assert_ne!(a.schedule(100), b.schedule(100));
    }

    #[test]
    fn pixel_masks_are_static_and_rate_bound() {
        let p = FaultPlan::heavy(7);
        let n = 64 * 64;
        let dead: Vec<usize> = (0..n)
            .filter(|&i| p.pixel_faulty(FaultSite::SensorDeadPixel, i))
            .collect();
        let again: Vec<usize> = (0..n)
            .filter(|&i| p.pixel_faulty(FaultSite::SensorDeadPixel, i))
            .collect();
        assert_eq!(dead, again, "pixel mask must be static");
        let frac = dead.len() as f64 / n as f64;
        assert!((0.03..0.09).contains(&frac), "dead fraction {frac}");
    }

    #[test]
    fn cli_syntax_parses_presets_and_json() {
        assert!(FaultPlan::parse("none").unwrap().is_none());
        assert!(FaultPlan::parse("off").unwrap().is_none());
        assert_eq!(FaultPlan::parse("light:42").unwrap(), FaultPlan::light(42));
        assert_eq!(FaultPlan::parse("HEAVY:9").unwrap(), FaultPlan::heavy(9));
        let json = FaultPlan::heavy(3).to_json();
        assert_eq!(FaultPlan::parse(&json).unwrap(), FaultPlan::heavy(3));
        assert!(FaultPlan::parse("catastrophic").is_none());
    }

    #[test]
    fn json_round_trip_is_exact() {
        for plan in [FaultPlan::none(), FaultPlan::light(5), FaultPlan::heavy(11)] {
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn worker_panics_only_on_first_attempt_of_listed_jobs() {
        let p = FaultPlan::heavy(0);
        assert!(p.worker_panics(1, 0));
        assert!(!p.worker_panics(1, 1));
        assert!(!p.worker_panics(0, 0));
    }

    #[test]
    fn uniform_and_index_are_in_range() {
        let p = FaultPlan::heavy(13);
        for f in 0..200 {
            let u = p.uniform(FaultSite::SensorNoise, f, 0);
            assert!((0.0..1.0).contains(&u));
            assert!(p.index(FaultSite::LinkCorrupt, f, 0, 17) < 17);
            assert!(p.gaussian(FaultSite::SensorNoise, f, 0).is_finite());
        }
    }
}
