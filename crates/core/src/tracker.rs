//! The end-to-end predict-then-focus eye tracker.

use crate::acquisition::{AcquireScratch, Acquisition};
use crate::metrics::TrackingStats;
use crate::roi::{predict_roi, roi_size_from_sclera, RoiRect};
use crate::training::TrackerModels;
use eyecod_eyedata::render::render_eye;
use eyecod_eyedata::sequence::EyeMotionGenerator;
use eyecod_eyedata::GazeVector;
use eyecod_faults::{FaultPlan, FaultSite, FaultStats, FrameFaults, FrameQuality, RecoveryPolicy};
use eyecod_models::infer::{GazeInferWorkspace, SegInferWorkspace};
use eyecod_models::quantized::QuantizedGazeNet;
use eyecod_telemetry::{static_counter, static_histogram};
use eyecod_tensor::ops::{downsample_avg_into, resize_bilinear_into};
use eyecod_tensor::{Shape, Tensor};
use std::sync::Arc;

/// Which numeric backend executes the per-frame gaze network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GazeBackend {
    /// The trained f32 proxy network, executed directly.
    #[default]
    F32,
    /// The deployed int8 path (paper Tables 2/3, "8-bit" rows): the first
    /// [`TrackerConfig::calibration_frames`] frames run through the f32
    /// network while their gaze crops are collected; the tracker then
    /// folds, calibrates and quantises the network once and every later
    /// frame runs entirely in int8.
    Int8,
    /// The recon-free latent path (FlatTrack, arXiv 2501.15450): on
    /// steady-state frames the gaze is regressed straight from the
    /// down-projected raw FlatCam measurement — no Tikhonov solve, no
    /// segmentation, no ROI crop — while the every-N ROI-refresh frames
    /// still run full reconstruction + segmentation and the recon-path f32
    /// gaze network, keeping the ROI anchored and refresh outputs
    /// byte-identical to the f32 backend.
    Latent,
}

impl GazeBackend {
    /// Every backend, in the order the benches and test cells list them.
    pub const ALL: [GazeBackend; 3] = [GazeBackend::F32, GazeBackend::Int8, GazeBackend::Latent];

    /// Parses a backend name (`"f32"`/`"float"`, `"int8"`/`"i8"`, or
    /// `"latent"`/`"recon-free"`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "f32" | "float" | "fp32" => Some(GazeBackend::F32),
            "int8" | "i8" | "quantized" => Some(GazeBackend::Int8),
            "latent" | "recon-free" | "reconfree" => Some(GazeBackend::Latent),
            _ => None,
        }
    }
}

/// How the ROI size is chosen at each refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoiSizing {
    /// Use the configured `roi` size verbatim (the paper's adopted 96×160).
    #[default]
    Fixed,
    /// Re-derive the size from the segmented sclera extent × 1.5 at every
    /// refresh (the §4.3 sizing rule as a live mode) — adapts to eye size
    /// and blink state at the cost of a variable gaze-crop distribution.
    ScleraAdaptive,
}

/// Geometry and scheduling of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Square scene/reconstruction resolution.
    pub scene_size: usize,
    /// FlatCam sensor resolution (≥ scene).
    pub sensor_size: usize,
    /// Segmentation input resolution (scene downsampled by an integer
    /// factor; paper: 512→128).
    pub seg_size: usize,
    /// ROI size `(h, w)` in scene coordinates (paper: 96×160 at 256).
    pub roi: (usize, usize),
    /// Gaze-network input size `(h, w)` the ROI is resized to.
    pub gaze_input: (usize, usize),
    /// Frames between ROI refreshes (N = 50 in the paper).
    pub roi_period: usize,
    /// Tikhonov regularisation for the reconstruction.
    pub epsilon: f64,
    /// FlatCam acquisition (true) or lens baseline (false).
    pub flatcam: bool,
    /// Mask seed for the FlatCam.
    pub mask_seed: u32,
    /// ROI sizing policy.
    pub roi_sizing: RoiSizing,
    /// Numeric backend for the gaze network.
    pub gaze_backend: GazeBackend,
    /// With [`GazeBackend::Int8`]: how many warm-up frames run through the
    /// f32 network while their gaze crops are collected as the calibration
    /// batch. Ignored by the f32 backend.
    pub calibration_frames: usize,
    /// Event-driven sparse acquisition: steady-state frames diff the scene
    /// against the last fully-sensed base and fold only the changed
    /// columns into the cached measurement/reconstruction instead of
    /// re-sensing the full scene; scheduled ROI-refresh frames still run
    /// the dense path and re-prime the caches.
    pub delta: bool,
    /// Motion gate for the delta path: when fewer than this many pixels
    /// changed, the whole gaze forward is skipped and the frame is served
    /// from the last-good gaze. `0` disables the gate (every changed frame
    /// runs the sparse update).
    pub delta_threshold: usize,
    /// Per-pixel magnitude a scene value must move by to count as changed
    /// (≈4σ of the render's sensor noise, so pure noise rarely registers).
    pub delta_epsilon: f64,
}

impl TrackerConfig {
    /// A laptop-scale configuration used by tests and the quickstart:
    /// 48×48 scenes, 24×24 segmentation, 24×32 ROI, refresh every 10
    /// frames, the f32 gaze backend on the dense path (motion gate at 16
    /// changed pixels, should the delta path be switched on).
    pub fn small() -> Self {
        TrackerConfig {
            scene_size: 48,
            sensor_size: 64,
            seg_size: 24,
            roi: (24, 32),
            gaze_input: (24, 32),
            roi_period: 10,
            epsilon: 1e-3,
            flatcam: true,
            mask_seed: 17,
            roi_sizing: RoiSizing::Fixed,
            gaze_backend: GazeBackend::F32,
            calibration_frames: 8,
            delta: false,
            delta_threshold: 16,
            delta_epsilon: 0.05,
        }
    }

    /// Same geometry through a lens camera (the Table 2/3 baseline).
    pub fn small_lens() -> Self {
        TrackerConfig {
            flatcam: false,
            ..Self::small()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if extents are inconsistent (ROI larger than the scene,
    /// segmentation size not dividing the scene, zero period, …).
    pub fn validate(&self) {
        assert!(
            self.scene_size > 0 && self.seg_size > 0,
            "extents must be non-zero"
        );
        assert!(
            self.roi.0 > 0 && self.roi.1 > 0,
            "ROI must be non-empty, got {:?}",
            self.roi
        );
        assert!(
            self.gaze_input.0 > 0 && self.gaze_input.1 > 0,
            "gaze input must be non-empty, got {:?}",
            self.gaze_input
        );
        assert!(
            self.scene_size.is_multiple_of(self.seg_size),
            "segmentation size {} must divide scene size {}",
            self.seg_size,
            self.scene_size
        );
        assert!(
            self.seg_size.is_multiple_of(2),
            "segmentation net needs an even input size"
        );
        assert!(
            self.roi.0 <= self.scene_size && self.roi.1 <= self.scene_size,
            "ROI {:?} exceeds scene {}",
            self.roi,
            self.scene_size
        );
        assert!(self.roi_period > 0, "ROI period must be non-zero");
        if self.gaze_backend == GazeBackend::Int8 {
            assert!(
                self.calibration_frames > 0,
                "int8 backend needs at least one calibration frame"
            );
        }
        if self.flatcam {
            assert!(self.sensor_size > 0, "sensor size must be non-zero");
            assert!(
                self.sensor_size >= self.scene_size,
                "sensor must cover the scene"
            );
        }
        if self.delta {
            assert!(
                self.delta_epsilon > 0.0,
                "delta change-detection epsilon must be positive"
            );
        }
    }
}

/// Output of processing one frame.
#[derive(Debug, Clone)]
pub struct TrackedFrame {
    /// Estimated 3-D gaze direction (unit vector).
    pub gaze: GazeVector,
    /// The ROI used for this frame, in scene coordinates.
    pub roi: RoiRect,
    /// Whether the segmentation model ran on this frame.
    pub roi_refreshed: bool,
    /// Frame index since tracker construction.
    pub frame: u64,
    /// True when the gaze network emitted a (near-)zero vector and `gaze`
    /// is the previous frame's direction instead (straight ahead on frame
    /// 0). Downstream consumers can discount such frames.
    pub gaze_degenerate: bool,
    /// True when the motion gate skipped the gaze forward for this frame:
    /// change detection found fewer than
    /// [`TrackerConfig::delta_threshold`] changed pixels, so `gaze` is the
    /// last-good direction and no acquisition, reconstruction or network
    /// work ran. Always false with the delta path disabled.
    pub gaze_skipped: bool,
    /// How much this frame can be trusted: `Ok` when every stage ran on
    /// fresh data, `Degraded` when a retry or last-good fallback was used,
    /// `Lost` when the recovery budget or the policy's staleness limits
    /// were exhausted.
    pub quality: FrameQuality,
    /// Fault events injected into / recovered while producing this frame.
    pub faults: FrameFaults,
    /// The network the frame's gaze forward ran through, `None` when no
    /// forward ran (motion-gated, lost or shed frames). An int8 tracker's
    /// calibration warm-up frames and a latent tracker's ROI-refresh frames
    /// run the f32 network and report [`GazeBackend::F32`].
    pub network: Option<GazeBackend>,
}

/// The EyeCoD eye tracker: acquisition → periodic segmentation + ROI →
/// per-frame gaze estimation.
pub struct EyeTracker {
    config: TrackerConfig,
    acquisition: Acquisition,
    /// Shared read-only: every tracker built from the same `Arc` runs the
    /// same weight set (and the packed panels memoised inside it).
    models: Arc<TrackerModels>,
    current_roi: RoiRect,
    frame_counter: u64,
    last_labels: Option<Vec<u8>>,
    /// Fallback gaze when the model output is degenerate: the previous
    /// frame's direction (straight ahead before any frame was tracked).
    last_gaze: GazeVector,
    /// Gaze crops collected during int8 warm-up, pending calibration.
    calib_inputs: Vec<Tensor>,
    /// The deployed int8 network, once calibrated. Until then an int8
    /// tracker exempts its frames from the motion gate to feed calibration.
    quantized_gaze: Option<QuantizedGazeNet>,
    /// The active fault-injection plan ([`FaultPlan::none`] unless
    /// [`EyeTracker::with_faults`] sets one).
    faults: FaultPlan,
    /// Retry budgets and staleness limits for graceful degradation.
    recovery: RecoveryPolicy,
    /// Cumulative fault accounting since construction.
    fault_stats: FaultStats,
    /// Last successfully acquired image: the fallback for dropped, delayed
    /// or unrecoverably corrupted frames.
    last_image: Option<Tensor>,
    /// Last sane raw measurement, maintained only under
    /// [`GazeBackend::Latent`]: the fallback the recon-free fast path
    /// serves when a steady-state frame is dropped, delayed or
    /// unrecoverably corrupted (it must fall back to a *measurement*, not
    /// a reconstructed image — the latent net never sees reconstructions).
    last_meas: Option<Tensor>,
    /// Consecutive frames served from `last_image` instead of a fresh
    /// capture.
    image_staleness: u32,
    /// Consecutive scheduled ROI refreshes that fell back to the last-good
    /// ROI.
    roi_staleness: u32,
    /// Consecutive frames on which the gaze output fell back to
    /// `last_gaze`.
    gaze_staleness: u32,
    /// Per-frame scratch buffers, taken out at frame start and restored at
    /// the end (so stage helpers can borrow them alongside `&mut self`).
    /// `None` only before the first frame and transiently inside
    /// [`EyeTracker::process_frame`].
    scratch: Option<Box<FrameScratch>>,
    /// Buffers of the scheduled segmentation refresh.
    seg: SegScratch,
}

/// Tracker-owned buffers of the segmentation refresh: the downsampled
/// input, the network's activation arena, and the label buffer a refresh
/// writes before it is swapped into `last_labels` — only on success, so a
/// rejected label buffer never replaces the last-good one. Once two
/// refreshes have sized both label buffers, a refresh frame allocates
/// nothing.
struct SegScratch {
    input: Tensor,
    ws: SegInferWorkspace,
    labels: Vec<u8>,
}

/// Tracker-owned buffers reused on every frame — the software analogue of
/// the accelerator's fixed on-chip buffers (weights resident, activations
/// ping-ponged between two global buffers, nothing allocated per frame).
/// Every buffer grows to its steady size during the first frames and is
/// then reused verbatim, which is what makes a steady-state
/// [`EyeTracker::process_frame`] allocation-free.
struct FrameScratch {
    /// Acquisition staging (scene/measurement matrices, reconstruction
    /// workspace).
    acquire: AcquireScratch,
    /// The acquired (or last-good fallback) image for the current frame.
    image: Tensor,
    /// ROI crop of `image`.
    crop: Tensor,
    /// The resized gaze-network input.
    gaze_in: Tensor,
    /// The gaze-network output.
    pred: Tensor,
    /// Arena buffers for the gaze forward passes (both backends).
    infer: GazeInferWorkspace,
}

impl FrameScratch {
    fn new() -> Self {
        FrameScratch {
            acquire: AcquireScratch::new(),
            image: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            crop: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            gaze_in: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            pred: Tensor::zeros(Shape::new(1, 1, 1, 1)),
            infer: GazeInferWorkspace::new(),
        }
    }
}

/// What the capture stage staged for the reconstruction stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CaptureOutcome {
    /// The capture stage has not run yet.
    Pending,
    /// Frame lost in transit (drop or missed deadline): reconstruction
    /// serves the last-good fallback instead.
    Missing,
    /// Silent sensor duplicate: reconstruction re-serves the last-good
    /// image (only declared when one exists).
    Duplicate,
    /// A fresh attempt-0 capture is staged in the acquisition scratch.
    Fresh,
    /// Event-driven sparse capture: the changed columns are staged in the
    /// acquisition scratch's delta caches; the reconstruction stage folds
    /// them in incrementally instead of running a dense solve.
    Delta,
    /// Motion-gated: change detection found too few changed pixels to
    /// matter. No image is produced and completion serves the last-good
    /// gaze.
    Skipped,
}

/// What the reconstruction stage turns a capture into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Signal {
    /// The Tikhonov reconstruction: the recon path, and every frame that
    /// runs segmentation.
    Image,
    /// The raw transported measurement: the latent fast path.
    Measurement,
}

/// Per-frame control state threaded through the per-stage entry points
/// ([`EyeTracker::begin_frame`] → [`EyeTracker::capture_stage`] →
/// [`EyeTracker::recon_stage`] → [`EyeTracker::roi_stage`] →
/// [`EyeTracker::crop_stage`] → [`EyeTracker::complete_stage`]).
///
/// The cursor carries everything a frame accumulates between stages —
/// fault plan, fault accounting, degradation flags, the ROI-refresh
/// schedule decision, the gaze network — while the image/crop/prediction
/// buffers themselves are borrowed from the caller at each stage, so a
/// caller can time every stage over its own buffers.
/// [`EyeTracker::process_frame`] runs the same entry points over the
/// tracker's own scratch buffers, so both execute identical code and stay
/// byte-identical by construction.
pub struct StageCursor {
    frame: u64,
    plan: FaultPlan,
    ff: FrameFaults,
    degraded: bool,
    capture: CaptureOutcome,
    has_image: bool,
    due: bool,
    /// The network this frame's gaze forward runs through, decided at
    /// [`EyeTracker::begin_frame`] (see [`EyeTracker::gaze_network`]).
    network: GazeBackend,
    refreshed: bool,
    /// Motion gate verdict: the gaze forward is skipped and completion
    /// serves the last-good direction.
    skipped: bool,
    /// Super-threshold changed pixels found by change detection (0 on
    /// dense frames).
    changed_px: usize,
    allocs_before: u64,
    started: std::time::Instant,
}

impl StageCursor {
    /// Frame index this cursor belongs to.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// Whether acquisition produced an image and a gaze input will be
    /// staged by the crop stage.
    pub fn has_gaze_input(&self) -> bool {
        self.has_image
    }

    /// Whether this frame is a scheduled ROI-refresh frame.
    pub fn due(&self) -> bool {
        self.due
    }

    /// Whether the segmentation model ran and re-anchored the ROI.
    pub fn roi_refreshed(&self) -> bool {
        self.refreshed
    }

    /// Whether the motion gate skipped this frame's gaze forward.
    pub fn gaze_skipped(&self) -> bool {
        self.skipped
    }

    /// Super-threshold changed pixels found by change detection (0 on
    /// dense frames).
    pub fn changed_px(&self) -> usize {
        self.changed_px
    }
}

impl EyeTracker {
    /// Assembles a tracker from a configuration and trained models, owned
    /// or shared through an `Arc` with other trackers.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TrackerConfig, models: impl Into<Arc<TrackerModels>>) -> Self {
        let acquisition = Self::build_acquisition(&config);
        Self::with_acquisition(config, models, acquisition)
    }

    /// Builds the acquisition front-end a configuration implies (FlatCam
    /// mask + Tikhonov reconstruction, or the lens baseline). A serving
    /// layer hosting many identically configured sessions builds this once
    /// and clones it per session instead of re-deriving the mask and
    /// pseudo-inverses for each tracker.
    pub fn build_acquisition(config: &TrackerConfig) -> Acquisition {
        if config.flatcam {
            Acquisition::flatcam(
                config.scene_size,
                config.sensor_size,
                config.epsilon,
                config.mask_seed,
            )
        } else {
            Acquisition::lens()
        }
    }

    /// [`EyeTracker::new`] with a caller-supplied acquisition front-end.
    /// The acquisition must match the configuration's geometry (as
    /// produced by [`EyeTracker::build_acquisition`] for the same config —
    /// the intended source); results are then bit-identical to
    /// [`EyeTracker::new`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_acquisition(
        config: TrackerConfig,
        models: impl Into<Arc<TrackerModels>>,
        acquisition: Acquisition,
    ) -> Self {
        config.validate();
        let current_roi = RoiRect::centered(
            config.scene_size,
            config.scene_size,
            config.roi.0,
            config.roi.1,
        );
        EyeTracker {
            config,
            acquisition,
            models: models.into(),
            current_roi,
            frame_counter: 0,
            last_labels: None,
            last_gaze: GazeVector::from_angles(0.0, 0.0),
            calib_inputs: Vec::new(),
            quantized_gaze: None,
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            fault_stats: FaultStats::default(),
            last_image: None,
            last_meas: None,
            image_staleness: 0,
            roi_staleness: 0,
            gaze_staleness: 0,
            scratch: None,
            seg: SegScratch {
                input: Tensor::zeros(Shape::new(1, 1, 1, 1)),
                ws: SegInferWorkspace::new(),
                labels: Vec::new(),
            },
        }
    }

    /// Replaces the fault-injection plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Replaces the recovery policy (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        policy.validate();
        self.recovery = policy;
        self
    }

    /// The active fault-injection plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Cumulative fault accounting since construction.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The active configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// The ROI currently in use (scene coordinates).
    pub fn current_roi(&self) -> RoiRect {
        self.current_roi
    }

    /// Frames accounted so far (processed + shed) — the index the next
    /// frame will carry. A serving layer uses this to predict whether the
    /// next frame is a scheduled ROI-refresh frame before any stage runs.
    pub fn frames_processed(&self) -> u64 {
        self.frame_counter
    }

    /// The most recent segmentation label map (segmentation resolution),
    /// if a refresh has happened.
    pub fn last_labels(&self) -> Option<&[u8]> {
        self.last_labels.as_deref()
    }

    /// The calibrated int8 gaze network, once the warm-up window has
    /// completed under [`GazeBackend::Int8`] (`None` before that, and
    /// always `None` under the f32 backend).
    pub fn quantized_gaze(&self) -> Option<&QuantizedGazeNet> {
        self.quantized_gaze.as_ref()
    }

    /// Processes one frame: acquires the scene, refreshes the ROI if due,
    /// and estimates gaze from the ROI crop.
    ///
    /// Under an active [`FaultPlan`], each stage detects what it can
    /// (missing/late frames, blown-up reconstructions, short label
    /// buffers, non-finite or degenerate gaze outputs, out-of-bounds ROI
    /// anchors) and recovers by retrying within the policy's budget or
    /// falling back to the last-good image / ROI / gaze; undetectable
    /// degradation passes through silently, as it would in a real system.
    /// The outcome is graded in [`TrackedFrame::quality`] and accounted in
    /// [`TrackedFrame::faults`] plus the
    /// `tracker/faults_{injected,recovered,unrecovered}` counters.
    ///
    /// If the gaze network emits a degenerate (near-zero) vector, the
    /// previous frame's gaze is reused and the output is flagged via
    /// [`TrackedFrame::gaze_degenerate`] instead of panicking.
    ///
    /// Each stage records a latency histogram (`tracker/acquire_ns`,
    /// `tracker/segment_ns`, `tracker/crop_resize_ns`,
    /// `tracker/gaze_forward_ns`, `tracker/frame_ns`) into the global
    /// telemetry registry while telemetry is enabled.
    ///
    /// Every stage runs through tracker-owned scratch buffers, so a warm
    /// frame (warm-up and int8 calibration done) performs **zero**
    /// transient heap allocations — a scheduled ROI refresh too, once two
    /// refreshes have sized the segmentation buffers. The
    /// `tracker/steady_state_allocs` counter records the per-frame
    /// allocation delta on non-refresh frames when the counting test
    /// allocator ([`crate::alloc_counter`]) is installed; in production it
    /// stays 0.
    ///
    /// # Panics
    ///
    /// Panics if the scene is not one `(1, 1, S, S)` plane of the
    /// configured scene size `S`.
    pub fn process_frame(&mut self, scene: &Tensor, noise_seed: u64) -> TrackedFrame {
        let mut scratch = self
            .scratch
            .take()
            .unwrap_or_else(|| Box::new(FrameScratch::new()));
        let FrameScratch {
            acquire,
            image,
            crop,
            gaze_in,
            pred,
            infer,
        } = &mut *scratch;
        let mut cur = self.begin_frame(scene);
        static_histogram!("tracker/acquire_ns").time(|| {
            self.capture_stage(&mut cur, scene, noise_seed, acquire);
            self.recon_stage(&mut cur, scene, noise_seed, acquire, image);
        });
        if cur.has_image {
            if cur.due {
                static_histogram!("tracker/segment_ns").time(|| self.roi_stage(&mut cur, image));
            }
            static_histogram!("tracker/crop_resize_ns")
                .time(|| self.crop_stage(&cur, image, crop, gaze_in));
            static_histogram!("tracker/gaze_forward_ns")
                .time(|| self.gaze_forward_into(cur.network, gaze_in, infer, pred));
        }
        let out = self.complete_stage(cur, pred);
        self.scratch = Some(scratch);
        out
    }

    /// Opens a frame for per-stage processing: validates the scene shape,
    /// accounts the frame, snapshots the fault plan, the ROI-refresh
    /// schedule decision and the gaze network, and returns the
    /// [`StageCursor`] the remaining stage entry points thread through.
    ///
    /// # Panics
    ///
    /// Panics if the scene is not one `(1, 1, S, S)` plane of the
    /// configured scene size `S`.
    pub fn begin_frame(&mut self, scene: &Tensor) -> StageCursor {
        let allocs_before = crate::alloc_counter::allocations();
        static_counter!("tracker/frames").inc();
        let started = std::time::Instant::now();
        let size = self.config.scene_size;
        assert_eq!(
            scene.shape(),
            Shape::new(1, 1, size, size),
            "scene must be one {size}x{size} plane"
        );
        let frame = self.frame_counter;
        let due = frame.is_multiple_of(self.config.roi_period as u64);
        StageCursor {
            frame,
            plan: self.faults.clone(),
            ff: FrameFaults::default(),
            degraded: false,
            capture: CaptureOutcome::Pending,
            has_image: false,
            due,
            network: self.gaze_network(due),
            refreshed: false,
            skipped: false,
            changed_px: 0,
            allocs_before,
            started,
        }
    }

    /// The capture stage: decides the sensor-plane outcome for this frame
    /// (drop, deadline miss, silent duplicate, or a fresh exposure) and,
    /// for a fresh exposure, runs the attempt-0 capture — sensor noise,
    /// sensor-plane degradation and link-plane transport faults — leaving
    /// the transported measurement staged in `acquire`.
    /// [`EyeTracker::recon_stage`] consumes the staged outcome.
    pub fn capture_stage(
        &mut self,
        cur: &mut StageCursor,
        scene: &Tensor,
        noise_seed: u64,
        acquire: &mut AcquireScratch,
    ) {
        // a dropped frame never arrives; a delayed one misses its deadline
        // — the real-time pipeline treats both as a missing frame
        let dropped = cur.plan.fires(FaultSite::SensorFrameDrop, cur.frame);
        let delayed = !dropped && cur.plan.fires(FaultSite::LinkDelay, cur.frame);
        if dropped || delayed {
            cur.ff.injected += 1;
            if dropped {
                static_counter!("tracker/frames_dropped").inc();
            } else {
                static_counter!("tracker/frames_delayed").inc();
            }
            cur.degraded = true;
            cur.capture = CaptureOutcome::Missing;
            return;
        }
        // a silent duplicate: the camera re-delivers the previous frame
        // and the pipeline cannot tell — it simply processes stale data
        if cur.plan.fires(FaultSite::SensorFrameDuplicate, cur.frame) && self.last_image.is_some() {
            cur.ff.injected += 1;
            static_counter!("tracker/frames_duplicated").inc();
            cur.capture = CaptureOutcome::Duplicate;
            return;
        }
        // event-driven sparse path: a steady-state frame with primed delta
        // caches diffs the scene against the last fully-sensed base
        // instead of re-sensing. Scheduled refresh frames always run the
        // dense path, which keeps them bit-identical to dense mode and
        // re-primes the caches (bounding how long clean-event deltas can
        // drift from a noisy dense re-capture).
        if self.config.delta && !cur.due && acquire.delta_primed() {
            let changed =
                self.acquisition
                    .detect_changes_cached(scene, acquire, self.config.delta_epsilon);
            cur.changed_px = changed;
            static_counter!("tracker/changed_px").add(changed as u64);
            // the int8 backend collects its calibration batch from the
            // frames that run the gaze crop — gating during warm-up would
            // starve calibration on static scenes (a fixating user would
            // never reach the quantised chain), so those frames take the
            // sparse-update path instead of skipping
            let calibrating =
                self.config.gaze_backend == GazeBackend::Int8 && self.quantized_gaze.is_none();
            if changed < self.config.delta_threshold && !calibrating {
                // motion gate: too few pixels moved to shift the gaze —
                // skip acquisition, reconstruction and the gaze forward
                // entirely; completion serves the last-good direction.
                // The diff base stays put, so sub-threshold drift keeps
                // accumulating until it crosses the gate.
                static_counter!("tracker/gaze_skipped").inc();
                cur.skipped = true;
                cur.capture = CaptureOutcome::Skipped;
                return;
            }
            static_counter!("tracker/delta_frames").inc();
            cur.capture = CaptureOutcome::Delta;
            return;
        }
        let injected = self
            .acquisition
            .capture_faulted_into(scene, noise_seed, &cur.plan, cur.frame, 0, acquire);
        cur.ff.injected += injected;
        cur.capture = CaptureOutcome::Fresh;
    }

    /// The reconstruction stage: turns the capture stage's staged outcome
    /// into the signal the rest of the pipeline sees, written into `image`.
    /// A fresh capture is reconstructed and sanity-checked; detected
    /// transport corruption is re-requested within the recovery policy's
    /// retry budget (each attempt re-draws the link faults with its own
    /// salt, re-running the capture); a missing frame falls back to the
    /// last-good signal. After this stage [`StageCursor::has_gaze_input`]
    /// is final.
    ///
    /// On the latent fast path (steady frames under [`GazeBackend::Latent`])
    /// the same recovery runs over the raw transported measurement, with
    /// **zero** reconstruction solves: the signal is the measurement itself
    /// and the last-good buffer is the last sane measurement — never a
    /// reconstruction, which the latent net was not trained on.
    ///
    /// # Panics
    ///
    /// Panics if called before [`EyeTracker::capture_stage`] for the same
    /// cursor.
    pub fn recon_stage(
        &mut self,
        cur: &mut StageCursor,
        scene: &Tensor,
        noise_seed: u64,
        acquire: &mut AcquireScratch,
        image: &mut Tensor,
    ) {
        let signal = if cur.network == GazeBackend::Latent {
            Signal::Measurement
        } else {
            Signal::Image
        };
        match cur.capture {
            CaptureOutcome::Pending => panic!("recon_stage called before capture_stage"),
            CaptureOutcome::Skipped => {
                // motion-gated: nothing moved enough to matter, no image
                // is produced; completion serves the last-good gaze (the
                // cursor's skip flag routes it past the lost-frame path)
            }
            CaptureOutcome::Missing => {
                cur.has_image = self.serve_last_good(signal, &mut cur.ff, image);
                if !cur.has_image {
                    cur.ff.unrecovered += 1;
                }
            }
            CaptureOutcome::Duplicate => {
                // the duplicate outcome is gated on `last_image`; under the
                // latent backend its raw twin `last_meas` is only refreshed
                // on frames that sensed, so it can lag by one fallback window
                match self.last_good(signal) {
                    Some(prev) => {
                        image.copy_from(prev);
                        cur.has_image = true;
                    }
                    None => cur.ff.unrecovered += 1,
                }
            }
            CaptureOutcome::Delta => {
                // event-driven sparse update: fold the staged changed
                // columns into the cached measurement and, on the recon
                // path, apply the matching sparse-column correction to the
                // cached reconstruction — no dense capture, no dense solve
                match signal {
                    Signal::Image => self
                        .acquisition
                        .sense_delta_cached_into(scene, acquire, image),
                    Signal::Measurement => self
                        .acquisition
                        .sense_delta_meas_cached_into(scene, acquire, image),
                }
                self.keep_last_good(signal, image);
                self.image_staleness = 0;
                cur.has_image = true;
            }
            CaptureOutcome::Fresh => {
                // attempt 0 reads the already-staged capture; detected
                // corruption is re-requested within budget (each retry is a
                // full fresh capture)
                let budget = self.recovery.max_stage_retries as u64;
                for attempt in 0..=budget {
                    if attempt > 0 {
                        cur.ff.injected += self.acquisition.capture_faulted_into(
                            scene, noise_seed, &cur.plan, cur.frame, attempt, acquire,
                        );
                    }
                    self.read_signal(signal, acquire, image);
                    if image_is_sane(image) {
                        if attempt > 0 {
                            cur.ff.recovered += 1;
                            cur.degraded = true;
                            static_counter!("tracker/acquire_retries").add(attempt);
                        }
                        self.keep_last_good(signal, image);
                        if signal == Signal::Image
                            && self.config.gaze_backend == GazeBackend::Latent
                        {
                            // a latent session's refresh capture also
                            // carries the raw measurement this
                            // reconstruction came from — keep it as the
                            // fast path's fallback
                            let meas = self
                                .last_meas
                                .get_or_insert_with(|| Tensor::zeros(Shape::new(1, 1, 1, 1)));
                            self.acquisition.sense_into(acquire, meas);
                        }
                        if self.config.delta {
                            // a sane dense capture is the new delta base:
                            // re-prime, resetting any drift the clean-event
                            // updates accumulated (the latent fast path
                            // never reads the reconstruction cache, which
                            // re-syncs at the next scheduled dense refresh)
                            self.acquisition.prime_delta(scene, acquire);
                        }
                        self.image_staleness = 0;
                        cur.has_image = true;
                        return;
                    }
                    static_counter!("tracker/acquire_corrupt").inc();
                }
                // budget exhausted on a corrupt transfer
                cur.degraded = true;
                if !self.serve_last_good(signal, &mut cur.ff, image) {
                    // nothing sane has ever arrived: flush the corruption
                    // to finite values and limp on with a best-effort
                    // signal (the recon path re-derives it from the
                    // attempt-0 capture)
                    cur.ff.unrecovered += 1;
                    if signal == Signal::Image {
                        let _ = self.acquisition.capture_faulted_into(
                            scene, noise_seed, &cur.plan, cur.frame, 0, acquire,
                        );
                    }
                    self.read_signal(signal, acquire, image);
                    sanitize_image_inplace(image);
                }
                cur.has_image = true;
            }
        }
    }

    /// The network a gaze forward runs through on a frame: the configured
    /// backend, except that an int8 tracker still collecting its
    /// calibration crops runs the f32 network, and a latent tracker's
    /// scheduled ROI-refresh frames (`due`) run the full recon +
    /// segmentation pipeline and the recon-path f32 network to keep the ROI
    /// anchored. Every other latent frame takes the recon-free fast path.
    fn gaze_network(&self, due: bool) -> GazeBackend {
        match self.config.gaze_backend {
            GazeBackend::Int8 if self.quantized_gaze.is_none() => GazeBackend::F32,
            GazeBackend::Latent if due => GazeBackend::F32,
            backend => backend,
        }
    }

    /// Turns the capture staged in `acquire` into `signal`: a Tikhonov
    /// reconstruction, or the raw transported measurement itself.
    fn read_signal(&self, signal: Signal, acquire: &mut AcquireScratch, out: &mut Tensor) {
        match signal {
            Signal::Image => self.acquisition.recon_into(acquire, out),
            Signal::Measurement => self.acquisition.sense_into(acquire, out),
        }
    }

    /// The last sane `signal`, if one has ever arrived.
    fn last_good(&self, signal: Signal) -> Option<&Tensor> {
        match signal {
            Signal::Image => self.last_image.as_ref(),
            Signal::Measurement => self.last_meas.as_ref(),
        }
    }

    /// Serves the last sane `signal` into `image` in place of a lost or
    /// unrecoverable capture, accounting the recovery and the staleness.
    /// Returns `false` (touching nothing) when no sane signal ever arrived.
    fn serve_last_good(
        &mut self,
        signal: Signal,
        ff: &mut FrameFaults,
        image: &mut Tensor,
    ) -> bool {
        let Some(prev) = (match signal {
            Signal::Image => &self.last_image,
            Signal::Measurement => &self.last_meas,
        }) else {
            return false;
        };
        image.copy_from(prev);
        ff.recovered += 1;
        self.image_staleness += 1;
        true
    }

    /// Keeps a sane `image` as the last-good `signal` (allocating only the
    /// first time).
    fn keep_last_good(&mut self, signal: Signal, image: &Tensor) {
        let slot = match signal {
            Signal::Image => &mut self.last_image,
            Signal::Measurement => &mut self.last_meas,
        };
        match slot {
            Some(buf) => buf.copy_from(image),
            None => *slot = Some(image.clone()),
        }
    }

    /// The scheduled ROI-refresh stage: runs segmentation and re-anchors
    /// the ROI when this frame is due and an image arrived; a no-op
    /// otherwise. Retries, label validation and drift clamping follow the
    /// recovery policy exactly as in the fused path.
    pub fn roi_stage(&mut self, cur: &mut StageCursor, image: &Tensor) {
        if !(cur.has_image && cur.due) {
            return;
        }
        let StageCursor {
            frame,
            plan,
            ff,
            degraded,
            refreshed,
            ..
        } = cur;
        *refreshed = self.refresh_roi_with_recovery(image, plan, *frame, ff, degraded);
    }

    /// The crop/resize stage: crops the current ROI out of `image` and
    /// resizes it into the gaze-network input `gaze_in` (`crop` is the
    /// intermediate buffer). A no-op when acquisition lost the frame.
    ///
    /// On the latent fast path `image` holds a raw measurement, there is
    /// no ROI to crop, and the stage instead runs the latent net's
    /// separable down-projection straight into `gaze_in` — same output
    /// geometry, same stage slot, so the per-stage latency histograms keep
    /// an identical structure across backends.
    pub fn crop_stage(
        &self,
        cur: &StageCursor,
        image: &Tensor,
        crop: &mut Tensor,
        gaze_in: &mut Tensor,
    ) {
        if !cur.has_image {
            return;
        }
        if cur.network == GazeBackend::Latent {
            self.models.latent.project_into(image, gaze_in);
            return;
        }
        self.current_roi.crop_into(image, crop);
        resize_bilinear_into(
            crop,
            self.config.gaze_input.0,
            self.config.gaze_input.1,
            gaze_in,
        );
    }

    /// The completion stage over a borrowed prediction buffer: stage
    /// faults on the network output, parse/normalise the gaze with the
    /// last-good fallback, grade quality against the recovery policy's
    /// staleness limits, and account telemetry. Consumes the cursor — the
    /// frame is finished and the tracker's frame counter advances.
    ///
    /// `pred` holds this frame's raw 3-component network output (only
    /// read when [`StageCursor::has_gaze_input`] is true) and may be
    /// mutated in place by stage-plane fault injection. The output reports
    /// the network [`EyeTracker::process_frame`] runs on the frame in
    /// [`TrackedFrame::network`].
    pub fn complete_stage(&mut self, cur: StageCursor, pred: &mut Tensor) -> TrackedFrame {
        let StageCursor {
            frame,
            plan,
            mut ff,
            mut degraded,
            has_image,
            due,
            network,
            refreshed,
            skipped,
            allocs_before,
            started,
            ..
        } = cur;
        let (gaze, gaze_degenerate, roi_refreshed) = if has_image {
            // stage faults on the network output
            if plan.fires(FaultSite::StageGazeNan, frame) {
                ff.injected += 1;
                pred.as_mut_slice().fill(f32::NAN);
            } else if plan.fires(FaultSite::StageGazeZero, frame) {
                ff.injected += 1;
                pred.as_mut_slice().fill(0.0);
            }
            let parsed = if pred.has_non_finite() {
                None
            } else {
                GazeVector::from_tensor(pred, 0).try_normalized()
            };
            match parsed {
                Some(g) => {
                    self.gaze_staleness = 0;
                    (g, false, refreshed)
                }
                None => {
                    // non-finite or degenerate gaze: the fallback to
                    // the last-good direction is the recovery action,
                    // whether the fault was injected or the model's own
                    static_counter!("tracker/gaze_degenerate").inc();
                    self.gaze_staleness += 1;
                    ff.recovered += 1;
                    degraded = true;
                    (self.last_gaze, true, refreshed)
                }
            }
        } else if skipped {
            // the motion gate verified the scene static within threshold:
            // the last-good direction is *current*, not stale — serve it
            // without accruing recovery staleness (as with shed frames,
            // sustained fixation must keep serving good frames, not
            // escalate to Lost; the scheduled dense refresh still bounds
            // how long the gate can coast on its caches)
            (self.last_gaze, false, false)
        } else {
            // the frame never reached the pipeline and nothing is
            // available to serve it from: repeat the last answer
            if due {
                self.roi_staleness += 1;
            }
            self.gaze_staleness += 1;
            (self.last_gaze, false, false)
        };
        self.last_gaze = gaze;

        let over_stale = self.roi_staleness > self.recovery.max_roi_staleness
            || self.gaze_staleness > self.recovery.max_gaze_staleness
            || self.image_staleness > self.recovery.max_image_staleness;
        let quality = if (!has_image && !skipped) || ff.unrecovered > 0 || over_stale {
            FrameQuality::Lost
        } else if degraded {
            FrameQuality::Degraded
        } else {
            FrameQuality::Ok
        };
        static_counter!("tracker/faults_injected").add(ff.injected as u64);
        static_counter!("tracker/faults_recovered").add(ff.recovered as u64);
        static_counter!("tracker/faults_unrecovered").add(ff.unrecovered as u64);
        match quality {
            FrameQuality::Ok => {}
            FrameQuality::Degraded => static_counter!("tracker/frames_degraded").inc(),
            FrameQuality::Lost => static_counter!("tracker/frames_lost").inc(),
        }
        self.fault_stats.absorb(&ff);

        // steady-state frames (no scheduled segmentation refresh) must not
        // touch the heap: record the per-frame allocation delta so the
        // counting-allocator regression test can pin it to zero
        if !due {
            static_counter!("tracker/steady_state_allocs")
                .add(crate::alloc_counter::allocations() - allocs_before);
        }
        static_histogram!("tracker/frame_ns").record(started.elapsed().as_nanos() as u64);

        self.frame_counter += 1;
        TrackedFrame {
            gaze,
            roi: self.current_roi,
            roi_refreshed,
            frame,
            gaze_degenerate,
            gaze_skipped: skipped,
            quality,
            faults: ff,
            network: has_image.then_some(network),
        }
    }

    /// Accounts a frame that was *shed* before it entered the pipeline — a
    /// capacity decision by a serving layer's bounded ingress queue, not a
    /// pipeline failure. The frame index advances and the last-good gaze
    /// is served, but no stage runs and (deliberately) no recovery
    /// staleness accrues: sustained overload should keep degrading frames,
    /// not escalate them to `Lost` the way genuine sensor loss does.
    ///
    /// The returned frame grades [`FrameQuality::Degraded`] once any image
    /// or raw measurement has been tracked (stale-but-plausible answer),
    /// and [`FrameQuality::Lost`] before the first one (nothing to serve).
    /// The measurement counts because a latent session's steady frames
    /// never reconstruct an image.
    pub fn shed_frame(&mut self) -> TrackedFrame {
        static_counter!("tracker/frames_shed").inc();
        let frame = self.frame_counter;
        self.frame_counter += 1;
        let quality = if self.last_image.is_some() || self.last_meas.is_some() {
            FrameQuality::Degraded
        } else {
            FrameQuality::Lost
        };
        TrackedFrame {
            gaze: self.last_gaze,
            roi: self.current_roi,
            roi_refreshed: false,
            frame,
            gaze_degenerate: false,
            gaze_skipped: false,
            quality,
            faults: FrameFaults::default(),
            network: None,
        }
    }

    /// Runs the gaze network on one ROI crop through `network` (the frame's
    /// [`EyeTracker::gaze_network`]), writing the prediction into `pred`
    /// through the workspace arena (allocation-free once the buffers are
    /// warm).
    ///
    /// The f32 network executes [`ProxyGazeNet::forward_infer`] (the
    /// channel-tiled convolution over packed weights, the position tile for
    /// depth-wise layers, in-place norm/activation); the calibrated int8
    /// network executes [`QuantizedGazeNet::forward_into`], which is
    /// bit-identical to the allocating int8 chain (`tracker/int8_frames`
    /// counts these frames); the latent network executes
    /// [`LatentGazeNet::forward_infer`] on the projected measurement
    /// (`tracker/latent_frames`).
    ///
    /// Under [`GazeBackend::Int8`] the first `calibration_frames` frames
    /// run the f32 network while their crops are collected; when the window
    /// fills, the network is folded, calibrated on the collected batch and
    /// quantised (`tracker/int8_calibrations` counts this). The switch is
    /// deterministic in the frame sequence, so parallel and sequential runs
    /// still agree bit-for-bit.
    ///
    /// [`ProxyGazeNet::forward_infer`]: eyecod_models::proxy::ProxyGazeNet::forward_infer
    /// [`LatentGazeNet::forward_infer`]: eyecod_models::latent::LatentGazeNet::forward_infer
    fn gaze_forward_into(
        &mut self,
        network: GazeBackend,
        gaze_in: &Tensor,
        ws: &mut GazeInferWorkspace,
        pred: &mut Tensor,
    ) {
        match network {
            GazeBackend::Int8 => {
                static_counter!("tracker/int8_frames").inc();
                self.quantized_gaze
                    .as_ref()
                    .expect("int8 frames run once calibrated")
                    .forward_into(gaze_in, ws, pred);
            }
            GazeBackend::Latent => {
                static_counter!("tracker/latent_frames").inc();
                self.models.latent.forward_infer(gaze_in, ws, pred);
            }
            GazeBackend::F32 => {
                self.models.gaze.forward_infer(gaze_in, ws, pred);
                if self.config.gaze_backend != GazeBackend::Int8 {
                    return;
                }
                // never let a corrupted crop into the calibration batch —
                // one NaN would poison the quantisation ranges for good
                if !gaze_in.has_non_finite() {
                    self.calib_inputs.push(gaze_in.clone());
                }
                if self.calib_inputs.len() >= self.config.calibration_frames {
                    let calib = Tensor::stack(&self.calib_inputs);
                    self.quantized_gaze =
                        Some(QuantizedGazeNet::from_calibrated(&self.models.gaze, &calib));
                    self.calib_inputs = Vec::new();
                    static_counter!("tracker/int8_calibrations").inc();
                }
            }
        }
    }

    /// Runs the segmentation model and re-anchors the ROI (the "predict"
    /// stage) under the fault plan: spends the retry budget on injected
    /// stage timeouts, validates the labels buffer, and bounds-checks
    /// injected ROI drift. On any unretryable failure the last-good ROI
    /// and labels are kept and `roi_staleness` grows.
    ///
    /// Segmentation runs [`ProxySegNet::forward_infer`] through the
    /// tracker-owned [`SegScratch`], whose label buffer is swapped into
    /// `last_labels` only on success: a warm refresh allocates nothing.
    ///
    /// [`ProxySegNet::forward_infer`]: eyecod_models::proxy::ProxySegNet::forward_infer
    ///
    /// Returns whether the segmentation model actually ran.
    fn refresh_roi_with_recovery(
        &mut self,
        image: &Tensor,
        plan: &FaultPlan,
        frame: u64,
        ff: &mut FrameFaults,
        degraded: &mut bool,
    ) -> bool {
        // stage timeouts: each attempt re-draws with its own salt — a
        // bounded retry-with-backoff budget without wall-clock sleeps
        let budget = self.recovery.max_stage_retries;
        let mut timeouts = 0u32;
        while timeouts <= budget
            && plan.fires_with(FaultSite::StageSegTimeout, frame, timeouts as u64)
        {
            timeouts += 1;
        }
        if timeouts > 0 {
            static_counter!("tracker/seg_timeouts").add(timeouts as u64);
            ff.injected += timeouts;
            ff.recovered += timeouts;
            *degraded = true;
        }
        if timeouts > budget {
            // budget exhausted: keep the last-good ROI and labels
            self.roi_staleness += 1;
            return false;
        }
        static_counter!("tracker/roi_refreshes").inc();
        let factor = self.config.scene_size / self.config.seg_size;
        let scene = self.config.scene_size;
        let seg = &mut self.seg;
        downsample_avg_into(image, factor, &mut seg.input);
        self.models
            .seg
            .forward_infer(&seg.input, &mut seg.ws, &mut seg.labels);
        let labels = &mut seg.labels;
        if plan.fires(FaultSite::StageSegTruncatedLabels, frame) {
            ff.injected += 1;
            labels.truncate(labels.len() / 2);
        }
        // a short (or oversized) labels buffer would silently anchor the
        // ROI on garbage; validate and fall back to the last-good ROI
        if labels.len() != self.config.seg_size * self.config.seg_size {
            static_counter!("tracker/seg_labels_invalid").inc();
            ff.recovered += 1;
            *degraded = true;
            self.roi_staleness += 1;
            return false;
        }
        // choose the target ROI size per the configured policy
        let (rh, rw) = match self.config.roi_sizing {
            RoiSizing::Fixed => self.config.roi,
            RoiSizing::ScleraAdaptive => {
                let (sh, sw) = roi_size_from_sclera(labels, self.config.seg_size);
                ((sh * factor).min(scene), (sw * factor).min(scene))
            }
        };
        let roi_at_seg_h = (rh / factor).max(2);
        let roi_at_seg_w = (rw / factor).max(2);
        let roi_seg = predict_roi(labels, self.config.seg_size, roi_at_seg_h, roi_at_seg_w);
        let mut roi = roi_seg.rescale(self.config.seg_size, scene);
        // rounding guard: pin exactly to the chosen ROI size
        roi.h = rh;
        roi.w = rw;
        roi.y0 = roi.y0.min(scene - roi.h);
        roi.x0 = roi.x0.min(scene - roi.w);
        if plan.fires(FaultSite::StageRoiDrift, frame) {
            ff.injected += 1;
            let d = plan.stage.roi_drift_pixels as i64;
            let dir = plan.word(FaultSite::StageRoiDrift, frame, 1);
            let dy = if dir & 1 == 0 { d } else { -d };
            let dx = if dir & 2 == 0 { d } else { -d };
            let wanted_y = roi.y0 as i64 + dy;
            let wanted_x = roi.x0 as i64 + dx;
            let y = wanted_y.clamp(0, (scene - roi.h) as i64);
            let x = wanted_x.clamp(0, (scene - roi.w) as i64);
            if y != wanted_y || x != wanted_x {
                // the drift pushed the ROI out of the scene: the bounds
                // guard detects and clamps it (in-bounds drift is silent)
                static_counter!("tracker/roi_drift_clamped").inc();
                ff.recovered += 1;
                *degraded = true;
            }
            roi.y0 = y as usize;
            roi.x0 = x as usize;
        }
        self.current_roi = roi;
        // the fresh labels become the last-good ones; the old buffer is
        // the next refresh's scratch
        match &mut self.last_labels {
            Some(last) => std::mem::swap(last, &mut self.seg.labels),
            None => self.last_labels = Some(std::mem::take(&mut self.seg.labels)),
        }
        self.roi_staleness = 0;
        true
    }

    /// Evaluates several independent motion sequences concurrently on the
    /// process-wide work-stealing pool, one sequence per seed.
    ///
    /// Trackers are stateful (ROI schedule, frame counter), so each job
    /// builds its own tracker from the shared trained models; results are
    /// bit-identical to running [`EyeTracker::run_sequence`] on fresh
    /// trackers sequentially, in seed order.
    pub fn run_sequences_parallel(
        config: &TrackerConfig,
        models: &TrackerModels,
        seeds: &[u64],
        frames: usize,
    ) -> Vec<TrackingStats> {
        crate::pool::parallel_map_chunked(seeds, 1, |&seed| {
            let mut tracker = EyeTracker::new(config.clone(), models.clone_models());
            let mut generator = EyeMotionGenerator::with_seed(seed);
            tracker.run_sequence(&mut generator, frames)
        })
    }

    /// Tracks a synthetic eye-motion sequence for `frames` frames,
    /// rendering each frame at the configured scene size, and returns the
    /// accumulated statistics.
    pub fn run_sequence(
        &mut self,
        generator: &mut EyeMotionGenerator,
        frames: usize,
    ) -> TrackingStats {
        self.run_sequence_traced(generator, frames).0
    }

    /// [`EyeTracker::run_sequence`] that also returns every per-frame
    /// output — the golden-trace hook of the fault conformance suite
    /// (quality grades and fault accounting per frame, in order).
    pub fn run_sequence_traced(
        &mut self,
        generator: &mut EyeMotionGenerator,
        frames: usize,
    ) -> (TrackingStats, Vec<TrackedFrame>) {
        let mut stats = TrackingStats::new();
        let mut trace = Vec::with_capacity(frames);
        for i in 0..frames {
            let params = generator.next_frame();
            let sample = render_eye(&params, self.config.scene_size, 1000 + i as u64);
            let out = self.process_frame(&sample.image, 2000 + i as u64);
            stats.record(&out, &sample.gaze);
            trace.push(out);
        }
        (stats, trace)
    }

    /// [`EyeTracker::run_sequences_parallel`] under an explicit fault plan
    /// and recovery policy. Sequence jobs whose index appears in
    /// `plan.exec.worker_panic_jobs` panic on their first execution
    /// attempt; the pool's panic isolation catches the poison and the job
    /// re-runs inline, so the returned statistics are byte-identical to a
    /// sequential, panic-free run (the panic shows up only in the
    /// `tracker/worker_panics_{injected,recovered}` counters).
    pub fn run_sequences_parallel_with(
        config: &TrackerConfig,
        models: &TrackerModels,
        seeds: &[u64],
        frames: usize,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Vec<TrackingStats> {
        let run_one = |job: u64, seed: u64, attempt: u32| -> TrackingStats {
            if plan.worker_panics(job, attempt) {
                static_counter!("tracker/worker_panics_injected").inc();
                panic!("injected worker panic: sequence job {job}");
            }
            let mut tracker = EyeTracker::new(config.clone(), models.clone_models())
                .with_faults(plan.clone())
                .with_recovery(*policy);
            tracker.run_sequence(&mut EyeMotionGenerator::with_seed(seed), frames)
        };
        let jobs: Vec<(u64, u64)> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s))
            .collect();
        let first = crate::pool::try_parallel_map(&jobs, 1, |&(job, seed)| run_one(job, seed, 0));
        first
            .into_iter()
            .zip(&jobs)
            .map(|(result, &(job, seed))| match result {
                Ok(stats) => stats,
                Err(_) => {
                    // the worker died mid-job; re-run the job inline
                    // (killed jobs only panic on attempt 0, so this
                    // converges; a genuine bug would re-panic and surface)
                    static_counter!("tracker/worker_panics_recovered").inc();
                    run_one(job, seed, 1)
                }
            })
            .collect()
    }
}

/// Reconstructions of sane captures stay within single digits; values
/// beyond this (or non-finite ones) mark a corrupted transfer.
const SANE_IMAGE_MAX: f32 = 1.0e4;

fn image_is_sane(t: &Tensor) -> bool {
    !t.has_non_finite() && t.max_abs() <= SANE_IMAGE_MAX
}

fn sanitize_image_inplace(t: &mut Tensor) {
    for v in t.as_mut_slice() {
        *v = if v.is_finite() {
            v.clamp(-SANE_IMAGE_MAX, SANE_IMAGE_MAX)
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_tracker_models, TrainingSetup};
    use eyecod_eyedata::render::EyeParams;
    use eyecod_tensor::Layer;
    use std::sync::OnceLock;

    /// A tracker in the given cell; the model set is trained once and
    /// shared across tests (training is the expensive part).
    fn tracker_in(gaze_backend: GazeBackend, delta: bool) -> EyeTracker {
        static MODELS: OnceLock<(TrackerConfig, TrackerModels)> = OnceLock::new();
        let (cfg, models) = MODELS.get_or_init(|| {
            let cfg = TrackerConfig::small();
            let models = train_tracker_models(&TrainingSetup::quick(), &cfg);
            (cfg, models)
        });
        let config = TrackerConfig {
            gaze_backend,
            delta,
            ..cfg.clone()
        };
        EyeTracker::new(config, models.clone_models())
    }

    /// A tracker in `TrackerConfig::small()`'s own cell.
    fn tracker() -> EyeTracker {
        tracker_in(GazeBackend::F32, false)
    }

    /// The `(backend, delta)` cells a configuration-dependent test runs
    /// in: every gaze backend on the dense path, plus f32 on the
    /// event-driven delta path. Each cell is printed as the loop reaches
    /// it, so a failing test's captured output names the cell.
    fn cells() -> impl Iterator<Item = (GazeBackend, bool)> {
        GazeBackend::ALL
            .into_iter()
            .map(|b| (b, false))
            .chain([(GazeBackend::F32, true)])
            .inspect(|(backend, delta)| println!("cell: {backend:?}, delta {delta}"))
    }

    #[test]
    fn tracks_a_centered_eye_reasonably() {
        let mut params = EyeParams::centered(48);
        params.yaw = 0.15;
        params.pitch = -0.1;
        let sample = render_eye(&params, 48, 3);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            let out = t.process_frame(&sample.image, 4);
            let err = out.gaze.angular_error_degrees(&sample.gaze);
            // a quick-trained proxy on one frame: just demand it is far
            // better than chance (random guessing in the ±25° cone
            // averages >15°)
            assert!(err < 15.0, "single-frame error {err:.1}°");
            assert!(out.roi_refreshed, "first frame must refresh the ROI");
        }
    }

    #[test]
    fn roi_refresh_happens_on_schedule() {
        let sample = render_eye(&EyeParams::centered(48), 48, 0);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            let mut refreshes = 0;
            for i in 0..25 {
                let out = t.process_frame(&sample.image, i);
                if out.roi_refreshed {
                    refreshes += 1;
                }
            }
            // period 10 over 25 frames -> frames 0, 10, 20
            assert_eq!(refreshes, 3);
            assert!(t.last_labels().is_some());
        }
    }

    #[test]
    fn roi_follows_the_eye_after_refresh() {
        let mut left = EyeParams::centered(48);
        left.center_x = 0.42;
        let mut right = EyeParams::centered(48);
        right.center_x = 0.58;
        let sl = render_eye(&left, 48, 1);
        let sr = render_eye(&right, 48, 2);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            t.process_frame(&sl.image, 1);
            let roi_left = t.current_roi();
            // advance to the next refresh frame with the eye moved right
            for i in 0..t.config().roi_period {
                t.process_frame(&sr.image, 10 + i as u64);
            }
            let roi_right = t.current_roi();
            assert!(
                roi_right.x0 > roi_left.x0,
                "ROI should move right: {roi_left:?} -> {roi_right:?}"
            );
        }
    }

    #[test]
    fn sequence_tracking_beats_chance() {
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            let mut gen = EyeMotionGenerator::with_seed(5);
            let stats = t.run_sequence(&mut gen, 30);
            assert_eq!(stats.frames, 30);
            assert!(stats.roi_refreshes >= 3);
            assert!(
                stats.mean_error_deg() < 18.0,
                "sequence mean error {:.1}°",
                stats.mean_error_deg()
            );
        }
    }

    #[test]
    fn parallel_sequences_match_sequential_runs() {
        for (backend, delta) in cells() {
            let t = tracker_in(backend, delta);
            let (config, models) = (t.config().clone(), t.models.clone_models());
            let seeds = [5u64, 6, 7, 8, 9];
            let parallel = EyeTracker::run_sequences_parallel(&config, &models, &seeds, 12);
            assert_eq!(parallel.len(), seeds.len());
            for (&seed, stats) in seeds.iter().zip(&parallel) {
                let mut fresh = EyeTracker::new(config.clone(), models.clone_models());
                let sequential = fresh.run_sequence(&mut EyeMotionGenerator::with_seed(seed), 12);
                assert_eq!(stats.frames, sequential.frames);
                assert_eq!(stats.roi_refreshes, sequential.roi_refreshes);
                assert_eq!(stats.mean_error_deg(), sequential.mean_error_deg());
            }
        }
    }

    #[test]
    fn adaptive_roi_plumbing_changes_size_and_stays_in_bounds() {
        // the sizing rule itself is unit-tested on ground-truth labels in
        // roi.rs; here we verify the live policy plumbing: the adaptive
        // mode derives a (generally different) size from predicted labels
        // and the ROI always stays inside the scene
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            t.config.roi_sizing = RoiSizing::ScleraAdaptive;
            let out = t.process_frame(&s.image, 4);
            let r = out.roi;
            assert!(
                r.y0 + r.h <= 48 && r.x0 + r.w <= 48,
                "ROI out of bounds: {r:?}"
            );
            assert!(r.h >= 12 && r.w >= 12, "adaptive ROI degenerate: {r:?}");
            // fixed mode pins the configured size
            let mut tf = tracker_in(backend, delta);
            let out_fixed = tf.process_frame(&s.image, 4);
            assert_eq!((out_fixed.roi.h, out_fixed.roi.w), tf.config().roi);
        }
    }

    #[test]
    #[should_panic(expected = "must divide scene size")]
    fn config_validation_catches_bad_seg_size() {
        let mut cfg = TrackerConfig::small();
        cfg.seg_size = 20;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "ROI must be non-empty")]
    fn config_validation_catches_zero_roi() {
        let mut cfg = TrackerConfig::small();
        cfg.roi = (0, 32);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "gaze input must be non-empty")]
    fn config_validation_catches_zero_gaze_input() {
        let mut cfg = TrackerConfig::small();
        cfg.gaze_input = (24, 0);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "sensor size must be non-zero")]
    fn config_validation_catches_zero_sensor() {
        let mut cfg = TrackerConfig::small();
        cfg.sensor_size = 0;
        cfg.validate();
    }

    #[test]
    fn degenerate_gaze_falls_back_instead_of_panicking() {
        // the f32 backend on the dense path: every frame reaches the f32
        // gaze forward (the latent net would still emit a non-zero gaze on
        // steady frames, and the motion gate would skip static ones)
        let mut t = tracker();
        // zero every gaze parameter: the network now emits an exact zero
        // vector for any input
        for p in Arc::make_mut(&mut t.models).gaze.params_mut() {
            p.value = Tensor::zeros(p.value.shape());
        }
        let sample = render_eye(&EyeParams::centered(48), 48, 7);
        let out = t.process_frame(&sample.image, 8);
        assert!(out.gaze_degenerate, "zero output must be flagged");
        // frame 0 falls back to straight ahead
        let ahead = GazeVector::from_angles(0.0, 0.0);
        assert!(out.gaze.angular_error_degrees(&ahead) < 1e-3);
        // a whole sequence completes and every frame is counted
        let mut gen = EyeMotionGenerator::with_seed(11);
        let stats = t.run_sequence(&mut gen, 12);
        assert_eq!(stats.frames, 12);
        assert_eq!(stats.degenerate_frames, 12);
        assert_eq!(t.frame_counter, 13);
    }

    #[test]
    fn motion_gate_skips_static_scenes_and_serves_the_last_gaze() {
        // f32, since int8 calibration warm-up exempts frames from the
        // motion gate; the gate sits at `small()`'s 16 changed pixels
        let mut t = tracker_in(GazeBackend::F32, true);
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        // frame 0 (due) runs the dense path and primes the delta caches
        let first = t.process_frame(&s.image, 4);
        assert!(!first.gaze_skipped);
        assert!(first.roi_refreshed);
        // an identical scene diffs to zero changed pixels: every steady
        // frame until the next refresh is motion-gated and serves the
        // frame-0 gaze bit-for-bit, graded Ok
        for i in 1..10u64 {
            let out = t.process_frame(&s.image, 4 + i);
            assert!(out.gaze_skipped, "frame {i} should be gated");
            assert_eq!(out.quality, FrameQuality::Ok);
            assert!(!out.roi_refreshed);
            assert_eq!(out.gaze.x.to_bits(), first.gaze.x.to_bits());
            assert_eq!(out.gaze.y.to_bits(), first.gaze.y.to_bits());
            assert_eq!(out.gaze.z.to_bits(), first.gaze.z.to_bits());
        }
        // the scheduled refresh frame always runs dense and re-anchors
        let refresh = t.process_frame(&s.image, 14);
        assert!(!refresh.gaze_skipped);
        assert!(refresh.roi_refreshed);
    }

    #[test]
    fn delta_frames_track_a_moving_eye_without_dense_solves() {
        // every tracker here runs f32: int8 calibration would feed the
        // delta and dense twins different warm-up batches
        let mut t = tracker_in(GazeBackend::F32, true);
        t.config.delta_threshold = 0; // gate off: every change runs sparse
        let mut gen = EyeMotionGenerator::with_seed(31);
        let stats = t.run_sequence(&mut gen, 25);
        assert_eq!(stats.frames, 25);
        assert!(
            stats.mean_error_deg() < 20.0,
            "delta tracking off the rails: {} deg",
            stats.mean_error_deg()
        );
        // a dense-mode twin of the same sequence agrees on refresh frames,
        // and so does a twin whose motion gate is on
        let mut te = tracker_in(GazeBackend::F32, true);
        te.config.delta_threshold = 0;
        let (_, delta) = te.run_sequence_traced(&mut EyeMotionGenerator::with_seed(31), 25);
        for twin_delta in [false, true] {
            let mut td = tracker_in(GazeBackend::F32, twin_delta);
            let (_, twin) = td.run_sequence_traced(&mut EyeMotionGenerator::with_seed(31), 25);
            for (d, e) in twin.iter().zip(&delta) {
                if d.frame.is_multiple_of(10) {
                    assert_eq!(
                        d.gaze.x.to_bits(),
                        e.gaze.x.to_bits(),
                        "refresh frame {} diverged (twin delta {twin_delta})",
                        d.frame
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "delta change-detection epsilon must be positive")]
    fn config_validation_catches_non_positive_delta_epsilon() {
        let mut cfg = TrackerConfig::small();
        cfg.delta = true;
        cfg.delta_epsilon = 0.0;
        cfg.validate();
    }

    #[test]
    fn gaze_backend_parses_names_case_insensitively() {
        assert_eq!(GazeBackend::parse("f32"), Some(GazeBackend::F32));
        assert_eq!(GazeBackend::parse("FLOAT"), Some(GazeBackend::F32));
        assert_eq!(GazeBackend::parse("int8"), Some(GazeBackend::Int8));
        assert_eq!(GazeBackend::parse("I8"), Some(GazeBackend::Int8));
        assert_eq!(GazeBackend::parse("latent"), Some(GazeBackend::Latent));
        assert_eq!(GazeBackend::parse("LATENT"), Some(GazeBackend::Latent));
        assert_eq!(GazeBackend::parse("recon-free"), Some(GazeBackend::Latent));
        assert_eq!(GazeBackend::parse("fp16"), None);
        assert_eq!(GazeBackend::default(), GazeBackend::F32);
    }

    #[test]
    fn latent_backend_never_quantizes_and_tracks_reasonably() {
        for delta in [false, true] {
            let mut t = tracker_in(GazeBackend::Latent, delta);
            let mut gen = EyeMotionGenerator::with_seed(21);
            let stats = t.run_sequence(&mut gen, 25);
            assert_eq!(stats.frames, 25);
            assert!(
                t.quantized_gaze().is_none(),
                "latent path must not quantize (delta {delta})"
            );
            assert!(
                stats.mean_error_deg() < 25.0,
                "latent tracking off the rails (delta {delta}): {} deg",
                stats.mean_error_deg()
            );
        }
    }

    #[test]
    fn latent_refresh_frames_match_the_f32_backend_exactly() {
        // scheduled refresh frames run the full recon + segmentation +
        // recon-path gaze net even under the latent backend, so frame 0
        // (always due) must be byte-identical to the f32 backend's
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        for delta in [false, true] {
            let mut tf = tracker_in(GazeBackend::F32, delta);
            let mut tl = tracker_in(GazeBackend::Latent, delta);
            let of = tf.process_frame(&s.image, 4);
            let ol = tl.process_frame(&s.image, 4);
            assert_eq!(of.gaze.x.to_bits(), ol.gaze.x.to_bits(), "delta {delta}");
            assert_eq!(of.gaze.y.to_bits(), ol.gaze.y.to_bits(), "delta {delta}");
            assert_eq!(of.gaze.z.to_bits(), ol.gaze.z.to_bits(), "delta {delta}");
            assert_eq!(of.roi_refreshed, ol.roi_refreshed, "delta {delta}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one calibration frame")]
    fn config_validation_catches_zero_calibration_frames() {
        let mut cfg = TrackerConfig::small();
        cfg.gaze_backend = GazeBackend::Int8;
        cfg.calibration_frames = 0;
        cfg.validate();
    }

    #[test]
    fn int8_backend_switches_over_after_warmup() {
        for delta in [false, true] {
            let mut t = tracker_in(GazeBackend::Int8, delta);
            t.config.calibration_frames = 4;
            let mut gen = EyeMotionGenerator::with_seed(9);
            for i in 0..3 {
                let params = gen.next_frame();
                let s = render_eye(&params, 48, 100 + i);
                t.process_frame(&s.image, 200 + i);
                assert!(t.quantized_gaze().is_none(), "still warming up");
            }
            let params = gen.next_frame();
            let s = render_eye(&params, 48, 103);
            t.process_frame(&s.image, 203);
            let qnet = t.quantized_gaze().expect("calibrated after 4 frames");
            assert!(qnet.input_scale() > 0.0);
            // int8 frames keep tracking sensibly (not degenerate, sane
            // error)
            let params = gen.next_frame();
            let s = render_eye(&params, 48, 104);
            let out = t.process_frame(&s.image, 204);
            assert!(!out.gaze_degenerate, "delta {delta}");
            assert!(
                out.gaze.angular_error_degrees(&s.gaze) < 20.0,
                "delta {delta}"
            );
        }
    }

    #[test]
    fn f32_backend_never_quantizes() {
        for delta in [false, true] {
            let mut t = tracker_in(GazeBackend::F32, delta);
            let mut gen = EyeMotionGenerator::with_seed(12);
            t.run_sequence(&mut gen, 12);
            assert!(t.quantized_gaze().is_none(), "delta {delta}");
        }
    }

    #[test]
    fn healthy_frames_are_not_flagged_degenerate() {
        let sample = render_eye(&EyeParams::centered(48), 48, 3);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta);
            let out = t.process_frame(&sample.image, 4);
            assert!(!out.gaze_degenerate);
            let mut gen = EyeMotionGenerator::with_seed(5);
            assert_eq!(t.run_sequence(&mut gen, 10).degenerate_frames, 0);
        }
    }

    #[test]
    fn clean_plan_grades_every_frame_ok() {
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta).with_faults(FaultPlan::none());
            let (stats, trace) = t.run_sequence_traced(&mut EyeMotionGenerator::with_seed(5), 10);
            assert_eq!(stats.frames_ok, 10);
            assert_eq!(stats.frames_degraded + stats.frames_lost, 0);
            assert_eq!(t.fault_stats(), FaultStats::default());
            assert!(trace
                .iter()
                .all(|f| f.quality == FrameQuality::Ok && f.faults.is_clean()));
        }
    }

    #[test]
    fn heavy_plan_run_is_deterministic_and_survives() {
        let plan = FaultPlan::heavy(0xEC0D);
        for (backend, delta) in cells() {
            let run = || {
                let mut t = tracker_in(backend, delta).with_faults(plan.clone());
                t.run_sequence_traced(&mut EyeMotionGenerator::with_seed(7), 30)
            };
            let (s1, t1) = run();
            let (s2, t2) = run();
            assert_eq!(s1, s2, "stats must replay identically");
            let codes =
                |tr: &[TrackedFrame]| tr.iter().map(|f| f.quality.code()).collect::<String>();
            assert_eq!(codes(&t1), codes(&t2), "quality trace must replay");
            assert_eq!(s1.frames, 30);
            assert!(s1.faults.injected > 0, "heavy plan must inject faults");
            assert!(s1.faults.recovered > 0, "recovery must engage");
        }
    }

    #[test]
    fn truncated_labels_fall_back_to_last_good_roi() {
        let mut plan = FaultPlan::none();
        plan.seed = 3;
        plan.stage.seg_truncated_labels_ppm = 1_000_000; // every refresh
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        let mut moved = EyeParams::centered(48);
        moved.yaw = 0.3;
        let moved = render_eye(&moved, 48, 5);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta).with_faults(plan.clone());
            let before = t.current_roi();
            // frame 0 is a scheduled refresh, but its labels come back
            // short
            let out = t.process_frame(&s.image, 4);
            assert!(
                !out.roi_refreshed,
                "rejected labels must not count as a refresh"
            );
            assert!(t.last_labels().is_none(), "short labels must not be kept");
            assert_eq!(out.quality, FrameQuality::Degraded);
            assert_eq!((out.faults.injected, out.faults.recovered), (1, 1));
            let r = t.current_roi();
            assert_eq!(
                (r.y0, r.x0, r.h, r.w),
                (before.y0, before.x0, before.h, before.w),
                "ROI must stay at the last-good anchor"
            );

            // after two clean refreshes (frames 0 and 10) a truncated one
            // at frame 20 keeps the last-good labels, not the rejected
            // buffer
            let mut t = tracker_in(backend, delta);
            for frame in 0..11u64 {
                t.process_frame(&s.image, frame);
            }
            let good = t
                .last_labels()
                .expect("clean refreshes keep labels")
                .to_vec();
            let anchor = t.current_roi();
            let mut t = t.with_faults(plan.clone());
            for frame in 11..21u64 {
                let out = t.process_frame(&moved.image, frame);
                assert!(!out.roi_refreshed, "frame {frame}");
            }
            assert_eq!(t.last_labels(), Some(&good[..]));
            let r = t.current_roi();
            assert_eq!(
                (r.y0, r.x0, r.h, r.w),
                (anchor.y0, anchor.x0, anchor.h, anchor.w)
            );
        }
    }

    #[test]
    fn injected_gaze_nan_falls_back_to_last_gaze() {
        let mut plan = FaultPlan::none();
        plan.stage.gaze_nan_ppm = 1_000_000;
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta).with_faults(plan.clone());
            let out = t.process_frame(&s.image, 4);
            assert!(out.gaze_degenerate, "NaN output must be detected");
            let ahead = GazeVector::from_angles(0.0, 0.0);
            assert!(out.gaze.angular_error_degrees(&ahead) < 1e-3);
            assert_eq!(out.quality, FrameQuality::Degraded);
            assert_eq!((out.faults.injected, out.faults.recovered), (1, 1));
        }
    }

    #[test]
    fn dropped_frames_grade_lost_then_degraded_once_a_fallback_exists() {
        let mut plan = FaultPlan::none();
        plan.sensor.frame_drop_ppm = 1_000_000;
        let s = render_eye(&EyeParams::centered(48), 48, 3);
        for (backend, delta) in cells() {
            let mut t = tracker_in(backend, delta).with_faults(plan.clone());
            let out = t.process_frame(&s.image, 4);
            assert_eq!(out.quality, FrameQuality::Lost, "no fallback on frame 0");
            assert_eq!(out.faults.unrecovered, 1);
            assert!(!out.roi_refreshed);
            // a tracker that saw one good frame first degrades instead
            let mut t2 = tracker_in(backend, delta);
            t2.process_frame(&s.image, 4);
            t2.faults = plan.clone();
            let out2 = t2.process_frame(&s.image, 5);
            assert_eq!(out2.quality, FrameQuality::Degraded);
            assert_eq!(out2.faults.recovered, 1);
            // sustained drops exhaust the image staleness limit and grade
            // Lost
            let mut last = out2.quality;
            for i in 0..6 {
                last = t2.process_frame(&s.image, 6 + i).quality;
            }
            assert_eq!(last, FrameQuality::Lost);
        }
    }

    #[test]
    fn worker_panic_is_recovered_and_results_match_sequential() {
        let mut plan = FaultPlan::light(3);
        plan.exec.worker_panic_jobs = vec![1];
        let policy = RecoveryPolicy::default();
        let seeds = [5u64, 6, 7];
        for (backend, delta) in cells() {
            let t = tracker_in(backend, delta);
            let (config, models) = (t.config().clone(), t.models.clone_models());
            let parallel = EyeTracker::run_sequences_parallel_with(
                &config, &models, &seeds, 8, &plan, &policy,
            );
            assert_eq!(parallel.len(), seeds.len());
            for (&seed, stats) in seeds.iter().zip(&parallel) {
                let mut fresh = EyeTracker::new(config.clone(), models.clone_models())
                    .with_faults(plan.clone())
                    .with_recovery(policy);
                let sequential = fresh.run_sequence(&mut EyeMotionGenerator::with_seed(seed), 8);
                assert_eq!(stats, &sequential, "job results must be byte-identical");
            }
        }
    }
}
