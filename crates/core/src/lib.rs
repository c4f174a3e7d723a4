//! # eyecod-core
//!
//! The EyeCoD predict-then-focus eye-tracking pipeline (paper §4, Fig. 3),
//! assembled from the workspace substrates:
//!
//! 1. **Acquisition** — a lensless FlatCam captures the eye
//!    (`eyecod-optics`); the measurement is reconstructed by Tikhonov
//!    least squares. A lens-camera acquisition path exists for baselines.
//! 2. **ROI prediction ("predict")** — once every `roi_period` frames a
//!    segmentation network labels pupil/iris/sclera; the ROI is a rectangle
//!    anchored on the **pupil centroid** (the robust landmark, §4.3) and
//!    sized 1.5× the sclera extent.
//! 3. **Gaze estimation ("focus")** — every frame, a compact gaze network
//!    runs on the cropped ROI only and outputs a 3-D gaze vector.
//!
//! Training of the proxy networks happens in [`training`]; the synthetic
//! data comes from `eyecod-eyedata`; the hardware-side costs of the exact
//! same pipeline are simulated by `eyecod-accel`/`eyecod-platforms`.
//!
//! # Example
//!
//! ```no_run
//! use eyecod_core::tracker::{EyeTracker, TrackerConfig};
//! use eyecod_core::training::{train_tracker_models, TrainingSetup};
//!
//! let config = TrackerConfig::small();
//! let models = train_tracker_models(&TrainingSetup::quick(), &config);
//! let mut tracker = EyeTracker::new(config, models);
//! let frame = eyecod_eyedata::render::render_eye(
//!     &eyecod_eyedata::EyeParams::centered(48), 48, 7);
//! let out = tracker.process_frame(&frame.image, 0);
//! println!("gaze: {:?}, error {:.2}°",
//!          out.gaze, out.gaze.angular_error_degrees(&frame.gaze));
//! ```

pub mod acquisition;
pub mod alloc_counter;
pub mod interface;
pub mod metrics;
pub mod pool;
pub mod roi;
pub mod tracker;
pub mod training;

pub use roi::{CropStrategy, RoiRect};
pub use tracker::{EyeTracker, GazeBackend, TrackedFrame, TrackerConfig};
