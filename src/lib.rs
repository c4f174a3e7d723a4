//! # EyeCoD
//!
//! A comprehensive Rust reproduction of **"EyeCoD: Eye Tracking System
//! Acceleration via FlatCam-based Algorithm & Accelerator Co-Design"**
//! (You et al., ISCA 2022): a lensless-camera eye-tracking system with a
//! predict-then-focus algorithm pipeline and a dedicated DNN accelerator,
//! co-designed for >240 FPS real-time gaze estimation on VR/AR headsets.
//!
//! This facade crate re-exports the workspace's crates:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`tensor`] | NCHW tensors, NN operators with backward passes, optimisers, int8 quantisation |
//! | [`optics`] | FlatCam masks, sensor models, Tikhonov reconstruction, first-layer-in-mask interface |
//! | [`eyedata`] | Synthetic eye dataset: renderer, labels, gaze vectors, motion sequences |
//! | [`models`] | Full-size specs of RITNet / FBNet-C100 / ResNet18 / MobileNetV2 / U-Net + trainable proxies |
//! | [`accel`] | Cycle-level accelerator simulator (MAC lanes, SWPR buffer, orchestration, energy) |
//! | [`platforms`] | Baseline platform and communication models (EdgeCPU/CPU/EdgeGPU/GPU/CIS-GEP) |
//! | [`core`] | The predict-then-focus tracker tying acquisition, segmentation, ROI and gaze together |
//! | [`serve`] | Multi-session serving: session registry, one pooled `process_frame` per session per tick, load-shedding |
//! | [`telemetry`] | Lock-light counters and stage-latency histograms with JSON snapshot export |
//! | [`faults`] | Deterministic fault-injection plans and the recovery/degradation vocabulary |
//!
//! # Quickstart
//!
//! ```no_run
//! use eyecod::core::tracker::{EyeTracker, TrackerConfig};
//! use eyecod::core::training::{train_tracker_models, TrainingSetup};
//! use eyecod::eyedata::EyeMotionGenerator;
//!
//! // Train small proxy models on synthetic eyes (seconds).
//! let config = TrackerConfig::small();
//! let models = train_tracker_models(&TrainingSetup::quick(), &config);
//!
//! // Track a synthetic eye-motion sequence through the FlatCam pipeline.
//! let mut tracker = EyeTracker::new(config, models);
//! let mut motion = EyeMotionGenerator::with_seed(7);
//! let stats = tracker.run_sequence(&mut motion, 100);
//! println!("mean gaze error: {:.2}°", stats.mean_error_deg());
//! ```

pub use eyecod_accel as accel;
pub use eyecod_core as core;
pub use eyecod_eyedata as eyedata;
pub use eyecod_faults as faults;
pub use eyecod_models as models;
pub use eyecod_optics as optics;
pub use eyecod_platforms as platforms;
pub use eyecod_serve as serve;
pub use eyecod_telemetry as telemetry;
pub use eyecod_tensor as tensor;
