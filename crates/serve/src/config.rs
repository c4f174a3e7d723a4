//! Serving-layer configuration.

use eyecod_core::tracker::{GazeBackend, TrackerConfig};

/// Configuration of a [`ServeRegistry`](crate::ServeRegistry). Plain
/// data: nothing here reads the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Geometry and scheduling shared by every hosted tracker. The
    /// per-session backend can still be overridden at create time.
    pub tracker: TrackerConfig,
    /// Hard cap on concurrently live sessions.
    pub max_sessions: usize,
    /// Bounded ingress queue depth per session; feeding past it sheds the
    /// oldest queued frame (drop-head, freshest-data-wins).
    pub queue_capacity: usize,
    /// `Some(n)`: the registry owns a dedicated pool with `n` background
    /// workers (`0` = fully sequential). `None`: use the process-global
    /// pool (`EYECOD_THREADS`).
    pub threads: Option<usize>,
}

impl ServeConfig {
    /// Defaults around a tracker configuration: 4096 sessions, queue depth
    /// 4, global pool.
    pub fn new(tracker: TrackerConfig) -> Self {
        ServeConfig {
            tracker,
            max_sessions: 4096,
            queue_capacity: 4,
            threads: None,
        }
    }

    /// Validates internal consistency, including the tracker config under
    /// every gaze backend, since any session may take any backend.
    ///
    /// # Panics
    ///
    /// Panics on a zero session cap or zero queue depth, or a tracker
    /// configuration that is invalid under some backend.
    pub fn validate(&self) {
        for gaze_backend in GazeBackend::ALL {
            TrackerConfig {
                gaze_backend,
                ..self.tracker.clone()
            }
            .validate();
        }
        assert!(self.max_sessions > 0, "max_sessions must be non-zero");
        assert!(self.queue_capacity > 0, "queue_capacity must be non-zero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_validate() {
        let cfg = ServeConfig::new(TrackerConfig::small());
        cfg.validate();
        assert_eq!(cfg.queue_capacity, 4);
        assert_eq!(cfg.max_sessions, 4096);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    #[should_panic(expected = "queue_capacity must be non-zero")]
    fn zero_queue_depth_is_rejected() {
        let mut cfg = ServeConfig::new(TrackerConfig::small());
        cfg.queue_capacity = 0;
        cfg.validate();
    }

    /// An f32 default with no int8 calibration frames would pass a
    /// default-backend check, then panic at the first int8 create.
    #[test]
    #[should_panic(expected = "int8 backend needs at least one calibration frame")]
    fn config_invalid_under_another_backend_is_rejected() {
        let mut cfg = ServeConfig::new(TrackerConfig::small());
        assert_eq!(cfg.tracker.gaze_backend, GazeBackend::F32);
        cfg.tracker.calibration_frames = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "max_sessions must be non-zero")]
    fn zero_session_cap_is_rejected() {
        let mut cfg = ServeConfig::new(TrackerConfig::small());
        cfg.max_sessions = 0;
        cfg.validate();
    }
}
