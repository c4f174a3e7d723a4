//! Aggregate tracking metrics.

use crate::tracker::TrackedFrame;
use eyecod_eyedata::GazeVector;
use eyecod_faults::{FaultStats, FrameQuality};

/// Accumulated statistics of a tracking run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackingStats {
    /// Frames processed.
    pub frames: usize,
    /// Frames shed by a serving layer's bounded ingress queue before they
    /// entered the pipeline (accounted separately from `frames`: no stage
    /// ran on them).
    pub frames_shed: usize,
    /// Sum of per-frame angular errors (degrees).
    sum_error: f64,
    /// Frames that contributed to `sum_error` (those recorded against a
    /// ground-truth label).
    error_frames: usize,
    /// Maximum per-frame angular error (degrees).
    pub max_error_deg: f32,
    /// Number of ROI refreshes performed.
    pub roi_refreshes: usize,
    /// Frames where the gaze network emitted a degenerate vector and the
    /// tracker fell back to the previous direction.
    pub degenerate_frames: usize,
    /// Frames whose gaze forward was skipped by the motion gate (scene
    /// static within the change threshold, last-good gaze served).
    pub skipped_frames: usize,
    /// Frames graded [`FrameQuality::Ok`].
    pub frames_ok: usize,
    /// Frames graded [`FrameQuality::Degraded`].
    pub frames_degraded: usize,
    /// Frames graded [`FrameQuality::Lost`].
    pub frames_lost: usize,
    /// Cumulative fault accounting over the recorded frames.
    pub faults: FaultStats,
}

impl TrackingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one tracked frame's outcome against the ground truth,
    /// including its quality grade and fault accounting.
    pub fn record(&mut self, frame: &TrackedFrame, truth: &GazeVector) {
        self.record_parts(
            &frame.gaze,
            truth,
            frame.roi_refreshed,
            frame.gaze_degenerate,
        );
        if frame.gaze_skipped {
            self.skipped_frames += 1;
        }
        match frame.quality {
            FrameQuality::Ok => self.frames_ok += 1,
            FrameQuality::Degraded => self.frames_degraded += 1,
            FrameQuality::Lost => self.frames_lost += 1,
        }
        self.faults.absorb(&frame.faults);
    }

    /// Lower-level recording from the individual outcome parts. Quality
    /// and fault accounting are untouched — only [`TrackingStats::record`]
    /// tracks those.
    pub fn record_parts(
        &mut self,
        predicted: &GazeVector,
        truth: &GazeVector,
        roi_refreshed: bool,
        gaze_degenerate: bool,
    ) {
        let err = predicted.angular_error_degrees(truth);
        self.frames += 1;
        self.sum_error += err as f64;
        self.error_frames += 1;
        self.max_error_deg = self.max_error_deg.max(err);
        if roi_refreshed {
            self.roi_refreshes += 1;
        }
        if gaze_degenerate {
            self.degenerate_frames += 1;
        }
    }

    /// Records a tracked frame for which no ground-truth label exists (a
    /// served production frame): everything except the error terms.
    pub fn record_unlabeled(&mut self, frame: &TrackedFrame) {
        self.frames += 1;
        if frame.roi_refreshed {
            self.roi_refreshes += 1;
        }
        if frame.gaze_degenerate {
            self.degenerate_frames += 1;
        }
        if frame.gaze_skipped {
            self.skipped_frames += 1;
        }
        match frame.quality {
            FrameQuality::Ok => self.frames_ok += 1,
            FrameQuality::Degraded => self.frames_degraded += 1,
            FrameQuality::Lost => self.frames_lost += 1,
        }
        self.faults.absorb(&frame.faults);
    }

    /// Accounts one shed frame (dropped by a bounded ingress queue before
    /// any stage ran). Shed frames are not part of [`TrackingStats::frames`].
    pub fn record_shed(&mut self) {
        self.frames_shed += 1;
    }

    /// Mean angular error in degrees, over the frames recorded with a
    /// ground-truth label.
    pub fn mean_error_deg(&self) -> f32 {
        if self.error_frames == 0 {
            return 0.0;
        }
        (self.sum_error / self.error_frames as f64) as f32
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TrackingStats) {
        self.frames += other.frames;
        self.frames_shed += other.frames_shed;
        self.sum_error += other.sum_error;
        self.error_frames += other.error_frames;
        self.max_error_deg = self.max_error_deg.max(other.max_error_deg);
        self.roi_refreshes += other.roi_refreshes;
        self.degenerate_frames += other.degenerate_frames;
        self.skipped_frames += other.skipped_frames;
        self.frames_ok += other.frames_ok;
        self.frames_degraded += other.frames_degraded;
        self.frames_lost += other.frames_lost;
        self.faults.merge(&other.faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut s = TrackingStats::new();
        let a = GazeVector::from_angles(0.0, 0.0);
        let b = GazeVector::from_angles(10f32.to_radians(), 0.0);
        s.record_parts(&a, &a, true, false);
        s.record_parts(&b, &a, false, true);
        assert_eq!(s.frames, 2);
        assert_eq!(s.roi_refreshes, 1);
        assert_eq!(s.degenerate_frames, 1);
        assert!((s.mean_error_deg() - 5.0).abs() < 0.01);
        assert!((s.max_error_deg - 10.0).abs() < 0.01);
    }

    #[test]
    fn merge_combines_runs() {
        let a0 = GazeVector::from_angles(0.0, 0.0);
        let b = GazeVector::from_angles(0.1, 0.0);
        let mut a = TrackingStats::new();
        a.record_parts(&a0, &b, true, false);
        let mut c = TrackingStats::new();
        c.record_parts(&a0, &a0, false, true);
        a.merge(&c);
        assert_eq!(a.frames, 2);
        assert_eq!(a.roi_refreshes, 1);
        assert_eq!(a.degenerate_frames, 1);
    }

    #[test]
    fn merge_into_empty_accumulator_copies_the_run() {
        let a0 = GazeVector::from_angles(0.0, 0.0);
        let b = GazeVector::from_angles(12f32.to_radians(), 0.0);
        let mut run = TrackingStats::new();
        run.record_parts(&b, &a0, true, false);
        run.record_parts(&a0, &a0, false, false);

        // empty += run: identical to the run itself
        let mut acc = TrackingStats::new();
        acc.merge(&run);
        assert_eq!(acc, run);
        assert!((acc.max_error_deg - 12.0).abs() < 0.01);

        // run += empty: a no-op, max_error_deg must not regress to 0
        let before = run.clone();
        run.merge(&TrackingStats::new());
        assert_eq!(run, before);

        // max_error_deg takes the larger side regardless of merge order
        let mut small = TrackingStats::new();
        small.record_parts(&GazeVector::from_angles(0.02, 0.0), &a0, false, false);
        let mut big = before.clone();
        big.merge(&small);
        let mut other_way = small.clone();
        other_way.merge(&before);
        assert_eq!(big.max_error_deg, other_way.max_error_deg);
        assert!((big.max_error_deg - 12.0).abs() < 0.01);
        assert_eq!(big.frames, 3);
    }

    #[test]
    fn empty_stats_are_zero() {
        assert_eq!(TrackingStats::new().mean_error_deg(), 0.0);
        assert_eq!(TrackingStats::new().degenerate_frames, 0);
        assert_eq!(TrackingStats::new().frames_lost, 0);
        assert_eq!(TrackingStats::new().faults, FaultStats::default());
    }

    #[test]
    fn quality_and_fault_accounting_accumulates_and_merges() {
        use crate::roi::RoiRect;
        use eyecod_faults::FrameFaults;
        let truth = GazeVector::from_angles(0.0, 0.0);
        let frame = |quality, faults| TrackedFrame {
            gaze: truth,
            roi: RoiRect::centered(48, 48, 24, 32),
            roi_refreshed: false,
            frame: 0,
            gaze_degenerate: false,
            gaze_skipped: false,
            quality,
            faults,
            network: None,
        };
        let mut s = TrackingStats::new();
        s.record(&frame(FrameQuality::Ok, FrameFaults::default()), &truth);
        s.record(
            &frame(
                FrameQuality::Degraded,
                FrameFaults {
                    injected: 2,
                    recovered: 2,
                    unrecovered: 0,
                },
            ),
            &truth,
        );
        s.record(
            &frame(
                FrameQuality::Lost,
                FrameFaults {
                    injected: 1,
                    recovered: 0,
                    unrecovered: 1,
                },
            ),
            &truth,
        );
        assert_eq!(
            (s.frames_ok, s.frames_degraded, s.frames_lost),
            (1, 1, 1),
            "each grade counted once"
        );
        assert_eq!(s.faults.injected, 3);
        assert_eq!(s.faults.recovered, 2);
        assert_eq!(s.faults.unrecovered, 1);
        let mut merged = TrackingStats::new();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.frames_degraded, 2);
        assert_eq!(merged.faults.injected, 6);
    }
}
