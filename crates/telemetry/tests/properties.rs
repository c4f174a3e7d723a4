//! Property and integration tests for the telemetry layer.
//!
//! Recording tests force the runtime toggle on with [`eyecod_telemetry::set_enabled`]
//! so they stay meaningful under the `EYECOD_TELEMETRY=0` CI job, and are gated
//! on the `enabled` cargo feature so `--no-default-features` builds compile.

use eyecod_telemetry::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Histogram, Snapshot, BUCKETS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in exactly the bucket whose bounds bracket it.
    #[test]
    fn bucket_bounds_bracket_every_value(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(bucket_lower_bound(i) <= v.max(1));
        prop_assert!(v <= bucket_upper_bound(i));
    }

    /// Bucket bounds tile the u64 range with no gaps or overlaps.
    #[test]
    fn bucket_bounds_tile_contiguously(i in 0usize..BUCKETS - 1) {
        prop_assert_eq!(bucket_upper_bound(i) + 1, bucket_lower_bound(i + 1));
    }
}

#[cfg(feature = "enabled")]
mod recording {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Histogram count/sum/min/max agree with a direct fold of the values.
        /// Values are bounded so the reference `sum` cannot overflow.
        #[test]
        fn histogram_totals_match_direct_fold(values in proptest::collection::vec(0u64..=u64::MAX / 64, 1..64usize)) {
            eyecod_telemetry::set_enabled(true);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let s = h.snapshot("t");
            prop_assert_eq!(s.count, values.len() as u64);
            prop_assert_eq!(s.sum, values.iter().sum::<u64>());
            prop_assert_eq!(s.min, *values.iter().min().unwrap());
            prop_assert_eq!(s.max, *values.iter().max().unwrap());
            let bucket_total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(bucket_total, s.count);
        }

        /// Snapshots survive a JSON round-trip bit-for-bit.
        #[test]
        fn snapshot_json_round_trips(values in proptest::collection::vec(any::<u64>(), 0..32)) {
            eyecod_telemetry::set_enabled(true);
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut snap = Snapshot::default();
            if h.count() > 0 {
                snap.histograms.push(h.snapshot("roundtrip_ns"));
            }
            let json = snap.to_json();
            let back = Snapshot::from_json(&json).expect("parse back");
            prop_assert_eq!(back, snap);
        }
    }

    /// Concurrent recording from pooled workers loses no observations.
    #[test]
    fn concurrent_recording_from_pool_totals_correctly() {
        eyecod_telemetry::set_enabled(true);
        let pool = eyecod_pool::ThreadPool::with_threads(4);
        let h = Histogram::new();
        let sum = AtomicU64::new(0);
        const N: usize = 10_000;
        pool.for_each_mut(&mut [(); N], |i, _| {
            h.record(i as u64);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        let s = h.snapshot("pool_ns");
        assert_eq!(s.count, N as u64);
        assert_eq!(s.sum, sum.load(Ordering::Relaxed));
        assert_eq!(s.min, 0);
        assert_eq!(s.max, (N - 1) as u64);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), N as u64);
    }

    /// Registry-level snapshot merge aggregates by name across snapshots.
    #[test]
    fn snapshot_merge_aggregates_by_name() {
        eyecod_telemetry::set_enabled(true);
        let reg_a = eyecod_telemetry::Registry::new();
        let reg_b = eyecod_telemetry::Registry::new();
        reg_a.counter("shared").add(3);
        reg_b.counter("shared").add(4);
        reg_b.counter("only_b").inc();
        reg_a.histogram("lat_ns").record(8);
        reg_b.histogram("lat_ns").record(32);
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        assert_eq!(merged.counter("shared"), Some(7));
        assert_eq!(merged.counter("only_b"), Some(1));
        let h = merged.histogram("lat_ns").expect("merged histogram");
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (8, 32));
    }
}
