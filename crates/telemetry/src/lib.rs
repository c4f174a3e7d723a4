//! # eyecod-telemetry
//!
//! Observability substrate for the EyeCoD pipeline: lock-light [`Counter`]s,
//! fixed-bucket [`Histogram`]s with atomic buckets (no allocation on the
//! record path), scoped [`StageTimer`] guards, and a process-wide
//! [`Registry`] whose [`Snapshot`]s serialise to JSON and merge across
//! processes.
//!
//! The paper argues EyeCoD (and its successors i-FlatCam and JaneEye)
//! entirely in per-frame stage-level numbers — Fig. 14's breakdown of
//! communication, reconstruction, segmentation and gaze estimation. This
//! crate gives the reproduction the same per-stage view of where a frame's
//! time actually goes, so every perf PR has a measured before/after story.
//!
//! ## Switches
//!
//! Telemetry is on by default and can be disabled at two levels:
//!
//! * **Compile time** — building with `--no-default-features` (dropping the
//!   `enabled` cargo feature) turns every record path into a constant no-op
//!   that the optimiser deletes entirely.
//! * **Run time** — setting `EYECOD_TELEMETRY=0` (or `off`/`false`/`no`,
//!   case-insensitive) in the environment short-circuits recording behind
//!   one relaxed atomic load; `1`/`on`/`true`/`yes` or an empty value keep
//!   it on, and any other value panics. [`set_enabled`] flips the same
//!   switch programmatically.
//!
//! ## Usage
//!
//! ```
//! use eyecod_telemetry as telemetry;
//!
//! // Counters and histograms are registered by name on first use; the
//! // `static_*!` macros cache the handle so steady-state recording is
//! // lock-free.
//! telemetry::static_counter!("demo/frames").inc();
//! {
//!     let _t = telemetry::static_histogram!("demo/stage_ns").timer();
//!     // ... timed work ...
//! }
//! let snapshot = telemetry::global().snapshot();
//! println!("{}", snapshot.to_json());
//! ```

mod metric;
mod registry;
mod snapshot;

pub use metric::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Histogram, StageTimer, BUCKETS,
};
pub use registry::{counter, global, histogram, Registry};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state runtime switch: 0 = uninitialised (read the environment),
/// 1 = enabled, 2 = disabled.
static RUNTIME_ENABLED: AtomicU8 = AtomicU8::new(0);

#[cfg(feature = "enabled")]
#[cold]
fn init_runtime_enabled() -> bool {
    let on = std::env::var_os("EYECOD_TELEMETRY")
        .and_then(|v| parse_switch("EYECOD_TELEMETRY", &v.to_string_lossy()))
        .unwrap_or(true);
    RUNTIME_ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Parses an on/off switch value: `1`/`on`/`true`/`yes` or
/// `0`/`off`/`false`/`no`, case-insensitive, or `None` for an empty value,
/// which counts as unset.
///
/// # Panics
///
/// Panics with the variable's name and value on any other spelling.
#[cfg(feature = "enabled")]
fn parse_switch(name: &str, value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "" => None,
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => panic!("bad {name} value {value:?} (want 1|on|true|yes or 0|off|false|no)"),
    }
}

/// Whether recording is live. Constant `false` when the crate is built
/// without the `enabled` feature; otherwise one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
    #[cfg(feature = "enabled")]
    {
        match RUNTIME_ENABLED.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => init_runtime_enabled(),
        }
    }
}

/// Flips the runtime switch (overriding `EYECOD_TELEMETRY`). A no-op in
/// builds without the `enabled` feature. Primarily for tests and for tools
/// like the bench reporter's `--telemetry` flag.
pub fn set_enabled(on: bool) {
    RUNTIME_ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// A [`Counter`] handle from the [`global`] registry, cached in a hidden
/// `OnceLock` so only the first execution touches the registry lock.
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(CELL.get_or_init(|| $crate::counter($name)))
    }};
}

/// A [`Histogram`] handle from the [`global`] registry, cached in a hidden
/// `OnceLock` so only the first execution touches the registry lock.
#[macro_export]
macro_rules! static_histogram {
    ($name:expr) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        ::std::sync::Arc::as_ref(CELL.get_or_init(|| $crate::histogram($name)))
    }};
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn switch_spellings_parse_case_insensitively_and_empty_means_unset() {
        for v in ["1", "on", "TRUE", "Yes"] {
            assert_eq!(parse_switch("EYECOD_TELEMETRY", v), Some(true), "{v}");
        }
        for v in ["0", "off", "FALSE", "No"] {
            assert_eq!(parse_switch("EYECOD_TELEMETRY", v), Some(false), "{v}");
        }
        assert_eq!(parse_switch("EYECOD_TELEMETRY", ""), None);
    }

    #[test]
    #[should_panic(expected = "bad EYECOD_TELEMETRY value \"disable\"")]
    fn malformed_switch_panics_with_the_variable_name() {
        parse_switch("EYECOD_TELEMETRY", "disable");
    }
}
