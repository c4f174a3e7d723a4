//! The process-wide thread pool.
//!
//! Re-exports the `eyecod-pool` crate (whose only dependency is
//! `eyecod-telemetry`) so pipeline code can say
//! `eyecod_core::pool::global().parallel_map(…)` without depending on the
//! pool crate directly.

pub use eyecod_pool::*;
