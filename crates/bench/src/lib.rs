//! # sos-bench
//!
//! The benchmarks that record and gate: each `benches/*.rs` target
//! (`crypto`, `obs`, `scale`, `store_and_discovery`, `trace_replay`)
//! asserts its own ratio gates on every run and, on a full run (no
//! `SOS_BENCH_SMOKE`), rewrites one `BENCH_*.json` at the repository
//! root through [`emit`]. End-to-end numbers live in the perf ledger
//! (`examples/ledger`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;

use sos_core::routing::SchemeKind;
use sos_experiments::scenario::{small_test_config, FieldStudyConfig};

/// A one-day, low-volume field-study configuration, so that one
/// iteration of the `obs` overhead probes stays sub-second.
pub fn bench_config(scheme: SchemeKind) -> FieldStudyConfig {
    let mut cfg = small_test_config(7, scheme);
    cfg.days = 1;
    cfg.total_posts = 20;
    cfg
}
