//! # sos-experiments
//!
//! The evaluation harness: rebuilds the paper's field study (§VI) on the
//! simulated substrate and regenerates every figure.
//!
//! * [`social`] — the reconstructed Fig. 4a follow digraph
//! * [`driver`] — the discrete-event network driver over `sos-sim`, and
//!   the one study plane beside it: a scenario's builder provisions a
//!   [`driver::Study`], [`driver::run_study`] runs it (with an optional
//!   observer) into a [`driver::StudyRun`], whose
//!   [`driver::RunSummary`] is the row every comparison table prints;
//!   many studies are one `sos_engine::run_replicas` over `run_study`
//! * [`scenario`] — the 10-node / 7-day / 259-post Gainesville scenario
//!   ([`scenario::field_study`] over any encounter source)
//! * [`report`] — paper-vs-measured tables, figure series, run reports,
//!   the one run-comparison table ([`report::summary_table`]) and the
//!   aligned table renderer beneath it
//! * [`density`] — conventional-simulation vs field-study density
//!   (the §VI-B discussion, extension)
//! * [`eviction`] — delivery under store eviction: holes punched by
//!   TTL/capacity limits and their recovery by the gap-aware (v2) sync
//!   protocol (extension)
//! * [`replay`] — record the field study's encounter timeline with
//!   `sos-trace`; the tape re-drives any scheme as the field study's
//!   encounter source, byte-identical to the live run (the *in vivo*
//!   evaluation loop)
//! * [`corpus`] — field studies on imported real-world corpora
//!   (CRAWDAD / Reality-Mining / SASSY via `sos_trace::corpora`):
//!   population, follow graph, and span derived from the trace itself
//!   (extension)
//! * [`metropolis`] — the million-node metropolis scaling scenario:
//!   districts-and-transit mobility streamed through the sharded
//!   contact kernel, five schemes evaluated in one pass (extension)
//! * [`observe`] — run-scoped observability: a metrics registry +
//!   event journal + span profiler bundle ([`observe::RunObserver`])
//!   that attaches to any run without changing its outcome
//!
//! Run `cargo run --release -p sos-experiments --bin repro -- all` to
//! print every reproduced figure; `repro eviction`, `corpus`, `replay`
//! and `metro` print the extension studies from the same builders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod density;
pub mod driver;
pub mod eviction;
pub mod metropolis;
pub mod observe;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod social;

pub use driver::{run_study, RunSummary, Study, StudyRun};
pub use observe::{RunObservation, RunObserver};
pub use scenario::{field_study, run_field_study, FieldStudyConfig};
