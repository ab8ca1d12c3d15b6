//! # sos-obs
//!
//! The observability layer of the SOS reproduction: the instrumentation
//! the paper's *in vivo* methodology presupposes (per-node, per-session,
//! per-pipeline-stage attribution of delivery, drops, and overhead)
//! built as three small, zero-external-dependency pieces:
//!
//! * [`registry`] — named monotonic [`Counter`]s and log-bucketed
//!   [`Histogram`]s with p50/p90/p99 extraction. Handles
//!   are plain atomic cells behind `Arc`s: incrementing takes no lock
//!   and is cheap enough for the middleware's hot paths (the
//!   `sos-bench --bench obs` gate holds total instrumentation overhead
//!   to ≤ 5% on the 200-bundle encounter and trace-replay workloads).
//! * [`journal`] — a bounded ring buffer of sim-time-stamped structured
//!   [`ObsEvent`]s (session open/close with reason, bundle
//!   accept/duplicate/reject with cause, store evictions, want/serve
//!   decisions, contact up/down) scoped per node, with JSONL export:
//!   every experiment's queryable "flight recorder".
//! * [`profile`] — span-style self-profiling around the driver tick,
//!   encounter sync, the `receive_bundle` verify pipeline, the
//!   codec/import paths, and the sharded contact engine's
//!   partition/step/handoff/merge phases, aggregated into a
//!   calls/total/mean/max table.
//! * [`provenance`] — the cross-node layer on top of [`journal`]: merge
//!   every node's entries into one deterministically ordered
//!   [`GlobalTimeline`], reconstruct per-bundle propagation DAGs
//!   ([`BundlePath`]: author → relay → … → destination, with
//!   wait-vs-transfer latency splits per hop), and classify every
//!   undelivered bundle with exactly one [`DropCause`] (delivery
//!   forensics). The same walk checks the run's invariants and lists
//!   each broken one as a [`Violation`].
//!
//! ## Determinism rules
//!
//! Everything that feeds *results* is deterministic: journal timestamps
//! are [`sos_sim::SimTime`], event order is inherited from the
//! (deterministic) event loops that emit them, and attaching observers
//! never draws randomness or reorders work — the PR 4 record→replay
//! byte-identity guarantees hold with instrumentation enabled. The one
//! exception is the [`profile`] module's *durations*, which are
//! wall-clock self-measurement (call **counts** stay deterministic);
//! profiles are reported for humans and never compared byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod profile;
pub mod provenance;
pub mod registry;

pub use journal::{author_tag, Journal, JournalEntry, JournalHandle, NodeObs, ObsEvent};
pub use profile::{Profile, StageStats};
pub use provenance::{
    Arrival, BundleKey, BundlePath, Contact, DropCause, Forensics, GlobalTimeline, Provenance,
    Rule, SchemeTraits, TimelineEvent, Verdict, Violation,
};
pub use registry::{Counter, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
