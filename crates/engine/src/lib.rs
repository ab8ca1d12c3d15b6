//! # sos-engine
//!
//! The large-scale contact-simulation subsystem: a spatial-hash
//! neighbor index and an event-driven kernel that together replace the
//! all-pairs O(n²)-per-tick contact scan of [`sos_sim::World`].
//!
//! The paper's evaluation (Baker et al., ICDCS 2017) compares routing
//! schemes over encounter workloads; its companion platform exists to
//! run *many* schemes over *many* workloads. Both need contact
//! detection that scales past toy populations. This crate provides it:
//!
//! * [`grid`] — a uniform-grid spatial hash with cell size equal to the
//!   radio range, updated incrementally as nodes move; range queries
//!   touch only the 3×3 cell neighborhood instead of every pair.
//! * the tick loop (private module `tick`) — the one contact kernel:
//!   each node schedules its own next position sample on a per-epoch
//!   wake calendar and *skips its dormant spans entirely* (the paper
//!   notes nodes are stationary 5–8 h/day), and only nodes that moved
//!   are compared, against their open contacts and their grid
//!   neighborhood — work per tick is proportional to nodes actually
//!   moving times local density.
//! * [`shard`] — [`ShardedContactEngine`], that loop partitioned into
//!   K strips stepped by scoped threads with an epoch-barrier
//!   boundary-handoff protocol; its merged stream is byte-identical for
//!   every K, so one world can use every core. [`ShardConfig::SINGLE`]
//!   is the single loop: one shard, one thread, one epoch.
//! * [`runner`] — a scoped-thread batch runner that executes many
//!   independent scenario replicas in parallel and returns their
//!   results in order, for scheme-comparison sweeps.
//!
//! The engine implements [`sos_sim::EncounterSource`], the trait the
//! experiment driver consumes, and is *exactly equivalent* to the naive
//! scan at tick resolution: same pairs, same up/down times, same
//! distances (verified by the equivalence property tests in
//! `tests/equivalence.rs`).
//!
//! ```
//! use sos_engine::{ShardConfig, ShardedContactEngine};
//! use sos_sim::mobility::trace::Trajectory;
//! use sos_sim::{EncounterSource, Point, SimDuration, SimTime};
//!
//! let a = Trajectory::stationary(Point::new(0.0, 0.0));
//! let b = Trajectory::stationary(Point::new(30.0, 0.0));
//! let engine = ShardedContactEngine::from_trajectories(
//!     &[a, b],
//!     60.0,
//!     SimDuration::from_secs(30),
//!     ShardConfig::SINGLE,
//! );
//! let intervals = engine.encounter_intervals(SimTime::ZERO, SimTime::from_hours(1));
//! assert_eq!(intervals.len(), 1);
//! assert_eq!(engine.range_hint_m(), Some(60.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod runner;
pub mod shard;
mod tick;

pub use grid::UniformGrid;
pub use runner::run_replicas;
pub use shard::{ShardConfig, ShardedContactEngine};
