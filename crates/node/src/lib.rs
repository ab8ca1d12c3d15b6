//! Sans-I/O node runtime for the SOS middleware, plus the in-vivo
//! transports that carry it over real sockets.
//!
//! The ICDCS'17 paper's point is that the *same* middleware that was
//! simulated can be evaluated **in vivo** — on live devices exchanging
//! real packets. This crate makes that literal for the reproduction:
//!
//! - [`runtime`] — [`runtime::NodeRuntime`], the pure
//!   state machine: middleware + app behind one transport-agnostic
//!   frame surface (`push_frame` / `poll_frames` / `on_encounter_up` /
//!   `advertise`). No sockets, no clocks, no cadence, no codec, no RNG
//!   of its own; time and randomness are injected per call, and the
//!   caller says when to advertise.
//! - [`provision`] — deterministic world building: every transport
//!   rebuilds the same population (CA, keys, subscriptions, workload)
//!   from `(trace, plan)`; and [`provision::schedule`], the one owner of
//!   the advertisement cadence, whose wakes both planes advertise on.
//! - [`lockstep`] — the barrier-synchronized schedule that makes a
//!   socket run reproduce the in-process run byte-for-byte, the one
//!   conductor that walks it, and the one fold of every process's
//!   reports into the [`Outcome`] both transports return.
//! - `host` (crate-private) — the per-process round engine: hosted
//!   runtimes, per-node RNG streams, `(from, to)` sequence numbers, the
//!   wire codec at the edge and the `(to, from, seq)`-ordered exchange
//!   round.
//! - [`mesh`] — the in-process reference transport
//!   ([`mesh::run_mesh`]): one `Host` of every node under the
//!   conductor.
//! - [`proto`] — the broker⇄daemon control codec, typed end-of-run
//!   reports included.
//! - [`daemon`] / [`broker`] — the real-socket transport: N OS
//!   processes (`sos-node` binaries), each a `Host` of the nodes
//!   `i % N == k` plus TCP for the frames addressed elsewhere,
//!   conducted by a broker (`sos-broker`) that feeds them encounter
//!   events from any contact trace.
//!
//! The simulation driver in `sos-experiments` is a thin client of
//! [`runtime`]: it adds link physics (loss, delay, range) on top of the
//! same state machine the daemons run verbatim.

pub mod broker;
pub mod daemon;
mod host;
pub mod lockstep;
pub mod mesh;
pub mod proto;
pub mod provision;
pub mod runtime;

pub use broker::{Broker, BrokerConfig};
pub use lockstep::{build_schedule, Outcome};
pub use mesh::run_mesh;
pub use provision::{provision_apps, RunPlan};
pub use runtime::NodeRuntime;
