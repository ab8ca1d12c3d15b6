//! The SOS middleware's round engine, plus the in-vivo transports that
//! carry it over real sockets.
//!
//! The ICDCS'17 paper's point is that the *same* middleware that was
//! simulated can be evaluated **in vivo** — on live devices exchanging
//! real packets. This crate makes that literal for the reproduction:
//! the simulation driver and every in-vivo transport run one engine.
//!
//! - `runtime` (crate-private) — `NodeRuntime`, the pure state
//!   machine: middleware + app behind one transport-agnostic frame
//!   surface (`push_frame` and `advertise` return the frames they emit,
//!   `on_encounter_up` / `on_encounter_down` feed it connectivity). No
//!   sockets, no clocks, no cadence, no codec, no RNG of its own; time
//!   and randomness are injected per call, and the caller says when to
//!   advertise. Its one caller is the [`host`].
//! - [`host`] — [`host::Host`], the round engine: the hosted runtimes,
//!   their per-node RNG streams and one `sos_net::Air`. It applies each
//!   schedule step and lands frames in the air's one
//!   `(to, from, send number)` round order; only frames to another
//!   process cross the wire codec. The simulation driver in
//!   `sos-experiments` is a `Host` of every node plus a
//!   [`host::Watch`] that records the paper's metrics.
//! - [`provision`] — deterministic world building: every transport
//!   rebuilds the same population (CA, keys, subscriptions, workload)
//!   from `(trace, plan)`; and [`provision::schedule`], the one owner of
//!   the advertisement cadence, whose wakes every host advertises on.
//! - [`lockstep`] — the barrier-synchronized schedule that makes a
//!   socket run reproduce the in-process run byte-for-byte, the one
//!   conductor that walks it, and the one fold of every process's
//!   reports into the [`Outcome`] both transports return.
//! - [`mesh`] — the in-process reference transport
//!   ([`mesh::run_mesh`]): one `Host` of every node on an instant air
//!   under the conductor.
//! - [`proto`] — the broker⇄daemon codec, frames between processes and
//!   typed end-of-run reports included.
//! - [`daemon`] / [`broker`] — the real-socket transport: N OS
//!   processes (`sos-node` binaries), each a `Host` of the nodes
//!   `i % N == k` on one TCP connection to a broker (`sos-broker`) that
//!   feeds them encounter events from any contact trace and relays the
//!   frames addressed to another process.

pub mod broker;
pub mod daemon;
pub mod host;
pub mod lockstep;
pub mod mesh;
pub mod proto;
pub mod provision;
mod runtime;

pub use broker::{Broker, BrokerConfig};
pub use lockstep::{build_schedule, Outcome};
pub use mesh::run_mesh;
pub use provision::{provision_apps, RunPlan};
