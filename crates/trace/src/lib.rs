//! # sos-trace
//!
//! Contact-trace record/replay: the subsystem that turns scheme
//! evaluation from "whatever the live simulation produced" into a
//! reproducible artifact.
//!
//! The paper's contribution is *in vivo* evaluation — schemes judged
//! on the encounter log of a real multi-week deployment (Baker et al.,
//! ICDCS 2017). That requires treating the encounter timeline itself
//! as a first-class, storable, replayable object:
//!
//! * [`record`] — [`ContactTrace`], a validated encounter timeline,
//!   recordable from any [`sos_sim::EncounterSource`] and itself one,
//!   so the experiment driver replays it deterministically
//! * [`codec_text`] — the ONE/CRAWDAD-compatible text format (import
//!   published traces, diff recorded ones)
//! * [`codec_binary`] — a compact delta-encoded binary format with
//!   bit-exact round-trip guarantees
//! * [`corpora`] — importers for published real-world encounter
//!   datasets (CRAWDAD haggle/infocom `CONN` logs, Reality-Mining
//!   Bluetooth scans, SASSY ranging logs) with a sanitizer pipeline
//!   for noisy logs, node-id remapping, and gzip framing
//! * [`synthetic`] — community-structured, diurnal social-trace
//!   generation at the encounter level (no geometry required)
//! * [`analytics`] — inter-contact-time CCDF, contact durations, and
//!   the aggregate contact graph via `sos-graph`
//!
//! The determinism contract, proven end to end in
//! `sos-experiments::replay`: **record a field study, replay the
//! trace, and every routing scheme delivers the byte-identical message
//! set with byte-identical stats** — because the driver derives all
//! connectivity from the timeline, never from geometry.
//!
//! ```
//! use sos_trace::{ContactTrace, codec_binary};
//! use sos_sim::mobility::trace::Trajectory;
//! use sos_sim::{EncounterSource, Point, SimDuration, SimTime, World};
//!
//! let world = World::new(
//!     vec![
//!         Trajectory::stationary(Point::new(0.0, 0.0)),
//!         Trajectory::stationary(Point::new(30.0, 0.0)),
//!     ],
//!     60.0,
//!     SimDuration::from_secs(30),
//! );
//! let end = SimTime::from_hours(1);
//! let trace = ContactTrace::record(&world, SimTime::ZERO, end).unwrap();
//! // Serialize, reload, replay: the timeline survives unchanged.
//! let reloaded = codec_binary::from_binary(&codec_binary::to_binary(&trace)).unwrap();
//! assert_eq!(reloaded.range_hint_m(), Some(60.0));
//! assert_eq!(
//!     reloaded.encounter_events(SimTime::ZERO, end),
//!     world.encounter_events(SimTime::ZERO, end),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod codec_binary;
pub mod codec_text;
pub mod corpora;
pub mod error;
mod pair_table;
pub mod record;
mod scan;
pub mod synthetic;

pub use analytics::TraceAnalytics;
pub use error::TraceError;
pub use record::ContactTrace;
pub use synthetic::{generate_social_trace, SocialTraceConfig};
