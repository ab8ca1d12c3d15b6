//! # sos-sim
//!
//! Deterministic simulation substrate for the SOS middleware
//! reproduction.
//!
//! The paper evaluates SOS *in vivo*: ten people carrying iPhones around
//! an ~11 km × 8 km area of Gainesville, FL for a week. This crate
//! replaces the people with a seeded, deterministic substrate:
//!
//! * [`time`] — millisecond-resolution simulated clock types
//! * [`codec`] — the bounded byte reader and the counting writer behind
//!   every binary format of the workspace (here because every crate that
//!   parses bytes already depends on this one)
//! * [`event`] — a generic discrete-event queue
//! * [`encounter`] — the [`EncounterSource`] timeline abstraction that
//!   decouples scheme evaluation from geometry (implemented by the naive
//!   [`World`] scan, `sos-engine`'s kernel and `sos-trace`'s
//!   `ContactTrace`)
//! * [`error`] — typed substrate errors ([`SimError`]): malformed
//!   external inputs surface as errors, never panics
//! * [`geo`] — a metric plane and distances
//! * [`mobility`] — trajectory generation: random waypoint, a
//!   home/campus/errand daily-schedule model with nightly sleep (the paper
//!   notes nodes are stationary 5–8 h/day), a districts+transit
//!   metropolis that scales the schedule model to city populations, and
//!   struct-of-arrays trajectory storage for million-node worlds
//! * [`radio`] — the three Multipeer Connectivity bearers and their
//!   ranges (Bluetooth, peer-to-peer WiFi, infrastructure WiFi)
//! * [`world`] — pairwise contact detection over sampled trajectories
//! * [`metrics`] — CDFs, delay and delivery-ratio recorders matching the
//!   paper's Figs. 4c and 4d
//!
//! Everything is a pure function of `(configuration, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod encounter;
pub mod error;
pub mod event;
pub mod geo;
pub mod metrics;
pub mod mobility;
pub mod radio;
pub mod time;
pub mod world;

pub use encounter::EncounterSource;
pub use error::SimError;
pub use event::EventQueue;
pub use geo::Point;
pub use metrics::{Cdf, DelayRecorder, DeliveryRecorder};
pub use radio::RadioTech;
pub use time::{SimDuration, SimTime};
pub use world::{ContactEvent, ContactInterval, ContactPhase, World};

#[cfg(test)]
mod proptests {
    use crate::encounter::EncounterSource;
    use crate::geo::{Bounds, Point};
    use crate::metrics::Cdf;
    use crate::mobility::trace::Trajectory;
    use crate::time::{SimDuration, SimTime};
    use crate::world::{ContactPhase, World};
    use proptest::prelude::*;

    fn arb_trajectory() -> impl Strategy<Value = Trajectory> {
        prop::collection::vec((0u64..10_000, 0.0f64..5_000.0, 0.0f64..5_000.0), 1..12).prop_map(
            |mut raw| {
                raw.sort_by_key(|(t, _, _)| *t);
                Trajectory::new(
                    raw.into_iter()
                        .map(|(t, x, y)| (SimTime::from_secs(t), Point::new(x, y)))
                        .collect(),
                )
                .expect("sorted non-empty waypoints")
            },
        )
    }

    proptest! {
        /// Sampled positions never leave the convex hull's bounding box.
        #[test]
        fn trajectory_stays_in_waypoint_bbox(tr in arb_trajectory(), t in 0u64..20_000) {
            let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
            for (_, p) in tr.waypoints() {
                min_x = min_x.min(p.x); max_x = max_x.max(p.x);
                min_y = min_y.min(p.y); max_y = max_y.max(p.y);
            }
            let pos = tr.position_at(SimTime::from_secs(t));
            prop_assert!(pos.x >= min_x - 1e-9 && pos.x <= max_x + 1e-9);
            prop_assert!(pos.y >= min_y - 1e-9 && pos.y <= max_y + 1e-9);
        }

        /// Per pair, contact events strictly alternate Up/Down starting
        /// with Up.
        #[test]
        fn contact_events_alternate(tra in arb_trajectory(), trb in arb_trajectory()) {
            let world = World::new(vec![tra, trb], 60.0, SimDuration::from_secs(30));
            let events = world.encounter_events(SimTime::ZERO, SimTime::from_secs(20_000));
            let mut up = false;
            for ev in events {
                match ev.phase {
                    ContactPhase::Up => {
                        prop_assert!(!up, "double up");
                        up = true;
                    }
                    ContactPhase::Down => {
                        prop_assert!(up, "down without up");
                        up = false;
                    }
                }
            }
        }

        /// Contact intervals are disjoint and ordered per pair.
        #[test]
        fn contact_intervals_disjoint(tra in arb_trajectory(), trb in arb_trajectory()) {
            let world = World::new(vec![tra, trb], 60.0, SimDuration::from_secs(30));
            let ivs = world.encounter_intervals(SimTime::ZERO, SimTime::from_secs(20_000));
            for w in ivs.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "overlapping intervals");
            }
        }

        /// CDF invariants: monotone, bounded, quantiles within range.
        #[test]
        fn cdf_invariants(samples in prop::collection::vec(0.0f64..1e6, 1..200),
                          q in 0.0f64..=1.0) {
            let cdf = Cdf::from_samples(samples.clone());
            let min = cdf.min().unwrap();
            let max = cdf.max().unwrap();
            let v = cdf.quantile(q);
            prop_assert!(v >= min && v <= max);
            prop_assert!(cdf.fraction_le(min - 1.0) == 0.0);
            prop_assert!((cdf.fraction_le(max) - 1.0).abs() < 1e-12);
            let mid = (min + max) / 2.0;
            prop_assert!(cdf.fraction_le(mid) <= cdf.fraction_le(max));
        }

        /// Bounds sampling and clamping agree.
        #[test]
        fn bounds_clamp_idempotent(x in -1e4f64..2e4, y in -1e4f64..2e4) {
            let b = Bounds::new(5_000.0, 3_000.0);
            let clamped = b.clamp(Point::new(x, y));
            prop_assert!(b.contains(&clamped));
            prop_assert_eq!(b.clamp(clamped), clamped);
        }
    }
}
