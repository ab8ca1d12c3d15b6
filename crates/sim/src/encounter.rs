//! The encounter-level abstraction: a timeline of contact transitions.
//!
//! The paper's whole argument is *in vivo* evaluation — routing schemes
//! judged on the encounter log of a real multi-week deployment, not
//! only on synthetic mobility. What a scheme actually consumes is not
//! geometry but a **timeline**: pairwise `ContactUp` / `ContactDown`
//! transitions. [`EncounterSource`] captures exactly that interface.
//!
//! It has three implementations, one per way a timeline comes to be:
//! the naive [`World`](crate::World) scan (simulated, and the reference
//! the others are tested against), `sos-engine`'s
//! `ShardedContactEngine` (simulated at scale), and `sos-trace`'s
//! `ContactTrace` (recorded, imported or synthetic) — so the experiment
//! driver is decoupled from geometry entirely and can replay a field
//! study, a CRAWDAD import, or a community-structured synthetic trace
//! through the identical code path.
//!
//! Determinism rule: the driver derives **all** connectivity and link
//! state from the event timeline (never from positions), so two sources
//! producing the same timeline produce byte-identical runs.

use crate::geo::Point;
use crate::time::SimTime;
use crate::world::{collapse_intervals, ContactEvent, ContactInterval};

/// A timeline of pairwise contact transitions over a node population.
///
/// This is the interface between *any* encounter substrate — live
/// geometric simulation, a recorded trace, a synthetic social trace —
/// and scheme evaluation. Implementations must uphold:
///
/// * events are ordered by time (ties broken arbitrarily but
///   deterministically);
/// * per pair, phases strictly alternate starting with `Up`;
/// * node indices satisfy `a < b < node_count()`.
pub trait EncounterSource {
    /// Number of nodes in the population.
    fn node_count(&self) -> usize;

    /// Every contact transition in `[start, end]`, in time order.
    ///
    /// Contacts already open at `start` must be reported as an `Up`
    /// event at `start` (mirroring the initial scan of the geometric
    /// sources), and contacts still open at `end` get no closing event.
    fn encounter_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent>;

    /// Closed contact intervals over `[start, end]`; contacts still
    /// open at `end` are closed there.
    fn encounter_intervals(&self, start: SimTime, end: SimTime) -> Vec<ContactInterval> {
        collapse_intervals(self.encounter_events(start, end), end)
    }

    /// Where `node` is at `t`, if the source knows geometry at all.
    ///
    /// Purely observational (map overlays like the paper's Fig. 4b);
    /// **never** used for connectivity decisions. Trace-backed sources
    /// return `None`.
    fn node_position(&self, node: usize, t: SimTime) -> Option<Point> {
        let _ = (node, t);
        None
    }

    /// The communication range that produced this timeline, if known.
    fn range_hint_m(&self) -> Option<f64> {
        None
    }

    /// The source's original identifier for `node`, if it has one.
    ///
    /// Imported real-world corpora carry device identifiers (sparse
    /// numeric ids, Bluetooth MACs) that were remapped to dense indices
    /// at ingestion; trace-backed sources surface the original id here
    /// so reports can name real devices. Geometric sources have no
    /// external identity and return `None`.
    fn node_label(&self, node: usize) -> Option<&str> {
        let _ = node;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::trace::Trajectory;
    use crate::time::SimDuration;
    use crate::world::World;

    fn two_node_world() -> World {
        World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        )
    }

    #[test]
    fn world_adapts_onto_encounter_source() {
        let w = two_node_world();
        let end = SimTime::from_hours(1);
        assert_eq!(w.node_count(), 2);
        let events = w.encounter_events(SimTime::ZERO, end);
        assert_eq!(events.len(), 1);
        assert_eq!(
            w.encounter_intervals(SimTime::ZERO, end),
            collapse_intervals(events, end)
        );
        assert_eq!(w.range_hint_m(), Some(60.0));
        assert_eq!(
            w.node_position(1, SimTime::ZERO),
            Some(Point::new(30.0, 0.0))
        );
    }

    #[test]
    fn generic_consumers_accept_both_views() {
        fn count_events<S: EncounterSource>(s: &S, end: SimTime) -> usize {
            s.encounter_events(SimTime::ZERO, end).len()
        }
        let w = two_node_world();
        assert_eq!(count_events(&w, SimTime::from_hours(1)), 1);
    }
}
