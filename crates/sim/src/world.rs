//! Contact detection: turning trajectories into the pairwise
//! contact-up / contact-down event stream that drives peer discovery.

use crate::encounter::EncounterSource;
use crate::geo::Point;
use crate::mobility::trace::Trajectory;
use crate::time::{SimDuration, SimTime};

/// Whether a contact came up or went down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContactPhase {
    /// The pair moved within communication range.
    Up,
    /// The pair moved out of communication range.
    Down,
}

/// A pairwise contact transition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContactEvent {
    /// When the transition was detected (sampled time).
    pub time: SimTime,
    /// Lower node index of the pair.
    pub a: usize,
    /// Higher node index of the pair.
    pub b: usize,
    /// Up or down.
    pub phase: ContactPhase,
    /// Distance at detection time, metres.
    pub distance_m: f64,
}

/// An interval during which a pair was continuously in range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContactInterval {
    /// Lower node index.
    pub a: usize,
    /// Higher node index.
    pub b: usize,
    /// Start of the contact.
    pub start: SimTime,
    /// End of the contact (or the simulation end for open contacts).
    pub end: SimTime,
}

impl ContactInterval {
    /// Contact duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Collapses a time-ordered contact-event stream into closed intervals;
/// contacts still open at `end` are closed there. Output is sorted by
/// `(start, a, b)`.
pub fn collapse_intervals(
    events: impl IntoIterator<Item = ContactEvent>,
    end: SimTime,
) -> Vec<ContactInterval> {
    let interval = |(a, b), start, end| ContactInterval { a, b, start, end };
    let mut open = std::collections::HashMap::new();
    let mut intervals = Vec::new();
    for ev in events {
        let pair = (ev.a, ev.b);
        match ev.phase {
            ContactPhase::Up => _ = open.insert(pair, ev.time),
            ContactPhase::Down => intervals.extend(
                open.remove(&pair)
                    .map(|start| interval(pair, start, ev.time)),
            ),
        }
    }
    for (pair, start) in open {
        intervals.push(interval(pair, start, end));
    }
    intervals.sort_by_key(|iv| (iv.start, iv.a, iv.b));
    intervals
}

/// The simulated world: node trajectories plus a communication range.
///
/// Contact detection samples all trajectories on a fixed tick and applies
/// a range threshold; this mirrors MPC's periodic Bonjour/BLE discovery
/// scans rather than instantaneous geometric intersection. This naive
/// all-pairs scan is O(n²) per tick; it stays as the reference that
/// `sos-engine`'s kernel is proven equivalent to.
#[derive(Clone, Debug)]
pub struct World {
    trajectories: Vec<Trajectory>,
    range_m: f64,
    tick: SimDuration,
}

impl World {
    /// Creates a world.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories` is empty, `range_m` is not positive, or
    /// `tick` is zero.
    pub fn new(trajectories: Vec<Trajectory>, range_m: f64, tick: SimDuration) -> World {
        assert!(!trajectories.is_empty(), "world needs nodes");
        assert!(range_m > 0.0, "range must be positive");
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        World {
            trajectories,
            range_m,
            tick,
        }
    }
}

impl EncounterSource for World {
    fn node_count(&self) -> usize {
        self.trajectories.len()
    }

    /// Scans `[start, end]` on the discovery tick and emits every contact
    /// transition, in time order.
    #[allow(clippy::needless_range_loop)] // triangular a<b pair walk
    fn encounter_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent> {
        let n = self.trajectories.len();
        let mut up = vec![vec![false; n]; n];
        let mut events = Vec::new();
        let mut t = start;
        while t <= end {
            for a in 0..n {
                let pa = self.trajectories[a].position_at(t);
                for b in (a + 1)..n {
                    let d = pa.distance(&self.trajectories[b].position_at(t));
                    let now_up = d <= self.range_m;
                    if now_up != up[a][b] {
                        up[a][b] = now_up;
                        events.push(ContactEvent {
                            time: t,
                            a,
                            b,
                            phase: if now_up {
                                ContactPhase::Up
                            } else {
                                ContactPhase::Down
                            },
                            distance_m: d,
                        });
                    }
                }
            }
            t += self.tick;
        }
        events
    }

    fn node_position(&self, node: usize, t: SimTime) -> Option<Point> {
        Some(self.trajectories[node].position_at(t))
    }

    fn range_hint_m(&self) -> Option<f64> {
        Some(self.range_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes approaching, meeting, and separating.
    fn crossing_world() -> World {
        let a = Trajectory::new(vec![
            (SimTime::ZERO, Point::new(0.0, 0.0)),
            (SimTime::from_secs(1000), Point::new(1000.0, 0.0)),
        ])
        .unwrap();
        let b = Trajectory::new(vec![
            (SimTime::ZERO, Point::new(1000.0, 0.0)),
            (SimTime::from_secs(1000), Point::new(0.0, 0.0)),
        ])
        .unwrap();
        World::new(vec![a, b], 60.0, SimDuration::from_secs(10))
    }

    #[test]
    fn crossing_nodes_meet_once() {
        let w = crossing_world();
        let events = w.encounter_events(SimTime::ZERO, SimTime::from_secs(1000));
        assert_eq!(events.len(), 2, "one up and one down: {events:?}");
        assert_eq!(events[0].phase, ContactPhase::Up);
        assert_eq!(events[1].phase, ContactPhase::Down);
        // They meet at t=500s in the middle; window is ±30 s when closing
        // at 100 m/s relative speed with a 60 m range.
        assert!(events[0].time > SimTime::from_secs(400));
        assert!(events[1].time < SimTime::from_secs(600));
    }

    #[test]
    fn intervals_match_events() {
        let w = crossing_world();
        let ivs = w.encounter_intervals(SimTime::ZERO, SimTime::from_secs(1000));
        assert_eq!(ivs.len(), 1);
        assert!(ivs[0].duration() > SimDuration::from_secs(5));
        assert_eq!((ivs[0].a, ivs[0].b), (0, 1));
    }

    #[test]
    fn stationary_pair_always_in_contact() {
        let w = World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        let ivs = w.encounter_intervals(SimTime::ZERO, SimTime::from_hours(1));
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].start, SimTime::ZERO);
        assert_eq!(ivs[0].end, SimTime::from_hours(1));
    }

    #[test]
    fn out_of_range_pair_never_in_contact() {
        let w = World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(500.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        assert!(w
            .encounter_events(SimTime::ZERO, SimTime::from_hours(1))
            .is_empty());
    }

    #[test]
    fn three_nodes_pairwise() {
        let w = World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
                Trajectory::stationary(Point::new(55.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        let ivs = w.encounter_intervals(SimTime::ZERO, SimTime::from_secs(60));
        // 0-1 (30m), 1-2 (25m), 0-2 (55m) all within 60m.
        assert_eq!(ivs.len(), 3);
    }
}
