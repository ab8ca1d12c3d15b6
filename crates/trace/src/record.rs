//! [`ContactTrace`]: a validated, self-contained encounter timeline.
//!
//! This is the interchange value of the whole subsystem: recorders
//! produce it, codecs serialize it, the experiment driver replays it
//! (it is an [`EncounterSource`] itself), analytics summarize it.

use crate::error::TraceError;
use crate::pair_table::PairTable;
use sos_sim::world::{collapse_intervals, ContactEvent, ContactInterval, ContactPhase};
use sos_sim::{EncounterSource, SimTime};
use std::collections::BTreeMap;

/// A recorded (or synthesized, or imported) encounter timeline: every
/// pairwise contact transition of a node population over a window,
/// plus the metadata needed to re-drive an experiment from it.
///
/// Invariants (checked by [`ContactTrace::new`], upheld by every
/// constructor in this crate):
///
/// * every event satisfies `a < b < nodes`;
/// * timestamps are non-decreasing in event order;
/// * per pair, phases strictly alternate starting with `Up`;
/// * distances are finite and non-negative.
#[derive(Clone, Debug, PartialEq)]
pub struct ContactTrace {
    nodes: usize,
    range_m: Option<f64>,
    /// Original per-node device identifiers (imported corpora only):
    /// `labels[i]` is the real-world id that was remapped to index `i`.
    labels: Option<Vec<String>>,
    events: Vec<ContactEvent>,
}

impl ContactTrace {
    /// Validates and wraps an event timeline.
    pub fn new(
        nodes: usize,
        range_m: Option<f64>,
        events: Vec<ContactEvent>,
    ) -> Result<ContactTrace, TraceError> {
        ContactTrace::new_labeled(nodes, range_m, None, events)
    }

    /// Validates and wraps an event timeline together with the original
    /// device identifiers its node indices were remapped from.
    ///
    /// Labels, when present, must be one per node, non-empty, unique,
    /// and free of whitespace/control characters (they are round-tripped
    /// through the whitespace-delimited text header).
    pub fn new_labeled(
        nodes: usize,
        range_m: Option<f64>,
        labels: Option<Vec<String>>,
        events: Vec<ContactEvent>,
    ) -> Result<ContactTrace, TraceError> {
        if let Some(labels) = &labels {
            if labels.len() != nodes {
                return Err(TraceError::InvalidLabels {
                    reason: format!("{} labels for {} nodes", labels.len(), nodes),
                });
            }
            let mut seen = std::collections::BTreeSet::new();
            for label in labels {
                if label.is_empty() || label.chars().any(|c| c.is_whitespace() || c.is_control()) {
                    return Err(TraceError::InvalidLabels {
                        reason: format!("label {label:?} is empty or contains whitespace"),
                    });
                }
                if !seen.insert(label) {
                    return Err(TraceError::InvalidLabels {
                        reason: format!("duplicate label {label:?}"),
                    });
                }
            }
        }
        let mut last_time = SimTime::ZERO;
        let mut open: PairTable<bool> = PairTable::new();
        for (index, ev) in events.iter().enumerate() {
            if ev.a >= ev.b {
                return Err(TraceError::UnorderedPair { index });
            }
            if ev.b >= nodes {
                return Err(TraceError::NodeOutOfRange {
                    index,
                    node: ev.b,
                    nodes,
                });
            }
            if index > 0 && ev.time < last_time {
                return Err(TraceError::UnorderedEvents { index });
            }
            last_time = ev.time;
            if !(ev.distance_m.is_finite() && ev.distance_m >= 0.0) {
                return Err(TraceError::BadDistance { index });
            }
            let up = open.slot(ev.a, ev.b);
            match ev.phase {
                ContactPhase::Up if !*up => *up = true,
                ContactPhase::Down if *up => *up = false,
                _ => return Err(TraceError::PhaseViolation { index }),
            }
        }
        Ok(ContactTrace {
            nodes,
            range_m,
            labels,
            events,
        })
    }

    /// Records the encounter timeline of any [`EncounterSource`] over
    /// `[start, end]` — the "field study tape recorder". The recorded
    /// trace, replayed as an [`EncounterSource`] itself, reproduces the
    /// source's timeline exactly.
    pub fn record<S: EncounterSource>(
        source: &S,
        start: SimTime,
        end: SimTime,
    ) -> Result<ContactTrace, TraceError> {
        ContactTrace::new(
            source.node_count(),
            source.range_hint_m(),
            source.encounter_events(start, end),
        )
    }

    /// Number of nodes in the population.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The communication range that produced this timeline, if known.
    pub fn range_m(&self) -> Option<f64> {
        self.range_m
    }

    /// Original device identifiers, one per node index (imported
    /// corpora only; recorded and synthetic traces have none).
    pub fn node_labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// The original device identifier of `node`, if the trace carries
    /// an id mapping and `node` is in range.
    pub fn node_label(&self, node: usize) -> Option<&str> {
        self.labels.as_ref()?.get(node).map(String::as_str)
    }

    /// The full event timeline.
    pub fn events(&self) -> &[ContactEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the timeline holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the last event (`SimTime::ZERO` when empty).
    pub fn end_time(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, |ev| ev.time)
    }

    /// Closed contact intervals; contacts still open at the end of the
    /// timeline are closed at `end`.
    pub fn intervals(&self, end: SimTime) -> Vec<ContactInterval> {
        collapse_intervals(&self.events, end)
    }
}

/// Replaying the recorded timeline drives the experiment driver's event
/// kernel through the exact same schedule as the original run — which
/// is what makes record→replay byte-identical.
///
/// Windowed queries mirror the geometric sources' semantics: a contact
/// already open at the window start is reported as an `Up` at the
/// start (with its original up-distance), and contacts still open at
/// the window end get no closing event. A trace knows no geometry, so
/// `node_position` is `None`.
impl EncounterSource for ContactTrace {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn encounter_events(&self, start: SimTime, end: SimTime) -> Vec<ContactEvent> {
        if start > end {
            return Vec::new();
        }
        // State strictly before the window: pairs still open carry
        // their up-distance into a synthetic Up at `start`.
        let mut open: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let first_in = self.events.partition_point(|ev| ev.time < start);
        for ev in &self.events[..first_in] {
            match ev.phase {
                ContactPhase::Up => {
                    open.insert((ev.a, ev.b), ev.distance_m);
                }
                ContactPhase::Down => {
                    open.remove(&(ev.a, ev.b));
                }
            }
        }
        let mut out: Vec<ContactEvent> = open
            .into_iter()
            .map(|((a, b), distance_m)| ContactEvent {
                time: start,
                a,
                b,
                phase: ContactPhase::Up,
                distance_m,
            })
            .collect();
        let last_in = self.events.partition_point(|ev| ev.time <= end);
        out.extend_from_slice(&self.events[first_in..last_in]);
        out
    }

    fn range_hint_m(&self) -> Option<f64> {
        self.range_m
    }

    fn node_label(&self, node: usize) -> Option<&str> {
        ContactTrace::node_label(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sos_engine::{ShardConfig, ShardedContactEngine};
    use sos_sim::mobility::random_waypoint::RandomWaypoint;
    use sos_sim::mobility::trace::Trajectory;
    use sos_sim::{Point, SimDuration, World};

    fn ev(t_s: u64, a: usize, b: usize, phase: ContactPhase, d: f64) -> ContactEvent {
        ContactEvent {
            time: SimTime::from_secs(t_s),
            a,
            b,
            phase,
            distance_m: d,
        }
    }

    #[test]
    fn record_from_world_matches_contact_events() {
        let world = World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        let end = SimTime::from_hours(1);
        let trace = ContactTrace::record(&world, SimTime::ZERO, end).unwrap();
        assert_eq!(trace.node_count(), 2);
        assert_eq!(trace.range_m(), Some(60.0));
        assert_eq!(trace.events(), world.encounter_events(SimTime::ZERO, end));
        assert_eq!(
            trace.intervals(end),
            world.encounter_intervals(SimTime::ZERO, end)
        );
    }

    #[test]
    fn validation_rejects_bad_timelines() {
        use ContactPhase::{Down, Up};
        // Unordered pair.
        assert_eq!(
            ContactTrace::new(3, None, vec![ev(0, 2, 1, Up, 1.0)]).unwrap_err(),
            TraceError::UnorderedPair { index: 0 }
        );
        // Node out of range.
        assert_eq!(
            ContactTrace::new(2, None, vec![ev(0, 0, 5, Up, 1.0)]).unwrap_err(),
            TraceError::NodeOutOfRange {
                index: 0,
                node: 5,
                nodes: 2
            }
        );
        // Time going backwards.
        assert_eq!(
            ContactTrace::new(2, None, vec![ev(9, 0, 1, Up, 1.0), ev(3, 0, 1, Down, 1.0)])
                .unwrap_err(),
            TraceError::UnorderedEvents { index: 1 }
        );
        // Down without up / double up.
        assert_eq!(
            ContactTrace::new(2, None, vec![ev(0, 0, 1, Down, 1.0)]).unwrap_err(),
            TraceError::PhaseViolation { index: 0 }
        );
        assert_eq!(
            ContactTrace::new(2, None, vec![ev(0, 0, 1, Up, 1.0), ev(5, 0, 1, Up, 1.0)])
                .unwrap_err(),
            TraceError::PhaseViolation { index: 1 }
        );
        // NaN distance.
        assert_eq!(
            ContactTrace::new(2, None, vec![ev(0, 0, 1, Up, f64::NAN)]).unwrap_err(),
            TraceError::BadDistance { index: 0 }
        );
    }

    #[test]
    fn labels_are_validated_and_queryable() {
        let events = vec![ev(0, 0, 1, ContactPhase::Up, 1.0)];
        let labels = Some(vec!["node-7".into(), "3c:4a".into()]);
        let trace = ContactTrace::new_labeled(2, None, labels, events.clone()).unwrap();
        assert_eq!(trace.node_label(1), Some("3c:4a"));
        assert_eq!(trace.node_label(2), None);
        assert_eq!(trace.node_labels().unwrap().len(), 2);
        // Unlabeled traces answer None everywhere.
        let plain = ContactTrace::new(2, None, events.clone()).unwrap();
        assert_eq!(plain.node_label(0), None);
        // Wrong arity, whitespace, and duplicates are rejected.
        for bad in [
            vec!["a".to_string()],
            vec!["a".to_string(), "has space".to_string()],
            vec!["a".to_string(), "a".to_string()],
            vec!["a".to_string(), String::new()],
        ] {
            assert!(matches!(
                ContactTrace::new_labeled(2, None, Some(bad), events.clone()).unwrap_err(),
                TraceError::InvalidLabels { .. }
            ));
        }
    }

    /// The validator as it was before the pair table: the same checks
    /// in the same order over a `BTreeMap`. Test-only, the reference
    /// the proptest below compares [`ContactTrace::new`] against.
    fn reference_validate(nodes: usize, events: &[ContactEvent]) -> Result<(), TraceError> {
        let mut last_time = SimTime::ZERO;
        let mut open: std::collections::BTreeMap<(usize, usize), bool> = Default::default();
        for (index, ev) in events.iter().enumerate() {
            if ev.a >= ev.b {
                return Err(TraceError::UnorderedPair { index });
            }
            if ev.b >= nodes {
                let node = ev.b;
                return Err(TraceError::NodeOutOfRange { index, node, nodes });
            }
            if index > 0 && ev.time < last_time {
                return Err(TraceError::UnorderedEvents { index });
            }
            last_time = ev.time;
            if !(ev.distance_m.is_finite() && ev.distance_m >= 0.0) {
                return Err(TraceError::BadDistance { index });
            }
            let up = open.entry((ev.a, ev.b)).or_insert(false);
            match ev.phase {
                ContactPhase::Up if !*up => *up = true,
                ContactPhase::Down if *up => *up = false,
                _ => return Err(TraceError::PhaseViolation { index }),
            }
        }
        Ok(())
    }

    /// Mostly-valid timelines: each draw advances time and toggles one
    /// pair, and about one draw in forty injects a fault of some class
    /// instead, so failures land deep into the pair state.
    fn event_soup() -> impl Strategy<Value = (usize, Vec<ContactEvent>)> {
        let draw = (0usize..9, 0usize..9, 0u64..5_000, 0u32..240, 0u32..4);
        (9usize..11, prop::collection::vec(draw, 0..120)).prop_map(|(nodes, draws)| {
            let mut open = std::collections::BTreeSet::new();
            let mut now = 10_000u64;
            let mut events = Vec::with_capacity(draws.len());
            for (x, y, dt, fault, flavour) in draws {
                if x == y {
                    continue;
                }
                let (mut a, mut b) = (x.min(y), x.max(y));
                now += dt;
                let toggled_up = !open.contains(&(a, b));
                let mut up = toggled_up;
                let mut time = now;
                let mut distance_m = (dt % 97) as f64 / 2.0;
                match fault {
                    0 => up = !up, // duplicate up / orphan down
                    1 => (a, b) = (b, a),
                    2 => b = a,
                    3 => b += 9 * flavour as usize, // maybe out of range
                    4 => time = now.saturating_sub(7_000 * u64::from(flavour)),
                    5 => distance_m = [f64::NAN, -1.0, f64::INFINITY, -0.0][flavour as usize],
                    _ => {}
                }
                if fault > 5 || (fault == 5 && flavour == 3) {
                    // Valid events move the pair state the faults test.
                    if toggled_up {
                        open.insert((a, b));
                    } else {
                        open.remove(&(a, b));
                    }
                }
                events.push(ContactEvent {
                    time: SimTime::from_millis(time),
                    a,
                    b,
                    phase: if up {
                        ContactPhase::Up
                    } else {
                        ContactPhase::Down
                    },
                    distance_m,
                });
            }
            (nodes, events)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Same `Ok`, or the same error variant at the same index, as
        /// the tree-based validator it replaced.
        #[test]
        fn validation_agrees_with_the_btreemap_reference(soup in event_soup()) {
            let (nodes, events) = soup;
            let want = reference_validate(nodes, &events);
            let got = ContactTrace::new(nodes, Some(60.0), events.clone());
            match (got, want) {
                (Ok(trace), Ok(())) => prop_assert_eq!(trace.events(), &events[..]),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "{:?} vs reference {:?}", got.err(), want),
            }
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = ContactTrace::new(5, Some(60.0), Vec::new()).unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.end_time(), SimTime::ZERO);
        assert!(trace.intervals(SimTime::from_hours(1)).is_empty());
    }

    #[test]
    fn full_window_replay_is_identity() {
        use ContactPhase::{Down, Up};
        let trace = ContactTrace::new(
            3,
            Some(60.0),
            vec![
                ev(0, 0, 1, Up, 5.0),
                ev(60, 0, 1, Down, 70.0),
                ev(90, 1, 2, Up, 12.0),
            ],
        )
        .unwrap();
        assert_eq!(
            trace.encounter_events(SimTime::ZERO, SimTime::from_secs(1000)),
            trace.events()
        );
        assert_eq!(trace.range_hint_m(), Some(60.0));
        assert_eq!(EncounterSource::node_count(&trace), 3);
        // Trace sources know no geometry.
        assert_eq!(trace.node_position(0, SimTime::ZERO), None);
    }

    #[test]
    fn open_contacts_surface_as_up_at_window_start() {
        use ContactPhase::{Down, Up};
        let trace = ContactTrace::new(
            3,
            None,
            vec![
                ev(10, 0, 1, Up, 5.0), // open across the window start
                ev(20, 1, 2, Up, 9.0), // closed before the window
                ev(40, 1, 2, Down, 80.0),
                ev(100, 0, 1, Down, 75.0),
            ],
        )
        .unwrap();
        let window = trace.encounter_events(SimTime::from_secs(50), SimTime::from_secs(200));
        assert_eq!(
            window,
            vec![
                ev(50, 0, 1, Up, 5.0), // synthetic, original up-distance
                ev(100, 0, 1, Down, 75.0),
            ]
        );
        // Degenerate window.
        assert!(trace
            .encounter_events(SimTime::from_secs(9), SimTime::from_secs(5))
            .is_empty());
    }

    /// The determinism cornerstone: record any geometric source, replay
    /// the trace, and the timeline is identical — for both the naive
    /// scan and the grid kernel, which record the same tape, range
    /// included.
    #[test]
    fn record_replay_round_trip_against_geometric_sources() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let model = RandomWaypoint {
            bounds: sos_sim::geo::Bounds::new(400.0, 400.0),
            min_speed: 1.0,
            max_speed: 3.0,
            min_pause: SimDuration::ZERO,
            max_pause: SimDuration::from_secs(60),
        };
        let trajectories: Vec<Trajectory> = (0..12)
            .map(|_| model.generate(&mut rng, SimDuration::from_hours(2)))
            .collect();
        let end = SimTime::from_hours(2);
        let tick = SimDuration::from_secs(30);

        let world = World::new(trajectories.clone(), 60.0, tick);
        let engine =
            ShardedContactEngine::from_trajectories(&trajectories, 60.0, tick, ShardConfig::SINGLE);
        let from_world = ContactTrace::record(&world, SimTime::ZERO, end).unwrap();
        let from_engine = ContactTrace::record(&engine, SimTime::ZERO, end).unwrap();
        assert_eq!(from_world, from_engine, "both kernels record one tape");
        assert_eq!(from_world.range_m(), Some(60.0));
        for replay in [from_world, from_engine] {
            assert_eq!(
                replay.encounter_events(SimTime::ZERO, end),
                world.encounter_events(SimTime::ZERO, end),
                "replayed timeline must match the recorded one"
            );
            // And windows agree with interval collapsing.
            assert_eq!(
                replay.encounter_intervals(SimTime::ZERO, end),
                world.encounter_intervals(SimTime::ZERO, end)
            );
        }
    }

    #[test]
    fn recording_then_recording_the_replay_is_a_fixpoint() {
        let world = World::new(
            vec![
                Trajectory::stationary(Point::new(0.0, 0.0)),
                Trajectory::stationary(Point::new(30.0, 0.0)),
            ],
            60.0,
            SimDuration::from_secs(30),
        );
        let end = SimTime::from_hours(1);
        let once = ContactTrace::record(&world, SimTime::ZERO, end).unwrap();
        let twice: Result<ContactTrace, TraceError> =
            ContactTrace::record(&once, SimTime::ZERO, end);
        assert_eq!(twice.unwrap(), once);
    }
}
