//! [`ContactTrace`]: a validated, self-contained encounter timeline.
//!
//! This is the interchange value of the whole subsystem: recorders
//! produce it, codecs serialize it, the experiment driver replays it
//! (it is an [`EncounterSource`] itself), analytics summarize it.
//!
//! # Representation and limits
//!
//! A trace keeps each transition in 24 bytes rather than the 40 of a
//! [`ContactEvent`] (two `usize` ids and a padded one-byte phase): the
//! time in milliseconds with the phase in its top bit, the distance as
//! an `f64`, and the pair as two `u32`s. [`ContactTrace::events`]
//! unpacks them one at a time into [`ContactEvent`]s. Every constructor
//! packs as it goes, so no whole-trace `Vec<ContactEvent>` is built on
//! the way, and [`ContactTrace::new`] packs the `Vec` it is given in
//! its own allocation.
//!
//! The packed form bounds what a trace can hold: at most `u32::MAX`
//! nodes, which bounds every node index too, and times below 2^63 ms
//! (about 292 million years). A value beyond these is
//! [`TraceError::Unrepresentable`], never truncated.

use crate::error::TraceError;
use crate::pair_table::PairTable;
use sos_sim::world::{collapse_intervals, ContactEvent, ContactInterval, ContactPhase};
use sos_sim::{EncounterSource, SimTime};
use std::collections::BTreeMap;

/// The phase bit of [`Packed::time_up`]: set for `Up`.
const UP: u64 = 1 << 63;

/// One transition as a trace stores it (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Packed {
    /// Milliseconds below [`UP`], the phase in [`UP`].
    time_up: u64,
    distance_m: f64,
    a: u32,
    b: u32,
}

const _: () = assert!(size_of::<Packed>() == 24);

impl Packed {
    /// Packs event `index`, or names the value the packed form cannot
    /// hold. Nothing else is checked here: [`ContactTrace`]'s
    /// constructors validate the packed timeline as a whole.
    pub(crate) fn pack(index: usize, ev: ContactEvent) -> Result<Packed, TraceError> {
        let too_large = |what, value| TraceError::Unrepresentable {
            index: Some(index),
            what,
            value,
        };
        let time = ev.time.as_millis();
        if time >= UP {
            return Err(too_large("time", time));
        }
        let node = |id: usize| u32::try_from(id).map_err(|_| too_large("node", id as u64));
        Ok(Packed {
            time_up: time | u64::from(ev.phase == ContactPhase::Up) << 63,
            distance_m: ev.distance_m,
            a: node(ev.a)?,
            b: node(ev.b)?,
        })
    }

    /// The transition as the rest of the workspace sees it.
    pub(crate) fn event(self) -> ContactEvent {
        ContactEvent {
            time: SimTime::from_millis(self.time_up & !UP),
            a: self.a as usize,
            b: self.b as usize,
            phase: [ContactPhase::Down, ContactPhase::Up][usize::from(self.time_up >= UP)],
            distance_m: self.distance_m,
        }
    }
}

/// A trace's events in timeline order, each unpacked into a
/// [`ContactEvent`] as it is read: what [`ContactTrace::events`]
/// returns. The view is its own iterator.
#[derive(Clone, Debug)]
pub struct Events<'a>(std::slice::Iter<'a, Packed>);

impl<'a> Events<'a> {
    /// A copy of this view, from where it stands: on a fresh view, every
    /// event.
    pub fn iter(&self) -> Events<'a> {
        self.clone()
    }
}

impl Iterator for Events<'_> {
    type Item = ContactEvent;

    fn next(&mut self) -> Option<ContactEvent> {
        self.0.next().copied().map(Packed::event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Events<'_> {}

/// A recorded (or synthesized, or imported) encounter timeline: every
/// pairwise contact transition of a node population over a window,
/// plus the metadata needed to re-drive an experiment from it.
///
/// Invariants (checked by [`ContactTrace::new`], upheld by every
/// constructor in this crate):
///
/// * every event satisfies `a < b < nodes`, and `nodes <= u32::MAX`;
/// * timestamps are non-decreasing in event order, and below 2^63 ms;
/// * per pair, phases strictly alternate starting with `Up`;
/// * distances are finite and non-negative.
#[derive(Clone, Debug, PartialEq)]
pub struct ContactTrace {
    nodes: usize,
    range_m: Option<f64>,
    /// Original per-node device identifiers (imported corpora only):
    /// `labels[i]` is the real-world id that was remapped to index `i`.
    labels: Option<Vec<String>>,
    /// The timeline, packed; equal traces compare distances as `f64`.
    events: Vec<Packed>,
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
    /// through the whitespace-delimited text header). Every event is
    /// packed before any is validated, so a value the packed form cannot
    /// hold is reported ahead of a timeline fault.
    pub fn new_labeled(
        nodes: usize,
        range_m: Option<f64>,
        labels: Option<Vec<String>>,
        events: Vec<ContactEvent>,
    ) -> Result<ContactTrace, TraceError> {
        // `into_iter` packs each event into the allocation it came in.
        let packed = events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| Packed::pack(i, ev));
        ContactTrace::from_packed(nodes, range_m, labels, packed.collect::<Result<_, _>>()?)
    }

    /// What every constructor ends in: validates the node count, the
    /// labels and the packed timeline, then keeps exactly the events.
    pub(crate) fn from_packed(
        nodes: usize,
        range_m: Option<f64>,
        labels: Option<Vec<String>>,
        mut events: Vec<Packed>,
    ) -> Result<ContactTrace, TraceError> {
        u32::try_from(nodes).map_err(|_| TraceError::Unrepresentable {
            index: None,
            what: "node count",
            value: nodes as u64,
        })?;
        let invalid = |reason| Err(TraceError::InvalidLabels { reason });
        if let Some(labels) = &labels {
            if labels.len() != nodes {
                return invalid(format!("{} labels for {} nodes", labels.len(), nodes));
            }
            let mut seen = std::collections::BTreeSet::new();
            for label in labels {
                if label.is_empty() || label.chars().any(|c| c.is_whitespace() || c.is_control()) {
                    return invalid(format!("label {label:?} is empty or contains whitespace"));
                }
                if !seen.insert(label) {
                    return invalid(format!("duplicate label {label:?}"));
                }
            }
        }
        let mut last_time = SimTime::ZERO;
        let mut open: PairTable<bool> = PairTable::new();
        for (index, ev) in Events(events.iter()).enumerate() {
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
        events.shrink_to_fit();
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

    /// The full event timeline, unpacked as it is read.
    pub fn events(&self) -> Events<'_> {
        Events(self.events.iter())
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
        self.events.last().map_or(SimTime::ZERO, |p| p.event().time)
    }

    /// Closed contact intervals; contacts still open at the end of the
    /// timeline are closed at `end`.
    pub fn intervals(&self, end: SimTime) -> Vec<ContactInterval> {
        collapse_intervals(self.events(), end)
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
        let first_in = self.events.partition_point(|p| p.event().time < start);
        let last_in = self.events.partition_point(|p| p.event().time <= end);
        // State strictly before the window: pairs still open carry
        // their up-distance into a synthetic Up at `start`, in pair order.
        let mut open = BTreeMap::new();
        for ev in Events(self.events[..first_in].iter()) {
            match ev.phase {
                ContactPhase::Up => open.insert((ev.a, ev.b), ContactEvent { time: start, ..ev }),
                ContactPhase::Down => open.remove(&(ev.a, ev.b)),
            };
        }
        let mut out: Vec<ContactEvent> = open.into_values().collect();
        out.extend(Events(self.events[first_in..last_in].iter()));
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
        assert_eq!(
            trace.events().collect::<Vec<_>>(),
            world.encounter_events(SimTime::ZERO, end)
        );
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
                (Ok(trace), Ok(())) => prop_assert_eq!(trace.events().collect::<Vec<_>>(), events),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "{:?} vs reference {:?}", got.err(), want),
            }
        }
    }

    proptest! {
        /// Packing then viewing gives the event back bit for bit: any
        /// time that fits, any ids, either phase and every distance bit
        /// pattern, with one case in five at an edge (the largest time,
        /// −0.0, the largest id).
        #[test]
        fn packing_then_viewing_is_the_identity(
            time in any::<u64>(),
            ids in (any::<u32>(), any::<u32>()),
            up in any::<bool>(),
            bits in any::<u64>(),
            edge in 0u32..5,
        ) {
            let time = if edge == 0 { UP - 1 } else { time & !UP };
            let distance_m = if edge == 1 { -0.0 } else { f64::from_bits(bits) };
            let a = if edge == 2 { u32::MAX } else { ids.0 };
            let ev = ContactEvent {
                time: SimTime::from_millis(time),
                a: a as usize,
                b: ids.1 as usize,
                phase: if up { ContactPhase::Up } else { ContactPhase::Down },
                distance_m,
            };
            let back = Packed::pack(7, ev).unwrap().event();
            prop_assert_eq!((back.time, back.a, back.b, back.phase), (ev.time, ev.a, ev.b, ev.phase));
            prop_assert_eq!(back.distance_m.to_bits(), distance_m.to_bits());
        }
    }

    #[test]
    fn values_the_packed_form_cannot_hold_are_named_errors() {
        let limit = |index, what, value| TraceError::Unrepresentable { index, what, value };
        let at = |time_ms, b, distance_m| ContactEvent {
            time: SimTime::from_millis(time_ms),
            a: 0,
            b,
            phase: ContactPhase::Up,
            distance_m,
        };
        assert_eq!(
            ContactTrace::new(1 << 32, None, Vec::new()).unwrap_err(),
            limit(None, "node count", 1 << 32)
        );
        assert!(ContactTrace::new(u32::MAX as usize, None, Vec::new()).is_ok());
        // The phase bit: 2^63 ms is the first time a trace cannot hold.
        for time in [UP, u64::MAX] {
            assert_eq!(
                ContactTrace::new(2, None, vec![at(time, 1, 1.0)]).unwrap_err(),
                limit(Some(0), "time", time)
            );
        }
        assert_eq!(
            ContactTrace::new(2, None, vec![at(0, 1, 1.0), at(0, 1 << 32, 1.0)]).unwrap_err(),
            limit(Some(1), "node", 1 << 32)
        );
        // The largest time that fits and a negative zero survive, and
        // equality still compares distances as `f64`.
        let edge = ContactTrace::new(2, None, vec![at(UP - 1, 1, -0.0)]).unwrap();
        let back = edge.events().next().unwrap();
        assert_eq!(back.time.as_millis(), UP - 1);
        assert_eq!(back.distance_m.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            edge,
            ContactTrace::new(2, None, vec![at(UP - 1, 1, 0.0)]).unwrap()
        );
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
            trace.events().collect::<Vec<_>>()
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
