//! The sanitizer pipeline: noisy real-world contact logs → a valid
//! [`ContactTrace`], with every repair counted instead of silent.
//!
//! Published encounter corpora are full of artifacts the strict
//! validators reject: log lines written out of order by buffered
//! collectors, self-contacts from devices scanning themselves,
//! duplicate `up`/`up` transitions from re-discovery before loss
//! detection, and contacts still open when the study ended. The
//! pipeline repairs each class deterministically:
//!
//! 1. **self-contacts** (`a == b`) are dropped;
//! 2. **bad distances** (negative, NaN, infinite) are zeroed;
//! 3. events are **stable-sorted** by timestamp (equal times keep
//!    their input order);
//! 4. per pair, a second `up` while the contact is open and a `down`
//!    while it is closed are dropped — a state machine that keeps the
//!    **first** `up` and the **first** `down` of each run, so
//!    overlapping re-detections collapse conservatively to the
//!    earliest close (interval formats wanting union semantics must
//!    pre-merge, as the Reality-Mining adapter does for scan runs);
//! 5. contacts still **open at the end** are closed at the last
//!    event's timestamp;
//! 6. original device identifiers (sparse numbers, hex MACs) are
//!    **remapped** to dense indices, preserved as node labels.
//!
//! Every step increments a [`SanitizeReport`] counter, so an import is
//! fully accounted for: no line is mutated or dropped without being
//! counted. Sanitizing is a **fixpoint**: running the pipeline on its
//! own output changes nothing and reports zero repairs (property-tested
//! in `crates/trace/tests/corpora_import.rs`).
//!
//! # What is interned where
//!
//! A log names a few hundred devices a few million times, so no step
//! above touches a device id as a string. Each adapter interns a token
//! the moment it has parsed it (`IdTable::device`) and builds `Copy`
//! `Transition`s that carry the two integers; the public
//! [`sanitize`] is the same thing for callers holding [`RawEvent`]s.
//! Steps 1–5 then run on integers, in place, in one `Vec`. Labels are
//! read again in exactly two places: `node_order` sorts the ids
//! present into [`NodeIdMap`] order — once over everything that
//! survives step 1 (the *interim* order step 4 keys on and step 5
//! closes by) and once over what survives step 5 (the final one) — and
//! step 6 copies each surviving id's label into the result.
//!
//! # Why no table order can leak
//!
//! Two hash structures sit in the pipeline, and neither is ever
//! enumerated in its own order. The id table is looked up and
//! appended to, never iterated: intern numbers follow first sight in
//! the file, and everything derived from them (ranks, labels) goes
//! through a sort of the labels. The pair table of step 4 has one
//! enumeration, `PairTable::sorted`, ascending by the interim ranks
//! it is keyed on — which is the documented order of the dangling
//! closes. `crates/trace/tests/import_golden.rs` pins the result,
//! report and close order included, against the string-keyed
//! implementation this replaced.

use crate::corpora::validate_device_id;
use crate::error::TraceError;
use crate::pair_table::PairTable;
use crate::record::{ContactTrace, Packed};
use sos_sim::world::{ContactEvent, ContactPhase};
use sos_sim::SimTime;
use std::collections::HashMap;

/// One parsed-but-unvalidated contact transition from a real-world
/// log, carrying the original device identifiers and source line.
#[derive(Clone, Debug, PartialEq)]
pub struct RawEvent {
    /// Event timestamp, milliseconds.
    pub time_ms: u64,
    /// Original identifier of the first device (any order).
    pub a: String,
    /// Original identifier of the second device (any order).
    pub b: String,
    /// Transition direction.
    pub phase: ContactPhase,
    /// Measured range, metres (0 when the format has none).
    pub distance_m: f64,
    /// 1-based source line the transition came from (0 if synthetic).
    pub line: usize,
}

/// What the sanitizer repaired or dropped, per class. All-zero means
/// the input was already a valid timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Events with `a == b`, dropped.
    pub self_contacts_dropped: usize,
    /// Events whose timestamp went backwards relative to the running
    /// maximum, repaired by the stable sort.
    pub out_of_order_events: usize,
    /// `up` events for a pair already in contact, dropped.
    pub duplicate_ups_dropped: usize,
    /// `down` events for a pair not in contact, dropped.
    pub orphan_downs_dropped: usize,
    /// Contacts still open at the end of the log, closed at the last
    /// event's timestamp (one synthetic `down` each).
    pub dangling_contacts_closed: usize,
    /// Negative/NaN/infinite distances replaced with 0.
    pub bad_distances_zeroed: usize,
    /// 1-based source lines of every dropped event (self-contacts,
    /// duplicate ups, orphan downs), in drop order — the provenance
    /// behind the counters (0 marks events with no source line).
    pub dropped_lines: Vec<usize>,
}

impl SanitizeReport {
    /// True when nothing was repaired or dropped: the input was
    /// already a valid timeline (modulo id remapping).
    pub fn is_clean(&self) -> bool {
        *self == SanitizeReport::default()
    }
}

/// The dense-index ↔ original-device-id mapping an import produced.
///
/// Indices are assigned by sorting the distinct identifiers — numeric
/// order when every id parses as an integer (so `2 < 10`), lexical
/// order otherwise — which makes the mapping a pure function of the id
/// set, independent of line order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeIdMap {
    labels: Vec<String>,
}

impl NodeIdMap {
    /// Original ids in index order (`labels()[i]` is node `i`).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The dense index assigned to an original id.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.labels.iter().position(|label| label == id)
    }
}

/// The device ids of one import, interned in order of first sight.
///
/// Every adapter hands each device token to [`IdTable::device`] as it
/// parses it and keeps the small integer; from there on the pipeline
/// compares, sorts and keys on integers, and a label is looked at
/// again only to rank the ids and to name the nodes of the result.
///
/// The lookup is std's `HashMap` with its keyed SipHash on purpose:
/// the keys are strings out of a foreign file, the map is never
/// iterated (labels live in a `Vec` in first-seen order), so no hash
/// order can reach an output.
#[derive(Default)]
pub(crate) struct IdTable {
    labels: Vec<String>,
    index: HashMap<String, u32>,
}

impl IdTable {
    /// Interns a device token an adapter has just parsed. A token not
    /// seen before must pass [`validate_device_id`] first — one that
    /// was seen has — so a malformed id is still a parse error on the
    /// first line that carries it, and every id in the table is valid.
    pub(crate) fn device(&mut self, token: &str, line: usize) -> Result<u32, TraceError> {
        if let Some(&interned) = self.index.get(token) {
            return Ok(interned);
        }
        validate_device_id(token, line)?;
        self.intern(token, line)
    }

    /// The integer standing for `id` in this import, unvalidated;
    /// `line` names the source line should the table be full.
    fn intern(&mut self, id: &str, line: usize) -> Result<u32, TraceError> {
        if let Some(&interned) = self.index.get(id) {
            return Ok(interned);
        }
        let interned = u32::try_from(self.labels.len()).map_err(|_| TraceError::Parse {
            line,
            reason: format!("more than {} distinct device ids", u32::MAX),
        })?;
        self.labels.push(id.into());
        self.index.insert(id.into(), interned);
        Ok(interned)
    }

    /// Every interned id, sorted by its label.
    fn lexical_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.labels.len())
            .filter_map(|id| u32::try_from(id).ok())
            .collect();
        order.sort_by_key(|&id| &self.labels[id as usize]);
        order
    }

    /// For each interned id, its position among all labels in lexical
    /// order: comparing two ranks is comparing the two labels. The
    /// interval adapters' tie-break sorts go through this.
    pub(crate) fn lexical_ranks(&self) -> Vec<usize> {
        invert(&self.lexical_order(), self.labels.len())
    }
}

/// `rank[id]` for every id in `order` (ids not in it keep
/// `usize::MAX`, which no pair of a live event ever looks up).
fn invert(order: &[u32], ids: usize) -> Vec<usize> {
    let mut rank = vec![usize::MAX; ids];
    for (position, &id) in order.iter().enumerate() {
        rank[id as usize] = position;
    }
    rank
}

/// [`RawEvent`] with its device ids interned: what the adapters build
/// and the pipeline runs on. `Copy`, half the size, no heap.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Transition {
    pub(crate) time_ms: u64,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) phase: ContactPhase,
    pub(crate) distance_m: f64,
    pub(crate) line: usize,
}

// Step 6 of the pipeline packs `Transition`s into the trace's events in
// place; that needs equal alignment and a source no smaller than the
// target, and without them the collection silently allocates a second
// buffer.
const _: () = assert!(align_of::<Transition>() == align_of::<Packed>());
const _: () = assert!(size_of::<Transition>() >= size_of::<Packed>());

/// The ids that `events` mention, in [`NodeIdMap`] order: lexical, or
/// numeric when every one of them parses as an integer (a stable sort
/// of the lexical order, so `"01"` stays ahead of `"1"`).
fn node_order(ids: &IdTable, events: &[Transition]) -> Vec<u32> {
    let mut present = vec![false; ids.labels.len()];
    for ev in events {
        present[ev.a as usize] = true;
        present[ev.b as usize] = true;
    }
    let mut order = ids.lexical_order();
    order.retain(|&id| present[id as usize]);
    let numeric: Option<Vec<(u64, u32)>> = order
        .iter()
        .map(|&id| Some((ids.labels[id as usize].parse::<u64>().ok()?, id)))
        .collect();
    if let Some(mut keyed) = numeric {
        keyed.sort_by_key(|&(number, _)| number);
        order = keyed.into_iter().map(|(_, id)| id).collect();
    }
    order
}

/// Runs the full sanitizer pipeline over raw transitions, producing a
/// valid labeled [`ContactTrace`], the id mapping, and the repair
/// accounting.
///
/// This is the string-keyed front for callers that hold [`RawEvent`]s
/// (tests, re-sanitizing a trace): it interns the ids and runs the one
/// pipeline the adapters call directly.
pub fn sanitize(
    raw: Vec<RawEvent>,
    range_m: Option<f64>,
) -> Result<(ContactTrace, NodeIdMap, SanitizeReport), TraceError> {
    let mut ids = IdTable::default();
    let mut interned = Vec::with_capacity(raw.len());
    for ev in &raw {
        interned.push(Transition {
            time_ms: ev.time_ms,
            a: ids.intern(&ev.a, ev.line)?,
            b: ids.intern(&ev.b, ev.line)?,
            phase: ev.phase,
            distance_m: ev.distance_m,
            line: ev.line,
        });
    }
    sanitize_interned(&ids, interned, range_m)
}

/// The pipeline itself, over transitions whose ids `ids` interned.
pub(crate) fn sanitize_interned(
    ids: &IdTable,
    mut raw: Vec<Transition>,
    range_m: Option<f64>,
) -> Result<(ContactTrace, NodeIdMap, SanitizeReport), TraceError> {
    let mut report = SanitizeReport::default();

    // 1. Self-contacts carry no encounter information; drop them
    //    (recording their source lines). Interning is exact, so equal
    //    integers are equal ids.
    raw.retain(|ev| {
        if ev.a == ev.b {
            report.self_contacts_dropped += 1;
            report.dropped_lines.push(ev.line);
            false
        } else {
            true
        }
    });

    // 2. Distances the validators would reject are zeroed ("range
    //    unknown"), matching formats that carry no range at all.
    // 3. Count how many lines a buffered collector wrote late, then
    //    stable-sort (equal timestamps keep their input order). A log
    //    with none late is already its own stable sort, so it skips the
    //    sort and the scratch buffer as long as the log that it takes.
    let mut running_max = 0u64;
    for ev in &mut raw {
        if !(ev.distance_m.is_finite() && ev.distance_m >= 0.0) {
            ev.distance_m = 0.0;
            report.bad_distances_zeroed += 1;
        }
        if ev.time_ms < running_max {
            report.out_of_order_events += 1;
        } else {
            running_max = ev.time_ms;
        }
    }
    if report.out_of_order_events > 0 {
        raw.sort_by_key(|ev| ev.time_ms);
    }

    // 4. Collapse duplicate transitions with a per-pair state machine,
    //    in place. Pairs are keyed by *interim* rank — the NodeIdMap
    //    order of every id still present, which is not the final order
    //    when an event dropped below carried the only non-numeric id —
    //    because step 5 closes dangling contacts in that order.
    let interim = node_order(ids, &raw);
    let rank = invert(&interim, ids.labels.len());
    let mut open: PairTable<Option<f64>> = PairTable::new();
    raw.retain(|ev| {
        let (x, y) = (rank[ev.a as usize], rank[ev.b as usize]);
        let contact = open.slot(x.min(y), x.max(y));
        let keep = match ev.phase {
            ContactPhase::Up if contact.is_none() => {
                *contact = Some(ev.distance_m);
                true
            }
            ContactPhase::Up => {
                report.duplicate_ups_dropped += 1;
                false
            }
            ContactPhase::Down if contact.take().is_some() => true,
            ContactPhase::Down => {
                report.orphan_downs_dropped += 1;
                false
            }
        };
        if !keep {
            report.dropped_lines.push(ev.line);
        }
        keep
    });

    // 5. Close contacts dangling past the end of the log at the last
    //    timestamp, ties ordered by pair. `sorted` is the table's only
    //    enumeration, so its slot order cannot reach the timeline.
    let end = raw.last().map_or(0, |ev| ev.time_ms);
    for ((x, y), contact) in open.sorted() {
        if let Some(distance_m) = contact {
            raw.push(Transition {
                time_ms: end,
                a: interim[x],
                b: interim[y],
                phase: ContactPhase::Down,
                distance_m,
                line: 0,
            });
            report.dangling_contacts_closed += 1;
        }
    }

    // 6. Remap ids to dense indices — from the *surviving* events only,
    //    so the node set is exactly the devices present in the final
    //    timeline (this is what makes sanitize a fixpoint: a second
    //    pass sees the same id population).
    let order = node_order(ids, &raw);
    let node = invert(&order, ids.labels.len());
    //    `into_iter` packs each `Transition` into the trace's event in
    //    the same allocation (see the guard beside `Transition`).
    let events: Vec<Packed> = raw
        .into_iter()
        .enumerate()
        .map(|(index, ev)| {
            let (x, y) = (node[ev.a as usize], node[ev.b as usize]);
            let ev = ContactEvent {
                time: SimTime::from_millis(ev.time_ms),
                a: x.min(y),
                b: x.max(y),
                phase: ev.phase,
                distance_m: ev.distance_m,
            };
            Packed::pack(index, ev)
        })
        .collect::<Result<_, _>>()?;
    let labels: Vec<String> = order
        .iter()
        .map(|&id| ids.labels[id as usize].clone())
        .collect();

    // The constructor validates the timeline again: the sanitizer's
    // output gets no trusted path into a `ContactTrace`.
    let trace = ContactTrace::from_packed(labels.len(), range_m, Some(labels.clone()), events)?;
    Ok((trace, NodeIdMap { labels }, report))
}

/// Re-expands a trace into raw events (labels as device ids), so a
/// sanitized trace can be fed back through [`sanitize`] — the fixpoint
/// check: the second pass must change nothing and report zero repairs.
pub fn raw_events_from_trace(trace: &ContactTrace) -> Vec<RawEvent> {
    let label = |i: usize| {
        trace
            .node_label(i)
            .map_or_else(|| i.to_string(), str::to_string)
    };
    trace
        .events()
        .map(|ev| RawEvent {
            time_ms: ev.time.as_millis(),
            a: label(ev.a),
            b: label(ev.b),
            phase: ev.phase,
            distance_m: ev.distance_m,
            line: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(t_ms: u64, a: &str, b: &str, phase: ContactPhase) -> RawEvent {
        RawEvent {
            time_ms: t_ms,
            a: a.into(),
            b: b.into(),
            phase,
            distance_m: 1.0,
            line: 0,
        }
    }

    #[test]
    fn pipeline_repairs_every_noise_class_and_counts_it() {
        use ContactPhase::{Down, Up};
        let mut noisy = vec![
            raw(0, "7", "3", Up),     // unnormalized order, sparse ids
            raw(1_000, "9", "9", Up), // self-contact
            raw(5_000, "3", "7", Up), // duplicate up
            raw(9_000, "3", "7", Down),
            raw(9_500, "3", "7", Down),   // orphan down
            raw(2_000, "21", "3", Up),    // out of order (after 5000)
            raw(30_000, "7", "21", Up),   // dangles to trace end
            raw(40_000, "3", "21", Down), // closes the 2000 up
        ];
        noisy[0].distance_m = f64::NAN; // bad distance
        let (trace, map, report) = sanitize(noisy, None).unwrap();
        assert_eq!(
            report,
            SanitizeReport {
                self_contacts_dropped: 1,
                out_of_order_events: 1,
                duplicate_ups_dropped: 1,
                orphan_downs_dropped: 1,
                dangling_contacts_closed: 1,
                bad_distances_zeroed: 1,
                dropped_lines: vec![0, 0, 0],
            }
        );
        assert!(!report.is_clean());
        // Ids are dense, numeric-sorted, label-preserved.
        assert_eq!(map.labels(), ["3", "7", "21"]);
        assert_eq!(map.index_of("21"), Some(2));
        assert_eq!(trace.node_count(), 3);
        assert_eq!(trace.node_label(1), Some("7"));
        // The timeline is valid by construction and fully closed.
        assert_eq!(trace.len(), 6); // 3 ups + 3 downs
        assert_eq!(trace.end_time(), SimTime::from_secs(40));
    }

    #[test]
    fn sanitize_is_a_fixpoint() {
        use ContactPhase::{Down, Up};
        let noisy = vec![
            raw(0, "b", "a", Up),
            raw(0, "b", "b", Down),
            raw(4_000, "a", "b", Down),
            raw(2_000, "c", "a", Up),
        ];
        let (once, _, first) = sanitize(noisy, Some(30.0)).unwrap();
        assert!(!first.is_clean());
        let (twice, _, second) = sanitize(raw_events_from_trace(&once), Some(30.0)).unwrap();
        assert_eq!(twice, once, "second pass must change nothing");
        assert!(second.is_clean(), "{second:?}");
    }

    #[test]
    fn mixed_alpha_ids_sort_lexically_numeric_ids_numerically() {
        use ContactPhase::Up;
        let (_, map, _) =
            sanitize(vec![raw(0, "10", "2", Up), raw(1, "2", "33", Up)], None).unwrap();
        assert_eq!(map.labels(), ["2", "10", "33"]);
        let (_, map, _) =
            sanitize(vec![raw(0, "10", "n2", Up), raw(1, "n2", "33", Up)], None).unwrap();
        assert_eq!(map.labels(), ["10", "33", "n2"]);
    }

    #[test]
    fn empty_input_sanitizes_to_an_empty_trace() {
        let (trace, map, report) = sanitize(Vec::new(), None).unwrap();
        assert!(trace.is_empty());
        assert!(map.labels().is_empty());
        assert!(report.is_clean());
    }
}
