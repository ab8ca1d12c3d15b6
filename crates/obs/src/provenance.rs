//! Cross-node causal analysis on top of the [`journal`](crate::journal):
//! global timeline merging, per-bundle propagation DAGs, and delivery
//! forensics.
//!
//! The journal answers "what did node N do"; this module answers the
//! question DTN operators actually ask: **which hop-by-hop path did each
//! bundle take, and for the ones that never arrived — why not?**
//!
//! Three layers, each built from the one below:
//!
//! 1. [`GlobalTimeline::merge`] folds every per-node [`Journal`] into
//!    one canonically ordered event stream, sorted by
//!    `(time, node, seq)` where `seq` is the per-node emission index.
//!    No hash order anywhere — the result is byte-identical across
//!    record→replay and across contact-engine shard counts, because
//!    each node's event subsequence is itself deterministic.
//! 2. [`Provenance::build`] replays the timeline once, reconstructing
//!    contact intervals and a [`BundlePath`] per bundle: the author →
//!    relay → … → destination DAG, each hop tagged with the contact it
//!    rode, the hop count, and a wait-vs-transfer latency split. The
//!    same walk checks the run's invariants ([`Rule`]) and lists every
//!    entry that breaks one as a [`Violation`].
//! 3. [`Provenance::classify`] runs delivery forensics: every authored
//!    bundle gets exactly one [`Verdict`], and every undelivered bundle
//!    exactly one root-cause [`DropCause`] — including the honest
//!    [`DropCause::JournalTruncated`] when the ring overflowed, rather
//!    than guessing from a partial record.
//!
//! Everything here is pure analysis over immutable snapshots: it runs
//! *after* the experiment, so it adds zero overhead to instrumented
//! runs and inherits the journal's determinism guarantees wholesale.

use crate::journal::{Journal, ObsEvent};
use sos_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// One event on the merged global timeline: a journal entry plus the
/// per-node emission index (`seq`) that makes the sort key
/// `(time, node, seq)` a total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Sim time the event happened.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: u32,
    /// Emission index *within this node's event stream* (0-based).
    pub seq: u64,
    /// The event itself.
    pub event: ObsEvent,
}

impl TimelineEvent {
    /// The canonical ordering key: `(time, node, seq)`. The merged
    /// timeline is strictly increasing in this key.
    pub fn sort_key(&self) -> (u64, u32, u64) {
        (self.time.as_millis(), self.node, self.seq)
    }

    /// Renders the event as one JSONL line (entry fields plus `seq`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"t_ms":{},"node":{},"seq":{},"event":"{}""#,
            self.time.as_millis(),
            self.node,
            self.seq,
            self.event.kind()
        );
        self.event.fields_jsonl(&mut out);
        out.push('}');
        out
    }
}

/// All per-node journals of a run merged into one deterministically
/// ordered event stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalTimeline {
    events: Vec<TimelineEvent>,
    dropped: u64,
    end: SimTime,
}

impl GlobalTimeline {
    /// Merges journals into one timeline sorted by `(time, node, seq)`.
    ///
    /// `seq` is assigned per node in each journal's retention order, so
    /// two runs whose per-node event subsequences match produce
    /// byte-identical timelines regardless of how the events were
    /// interleaved across journals (or contact-engine shards) at record
    /// time. `dropped` counts are summed; when nonzero the timeline is
    /// a *suffix* of the run and forensics reports
    /// [`DropCause::JournalTruncated`].
    pub fn merge<'a, I>(journals: I) -> GlobalTimeline
    where
        I: IntoIterator<Item = &'a Journal>,
    {
        let mut events = Vec::new();
        let mut next_seq: BTreeMap<u32, u64> = BTreeMap::new();
        let mut dropped = 0u64;
        let mut end = SimTime::from_millis(0);
        for journal in journals {
            dropped += journal.dropped();
            for entry in journal.entries() {
                let seq = next_seq.entry(entry.node).or_insert(0);
                events.push(TimelineEvent {
                    time: entry.time,
                    node: entry.node,
                    seq: *seq,
                    event: entry.event.clone(),
                });
                *seq += 1;
                if entry.time > end {
                    end = entry.time;
                }
            }
        }
        events.sort_by_key(|e| e.sort_key());
        GlobalTimeline {
            events,
            dropped,
            end,
        }
    }

    /// The merged events, in canonical `(time, node, seq)` order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Total entries the source journals dropped to capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Timestamp of the last event (the analysis horizon).
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Number of merged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were merged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the whole timeline as JSONL, one event per line, in
    /// canonical order — byte-identical across replay and shard counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

/// Identity of one bundle: the author tag plus the author-assigned
/// message number (mirrors `sos_core::MessageId` without the type
/// dependency).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BundleKey {
    /// Author tag ([`crate::author_tag`] of the posting user).
    pub author: u128,
    /// Author-assigned message number.
    pub seq: u64,
}

impl fmt::Display for BundleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The tag packs the 10 ASCII bytes of the user id
        // little-endian; render them back when printable.
        let bytes = self.author.to_le_bytes();
        let name = &bytes[..10];
        if name
            .iter()
            .all(|b| b.is_ascii_graphic() || *b == b' ' || *b == 0)
        {
            let text: String = name
                .iter()
                .take_while(|b| **b != 0)
                .map(|b| *b as char)
                .collect();
            write!(f, "{text}#{}", self.seq)
        } else {
            write!(f, "{:032x}#{}", self.author, self.seq)
        }
    }
}

/// One contact interval between two nodes, reconstructed from
/// `ContactUp`/`ContactDown` journal events (`a < b`; still-open
/// contacts are closed at the timeline's end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contact {
    /// Lower node id of the pair.
    pub a: u32,
    /// Higher node id of the pair.
    pub b: u32,
    /// When the contact came up.
    pub up: SimTime,
    /// When it went down (or the timeline ended).
    pub down: SimTime,
}

/// One hop of a bundle's propagation DAG: the first verified arrival of
/// the bundle at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// When the accept happened.
    pub at: SimTime,
    /// Hop count of the received copy (after this hop).
    pub hops: u32,
    /// The transfer edge's source node (sending peer).
    pub from: u32,
    /// Milliseconds the copy sat on the sender before the carrying
    /// contact came up (custody wait).
    pub wait_ms: u64,
    /// Milliseconds between the carrying contact coming up (or the
    /// sender acquiring the copy, whichever is later) and the accept
    /// (transfer latency).
    pub transfer_ms: u64,
    /// Whether the receiving node kept a copy (custody) or only
    /// surfaced the bundle to its application.
    pub stored: bool,
}

/// The reconstructed propagation state of one bundle: author → relay →
/// … → destination edges plus custody and eviction history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BundlePath {
    /// Node that authored the bundle (`None` when the post event fell
    /// out of a truncated journal).
    pub origin: Option<u32>,
    /// When it was posted.
    pub posted: Option<SimTime>,
    /// First verified arrival per node (the DAG's edges: follow
    /// [`Arrival::from`] pointers back to the origin).
    pub arrivals: BTreeMap<u32, Arrival>,
    /// Nodes that evicted their copy, with the eviction cause
    /// (`"ttl"` or `"capacity"`).
    pub evicted: BTreeMap<u32, &'static str>,
    /// Nodes currently holding a stored copy (custody) at timeline end.
    pub custody: BTreeSet<u32>,
    /// Every node that ever held a stored copy (origin included).
    pub stored_ever: BTreeSet<u32>,
    /// Whether any node rejected a copy of this bundle.
    pub rejected: bool,
}

impl BundlePath {
    /// The hop chain `origin → … → node`, or `None` when `node` never
    /// received the bundle or the chain's root fell out of a truncated
    /// journal.
    pub fn path_to(&self, node: u32) -> Option<Vec<u32>> {
        let origin = self.origin?;
        if node == origin {
            return Some(vec![node]);
        }
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(arrival) = self.arrivals.get(&cur) {
            chain.push(arrival.from);
            cur = arrival.from;
            if cur == origin {
                chain.reverse();
                return Some(chain);
            }
            if chain.len() > self.arrivals.len() + 1 {
                return None; // inconsistent record; refuse to loop
            }
        }
        None
    }

    /// End-to-end latency (post → first arrival at `node`) in
    /// milliseconds.
    pub fn latency_ms_to(&self, node: u32) -> Option<u64> {
        let arrival = self.arrivals.get(&node)?;
        Some(
            arrival
                .at
                .as_millis()
                .saturating_sub(self.posted?.as_millis()),
        )
    }
}

/// Root cause assigned to an undelivered bundle.
///
/// Declaration order is the classification precedence (derived `Ord`):
/// when a bundle missed several destinations for different reasons, the
/// *smallest* cause wins the per-bundle rollup.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropCause {
    /// The journal ring overflowed ([`Journal::dropped`] nonzero), so
    /// the record is a suffix of the run — reported honestly instead of
    /// guessing a cause from partial evidence.
    JournalTruncated,
    /// A copy of the bundle was rejected by the security pipeline
    /// (forged duplicate, equivocation, or signature failure).
    SecurityRejected,
    /// No time-respecting contact path existed from the origin to the
    /// destination between posting and the end of the run — no routing
    /// scheme could have delivered it.
    NoContactPath,
    /// Every custodian copy was evicted by TTL expiry before the
    /// destination was reached.
    TtlExpired,
    /// Every custodian copy was evicted (at least one to capacity
    /// pressure) before the destination was reached.
    EvictedEverywhere,
    /// A spray-limited scheme spent its copy budget on relays that
    /// never met the destination.
    CopiesExhausted,
    /// A time-respecting path existed and copies survived, but the
    /// routing scheme never exercised the path (interest or social
    /// filtering declined the hops).
    UnusedContactPath,
}

impl DropCause {
    /// Every cause, in precedence order (for report tables).
    pub const ALL: [DropCause; 7] = [
        DropCause::JournalTruncated,
        DropCause::SecurityRejected,
        DropCause::NoContactPath,
        DropCause::TtlExpired,
        DropCause::EvictedEverywhere,
        DropCause::CopiesExhausted,
        DropCause::UnusedContactPath,
    ];

    /// Stable snake_case label (for tables and JSONL).
    pub fn label(&self) -> &'static str {
        match self {
            DropCause::JournalTruncated => "journal_truncated",
            DropCause::SecurityRejected => "security_rejected",
            DropCause::NoContactPath => "no_contact_path",
            DropCause::TtlExpired => "ttl_expired",
            DropCause::EvictedEverywhere => "evicted_everywhere",
            DropCause::CopiesExhausted => "copies_exhausted",
            DropCause::UnusedContactPath => "unused_contact_path",
        }
    }
}

/// What the forensics classifier needs to know about the routing scheme
/// under analysis (the obs layer cannot see `SchemeKind` itself —
/// `sos-experiments` maps schemes to traits).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeTraits {
    /// The scheme forwards a bounded number of copies
    /// (spray-and-wait): undelivered-but-reachable bundles classify as
    /// [`DropCause::CopiesExhausted`].
    pub spray_limited: bool,
    /// The scheme only delivers on direct origin↔destination contact:
    /// reachability ignores multi-hop paths.
    pub direct_only: bool,
}

/// Per-bundle outcome of [`Provenance::classify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every destination received the bundle (vacuously true for
    /// bundles with no destinations).
    Delivered,
    /// At least one destination missed it; the dominant root cause
    /// across the missed destinations.
    Undelivered(DropCause),
}

/// The forensics classification of one run: exactly one [`Verdict`] per
/// authored bundle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forensics {
    /// Verdict per authored bundle, keyed by bundle identity.
    pub verdicts: BTreeMap<BundleKey, Verdict>,
    /// Total (bundle, destination) delivery obligations examined.
    pub targets: u64,
    /// Obligations that were met (destination received the bundle).
    pub reached: u64,
    /// Journal entries lost to ring overflow (nonzero ⇒ every verdict
    /// is [`DropCause::JournalTruncated`]).
    pub truncated: u64,
}

impl Forensics {
    /// Bundles classified (every authored bundle in the record).
    pub fn authored(&self) -> usize {
        self.verdicts.len()
    }

    /// Bundles that reached every destination.
    pub fn delivered(&self) -> usize {
        self.verdicts
            .values()
            .filter(|v| matches!(v, Verdict::Delivered))
            .count()
    }

    /// Bundles that missed at least one destination.
    pub fn undelivered(&self) -> usize {
        self.authored() - self.delivered()
    }

    /// Undelivered-bundle counts per root cause, in precedence order
    /// (causes with zero bundles omitted).
    pub fn cause_counts(&self) -> Vec<(DropCause, u64)> {
        let mut map = BTreeMap::new();
        for v in self.verdicts.values() {
            if let Verdict::Undelivered(cause) = v {
                *map.entry(*cause).or_insert(0u64) += 1;
            }
        }
        map.into_iter().collect()
    }

    /// `delivered + root-caused undelivered = authored`: true by
    /// construction, since every verdict is one of the two variants, so
    /// it checks nothing about a run. The record's invariants are
    /// [`Provenance::violations`].
    pub fn accounts_for_everything(&self) -> bool {
        self.delivered() + self.undelivered() == self.authored()
    }
}

/// An invariant of a run's record, checked by [`Provenance::build`] as
/// it walks the timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// The record is the whole run: no journal dropped an entry.
    Complete,
    /// Per `(node, peer)`, `SessionOpen` and `SessionClose` alternate,
    /// starting with an open.
    SessionsAlternate,
    /// Every bundle accept, duplicate or reject from a peer, and every
    /// want sent or want served to one, falls inside the node's open
    /// session with that peer.
    InSession,
    /// An accepted bundle was posted earlier on the timeline.
    PostedFirst,
    /// A node holds a bundle from its post or a stored accept until its
    /// eviction; it accepts no bundle it holds and evicts none it does
    /// not hold.
    Holdings,
    /// An accept from the origin has 1 hop; one from a relay has at
    /// least 2, and at most one more than the relay's own first
    /// arrival.
    Hops,
}

impl Rule {
    /// Stable snake_case label (for reports).
    fn label(&self) -> &'static str {
        match self {
            Rule::Complete => "complete",
            Rule::SessionsAlternate => "sessions_alternate",
            Rule::InSession => "in_session",
            Rule::PostedFirst => "posted_first",
            Rule::Holdings => "holdings",
            Rule::Hops => "hops",
        }
    }
}

/// One broken invariant: the rule, and the timeline entry (time, node
/// and event) that broke it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The invariant broken.
    pub rule: Rule,
    /// The entry that broke it. For [`Rule::Complete`], the first entry
    /// the truncated record retained.
    pub entry: TimelineEvent,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule.label(), self.entry.to_jsonl())
    }
}

/// The full provenance reconstruction of one run: contact intervals
/// plus a [`BundlePath`] per bundle, with the forensics classifier on
/// top, and every invariant the record breaks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Propagation state per bundle, in key order.
    pub paths: BTreeMap<BundleKey, BundlePath>,
    /// Reconstructed contact intervals, sorted by `(up, down, a, b)`.
    pub contacts: Vec<Contact>,
    /// Journal entries lost to ring overflow across the merged
    /// journals.
    pub dropped: u64,
    /// The analysis horizon (timestamp of the last merged event).
    pub end: SimTime,
    /// Every entry that breaks a [`Rule`], in walk order: empty on a
    /// sound record.
    pub violations: Vec<Violation>,
    /// The `(node, peer)` sessions still open at the timeline's end.
    pub open_sessions: BTreeSet<(u32, u32)>,
}

fn pair(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl Provenance {
    /// Replays a merged timeline once, reconstructing contact intervals
    /// and per-bundle propagation DAGs, and checking every [`Rule`] on
    /// the way.
    pub fn build(timeline: &GlobalTimeline) -> Provenance {
        let mut open: BTreeMap<(u32, u32), SimTime> = BTreeMap::new();
        let mut contacts: Vec<Contact> = Vec::new();
        let mut paths: BTreeMap<BundleKey, BundlePath> = BTreeMap::new();
        let mut sessions: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut violations = Vec::new();
        if timeline.dropped() > 0 {
            if let Some(first) = timeline.events().first() {
                violations.push(Violation {
                    rule: Rule::Complete,
                    entry: first.clone(),
                });
            }
        }
        for ev in timeline.events() {
            let mut broken = |rule: Rule, holds: bool| {
                if !holds {
                    violations.push(Violation {
                        rule,
                        entry: ev.clone(),
                    });
                }
            };
            match &ev.event {
                ObsEvent::SessionOpen { peer, .. } => {
                    broken(Rule::SessionsAlternate, sessions.insert((ev.node, *peer)));
                }
                ObsEvent::SessionClose { peer, .. } => {
                    broken(Rule::SessionsAlternate, sessions.remove(&(ev.node, *peer)));
                }
                ObsEvent::WantSent { peer, .. }
                | ObsEvent::Served { peer, .. }
                | ObsEvent::BundleDuplicate { from: peer, .. } => {
                    broken(Rule::InSession, sessions.contains(&(ev.node, *peer)));
                }
                ObsEvent::ContactUp { a, b } => {
                    open.entry(pair(*a, *b)).or_insert(ev.time);
                }
                ObsEvent::ContactDown { a, b } => {
                    if let Some(up) = open.remove(&pair(*a, *b)) {
                        let (a, b) = pair(*a, *b);
                        contacts.push(Contact {
                            a,
                            b,
                            up,
                            down: ev.time,
                        });
                    }
                }
                ObsEvent::BundlePost { author, seq } => {
                    let path = paths
                        .entry(BundleKey {
                            author: *author,
                            seq: *seq,
                        })
                        .or_default();
                    if path.posted.is_none() {
                        path.origin = Some(ev.node);
                        path.posted = Some(ev.time);
                    }
                    path.custody.insert(ev.node);
                    path.stored_ever.insert(ev.node);
                }
                ObsEvent::BundleAccept {
                    from,
                    author,
                    seq,
                    hops,
                    stored,
                    carried: _,
                } => {
                    broken(Rule::InSession, sessions.contains(&(ev.node, *from)));
                    let path = paths
                        .entry(BundleKey {
                            author: *author,
                            seq: *seq,
                        })
                        .or_default();
                    broken(Rule::PostedFirst, path.posted.is_some());
                    broken(Rule::Holdings, !path.custody.contains(&ev.node));
                    let hops_follow_the_dag = match path.origin {
                        Some(origin) if origin == *from => *hops == 1,
                        Some(_) => path
                            .arrivals
                            .get(from)
                            .is_some_and(|relay| (2..=relay.hops.saturating_add(1)).contains(hops)),
                        None => true, // the missing post is the violation
                    };
                    broken(Rule::Hops, hops_follow_the_dag);
                    let now = ev.time.as_millis();
                    // When the sender acquired its copy: post time for
                    // the origin, its own first arrival for a relay.
                    let acquired = if path.origin == Some(*from) {
                        path.posted
                    } else {
                        path.arrivals.get(from).map(|a| a.at).or(path.posted)
                    }
                    .map(|t| t.as_millis())
                    .unwrap_or(now);
                    let (wait_ms, transfer_ms) = match open.get(&pair(*from, ev.node)) {
                        Some(up) => {
                            let up = up.as_millis();
                            (
                                up.saturating_sub(acquired),
                                now.saturating_sub(acquired.max(up)),
                            )
                        }
                        // No open contact on record (tick-granularity
                        // ordering): attribute the whole delay to wait.
                        None => (now.saturating_sub(acquired), 0),
                    };
                    path.arrivals.entry(ev.node).or_insert(Arrival {
                        at: ev.time,
                        hops: *hops,
                        from: *from,
                        wait_ms,
                        transfer_ms,
                        stored: *stored,
                    });
                    if *stored {
                        path.custody.insert(ev.node);
                        path.stored_ever.insert(ev.node);
                    }
                }
                ObsEvent::BundleReject {
                    from, author, seq, ..
                } => {
                    broken(Rule::InSession, sessions.contains(&(ev.node, *from)));
                    paths
                        .entry(BundleKey {
                            author: *author,
                            seq: *seq,
                        })
                        .or_default()
                        .rejected = true;
                }
                ObsEvent::BundleEvict { author, seq, cause } => {
                    let path = paths
                        .entry(BundleKey {
                            author: *author,
                            seq: *seq,
                        })
                        .or_default();
                    broken(Rule::Holdings, path.custody.remove(&ev.node));
                    path.evicted.insert(ev.node, cause);
                }
                ObsEvent::StoreEvict { .. } => {}
            }
        }
        let end = timeline.end();
        for ((a, b), up) in open {
            contacts.push(Contact {
                a,
                b,
                up,
                down: end,
            });
        }
        contacts.sort_by_key(|c| (c.up, c.down, c.a, c.b));
        Provenance {
            paths,
            contacts,
            dropped: timeline.dropped(),
            end,
            violations,
            open_sessions: sessions,
        }
    }

    /// Time-respecting reachability: could a copy leaving `from` at
    /// `start` have reached `to` over the reconstructed contact
    /// intervals before the analysis horizon?
    ///
    /// Runs earliest-arrival relaxation to a fixpoint — a single pass
    /// over start-sorted intervals is *not* enough, because a long
    /// interval that came up early can carry a copy acquired much later
    /// (the copy waits inside the interval).
    ///
    /// With `direct_only`, only intervals between `from` and `to`
    /// themselves count (Direct scheme semantics).
    pub fn reachable(&self, from: u32, to: u32, start: SimTime, direct_only: bool) -> bool {
        if from == to {
            return true;
        }
        let horizon = self.end.as_millis();
        let mut earliest: BTreeMap<u32, u64> = BTreeMap::new();
        earliest.insert(from, start.as_millis());
        loop {
            let mut changed = false;
            for c in &self.contacts {
                if direct_only && pair(c.a, c.b) != pair(from, to) {
                    continue;
                }
                let up = c.up.as_millis();
                let down = c.down.as_millis().min(horizon);
                for (src, dst) in [(c.a, c.b), (c.b, c.a)] {
                    let Some(&at_src) = earliest.get(&src) else {
                        continue;
                    };
                    let meet = at_src.max(up);
                    if meet <= down {
                        let slot = earliest.entry(dst).or_insert(u64::MAX);
                        if meet < *slot {
                            *slot = meet;
                            changed = true;
                        }
                    }
                }
            }
            if earliest.contains_key(&to) {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }

    /// Delivery forensics: classify every authored bundle.
    ///
    /// `destinations` maps an origin *node* to the nodes that should
    /// receive its bundles (interested followers). `traits` describes
    /// the routing scheme under analysis. Exactly one [`Verdict`] per
    /// authored bundle; bundles whose post event fell out of a
    /// truncated ring cannot be enumerated and are covered by the
    /// blanket [`DropCause::JournalTruncated`] downgrade.
    pub fn classify(
        &self,
        destinations: &BTreeMap<u32, Vec<u32>>,
        traits: SchemeTraits,
    ) -> Forensics {
        let mut verdicts = BTreeMap::new();
        let mut targets = 0u64;
        let mut reached = 0u64;
        for (key, path) in &self.paths {
            let (Some(origin), Some(posted)) = (path.origin, path.posted) else {
                continue; // not authored within the retained window
            };
            let dests = destinations.get(&origin).map(Vec::as_slice).unwrap_or(&[]);
            let mut worst: Option<DropCause> = None;
            for &dest in dests {
                if dest == origin {
                    continue;
                }
                targets += 1;
                if path.arrivals.contains_key(&dest) {
                    reached += 1;
                    continue;
                }
                let cause = self.cause_for(path, origin, posted, dest, traits);
                worst = Some(match worst {
                    Some(w) => w.min(cause),
                    None => cause,
                });
            }
            verdicts.insert(
                *key,
                match worst {
                    None => Verdict::Delivered,
                    Some(cause) => Verdict::Undelivered(cause),
                },
            );
        }
        Forensics {
            verdicts,
            targets,
            reached,
            truncated: self.dropped,
        }
    }

    fn cause_for(
        &self,
        path: &BundlePath,
        origin: u32,
        posted: SimTime,
        dest: u32,
        traits: SchemeTraits,
    ) -> DropCause {
        if self.dropped > 0 {
            return DropCause::JournalTruncated;
        }
        if path.rejected {
            return DropCause::SecurityRejected;
        }
        if !self.reachable(origin, dest, posted, traits.direct_only) {
            return DropCause::NoContactPath;
        }
        let relays: Vec<u32> = path
            .stored_ever
            .iter()
            .copied()
            .filter(|n| *n != origin)
            .collect();
        let all_copies_gone = !path.evicted.is_empty() && path.custody.is_empty();
        let relays_all_evicted =
            !relays.is_empty() && relays.iter().all(|n| path.evicted.contains_key(n));
        if all_copies_gone || relays_all_evicted {
            if path.evicted.values().all(|cause| *cause == "ttl") {
                return DropCause::TtlExpired;
            }
            return DropCause::EvictedEverywhere;
        }
        if traits.spray_limited {
            return DropCause::CopiesExhausted;
        }
        DropCause::UnusedContactPath
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{author_tag, JournalEntry};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn entry(ms: u64, node: u32, event: ObsEvent) -> JournalEntry {
        JournalEntry {
            time: t(ms),
            node,
            event,
        }
    }

    fn key() -> BundleKey {
        BundleKey {
            author: author_tag(b"alice-0001"),
            seq: 1,
        }
    }

    fn accept(from: u32, seq: u64, hops: u32) -> ObsEvent {
        ObsEvent::BundleAccept {
            from,
            author: key().author,
            seq,
            hops,
            stored: true,
            carried: 1,
        }
    }

    fn open(peer: u32) -> ObsEvent {
        ObsEvent::SessionOpen {
            peer,
            initiated: true,
            resumed: false,
        }
    }

    fn close(peer: u32) -> ObsEvent {
        ObsEvent::SessionClose {
            peer,
            reason: "done",
        }
    }

    /// nodes: 0 author, 1 relay, 2 destination, 3 isolated. Each
    /// receiver browses its sender in a session of its own.
    fn relay_journal() -> Journal {
        let author = key().author;
        let mut j = Journal::default();
        j.push(entry(10, 0, ObsEvent::ContactUp { a: 0, b: 1 }));
        j.push(entry(5, 0, ObsEvent::BundlePost { author, seq: 1 }));
        j.push(entry(11, 1, open(0)));
        j.push(entry(12, 1, accept(0, 1, 1)));
        j.push(entry(13, 1, close(0)));
        j.push(entry(20, 0, ObsEvent::ContactDown { a: 0, b: 1 }));
        j.push(entry(30, 1, ObsEvent::ContactUp { a: 1, b: 2 }));
        j.push(entry(31, 2, open(1)));
        j.push(entry(32, 2, accept(1, 1, 2)));
        j.push(entry(33, 2, close(1)));
        j.push(entry(40, 1, ObsEvent::ContactDown { a: 1, b: 2 }));
        j
    }

    /// The violations `relay_journal` plus `extra` reads, as
    /// `(rule, t_ms, node)`.
    fn broken_by(extra: Vec<JournalEntry>) -> Vec<(Rule, u64, u32)> {
        let mut j = relay_journal();
        for e in extra {
            j.push(e);
        }
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        (prov.violations.iter())
            .map(|v| (v.rule, v.entry.time.as_millis(), v.entry.node))
            .collect()
    }

    #[test]
    fn a_sound_record_breaks_no_rule() {
        let prov = Provenance::build(&GlobalTimeline::merge([&relay_journal()]));
        assert_eq!(prov.violations, []);
        assert!(prov.open_sessions.is_empty());
        let custody: Vec<u32> = prov.paths[&key()].custody.iter().copied().collect();
        assert_eq!(custody, [0, 1, 2]);
    }

    #[test]
    fn an_incomplete_record_is_one_violation_at_its_first_entry() {
        let mut j = Journal::with_capacity(4);
        for e in relay_journal().entries() {
            j.push(e.clone());
        }
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        let first = &prov.violations[0];
        assert_eq!((first.rule, first.entry.time), (Rule::Complete, t(31)));
        assert_eq!(
            first.to_string(),
            r#"complete: {"t_ms":31,"node":2,"seq":0,"event":"session_open","peer":1,"initiated":true,"resumed":false}"#
        );
        assert_eq!(
            (prov.violations.iter())
                .filter(|v| v.rule == Rule::Complete)
                .count(),
            1
        );
    }

    #[test]
    fn sessions_alternate_starting_with_an_open() {
        assert_eq!(
            broken_by(vec![entry(50, 1, close(0))]),
            [(Rule::SessionsAlternate, 50, 1)],
            "a close with no session open"
        );
        assert_eq!(
            broken_by(vec![entry(50, 1, open(0)), entry(51, 1, open(0))]),
            [(Rule::SessionsAlternate, 51, 1)],
            "an open while one is open"
        );
        let mut j = relay_journal();
        j.push(entry(50, 3, open(2)));
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        assert_eq!(prov.violations, [], "the run's end may leave one open");
        assert_eq!(prov.open_sessions, BTreeSet::from([(3, 2)]));
    }

    #[test]
    fn bundle_traffic_stays_in_a_session() {
        let author = key().author;
        let outside = [
            ObsEvent::BundleDuplicate {
                from: 0,
                author,
                seq: 1,
            },
            ObsEvent::BundleReject {
                from: 0,
                author,
                seq: 1,
                cause: "verify_failed",
            },
            ObsEvent::WantSent {
                peer: 0,
                authors: 1,
                chunks: 1,
            },
            ObsEvent::Served {
                peer: 0,
                bundles: 1,
                frames: 1,
            },
        ];
        for event in outside {
            let kind = event.kind();
            assert_eq!(
                broken_by(vec![entry(50, 1, event)]),
                [(Rule::InSession, 50, 1)],
                "{kind}"
            );
        }
        // A session with another peer does not cover it.
        assert_eq!(
            broken_by(vec![entry(50, 3, open(2)), entry(51, 3, accept(0, 1, 1))]),
            [(Rule::InSession, 51, 3)]
        );
    }

    #[test]
    fn an_accepted_bundle_was_posted_first() {
        assert_eq!(
            broken_by(vec![entry(50, 3, open(0)), entry(51, 3, accept(0, 2, 1))]),
            [(Rule::PostedFirst, 51, 3)]
        );
        // Posted on the same node later on the timeline is still late.
        let author = key().author;
        assert_eq!(
            broken_by(vec![
                entry(50, 3, open(0)),
                entry(51, 3, accept(0, 2, 1)),
                entry(52, 0, ObsEvent::BundlePost { author, seq: 2 }),
            ]),
            [(Rule::PostedFirst, 51, 3)]
        );
    }

    #[test]
    fn holdings_are_consistent() {
        let author = key().author;
        let evict = |seq| ObsEvent::BundleEvict {
            author,
            seq,
            cause: "capacity",
        };
        assert_eq!(
            broken_by(vec![entry(50, 1, open(0)), entry(51, 1, accept(0, 1, 1))]),
            [(Rule::Holdings, 51, 1)],
            "an accept of a held bundle"
        );
        assert_eq!(
            broken_by(vec![entry(50, 3, evict(1))]),
            [(Rule::Holdings, 50, 3)],
            "an evict of a bundle never held"
        );
        assert_eq!(
            broken_by(vec![entry(50, 2, evict(1)), entry(51, 2, evict(1))]),
            [(Rule::Holdings, 51, 2)],
            "an evict of a bundle already evicted"
        );
        // Evicted, then accepted again: held once more, no violation.
        assert_eq!(
            broken_by(vec![
                entry(50, 1, evict(1)),
                entry(51, 1, open(0)),
                entry(52, 1, accept(0, 1, 1)),
                entry(53, 1, close(0)),
            ]),
            []
        );
    }

    #[test]
    fn hop_counts_follow_the_dag() {
        let via = |node, from, hops| {
            vec![
                entry(50, node, open(from)),
                entry(51, node, accept(from, 1, hops)),
            ]
        };
        assert_eq!(
            broken_by(via(3, 0, 2)),
            [(Rule::Hops, 51, 3)],
            "origin: 1 hop"
        );
        assert_eq!(broken_by(via(3, 1, 1)), [(Rule::Hops, 51, 3)], "relay: ≥ 2");
        assert_eq!(
            broken_by(via(3, 1, 3)),
            [(Rule::Hops, 51, 3)],
            "relay 1 has 1"
        );
        assert_eq!(broken_by(via(3, 2, 3)), [], "relay 2 has 2");
        assert_eq!(
            broken_by(via(3, 4, 2)),
            [(Rule::Hops, 51, 3)],
            "a relay with no arrival on record"
        );
    }

    #[test]
    fn timeline_merge_is_canonically_ordered() {
        let j = relay_journal();
        let timeline = GlobalTimeline::merge([&j]);
        let times: Vec<u64> = timeline
            .events()
            .iter()
            .map(|e| e.time.as_millis())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "merge must sort by time");
        assert_eq!(timeline.len(), 11);
        assert_eq!(timeline.end(), t(40));
        assert_eq!(timeline.dropped(), 0);
        // Splitting the same events across journals, each node's events
        // kept in their order, changes nothing.
        let mut a = Journal::default();
        let mut b = Journal::default();
        for e in j.entries() {
            if e.node % 2 == 0 {
                a.push(e.clone());
            } else {
                b.push(e.clone());
            }
        }
        let split = GlobalTimeline::merge([&a, &b]);
        assert_eq!(split.to_jsonl(), timeline.to_jsonl());
    }

    #[test]
    fn bundle_path_reconstruction_and_latency_split() {
        let j = relay_journal();
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        let path = &prov.paths[&key()];
        assert_eq!(path.origin, Some(0));
        assert_eq!(path.posted, Some(t(5)));
        assert_eq!(path.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(path.latency_ms_to(2), Some(27));
        // Hop 0→1: posted at 5, contact up at 10, accepted at 12.
        let first = path.arrivals[&1];
        assert_eq!((first.wait_ms, first.transfer_ms, first.hops), (5, 2, 1));
        // Hop 1→2: relay acquired at 12, contact up at 30, accept 32.
        let second = path.arrivals[&2];
        assert_eq!(
            (second.wait_ms, second.transfer_ms, second.hops),
            (18, 2, 2)
        );
        assert_eq!(prov.contacts.len(), 2);
    }

    #[test]
    fn forensics_classifies_reached_and_unreachable() {
        let j = relay_journal();
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        let mut dests = BTreeMap::new();
        dests.insert(0u32, vec![2u32, 3u32]);
        let forensics = prov.classify(&dests, SchemeTraits::default());
        assert_eq!(forensics.authored(), 1);
        assert_eq!(forensics.targets, 2);
        assert_eq!(forensics.reached, 1);
        // Node 3 never appears in any contact: NoContactPath dominates.
        assert_eq!(
            forensics.verdicts[&key()],
            Verdict::Undelivered(DropCause::NoContactPath)
        );
        assert_eq!(prov.violations, []);
        // Only reached destinations ⇒ Delivered.
        dests.insert(0u32, vec![2u32]);
        let forensics = prov.classify(&dests, SchemeTraits::default());
        assert_eq!(forensics.verdicts[&key()], Verdict::Delivered);
        assert_eq!(forensics.delivered(), 1);
    }

    #[test]
    fn reachability_needs_a_fixpoint_not_one_pass() {
        // Interval (1,2) comes up FIRST but must carry a copy that only
        // reaches node 1 later through (0,1): a single pass over
        // up-sorted intervals misses the path.
        let mut j = Journal::default();
        j.push(entry(0, 1, ObsEvent::ContactUp { a: 1, b: 2 }));
        j.push(entry(50, 0, ObsEvent::ContactUp { a: 0, b: 1 }));
        j.push(entry(60, 0, ObsEvent::ContactDown { a: 0, b: 1 }));
        j.push(entry(100, 1, ObsEvent::ContactDown { a: 1, b: 2 }));
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        assert!(prov.reachable(0, 2, t(10), false));
        assert!(!prov.reachable(0, 2, t(10), true), "no direct contact");
        assert!(!prov.reachable(0, 3, t(10), false), "node 3 is isolated");
        assert!(
            !prov.reachable(2, 0, t(70), false),
            "(0,1) window already closed"
        );
    }

    #[test]
    fn forensics_cause_precedence() {
        let author = key().author;
        let mut dests = BTreeMap::new();
        dests.insert(0u32, vec![2u32]);

        // Reachable but never forwarded: scheme-dependent verdict.
        let mut j = Journal::default();
        j.push(entry(5, 0, ObsEvent::BundlePost { author, seq: 1 }));
        j.push(entry(10, 0, ObsEvent::ContactUp { a: 0, b: 2 }));
        j.push(entry(20, 0, ObsEvent::ContactDown { a: 0, b: 2 }));
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        assert_eq!(
            prov.classify(&dests, SchemeTraits::default()).verdicts[&key()],
            Verdict::Undelivered(DropCause::UnusedContactPath)
        );
        assert_eq!(
            prov.classify(
                &dests,
                SchemeTraits {
                    spray_limited: true,
                    direct_only: false
                }
            )
            .verdicts[&key()],
            Verdict::Undelivered(DropCause::CopiesExhausted)
        );

        // A relay evicted its only copy: eviction outranks scheme traits.
        let mut j = Journal::default();
        j.push(entry(5, 0, ObsEvent::BundlePost { author, seq: 1 }));
        j.push(entry(10, 0, ObsEvent::ContactUp { a: 0, b: 1 }));
        j.push(entry(
            12,
            1,
            ObsEvent::BundleAccept {
                from: 0,
                author,
                seq: 1,
                hops: 1,
                stored: true,
                carried: 1,
            },
        ));
        j.push(entry(20, 0, ObsEvent::ContactDown { a: 0, b: 1 }));
        j.push(entry(
            25,
            1,
            ObsEvent::BundleEvict {
                author,
                seq: 1,
                cause: "ttl",
            },
        ));
        j.push(entry(30, 0, ObsEvent::ContactUp { a: 1, b: 2 }));
        j.push(entry(40, 0, ObsEvent::ContactDown { a: 1, b: 2 }));
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        assert_eq!(
            prov.classify(
                &dests,
                SchemeTraits {
                    spray_limited: true,
                    direct_only: false
                }
            )
            .verdicts[&key()],
            Verdict::Undelivered(DropCause::TtlExpired)
        );

        // Rejection outranks eviction and reachability.
        let mut rejected = Journal::default();
        for e in j.entries() {
            rejected.push(e.clone());
        }
        rejected.push(entry(
            35,
            2,
            ObsEvent::BundleReject {
                from: 1,
                author,
                seq: 1,
                cause: "verify_failed",
            },
        ));
        let prov = Provenance::build(&GlobalTimeline::merge([&rejected]));
        assert_eq!(
            prov.classify(&dests, SchemeTraits::default()).verdicts[&key()],
            Verdict::Undelivered(DropCause::SecurityRejected)
        );
    }

    #[test]
    fn truncated_journal_downgrades_every_verdict() {
        let author = key().author;
        let mut j = Journal::with_capacity(2);
        j.push(entry(0, 0, ObsEvent::ContactUp { a: 0, b: 1 }));
        j.push(entry(5, 0, ObsEvent::BundlePost { author, seq: 1 }));
        j.push(entry(9, 0, ObsEvent::BundlePost { author, seq: 2 }));
        assert!(j.dropped() > 0);
        let prov = Provenance::build(&GlobalTimeline::merge([&j]));
        let mut dests = BTreeMap::new();
        dests.insert(0u32, vec![1u32]);
        let forensics = prov.classify(&dests, SchemeTraits::default());
        assert!(forensics.truncated > 0);
        for verdict in forensics.verdicts.values() {
            assert_eq!(*verdict, Verdict::Undelivered(DropCause::JournalTruncated));
        }
    }

    #[test]
    fn bundle_key_display_is_readable() {
        assert_eq!(key().to_string(), "alice-0001#1");
        let opaque = BundleKey {
            author: u128::MAX,
            seq: 3,
        };
        assert!(opaque.to_string().ends_with("#3"));
    }
}
