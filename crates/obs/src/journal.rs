//! The structured event journal: a bounded ring buffer of
//! sim-time-stamped [`ObsEvent`]s — the per-run "flight recorder".
//!
//! Every entry carries the node that emitted it and the [`SimTime`] at
//! which it happened, so journal contents are fully deterministic:
//! replaying a recorded run with observers attached produces the same
//! entries in the same order. When the buffer fills, the *oldest*
//! entries are dropped (and counted), keeping the tail of the run —
//! the part post-mortems care about.

use sos_sim::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default journal capacity (entries) when none is given.
///
/// Metropolis-scale runs overflow this ring; size the journal to the
/// run with [`Journal::with_capacity`] (or
/// `RunObserver::with_journal_capacity` in `sos-experiments`) and watch
/// [`Journal::dropped`] — provenance analysis downgrades every verdict
/// to `JournalTruncated` when it is nonzero rather than guessing from a
/// partial record.
const DEFAULT_CAPACITY: usize = 65_536;

/// Packs a 10-byte user id into the `u128` author tag journal events
/// carry (zero-padded little-endian).
///
/// `sos-obs` sits below `sos-core`, so events cannot reference the
/// `UserId` type itself; the tag is a lossless stand-in that merges and
/// sorts identically everywhere.
pub fn author_tag(id: &[u8; 10]) -> u128 {
    let mut wide = [0u8; 16];
    wide[..10].copy_from_slice(id);
    u128::from_le_bytes(wide)
}

/// One structured observability event.
///
/// Variants mirror the decision points of the middleware and driver:
/// session lifecycle, bundle authorship, the `receive_bundle`
/// accept/duplicate/reject outcome (with cause), store eviction (both
/// the per-sweep aggregate and the per-bundle record), the sync
/// protocol's want/serve exchange, and contact up/down edges from the
/// mobility layer.
///
/// Bundle events carry the message identity (`author` tag from
/// [`author_tag`] plus the author-assigned sequence number) and — on
/// accepts — the transfer peer id, so the [`provenance`](crate::provenance)
/// layer can stitch per-node journals into per-bundle propagation DAGs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A secure session reached the established state.
    SessionOpen {
        /// Peer node id.
        peer: u32,
        /// `true` when this node initiated the handshake.
        initiated: bool,
        /// `true` when it opened with the resumed (ticket) exchange
        /// instead of the certificate handshake. An initiator journals
        /// what it offered; if the peer misses the ticket the same
        /// session falls back to the full handshake (the middleware
        /// counts that in `resume_misses`).
        resumed: bool,
    },
    /// A session ended.
    SessionClose {
        /// Peer node id.
        peer: u32,
        /// Why it closed (`"done"`, `"out_of_range"`,
        /// `"protocol_error"`, `"security_failure"`, `"send_failure"`).
        reason: &'static str,
    },
    /// This node authored (posted) a new bundle — the root of the
    /// bundle's propagation DAG.
    BundlePost {
        /// Author tag ([`author_tag`] of the posting user).
        author: u128,
        /// Author-assigned message number.
        seq: u64,
    },
    /// A received bundle was verified (and, when `stored`, kept).
    BundleAccept {
        /// Sending peer — the transfer edge's source node.
        from: u32,
        /// Author tag of the bundle's message.
        author: u128,
        /// Author-assigned message number.
        seq: u64,
        /// Hop count of the received copy (after this hop).
        hops: u32,
        /// Whether the routing scheme kept the copy (custody) or the
        /// bundle was only surfaced to the application.
        stored: bool,
        /// Bundles carried after the accept.
        carried: usize,
    },
    /// A received bundle was already carried (benign duplicate).
    BundleDuplicate {
        /// Sending peer.
        from: u32,
        /// Author tag of the bundle's message.
        author: u128,
        /// Author-assigned message number.
        seq: u64,
    },
    /// A received bundle was rejected.
    BundleReject {
        /// Sending peer.
        from: u32,
        /// Author tag of the bundle's message.
        author: u128,
        /// Author-assigned message number.
        seq: u64,
        /// Why (`"forged_duplicate"`, `"equivocation"`,
        /// `"verify_failed"`).
        cause: &'static str,
    },
    /// One stored bundle was evicted from this node's store.
    BundleEvict {
        /// Author tag of the evicted message.
        author: u128,
        /// Author-assigned message number.
        seq: u64,
        /// Why (`"ttl"` expiry or `"capacity"` pressure).
        cause: &'static str,
    },
    /// The store evicted bundles (per-sweep aggregate; the individual
    /// [`ObsEvent::BundleEvict`] records precede it).
    StoreEvict {
        /// How many bundles were evicted in this sweep.
        count: usize,
    },
    /// A want (sync request) was sent to a peer.
    WantSent {
        /// Peer node id.
        peer: u32,
        /// Authors covered by the want.
        authors: usize,
        /// Sequence-range chunks requested.
        chunks: usize,
    },
    /// A peer's want was served.
    Served {
        /// Peer node id.
        peer: u32,
        /// Bundles shipped.
        bundles: usize,
        /// Sync frames used.
        frames: usize,
    },
    /// A contact (radio-range edge) came up between two nodes.
    ContactUp {
        /// First node id.
        a: u32,
        /// Second node id.
        b: u32,
    },
    /// A contact went down.
    ContactDown {
        /// First node id.
        a: u32,
        /// Second node id.
        b: u32,
    },
}

impl ObsEvent {
    /// A short stable kind tag (used for JSONL and aggregation).
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::SessionOpen { .. } => "session_open",
            ObsEvent::SessionClose { .. } => "session_close",
            ObsEvent::BundlePost { .. } => "bundle_post",
            ObsEvent::BundleAccept { .. } => "bundle_accept",
            ObsEvent::BundleDuplicate { .. } => "bundle_duplicate",
            ObsEvent::BundleReject { .. } => "bundle_reject",
            ObsEvent::BundleEvict { .. } => "bundle_evict",
            ObsEvent::StoreEvict { .. } => "store_evict",
            ObsEvent::WantSent { .. } => "want_sent",
            ObsEvent::Served { .. } => "served",
            ObsEvent::ContactUp { .. } => "contact_up",
            ObsEvent::ContactDown { .. } => "contact_down",
        }
    }

    pub(crate) fn fields_jsonl(&self, out: &mut String) {
        match self {
            ObsEvent::SessionOpen {
                peer,
                initiated,
                resumed,
            } => {
                let _ = write!(
                    out,
                    r#","peer":{peer},"initiated":{initiated},"resumed":{resumed}"#
                );
            }
            ObsEvent::SessionClose { peer, reason } => {
                let _ = write!(out, r#","peer":{peer},"reason":"{reason}""#);
            }
            ObsEvent::BundlePost { author, seq } => {
                let _ = write!(out, r#","author":"{author:032x}","seq":{seq}"#);
            }
            ObsEvent::BundleAccept {
                from,
                author,
                seq,
                hops,
                stored,
                carried,
            } => {
                let _ = write!(
                    out,
                    r#","from":{from},"author":"{author:032x}","seq":{seq},"hops":{hops},"stored":{stored},"carried":{carried}"#
                );
            }
            ObsEvent::BundleDuplicate { from, author, seq } => {
                let _ = write!(
                    out,
                    r#","from":{from},"author":"{author:032x}","seq":{seq}"#
                );
            }
            ObsEvent::BundleReject {
                from,
                author,
                seq,
                cause,
            } => {
                let _ = write!(
                    out,
                    r#","from":{from},"author":"{author:032x}","seq":{seq},"cause":"{cause}""#
                );
            }
            ObsEvent::BundleEvict { author, seq, cause } => {
                let _ = write!(
                    out,
                    r#","author":"{author:032x}","seq":{seq},"cause":"{cause}""#
                );
            }
            ObsEvent::StoreEvict { count } => {
                let _ = write!(out, r#","count":{count}"#);
            }
            ObsEvent::WantSent {
                peer,
                authors,
                chunks,
            } => {
                let _ = write!(
                    out,
                    r#","peer":{peer},"authors":{authors},"chunks":{chunks}"#
                );
            }
            ObsEvent::Served {
                peer,
                bundles,
                frames,
            } => {
                let _ = write!(
                    out,
                    r#","peer":{peer},"bundles":{bundles},"frames":{frames}"#
                );
            }
            ObsEvent::ContactUp { a, b } | ObsEvent::ContactDown { a, b } => {
                let _ = write!(out, r#","a":{a},"b":{b}"#);
            }
        }
    }
}

/// One journal entry: when, who, what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Sim time the event happened.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: u32,
    /// The event itself.
    pub event: ObsEvent,
}

/// Re-interns a tag string produced by [`JournalEntry::to_jsonl`] back
/// into the `&'static str` vocabulary the event variants carry.
fn intern_tag(s: &str) -> Option<&'static str> {
    const TAGS: &[&str] = &[
        // session close reasons
        "done",
        "out_of_range",
        "protocol_error",
        "security_failure",
        "send_failure",
        // bundle reject causes
        "forged_duplicate",
        "equivocation",
        "verify_failed",
        // bundle evict causes
        "ttl",
        "capacity",
    ];
    TAGS.iter().find(|t| **t == s).copied()
}

/// One parsed field value from a JSONL journal line.
enum JsonVal<'a> {
    Num(u128),
    Bool(bool),
    Str(&'a str),
}

/// Scans the flat `"key":value` pairs of one journal JSONL line.
///
/// The journal's writer emits no nesting, no escapes, and no spaces, so
/// a simple splitter is exact (not a general JSON parser).
fn scan_fields(line: &str) -> Option<Vec<(&str, JsonVal<'_>)>> {
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::with_capacity(8);
    let mut rest = body;
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let key_end = rest.find('"')?;
        let (key, tail) = rest.split_at(key_end);
        rest = tail.strip_prefix("\":")?;
        let (val, tail) = if let Some(sr) = rest.strip_prefix('"') {
            let end = sr.find('"')?;
            (JsonVal::Str(&sr[..end]), &sr[end + 1..])
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let raw = &rest[..end];
            let val = match raw {
                "true" => JsonVal::Bool(true),
                "false" => JsonVal::Bool(false),
                _ => JsonVal::Num(raw.parse().ok()?),
            };
            (val, &rest[end..])
        };
        fields.push((key, val));
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    Some(fields)
}

impl JournalEntry {
    /// Renders the entry as one JSONL line (no trailing newline).
    ///
    /// All field values are numbers, booleans, or `&'static str` tags
    /// from a fixed vocabulary, so no escaping is required.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            r#"{{"t_ms":{},"node":{},"event":"{}""#,
            self.time.as_millis(),
            self.node,
            self.event.kind()
        );
        self.event.fields_jsonl(&mut out);
        out.push('}');
        out
    }

    /// Parses one line produced by [`JournalEntry::to_jsonl`] back into
    /// an entry, or `None` when the line is malformed or the event kind
    /// / tag vocabulary is unknown.
    ///
    /// Round-tripping is exact: `from_jsonl(&e.to_jsonl()) == Some(e)`
    /// for every representable entry, which lets exported flight
    /// recordings feed the provenance layer offline.
    pub fn from_jsonl(line: &str) -> Option<JournalEntry> {
        let fields = scan_fields(line.trim())?;
        let num = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                JsonVal::Num(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        let string = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                JsonVal::Str(s) if *k == key => Some(*s),
                _ => None,
            })
        };
        let boolean = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                JsonVal::Bool(b) if *k == key => Some(*b),
                _ => None,
            })
        };
        let u32of = |key: &str| num(key).and_then(|n| u32::try_from(n).ok());
        let u64of = |key: &str| num(key).and_then(|n| u64::try_from(n).ok());
        let usizeof = |key: &str| num(key).and_then(|n| usize::try_from(n).ok());
        let author = || u128::from_str_radix(string("author")?, 16).ok();
        let tag = |key: &str| intern_tag(string(key)?);

        let time = SimTime::from_millis(u64of("t_ms")?);
        let node = u32of("node")?;
        let event = match string("event")? {
            "session_open" => ObsEvent::SessionOpen {
                peer: u32of("peer")?,
                initiated: boolean("initiated")?,
                resumed: boolean("resumed")?,
            },
            "session_close" => ObsEvent::SessionClose {
                peer: u32of("peer")?,
                reason: tag("reason")?,
            },
            "bundle_post" => ObsEvent::BundlePost {
                author: author()?,
                seq: u64of("seq")?,
            },
            "bundle_accept" => ObsEvent::BundleAccept {
                from: u32of("from")?,
                author: author()?,
                seq: u64of("seq")?,
                hops: u32of("hops")?,
                stored: boolean("stored")?,
                carried: usizeof("carried")?,
            },
            "bundle_duplicate" => ObsEvent::BundleDuplicate {
                from: u32of("from")?,
                author: author()?,
                seq: u64of("seq")?,
            },
            "bundle_reject" => ObsEvent::BundleReject {
                from: u32of("from")?,
                author: author()?,
                seq: u64of("seq")?,
                cause: tag("cause")?,
            },
            "bundle_evict" => ObsEvent::BundleEvict {
                author: author()?,
                seq: u64of("seq")?,
                cause: tag("cause")?,
            },
            "store_evict" => ObsEvent::StoreEvict {
                count: usizeof("count")?,
            },
            "want_sent" => ObsEvent::WantSent {
                peer: u32of("peer")?,
                authors: usizeof("authors")?,
                chunks: usizeof("chunks")?,
            },
            "served" => ObsEvent::Served {
                peer: u32of("peer")?,
                bundles: usizeof("bundles")?,
                frames: usizeof("frames")?,
            },
            "contact_up" => ObsEvent::ContactUp {
                a: u32of("a")?,
                b: u32of("b")?,
            },
            "contact_down" => ObsEvent::ContactDown {
                a: u32of("a")?,
                b: u32of("b")?,
            },
            _ => return None,
        };
        Some(JournalEntry { time, node, event })
    }
}

/// The bounded event journal.
#[derive(Clone, Debug)]
pub struct Journal {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Journal {
    /// Creates a journal holding at most `capacity` entries (oldest are
    /// dropped first once full).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an entry, evicting the oldest when at capacity.
    pub fn push(&mut self, entry: JournalEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted due to capacity pressure.
    ///
    /// Nonzero means the retained window is *not* the whole run:
    /// downstream analysis (see [`crate::provenance`]) must report
    /// `JournalTruncated` instead of inferring causes from a partial
    /// record.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Counts `n` more entries as lost before the retained ones: how a
    /// journal rebuilt from lines another ring retained keeps that
    /// ring's [`Journal::dropped`].
    pub fn count_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Maximum entries this ring retains before dropping the oldest.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders every retained entry as JSONL (one entry per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for e in &self.entries {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Retained entry counts per event kind, sorted by kind.
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for e in &self.entries {
            *map.entry(e.event.kind()).or_insert(0u64) += 1;
        }
        map.into_iter().collect()
    }

    /// Bundle-reject counts per cause, sorted by cause.
    pub fn reject_causes(&self) -> Vec<(&'static str, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for e in &self.entries {
            if let ObsEvent::BundleReject { cause, .. } = e.event {
                *map.entry(cause).or_insert(0u64) += 1;
            }
        }
        map.into_iter().collect()
    }

    /// Session-close counts per reason, sorted by reason.
    pub fn close_reasons(&self) -> Vec<(&'static str, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for e in &self.entries {
            if let ObsEvent::SessionClose { reason, .. } = e.event {
                *map.entry(reason).or_insert(0u64) += 1;
            }
        }
        map.into_iter().collect()
    }

    /// Total bundles evicted across all retained [`ObsEvent::StoreEvict`]
    /// entries.
    pub fn evicted_total(&self) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::StoreEvict { count } => Some(count as u64),
                _ => None,
            })
            .sum()
    }
}

/// A shared handle onto one [`Journal`]: every node of a run pushes
/// into the same buffer, preserving the global event order the event
/// loop produced.
///
/// The mutex is uncontended in the (single-threaded) event loops; it
/// exists so the handle is `Send + Sync`, which the scoped threads of
/// `sos_engine::run_replicas` require.
#[derive(Clone, Debug, Default)]
pub struct JournalHandle(Arc<Mutex<Journal>>);

impl JournalHandle {
    /// Creates a handle onto a fresh journal with the default capacity.
    pub fn new() -> JournalHandle {
        JournalHandle::default()
    }

    /// Creates a handle onto a fresh journal holding `capacity` entries.
    pub fn with_capacity(capacity: usize) -> JournalHandle {
        JournalHandle(Arc::new(Mutex::new(Journal::with_capacity(capacity))))
    }

    /// Appends an entry.
    pub fn push(&self, entry: JournalEntry) {
        self.0.lock().expect("journal lock").push(entry);
    }

    /// An owned copy of the journal's current contents.
    pub fn snapshot(&self) -> Journal {
        self.0.lock().expect("journal lock").clone()
    }
}

/// A per-node recording scope: a [`JournalHandle`] bound to one node
/// id, handed to that node's middleware so its events carry the right
/// attribution without the middleware knowing about driver topology.
#[derive(Clone, Debug)]
pub struct NodeObs {
    /// The node id stamped onto every event this scope records.
    pub node: u32,
    journal: JournalHandle,
}

impl NodeObs {
    /// Binds `journal` to `node`.
    pub fn new(node: u32, journal: JournalHandle) -> NodeObs {
        NodeObs { node, journal }
    }

    /// Records `event` at `time`, attributed to this scope's node.
    #[inline]
    pub fn record(&self, time: SimTime, event: ObsEvent) {
        self.journal.push(JournalEntry {
            time,
            node: self.node,
            event,
        });
    }

    /// The shared journal this scope feeds.
    pub fn journal(&self) -> &JournalHandle {
        &self.journal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut j = Journal::with_capacity(2);
        for i in 0..4u32 {
            j.push(JournalEntry {
                time: t(i as u64),
                node: i,
                event: ObsEvent::ContactUp { a: i, b: i + 1 },
            });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.entries().next().unwrap().node, 2);
    }

    #[test]
    fn jsonl_shape() {
        let e = JournalEntry {
            time: t(1500),
            node: 3,
            event: ObsEvent::BundleReject {
                from: 9,
                author: 0xab,
                seq: 7,
                cause: "equivocation",
            },
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ms":1500,"node":3,"event":"bundle_reject","from":9,"author":"000000000000000000000000000000ab","seq":7,"cause":"equivocation"}"#
        );
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let author = author_tag(b"alice-0001");
        let events = vec![
            ObsEvent::SessionOpen {
                peer: 4,
                initiated: true,
                resumed: true,
            },
            ObsEvent::SessionClose {
                peer: 4,
                reason: "out_of_range",
            },
            ObsEvent::BundlePost { author, seq: 1 },
            ObsEvent::BundleAccept {
                from: 2,
                author,
                seq: 1,
                hops: 3,
                stored: false,
                carried: 17,
            },
            ObsEvent::BundleDuplicate {
                from: 2,
                author,
                seq: 1,
            },
            ObsEvent::BundleReject {
                from: 2,
                author,
                seq: 1,
                cause: "verify_failed",
            },
            ObsEvent::BundleEvict {
                author,
                seq: 1,
                cause: "capacity",
            },
            ObsEvent::StoreEvict { count: 9 },
            ObsEvent::WantSent {
                peer: 4,
                authors: 2,
                chunks: 5,
            },
            ObsEvent::Served {
                peer: 4,
                bundles: 11,
                frames: 1,
            },
            ObsEvent::ContactUp { a: 0, b: 1 },
            ObsEvent::ContactDown { a: 0, b: 1 },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let entry = JournalEntry {
                time: t(100 + i as u64),
                node: i as u32,
                event,
            };
            assert_eq!(
                JournalEntry::from_jsonl(&entry.to_jsonl()),
                Some(entry),
                "variant {i} must round-trip"
            );
        }
        assert_eq!(JournalEntry::from_jsonl("not json"), None);
        assert_eq!(
            JournalEntry::from_jsonl(r#"{"t_ms":1,"node":0,"event":"mystery"}"#),
            None
        );
    }

    #[test]
    fn aggregations() {
        let handle = JournalHandle::new();
        let obs = NodeObs::new(1, handle.clone());
        obs.record(
            t(0),
            ObsEvent::BundleReject {
                from: 2,
                author: 1,
                seq: 1,
                cause: "verify_failed",
            },
        );
        obs.record(
            t(1),
            ObsEvent::BundleReject {
                from: 2,
                author: 1,
                seq: 2,
                cause: "verify_failed",
            },
        );
        obs.record(t(2), ObsEvent::StoreEvict { count: 5 });
        obs.record(
            t(3),
            ObsEvent::SessionClose {
                peer: 2,
                reason: "done",
            },
        );
        let j = handle.snapshot();
        assert_eq!(j.reject_causes(), vec![("verify_failed", 2)]);
        assert_eq!(j.close_reasons(), vec![("done", 1)]);
        assert_eq!(j.evicted_total(), 5);
        assert_eq!(j.counts_by_kind().len(), 3);
        assert_eq!(j.to_jsonl().lines().count(), 4);
    }
}
