//! The local message store: verified bundles indexed by author and
//! number, with the summary dictionary that feeds advertisements.
//!
//! Each bundle sits in its own box, so an author's B-tree holds one
//! pointer per number: in-order inserts leave the leaves half full, and
//! a half-empty slot then costs 16 bytes instead of a whole `Bundle`'s.

use crate::message::{Bundle, MessageId};
use sos_crypto::UserId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Outcome of a store insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The bundle was new and stored.
    New,
    /// A copy was already held (the incoming payload is dropped; the
    /// stored copy's hop count is lowered to the minimum of the two, so
    /// it never overstates the best-known path length).
    Duplicate,
}

/// The per-device store of verified bundles.
///
/// Only *verified* bundles belong here — the message manager rejects
/// unverifiable bundles before insertion, so everything the store
/// advertises is authentic.
#[derive(Clone, Debug, Default)]
pub struct MessageStore {
    by_author: BTreeMap<UserId, BTreeMap<u64, Box<Bundle>>>,
}

impl MessageStore {
    /// Creates an empty store.
    pub fn new() -> MessageStore {
        MessageStore::default()
    }

    /// Inserts a bundle, deduplicating by [`MessageId`]. On a
    /// duplicate, the stored copy keeps the minimum hop count of the
    /// two copies — a later arrival over a shorter path must not be
    /// reported (or relayed onward) with the stale, larger count.
    ///
    /// A new bundle whose certificate equals the one its author's held
    /// neighbours (the next lower and next higher number) carry is
    /// stored with their `Arc`, and its own copy is dropped: an author's
    /// bundles share one certificate however many peers delivered
    /// them. A certificate equal to neither, a renewal say, keeps its
    /// own `Arc`, so no bundle ever points at a different certificate.
    pub fn insert(&mut self, mut bundle: Bundle) -> InsertOutcome {
        let id = bundle.message.id;
        let per_author = self.by_author.entry(id.author).or_default();
        if let Some(held) = per_author.get_mut(&id.number) {
            held.hops = held.hops.min(bundle.hops);
            return InsertOutcome::Duplicate;
        }
        let below = per_author.range(..id.number).next_back();
        let above = per_author.range(id.number..).next();
        if let Some((_, held)) = below
            .into_iter()
            .chain(above)
            .find(|(_, held)| held.author_certificate == bundle.author_certificate)
        {
            bundle.author_certificate = Arc::clone(&held.author_certificate);
        }
        per_author.insert(id.number, Box::new(bundle));
        InsertOutcome::New
    }

    /// True if a message with this id is held.
    pub fn contains(&self, id: &MessageId) -> bool {
        self.by_author
            .get(&id.author)
            .is_some_and(|m| m.contains_key(&id.number))
    }

    /// The stored bundle for `id`.
    pub fn get(&self, id: &MessageId) -> Option<&Bundle> {
        Some(self.by_author.get(&id.author)?.get(&id.number)?)
    }

    /// Mutable access (used to decrement spray-and-wait budgets).
    pub fn get_mut(&mut self, id: &MessageId) -> Option<&mut Bundle> {
        Some(self.by_author.get_mut(&id.author)?.get_mut(&id.number)?)
    }

    /// The highest message number held for `author` (0 if none).
    pub fn latest_for(&self, author: &UserId) -> u64 {
        self.by_author
            .get(author)
            .and_then(|m| m.keys().next_back().copied())
            .unwrap_or(0)
    }

    /// The advertisement dictionary: `author → latest number held`,
    /// filtered by `advertise` (routing schemes may hide exhausted
    /// spray-and-wait bundles, for example).
    ///
    /// `advertise` is called newest-first and only until its first hit
    /// per author, so it must be a pure predicate of the bundle: one
    /// that counts its calls, or expects to see every bundle, is not
    /// served. The cost is O(authors · log) when each author's newest
    /// bundle is advertised, plus one step per hidden bundle above the
    /// newest advertised one.
    pub fn summary_filtered<F>(&self, mut advertise: F) -> BTreeMap<UserId, u64>
    where
        F: FnMut(&Bundle) -> bool,
    {
        self.by_author
            .iter()
            .filter_map(|(author, msgs)| {
                let (&latest, _) = msgs.iter().rev().find(|(_, b)| advertise(b))?;
                Some((*author, latest))
            })
            .collect()
    }

    /// The unfiltered advertisement dictionary: each author's last key,
    /// O(authors · log).
    pub fn summary(&self) -> BTreeMap<UserId, u64> {
        self.summary_filtered(|_| true)
    }

    /// All bundles from `author` with number strictly greater than
    /// `after`, in ascending order.
    pub fn bundles_after(&self, author: &UserId, after: u64) -> Vec<&Bundle> {
        self.by_author
            .get(author)
            .map(|m| m.range(after + 1..).map(|(_, b)| &**b).collect())
            .unwrap_or_default()
    }

    /// The contiguous inclusive ranges `(start, end)` of message numbers
    /// held for `author`, ascending. This is the `have` set of a
    /// gap-aware sync request: the complement of these ranges is exactly
    /// what a peer should serve.
    pub fn ranges_for(&self, author: &UserId) -> Vec<(u64, u64)> {
        let Some(msgs) = self.by_author.get(author) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &n in msgs.keys() {
            match out.last_mut() {
                Some((_, end)) if n.checked_sub(1) == Some(*end) => *end = n,
                _ => out.push((n, n)),
            }
        }
        out
    }

    /// The gaps `(start, end)` inside `1..=latest` for `author` — the
    /// message numbers eviction (or an interrupted transfer) has punched
    /// out of the held sequence. Empty when nothing is held or the held
    /// set is a contiguous prefix.
    pub fn holes_for(&self, author: &UserId) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut next = 1u64;
        for (start, end) in self.ranges_for(author) {
            if start > next {
                out.push((next, start - 1));
            }
            next = end.saturating_add(1);
        }
        out
    }

    /// The largest `n` such that every message `1..=n` of `author` is
    /// held (0 if message 1 is missing). Unlike [`MessageStore::latest_for`],
    /// this watermark never jumps over a hole, so comparing it against an
    /// advertised latest detects missing middles.
    ///
    /// O(log) unless the author's sequence starts at 1 and has a hole,
    /// the one case that is walked (up to the hole).
    pub fn contiguous_prefix_for(&self, author: &UserId) -> u64 {
        self.by_author.get(author).map_or(0, contiguous_prefix)
    }

    /// The browse-side summary for gap-aware sync decisions:
    /// `author → contiguous prefix held`. An author with a hole at the
    /// bottom of their sequence maps to a low watermark, so any peer
    /// advertising beyond it — including peers carrying only the evicted
    /// middles — registers as news.
    ///
    /// Called on every advertisement received: O(authors · log) plus the
    /// walk [`contiguous_prefix_for`](MessageStore::contiguous_prefix_for)
    /// makes for an author with a hole above message 1.
    pub fn sync_summary(&self) -> BTreeMap<UserId, u64> {
        self.by_author
            .iter()
            .map(|(author, msgs)| (*author, contiguous_prefix(msgs)))
            .collect()
    }

    /// All stored bundles of `author` whose numbers are *not* covered by
    /// the inclusive `have` ranges (which must be ascending and
    /// disjoint, as [`MessageStore::ranges_for`] produces), ascending.
    /// This is the serve-side complement of a gap-aware request.
    pub fn bundles_missing_from(&self, author: &UserId, have: &[(u64, u64)]) -> Vec<&Bundle> {
        let Some(msgs) = self.by_author.get(author) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut hi = 0usize;
        for (&n, bundle) in msgs {
            while hi < have.len() && have[hi].1 < n {
                hi += 1;
            }
            let covered = hi < have.len() && have[hi].0 <= n && n <= have[hi].1;
            if !covered {
                out.push(&**bundle);
            }
        }
        out
    }

    /// Total number of stored bundles.
    pub fn len(&self) -> usize {
        self.by_author.values().map(|m| m.len()).sum()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.by_author.is_empty()
    }

    /// Iterates over all stored bundles.
    pub fn iter(&self) -> impl Iterator<Item = &Bundle> {
        self.by_author.values().flatten().map(|(_, b)| &**b)
    }

    /// Authors with at least one stored message.
    pub fn authors(&self) -> impl Iterator<Item = &UserId> {
        self.by_author.keys()
    }

    /// Evicts bundles whose message was created before `cutoff`, except
    /// those `keep` protects (e.g. the device's own messages). Returns
    /// the number evicted.
    ///
    /// DTN stores are finite; expired gossip must age out or a
    /// long-running device fills its flash with other people's history.
    pub fn evict_older_than<F>(&mut self, cutoff: sos_sim::SimTime, keep: F) -> usize
    where
        F: FnMut(&Bundle) -> bool,
    {
        self.evict_older_than_reporting(cutoff, keep).len()
    }

    /// [`MessageStore::evict_older_than`], returning the ids evicted
    /// (oldest author order) instead of just the count — the per-bundle
    /// record the observability journal needs.
    pub fn evict_older_than_reporting<F>(
        &mut self,
        cutoff: sos_sim::SimTime,
        mut keep: F,
    ) -> Vec<MessageId>
    where
        F: FnMut(&Bundle) -> bool,
    {
        let mut evicted = Vec::new();
        for msgs in self.by_author.values_mut() {
            msgs.retain(|_, b| {
                let kept = b.message.created_at >= cutoff || keep(b);
                if !kept {
                    evicted.push(b.message.id);
                }
                kept
            });
        }
        self.by_author.retain(|_, msgs| !msgs.is_empty());
        evicted
    }

    /// Evicts oldest-created bundles (protected ones excepted) until at
    /// most `max` remain. Returns the number evicted.
    pub fn evict_to_capacity<F>(&mut self, max: usize, keep: F) -> usize
    where
        F: FnMut(&Bundle) -> bool,
    {
        self.evict_to_capacity_reporting(max, keep).len()
    }

    /// [`MessageStore::evict_to_capacity`], returning the ids evicted
    /// (oldest-created first) instead of just the count.
    pub fn evict_to_capacity_reporting<F>(&mut self, max: usize, mut keep: F) -> Vec<MessageId>
    where
        F: FnMut(&Bundle) -> bool,
    {
        let len = self.len();
        if len <= max {
            return Vec::new();
        }
        // Collect evictable ids ordered by creation time (oldest first).
        let mut candidates: Vec<(sos_sim::SimTime, MessageId)> = self
            .iter()
            .filter(|b| !keep(b))
            .map(|b| (b.message.created_at, b.message.id))
            .collect();
        candidates.sort();
        let mut evicted = Vec::new();
        for (_, id) in candidates {
            if self.len() <= max {
                break;
            }
            if let Some(msgs) = self.by_author.get_mut(&id.author) {
                if msgs.remove(&id.number).is_some() {
                    evicted.push(id);
                }
                if msgs.is_empty() {
                    self.by_author.remove(&id.author);
                }
            }
        }
        evicted
    }
}

/// The contiguous prefix of one author's held numbers, from the two
/// ends of the map: nothing without message 1, everything when the
/// `len` keys end at `len` (they are distinct and start at 1, so they
/// are exactly `1..=len`), and a walk to the first hole otherwise.
fn contiguous_prefix(msgs: &BTreeMap<u64, Box<Bundle>>) -> u64 {
    let (Some((&first, _)), Some((&last, _))) = (msgs.first_key_value(), msgs.last_key_value())
    else {
        return 0;
    };
    if first != 1 {
        return 0;
    }
    if last == msgs.len() as u64 {
        return last;
    }
    let mut expected = 1u64;
    for &n in msgs.keys() {
        if n != expected {
            break;
        }
        expected += 1;
    }
    expected - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageId, MessageKind, SosMessage};
    use sos_crypto::ca::CertificateAuthority;
    use sos_crypto::ed25519::SigningKey;
    use sos_crypto::x25519::AgreementKey;
    use sos_sim::SimTime;

    fn bundle(author: &str, number: u64) -> Bundle {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let uid = UserId::from_str_padded(author);
        let cert = ca.issue(uid, author, sk.verifying_key(), *ak.public(), 0);
        let msg = SosMessage::create(
            &sk,
            uid,
            number,
            SimTime::from_secs(number),
            MessageKind::Post,
            format!("msg {number}").into_bytes(),
        );
        Bundle::new(msg, cert)
    }

    /// Message `n` of alice under `cert`, with a certificate `Arc` of its
    /// own.
    fn under(cert: &sos_crypto::Certificate, n: u64) -> Bundle {
        let sk = SigningKey::from_seed([2u8; 32]);
        let msg = SosMessage::create(
            &sk,
            cert.subject,
            n,
            SimTime::from_secs(n),
            MessageKind::Post,
            vec![n as u8],
        );
        Bundle::new(msg, cert.clone())
    }

    /// Alice's original certificate and its renewal (same keys, later
    /// serial and validity).
    fn old_and_renewed() -> (sos_crypto::Certificate, sos_crypto::Certificate) {
        let mut ca = CertificateAuthority::new("Root", [1u8; 32], 0, u64::MAX);
        let sk = SigningKey::from_seed([2u8; 32]);
        let ak = AgreementKey::from_secret([3u8; 32]);
        let uid = UserId::from_str_padded("alice");
        let old = ca.issue(uid, "alice", sk.verifying_key(), *ak.public(), 0);
        let renewed = ca.issue(uid, "alice", sk.verifying_key(), *ak.public(), 1);
        (old, renewed)
    }

    #[test]
    fn an_authors_bundles_share_one_certificate_per_distinct_certificate() {
        let (old, renewed) = old_and_renewed();
        let mut store = MessageStore::new();
        for n in 1..=8 {
            store.insert(under(if n <= 4 { &old } else { &renewed }, n));
        }
        let mut distinct: Vec<*const sos_crypto::Certificate> = store
            .iter()
            .map(|b| Arc::as_ptr(&b.author_certificate))
            .collect();
        distinct.dedup();
        assert_eq!(distinct.len(), 2, "one Arc per certificate, not per bundle");
    }

    /// Sharing gives a bundle another bundle's `Arc` only when the two
    /// certificates are equal: under any insertion order of an author
    /// whose bundles sit under an old and a renewed certificate, each
    /// stored bundle's certificate equals the one it arrived with.
    #[test]
    fn sharing_never_changes_a_bundles_certificate() {
        let (old, renewed) = old_and_renewed();
        let cert_of = |n: u64| {
            if [1, 2, 5, 8].contains(&n) {
                &old
            } else {
                &renewed
            }
        };
        for order in [
            [5, 1, 8, 3, 2, 7, 4, 6],
            [8, 7, 6, 5, 4, 3, 2, 1],
            [2, 4, 6, 8, 1, 3, 5, 7],
        ] {
            let mut store = MessageStore::new();
            for n in order {
                store.insert(under(cert_of(n), n));
            }
            for b in store.iter() {
                let n = b.message.id.number;
                assert_eq!(*b.author_certificate, *cert_of(n), "order {order:?}, #{n}");
            }
        }
    }

    #[test]
    fn insert_and_dedup() {
        let mut store = MessageStore::new();
        assert_eq!(store.insert(bundle("alice", 1)), InsertOutcome::New);
        assert_eq!(store.insert(bundle("alice", 1)), InsertOutcome::Duplicate);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn duplicate_keeps_minimum_hop_count() {
        let mut store = MessageStore::new();
        let mut far = bundle("alice", 1);
        far.hops = 5;
        let id = far.message.id;
        assert_eq!(store.insert(far), InsertOutcome::New);

        // A copy that travelled a shorter path lowers the stored count.
        let mut near = bundle("alice", 1);
        near.hops = 2;
        assert_eq!(store.insert(near), InsertOutcome::Duplicate);
        assert_eq!(store.get(&id).unwrap().hops, 2);

        // A worse copy never raises it back.
        let mut worse = bundle("alice", 1);
        worse.hops = 9;
        assert_eq!(store.insert(worse), InsertOutcome::Duplicate);
        assert_eq!(store.get(&id).unwrap().hops, 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn latest_tracks_max() {
        let mut store = MessageStore::new();
        store.insert(bundle("alice", 2));
        store.insert(bundle("alice", 5));
        store.insert(bundle("alice", 3));
        assert_eq!(store.latest_for(&UserId::from_str_padded("alice")), 5);
        assert_eq!(store.latest_for(&UserId::from_str_padded("bob")), 0);
    }

    #[test]
    fn summary_covers_all_authors() {
        let mut store = MessageStore::new();
        store.insert(bundle("alice", 3));
        store.insert(bundle("bob", 7));
        let summary = store.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[&UserId::from_str_padded("alice")], 3);
        assert_eq!(summary[&UserId::from_str_padded("bob")], 7);
    }

    #[test]
    fn summary_filter_hides_bundles() {
        let mut store = MessageStore::new();
        let mut b = bundle("alice", 1);
        b.copies = Some(1);
        store.insert(b);
        let summary = store.summary_filtered(|b| b.copies.is_none_or(|c| c > 1));
        assert!(summary.is_empty());
    }

    #[test]
    fn bundles_after_is_exclusive_and_ordered() {
        let mut store = MessageStore::new();
        for n in [1, 2, 4, 7] {
            store.insert(bundle("alice", n));
        }
        let got: Vec<u64> = store
            .bundles_after(&UserId::from_str_padded("alice"), 2)
            .iter()
            .map(|b| b.message.id.number)
            .collect();
        assert_eq!(got, vec![4, 7]);
    }

    #[test]
    fn ttl_eviction_spares_protected_bundles() {
        let mut store = MessageStore::new();
        for n in 1..=5 {
            store.insert(bundle("alice", n)); // created_at = n seconds
        }
        store.insert(bundle("bob", 1));
        let me = UserId::from_str_padded("bob");
        let evicted = store.evict_older_than(SimTime::from_secs(4), |b| b.message.id.author == me);
        // alice 1,2,3 evicted; alice 4,5 kept (fresh); bob 1 kept (mine).
        assert_eq!(evicted, 3);
        assert_eq!(store.len(), 3);
        assert!(store.contains(&crate::message::MessageId {
            author: me,
            number: 1
        }));
        assert_eq!(store.latest_for(&UserId::from_str_padded("alice")), 5);
    }

    #[test]
    fn capacity_eviction_drops_oldest_first() {
        let mut store = MessageStore::new();
        for n in 1..=10 {
            store.insert(bundle("alice", n));
        }
        let evicted = store.evict_to_capacity(4, |_| false);
        assert_eq!(evicted, 6);
        assert_eq!(store.len(), 4);
        // The newest four survive.
        let remaining: Vec<u64> = store.iter().map(|b| b.message.id.number).collect();
        assert_eq!(remaining, vec![7, 8, 9, 10]);
    }

    #[test]
    fn reporting_evictions_name_the_victims() {
        let mut store = MessageStore::new();
        for n in 1..=5 {
            store.insert(bundle("alice", n)); // created_at = n seconds
        }
        let ids = store.evict_older_than_reporting(SimTime::from_secs(3), |_| false);
        let gone: Vec<u64> = ids.iter().map(|id| id.number).collect();
        assert_eq!(gone, vec![1, 2]);
        let ids = store.evict_to_capacity_reporting(1, |_| false);
        let gone: Vec<u64> = ids.iter().map(|id| id.number).collect();
        assert_eq!(gone, vec![3, 4], "oldest-created first");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_eviction_noop_under_limit() {
        let mut store = MessageStore::new();
        store.insert(bundle("alice", 1));
        assert_eq!(store.evict_to_capacity(10, |_| false), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_eviction_respects_protection() {
        let mut store = MessageStore::new();
        for n in 1..=6 {
            store.insert(bundle("alice", n));
        }
        // Everything protected: nothing can be evicted even over limit.
        assert_eq!(store.evict_to_capacity(2, |_| true), 0);
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn ranges_and_holes_track_gaps() {
        let mut store = MessageStore::new();
        let alice = UserId::from_str_padded("alice");
        assert!(store.ranges_for(&alice).is_empty());
        assert!(store.holes_for(&alice).is_empty());
        assert_eq!(store.contiguous_prefix_for(&alice), 0);
        for n in [1, 2, 3, 6, 7, 10] {
            store.insert(bundle("alice", n));
        }
        assert_eq!(store.ranges_for(&alice), vec![(1, 3), (6, 7), (10, 10)]);
        assert_eq!(store.holes_for(&alice), vec![(4, 5), (8, 9)]);
        assert_eq!(store.contiguous_prefix_for(&alice), 3);
        assert_eq!(store.latest_for(&alice), 10);
    }

    #[test]
    fn prefix_is_zero_when_first_message_missing() {
        let mut store = MessageStore::new();
        let alice = UserId::from_str_padded("alice");
        store.insert(bundle("alice", 5));
        assert_eq!(store.ranges_for(&alice), vec![(5, 5)]);
        assert_eq!(store.holes_for(&alice), vec![(1, 4)]);
        assert_eq!(store.contiguous_prefix_for(&alice), 0);
        assert_eq!(store.latest_for(&alice), 5, "latest still overstates");
        assert_eq!(store.sync_summary()[&alice], 0);
    }

    #[test]
    fn sync_summary_uses_prefix_not_latest() {
        let mut store = MessageStore::new();
        store.insert(bundle("alice", 1));
        store.insert(bundle("alice", 2));
        store.insert(bundle("bob", 2));
        let summary = store.sync_summary();
        assert_eq!(summary[&UserId::from_str_padded("alice")], 2);
        assert_eq!(summary[&UserId::from_str_padded("bob")], 0);
    }

    #[test]
    fn bundles_missing_from_serves_the_complement() {
        let mut store = MessageStore::new();
        let alice = UserId::from_str_padded("alice");
        for n in 1..=8 {
            store.insert(bundle("alice", n));
        }
        let got: Vec<u64> = store
            .bundles_missing_from(&alice, &[(2, 3), (6, 7)])
            .iter()
            .map(|b| b.message.id.number)
            .collect();
        assert_eq!(got, vec![1, 4, 5, 8]);
        // Empty have set = serve everything held.
        assert_eq!(store.bundles_missing_from(&alice, &[]).len(), 8);
        // Fully covered = nothing to serve.
        assert!(store.bundles_missing_from(&alice, &[(1, 8)]).is_empty());
        // Unknown author = nothing.
        assert!(store
            .bundles_missing_from(&UserId::from_str_padded("bob"), &[])
            .is_empty());
    }

    #[test]
    fn eviction_creates_visible_holes() {
        let mut store = MessageStore::new();
        for n in 1..=6 {
            store.insert(bundle("alice", n)); // created_at = n seconds
        }
        // TTL eviction removes the oldest middle-free prefix 1..=3.
        store.evict_older_than(SimTime::from_secs(4), |_| false);
        let alice = UserId::from_str_padded("alice");
        assert_eq!(store.ranges_for(&alice), vec![(4, 6)]);
        assert_eq!(store.holes_for(&alice), vec![(1, 3)]);
        assert_eq!(store.contiguous_prefix_for(&alice), 0);
    }

    /// The walk-everything answers the summary functions gave before
    /// they read each per-author map from its ends, rebuilt from the
    /// public iterator alone.
    mod reference {
        use super::*;

        pub(super) fn summary_filtered(
            store: &MessageStore,
            mut advertise: impl FnMut(&Bundle) -> bool,
        ) -> BTreeMap<UserId, u64> {
            let mut out = BTreeMap::new();
            for b in store.iter().filter(|b| advertise(b)) {
                let latest = out.entry(b.message.id.author).or_insert(0);
                *latest = b.message.id.number.max(*latest);
            }
            out
        }

        pub(super) fn contiguous_prefix_for(store: &MessageStore, author: &UserId) -> u64 {
            let mut numbers: Vec<u64> = store
                .iter()
                .filter(|b| b.message.id.author == *author)
                .map(|b| b.message.id.number)
                .collect();
            numbers.sort_unstable();
            let mut expected = 1u64;
            for n in numbers {
                if n != expected {
                    break;
                }
                expected += 1;
            }
            expected - 1
        }

        pub(super) fn sync_summary(store: &MessageStore) -> BTreeMap<UserId, u64> {
            store
                .authors()
                .map(|author| (*author, contiguous_prefix_for(store, author)))
                .collect()
        }
    }

    mod summaries {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        const AUTHORS: [&str; 3] = ["alice", "bob", "carol"];

        /// A stand-in bundle (the store never looks at signatures):
        /// one signed template, renumbered.
        fn cheap_bundle(
            author: usize,
            number: u64,
            created_secs: u64,
            copies: Option<u32>,
        ) -> Bundle {
            static TEMPLATE: OnceLock<Bundle> = OnceLock::new();
            let mut b = TEMPLATE.get_or_init(|| bundle("template", 1)).clone();
            b.message.id = MessageId {
                author: UserId::from_str_padded(AUTHORS[author]),
                number,
            };
            b.message.created_at = SimTime::from_secs(created_secs);
            b.copies = copies;
            b
        }

        proptest! {
            /// Stores grown and shrunk by random inserts and both kinds
            /// of eviction — holes at the bottom and in the middle,
            /// number 1 missing, authors emptied and refilled, numbers
            /// up against `u64::MAX` — answer all four summary questions
            /// as a walk over every bundle does, under pure predicates
            /// of several shapes (spray-style copy budgets among them).
            #[test]
            fn answers_from_the_ends_equal_walking_everything(
                ops in prop::collection::vec((0u8..10, 0usize..3, 1u64..14, any::<u64>()), 1..70),
                modulus in 2u64..5,
                fresh_secs in 0u64..100,
            ) {
                let mut store = MessageStore::new();
                for (kind, author, number, aux) in ops {
                    let me = UserId::from_str_padded(AUTHORS[author]);
                    match kind {
                        // Mostly inserts, low numbers, any creation order.
                        0..=5 => {
                            let copies = [None, Some(1), Some(4)][(aux % 3) as usize];
                            store.insert(cheap_bundle(author, number, aux % 100, copies));
                        }
                        6 => {
                            store.insert(cheap_bundle(author, u64::MAX - number % 3, aux % 100, None));
                        }
                        7 => {
                            store.evict_older_than(SimTime::from_secs(aux % 120), |b| {
                                aux % 2 == 0 && b.message.id.author == me
                            });
                        }
                        _ => {
                            store.evict_to_capacity((aux % 12) as usize, |b| {
                                aux % 5 == 0 && b.message.id.author == me
                            });
                        }
                    }

                    prop_assert_eq!(store.summary(), reference::summary_filtered(&store, |_| true));
                    prop_assert_eq!(store.sync_summary(), reference::sync_summary(&store));
                    for name in AUTHORS {
                        let author = UserId::from_str_padded(name);
                        prop_assert_eq!(
                            store.contiguous_prefix_for(&author),
                            reference::contiguous_prefix_for(&store, &author)
                        );
                    }
                    let fresh = SimTime::from_secs(fresh_secs);
                    let predicates: [&dyn Fn(&Bundle) -> bool; 5] = [
                        &|b| b.copies.is_none_or(|c| c > 1),
                        &|b| b.message.id.author == me || b.copies.is_none_or(|c| c > 1),
                        &|b| b.message.id.number % modulus != 0,
                        &|b| b.message.created_at >= fresh,
                        &|_| false,
                    ];
                    for advertise in predicates {
                        prop_assert_eq!(
                            store.summary_filtered(advertise),
                            reference::summary_filtered(&store, advertise)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn get_mut_allows_budget_decrement() {
        let mut store = MessageStore::new();
        let mut b = bundle("alice", 1);
        b.copies = Some(4);
        let id = b.message.id;
        store.insert(b);
        store.get_mut(&id).unwrap().copies = Some(2);
        assert_eq!(store.get(&id).unwrap().copies, Some(2));
    }
}
