//! Property tests pinning the provenance layer's two load-bearing
//! contracts: [`GlobalTimeline::merge`] imposes a total order that is
//! stable under arbitrary re-sharding of entries across journals (the
//! shard-count-invariance guarantee the PATH-REPORT byte-identity
//! tests rely on), and the peer-tagged JSONL encoding round-trips
//! every event variant exactly.

use proptest::prelude::*;
use sos_obs::journal::{JournalEntry, ObsEvent};
use sos_obs::{GlobalTimeline, Journal};
use sos_sim::SimTime;

/// One arbitrary journal entry from a raw tuple. A selector byte picks
/// the event variant (the vendored proptest stand-in has no
/// `prop_oneof`); `t` is a small per-node time *delta* — the generator
/// accumulates it into a per-node clock, so each node's stream is
/// time-ordered (as real journals are) while duplicate timestamps
/// across nodes — the case the `(time, node, seq)` tie-break exists
/// for — occur constantly.
type RawEntry = (u8, u64, u8, u32, u64, u8);

fn entry_of((sel, t, node, peer, seq, flag): RawEntry) -> JournalEntry {
    let author = u128::from(seq % 5) + 0xab00;
    let cause = ["ttl", "capacity"][usize::from(flag % 2)];
    let reject = ["forged_duplicate", "equivocation", "verify_failed"][usize::from(flag % 3)];
    let reason = ["done", "out_of_range", "protocol_error"][usize::from(flag % 3)];
    let event = match sel % 12 {
        0 => ObsEvent::SessionOpen {
            peer,
            initiated: flag % 2 == 0,
            resumed: flag % 3 == 0,
        },
        1 => ObsEvent::SessionClose { peer, reason },
        2 => ObsEvent::BundlePost { author, seq },
        3 => ObsEvent::BundleAccept {
            from: peer,
            author,
            seq,
            hops: u32::from(flag),
            stored: flag % 2 == 0,
            carried: usize::from(flag),
        },
        4 => ObsEvent::BundleDuplicate {
            from: peer,
            author,
            seq,
        },
        5 => ObsEvent::BundleReject {
            from: peer,
            author,
            seq,
            cause: reject,
        },
        6 => ObsEvent::BundleEvict { author, seq, cause },
        7 => ObsEvent::StoreEvict {
            count: usize::from(flag),
        },
        8 => ObsEvent::WantSent {
            peer,
            authors: usize::from(flag),
            chunks: usize::from(flag % 7),
        },
        9 => ObsEvent::Served {
            peer,
            bundles: usize::from(flag),
            frames: usize::from(flag % 9),
        },
        10 => ObsEvent::ContactUp {
            a: peer,
            b: peer + 1,
        },
        _ => ObsEvent::ContactDown {
            a: peer,
            b: peer + 1,
        },
    };
    JournalEntry {
        time: SimTime::from_millis(t),
        node: u32::from(node % 6),
        event,
    }
}

fn arb_entries() -> impl Strategy<Value = Vec<JournalEntry>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u64>(),
            any::<u8>(),
            0u32..32,
            any::<u64>(),
            any::<u8>(),
        ),
        0..120,
    )
    .prop_map(|raw| {
        let mut clock = [0u64; 6];
        raw.into_iter()
            .map(|(sel, t, node, peer, seq, flag)| {
                let n = usize::from(node % 6);
                clock[n] += t % 3; // mostly-zero deltas → heavy tie pressure
                entry_of((sel, clock[n], node, peer, seq, flag))
            })
            .collect()
    })
}

/// Splits `entries` into `shards` journals round-robin — per-node
/// relative order is preserved (each node's events stay in emission
/// order within its shard stream only if the shard assignment is
/// per-node), so shard by node id, which is what real sharded runs do.
fn shard_by_node(entries: &[JournalEntry], shards: u32) -> Vec<Journal> {
    let mut journals: Vec<Journal> = (0..shards).map(|_| Journal::default()).collect();
    for e in entries {
        journals[(e.node % shards) as usize].push(e.clone());
    }
    journals
}

proptest! {
    /// Merging is stable under re-sharding: splitting the same entry
    /// stream across 1, 2, or 5 journals (by node, as sharded runs do)
    /// yields byte-identical global timelines.
    #[test]
    fn merge_is_invariant_under_resharding(entries in arb_entries()) {
        let one = GlobalTimeline::merge(&shard_by_node(&entries, 1));
        let two = GlobalTimeline::merge(&shard_by_node(&entries, 2));
        let five = GlobalTimeline::merge(&shard_by_node(&entries, 5));
        prop_assert_eq!(one.to_jsonl(), two.to_jsonl());
        prop_assert_eq!(one.to_jsonl(), five.to_jsonl());
        prop_assert_eq!(one.len(), entries.len());
    }

    /// The merged timeline is totally ordered by `(time, node, seq)`:
    /// strictly increasing keys, no ties anywhere.
    #[test]
    fn merge_imposes_a_strict_total_order(entries in arb_entries()) {
        let timeline = GlobalTimeline::merge(&shard_by_node(&entries, 3));
        let keys: Vec<_> = timeline.events().iter().map(|e| e.sort_key()).collect();
        for pair in keys.windows(2) {
            prop_assert!(pair[0] < pair[1], "ties or inversions in {:?}", pair);
        }
    }

    /// Per-node emission order survives the merge: filtering the
    /// timeline back down to one node reproduces that node's original
    /// event sequence exactly.
    #[test]
    fn merge_preserves_per_node_order(entries in arb_entries()) {
        let timeline = GlobalTimeline::merge(&shard_by_node(&entries, 4));
        for node in 0..6u32 {
            let original: Vec<_> = entries
                .iter()
                .filter(|e| e.node == node)
                .map(|e| &e.event)
                .collect();
            let merged: Vec<_> = timeline
                .events()
                .iter()
                .filter(|e| e.node == node)
                .map(|e| &e.event)
                .collect();
            prop_assert_eq!(original, merged, "node {} order mangled", node);
        }
    }

    /// Every peer-tagged event variant survives a JSONL round-trip:
    /// `to_jsonl` → `from_jsonl` is the identity on entries.
    #[test]
    fn jsonl_round_trips_arbitrary_entries(entries in arb_entries()) {
        for entry in &entries {
            let line = entry.to_jsonl();
            let back = JournalEntry::from_jsonl(&line);
            prop_assert_eq!(Some(entry), back.as_ref(), "line: {}", line);
        }
    }
}
