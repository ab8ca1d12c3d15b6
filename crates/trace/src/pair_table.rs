//! [`PairTable`]: the one per-pair state table of this crate.
//!
//! Three passes over an encounter timeline keep a little state per
//! node pair and touch it once per event: the validator in
//! [`ContactTrace::new_labeled`](crate::ContactTrace::new_labeled) (is
//! the contact open?), the sanitizer's duplicate-transition state
//! machine (the open contact's distance) and
//! [`TraceAnalytics::compute`](crate::TraceAnalytics::compute) (when
//! the pair's current and previous contacts began and ended). A
//! `BTreeMap<(usize, usize), _>` made each of those a tree walk per
//! event — 85 of the binary decoder's 131 ns — so they share this
//! insert-only open-addressing table instead: one multiply, one probe
//! sequence over a flat slot array, no allocation after growth.
//!
//! It is a hash table for every input. Nothing here may be sized by a
//! trace's node count (a hostile binary header can claim `u64::MAX`
//! nodes), and a dense matrix below some population would be a second
//! structure with a knob between them; the table grows with the pairs
//! actually seen, which an in-memory event list bounds.
//!
//! **Order cannot leak.** Slot order depends on the hash and on
//! insertion history, so the table offers no iteration in slot order:
//! the only way to enumerate it is [`PairTable::sorted`], whose result
//! is a function of the key set alone. (`std::collections::HashMap` is
//! not an option in any case: `record.rs` and this file are under
//! `sos-lint`'s `no-hash-order`.)
//!
//! The hash is a fixed multiplicative mix, not a keyed one: a file
//! crafted against it can make a decode quadratic in its own pair
//! count, where the tree was `n log n`. The inputs are research
//! corpora read by the researcher who fetched them; a service exposing
//! the decoders to strangers should bound input size first, as it
//! already must for memory.

/// The first index of an empty slot. No caller can hold such a pair:
/// the validator and the analytics have `a < b` before they ask, the
/// sanitizer keys on ranks below its id count.
const EMPTY: usize = usize::MAX;

/// log2 of the initial slot count.
const INITIAL_BITS: u32 = 4;

#[derive(Clone, Copy)]
struct Slot<V> {
    a: usize,
    b: usize,
    value: V,
}

/// An insert-only map from a node pair `(a, b)`, `a != usize::MAX`,
/// to a small `Copy` state.
pub(crate) struct PairTable<V> {
    /// Power-of-two many, at most half of them occupied.
    slots: Vec<Slot<V>>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
}

impl<V: Copy + Default> PairTable<V> {
    /// An empty table.
    pub(crate) fn new() -> PairTable<V> {
        PairTable {
            slots: vec![Self::empty_slot(); 1 << INITIAL_BITS],
            len: 0,
            shift: u64::BITS - INITIAL_BITS,
        }
    }

    fn empty_slot() -> Slot<V> {
        Slot {
            a: EMPTY,
            b: EMPTY,
            value: V::default(),
        }
    }

    /// Pairs inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fibonacci hashing of the two indices packed side by side (an
    /// injective packing whenever both fit 32 bits, which node indices
    /// do); the top bits of the product are the well-mixed ones.
    fn home(&self, a: usize, b: usize) -> usize {
        let key = (a as u64) ^ (b as u64).rotate_left(32);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The state of pair `(a, b)`, inserted as `V::default()` when the
    /// pair is new.
    pub(crate) fn slot(&mut self, a: usize, b: usize) -> &mut V {
        debug_assert_ne!(a, EMPTY, "pair tables key on a < usize::MAX");
        // Growing first keeps the load at or below one half, so the
        // probe below always meets the pair or an empty slot.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(a, b);
        loop {
            let slot = &self.slots[at];
            if slot.a == a && slot.b == b {
                break;
            }
            if slot.a == EMPTY {
                self.slots[at] = Slot {
                    a,
                    b,
                    value: V::default(),
                };
                self.len += 1;
                break;
            }
            at = (at + 1) & mask;
        }
        &mut self.slots[at].value
    }

    /// Doubles the slot array and re-seats every pair.
    fn grow(&mut self) {
        let doubled = vec![Self::empty_slot(); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|slot| slot.a != EMPTY) {
            let mut at = self.home(slot.a, slot.b);
            while self.slots[at].a != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    /// Every pair with its state, ascending by `(a, b)` — the order a
    /// `BTreeMap` would have iterated in, and the only enumeration
    /// there is.
    pub(crate) fn sorted(&self) -> Vec<((usize, usize), V)> {
        let mut pairs: Vec<((usize, usize), V)> = self
            .slots
            .iter()
            .filter(|slot| slot.a != EMPTY)
            .map(|slot| ((slot.a, slot.b), slot.value))
            .collect();
        pairs.sort_unstable_by_key(|&(pair, _)| pair);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn new_pairs_start_at_default_and_keep_what_is_written() {
        let mut table: PairTable<Option<u64>> = PairTable::new();
        assert_eq!(table.len(), 0);
        assert!(table.sorted().is_empty());
        assert_eq!(*table.slot(3, 9), None);
        *table.slot(3, 9) = Some(7);
        *table.slot(9, 3) = Some(8); // ordered pairs: a different key
        *table.slot(5, 5) = Some(5); // self pairs are keys like any other
        assert_eq!(*table.slot(3, 9), Some(7));
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.sorted(),
            [((3, 9), Some(7)), ((5, 5), Some(5)), ((9, 3), Some(8))]
        );
    }

    #[test]
    fn growth_re_seats_every_pair() {
        let mut table: PairTable<usize> = PairTable::new();
        for a in 0..300 {
            for b in (a + 1)..300 {
                *table.slot(a, b) = a * 1000 + b;
            }
        }
        assert_eq!(table.len(), 300 * 299 / 2);
        assert!(table.slots.len() >= table.len() * 2);
        for a in 0..300 {
            for b in (a + 1)..300 {
                assert_eq!(*table.slot(a, b), a * 1000 + b);
            }
        }
        assert_eq!(table.len(), 300 * 299 / 2);
        let sorted = table.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pairs_with_one_home_slot_probe_past_each_other() {
        let mut table: PairTable<usize> = PairTable::new();
        let home = table.home(0, 1);
        // Seven pairs that all hash to one slot of the initial sixteen
        // (an eighth insertion would grow the table and part them).
        let crowd: Vec<usize> = (0..100_000)
            .filter(|&a| table.home(a, 1) == home)
            .take(7)
            .collect();
        assert_eq!(crowd.len(), 7);
        for &a in &crowd {
            *table.slot(a, 1) = a + 1;
        }
        assert_eq!(table.slots.len(), 16);
        for &a in &crowd {
            assert_eq!(*table.slot(a, 1), a + 1);
        }
        assert_eq!(table.len(), 7);
    }

    /// Keys drawn so that they collide: a handful of indices at both
    /// ends of the range (`usize::MAX - 1` is the largest `a` that an
    /// `a < b` pair can have), and strides of 2^32 and 2^40, which the
    /// packing folds onto small keys' bits.
    fn index() -> impl Strategy<Value = usize> {
        (0usize..6, 0usize..40).prop_map(|(kind, i)| match kind {
            0 | 1 => i,
            2 => usize::MAX - 1 - i,
            3 => i << 32,
            4 => i << 40,
            _ => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        })
    }

    proptest! {
        /// The table agrees with a `BTreeMap` model under arbitrary
        /// interleavings of reads, writes and growth.
        #[test]
        fn matches_a_btreemap_model(
            ops in prop::collection::vec((index(), index(), 0u32..4), 0..600),
        ) {
            let mut table: PairTable<u32> = PairTable::new();
            let mut model: BTreeMap<(usize, usize), u32> = BTreeMap::new();
            for (a, b, write) in ops {
                let got = table.slot(a, b);
                let want = model.entry((a, b)).or_default();
                prop_assert_eq!(*got, *want);
                if write > 0 {
                    *got += write;
                    *want += write;
                }
                prop_assert_eq!(table.len(), model.len());
            }
            let want: Vec<((usize, usize), u32)> = model.into_iter().collect();
            prop_assert_eq!(table.sorted(), want);
        }
    }
}
