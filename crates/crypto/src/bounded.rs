//! The one bounded map of the workspace: the process-wide prepared-key
//! cache of [`crate::ed25519`], each [`crate::ca::Validator`]'s
//! verified-certificate cache, and — from `sos-core` — the ad hoc
//! manager's resumption tickets and the middleware's futile-browse marks.
//!
//! A full map gives up **one** entry per insert — the one inserted
//! longest ago — so a working set of `n > cap` keys degrades the hit
//! rate towards `cap / n` instead of emptying the cache every `cap`
//! misses. The victim is chosen by insertion order alone (a queue of
//! keys beside the map), never by hash order, so which keys survive is
//! the same on every run.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A `HashMap` holding at most `cap` entries, evicting first-in
/// first-out.
#[derive(Clone, Debug)]
pub struct FifoMap<K, V> {
    cap: usize,
    map: HashMap<K, V>,
    /// The map's keys, oldest insertion first.
    order: VecDeque<K>,
}

impl<K: Copy + Eq + Hash, V> FifoMap<K, V> {
    /// An empty map that will hold up to `cap` (at least one) entries.
    pub fn new(cap: usize) -> FifoMap<K, V> {
        debug_assert!(cap > 0, "a FifoMap must hold something");
        FifoMap {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks `key` up; a hit does not change its place in the queue.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Inserts `key → value`, first evicting the oldest entry when the
    /// map is full; returns the evicted key. Re-inserting a held key
    /// replaces its value in place: nothing is evicted and the key keeps
    /// its age.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(held) = self.map.get_mut(&key) {
            *held = value;
            return None;
        }
        let evicted = if self.order.len() >= self.cap {
            self.order.pop_front()
        } else {
            None
        };
        if let Some(victim) = &evicted {
            self.map.remove(victim);
        }
        self.map.insert(key, value);
        self.order.push_back(key);
        evicted
    }

    /// Keeps only the entries `keep` approves of; survivors keep their
    /// relative age.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|k, v| keep(k, v));
        self.order.retain(|k| self.map.contains_key(k));
    }

    /// Removes `key`, returning its value; the remaining entries keep
    /// their relative age. Costs a scan of the queue only on a hit.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        self.order.retain(|k| k != key);
        Some(value)
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_map_evicts_exactly_the_oldest_insertion() {
        let mut m = FifoMap::new(3);
        assert_eq!(m.insert(10u32, 'a'), None);
        assert_eq!(m.insert(20, 'b'), None);
        assert_eq!(m.insert(30, 'c'), None);
        // A hit does not refresh: 10 is still the oldest.
        assert_eq!(m.get(&10), Some(&'a'));
        assert_eq!(m.insert(40, 'd'), Some(10));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&10), None);
        assert_eq!(m.insert(50, 'e'), Some(20));
        assert_eq!(m.insert(10, 'f'), Some(30));
        assert_eq!(
            [40, 50, 10].map(|k| m.get(&k).copied()),
            [Some('d'), Some('e'), Some('f')]
        );
    }

    #[test]
    fn reinserting_a_held_key_replaces_in_place() {
        let mut m = FifoMap::new(2);
        m.insert(1u8, "one");
        m.insert(2, "two");
        assert_eq!(m.insert(1, "uno"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&"uno"));
        // 1 kept its age, so it is still the next victim.
        assert_eq!(m.insert(3, "three"), Some(1));
    }

    #[test]
    fn retain_and_clear_keep_queue_and_map_in_step() {
        let mut m = FifoMap::new(4);
        for k in 1u8..=4 {
            m.insert(k, k * 10);
        }
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 2);
        // Two free slots, then eviction resumes with the oldest survivor.
        assert_eq!(m.insert(5, 50), None);
        assert_eq!(m.insert(6, 60), None);
        assert_eq!(m.insert(7, 70), Some(2));
        assert_eq!(m.insert(8, 80), Some(4));
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert(9, 90), None);
        assert_eq!(m.get(&9), Some(&90));
    }

    #[test]
    fn remove_frees_a_slot_and_forgets_the_key_s_age() {
        let mut m = FifoMap::new(3);
        for k in 1u8..=3 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.remove(&9), None);
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!((m.len(), m.get(&1)), (2, None));
        // The freed slot is filled without a victim; re-inserted, 1 is
        // now the youngest, so 2 and 3 go first.
        assert_eq!(m.insert(1, 11), None);
        assert_eq!(m.insert(4, 40), Some(2));
        assert_eq!(m.insert(5, 50), Some(3));
        assert_eq!(m.insert(6, 60), Some(1));
    }

    #[test]
    fn a_cycling_working_set_larger_than_the_cap_never_exceeds_it() {
        let mut m = FifoMap::new(8);
        for round in 0u32..5 {
            for k in 0u32..12 {
                if m.get(&k).is_none() {
                    m.insert(k, round);
                }
                assert!(m.len() <= 8);
            }
        }
        assert_eq!(m.len(), 8);
    }
}
