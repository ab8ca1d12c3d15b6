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
//!
//! Within the crate a caller may also admit by second chance, as the
//! prepared-key cache does: a lookup through `get_and_mark` marks the
//! entry it hits, and before inserting a newcomer into a full map the
//! caller asks `second_chance` about the oldest entry. A marked one is
//! unmarked and requeued at the back, and the newcomer stays out; an
//! unmarked one is the victim of the insert. An entry hit since it was
//! queued thus outlives one first sight, while the rest leave in
//! insertion order. Callers that never mark see plain first-in
//! first-out.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A `HashMap` holding at most `cap` entries, evicting first-in
/// first-out.
#[derive(Clone, Debug)]
pub struct FifoMap<K, V> {
    cap: usize,
    /// Each value beside its mark: set by a hit through
    /// [`FifoMap::get_and_mark`], cleared when
    /// [`FifoMap::second_chance`] requeues the entry.
    map: HashMap<K, (V, bool)>,
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
        self.map.get(key).map(|(value, _)| value)
    }

    /// [`FifoMap::get`], and a hit marks its entry for
    /// [`FifoMap::second_chance`].
    pub(crate) fn get_and_mark(&mut self, key: &K) -> Option<&V> {
        let (value, marked) = self.map.get_mut(key)?;
        *marked = true;
        Some(value)
    }

    /// Second-chance admission for a newcomer. When the map is full and
    /// its oldest entry is marked, unmarks that entry, moves it to the
    /// back of the queue and returns `true`: the caller keeps its
    /// newcomer out. Otherwise returns `false`, and an insert may
    /// proceed — evicting the oldest entry, unmarked, when full.
    pub(crate) fn second_chance(&mut self) -> bool {
        if self.order.len() < self.cap {
            return false;
        }
        let Some((_, marked)) = self.order.front().and_then(|k| self.map.get_mut(k)) else {
            return false;
        };
        if !*marked {
            return false;
        }
        *marked = false;
        self.order.rotate_left(1);
        true
    }

    /// Inserts `key → value`, first evicting the oldest entry when the
    /// map is full; returns the evicted key. Re-inserting a held key
    /// replaces its value in place: nothing is evicted and the key keeps
    /// its age and its mark.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some((held, _)) = self.map.get_mut(&key) {
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
        self.map.insert(key, (value, false));
        self.order.push_back(key);
        evicted
    }

    /// Keeps only the entries `keep` approves of; survivors keep their
    /// relative age.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|k, (v, _)| keep(k, v));
        self.order.retain(|k| self.map.contains_key(k));
    }

    /// Removes `key`, returning its value; the remaining entries keep
    /// their relative age. Costs a scan of the queue only on a hit.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (value, _) = self.map.remove(key)?;
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
    fn a_marked_oldest_entry_is_requeued_once_and_an_unmarked_one_evicted() {
        let mut m = FifoMap::new(3);
        // Room left: admission never declines, marks or not.
        m.insert(1u8, 'a');
        assert_eq!(m.get_and_mark(&1), Some(&'a'));
        assert!(!m.second_chance());
        m.insert(2, 'b');
        m.insert(3, 'c');
        // Full, oldest (1) marked: it is unmarked and requeued behind 3.
        assert!(m.second_chance());
        assert_eq!(m.len(), 3);
        // Now 2 is oldest and unmarked: the newcomer may evict it.
        assert!(!m.second_chance());
        assert_eq!(m.insert(4, 'd'), Some(2));
        // 3 is oldest, unmarked; then 1, whose mark was spent.
        assert_eq!(m.insert(5, 'e'), Some(3));
        assert!(!m.second_chance());
        assert_eq!(m.insert(6, 'f'), Some(1));
        // A plain `get` never marks.
        assert_eq!(m.get(&4), Some(&'d'));
        assert!(!m.second_chance());
        assert_eq!(m.get_and_mark(&9), None);
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
