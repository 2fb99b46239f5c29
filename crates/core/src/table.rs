//! Open-addressed hash table keyed by IPv4 address.
//!
//! It backs the scanner's one target table (`target::Targets`, hit once
//! or twice for every packet on the wire), the observer's table of SYN
//! stamps and the list targets' domains. All of them key on
//! the one component of the 4-tuple that actually varies during a scan —
//! the 32-bit target address; source address and both ports are fixed by
//! the session-parameter schedule. `IpMap` exploits that: a flat
//! power-of-two slot array, a single 64-bit multiply-xor finalizer over
//! the address (no SipHash, no `Hasher` indirection), robin-hood probing
//! to keep probe chains short at high load, and backward-shift deletion
//! so the table never accumulates tombstones no matter how many sessions
//! churn through it.
//!
//! Iteration order is *not* part of the contract (it follows hash order,
//! like `std::collections::HashMap`); the scanner never derives output
//! from table iteration, so determinism of scan results is preserved by
//! construction.

/// Maximum load numerator/denominator: grow at 7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Initial number of slots on first insert.
const INITIAL_SLOTS: usize = 16;

/// An open-addressed map from host-order IPv4 address to `V`.
///
/// Robin-hood probing with backward-shift deletion; amortized O(1)
/// insert/lookup/remove with no tombstones.
#[derive(Debug, Clone)]
pub struct IpMap<V> {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Option<(u32, V)>>,
    len: usize,
}

impl<V> Default for IpMap<V> {
    fn default() -> Self {
        IpMap::new()
    }
}

/// SplitMix64 finalizer over the address: full-avalanche in three
/// multiply-xor rounds, so consecutive addresses spread across slots.
#[inline]
fn hash(key: u32) -> u64 {
    let mut x = u64::from(key).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl<V> IpMap<V> {
    /// An empty map (allocates nothing until the first insert).
    pub fn new() -> IpMap<V> {
        IpMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Probe distance of the key resident at `idx` from its ideal slot.
    #[inline]
    fn displacement(&self, idx: usize, key: u32) -> usize {
        let ideal = (hash(key) as usize) & self.mask();
        (idx.wrapping_sub(ideal)) & self.mask()
    }

    /// Insert or replace; returns the previous value for the key.
    pub fn insert(&mut self, key: u32, value: V) -> Option<V> {
        if self.slots.is_empty() || (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        let mask = self.mask();
        let mut idx = (hash(key) as usize) & mask;
        let mut dist = 0usize;
        let mut entry = (key, value);
        loop {
            match self.slots[idx].as_mut() {
                None => {
                    self.slots[idx] = Some(entry);
                    self.len += 1;
                    return None;
                }
                Some(resident) => {
                    if resident.0 == entry.0 {
                        return Some(std::mem::replace(&mut resident.1, entry.1));
                    }
                    // Robin hood: the richer entry (smaller displacement)
                    // yields its slot and continues probing.
                    let ideal = (hash(resident.0) as usize) & mask;
                    let theirs = idx.wrapping_sub(ideal) & mask;
                    if theirs < dist {
                        std::mem::swap(resident, &mut entry);
                        dist = theirs;
                    }
                }
            }
            idx = (idx + 1) & mask;
            dist += 1;
        }
    }

    /// Find the slot index holding `key`, if present.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut idx = (hash(key) as usize) & mask;
        let mut dist = 0usize;
        loop {
            match &self.slots[idx] {
                None => return None,
                Some((k, _)) => {
                    if *k == key {
                        return Some(idx);
                    }
                    // The robin-hood invariant orders a probe chain by
                    // displacement: passing an entry closer to home than
                    // we are proves the key is absent.
                    if self.displacement(idx, *k) < dist {
                        return None;
                    }
                }
            }
            idx = (idx + 1) & mask;
            dist += 1;
        }
    }

    /// Shared reference to the value for `key`.
    pub fn get(&self, key: u32) -> Option<&V> {
        self.find(key)
            .and_then(|idx| self.slots[idx].as_ref())
            .map(|(_, v)| v)
    }

    /// Mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        self.find(key)
            .and_then(|idx| self.slots[idx].as_mut())
            .map(|(_, v)| v)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: u32) -> bool {
        self.find(key).is_some()
    }

    /// Remove `key`, returning its value. Backward-shift deletion: the
    /// tail of the probe chain moves one slot closer to home, so no
    /// tombstone is left and lookups never scan dead slots.
    pub fn remove(&mut self, key: u32) -> Option<V> {
        let idx = self.find(key)?;
        let removed = self.slots[idx].take().map(|(_, v)| v);
        if removed.is_some() {
            self.len -= 1;
        }
        let mask = self.mask();
        let mut hole = idx;
        let mut cur = (idx + 1) & mask;
        loop {
            let shift = match &self.slots[cur] {
                Some((k, _)) => self.displacement(cur, *k) > 0,
                None => false,
            };
            if !shift {
                break;
            }
            self.slots[hole] = self.slots[cur].take();
            hole = cur;
            cur = (cur + 1) & mask;
        }
        removed
    }

    /// Keep only entries for which `f` returns true.
    ///
    /// Collects doomed keys first, then removes them one by one: the
    /// backward shifts of removal would otherwise move not-yet-visited
    /// entries behind the scan cursor.
    pub fn retain(&mut self, mut f: impl FnMut(&u32, &mut V) -> bool) {
        let mut dead: Vec<u32> = Vec::new();
        for (k, v) in self.slots.iter_mut().flatten() {
            if !f(k, v) {
                dead.push(*k);
            }
        }
        for k in dead {
            self.remove(k);
        }
    }

    /// Iterate over `(key, &value)` in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Double the slot array (or allocate it) and re-file every entry.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            INITIAL_SLOTS
        } else {
            self.slots.len() * 2
        };
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// xorshift64* — deterministic op streams for the model test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = IpMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&"a2"));
        assert_eq!(m.get(3), None);
        assert!(m.contains_key(2));
        assert_eq!(m.remove(1), Some("a2"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m = IpMap::new();
        m.insert(42, 0u32);
        if let Some(v) = m.get_mut(42) {
            *v = 7;
        }
        assert_eq!(m.get(42), Some(&7));
    }

    #[test]
    fn matches_std_hashmap_under_random_churn() {
        // 20k mixed operations over a deliberately small key space so
        // collisions, displacement chains and backward shifts all happen
        // constantly; the std HashMap is the reference model.
        for seed in 1..=5u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let mut m: IpMap<u64> = IpMap::new();
            let mut model: HashMap<u32, u64> = HashMap::new();
            for step in 0..20_000u64 {
                let key = (rng.next() % 512) as u32;
                match rng.next() % 4 {
                    0 | 1 => {
                        assert_eq!(m.insert(key, step), model.insert(key, step), "seed {seed}");
                    }
                    2 => {
                        assert_eq!(m.remove(key), model.remove(&key), "seed {seed}");
                    }
                    _ => {
                        assert_eq!(m.get(key), model.get(&key), "seed {seed}");
                        assert_eq!(m.contains_key(key), model.contains_key(&key));
                    }
                }
                assert_eq!(m.len(), model.len(), "seed {seed}");
            }
            let mut got: Vec<(u32, u64)> = m.iter().map(|(k, v)| (k, *v)).collect();
            got.sort_unstable();
            let mut want: Vec<(u32, u64)> = model.into_iter().collect();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn retain_matches_model() {
        let mut m: IpMap<u32> = IpMap::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        for k in 0..1000u32 {
            m.insert(k, k * 3);
            model.insert(k, k * 3);
        }
        m.retain(|k, v| (*k + *v) % 3 == 0 || *k < 10);
        model.retain(|k, v| (*k + *v) % 3 == 0 || *k < 10);
        assert_eq!(m.len(), model.len());
        for (k, v) in &model {
            assert_eq!(m.get(*k), Some(v));
        }
    }

    #[test]
    fn full_churn_leaves_no_residue() {
        // Insert and remove the same large batch repeatedly: without
        // backward-shift deletion this degrades as tombstones pile up;
        // here the table must end every lap exactly empty.
        let mut m: IpMap<u32> = IpMap::new();
        for lap in 0..5u32 {
            for k in 0..10_000u32 {
                m.insert(k, lap);
            }
            assert_eq!(m.len(), 10_000);
            for k in 0..10_000u32 {
                assert_eq!(m.remove(k), Some(lap), "lap {lap}");
            }
            assert!(m.is_empty(), "lap {lap}");
        }
    }

    #[test]
    fn adversarial_same_slot_keys() {
        // Keys engineered to share low hash bits still resolve by linear
        // probing; deleting the head of the chain must not orphan the
        // tail (the backward shift repairs it).
        let mut m: IpMap<u32> = IpMap::new();
        let keys: Vec<u32> = (0..64u32).collect();
        for &k in &keys {
            m.insert(k, k + 100);
        }
        for &k in &keys {
            assert_eq!(m.get(k), Some(&(k + 100)));
        }
        for &k in keys.iter().step_by(2) {
            m.remove(k);
        }
        for &k in &keys {
            if k % 2 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&(k + 100)));
            }
        }
    }
}
