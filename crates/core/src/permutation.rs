//! ZMap-style address-space permutation.
//!
//! Targets are visited in the order of the cyclic group ⟨g⟩ ⊂ (Z/pZ)*
//! with p the smallest prime above the space size: `x ← g·x mod p`,
//! skipping values outside the space. This gives (a) a full permutation
//! — every address exactly once, (b) no per-address state beyond one
//! u64, and (c) probes that spread uniformly over the space and thus
//! over destination networks, which is what lets ZMap send at line rate
//! without hammering one prefix.
//!
//! Sharding splits the cycle by stride: shard *i* of *n* starts at
//! `g^(i+1)` and steps by `g^n`, so shards partition the space exactly.

use crate::prime::{mod_mul, mod_pow, next_prime, primitive_root};

/// A full-cycle permutation of `{0, 1, …, size-1}`.
#[derive(Debug, Clone)]
pub struct Permutation {
    size: u64,
    p: u64,
    generator: u64,
}

impl Permutation {
    /// Build a permutation of a space of `size` addresses.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: u64, seed: u64) -> Permutation {
        assert!(size > 0, "empty scan space");
        let p = next_prime(size.max(2));
        let generator = primitive_root(p, seed);
        Permutation { size, p, generator }
    }

    /// Space size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The generator in use.
    pub fn generator(&self) -> u64 {
        self.generator
    }

    /// Iterate the whole space (shard 0 of 1).
    pub fn iter(&self) -> ShardIter {
        self.shard(0, 1)
    }

    /// Iterate shard `index` of `count` (cycle-striding split).
    ///
    /// # Panics
    /// Panics if `index >= count` or `count == 0`.
    pub fn shard(&self, index: u32, count: u32) -> ShardIter {
        assert!(count > 0 && index < count, "bad shard spec");
        let step = mod_pow(self.generator, u64::from(count), self.p);
        let start = mod_pow(self.generator, u64::from(index) + 1, self.p);
        ShardIter {
            perm: self.clone(),
            step,
            next: start,
            produced: 0,
            budget: cycle_len(self.p, u64::from(index), u64::from(count)),
        }
    }
}

/// How many of the p−1 group elements fall to shard `index` of `count`.
fn cycle_len(p: u64, index: u64, count: u64) -> u64 {
    let total = p - 1;
    let base = total / count;
    let extra = u64::from(index < total % count);
    base + extra
}

/// Iterator over one shard's targets (values < size, i.e. shifted to
/// 0-based addresses).
#[derive(Debug, Clone)]
pub struct ShardIter {
    perm: Permutation,
    step: u64,
    next: u64,
    produced: u64,
    budget: u64,
}

impl Iterator for ShardIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.produced < self.budget {
            let current = self.next;
            self.next = mod_mul(self.next, self.step, self.perm.p);
            self.produced += 1;
            // Group elements are 1..=p-1; addresses are 0..size.
            let addr = current - 1;
            if addr < self.perm.size {
                return Some(addr);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn full_cycle_is_a_permutation() {
        for size in [10u64, 100, 1000, 4096] {
            let perm = Permutation::new(size, 42);
            let visited: Vec<u64> = perm.iter().collect();
            assert_eq!(visited.len() as u64, size);
            let set: HashSet<u64> = visited.iter().copied().collect();
            assert_eq!(set.len() as u64, size, "all distinct");
            assert!(visited.iter().all(|a| *a < size));
        }
    }

    #[test]
    fn shards_partition_the_space() {
        // Every address falls to exactly one shard, for every seed.
        for (size, seed) in [
            (10_007u64, 7u64),
            (1 << 12, 0x1307),
            (1 << 12, 9_999_999_999),
        ] {
            let perm = Permutation::new(size, seed);
            for shard_count in [1u32, 2, 3, 8] {
                let mut all = HashSet::new();
                let mut total = 0u64;
                for i in 0..shard_count {
                    for addr in perm.shard(i, shard_count) {
                        assert!(all.insert(addr), "address visited twice");
                        total += 1;
                    }
                }
                assert_eq!(total, size, "{shard_count} shards must cover all");
            }
        }
    }

    #[test]
    fn different_seeds_different_orders() {
        let a: Vec<u64> = Permutation::new(1000, 1).iter().take(50).collect();
        let b: Vec<u64> = Permutation::new(1000, 2).iter().take(50).collect();
        assert_ne!(a, b);
        // But both cover the same set eventually.
        let sa: HashSet<u64> = Permutation::new(1000, 1).iter().collect();
        let sb: HashSet<u64> = Permutation::new(1000, 2).iter().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn order_is_scattered_not_sequential() {
        // The permutation must not walk prefixes in order: count how many
        // successive pairs are adjacent addresses.
        let visited: Vec<u64> = Permutation::new(100_000, 3).iter().take(1000).collect();
        let adjacent = visited
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || w[0] == w[1] + 1)
            .count();
        assert!(adjacent < 5, "{adjacent} adjacent pairs in 1000 probes");
    }

    #[test]
    fn deterministic() {
        let a: Vec<u64> = Permutation::new(5000, 9).iter().collect();
        let b: Vec<u64> = Permutation::new(5000, 9).iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_spaces() {
        assert_eq!(Permutation::new(1, 0).iter().collect::<Vec<_>>(), vec![0]);
        let two: HashSet<u64> = Permutation::new(2, 0).iter().collect();
        assert_eq!(two, HashSet::from([0, 1]));
    }

    #[test]
    fn spread_across_halves() {
        // First 1% of probes should already touch both halves of the
        // space roughly evenly (the anti-hammering property).
        let size = 1 << 20;
        let first: Vec<u64> = Permutation::new(size, 5).iter().take(10_000).collect();
        let low = first.iter().filter(|a| **a < size / 2).count();
        let frac = low as f64 / first.len() as f64;
        assert!((0.45..0.55).contains(&frac), "{frac}");
    }
}
