//! Deterministic hashing / sampling helpers.
//!
//! Host properties must be pure functions of `(seed, ip, purpose)` so the
//! population never needs to be materialized. SplitMix64 provides the
//! avalanche; a few helpers turn hashes into weighted choices.

use iw_netsim::rng::splitmix64;

/// Mix several values into one hash.
pub fn mix(values: &[u64]) -> u64 {
    let mut acc = 0x51_7c_c1_b7_27_22_0a_95;
    for v in values {
        acc = splitmix64(acc ^ *v);
    }
    acc
}

/// A tiny deterministic RNG stream for one host attribute.
#[derive(Debug, Clone)]
pub struct HashStream {
    state: u64,
}

impl HashStream {
    /// Start a stream keyed by seed, ip and a purpose tag.
    pub fn new(seed: u64, ip: u32, purpose: u64) -> HashStream {
        HashStream {
            state: mix(&[seed, u64::from(ip), purpose]),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [lo, hi] inclusive.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Pick an index by weight from `weights` (must be non-empty; weights
    /// need not be normalized). Two passes over the iterator, total then
    /// pick, both summing left to right: no buffer, and the draw is the
    /// one a slice of the same weights gives.
    pub fn weighted_index(&mut self, weights: impl Iterator<Item = f64> + Clone) -> usize {
        let total: f64 = weights.clone().sum();
        debug_assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.next_f64() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            if target < w {
                return i;
            }
            target -= w;
            last = i;
        }
        last
    }
}

/// Sample from piecewise-uniform buckets `(lo, hi, weight)`; the value is
/// uniform inside the chosen bucket, `hi` exclusive.
pub fn bucket_sample(stream: &mut HashStream, buckets: &[(u32, u32, f64)]) -> u32 {
    let idx = stream.weighted_index(buckets.iter().map(|b| b.2));
    let (lo, hi, _) = buckets[idx];
    stream.next_range(
        u64::from(lo),
        u64::from(hi.saturating_sub(1)).max(u64::from(lo)),
    ) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = HashStream::new(1, 2, 3);
        let mut b = HashStream::new(1, 2, 3);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = HashStream::new(1, 2, 4);
        assert_ne!(HashStream::new(1, 2, 3).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut s = HashStream::new(9, 9, 9);
        for _ in 0..1000 {
            let v = s.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_inclusive() {
        let mut s = HashStream::new(5, 5, 5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = s.next_range(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut s = HashStream::new(1, 1, 1);
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(s.weighted_index(weights.iter().copied()), 1);
        }
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[s.weighted_index(weights.iter().copied())] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "got {frac}");
    }

    #[test]
    fn weighted_index_draws_what_the_buffered_form_drew() {
        // The slice form this replaced, kept as the reference.
        fn buffered(s: &mut HashStream, weights: &[f64]) -> usize {
            let total: f64 = weights.iter().sum();
            let mut target = s.next_f64() * total;
            for (i, w) in weights.iter().enumerate() {
                if target < *w {
                    return i;
                }
                target -= w;
            }
            weights.len() - 1
        }
        let mut gen = HashStream::new(3, 3, 3);
        for round in 0..10_000u32 {
            let weights: Vec<f64> = (0..1 + round % 9).map(|_| gen.next_f64() * 3.0).collect();
            let mut a = HashStream::new(4, round, 4);
            let mut b = a.clone();
            assert_eq!(
                a.weighted_index(weights.iter().copied()),
                buffered(&mut b, &weights),
                "{weights:?}"
            );
        }
    }

    #[test]
    fn bucket_sample_stays_in_bounds() {
        let buckets = [(10u32, 20u32, 1.0), (100, 200, 1.0)];
        let mut s = HashStream::new(2, 2, 2);
        for _ in 0..1000 {
            let v = bucket_sample(&mut s, &buckets);
            assert!((10..20).contains(&v) || (100..200).contains(&v));
        }
    }
}
