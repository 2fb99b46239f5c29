//! Offline stub of `rand` 0.8: the API surface this workspace uses
//! (SmallRng + seed_from_u64 + gen::<f64>/<u32>/<u64>/<bool>), backed by
//! xoshiro256++ so draws are deterministic and well distributed.

/// Seedable RNG constructors.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed (splitmix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }

    /// Uniform draw in `[low, high)` (u64 ranges only).
    fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64
    where
        Self: Sized,
    {
        let span = range.end - range.start;
        range.start + self.next_u64() % span.max(1)
    }
}

/// Standard-distribution sampling for primitive types.
pub trait Standard: Sized {
    /// Draw one value from `r`.
    fn from_rng<R: Rng>(r: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: Rng>(r: &mut R) -> u64 {
        r.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: Rng>(r: &mut R) -> u32 {
        (r.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn from_rng<R: Rng>(r: &mut R) -> u16 {
        (r.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn from_rng<R: Rng>(r: &mut R) -> u8 {
        (r.next_u64() >> 56) as u8
    }
}

impl Standard for bool {
    fn from_rng<R: Rng>(r: &mut R) -> bool {
        r.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: Rng>(r: &mut R) -> f64 {
        // 53 high bits -> uniform in [0, 1).
        (r.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Concrete RNG types.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++ stand-in for rand's SmallRng.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut st = seed;
            SmallRng {
                s: [
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                    splitmix64(&mut st),
                ],
            }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_in_range() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
