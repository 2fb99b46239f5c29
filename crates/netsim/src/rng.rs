//! The engine's one pseudo-random generator: xoshiro256++ seeded through
//! four words of splitmix64, draw for draw what `rand` 0.8.5's `SmallRng`
//! gives on 64-bit targets (every golden and benchmark digest was drawn
//! from this stream; the known-answer tests below pin it).

/// SplitMix64: advance `x` by the golden-ratio increment and mix. Used as
/// a hash by the population model and as the seed expander here.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64's increment (2⁶⁴ / φ).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A small, fast, seedable generator (not cryptographic).
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Expand a 64-bit seed into the four state words.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut x = seed;
        SmallRng {
            s: std::array::from_fn(|_| {
                let word = splitmix64(x);
                x = x.wrapping_add(GAMMA);
                word
            }),
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Next 32 random bits: the high half of one 64-bit draw.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`: the 53 high bits of one 64-bit draw.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first eight words of three seeds, recorded from the generator
    /// this one replaced.
    #[rustfmt::skip]
    const KNOWN: [(u64, [u64; 8]); 3] = [
        (0, [
            0x5317_5d61_490b_23df, 0x61da_6f3d_c380_d507, 0x5c0f_df91_ec9a_7bfc, 0x02ee_bf8c_3bbe_5e1a,
            0x7eca_04eb_af4a_5eea, 0x0543_c377_57f0_8d9a, 0xdb74_90c7_5ab5_026e, 0xd873_43e6_464b_c959,
        ]),
        (7, [
            0x0e2c_1a00_2aae_913d, 0x2c0f_c8dd_fa4e_9e14, 0xb7b3_11b3_b0d4_5872, 0x6d5d_9f6a_6318_013c,
            0xf6b2_63f2_f579_0376, 0x7738_5b62_7c22_c489, 0xb951_f9b3_621e_a380, 0x5470_5b5a_dc01_e528,
        ]),
        (u64::MAX, [
            0x56cc_f8ce_948e_27b2, 0xe685_8843_2e5a_5b90, 0xe3e9_b5a4_8119_ca8b, 0x460f_1949_5532_ae73,
            0xa7d6_2040_ea92_63e1, 0x66f1_fb2a_c940_2c14, 0xe243_b47d_e8a7_3f68, 0x7c93_fdab_4c7b_3dff,
        ]),
    ];

    #[test]
    fn known_answer_vectors() {
        for (seed, words) in KNOWN {
            let mut r = SmallRng::seed_from_u64(seed);
            for w in words {
                assert_eq!(r.next_u64(), w, "seed {seed}");
            }
            let mut r = SmallRng::seed_from_u64(seed);
            for w in words {
                assert_eq!(r.next_u32(), (w >> 32) as u32, "seed {seed}");
            }
            let mut r = SmallRng::seed_from_u64(seed);
            for w in words {
                let f = r.next_f64();
                assert_eq!(f, (w >> 11) as f64 / 9_007_199_254_740_992.0);
                assert!((0.0..1.0).contains(&f));
            }
        }
        // Recorded separately, so the derivation above is itself checked.
        let mut r = SmallRng::seed_from_u64(7);
        assert_eq!(r.next_f64().to_bits(), 0x3fac_5834_0055_5d20);
        assert_eq!(r.next_f64(), 0.172_115_854_448_117_72);
        assert_eq!(r.next_u32(), 0xb7b3_11b3);
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit changes roughly half the output bits.
        let a = splitmix64(0x1234);
        let b = splitmix64(0x1235);
        let diff = (a ^ b).count_ones();
        assert!((16..=48).contains(&diff), "poor avalanche: {diff}");
    }
}
