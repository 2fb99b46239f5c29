//! The workspace's one address-keyed map: the simulator's routing
//! tables, the scanner's target, stamp and domain tables, and the
//! flight recorder's per-target stores.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by host-order IPv4 address, hashed by
/// [`AddrHasher`]. The simulator's scanner-timer table keys the same
/// hasher by a `u64` token (`K`). No iteration over one reaches output
/// unsorted: a caller that writes what it visits sorts it first.
#[expect(
    clippy::disallowed_types,
    reason = "no iteration reaches output unsorted, see above"
)]
pub type AddrMap<V, K = u32> = std::collections::HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// Multiplicative hasher for `u32` address keys: the kernel and the
/// scanner look an address up in several tables per packet, and the
/// default SipHash costs more than the rest of the lookup. Addresses in
/// the simulation are not attacker-controlled, so a single 64-bit mix
/// (SplitMix64's finalizer multiplier) is enough.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); address keys use `write_u32` below.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        let mut x = (self.0 << 32) ^ u64::from(v) ^ 0x9e37_79b9_7f4a_7c15;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}
