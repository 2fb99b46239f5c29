//! Stateless SYN-ACK validation cookies.
//!
//! ZMap allocates no state when it sends a SYN; instead it derives the
//! initial sequence number from a keyed hash of the flow tuple. When a
//! SYN-ACK comes back, `ack - 1` must equal the cookie — anything else
//! (stale duplicates, spoofed backscatter, misrouted packets) is dropped
//! before the scanner's stateful probe module allocates a connection.

use iw_internet::util::mix;

/// Taxonomy of a SYN-ACK's acknowledgment number against the cookie.
///
/// Distinguishing *how* validation failed matters operationally: a raw
/// ISN echo (`ack == isn`, off by exactly the missing `+1`) fingerprints
/// broken middleboxes and simplistic responders, while an arbitrary
/// mismatch is stale duplicates or spoofed backscatter. Both are dropped,
/// but they increment different `scan.synack.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynAckCheck {
    /// `ack == isn + 1`: the genuine response to our SYN.
    Valid,
    /// `ack == isn` exactly: the peer echoed our ISN without the +1 —
    /// a distinct failure signature worth counting separately.
    RawIsnEcho,
    /// Anything else: spoofed, stale, or misrouted.
    Mismatch,
}

/// Per-scan secret key material.
#[derive(Debug, Clone, Copy)]
pub struct CookieKey {
    secret: u64,
}

impl CookieKey {
    /// Derive the key from the scan seed.
    pub fn new(seed: u64) -> CookieKey {
        CookieKey {
            secret: mix(&[seed, 0xc00_c1e]),
        }
    }

    /// The ISN to place in a SYN for flow (dst ip, src port, dst port).
    pub fn isn(&self, dst_ip: u32, src_port: u16, dst_port: u16) -> u32 {
        let h = mix(&[
            self.secret,
            u64::from(dst_ip),
            (u64::from(src_port) << 16) | u64::from(dst_port),
        ]);
        h as u32
    }

    /// Validate a SYN-ACK's acknowledgment number for the flow.
    pub fn validate(&self, dst_ip: u32, src_port: u16, dst_port: u16, ack: u32) -> bool {
        ack == self.isn(dst_ip, src_port, dst_port).wrapping_add(1)
    }

    /// Classify a SYN-ACK's acknowledgment number for the flow (see
    /// [`SynAckCheck`] for the taxonomy).
    pub fn classify_synack(
        &self,
        dst_ip: u32,
        src_port: u16,
        dst_port: u16,
        ack: u32,
    ) -> SynAckCheck {
        let isn = self.isn(dst_ip, src_port, dst_port);
        if ack == isn.wrapping_add(1) {
            SynAckCheck::Valid
        } else if ack == isn {
            SynAckCheck::RawIsnEcho
        } else {
            SynAckCheck::Mismatch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let key = CookieKey::new(99);
        let isn = key.isn(0x0a000001, 40000, 80);
        assert!(key.validate(0x0a000001, 40000, 80, isn.wrapping_add(1)));
        assert!(!key.validate(0x0a000001, 40000, 80, isn));
        assert!(!key.validate(0x0a000001, 40000, 80, isn.wrapping_add(2)));
    }

    #[test]
    fn flow_sensitivity() {
        let key = CookieKey::new(99);
        let base = key.isn(1, 40000, 80);
        assert_ne!(base, key.isn(2, 40000, 80), "ip matters");
        assert_ne!(base, key.isn(1, 40001, 80), "src port matters");
        assert_ne!(base, key.isn(1, 40000, 443), "dst port matters");
    }

    #[test]
    fn seed_sensitivity() {
        assert_ne!(
            CookieKey::new(1).isn(1, 2, 3),
            CookieKey::new(2).isn(1, 2, 3)
        );
    }

    #[test]
    fn synack_taxonomy() {
        let key = CookieKey::new(99);
        let isn = key.isn(0x0a000001, 40_000, 80);
        assert_eq!(
            key.classify_synack(0x0a000001, 40_000, 80, isn.wrapping_add(1)),
            SynAckCheck::Valid
        );
        assert_eq!(
            key.classify_synack(0x0a000001, 40_000, 80, isn),
            SynAckCheck::RawIsnEcho
        );
        assert_eq!(
            key.classify_synack(0x0a000001, 40_000, 80, isn.wrapping_add(2)),
            SynAckCheck::Mismatch
        );
        assert_eq!(
            key.classify_synack(0x0a000001, 40_000, 80, 0xdead_beef),
            SynAckCheck::Mismatch
        );
    }

    #[test]
    fn isns_look_uniform() {
        let key = CookieKey::new(7);
        let mut buckets = [0u32; 16];
        for ip in 0..16_000u32 {
            buckets[(key.isn(ip, 40000, 80) >> 28) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1200).contains(&b), "skewed bucket: {b}");
        }
    }
}
