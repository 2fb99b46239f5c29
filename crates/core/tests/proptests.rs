//! Property tests on the scanner's core invariants.

use iw_core::blacklist::CidrSet;
use iw_core::cookie::CookieKey;
use iw_core::inference::{ConnConfig, InferenceConn, RawOutcome};
use iw_core::permutation::Permutation;
use iw_core::rate::TokenBucket;
use iw_core::results::ProbeOutcome;
use iw_core::session::{classify_host, vote};
use iw_core::{HostVerdict, MssVerdict};
use iw_netsim::{Duration, Instant};
use iw_wire::ipv4::{Cidr, Ipv4Addr};
use iw_wire::tcp::{self, Flags, TcpOption};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The permutation visits every address exactly once, for any size.
    #[test]
    fn permutation_is_a_bijection(size in 1u64..5000, seed in any::<u64>()) {
        let perm = Permutation::new(size, seed);
        let mut seen = vec![false; size as usize];
        let mut count = 0u64;
        for addr in perm.iter() {
            prop_assert!(addr < size);
            prop_assert!(!seen[addr as usize], "revisited {addr}");
            seen[addr as usize] = true;
            count += 1;
        }
        prop_assert_eq!(count, size);
    }

    /// Shards partition the space for any shard count.
    #[test]
    fn shards_partition(size in 1u64..3000, seed in any::<u64>(), shards in 1u32..9) {
        let perm = Permutation::new(size, seed);
        let mut seen = vec![false; size as usize];
        let mut total = 0u64;
        for i in 0..shards {
            for addr in perm.shard(i, shards) {
                prop_assert!(!seen[addr as usize]);
                seen[addr as usize] = true;
                total += 1;
            }
        }
        prop_assert_eq!(total, size);
    }

    /// Cookies validate if and only if ack = isn + 1.
    #[test]
    fn cookie_validation_exact(seed in any::<u64>(), ip in any::<u32>(),
                               sport in any::<u16>(), delta in any::<u32>()) {
        let key = CookieKey::new(seed);
        let isn = key.isn(ip, sport, 80);
        let ack = isn.wrapping_add(delta);
        prop_assert_eq!(key.validate(ip, sport, 80, ack), delta == 1);
    }

    /// The estimator never overestimates: whatever subset of an IW-`n`
    /// flight arrives (in any order), a Success verdict reports ≤ n.
    #[test]
    fn inference_never_overestimates(
        n in 1u32..32,
        order in proptest::collection::vec(any::<u16>(), 1..32),
        release_more in any::<bool>(),
    ) {
        let src = Ipv4Addr::new(198, 18, 0, 1);
        let cfg = ConnConfig::new(
            Ipv4Addr::new(10, 0, 0, 1), src, 40000, 80, 64, 1000,
            b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        );
        let (mut conn, _) = InferenceConn::new(cfg, Instant::ZERO);
        let synack = tcp::Repr {
            src_port: 80, dst_port: 40000, seq: 5000, ack: 1001,
            flags: Flags::SYN | Flags::ACK, window: 65535,
            options: vec![TcpOption::Mss(64)], payload: vec![],
        };
        conn.on_segment(&synack, Instant::ZERO);
        let seg = |idx: u32| tcp::Repr {
            src_port: 80, dst_port: 40000,
            seq: 5001 + idx * 64, ack: 1019,
            flags: Flags::ACK, window: 65535, options: vec![],
            payload: vec![0xaa; 64],
        };
        // Deliver an arbitrary (sub)sequence of the flight's n segments.
        let mut result = None;
        for o in &order {
            let idx = u32::from(*o) % n;
            let out = conn.on_segment(&seg(idx), Instant::ZERO + Duration::from_millis(1));
            if let Some(r) = out.result {
                result = Some(r);
                break;
            }
        }
        if result.is_none() {
            // Force the retransmission signal (the host's RTO resends its
            // first segment; when the original never arrived that copy
            // only fills the hole, and the next RTO's copy is the signal),
            // then optionally release.
            let mut out = conn.on_segment(&seg(0), Instant::ZERO + Duration::from_secs(1));
            if !order.iter().any(|o| u32::from(*o) % n == 0) {
                prop_assert!(out.result.is_none());
                out = conn.on_segment(&seg(0), Instant::ZERO + Duration::from_secs(3));
            }
            result = out.result;
            if result.is_none() {
                if release_more {
                    let out = conn.on_segment(&seg(n), Instant::ZERO + Duration::from_secs(1));
                    result = out.result;
                }
                if result.is_none() {
                    let out = conn.on_timer(Instant::ZERO + Duration::from_secs(20));
                    result = out.result;
                }
            }
        }
        let result = result.expect("connection concluded");
        match result.outcome {
            RawOutcome::Success { segments, .. } => prop_assert!(segments <= n),
            RawOutcome::FewData { lower_bound, .. } => prop_assert!(lower_bound <= n),
            _ => {}
        }
    }

    /// Vote invariants: a Success verdict equals the maximum estimate,
    /// and is held by ≥2 probes (when 3+ probes ran); order-independent.
    #[test]
    fn vote_invariants(estimates in proptest::collection::vec(1u32..20, 3..6)) {
        let outcomes: Vec<ProbeOutcome> = estimates.iter().map(|s| ProbeOutcome::Success {
            segments: *s, bytes: s * 64, max_seg: 64,
            loss_suspected: false, reordered: false, redirected: false,
        }).collect();
        let verdict = vote(&outcomes);
        let max = *estimates.iter().max().expect("non-empty");
        let max_count = estimates.iter().filter(|s| **s == max).count();
        match verdict {
            MssVerdict::Success(v) => {
                prop_assert_eq!(v, max, "success must be the maximum");
                prop_assert!(max_count >= 2);
            }
            MssVerdict::Error => prop_assert!(max_count < 2),
            other => prop_assert!(false, "unexpected verdict {:?}", other),
        }
        // Permutation invariance.
        let mut reversed = outcomes.clone();
        reversed.reverse();
        prop_assert_eq!(vote(&reversed), verdict);
    }

    /// Cross-MSS classification is sound for generated policies.
    #[test]
    fn classification_props(a in 1u32..100, halves in any::<bool>()) {
        let b = if halves { (a / 2).max(1) } else { a };
        let v = vec![(64u16, MssVerdict::Success(a)), (128u16, MssVerdict::Success(b))];
        match classify_host(&v) {
            HostVerdict::SegmentBased(s) => prop_assert_eq!(s, a),
            HostVerdict::ByteBased(bytes) => {
                prop_assert_eq!(bytes, a * 64);
                prop_assert_eq!(a, 2 * b);
            }
            HostVerdict::OtherScaling { at_64, at_128 } => {
                prop_assert_eq!(at_64, a);
                prop_assert_eq!(at_128, b);
                prop_assert!(a != b && a != 2 * b);
            }
            HostVerdict::Unclassified => prop_assert!(false, "both succeeded"),
        }
    }

    /// The token bucket never grants more than rate × time + burst.
    #[test]
    fn token_bucket_rate_bound(
        rate in 100u64..100_000,
        burst in 1u64..1000,
        ticks in proptest::collection::vec(1u64..50, 1..100),
    ) {
        let t0 = Instant::ZERO;
        let mut bucket = TokenBucket::new(rate, burst, t0);
        let mut now = t0;
        let mut granted = 0u64;
        for tick_ms in &ticks {
            now += Duration::from_millis(*tick_ms);
            granted += bucket.take(now, u64::MAX);
        }
        let elapsed = (now - t0).as_secs_f64();
        let bound = (rate as f64 * elapsed).ceil() as u64 + burst + 1;
        prop_assert!(granted <= bound, "granted {granted} > bound {bound}");
    }

    /// CidrSet membership matches the naive per-prefix check.
    #[test]
    fn cidr_set_equivalence(
        prefixes in proptest::collection::vec((any::<u32>(), 8u8..=32), 1..8),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let cidrs: Vec<Cidr> = prefixes.iter()
            .map(|(ip, len)| Cidr::new(Ipv4Addr::from_u32(*ip), *len))
            .collect();
        let set = CidrSet::from_cidrs(&cidrs);
        for ip in probes {
            let naive = cidrs.iter().any(|c| c.contains(Ipv4Addr::from_u32(ip)));
            prop_assert_eq!(set.contains(ip), naive, "ip {}", ip);
        }
    }
}
