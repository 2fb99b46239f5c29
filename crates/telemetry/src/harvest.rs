//! ICMP control-plane harvest: the scan's side-channel, kept.
//!
//! A large TCP scan provokes a steady drizzle of ICMP back-traffic —
//! destination-unreachable subtypes from routers and end hosts,
//! fragmentation-needed from path-MTU bottlenecks — that the original
//! tooling simply discarded after using it to fast-fail targets. The
//! harvest classifies and retains it: per-subtype tallies, per-source
//! message counts, and a crude rate-limiting signature (sources emitting
//! bursts of messages, the fingerprint of an ICMP-rate-limited router
//! speaking for many targets).
//!
//! Everything here is population-determined — which hosts send which
//! ICMP depends only on the target set — so harvests merge exactly
//! across shards and the rendered manifest section is byte-identical
//! for any shard count. Mirrored into the `scan.icmp.*` metric family.

use crate::json::{push_key, push_u64_field};
use crate::manifest::Counter;
use std::collections::BTreeMap;

/// A source this chatty is treated as rate-limiting signature material.
pub const RATE_LIMIT_SIGNATURE_THRESHOLD: u64 = 8;

/// How many top talkers the manifest section lists.
const TOP_TALKERS: usize = 5;

/// How many rate-limited source addresses the manifest section lists
/// (the full count is always in `rate_limited_sources`).
const RATE_LIMITED_LISTED: usize = 16;

/// Classified, retained ICMP side-traffic. See module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IcmpHarvest {
    /// Every ICMP message seen by the scanner's control plane.
    pub messages: u64,
    /// Destination-unreachable, code 0 (network unreachable).
    pub unreachable_net: u64,
    /// Destination-unreachable, code 1 (host unreachable).
    pub unreachable_host: u64,
    /// Destination-unreachable, code 3 (port unreachable).
    pub unreachable_port: u64,
    /// Destination-unreachable, any other code.
    pub unreachable_other: u64,
    /// Fragmentation-needed (RFC 1191 path-MTU signal).
    pub frag_needed: u64,
    /// Echo replies (MTU-probe mode answers).
    pub echo_replies: u64,
    /// Source-quench messages (type 4): routers/hosts asking the sender
    /// to slow down — the classic rate-limiting signature.
    pub source_quench: u64,
    /// Anything else (echo requests, unknown types).
    pub other: u64,
    /// Messages per source address.
    per_source: BTreeMap<u32, u64>,
}

impl IcmpHarvest {
    /// The `scan.icmp.unreachable_*` counter a destination-unreachable
    /// `code` falls into: net (0), host (1), port (3) or other.
    pub fn unreachable_counter(code: u8) -> Counter {
        match code {
            0 => Counter::IcmpUnreachableNet,
            1 => Counter::IcmpUnreachableHost,
            3 => Counter::IcmpUnreachablePort,
            _ => Counter::IcmpUnreachableOther,
        }
    }

    /// Note a destination-unreachable from `src` with the given code.
    pub fn note_unreachable(&mut self, src: u32, code: u8) {
        match Self::unreachable_counter(code) {
            Counter::IcmpUnreachableNet => self.unreachable_net += 1,
            Counter::IcmpUnreachableHost => self.unreachable_host += 1,
            Counter::IcmpUnreachablePort => self.unreachable_port += 1,
            _ => self.unreachable_other += 1,
        }
        self.note_source(src);
    }

    /// Note a fragmentation-needed from `src`.
    pub fn note_frag_needed(&mut self, src: u32) {
        self.frag_needed += 1;
        self.note_source(src);
    }

    /// Note an echo reply from `src`.
    pub fn note_echo_reply(&mut self, src: u32) {
        self.echo_replies += 1;
        self.note_source(src);
    }

    /// Note a source-quench from `src`.
    pub fn note_source_quench(&mut self, src: u32) {
        self.source_quench += 1;
        self.note_source(src);
    }

    /// Note any other ICMP message from `src`.
    pub fn note_other(&mut self, src: u32) {
        self.other += 1;
        self.note_source(src);
    }

    fn note_source(&mut self, src: u32) {
        self.messages += 1;
        *self.per_source.entry(src).or_insert(0) += 1;
    }

    /// Distinct sources seen.
    pub fn sources(&self) -> usize {
        self.per_source.len()
    }

    /// Largest per-source message count.
    pub fn max_per_source(&self) -> u64 {
        self.per_source.values().copied().max().unwrap_or(0)
    }

    /// Sources at or past [`RATE_LIMIT_SIGNATURE_THRESHOLD`].
    pub fn rate_limited_sources(&self) -> u64 {
        self.per_source
            .values()
            .filter(|c| **c >= RATE_LIMIT_SIGNATURE_THRESHOLD)
            .count() as u64
    }

    /// Does `target` carry the rate-limiting signature? In the simulated
    /// internet ICMP carries no quoted datagram, so the message source
    /// *is* the target it speaks for.
    pub fn is_rate_limited(&self, target: u32) -> bool {
        self.per_source
            .get(&target)
            .is_some_and(|c| *c >= RATE_LIMIT_SIGNATURE_THRESHOLD)
    }

    /// Per-subtype share of all harvested messages, in basis points of
    /// 10 000 (integer arithmetic — byte-stable). Order: unreachable
    /// (all codes), frag-needed, echo-reply, source-quench, other.
    pub fn subtype_rates_per_10k(&self) -> [u64; 5] {
        if self.messages == 0 {
            return [0; 5];
        }
        let unreachable = self.unreachable_net
            + self.unreachable_host
            + self.unreachable_port
            + self.unreachable_other;
        [
            unreachable,
            self.frag_needed,
            self.echo_replies,
            self.source_quench,
            self.other,
        ]
        .map(|n| n * 10_000 / self.messages)
    }

    /// True when no ICMP was harvested.
    pub fn is_empty(&self) -> bool {
        self.messages == 0
    }

    /// Merge another shard's harvest (exact: everything is additive).
    pub fn merge(&mut self, other: &IcmpHarvest) {
        self.messages += other.messages;
        self.unreachable_net += other.unreachable_net;
        self.unreachable_host += other.unreachable_host;
        self.unreachable_port += other.unreachable_port;
        self.unreachable_other += other.unreachable_other;
        self.frag_needed += other.frag_needed;
        self.echo_replies += other.echo_replies;
        self.source_quench += other.source_quench;
        self.other += other.other;
        for (src, c) in &other.per_source {
            *self.per_source.entry(*src).or_insert(0) += c;
        }
    }

    /// The `icmp_harvest` section of the results manifest: subtype
    /// tallies, source statistics and the top talkers, byte-stable.
    pub fn section_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_u64_field(&mut out, "messages", self.messages);
        out.push(',');
        push_key(&mut out, "unreachable");
        out.push('{');
        push_u64_field(&mut out, "net", self.unreachable_net);
        out.push(',');
        push_u64_field(&mut out, "host", self.unreachable_host);
        out.push(',');
        push_u64_field(&mut out, "port", self.unreachable_port);
        out.push(',');
        push_u64_field(&mut out, "other", self.unreachable_other);
        out.push_str("},");
        push_u64_field(&mut out, "frag_needed", self.frag_needed);
        out.push(',');
        push_u64_field(&mut out, "echo_replies", self.echo_replies);
        out.push(',');
        push_u64_field(&mut out, "source_quench", self.source_quench);
        out.push(',');
        push_u64_field(&mut out, "other", self.other);
        out.push(',');
        push_u64_field(&mut out, "sources", self.sources() as u64);
        out.push(',');
        push_u64_field(&mut out, "max_per_source", self.max_per_source());
        out.push(',');
        push_u64_field(
            &mut out,
            "rate_limited_sources",
            self.rate_limited_sources(),
        );
        out.push(',');
        let rates = self.subtype_rates_per_10k();
        push_key(&mut out, "rates_per_10k");
        out.push('{');
        push_u64_field(&mut out, "unreachable", rates[0]);
        out.push(',');
        push_u64_field(&mut out, "frag_needed", rates[1]);
        out.push(',');
        push_u64_field(&mut out, "echo_replies", rates[2]);
        out.push(',');
        push_u64_field(&mut out, "source_quench", rates[3]);
        out.push(',');
        push_u64_field(&mut out, "other", rates[4]);
        out.push_str("},");
        push_key(&mut out, "rate_limited");
        out.push('[');
        let limited = self
            .per_source
            .iter()
            .filter(|(_, c)| **c >= RATE_LIMIT_SIGNATURE_THRESHOLD)
            .map(|(s, _)| *s);
        for (i, src) in limited.take(RATE_LIMITED_LISTED).enumerate() {
            use std::fmt::Write;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}.{}.{}.{}\"",
                (src >> 24) & 0xff,
                (src >> 16) & 0xff,
                (src >> 8) & 0xff,
                src & 0xff
            );
        }
        out.push_str("],");
        push_key(&mut out, "top_talkers");
        out.push('[');
        let mut talkers: Vec<(u32, u64)> = self.per_source.iter().map(|(s, c)| (*s, *c)).collect();
        // Chattiest first; address ascending breaks ties deterministically.
        talkers.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        for (i, (src, count)) in talkers.iter().take(TOP_TALKERS).enumerate() {
            use std::fmt::Write;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}.{}.{}.{}\",{}]",
                (src >> 24) & 0xff,
                (src >> 16) & 0xff,
                (src >> 8) & 0xff,
                src & 0xff,
                count
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_unreachable_codes() {
        let mut h = IcmpHarvest::default();
        h.note_unreachable(1, 0);
        h.note_unreachable(1, 1);
        h.note_unreachable(2, 3);
        h.note_unreachable(2, 13); // admin-prohibited lands in "other"
        assert_eq!(
            (
                h.unreachable_net,
                h.unreachable_host,
                h.unreachable_port,
                h.unreachable_other
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(h.messages, 4);
        assert_eq!(h.sources(), 2);
    }

    #[test]
    fn source_quench_classification_and_rates() {
        let mut h = IcmpHarvest::default();
        for _ in 0..RATE_LIMIT_SIGNATURE_THRESHOLD {
            h.note_source_quench(0x0a00_0009);
        }
        h.note_unreachable(0x0a00_000a, 1);
        h.note_source_quench(0x0a00_000a);
        assert_eq!(h.source_quench, RATE_LIMIT_SIGNATURE_THRESHOLD + 1);
        assert_eq!(h.messages, RATE_LIMIT_SIGNATURE_THRESHOLD + 2);
        // Per-target flag: only the quench-flooded source qualifies.
        assert!(h.is_rate_limited(0x0a00_0009));
        assert!(!h.is_rate_limited(0x0a00_000a));
        assert!(!h.is_rate_limited(0x0a00_00ff));
        // Rates are integer basis points of 10k and sum to ≤ 10_000.
        let rates = h.subtype_rates_per_10k();
        assert_eq!(rates[0], 10_000 / 10); // 1 unreachable of 10 messages
        assert_eq!(rates[3], 9 * 10_000 / 10);
        assert!(rates.iter().sum::<u64>() <= 10_000);
        let json = h.section_json();
        assert!(json.contains("\"source_quench\":9"), "{json}");
        assert!(
            json.contains("\"rates_per_10k\":{\"unreachable\":1000,"),
            "{json}"
        );
        assert!(json.contains("\"rate_limited\":[\"10.0.0.9\"]"), "{json}");
    }

    #[test]
    fn rate_limit_signature_counts_chatty_sources() {
        let mut h = IcmpHarvest::default();
        for _ in 0..RATE_LIMIT_SIGNATURE_THRESHOLD {
            h.note_unreachable(9, 1);
        }
        h.note_unreachable(10, 1);
        assert_eq!(h.rate_limited_sources(), 1);
        assert_eq!(h.max_per_source(), RATE_LIMIT_SIGNATURE_THRESHOLD);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = IcmpHarvest::default();
        a.note_unreachable(1, 0);
        a.note_frag_needed(2);
        let mut b = IcmpHarvest::default();
        b.note_unreachable(1, 3);
        b.note_echo_reply(3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.section_json(), ba.section_json());
        assert_eq!(ab.messages, 4);
    }

    #[test]
    fn section_json_shape() {
        let mut h = IcmpHarvest::default();
        h.note_unreachable(0x0a000001, 1);
        h.note_unreachable(0x0a000001, 1);
        let json = h.section_json();
        assert!(
            json.starts_with("{\"messages\":2,\"unreachable\":{\"net\":0,\"host\":2,"),
            "{json}"
        );
        assert!(
            json.contains("\"top_talkers\":[[\"10.0.0.1\",2]]"),
            "{json}"
        );
    }
}
