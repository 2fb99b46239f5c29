//! ICMP control-plane harvest: the scan's side-channel, kept.
//!
//! A large TCP scan provokes a steady drizzle of ICMP back-traffic —
//! destination-unreachable subtypes from routers and end hosts,
//! fragmentation-needed from path-MTU bottlenecks — that the original
//! tooling simply discarded after using it to fast-fail targets. The
//! scanner counts every message by subtype in the registry's
//! `scan.icmp.*` family; the harvest keeps what a counter cannot: the
//! message count per source, and from it a crude rate-limiting signature
//! (sources emitting bursts of messages, the fingerprint of an
//! ICMP-rate-limited router speaking for many targets).
//!
//! Everything here is population-determined — which hosts send which
//! ICMP depends only on the target set — so harvests merge exactly
//! across shards and the rendered manifest section is byte-identical
//! for any shard count.

use crate::json::{push_array, push_ip, push_key, push_u64_field};
use crate::manifest::{Counter, COUNTERS};
use crate::registry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A source this chatty is treated as rate-limiting signature material.
pub const RATE_LIMIT_SIGNATURE_THRESHOLD: u64 = 8;

/// How many top talkers the manifest section lists.
const TOP_TALKERS: usize = 5;

/// How many rate-limited source addresses the manifest section lists
/// (the full count is always in `rate_limited_sources`).
const RATE_LIMITED_LISTED: usize = 16;

/// The destination-unreachable codes' counters, by the section's names.
const UNREACHABLE: [(&str, Counter); 4] = [
    ("net", Counter::IcmpUnreachableNet),
    ("host", Counter::IcmpUnreachableHost),
    ("port", Counter::IcmpUnreachablePort),
    ("other", Counter::IcmpUnreachableOther),
];

/// The other subtypes' counters, by the section's names.
const SUBTYPES: [(&str, Counter); 4] = [
    ("frag_needed", Counter::IcmpFragNeeded),
    ("echo_replies", Counter::IcmpEchoReplies),
    ("source_quench", Counter::IcmpSourceQuench),
    ("other", Counter::IcmpOther),
];

/// The value of a manifest counter in a snapshot.
fn count(metrics: &Snapshot, counter: Counter) -> u64 {
    metrics.counter(COUNTERS[counter as usize].1)
}

/// Messages per ICMP source. See module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IcmpHarvest {
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

    /// Note one ICMP message from `src`.
    pub fn note(&mut self, src: u32) {
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

    /// Per-subtype share of the `metrics` snapshot's ICMP messages, in
    /// basis points of 10 000 (integer arithmetic — byte-stable). Order:
    /// unreachable (all codes), then [`SUBTYPES`].
    pub fn subtype_rates_per_10k(metrics: &Snapshot) -> [u64; 5] {
        let messages = count(metrics, Counter::IcmpMessages);
        let mut counts = [0; 5];
        counts[0] = UNREACHABLE.iter().map(|&(_, c)| count(metrics, c)).sum();
        for (n, &(_, c)) in counts[1..].iter_mut().zip(&SUBTYPES) {
            *n = count(metrics, c);
        }
        counts.map(|n| (n * 10_000).checked_div(messages).unwrap_or(0))
    }

    /// Merge another shard's harvest (exact: everything is additive).
    pub fn merge(&mut self, other: &IcmpHarvest) {
        for (src, c) in &other.per_source {
            *self.per_source.entry(*src).or_insert(0) += c;
        }
    }

    /// The `icmp_harvest` section of the results manifest: the subtype
    /// tallies of the scan's `metrics`, this harvest's source statistics
    /// and the top talkers, byte-stable.
    pub fn section_json(&self, metrics: &Snapshot) -> String {
        let fields = |out: &mut String, fields: &[(&str, u64)]| {
            for (i, &(name, n)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_u64_field(out, name, n);
            }
        };
        let counts = |table: &[(&'static str, Counter)]| {
            let counts = table.iter().map(|&(name, c)| (name, count(metrics, c)));
            counts.collect::<Vec<_>>()
        };
        let mut out = String::from("{");
        push_u64_field(&mut out, "messages", count(metrics, Counter::IcmpMessages));
        out.push(',');
        push_key(&mut out, "unreachable");
        out.push('{');
        fields(&mut out, &counts(&UNREACHABLE));
        out.push_str("},");
        let sources = [
            ("sources", self.sources() as u64),
            ("max_per_source", self.max_per_source()),
            ("rate_limited_sources", self.rate_limited_sources()),
        ];
        fields(&mut out, &[counts(&SUBTYPES), sources.to_vec()].concat());
        out.push(',');
        push_key(&mut out, "rates_per_10k");
        out.push('{');
        let names = ["unreachable"]
            .into_iter()
            .chain(SUBTYPES.map(|(name, _)| name));
        let rates = names.zip(Self::subtype_rates_per_10k(metrics));
        fields(&mut out, &rates.collect::<Vec<_>>());
        out.push_str("},");
        push_key(&mut out, "rate_limited");
        let limited: Vec<u32> = (self.per_source.iter())
            .filter(|(_, c)| **c >= RATE_LIMIT_SIGNATURE_THRESHOLD)
            .map(|(s, _)| *s)
            .take(RATE_LIMITED_LISTED)
            .collect();
        push_array(&mut out, &limited, |src, out| push_ip(out, *src));
        out.push(',');
        push_key(&mut out, "top_talkers");
        let mut talkers: Vec<(u32, u64)> = self.per_source.iter().map(|(s, c)| (*s, *c)).collect();
        // Chattiest first; address ascending breaks ties deterministically.
        talkers.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        talkers.truncate(TOP_TALKERS);
        push_array(&mut out, &talkers, |&(src, n), out| {
            out.push('[');
            push_ip(out, src);
            let _ = write!(out, ",{n}]");
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    /// A harvest and a snapshot fed as the scanner's observer feeds them:
    /// each `(source, subtype)` message counts once in
    /// `scan.icmp.messages`, once in its subtype counter and once for its
    /// source.
    fn scan(messages: &[(u32, Counter)]) -> (IcmpHarvest, Snapshot) {
        let (mut harvest, mut metrics) = (IcmpHarvest::default(), MetricsRegistry::from_manifest());
        for &(src, subtype) in messages {
            metrics.inc(Counter::IcmpMessages);
            metrics.inc(subtype);
            harvest.note(src);
        }
        (harvest, metrics.snapshot())
    }

    #[test]
    fn classifies_unreachable_codes() {
        // Admin-prohibited (13) lands in "other".
        let counters = [0, 1, 3, 13].map(IcmpHarvest::unreachable_counter);
        assert_eq!(counters, UNREACHABLE.map(|(_, c)| c));
        let (h, metrics) = scan(&[1, 1, 2, 2].into_iter().zip(counters).collect::<Vec<_>>());
        assert_eq!(h.sources(), 2);
        let json = h.section_json(&metrics);
        let head = "{\"messages\":4,\"unreachable\":{\"net\":1,\"host\":1,\"port\":1,\"other\":1},";
        assert!(json.starts_with(head), "{json}");
    }

    #[test]
    fn source_quench_classification_and_rates() {
        let quench = (0x0a00_0009, Counter::IcmpSourceQuench);
        let mut messages = vec![quench; RATE_LIMIT_SIGNATURE_THRESHOLD as usize];
        messages.push((0x0a00_000a, Counter::IcmpUnreachableHost));
        messages.push((0x0a00_000a, Counter::IcmpSourceQuench));
        let (h, metrics) = scan(&messages);
        // Per-target flag: only the quench-flooded source qualifies.
        assert!(h.is_rate_limited(0x0a00_0009));
        assert!(!h.is_rate_limited(0x0a00_000a));
        assert!(!h.is_rate_limited(0x0a00_00ff));
        // Rates are integer basis points of 10k: 1 unreachable and 9
        // quenches of 10 messages.
        let rates = IcmpHarvest::subtype_rates_per_10k(&metrics);
        assert_eq!(rates, [1_000, 0, 0, 9_000, 0]);
        let json = h.section_json(&metrics);
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
            h.note(9);
        }
        h.note(10);
        assert_eq!(h.rate_limited_sources(), 1);
        assert_eq!(h.max_per_source(), RATE_LIMIT_SIGNATURE_THRESHOLD);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut a = IcmpHarvest::default();
        a.note(1);
        a.note(2);
        let mut b = IcmpHarvest::default();
        b.note(1);
        b.note(3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!((ab.sources(), ab.max_per_source()), (3, 2));
    }

    #[test]
    fn section_json_shape() {
        let host = (0x0a000001, Counter::IcmpUnreachableHost);
        let (h, metrics) = scan(&[host, host]);
        let json = h.section_json(&metrics);
        assert!(
            json.starts_with("{\"messages\":2,\"unreachable\":{\"net\":0,\"host\":2,"),
            "{json}"
        );
        assert!(
            json.contains("\"top_talkers\":[[\"10.0.0.1\",2]]"),
            "{json}"
        );
        // A harvest without messages renders every field, all zero.
        assert_eq!(
            IcmpHarvest::default().section_json(&Snapshot::default()),
            "{\"messages\":0,\"unreachable\":{\"net\":0,\"host\":0,\"port\":0,\"other\":0},\
             \"frag_needed\":0,\"echo_replies\":0,\"source_quench\":0,\"other\":0,\"sources\":0,\
             \"max_per_source\":0,\"rate_limited_sources\":0,\"rates_per_10k\":{\"unreachable\":0,\
             \"frag_needed\":0,\"echo_replies\":0,\"source_quench\":0,\"other\":0},\
             \"rate_limited\":[],\"top_talkers\":[]}"
        );
    }
}
