//! The structured session event log.
//!
//! Every per-host probe session emits lifecycle transitions as it runs:
//! SYN sent → SYN-ACK validated → probe started → retransmit detected →
//! verify-ACK sent → probe concluded → session finished. The log is a flat
//! vector of time-stamped records, cheap to append to, mergeable across
//! shards by concatenation + sort, and precise enough for tests to assert
//! on exact sequences (the §3.5 "manual inspection" made mechanical).

use crate::json::{push_key, push_u64_field};
use std::collections::BTreeMap;

/// Terminal classification of a probe or session, mirroring the scanner's
/// outcome/verdict taxonomy without depending on the core crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutcomeKind {
    /// Inference succeeded (verdict reached with enough data).
    Success,
    /// Host answered but sent too little data to pin the window.
    FewData,
    /// Protocol error or reset mid-inference.
    Error,
    /// No usable response at all.
    Unreachable,
}

impl OutcomeKind {
    /// Stable lowercase name used in JSON and status lines.
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Success => "success",
            OutcomeKind::FewData => "few_data",
            OutcomeKind::Error => "error",
            OutcomeKind::Unreachable => "unreachable",
        }
    }
}

/// A single lifecycle transition of one host's probe session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The stateless layer sent the initial SYN to this host.
    SynSent,
    /// A SYN-ACK carried a valid ISN cookie; the host is reachable.
    SynAckValidated,
    /// The host answered with a valid RST: port closed.
    Refused,
    /// A stateful [`HostSession`] was created for the host.
    SessionStarted,
    /// An inference probe began (one MSS trial).
    ProbeStarted {
        /// Zero-based probe index within the session.
        probe: u8,
        /// The MSS advertised for this probe.
        mss: u16,
    },
    /// A same-MSS follow-up connection began (majority voting).
    FollowUpStarted {
        /// The probe the follow-up belongs to.
        probe: u8,
    },
    /// The first retransmission was observed; bytes in flight frozen.
    RetransmitDetected {
        /// The probe during which the retransmit occurred.
        probe: u8,
        /// Unacked payload bytes at the moment of the retransmit.
        bytes_in_flight: u64,
    },
    /// The 2×MSS verify-ACK was sent to confirm window exhaustion.
    VerifyAckSent {
        /// The probe being verified.
        probe: u8,
    },
    /// One probe reached a terminal outcome.
    ProbeConcluded {
        /// The probe index.
        probe: u8,
        /// Its outcome.
        outcome: OutcomeKind,
    },
    /// The whole session finished with a host verdict.
    SessionFinished {
        /// The session's primary outcome.
        outcome: OutcomeKind,
    },
    /// The stateless layer retransmitted the initial SYN (retry budget).
    SynRetried {
        /// One-based retransmission attempt.
        attempt: u8,
    },
    /// A probe connection was relaunched on a fresh source port after an
    /// Error/Unreachable outcome (per-probe retry policy).
    ProbeRetried {
        /// The probe being retried.
        probe: u8,
        /// One-based connection attempt for this probe.
        attempt: u8,
    },
    /// The session was force-concluded by the per-session watchdog.
    WatchdogForced,
    /// The session was force-concluded to make room under `max_sessions`.
    SessionEvicted,
    /// An ICMP destination-unreachable arrived for this target.
    IcmpUnreachable,
}

impl SessionEvent {
    /// Stable snake_case name of the event variant.
    pub fn name(&self) -> &'static str {
        match self {
            SessionEvent::SynSent => "syn_sent",
            SessionEvent::SynAckValidated => "syn_ack_validated",
            SessionEvent::Refused => "refused",
            SessionEvent::SessionStarted => "session_started",
            SessionEvent::ProbeStarted { .. } => "probe_started",
            SessionEvent::FollowUpStarted { .. } => "follow_up_started",
            SessionEvent::RetransmitDetected { .. } => "retransmit_detected",
            SessionEvent::VerifyAckSent { .. } => "verify_ack_sent",
            SessionEvent::ProbeConcluded { .. } => "probe_concluded",
            SessionEvent::SessionFinished { .. } => "session_finished",
            SessionEvent::SynRetried { .. } => "syn_retried",
            SessionEvent::ProbeRetried { .. } => "probe_retried",
            SessionEvent::WatchdogForced => "watchdog_forced",
            SessionEvent::SessionEvicted => "session_evicted",
            SessionEvent::IcmpUnreachable => "icmp_unreachable",
        }
    }
}

/// One time-stamped event for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual time of the transition, in nanoseconds since scan start.
    pub at_nanos: u64,
    /// The target host (IPv4 address as u32 — the scanner's native key).
    pub ip: u32,
    /// The transition itself.
    pub event: SessionEvent,
}

/// An append-only log of session lifecycle events.
///
/// Recording is gated on `enabled` so the scanner can carry a log
/// unconditionally and pay nothing when event capture is off.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    enabled: bool,
    records: Vec<EventRecord>,
}

impl EventLog {
    /// A log that records (`enabled = true`) or discards everything.
    pub fn new(enabled: bool) -> EventLog {
        EventLog {
            enabled,
            records: Vec::new(),
        }
    }

    /// Append an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, at_nanos: u64, ip: u32, event: SessionEvent) {
        if self.enabled {
            self.records.push(EventRecord {
                at_nanos,
                ip,
                event,
            });
        }
    }

    /// All records, in insertion order (per shard: chronological).
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records for one host, in order.
    pub fn for_ip(&self, ip: u32) -> Vec<EventRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| r.ip == ip)
            .collect()
    }

    /// Merge another shard's log into this one, restoring the canonical
    /// global order: by time, ties broken by ip. The sort is stable and
    /// each host lives in exactly one shard, so a host's same-instant
    /// events keep their causal order. After a merge the log is
    /// deterministic regardless of shard count.
    pub fn merge(&mut self, other: &EventLog) {
        self.enabled |= other.enabled;
        self.records.extend_from_slice(&other.records);
        self.records.sort_by_key(|r| (r.at_nanos, r.ip));
    }

    /// Count of `SessionFinished` events by outcome — the event log's own
    /// verdict mix, cross-checkable against `summarize()`.
    pub fn terminal_counts(&self) -> BTreeMap<OutcomeKind, u64> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            if let SessionEvent::SessionFinished { outcome } = r.event {
                *counts.entry(outcome).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Count of events by variant name.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.event.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Serialize the per-variant and per-verdict counts as a JSON object:
    /// `{"events": {...}, "verdicts": {...}}`. Deterministic (sorted keys),
    /// and — because it contains counts only, no timestamps — identical
    /// across shard counts for the same scan.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_key(&mut out, "events");
        out.push('{');
        let mut first = true;
        for (name, n) in self.counts_by_name() {
            if !first {
                out.push(',');
            }
            first = false;
            push_u64_field(&mut out, name, n);
        }
        out.push_str("},");
        push_key(&mut out, "verdicts");
        out.push('{');
        let mut first = true;
        for (kind, n) in self.terminal_counts() {
            if !first {
                out.push(',');
            }
            first = false;
            push_u64_field(&mut out, kind.name(), n);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(at: u64, ip: u32, outcome: OutcomeKind) -> EventRecord {
        EventRecord {
            at_nanos: at,
            ip,
            event: SessionEvent::SessionFinished { outcome },
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        log.record(1, 2, SessionEvent::SynSent);
        assert!(log.is_empty());
    }

    #[test]
    fn terminal_counts_and_filtering() {
        let mut log = EventLog::new(true);
        log.record(10, 1, SessionEvent::SynSent);
        log.record(20, 1, SessionEvent::SynAckValidated);
        log.record(
            30,
            1,
            SessionEvent::SessionFinished {
                outcome: OutcomeKind::Success,
            },
        );
        log.record(
            40,
            2,
            SessionEvent::SessionFinished {
                outcome: OutcomeKind::Error,
            },
        );
        let counts = log.terminal_counts();
        assert_eq!(counts[&OutcomeKind::Success], 1);
        assert_eq!(counts[&OutcomeKind::Error], 1);
        assert_eq!(log.for_ip(1).len(), 3);
        assert_eq!(log.counts_by_name()["syn_sent"], 1);
    }

    #[test]
    fn merge_restores_global_order() {
        let mut a = EventLog::new(true);
        a.record(30, 1, SessionEvent::SynSent);
        a.record(50, 1, SessionEvent::SynAckValidated);
        a.record(50, 1, SessionEvent::SessionStarted);
        let mut b = EventLog::new(true);
        b.record(10, 2, SessionEvent::SynSent);
        b.record(40, 2, SessionEvent::SynAckValidated);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.records(), ba.records(), "merge is order-independent");
        let times: Vec<u64> = ab.records().iter().map(|r| r.at_nanos).collect();
        assert_eq!(times, vec![10, 30, 40, 50, 50]);
        // One host's same-instant events keep their causal order, not
        // their names' alphabetical one.
        let last: Vec<&str> = ab.records()[3..].iter().map(|r| r.event.name()).collect();
        assert_eq!(last, ["syn_ack_validated", "session_started"]);
    }

    #[test]
    fn summary_json_is_deterministic_across_sharding() {
        let mut single = EventLog::new(true);
        single.records = vec![
            finished(5, 3, OutcomeKind::Success),
            finished(7, 4, OutcomeKind::FewData),
            finished(9, 5, OutcomeKind::Success),
        ];
        let mut shard_a = EventLog::new(true);
        shard_a.records = vec![finished(7, 4, OutcomeKind::FewData)];
        let mut shard_b = EventLog::new(true);
        shard_b.records = vec![
            finished(5, 3, OutcomeKind::Success),
            finished(9, 5, OutcomeKind::Success),
        ];
        shard_a.merge(&shard_b);
        assert_eq!(single.summary_json(), shard_a.summary_json());
        assert_eq!(
            single.summary_json(),
            "{\"events\":{\"session_finished\":3},\"verdicts\":{\"success\":2,\"few_data\":1}}"
        );
    }
}
