//! The session event log: a tally, plus full records for a watch set.
//!
//! Every per-host probe session emits lifecycle transitions as it runs:
//! SYN sent → SYN-ACK validated → probe started → retransmit detected →
//! verify-ACK sent → probe concluded → session finished. The log keeps
//! what is live, not what happened: one count per [`SessionEvent`]
//! variant and one per `SessionFinished` outcome, a fixed-size tally that
//! costs the same for 2^16 targets as for 2^32. That is everything
//! [`EventLog::summary_json`] prints. Whole lifecycles are kept only for
//! the addresses in the log's **watch set**, as time-stamped records
//! precise enough for tests to assert on exact sequences (the §3.5
//! "manual inspection" made mechanical) and for one host's causal story
//! to be told.

use crate::json::{push_key, push_u64_field};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Every kind, in `Ord` order (the order `verdicts` prints in).
    pub const ALL: [OutcomeKind; 4] = [
        OutcomeKind::Success,
        OutcomeKind::FewData,
        OutcomeKind::Error,
        OutcomeKind::Unreachable,
    ];

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

/// Every variant's name, indexed by [`SessionEvent::index`].
const EVENT_NAMES: [&str; 15] = [
    "syn_sent",
    "syn_ack_validated",
    "refused",
    "session_started",
    "probe_started",
    "follow_up_started",
    "retransmit_detected",
    "verify_ack_sent",
    "probe_concluded",
    "session_finished",
    "syn_retried",
    "probe_retried",
    "watchdog_forced",
    "session_evicted",
    "icmp_unreachable",
];

impl SessionEvent {
    /// Stable snake_case name of the event variant.
    pub fn name(&self) -> &'static str {
        EVENT_NAMES[self.index()]
    }

    /// The variant's position in declaration order (its tally slot).
    fn index(&self) -> usize {
        match self {
            SessionEvent::SynSent => 0,
            SessionEvent::SynAckValidated => 1,
            SessionEvent::Refused => 2,
            SessionEvent::SessionStarted => 3,
            SessionEvent::ProbeStarted { .. } => 4,
            SessionEvent::FollowUpStarted { .. } => 5,
            SessionEvent::RetransmitDetected { .. } => 6,
            SessionEvent::VerifyAckSent { .. } => 7,
            SessionEvent::ProbeConcluded { .. } => 8,
            SessionEvent::SessionFinished { .. } => 9,
            SessionEvent::SynRetried { .. } => 10,
            SessionEvent::ProbeRetried { .. } => 11,
            SessionEvent::WatchdogForced => 12,
            SessionEvent::SessionEvicted => 13,
            SessionEvent::IcmpUnreachable => 14,
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

/// The session event log: a tally of every event, and the records of
/// the watched addresses. See module docs.
///
/// Tallying is gated on `enabled` so the scanner can carry a log
/// unconditionally and pay nothing when event capture is off; records
/// are kept for watched addresses whether or not the tally runs.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    enabled: bool,
    /// Events per variant, by [`SessionEvent::index`].
    by_event: [u64; EVENT_NAMES.len()],
    /// `SessionFinished` events per outcome, by `OutcomeKind as usize`.
    by_verdict: [u64; OutcomeKind::ALL.len()],
    /// The addresses whose every event is kept as a record.
    watch: BTreeSet<u32>,
    /// The watched addresses' events (per shard: chronological).
    records: Vec<EventRecord>,
}

impl EventLog {
    /// A log that tallies (`enabled = true`) or discards everything.
    pub fn new(enabled: bool) -> EventLog {
        EventLog {
            enabled,
            ..EventLog::default()
        }
    }

    /// Keep every later event of these addresses as a record.
    pub fn watch(&mut self, ips: impl IntoIterator<Item = u32>) {
        self.watch.extend(ips);
    }

    /// Count an event, and keep it if its address is watched.
    #[inline]
    pub fn record(&mut self, at_nanos: u64, ip: u32, event: SessionEvent) {
        if self.enabled {
            self.by_event[event.index()] += 1;
            if let SessionEvent::SessionFinished { outcome } = event {
                self.by_verdict[outcome as usize] += 1;
            }
        }
        if !self.watch.is_empty() && self.watch.contains(&ip) {
            self.records.push(EventRecord {
                at_nanos,
                ip,
                event,
            });
        }
    }

    /// The watched addresses' records, in canonical order after a merge.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Events tallied.
    pub fn len(&self) -> u64 {
        self.by_event.iter().sum()
    }

    /// True when no event was tallied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One watched host's records, in order.
    pub fn for_ip(&self, ip: u32) -> Vec<EventRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| r.ip == ip)
            .collect()
    }

    /// Merge another shard's log into this one: the tallies add, and the
    /// records restore the canonical global order, by time with ties
    /// broken by ip. The sort is stable and each host lives in exactly
    /// one shard, so a host's same-instant events keep their causal
    /// order, and the records do not depend on the shard count.
    pub fn merge(&mut self, other: &EventLog) {
        self.enabled |= other.enabled;
        for (mine, theirs) in self.by_event.iter_mut().zip(other.by_event) {
            *mine += theirs;
        }
        for (mine, theirs) in self.by_verdict.iter_mut().zip(other.by_verdict) {
            *mine += theirs;
        }
        if !other.records.is_empty() {
            self.records.extend_from_slice(&other.records);
            self.records.sort_by_key(|r| (r.at_nanos, r.ip));
        }
    }

    /// Count of `SessionFinished` events by outcome — the event log's own
    /// verdict mix, cross-checkable against `summarize()`.
    pub fn terminal_counts(&self) -> BTreeMap<OutcomeKind, u64> {
        OutcomeKind::ALL
            .into_iter()
            .zip(self.by_verdict)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Count of events by variant name.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, u64> {
        EVENT_NAMES
            .into_iter()
            .zip(self.by_event)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Serialize the per-variant and per-verdict counts as a JSON object:
    /// `{"events": {...}, "verdicts": {...}}`. Deterministic (sorted keys),
    /// and — because it contains counts only, no timestamps — identical
    /// across shard counts for the same scan.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_key(&mut out, "events");
        push_counts(&mut out, self.counts_by_name());
        out.push(',');
        push_key(&mut out, "verdicts");
        push_counts(
            &mut out,
            self.terminal_counts()
                .into_iter()
                .map(|(k, n)| (k.name(), n)),
        );
        out.push('}');
        out
    }
}

/// Append `{"name":n,...}` in the order given.
fn push_counts(out: &mut String, counts: impl IntoIterator<Item = (&'static str, u64)>) {
    out.push('{');
    for (i, (name, n)) in counts.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64_field(out, name, n);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(outcome: OutcomeKind) -> SessionEvent {
        SessionEvent::SessionFinished { outcome }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        log.record(1, 2, SessionEvent::SynSent);
        assert!(log.is_empty());
        assert!(log.records().is_empty());
    }

    #[test]
    fn names_follow_the_variant_order() {
        let probe = SessionEvent::ProbeRetried {
            probe: 1,
            attempt: 2,
        };
        assert_eq!(probe.name(), "probe_retried");
        assert_eq!(SessionEvent::IcmpUnreachable.name(), "icmp_unreachable");
        assert_eq!(finished(OutcomeKind::Error).name(), "session_finished");
        // A verdict's tally slot is its discriminant.
        for (slot, kind) in OutcomeKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, slot, "{kind:?}");
        }
    }

    #[test]
    fn terminal_counts_and_filtering() {
        let mut log = EventLog::new(true);
        log.watch([1]);
        log.record(10, 1, SessionEvent::SynSent);
        log.record(20, 1, SessionEvent::SynAckValidated);
        log.record(30, 1, finished(OutcomeKind::Success));
        log.record(40, 2, finished(OutcomeKind::Error));
        let counts = log.terminal_counts();
        assert_eq!(counts[&OutcomeKind::Success], 1);
        assert_eq!(counts[&OutcomeKind::Error], 1);
        assert_eq!(log.len(), 4);
        assert_eq!(log.for_ip(1).len(), 3);
        assert!(
            log.for_ip(2).is_empty(),
            "an unwatched host keeps no record"
        );
        assert_eq!(log.counts_by_name()["syn_sent"], 1);
    }

    #[test]
    fn a_watched_host_is_recorded_without_the_tally() {
        let mut log = EventLog::new(false);
        log.watch([7]);
        log.record(5, 7, SessionEvent::SynSent);
        log.record(6, 8, SessionEvent::SynSent);
        assert!(log.is_empty());
        assert_eq!(log.records().len(), 1);
    }

    #[test]
    fn merge_restores_global_order() {
        let mut a = EventLog::new(true);
        a.watch([1, 2]);
        a.record(30, 1, SessionEvent::SynSent);
        a.record(50, 1, SessionEvent::SynAckValidated);
        a.record(50, 1, SessionEvent::SessionStarted);
        let mut b = EventLog::new(true);
        b.watch([1, 2]);
        b.record(10, 2, SessionEvent::SynSent);
        b.record(40, 2, SessionEvent::SynAckValidated);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.records(), ba.records(), "merge is order-independent");
        assert_eq!(ab.summary_json(), ba.summary_json());
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
        for (at, ip, outcome) in [
            (5, 3, OutcomeKind::Success),
            (7, 4, OutcomeKind::FewData),
            (9, 5, OutcomeKind::Success),
        ] {
            single.record(at, ip, finished(outcome));
        }
        let mut shard_a = EventLog::new(true);
        shard_a.record(7, 4, finished(OutcomeKind::FewData));
        let mut shard_b = EventLog::new(true);
        shard_b.record(5, 3, finished(OutcomeKind::Success));
        shard_b.record(9, 5, finished(OutcomeKind::Success));
        shard_a.merge(&shard_b);
        assert_eq!(single.summary_json(), shard_a.summary_json());
        assert_eq!(
            single.summary_json(),
            "{\"events\":{\"session_finished\":3},\"verdicts\":{\"success\":2,\"few_data\":1}}"
        );
        assert_eq!(
            EventLog::new(true).summary_json(),
            "{\"events\":{},\"verdicts\":{}}"
        );
    }
}
