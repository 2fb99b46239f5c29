//! The metrics manifest: every metric the scanner records, declared once.
//!
//! There is one enum per instrument kind ([`Counter`], [`Gauge`],
//! [`Hist`]) and one table per enum ([`COUNTERS`], [`GAUGES`],
//! [`HISTOGRAMS`]) whose row `i` gives the snapshot name and determinism
//! [`Scope`] of the variant with discriminant `i`.
//! [`MetricsRegistry::from_manifest`] registers the rows in that order,
//! so a variant *is* its registry slot: the scanner records through
//! `registry.inc(Counter::Refused)` and holds no handles. Renaming a
//! metric, or moving it between the canonical `Scan` scope and the
//! scheduling-determined `Shard` scope, is a one-line change to its row.
//!
//! [`MetricsRegistry::from_manifest`]: crate::registry::MetricsRegistry::from_manifest

use crate::registry::Scope;

/// Every monotonic counter the scanner records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Targets admitted past filter + sampling and probed.
    TargetsSent,
    /// SYN-ACKs that validated against the ISN cookie.
    SynacksValidated,
    /// SYNs answered by RST (host up, port closed).
    Refused,
    /// Stateful sessions created (one per responsive host).
    SessionsStarted,
    /// First-retransmission detections (the "end of IW" signal).
    RetransmitsDetected,
    /// 2×MSS exhaustion-verification ACKs sent.
    VerifyAcksSent,
    /// Probes that concluded `Success`.
    ProbesSuccess,
    /// Probes that concluded `FewData`.
    ProbesFewData,
    /// Probes that concluded `Error`.
    ProbesError,
    /// Probes that concluded `Unreachable`.
    ProbesUnreachable,
    /// Sessions whose primary verdict was `Success`.
    SessionsSuccess,
    /// Sessions whose primary verdict was `FewData`.
    SessionsFewData,
    /// Sessions whose primary verdict was `Error`.
    SessionsError,
    /// Sessions whose primary verdict was `Unreachable`.
    SessionsUnreachable,
    /// SYN retransmissions for silent targets.
    SynRetries,
    /// Probe connection retries on fresh source ports.
    ProbesRetried,
    /// Inference probes begun (one MSS trial each).
    ProbesStarted,
    /// Same-MSS follow-up connections begun (majority voting).
    ProbesFollowUps,
    /// Sessions evicted by the `max_sessions` cap.
    SessionsEvicted,
    /// Sessions force-concluded by the per-session watchdog.
    SessionsWatchdogForced,
    /// ICMP destination-unreachable fast-fails.
    IcmpUnreachable,
    /// Probe errors of kind `MidConnectionReset`.
    ErrMidConnectionReset,
    /// Probe errors of kind `Malformed`.
    ErrMalformed,
    /// Probe errors of kind `Inconsistent`.
    ErrInconsistent,
    /// Probe errors of kind `HandshakeTimeout`.
    ErrHandshakeTimeout,
    /// Probe errors of kind `CollectTimeout`.
    ErrCollectTimeout,
    /// Probe errors of kind `IcmpUnreachable`.
    ErrIcmpUnreachable,
    /// Every ICMP message the scanner's control plane received.
    IcmpMessages,
    /// Destination-unreachable, code 0 (network unreachable).
    IcmpUnreachableNet,
    /// Destination-unreachable, code 1 (host unreachable).
    IcmpUnreachableHost,
    /// Destination-unreachable, code 3 (port unreachable).
    IcmpUnreachablePort,
    /// Destination-unreachable, any other code (admin-prohibited and friends).
    IcmpUnreachableOther,
    /// Fragmentation-needed messages (RFC 1191 path-MTU signal).
    IcmpFragNeeded,
    /// Source-quench messages: the rate-limiting signature ("Hidden Treasures").
    IcmpSourceQuench,
    /// Echo replies (path-MTU probe answers).
    IcmpEchoReplies,
    /// Any other ICMP message (echo requests, unknown types).
    IcmpOther,
    /// SYN-ACKs acking the raw cookie ISN (missing +1): broken middlebox.
    SynackRawIsnEcho,
    /// SYN-ACKs whose ack failed cookie validation outright.
    SynackCookieMismatch,
    /// RSTs on any verdict path dropped for failing cookie validation.
    RstIgnored,
    /// Cookie-valid SYN-ACKs and RSTs for a target that already has its
    /// verdict: the SYN-ACK is reset, neither mints a second one.
    LateAnswers,
    /// Must be zero, like every `Invariant*`: packets to hosts neither delivered nor lost.
    InvariantUnconservedToHosts,
    /// Packets to the scanner neither delivered nor lost.
    InvariantUnconservedToScanner,
    /// Pool buffers still checked out when a world drained.
    InvariantPoolLeaked,
    /// Sessions and queued SYN retries left when a world drained.
    InvariantWorkLeft,
    /// Addresses holding more than one record.
    InvariantDuplicateRecords,
    /// `|results - sessions started|`: records without a validated session.
    InvariantUnsessionedRecords,
    /// Session, watchdog or host timers that fired with nothing to fire into.
    InvariantStaleTimers,
    /// State changes along an edge missing from a `TRANSITIONS` table.
    InvariantUndeclaredEdges,
    /// `|Σ worlds' pacing rates − max(rate_pps, worlds)|` of a sharded
    /// run: the shards' slices of the global rate do not add up to it.
    InvariantRateUnsummed,
    /// Records whose verdict claims more than the host's configured
    /// window: a `Success(n)` above it or a `FewData` bound above it.
    InvariantTruthOverestimate,
    /// Records at a targeted address where no host offers the protocol.
    InvariantTruthSpurious,
    /// Hosts whose primary verdict is `Success(n)` with `n` their window.
    TruthExact,
    /// Hosts whose primary verdict is `Success(n)` below their window.
    TruthUnderestimate,
    /// Hosts with any other primary verdict (a bound at or below their
    /// window, an error, or none).
    TruthInconclusive,
    /// Targeted hosts without a record.
    TruthMissed,
    /// State entries cut short by a graceful-shutdown drain.
    DrainForced,
    /// Flight-recorder dumps retained (targets that ended in an error).
    FlightDumps,
    /// Scan-scoped spans recorded (session phases; partition across shards).
    TraceSpansScan,
    /// Shard-scoped spans recorded, including those past the retention cap.
    TraceSpansShard,
    /// Pacing ticks taken.
    PaceTicks,
    /// Events the timer-wheel queue dispatched over the run.
    SimEvents,
    /// Packets delivered to an endpoint (scanner-bound plus host-bound).
    SimPackets,
    /// Fresh slabs the shared packet-buffer pool allocated.
    SimPoolAllocations,
    /// Buffers served from the pool free list instead of the allocator.
    SimPoolRecycled,
}

/// Every gauge the scanner records (the registry keeps the peak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Live sessions.
    SessionsLivePeak,
    /// Pool buffers still checked out when the scan drained (zero when clean).
    SimPoolOutstanding,
}

/// Every log₂ histogram the scanner records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// SYN → SYN-ACK round-trip times.
    RttNanos,
    /// SYN-ACK → verdict session lifetimes.
    SessionLifetimeNanos,
    /// Distinct payload bytes in flight at retransmit detection.
    RetransmitBytesInFlight,
    /// Virtual durations of every span retained at harvest.
    SpanNanos,
    /// Token-bucket wait times when throttled.
    PaceTokenWaitNanos,
}

/// Name and scope of every [`Counter`], row `i` for discriminant `i`.
#[rustfmt::skip]
pub const COUNTERS: [(Counter, &str, Scope); 64] = [
    (Counter::TargetsSent, "scan.targets_sent", Scope::Scan),
    (Counter::SynacksValidated, "scan.synacks_validated", Scope::Scan),
    (Counter::Refused, "scan.refused", Scope::Scan),
    (Counter::SessionsStarted, "scan.sessions_started", Scope::Scan),
    (Counter::RetransmitsDetected, "scan.retransmits_detected", Scope::Scan),
    (Counter::VerifyAcksSent, "scan.verify_acks_sent", Scope::Scan),
    (Counter::ProbesSuccess, "scan.probes.success", Scope::Scan),
    (Counter::ProbesFewData, "scan.probes.few_data", Scope::Scan),
    (Counter::ProbesError, "scan.probes.error", Scope::Scan),
    (Counter::ProbesUnreachable, "scan.probes.unreachable", Scope::Scan),
    (Counter::SessionsSuccess, "scan.sessions.success", Scope::Scan),
    (Counter::SessionsFewData, "scan.sessions.few_data", Scope::Scan),
    (Counter::SessionsError, "scan.sessions.error", Scope::Scan),
    (Counter::SessionsUnreachable, "scan.sessions.unreachable", Scope::Scan),
    (Counter::SynRetries, "scan.syn_retries", Scope::Scan),
    (Counter::ProbesRetried, "scan.probes.retried", Scope::Scan),
    (Counter::ProbesStarted, "scan.probes.started", Scope::Scan),
    (Counter::ProbesFollowUps, "scan.probes.follow_ups", Scope::Scan),
    // Which session is oldest depends on shard interleaving, so eviction
    // is scheduling-determined and MUST stay `Shard` despite the `scan.`
    // name (kept for continuity).
    (Counter::SessionsEvicted, "scan.sessions.evicted", Scope::Shard),
    (Counter::SessionsWatchdogForced, "scan.sessions.watchdog_forced", Scope::Scan),
    (Counter::IcmpUnreachable, "scan.icmp_unreachable", Scope::Scan),
    (Counter::ErrMidConnectionReset, "scan.probes.error_kinds.mid_connection_reset", Scope::Scan),
    (Counter::ErrMalformed, "scan.probes.error_kinds.malformed", Scope::Scan),
    (Counter::ErrInconsistent, "scan.probes.error_kinds.inconsistent", Scope::Scan),
    (Counter::ErrHandshakeTimeout, "scan.probes.error_kinds.handshake_timeout", Scope::Scan),
    (Counter::ErrCollectTimeout, "scan.probes.error_kinds.collect_timeout", Scope::Scan),
    (Counter::ErrIcmpUnreachable, "scan.probes.error_kinds.icmp_unreachable", Scope::Scan),
    // Which hosts send which ICMP, and which answers fail the cookie, is
    // population-determined: these merge exactly across shard counts.
    (Counter::IcmpMessages, "scan.icmp.messages", Scope::Scan),
    (Counter::IcmpUnreachableNet, "scan.icmp.unreachable_net", Scope::Scan),
    (Counter::IcmpUnreachableHost, "scan.icmp.unreachable_host", Scope::Scan),
    (Counter::IcmpUnreachablePort, "scan.icmp.unreachable_port", Scope::Scan),
    (Counter::IcmpUnreachableOther, "scan.icmp.unreachable_other", Scope::Scan),
    (Counter::IcmpFragNeeded, "scan.icmp.frag_needed", Scope::Scan),
    (Counter::IcmpSourceQuench, "scan.icmp.source_quench", Scope::Scan),
    (Counter::IcmpEchoReplies, "scan.icmp.echo_replies", Scope::Scan),
    (Counter::IcmpOther, "scan.icmp.other", Scope::Scan),
    (Counter::SynackRawIsnEcho, "scan.synack.raw_isn_echo", Scope::Scan),
    (Counter::SynackCookieMismatch, "scan.synack.cookie_mismatch", Scope::Scan),
    (Counter::RstIgnored, "scan.rst_ignored", Scope::Scan),
    (Counter::LateAnswers, "scan.late_answers", Scope::Scan),
    (Counter::InvariantUnconservedToHosts, "scan.invariant.unconserved_to_hosts", Scope::Scan),
    (Counter::InvariantUnconservedToScanner, "scan.invariant.unconserved_to_scanner", Scope::Scan),
    (Counter::InvariantPoolLeaked, "scan.invariant.pool_leaked", Scope::Scan),
    (Counter::InvariantWorkLeft, "scan.invariant.work_left", Scope::Scan),
    (Counter::InvariantDuplicateRecords, "scan.invariant.duplicate_records", Scope::Scan),
    (Counter::InvariantUnsessionedRecords, "scan.invariant.unsessioned_records", Scope::Scan),
    (Counter::InvariantStaleTimers, "scan.invariant.stale_timers", Scope::Scan),
    (Counter::InvariantUndeclaredEdges, "scan.invariant.undeclared_edges", Scope::Scan),
    (Counter::InvariantRateUnsummed, "scan.invariant.rate_unsummed", Scope::Scan),
    // The driver's tally of a joined run against the population's truth.
    (Counter::InvariantTruthOverestimate, "scan.invariant.truth_overestimate", Scope::Scan),
    (Counter::InvariantTruthSpurious, "scan.invariant.truth_spurious", Scope::Scan),
    (Counter::TruthExact, "scan.truth.exact", Scope::Scan),
    (Counter::TruthUnderestimate, "scan.truth.underestimate", Scope::Scan),
    (Counter::TruthInconclusive, "scan.truth.inconclusive", Scope::Scan),
    (Counter::TruthMissed, "scan.truth.missed", Scope::Scan),
    // What a drain cuts short is a per-shard fact: each shard meets the
    // deadline at its own point of its own event stream.
    (Counter::DrainForced, "scan.drain.forced", Scope::Shard),
    (Counter::FlightDumps, "scan.flight_recorder.dumps", Scope::Scan),
    (Counter::TraceSpansScan, "trace.spans.scan", Scope::Scan),
    (Counter::TraceSpansShard, "trace.spans.shard", Scope::Shard),
    // Scheduling and the simulation kernel: each shard drives its own
    // pacing and event loop, so these depend on the shard split.
    (Counter::PaceTicks, "shard.pace.ticks", Scope::Shard),
    (Counter::SimEvents, "sim.queue.events", Scope::Shard),
    (Counter::SimPackets, "sim.queue.packets", Scope::Shard),
    (Counter::SimPoolAllocations, "sim.queue.pool_allocations", Scope::Shard),
    (Counter::SimPoolRecycled, "sim.queue.pool_recycled", Scope::Shard),
];

/// Name and scope of every [`Gauge`], row `i` for discriminant `i`. All
/// three are scheduling facts: how much state coexists depends on shard
/// interleaving.
#[rustfmt::skip]
pub const GAUGES: [(Gauge, &str, Scope); 2] = [
    (Gauge::SessionsLivePeak, "shard.sessions.live_peak", Scope::Shard),
    (Gauge::SimPoolOutstanding, "sim.queue.pool_outstanding", Scope::Shard),
];

/// Name and scope of every [`Hist`], row `i` for discriminant `i`.
#[rustfmt::skip]
pub const HISTOGRAMS: [(Hist, &str, Scope); 5] = [
    (Hist::RttNanos, "scan.rtt_nanos", Scope::Scan),
    (Hist::SessionLifetimeNanos, "scan.session_lifetime_nanos", Scope::Scan),
    (Hist::RetransmitBytesInFlight, "scan.retransmit_bytes_in_flight", Scope::Scan),
    (Hist::SpanNanos, "trace.span_nanos", Scope::Shard),
    (Hist::PaceTokenWaitNanos, "shard.pace.token_wait_nanos", Scope::Shard),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = COUNTERS.iter().map(|r| r.1);
        let names = names.chain(GAUGES.iter().map(|r| r.1));
        for name in names.chain(HISTOGRAMS.iter().map(|r| r.1)) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                ["scan.", "shard.", "sim.", "trace."]
                    .iter()
                    .any(|family| name.starts_with(family)),
                "{name} lacks a scan./shard./sim./trace. prefix"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name} has invalid characters"
            );
        }
        assert_eq!(seen.len(), 71);
    }

    #[test]
    fn every_variant_sits_at_its_own_table_row() {
        for (i, &(c, name, _)) in COUNTERS.iter().enumerate() {
            assert_eq!(c as usize, i, "{name}");
        }
        for (i, &(g, name, _)) in GAUGES.iter().enumerate() {
            assert_eq!(g as usize, i, "{name}");
        }
        for (i, &(h, name, _)) in HISTOGRAMS.iter().enumerate() {
            assert_eq!(h as usize, i, "{name}");
        }
        // A variant declared after the last row would have no row and no
        // slot. These matches are exhaustive, so a new variant does not
        // compile until it is placed in one; the last one declared goes
        // in the `true` arm, and then its row must close the table.
        let last_counter = |c: Counter| match c {
            Counter::SimPoolRecycled => true,
            Counter::TargetsSent
            | Counter::SynacksValidated
            | Counter::Refused
            | Counter::SessionsStarted
            | Counter::RetransmitsDetected
            | Counter::VerifyAcksSent
            | Counter::ProbesSuccess
            | Counter::ProbesFewData
            | Counter::ProbesError
            | Counter::ProbesUnreachable
            | Counter::SessionsSuccess
            | Counter::SessionsFewData
            | Counter::SessionsError
            | Counter::SessionsUnreachable
            | Counter::SynRetries
            | Counter::ProbesRetried
            | Counter::ProbesStarted
            | Counter::ProbesFollowUps
            | Counter::SessionsEvicted
            | Counter::SessionsWatchdogForced
            | Counter::IcmpUnreachable
            | Counter::ErrMidConnectionReset
            | Counter::ErrMalformed
            | Counter::ErrInconsistent
            | Counter::ErrHandshakeTimeout
            | Counter::ErrCollectTimeout
            | Counter::ErrIcmpUnreachable
            | Counter::IcmpMessages
            | Counter::IcmpUnreachableNet
            | Counter::IcmpUnreachableHost
            | Counter::IcmpUnreachablePort
            | Counter::IcmpUnreachableOther
            | Counter::IcmpFragNeeded
            | Counter::IcmpSourceQuench
            | Counter::IcmpEchoReplies
            | Counter::IcmpOther
            | Counter::SynackRawIsnEcho
            | Counter::SynackCookieMismatch
            | Counter::RstIgnored
            | Counter::LateAnswers
            | Counter::InvariantUnconservedToHosts
            | Counter::InvariantUnconservedToScanner
            | Counter::InvariantPoolLeaked
            | Counter::InvariantWorkLeft
            | Counter::InvariantDuplicateRecords
            | Counter::InvariantUnsessionedRecords
            | Counter::InvariantStaleTimers
            | Counter::InvariantUndeclaredEdges
            | Counter::InvariantRateUnsummed
            | Counter::InvariantTruthOverestimate
            | Counter::InvariantTruthSpurious
            | Counter::TruthExact
            | Counter::TruthUnderestimate
            | Counter::TruthInconclusive
            | Counter::TruthMissed
            | Counter::DrainForced
            | Counter::FlightDumps
            | Counter::TraceSpansScan
            | Counter::TraceSpansShard
            | Counter::PaceTicks
            | Counter::SimEvents
            | Counter::SimPackets
            | Counter::SimPoolAllocations => false,
        };
        let last_gauge = |g: Gauge| match g {
            Gauge::SimPoolOutstanding => true,
            Gauge::SessionsLivePeak => false,
        };
        let last_hist = |h: Hist| match h {
            Hist::PaceTokenWaitNanos => true,
            Hist::RttNanos
            | Hist::SessionLifetimeNanos
            | Hist::RetransmitBytesInFlight
            | Hist::SpanNanos => false,
        };
        assert!(last_counter(COUNTERS[COUNTERS.len() - 1].0));
        assert!(last_gauge(GAUGES[GAUGES.len() - 1].0));
        assert!(last_hist(HISTOGRAMS[HISTOGRAMS.len() - 1].0));
    }

    #[test]
    fn eviction_stays_shard_scoped() {
        // The determinism contract: eviction order depends on shard
        // interleaving, so this metric must never enter the canonical
        // (Scan) snapshot. See DESIGN §8.
        assert_eq!(COUNTERS[Counter::SessionsEvicted as usize].2, Scope::Shard);
    }

    #[test]
    fn discovery_scopes_split_correctly() {
        // How responders are found is population-determined (Scan): the
        // validated SYN-ACKs and the ones each cookie check rejects. How
        // many sessions coexist depends on shard interleaving and stays
        // Shard, never in the canonical snapshot.
        for counter in [
            Counter::SynacksValidated,
            Counter::SynackRawIsnEcho,
            Counter::SynackCookieMismatch,
            Counter::RstIgnored,
        ] {
            assert_eq!(COUNTERS[counter as usize].2, Scope::Scan, "{counter:?}");
        }
        assert_eq!(GAUGES[Gauge::SessionsLivePeak as usize].2, Scope::Shard);
    }
}
