//! The metrics manifest: the single source of truth for every metric the
//! scanner registers.
//!
//! Each metric the engine records is declared here exactly once as a
//! [`MetricDef`] — name, kind, and determinism [`Scope`] together. Code
//! registers through [`MetricsRegistry::register_counter`] (and friends)
//! with a `&manifest::CONST`, so a name or a scope can never drift between
//! call sites: renaming a metric, or moving it between the canonical
//! `Scan` scope and the scheduling-determined `Shard` scope, is a
//! one-line change here.
//!
//! `iw-lint`'s `metrics-manifest` rule parses this file and cross-checks
//! every registration and snapshot lookup in the workspace against it:
//! a literal name that is not declared here, a scope that disagrees with
//! the declaration, or a declared metric that nothing registers are all
//! lint errors. Keep each declaration in the
//! `pub const NAME: MetricDef = MetricDef::kind("…", Scope::…);` shape
//! (rustfmt line wrapping is fine) — the linter reads it textually.
//!
//! [`MetricsRegistry::register_counter`]: crate::registry::MetricsRegistry::register_counter

use crate::registry::Scope;

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-value gauge (peak kept on merge).
    Gauge,
    /// Log₂-bucketed histogram.
    Histogram,
}

/// One declared metric: name, instrument kind, determinism scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted snapshot key (`scan.…` / `shard.…`).
    pub name: &'static str,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Determinism scope (see [`Scope`]).
    pub scope: Scope,
}

impl MetricDef {
    /// Declare a counter.
    pub const fn counter(name: &'static str, scope: Scope) -> MetricDef {
        MetricDef {
            name,
            kind: MetricKind::Counter,
            scope,
        }
    }

    /// Declare a gauge.
    pub const fn gauge(name: &'static str, scope: Scope) -> MetricDef {
        MetricDef {
            name,
            kind: MetricKind::Gauge,
            scope,
        }
    }

    /// Declare a histogram.
    pub const fn histogram(name: &'static str, scope: Scope) -> MetricDef {
        MetricDef {
            name,
            kind: MetricKind::Histogram,
            scope,
        }
    }
}

// ---------------------------------------------------------------------------
// Send path.

/// Targets admitted past filter + sampling and probed.
pub const SCAN_TARGETS_SENT: MetricDef = MetricDef::counter("scan.targets_sent", Scope::Scan);
/// SYN-ACKs that validated against the ISN cookie.
pub const SCAN_SYNACKS_VALIDATED: MetricDef =
    MetricDef::counter("scan.synacks_validated", Scope::Scan);
/// SYNs answered by RST (host up, port closed).
pub const SCAN_REFUSED: MetricDef = MetricDef::counter("scan.refused", Scope::Scan);
/// Stateful sessions created (one per responsive host).
pub const SCAN_SESSIONS_STARTED: MetricDef =
    MetricDef::counter("scan.sessions_started", Scope::Scan);

// ---------------------------------------------------------------------------
// Inference lifecycle.

/// First-retransmission detections (the "end of IW" signal).
pub const SCAN_RETRANSMITS_DETECTED: MetricDef =
    MetricDef::counter("scan.retransmits_detected", Scope::Scan);
/// 2×MSS exhaustion-verification ACKs sent.
pub const SCAN_VERIFY_ACKS_SENT: MetricDef =
    MetricDef::counter("scan.verify_acks_sent", Scope::Scan);

// Per-probe terminal outcomes.

/// Probes that concluded `Success`.
pub const SCAN_PROBES_SUCCESS: MetricDef = MetricDef::counter("scan.probes.success", Scope::Scan);
/// Probes that concluded `FewData`.
pub const SCAN_PROBES_FEW_DATA: MetricDef = MetricDef::counter("scan.probes.few_data", Scope::Scan);
/// Probes that concluded `Error`.
pub const SCAN_PROBES_ERROR: MetricDef = MetricDef::counter("scan.probes.error", Scope::Scan);
/// Probes that concluded `Unreachable`.
pub const SCAN_PROBES_UNREACHABLE: MetricDef =
    MetricDef::counter("scan.probes.unreachable", Scope::Scan);

// Per-session (primary-verdict) outcomes.

/// Sessions whose primary verdict was `Success`.
pub const SCAN_SESSIONS_SUCCESS: MetricDef =
    MetricDef::counter("scan.sessions.success", Scope::Scan);
/// Sessions whose primary verdict was `FewData`.
pub const SCAN_SESSIONS_FEW_DATA: MetricDef =
    MetricDef::counter("scan.sessions.few_data", Scope::Scan);
/// Sessions whose primary verdict was `Error`.
pub const SCAN_SESSIONS_ERROR: MetricDef = MetricDef::counter("scan.sessions.error", Scope::Scan);
/// Sessions whose primary verdict was `Unreachable`.
pub const SCAN_SESSIONS_UNREACHABLE: MetricDef =
    MetricDef::counter("scan.sessions.unreachable", Scope::Scan);

// Timing distributions.

/// SYN → SYN-ACK round-trip times.
pub const SCAN_RTT_NANOS: MetricDef = MetricDef::histogram("scan.rtt_nanos", Scope::Scan);
/// SYN-ACK → verdict session lifetimes.
pub const SCAN_SESSION_LIFETIME_NANOS: MetricDef =
    MetricDef::histogram("scan.session_lifetime_nanos", Scope::Scan);
/// Distinct payload bytes in flight at retransmit detection.
pub const SCAN_RETRANSMIT_BYTES_IN_FLIGHT: MetricDef =
    MetricDef::histogram("scan.retransmit_bytes_in_flight", Scope::Scan);

// ---------------------------------------------------------------------------
// Resilience layer (PR 2).

/// SYN retransmissions for silent targets.
pub const SCAN_SYN_RETRIES: MetricDef = MetricDef::counter("scan.syn_retries", Scope::Scan);
/// Probe connection retries on fresh source ports.
pub const SCAN_PROBES_RETRIED: MetricDef = MetricDef::counter("scan.probes.retried", Scope::Scan);
/// Sessions evicted by the `max_sessions` cap. Which session is oldest
/// depends on shard interleaving, so this is scheduling-determined and
/// MUST stay `Shard` despite the `scan.` name (kept for continuity).
pub const SCAN_SESSIONS_EVICTED: MetricDef =
    MetricDef::counter("scan.sessions.evicted", Scope::Shard);
/// Sessions force-concluded by the per-session watchdog.
pub const SCAN_SESSIONS_WATCHDOG_FORCED: MetricDef =
    MetricDef::counter("scan.sessions.watchdog_forced", Scope::Scan);
/// ICMP destination-unreachable fast-fails.
pub const SCAN_ICMP_UNREACHABLE: MetricDef =
    MetricDef::counter("scan.icmp_unreachable", Scope::Scan);

// Terminal `ProbeOutcome::Error` kinds, one counter per `ErrorKind`.

/// Errors of kind `MidConnectionReset`.
pub const SCAN_ERR_MID_CONNECTION_RESET: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.mid_connection_reset", Scope::Scan);
/// Errors of kind `Malformed`.
pub const SCAN_ERR_MALFORMED: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.malformed", Scope::Scan);
/// Errors of kind `Inconsistent`.
pub const SCAN_ERR_INCONSISTENT: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.inconsistent", Scope::Scan);
/// Errors of kind `HandshakeTimeout`.
pub const SCAN_ERR_HANDSHAKE_TIMEOUT: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.handshake_timeout", Scope::Scan);
/// Errors of kind `CollectTimeout`.
pub const SCAN_ERR_COLLECT_TIMEOUT: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.collect_timeout", Scope::Scan);
/// Errors of kind `IcmpUnreachable`.
pub const SCAN_ERR_ICMP_UNREACHABLE: MetricDef =
    MetricDef::counter("scan.probes.error_kinds.icmp_unreachable", Scope::Scan);

// ---------------------------------------------------------------------------
// ICMP control-plane harvest (scan scope: which hosts send which ICMP is
// population-determined, so these merge exactly across shard counts).

/// Every ICMP message the scanner's control plane received.
pub const SCAN_ICMP_MESSAGES: MetricDef = MetricDef::counter("scan.icmp.messages", Scope::Scan);
/// Destination-unreachable, code 0 (network unreachable).
pub const SCAN_ICMP_UNREACHABLE_NET: MetricDef =
    MetricDef::counter("scan.icmp.unreachable_net", Scope::Scan);
/// Destination-unreachable, code 1 (host unreachable).
pub const SCAN_ICMP_UNREACHABLE_HOST: MetricDef =
    MetricDef::counter("scan.icmp.unreachable_host", Scope::Scan);
/// Destination-unreachable, code 3 (port unreachable).
pub const SCAN_ICMP_UNREACHABLE_PORT: MetricDef =
    MetricDef::counter("scan.icmp.unreachable_port", Scope::Scan);
/// Destination-unreachable, any other code (admin-prohibited and
/// friends).
pub const SCAN_ICMP_UNREACHABLE_OTHER: MetricDef =
    MetricDef::counter("scan.icmp.unreachable_other", Scope::Scan);
/// Fragmentation-needed messages (RFC 1191 path-MTU signal).
pub const SCAN_ICMP_FRAG_NEEDED: MetricDef =
    MetricDef::counter("scan.icmp.frag_needed", Scope::Scan);
/// Source-quench messages (type 4): the classic rate-limiting /
/// congestion back-pressure signature ("Hidden Treasures").
pub const SCAN_ICMP_SOURCE_QUENCH: MetricDef =
    MetricDef::counter("scan.icmp.source_quench", Scope::Scan);

// ---------------------------------------------------------------------------
// Stateless-first discovery (ZBanner-style hybrid mode). Which targets
// respond — and with what — is population-determined, so the counters
// are `Scan` scope and merge exactly across shard counts. The state
// peak is a scheduling fact (how much promoted state coexists depends
// on shard interleaving) and stays `Shard`, same continuity argument as
// `scan.sessions.evicted`.

/// Stateless discovery SYNs sent (first transmissions).
pub const SCAN_DISCOVERY_SYNS: MetricDef = MetricDef::counter("scan.discovery.syns", Scope::Scan);
/// Stateless discovery SYN retransmissions (attempt encoded in sport).
pub const SCAN_DISCOVERY_RETRIES: MetricDef =
    MetricDef::counter("scan.discovery.retries", Scope::Scan);
/// Discovery SYN-ACKs that validated against the ISN cookie.
pub const SCAN_DISCOVERY_VALIDATED: MetricDef =
    MetricDef::counter("scan.discovery.validated", Scope::Scan);
/// Responders promoted from discovery into a stateful IW session.
pub const SCAN_DISCOVERY_PROMOTED: MetricDef =
    MetricDef::counter("scan.discovery.promoted", Scope::Scan);
/// Valid SYN-ACKs for targets already discovered (blind-retry
/// duplicates); dropped without a second promotion.
pub const SCAN_DISCOVERY_DUPLICATES: MetricDef =
    MetricDef::counter("scan.discovery.duplicates", Scope::Scan);
/// Discovery SYN-ACKs whose ack failed cookie validation outright.
pub const SCAN_DISCOVERY_COOKIE_MISMATCH: MetricDef =
    MetricDef::counter("scan.discovery.cookie_mismatch", Scope::Scan);
/// Discovery SYN-ACKs acking the raw ISN (missing +1): broken
/// middlebox / simplistic-responder fingerprint.
pub const SCAN_DISCOVERY_RAW_ISN_ECHO: MetricDef =
    MetricDef::counter("scan.discovery.raw_isn_echo", Scope::Scan);
/// RSTs to a discovery flow whose ack failed cookie validation
/// (spoofed / backscatter; produces no verdict).
pub const SCAN_DISCOVERY_SPOOFED_RST: MetricDef =
    MetricDef::counter("scan.discovery.spoofed_rst", Scope::Scan);
/// Peak per-target scanner state (pending retries + RTT stamps +
/// promotion queue) while discovery mode is active — the memory-model
/// gate: bounded by responders, not in-flight targets.
pub const SCAN_DISCOVERY_STATE_PEAK: MetricDef =
    MetricDef::gauge("scan.discovery.state_peak", Scope::Shard);
/// RSTs on any verdict path dropped for failing cookie validation
/// (spoofed / backscatter refusals that would otherwise inflate
/// `scan.refused`).
pub const SCAN_RST_IGNORED: MetricDef = MetricDef::counter("scan.rst_ignored", Scope::Scan);

// ---------------------------------------------------------------------------
// Durable campaigns (checkpoint/resume). When a checkpoint fires is a
// per-shard scheduling fact (each shard crosses virtual-time boundaries
// on its own event stream), so these stay `Shard` despite the `scan.`
// name — same continuity argument as `scan.sessions.evicted`.

/// Periodic campaign checkpoints this shard captured.
pub const SCAN_CHECKPOINTS_TAKEN: MetricDef =
    MetricDef::counter("scan.checkpoint.taken", Scope::Shard);
/// Live sessions force-concluded by a graceful-shutdown drain.
pub const SCAN_CHECKPOINT_DRAIN_FORCED: MetricDef =
    MetricDef::counter("scan.checkpoint.drain_forced", Scope::Shard);

// ---------------------------------------------------------------------------
// Flight recorder and span tracing.

/// Flight-recorder dumps retained (sessions that ended in an error).
pub const SCAN_FLIGHT_DUMPS: MetricDef =
    MetricDef::counter("scan.flight_recorder.dumps", Scope::Scan);
/// Scan-scoped spans recorded (session phases; partition across shards).
pub const TRACE_SPANS_SCAN: MetricDef = MetricDef::counter("trace.spans.scan", Scope::Scan);
/// Shard-scoped spans recorded (event-loop hot path; includes spans
/// dropped by the retention cap).
pub const TRACE_SPANS_SHARD: MetricDef = MetricDef::counter("trace.spans.shard", Scope::Shard);
/// Virtual durations of retained shard-scoped spans.
pub const TRACE_SPAN_NANOS: MetricDef = MetricDef::histogram("trace.span_nanos", Scope::Shard);

// ---------------------------------------------------------------------------
// Scheduling (shard scope).

/// Pacing ticks taken.
pub const SHARD_PACE_TICKS: MetricDef = MetricDef::counter("shard.pace.ticks", Scope::Shard);
/// Token-bucket wait times when throttled.
pub const SHARD_PACE_TOKEN_WAIT_NANOS: MetricDef =
    MetricDef::histogram("shard.pace.token_wait_nanos", Scope::Shard);
/// Peak live sessions.
pub const SHARD_SESSIONS_LIVE_PEAK: MetricDef =
    MetricDef::gauge("shard.sessions.live_peak", Scope::Shard);

// ---------------------------------------------------------------------------
// Simulation kernel (shard scope: each shard drives its own event loop,
// so raw event/buffer counts depend on the shard split and stay out of
// the canonical cross-shard snapshot).

/// Events the timer-wheel queue dispatched over the run.
pub const SIM_QUEUE_EVENTS: MetricDef = MetricDef::counter("sim.queue.events", Scope::Shard);
/// Packets delivered to an endpoint (scanner-bound plus host-bound).
pub const SIM_QUEUE_PACKETS: MetricDef = MetricDef::counter("sim.queue.packets", Scope::Shard);
/// Fresh slabs the shared packet-buffer pool allocated.
pub const SIM_QUEUE_POOL_ALLOCATIONS: MetricDef =
    MetricDef::counter("sim.queue.pool_allocations", Scope::Shard);
/// Buffers served from the pool free list instead of the allocator.
pub const SIM_QUEUE_POOL_RECYCLED: MetricDef =
    MetricDef::counter("sim.queue.pool_recycled", Scope::Shard);
/// Pool buffers still checked out when the scan drained (leak tell-tale;
/// zero on a clean run).
pub const SIM_QUEUE_POOL_OUTSTANDING: MetricDef =
    MetricDef::gauge("sim.queue.pool_outstanding", Scope::Shard);

// ---------------------------------------------------------------------------
// Index blocks (array registration in the scanner).

/// Per-probe outcome counters indexed like `OutcomeKind` (success,
/// few-data, error, unreachable).
pub const PROBE_OUTCOME_COUNTERS: [&MetricDef; 4] = [
    &SCAN_PROBES_SUCCESS,
    &SCAN_PROBES_FEW_DATA,
    &SCAN_PROBES_ERROR,
    &SCAN_PROBES_UNREACHABLE,
];

/// Per-session outcome counters indexed like `OutcomeKind`.
pub const SESSION_OUTCOME_COUNTERS: [&MetricDef; 4] = [
    &SCAN_SESSIONS_SUCCESS,
    &SCAN_SESSIONS_FEW_DATA,
    &SCAN_SESSIONS_ERROR,
    &SCAN_SESSIONS_UNREACHABLE,
];

/// Error-kind counters indexed like `iw_core::ErrorKind::index()` (the
/// core crate asserts this correspondence in its tests).
pub const ERROR_KIND_COUNTERS: [&MetricDef; 6] = [
    &SCAN_ERR_MID_CONNECTION_RESET,
    &SCAN_ERR_MALFORMED,
    &SCAN_ERR_INCONSISTENT,
    &SCAN_ERR_HANDSHAKE_TIMEOUT,
    &SCAN_ERR_COLLECT_TIMEOUT,
    &SCAN_ERR_ICMP_UNREACHABLE,
];

/// Destination-unreachable subtype counters indexed like
/// `IcmpHarvest::unreachable_code_index` (net, host, port, other).
pub const ICMP_UNREACHABLE_CODE_COUNTERS: [&MetricDef; 4] = [
    &SCAN_ICMP_UNREACHABLE_NET,
    &SCAN_ICMP_UNREACHABLE_HOST,
    &SCAN_ICMP_UNREACHABLE_PORT,
    &SCAN_ICMP_UNREACHABLE_OTHER,
];

/// Every declared metric. Order matches declaration order above.
pub const ALL: [&MetricDef; 59] = [
    &SCAN_TARGETS_SENT,
    &SCAN_SYNACKS_VALIDATED,
    &SCAN_REFUSED,
    &SCAN_SESSIONS_STARTED,
    &SCAN_RETRANSMITS_DETECTED,
    &SCAN_VERIFY_ACKS_SENT,
    &SCAN_PROBES_SUCCESS,
    &SCAN_PROBES_FEW_DATA,
    &SCAN_PROBES_ERROR,
    &SCAN_PROBES_UNREACHABLE,
    &SCAN_SESSIONS_SUCCESS,
    &SCAN_SESSIONS_FEW_DATA,
    &SCAN_SESSIONS_ERROR,
    &SCAN_SESSIONS_UNREACHABLE,
    &SCAN_RTT_NANOS,
    &SCAN_SESSION_LIFETIME_NANOS,
    &SCAN_RETRANSMIT_BYTES_IN_FLIGHT,
    &SCAN_SYN_RETRIES,
    &SCAN_PROBES_RETRIED,
    &SCAN_SESSIONS_EVICTED,
    &SCAN_SESSIONS_WATCHDOG_FORCED,
    &SCAN_ICMP_UNREACHABLE,
    &SCAN_ERR_MID_CONNECTION_RESET,
    &SCAN_ERR_MALFORMED,
    &SCAN_ERR_INCONSISTENT,
    &SCAN_ERR_HANDSHAKE_TIMEOUT,
    &SCAN_ERR_COLLECT_TIMEOUT,
    &SCAN_ERR_ICMP_UNREACHABLE,
    &SCAN_ICMP_MESSAGES,
    &SCAN_ICMP_UNREACHABLE_NET,
    &SCAN_ICMP_UNREACHABLE_HOST,
    &SCAN_ICMP_UNREACHABLE_PORT,
    &SCAN_ICMP_UNREACHABLE_OTHER,
    &SCAN_ICMP_FRAG_NEEDED,
    &SCAN_ICMP_SOURCE_QUENCH,
    &SCAN_DISCOVERY_SYNS,
    &SCAN_DISCOVERY_RETRIES,
    &SCAN_DISCOVERY_VALIDATED,
    &SCAN_DISCOVERY_PROMOTED,
    &SCAN_DISCOVERY_DUPLICATES,
    &SCAN_DISCOVERY_COOKIE_MISMATCH,
    &SCAN_DISCOVERY_RAW_ISN_ECHO,
    &SCAN_DISCOVERY_SPOOFED_RST,
    &SCAN_DISCOVERY_STATE_PEAK,
    &SCAN_RST_IGNORED,
    &SCAN_CHECKPOINTS_TAKEN,
    &SCAN_CHECKPOINT_DRAIN_FORCED,
    &SCAN_FLIGHT_DUMPS,
    &TRACE_SPANS_SCAN,
    &TRACE_SPANS_SHARD,
    &TRACE_SPAN_NANOS,
    &SHARD_PACE_TICKS,
    &SHARD_PACE_TOKEN_WAIT_NANOS,
    &SHARD_SESSIONS_LIVE_PEAK,
    &SIM_QUEUE_EVENTS,
    &SIM_QUEUE_PACKETS,
    &SIM_QUEUE_POOL_ALLOCATIONS,
    &SIM_QUEUE_POOL_RECYCLED,
    &SIM_QUEUE_POOL_OUTSTANDING,
];

/// Look a metric up by snapshot name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    ALL.iter().copied().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in ALL {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(
                def.name.starts_with("scan.")
                    || def.name.starts_with("shard.")
                    || def.name.starts_with("sim.")
                    || def.name.starts_with("trace."),
                "{} lacks a scan./shard./sim./trace. prefix",
                def.name
            );
            assert!(
                def.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{} has invalid characters",
                def.name
            );
        }
    }

    #[test]
    fn lookup_finds_declared_metrics() {
        assert_eq!(lookup("scan.rtt_nanos"), Some(&SCAN_RTT_NANOS));
        assert_eq!(lookup("scan.sessions.evicted").unwrap().scope, Scope::Shard);
        assert_eq!(lookup("no.such.metric"), None);
    }

    #[test]
    fn index_blocks_are_subsets_of_all() {
        for def in PROBE_OUTCOME_COUNTERS
            .iter()
            .chain(SESSION_OUTCOME_COUNTERS.iter())
            .chain(ERROR_KIND_COUNTERS.iter())
            .chain(ICMP_UNREACHABLE_CODE_COUNTERS.iter())
        {
            assert!(lookup(def.name).is_some(), "{} not in ALL", def.name);
            assert_eq!(def.kind, MetricKind::Counter);
        }
    }

    #[test]
    fn eviction_stays_shard_scoped() {
        // The determinism contract: eviction order depends on shard
        // interleaving, so this metric must never enter the canonical
        // (Scan) snapshot. See DESIGN §8.
        assert_eq!(SCAN_SESSIONS_EVICTED.scope, Scope::Shard);
    }

    #[test]
    fn discovery_scopes_split_correctly() {
        // Response counters are population-determined (Scan); the state
        // peak depends on shard interleaving and stays Shard — the
        // memory gate reads it per shard, never from the canonical
        // snapshot.
        assert_eq!(SCAN_DISCOVERY_VALIDATED.scope, Scope::Scan);
        assert_eq!(SCAN_DISCOVERY_PROMOTED.scope, Scope::Scan);
        assert_eq!(SCAN_DISCOVERY_STATE_PEAK.scope, Scope::Shard);
        assert_eq!(SCAN_DISCOVERY_STATE_PEAK.kind, MetricKind::Gauge);
    }
}
