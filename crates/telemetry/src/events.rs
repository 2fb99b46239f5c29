//! The session event vocabulary: what a per-host probe session reports.
//!
//! Every session emits lifecycle transitions as it runs: SYN sent →
//! SYN-ACK validated → probe started → retransmit detected → verify-ACK
//! sent → probe concluded → session finished. The scanner's observer
//! counts each transition in the metrics registry (`scan.*` counters) and
//! keeps it in the flight recorder's watched histories; this module only
//! names them.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_variant_order() {
        let probe = SessionEvent::ProbeRetried {
            probe: 1,
            attempt: 2,
        };
        assert_eq!(probe.name(), "probe_retried");
        assert_eq!(SessionEvent::IcmpUnreachable.name(), "icmp_unreachable");
        let finished = SessionEvent::SessionFinished {
            outcome: OutcomeKind::Error,
        };
        assert_eq!(finished.name(), "session_finished");
        let names = OutcomeKind::ALL.map(OutcomeKind::name);
        assert_eq!(names, ["success", "few_data", "error", "unreachable"]);
    }
}
