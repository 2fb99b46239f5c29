//! Probes: protocol-specific request construction and follow-up logic
//! layered on the generic inference machine.
//!
//! A *probe* is one IW measurement attempt against one host. For TLS it
//! is a single connection; for HTTP it may chain a second connection —
//! following a `301` redirect or retrying with a bloated URI (§3.2). A
//! probe holds no state: what each connection sends, reads and leads to
//! is a function of the session's indices and the first head.

pub mod http;
pub mod tls;

use crate::inference::{ConnResult, RawOutcome, Reads};
use crate::results::{ErrorKind, ProbeOutcome, Protocol};
use crate::session::SessionParams;
use iw_wire::ipv4::Ipv4Addr;

/// What to do after a connection concludes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProbeStep<'a> {
    /// Keep this first connection's outcome for the follow-up's to better,
    /// and open the follow-up: to the `Location` of a redirect, if any.
    FollowUp(ProbeOutcome, Option<&'a str>),
    /// The probe is finished with this outcome.
    Conclude(ProbeOutcome),
}

/// The request of connection `conn` (0 = first, 1 = follow-up) of probe
/// `probe` to `ip`, which the target list may know as `domain`;
/// `location` is the redirect a follow-up goes to.
pub(crate) fn request(
    params: &SessionParams,
    ip: Ipv4Addr,
    domain: Option<&str>,
    probe: u32,
    conn: u8,
    location: Option<&str>,
) -> Vec<u8> {
    match params.protocol {
        Protocol::Http | Protocol::PortScan => http::request(ip, domain, conn, location),
        Protocol::Tls => tls::request(params.seed, ip, domain, probe),
        #[expect(
            clippy::unreachable,
            reason = "callers route ICMP targets to the MTU prober, never here"
        )]
        Protocol::IcmpMtu => unreachable!("ICMP probes do not use TCP sessions"),
    }
}

/// What connection `conn` of a probe reads of its response: HTTP's first
/// connection reads the head that decides the follow-up; the follow-up
/// and TLS are only counted.
pub(crate) fn reads(protocol: Protocol, conn: u8) -> Reads {
    match protocol {
        Protocol::Http | Protocol::PortScan if conn == 0 => Reads::HttpHead,
        _ => Reads::Nothing,
    }
}

/// Decide the next step from connection `conn`'s result; `first` is the
/// first connection's outcome when `conn` is the follow-up.
pub(crate) fn next_step(
    protocol: Protocol,
    conn: u8,
    result: &ConnResult,
    first: ProbeOutcome,
) -> ProbeStep<'_> {
    match protocol {
        Protocol::Http | Protocol::PortScan => http::next_step(conn, result, first),
        // A single connection always concludes the probe.
        Protocol::Tls | Protocol::IcmpMtu => {
            ProbeStep::Conclude(outcome_from_raw(&result.outcome, false))
        }
    }
}

/// Map a raw connection outcome to a probe outcome.
pub fn outcome_from_raw(raw: &RawOutcome, redirected: bool) -> ProbeOutcome {
    match raw {
        RawOutcome::Success {
            segments,
            bytes,
            max_seg,
            loss_suspected,
            reordered,
        } => ProbeOutcome::Success {
            segments: *segments,
            bytes: *bytes,
            max_seg: *max_seg,
            loss_suspected: *loss_suspected,
            reordered: *reordered,
            redirected,
        },
        RawOutcome::FewData {
            lower_bound,
            bytes,
            max_seg,
            fin_seen,
        } => ProbeOutcome::FewData {
            lower_bound: *lower_bound,
            bytes: *bytes,
            max_seg: *max_seg,
            fin_seen: *fin_seen,
            redirected,
        },
        RawOutcome::Error(kind) => ProbeOutcome::Error { kind: *kind },
        RawOutcome::Unreachable => ProbeOutcome::Unreachable,
        // `Open` belongs to port-scan mode, which bypasses probes.
        RawOutcome::Open => ProbeOutcome::Error {
            kind: ErrorKind::Malformed,
        },
    }
}

/// Pick the better of two probe outcomes (used when a follow-up
/// connection was attempted: keep whichever learned more).
pub fn better(a: ProbeOutcome, b: ProbeOutcome) -> ProbeOutcome {
    if b.quality() >= a.quality() {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_preserves_fields() {
        let raw = RawOutcome::Success {
            segments: 10,
            bytes: 640,
            max_seg: 64,
            loss_suspected: false,
            reordered: true,
        };
        match outcome_from_raw(&raw, true) {
            ProbeOutcome::Success {
                segments,
                redirected,
                reordered,
                ..
            } => {
                assert_eq!(segments, 10);
                assert!(redirected);
                assert!(reordered);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn better_prefers_success_then_larger_bound() {
        let few3 = ProbeOutcome::FewData {
            lower_bound: 3,
            bytes: 200,
            max_seg: 64,
            fin_seen: true,
            redirected: false,
        };
        let few7 = ProbeOutcome::FewData {
            lower_bound: 7,
            bytes: 470,
            max_seg: 64,
            fin_seen: true,
            redirected: true,
        };
        let succ = ProbeOutcome::Success {
            segments: 10,
            bytes: 640,
            max_seg: 64,
            loss_suspected: false,
            reordered: false,
            redirected: true,
        };
        assert_eq!(better(few3, few7), few7);
        assert_eq!(better(few7, few3), few7);
        assert_eq!(better(few7, succ), succ);
    }
}
