//! Probe drivers: protocol-specific request construction and follow-up
//! logic layered on the generic inference machine.
//!
//! A *probe* is one IW measurement attempt against one host. For TLS it
//! is a single connection; for HTTP it may chain a second connection —
//! following a `301` redirect or retrying with a bloated URI (§3.2).

pub mod http;
pub mod tls;

use crate::inference::{ConnResult, RawOutcome, Reads};
use crate::results::{ErrorKind, ProbeOutcome};

/// What to do after a connection concludes.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeStep {
    /// Open a follow-up connection with this request payload.
    FollowUp(Vec<u8>),
    /// The probe is finished with this outcome.
    Conclude(ProbeOutcome),
}

/// A protocol-specific probe driver (one instance per probe attempt).
pub trait ProbeDriver {
    /// The request payload for the initial connection.
    fn initial_request(&mut self) -> Vec<u8>;
    /// What [`Self::next_step`] will read of the response of the
    /// connection opened now: all that connection stores.
    fn reads(&self) -> Reads;
    /// Decide the next step from a finished connection.
    fn next_step(&mut self, result: &ConnResult) -> ProbeStep;
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
        // `Open` belongs to port-scan mode, which bypasses drivers.
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
