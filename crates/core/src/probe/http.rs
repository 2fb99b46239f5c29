//! The HTTP probe driver (§3.2).
//!
//! Connection 1: `GET /` with the only Host header we can produce without
//! prior knowledge — the literal IP (or a domain when the target list
//! provides one, e.g. the Alexa scan). If the response redirects, RST and
//! follow the `Location` on a fresh connection; otherwise retry with a
//! URI long enough to fill the MTU, banking on error pages that echo the
//! URI. `Connection: close` is always requested so a FIN marks "out of
//! data".

use super::{better, outcome_from_raw, ProbeDriver, ProbeStep};
use crate::inference::{ConnResult, Reads};
use crate::results::ProbeOutcome;
use iw_wire::http::{split_location, Request, ResponseHead};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Initial,
    Followed,
}

/// One HTTP probe attempt.
pub struct HttpProbe {
    /// Host header value: the bare IP, or a known domain.
    host: String,
    stage: Stage,
    first_outcome: Option<ProbeOutcome>,
}

/// The long probe URI: identifies the scan (as the paper's does) and
/// fills the MTU so echoed error pages grow past any standard IW.
pub fn bloat_uri() -> String {
    let mut uri = String::with_capacity(1400);
    uri.push_str("/this-is-a-tcp-initial-window-research-scan-see-DESIGN.md");
    while uri.len() < 1400 {
        uri.push_str("-initial-window-measurement");
    }
    uri.truncate(1400);
    uri
}

impl HttpProbe {
    /// New probe; `host` is the Host-header value (IP string or domain).
    pub fn new(host: String) -> HttpProbe {
        HttpProbe {
            host,
            stage: Stage::Initial,
            first_outcome: None,
        }
    }
}

impl ProbeDriver for HttpProbe {
    fn initial_request(&mut self) -> Vec<u8> {
        Request::probe_get("/", &self.host).to_bytes()
    }

    /// The first connection's head decides the follow-up; the follow-up
    /// itself is only counted.
    fn reads(&self) -> Reads {
        match self.stage {
            Stage::Initial => Reads::HttpHead,
            Stage::Followed => Reads::Nothing,
        }
    }

    fn next_step(&mut self, result: &ConnResult) -> ProbeStep {
        let outcome = outcome_from_raw(&result.outcome, self.stage == Stage::Followed);
        match self.stage {
            Stage::Initial => {
                if outcome.is_success() {
                    return ProbeStep::Conclude(outcome);
                }
                if matches!(
                    outcome,
                    ProbeOutcome::Error { .. } | ProbeOutcome::Unreachable
                ) {
                    return ProbeStep::Conclude(outcome);
                }
                // Redirects are followed; error responses are retried
                // with the bloated URI (their pages may echo it). A small
                // but *successful* 2xx page is a final answer — the host
                // simply has little data at "/", and a long URI would only
                // swap it for an error page (§3.2).
                let head = ResponseHead::parse(&result.response).ok();
                match &head {
                    Some(h) => {
                        if let Some(location) = h.redirect_location() {
                            self.first_outcome = Some(outcome);
                            self.stage = Stage::Followed;
                            let (host, path) = split_location(location);
                            if !host.is_empty() {
                                self.host = host;
                            }
                            return ProbeStep::FollowUp(
                                Request::probe_get(&path, &self.host).to_bytes(),
                            );
                        }
                        if h.status >= 400 {
                            self.first_outcome = Some(outcome);
                            self.stage = Stage::Followed;
                            return ProbeStep::FollowUp(
                                Request::probe_get(&bloat_uri(), &self.host).to_bytes(),
                            );
                        }
                        ProbeStep::Conclude(outcome)
                    }
                    // Unparseable (e.g. zero bytes): try the bloat anyway.
                    None => {
                        self.first_outcome = Some(outcome);
                        self.stage = Stage::Followed;
                        ProbeStep::FollowUp(Request::probe_get(&bloat_uri(), &self.host).to_bytes())
                    }
                }
            }
            Stage::Followed => {
                let first = self
                    .first_outcome
                    .take()
                    .unwrap_or(ProbeOutcome::Unreachable);
                ProbeStep::Conclude(better(first, outcome))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::RawOutcome;
    use crate::results::ErrorKind;

    fn few_data(response: &[u8]) -> ConnResult {
        ConnResult {
            outcome: RawOutcome::FewData {
                lower_bound: 4,
                bytes: 300,
                max_seg: 64,
                fin_seen: true,
            },
            response: response.to_vec(),
        }
    }

    fn success() -> ConnResult {
        ConnResult {
            outcome: RawOutcome::Success {
                segments: 10,
                bytes: 640,
                max_seg: 64,
                loss_suspected: false,
                reordered: false,
            },
            response: b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
        }
    }

    #[test]
    fn initial_request_has_ip_host() {
        let mut p = HttpProbe::new("203.0.113.9".into());
        let req = p.initial_request();
        let parsed = Request::parse(&req).unwrap();
        assert_eq!(parsed.uri, "/");
        assert_eq!(parsed.host, "203.0.113.9");
    }

    #[test]
    fn success_concludes_immediately() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        match p.next_step(&success()) {
            ProbeStep::Conclude(o) => assert!(o.is_success()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redirect_is_followed_with_extracted_host() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        let resp =
            b"HTTP/1.1 301 Moved Permanently\r\nLocation: http://www.example.com/deep/page\r\n\r\n";
        match p.next_step(&few_data(resp)) {
            ProbeStep::FollowUp(req) => {
                let parsed = Request::parse(&req).unwrap();
                assert_eq!(parsed.uri, "/deep/page");
                assert_eq!(parsed.host, "www.example.com");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_redirect_bloats_uri() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        let resp = b"HTTP/1.1 404 Not Found\r\n\r\nshort";
        match p.next_step(&few_data(resp)) {
            ProbeStep::FollowUp(req) => {
                let parsed = Request::parse(&req).unwrap();
                assert!(parsed.uri.len() >= 1300, "URI must fill the MTU");
                assert_eq!(parsed.host, "1.2.3.4");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn only_the_first_connection_reads_the_head() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        assert_eq!(p.reads(), Reads::HttpHead);
        let step = p.next_step(&few_data(b"HTTP/1.1 404 Not Found\r\n\r\n"));
        assert!(matches!(step, ProbeStep::FollowUp(_)));
        assert_eq!(p.reads(), Reads::Nothing, "the follow-up is only counted");
    }

    #[test]
    fn follow_up_keeps_better_outcome() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        let step = p.next_step(&few_data(b"HTTP/1.1 404 Not Found\r\n\r\n"));
        assert!(matches!(step, ProbeStep::FollowUp(_)));
        // Follow-up succeeds.
        match p.next_step(&success()) {
            ProbeStep::Conclude(ProbeOutcome::Success { redirected, .. }) => {
                assert!(redirected);
            }
            other => panic!("{other:?}"),
        }
        // Or follow-up is worse: keep the first.
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        p.next_step(&few_data(b"HTTP/1.1 404 Not Found\r\n\r\n"));
        let worse = ConnResult {
            outcome: RawOutcome::FewData {
                lower_bound: 1,
                bytes: 70,
                max_seg: 64,
                fin_seen: true,
            },
            response: Vec::new(),
        };
        match p.next_step(&worse) {
            ProbeStep::Conclude(ProbeOutcome::FewData { lower_bound, .. }) => {
                assert_eq!(lower_bound, 4, "first connection's bound kept");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_concludes_without_follow_up() {
        let mut p = HttpProbe::new("1.2.3.4".into());
        p.initial_request();
        let err = ConnResult {
            outcome: RawOutcome::Error(ErrorKind::MidConnectionReset),
            response: Vec::new(),
        };
        assert!(matches!(p.next_step(&err), ProbeStep::Conclude(_)));
    }

    #[test]
    fn bloat_uri_is_mtu_sized_and_identifying() {
        let uri = bloat_uri();
        assert_eq!(uri.len(), 1400);
        assert!(uri.contains("research-scan"));
        assert!(uri.starts_with('/'));
    }
}
