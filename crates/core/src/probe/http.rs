//! The HTTP probe (§3.2).
//!
//! Connection 1: `GET /` with the only Host header we can produce without
//! prior knowledge — the literal IP (or a domain when the target list
//! provides one, e.g. the Alexa scan). If the response redirects, RST and
//! follow the `Location` on a fresh connection; otherwise retry with a
//! URI long enough to fill the MTU, banking on error pages that echo the
//! URI. `Connection: close` is always requested so a FIN marks "out of
//! data".

use super::{better, outcome_from_raw, ProbeStep};
use crate::inference::ConnResult;
use crate::results::ProbeOutcome;
use iw_wire::http::{split_location, Request};
use iw_wire::ipv4::Ipv4Addr;

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

/// The request of connection `conn`: `GET /` first; the follow-up goes to
/// `location` when the first head redirected, else asks for the bloated
/// URI. The Host header names `domain` when the target list knows one,
/// else the literal `ip` (formatted only while the request is built), or
/// the host a redirect names.
pub(crate) fn request(
    ip: Ipv4Addr,
    domain: Option<&str>,
    conn: u8,
    location: Option<&str>,
) -> Vec<u8> {
    let literal = ip.to_string();
    let host = domain.unwrap_or(&literal);
    match (conn, location) {
        (0, _) => Request::probe_get("/", host).to_bytes(),
        (_, Some(location)) => {
            let (to, path) = split_location(location);
            let host = if to.is_empty() { host } else { &to };
            Request::probe_get(&path, host).to_bytes()
        }
        (_, None) => Request::probe_get(&bloat_uri(), host).to_bytes(),
    }
}

/// The step after connection `conn` concluded with `result`; `first` is
/// the first connection's outcome when `conn` is the follow-up, which
/// concludes with the better of the two.
pub(crate) fn next_step(conn: u8, result: &ConnResult, first: ProbeOutcome) -> ProbeStep<'_> {
    let outcome = outcome_from_raw(&result.outcome, conn > 0);
    if conn > 0 {
        return ProbeStep::Conclude(better(first, outcome));
    }
    // Only a connection that ran out of data may learn more from another.
    if !matches!(outcome, ProbeOutcome::FewData { .. }) {
        return ProbeStep::Conclude(outcome);
    }
    // Redirects are followed; error responses are retried with the
    // bloated URI (their pages may echo it), and so is a head that did
    // not parse (e.g. zero bytes). A small but *successful* 2xx page is a
    // final answer — the host simply has little data at "/", and a long
    // URI would only swap it for an error page (§3.2).
    let head = result.head.as_ref();
    match head.map(|head| (head.status, head.location.as_deref())) {
        Some((_, Some(location))) => ProbeStep::FollowUp(outcome, Some(location)),
        Some((Ok(status), None)) if status < 400 => ProbeStep::Conclude(outcome),
        _ => ProbeStep::FollowUp(outcome, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{HttpHead, RawOutcome, Reads};
    use crate::probe::reads;
    use crate::results::{ErrorKind, Protocol};

    const IP: Ipv4Addr = Ipv4Addr::new(1, 2, 3, 4);
    const FEW: RawOutcome = RawOutcome::FewData {
        lower_bound: 4,
        bytes: 300,
        max_seg: 64,
        fin_seen: true,
    };
    const SUCCESS: RawOutcome = RawOutcome::Success {
        segments: 10,
        bytes: 640,
        max_seg: 64,
        loss_suspected: false,
        reordered: false,
    };
    const NOT_FOUND: &[u8] = b"HTTP/1.1 404 Not Found\r\n\r\nshort";

    /// A first connection that ended in `outcome` and read `response`'s head.
    fn result(outcome: RawOutcome, response: &[u8]) -> ConnResult {
        let head = Some(HttpHead::read(response));
        ConnResult { outcome, head }
    }

    /// The step after a first connection.
    fn first_step(result: &ConnResult) -> ProbeStep<'_> {
        next_step(0, result, ProbeOutcome::Unreachable)
    }

    /// The URI and host of the follow-up request a first connection's
    /// `result` leads to.
    fn follow_up(result: &ConnResult, domain: Option<&str>) -> (String, String) {
        let ProbeStep::FollowUp(_, location) = first_step(result) else {
            panic!("no follow-up after {result:?}");
        };
        let bytes = request(IP, domain, 1, location);
        let req = Request::parse(&bytes).unwrap();
        (req.uri.to_owned(), req.host.to_owned())
    }

    #[test]
    fn initial_request_has_ip_host() {
        let req = request(Ipv4Addr::new(203, 0, 113, 9), None, 0, None);
        let parsed = Request::parse(&req).unwrap();
        assert_eq!((parsed.uri, parsed.host), ("/", "203.0.113.9"));
        let req = request(IP, Some("site1.example"), 0, None);
        assert_eq!(Request::parse(&req).unwrap().host, "site1.example");
    }

    #[test]
    fn success_concludes_immediately() {
        let outcome = outcome_from_raw(&SUCCESS, false);
        let done = result(SUCCESS, NOT_FOUND);
        assert_eq!(first_step(&done), ProbeStep::Conclude(outcome));
    }

    #[test]
    fn a_small_2xx_page_concludes() {
        let small = result(FEW, b"HTTP/1.1 200 OK\r\nLocation: /x\r\n\r\nsmall");
        let outcome = outcome_from_raw(&FEW, false);
        assert_eq!(first_step(&small), ProbeStep::Conclude(outcome));
    }

    #[test]
    fn redirect_is_followed_with_extracted_host() {
        let resp =
            b"HTTP/1.1 301 Moved Permanently\r\nLocation: http://www.example.com/deep/page\r\n\r\n";
        let (uri, host) = follow_up(&result(FEW, resp), None);
        assert_eq!(
            (uri.as_str(), host.as_str()),
            ("/deep/page", "www.example.com")
        );
    }

    #[test]
    fn a_redirect_without_a_host_keeps_the_host() {
        let moved = result(FEW, b"HTTP/1.1 302 Found\r\nLocation: /moved\r\n\r\n");
        let (uri, host) = follow_up(&moved, None);
        assert_eq!((uri.as_str(), host.as_str()), ("/moved", "1.2.3.4"));
        let (uri, host) = follow_up(&moved, Some("site1.example"));
        assert_eq!((uri.as_str(), host.as_str()), ("/moved", "site1.example"));
    }

    #[test]
    fn no_redirect_bloats_uri() {
        let (uri, host) = follow_up(&result(FEW, NOT_FOUND), None);
        assert!(uri.len() >= 1300, "URI must fill the MTU");
        assert_eq!(host, "1.2.3.4");
    }

    #[test]
    fn an_unparseable_head_bloats_the_uri() {
        for response in [&b"garbage\r\n\r\n"[..], b"HTTP/1.1 200 OK\r\n", b""] {
            let (uri, _) = follow_up(&result(FEW, response), None);
            assert_eq!(uri, bloat_uri(), "{response:?}");
        }
        // A connection that read no head at all is treated the same.
        let unread = ConnResult {
            outcome: FEW,
            head: None,
        };
        assert_eq!(follow_up(&unread, None).0, bloat_uri());
    }

    #[test]
    fn only_the_first_connection_reads_the_head() {
        assert_eq!(reads(Protocol::Http, 0), Reads::HttpHead);
        let not_found = result(FEW, NOT_FOUND);
        assert!(matches!(first_step(&not_found), ProbeStep::FollowUp(..)));
        assert_eq!(
            reads(Protocol::Http, 1),
            Reads::Nothing,
            "the follow-up is only counted"
        );
    }

    #[test]
    fn follow_up_keeps_better_outcome() {
        let not_found = result(FEW, NOT_FOUND);
        let ProbeStep::FollowUp(first, None) = first_step(&not_found) else {
            panic!("a 404 is retried with the bloated URI");
        };
        // Follow-up succeeds.
        let success = result(SUCCESS, b"");
        let outcome = outcome_from_raw(&SUCCESS, true);
        assert_eq!(next_step(1, &success, first), ProbeStep::Conclude(outcome));
        // Or follow-up is worse: keep the first connection's bound.
        let worse = RawOutcome::FewData {
            lower_bound: 1,
            bytes: 70,
            max_seg: 64,
            fin_seen: true,
        };
        let worse = result(worse, b"");
        assert_eq!(next_step(1, &worse, first), ProbeStep::Conclude(first));
    }

    #[test]
    fn error_concludes_without_follow_up() {
        let err = RawOutcome::Error(ErrorKind::MidConnectionReset);
        let outcome = outcome_from_raw(&err, false);
        assert_eq!(first_step(&result(err, b"")), ProbeStep::Conclude(outcome));
    }

    #[test]
    fn bloat_uri_is_mtu_sized_and_identifying() {
        let uri = bloat_uri();
        assert_eq!(uri.len(), 1400);
        assert!(uri.contains("research-scan"));
        assert!(uri.starts_with('/'));
    }
}
