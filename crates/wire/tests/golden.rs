//! Golden bytes of the HTTP serializers, captured at the commit before
//! `Request` and `ResponseBuilder` stopped owning their strings: the
//! probe's requests and the three page shapes the simulated servers
//! build must not move by a byte (scan digests hash what hosts answer).

use iw_wire::http::{Request, ResponseBuilder};

const PROBE_TAIL: &str = "User-Agent: iw-scan/0.1 (research scan; see DESIGN.md)\r\n\
                          Accept: */*\r\n\
                          Connection: close\r\n\r\n";

#[test]
fn probe_get_root_bytes() {
    let bytes = Request::probe_get("/", "203.0.113.9").to_bytes();
    let expect = format!("GET / HTTP/1.1\r\nHost: 203.0.113.9\r\n{PROBE_TAIL}");
    assert_eq!(bytes, expect.as_bytes());
    assert_eq!(bytes.len(), 125);
}

#[test]
fn probe_get_bloat_uri_bytes() {
    // The shape of `iw_core::probe::http::bloat_uri()`: 1400 bytes.
    let mut uri = String::from("/this-is-a-tcp-initial-window-research-scan-see-DESIGN.md");
    while uri.len() < 1400 {
        uri.push_str("-initial-window-measurement");
    }
    uri.truncate(1400);
    let bytes = Request::probe_get(&uri, "www.example.com").to_bytes();
    let expect = format!("GET {uri} HTTP/1.1\r\nHost: www.example.com\r\n{PROBE_TAIL}");
    assert_eq!(bytes, expect.as_bytes());
    assert_eq!(bytes.len(), 1528);
}

#[test]
fn page_200_head_is_sorted_by_name() {
    let head = ResponseBuilder::new(200, "OK")
        .header("Server", "nginx")
        .header("Content-Type", "text/html")
        .head_only(50_000);
    assert_eq!(
        head,
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nServer: nginx\r\n\
          Content-Length: 50000\r\n\r\n"
    );
}

#[test]
fn page_301_bytes() {
    let server = String::from("Apache");
    let page = ResponseBuilder::new(301, "Moved Permanently")
        .header("Server", &server)
        .header(
            "Location",
            format!("http://{}{}", "www.example.com", "/index.html"),
        )
        .body(b"<html>Moved</html>".to_vec())
        .build();
    assert_eq!(
        page,
        b"HTTP/1.1 301 Moved Permanently\r\nLocation: http://www.example.com/index.html\r\n\
          Server: Apache\r\nContent-Length: 18\r\n\r\n<html>Moved</html>"
    );
}

#[test]
fn page_404_head_reserves_the_body() {
    let head = ResponseBuilder::new(404, "Not Found")
        .header("Server", "GHost")
        .head(1234);
    assert_eq!(
        head,
        b"HTTP/1.1 404 Not Found\r\nServer: GHost\r\nContent-Length: 1234\r\n\r\n"
    );
    assert!(head.capacity() >= head.len() + 1234);
}

#[test]
fn a_repeated_header_is_overwritten_not_duplicated() {
    let head = ResponseBuilder::new(200, "OK")
        .header("Server", "a")
        .header("Date", "today")
        .header("Server", "b")
        .head_only(0);
    assert_eq!(
        head,
        b"HTTP/1.1 200 OK\r\nDate: today\r\nServer: b\r\nContent-Length: 0\r\n\r\n"
    );
}
