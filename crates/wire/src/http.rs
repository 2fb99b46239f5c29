//! Minimal HTTP/1.x request/response handling for the HTTP probe module.
//!
//! The probe (paper §3.2) needs exactly this much HTTP:
//!
//! * build `GET` requests with a `Host` header (the bare IP when nothing
//!   else is known), `Connection: close`, and an arbitrarily long URI (the
//!   error-page bloating trick);
//! * recognize a response status line;
//! * extract the `Location` header from `3xx` responses to follow
//!   redirects on a fresh connection.
//!
//! The parser is intentionally tolerant: scan targets speak wildly varying
//! dialects and the prober only ever needs the status code and one header.

use crate::{Error, Result};
use std::borrow::Cow;

/// Split the header block of a head (everything after its first line)
/// into trimmed `(name, value)` pairs; a non-empty line without a colon
/// is a syntax error.
fn header_lines(block: &str) -> impl Iterator<Item = Result<(&str, &str)>> {
    block
        .split("\r\n")
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (k, v) = line.split_once(':').ok_or(Error::HttpSyntax)?;
            Ok((k.trim(), v.trim()))
        })
}

/// The first line of a head and the header block behind it.
fn split_head(data: &[u8]) -> Result<(&str, &str, usize)> {
    let head_end = find_head_end(data).ok_or(Error::Truncated)?;
    let head = std::str::from_utf8(&data[..head_end]).map_err(|_| Error::HttpSyntax)?;
    let (first, block) = head.split_once("\r\n").unwrap_or((head, ""));
    Ok((first, block, head_end))
}

/// What a probe `GET` sends besides `Host`: `Connection: close` (so a
/// FIN marks "out of data", §3.2) and a `User-Agent` identifying the
/// research scan.
const PROBE_HEADERS: &str = "User-Agent: iw-scan/0.1 (research scan; see DESIGN.md)\r\n\
                             Accept: */*\r\n\
                             Connection: close";

/// An HTTP request head, borrowed: the prober's own (`probe_get`) or one
/// a simulated server parsed out of its receive buffer. Header lines stay
/// text and are split when asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Request method; the prober only uses `GET`.
    pub method: &'a str,
    /// Request target (origin-form URI).
    pub uri: &'a str,
    /// `Host` header value (empty when the request carried none).
    pub host: &'a str,
    /// The header block as it stands on the wire.
    block: &'a str,
}

impl<'a> Request<'a> {
    /// A probe `GET` for `uri` with the given `Host` value.
    pub fn probe_get(uri: &'a str, host: &'a str) -> Request<'a> {
        Request {
            method: "GET",
            uri,
            host,
            block: PROBE_HEADERS,
        }
    }

    /// Headers other than `Host`, in order, as `(name, value)`.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        header_lines(self.block)
            .filter_map(|line| line.ok())
            .filter(|(k, _)| !k.eq_ignore_ascii_case("host"))
    }

    /// Serialize onto the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        // 32 covers the fixed text around the three fields and the block.
        let mut out = Vec::with_capacity(
            self.method.len() + self.uri.len() + self.host.len() + self.block.len() + 32,
        );
        for part in [self.method, " ", self.uri, " HTTP/1.1\r\nHost: ", self.host] {
            out.extend_from_slice(part.as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        for (k, v) in self.headers() {
            for part in [k, ": ", v, "\r\n"] {
                out.extend_from_slice(part.as_bytes());
            }
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    /// Parse a request head (used by the simulated HTTP servers).
    ///
    /// Expects the full head (terminated by an empty line) to be present;
    /// returns `Error::Truncated` until it is, so servers can keep
    /// buffering.
    pub fn parse(data: &'a [u8]) -> Result<Request<'a>> {
        let (request_line, block, _) = split_head(data)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(Error::HttpSyntax)?;
        let uri = parts.next().ok_or(Error::HttpSyntax)?;
        let version = parts.next().ok_or(Error::HttpSyntax)?;
        if !version.starts_with("HTTP/1.") {
            return Err(Error::HttpSyntax);
        }
        let mut host = "";
        for line in header_lines(block) {
            let (k, v) = line?;
            if k.eq_ignore_ascii_case("host") {
                host = v;
            }
        }
        Ok(Request {
            method,
            uri,
            host,
            block,
        })
    }
}

/// A parsed HTTP response head (what the prober inspects), borrowed from
/// the response bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead<'a> {
    /// Numeric status code.
    pub status: u16,
    /// Offset of the body within the parsed buffer.
    pub body_offset: usize,
    /// The header block as it stands on the wire.
    block: &'a str,
}

impl<'a> ResponseHead<'a> {
    /// Parse a response head out of (possibly partial) stream data.
    ///
    /// Returns `Error::Truncated` while the blank line has not arrived.
    pub fn parse(data: &'a [u8]) -> Result<ResponseHead<'a>> {
        let (status_line, block, head_end) = split_head(data)?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().ok_or(Error::HttpSyntax)?;
        if !version.starts_with("HTTP/") {
            return Err(Error::HttpSyntax);
        }
        let status: u16 = parts
            .next()
            .ok_or(Error::HttpSyntax)?
            .parse()
            .map_err(|_| Error::HttpSyntax)?;
        for line in header_lines(block) {
            line?;
        }
        Ok(ResponseHead {
            status,
            body_offset: head_end + 4,
            block,
        })
    }

    /// Headers in order of appearance, as `(name, value)`.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        header_lines(self.block).filter_map(|line| line.ok())
    }

    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&'a str> {
        self.headers()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Whether this is a redirect carrying a usable `Location`.
    pub fn redirect_location(&self) -> Option<&'a str> {
        if (300..400).contains(&self.status) {
            self.header("location")
        } else {
            None
        }
    }
}

/// Split an absolute or origin-form URI into (host, path) as the prober
/// needs when following a `Location` header (§3.2): `http://example.com/a`
/// → `("example.com", "/a")`; `/a` → `("", "/a")`.
pub fn split_location(location: &str) -> (String, String) {
    for scheme in ["http://", "https://"] {
        if let Some(rest) = location.strip_prefix(scheme) {
            return match rest.find('/') {
                Some(idx) => (rest[..idx].to_string(), rest[idx..].to_string()),
                None => (rest.to_string(), "/".to_string()),
            };
        }
    }
    if location.starts_with('/') {
        (String::new(), location.to_string())
    } else {
        // Opaque/relative junk: treat as a path from root.
        (String::new(), format!("/{location}"))
    }
}

/// Build a response head + body (used by the simulated servers).
#[derive(Debug, Clone)]
pub struct ResponseBuilder<'a> {
    status: u16,
    reason: &'static str,
    /// Sorted by name: the order the head is written in.
    headers: Vec<(&'a str, Cow<'a, str>)>,
    body: Vec<u8>,
}

impl<'a> ResponseBuilder<'a> {
    /// Start a response with a status code and reason phrase.
    pub fn new(status: u16, reason: &'static str) -> Self {
        ResponseBuilder {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Add/overwrite a header.
    pub fn header(mut self, k: &'a str, v: impl Into<Cow<'a, str>>) -> Self {
        let v = v.into();
        match self.headers.binary_search_by(|(name, _)| (*name).cmp(k)) {
            Ok(at) => self.headers[at].1 = v,
            Err(at) => self.headers.insert(at, (k, v)),
        }
        self
    }

    /// Set the body; `Content-Length` is filled automatically.
    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Serialize the full response.
    pub fn build(mut self) -> Vec<u8> {
        let body = std::mem::take(&mut self.body);
        let mut bytes = self.head(body.len());
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Serialize just the head (with `Content-Length: content_length`),
    /// reserving room for the body. The caller appends the body bytes
    /// directly into the returned buffer — for a page stored whole.
    pub fn head(self, content_length: usize) -> Vec<u8> {
        self.serialize_head(content_length, content_length)
    }

    /// Serialize just the head, without reserving body capacity — for
    /// responses whose body is written from a description, never stored.
    pub fn head_only(self, content_length: usize) -> Vec<u8> {
        self.serialize_head(content_length, 0)
    }

    fn serialize_head(self, content_length: usize, reserve_body: usize) -> Vec<u8> {
        use std::fmt::Write;
        let mut head_len = 64;
        for (k, v) in &self.headers {
            head_len += k.len() + v.len() + 4;
        }
        let mut out = String::with_capacity(head_len + reserve_body);
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (k, v) in &self.headers {
            let _ = write!(out, "{k}: {v}\r\n");
        }
        let _ = write!(out, "Content-Length: {content_length}\r\n\r\n");
        out.into_bytes()
    }
}

/// Length of the response head at the front of `data`, up to and
/// including its first blank line: every byte [`ResponseHead::parse`]
/// reads. `None` while the blank line has not arrived.
pub fn head_len(data: &[u8]) -> Option<usize> {
    find_head_end(data).map(|end| end + 4)
}

fn find_head_end(data: &[u8]) -> Option<usize> {
    // Skip to each '\r' (a single-byte search the compiler vectorizes)
    // instead of comparing a 4-byte window at every offset — probe URIs
    // make heads kilobytes long and truncated parses rescan from zero.
    let mut start = 0;
    while let Some(off) = data[start..].iter().position(|&b| b == b'\r') {
        let i = start + off;
        if i + 4 > data.len() {
            return None;
        }
        if &data[i..i + 4] == b"\r\n\r\n" {
            return Some(i);
        }
        start = i + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_get_serializes() {
        let req = Request::probe_get("/", "203.0.113.9");
        let bytes = req.to_bytes();
        let text = std::str::from_utf8(&bytes).unwrap();
        assert!(text.starts_with("GET / HTTP/1.1\r\nHost: 203.0.113.9\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn request_round_trip() {
        let req = Request::probe_get("/probe", "example.com");
        let bytes = req.to_bytes();
        let parsed = Request::parse(&bytes).unwrap();
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.uri, "/probe");
        assert_eq!(parsed.host, "example.com");
        assert!(parsed
            .headers()
            .any(|(k, v)| k == "Connection" && v == "close"));
    }

    #[test]
    fn partial_request_is_truncated() {
        let req = Request::probe_get("/", "h").to_bytes();
        assert_eq!(
            Request::parse(&req[..req.len() - 1]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn response_parse_and_location() {
        let raw = b"HTTP/1.1 301 Moved Permanently\r\nLocation: http://www.example.com/index.html\r\nServer: test\r\n\r\nbody";
        let head = ResponseHead::parse(raw).unwrap();
        assert_eq!(head.status, 301);
        assert_eq!(
            head.redirect_location(),
            Some("http://www.example.com/index.html")
        );
        assert_eq!(&raw[head.body_offset..], b"body");
    }

    #[test]
    fn non_redirect_has_no_location() {
        let raw = b"HTTP/1.1 200 OK\r\nLocation: /x\r\n\r\n";
        let head = ResponseHead::parse(raw).unwrap();
        assert_eq!(head.redirect_location(), None);
    }

    #[test]
    fn split_location_variants() {
        assert_eq!(
            split_location("http://www.foo.com/a/b"),
            ("www.foo.com".into(), "/a/b".into())
        );
        assert_eq!(
            split_location("https://foo.com"),
            ("foo.com".into(), "/".into())
        );
        assert_eq!(split_location("/moved"), (String::new(), "/moved".into()));
        assert_eq!(split_location("moved"), (String::new(), "/moved".into()));
    }

    #[test]
    fn response_builder_sets_content_length() {
        let resp = ResponseBuilder::new(404, "Not Found")
            .header("Server", "sim")
            .body(b"nope".to_vec())
            .build();
        let head = ResponseHead::parse(&resp).unwrap();
        assert_eq!(head.status, 404);
        assert_eq!(head.header("content-length"), Some("4"));
        assert_eq!(&resp[head.body_offset..], b"nope");
    }

    #[test]
    fn bad_status_line_is_syntax_error() {
        assert_eq!(
            ResponseHead::parse(b"garbage here\r\n\r\n").unwrap_err(),
            Error::HttpSyntax
        );
        assert_eq!(
            ResponseHead::parse(b"HTTP/1.1 abc OK\r\n\r\n").unwrap_err(),
            Error::HttpSyntax
        );
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let raw = b"HTTP/1.1 200 OK\r\nX-Thing: 1\r\n\r\n";
        let head = ResponseHead::parse(raw).unwrap();
        assert_eq!(head.header("x-thing"), Some("1"));
        assert_eq!(head.header("X-THING"), Some("1"));
    }
}
