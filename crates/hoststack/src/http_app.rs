//! The simulated HTTP server application (§3.2's counterpart).
//!
//! Reproduces the response patterns the probe methodology is built
//! around: direct pages, `301` virtual-host redirects with a `Location`
//! worth following, URI-echoing `404` pages (the error-page-bloating
//! target), mute hosts and resetters. `Connection: close` is honored by
//! queueing a FIN behind the response — which is exactly the signal the
//! scanner uses to detect an unexhausted IW.

use crate::app::{write_fill, App, AppResponse, Body, PartialRequest};
use crate::config::{HttpBehavior, HttpConfig};
use iw_wire::http::{Request, ResponseBuilder};
use iw_wire::Error;
use std::rc::Rc;

/// One HTTP connection's application state.
pub struct HttpApp {
    /// The host's service configuration, shared with its connections.
    config: Rc<HttpConfig>,
    partial: PartialRequest,
}

impl HttpApp {
    /// New connection against this host config.
    pub fn new(config: Rc<HttpConfig>) -> HttpApp {
        HttpApp {
            config,
            partial: PartialRequest::default(),
        }
    }

    fn respond(config: &Rc<HttpConfig>, req: &Request<'_>) -> AppResponse {
        let close = req
            .headers()
            .any(|(k, v)| k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close"));
        // Configured properties (Akamai-style): a Host header naming a
        // known service serves that service's real content with its own
        // IW configuration — which is exactly why the paper's anonymous
        // scan cannot see these without a curated URL list (§4.3/§5).
        if let Some((_, policy)) = config
            .vhost_iw
            .iter()
            .find(|(host, _)| req.host.eq_ignore_ascii_case(host))
        {
            let mut response = if close {
                AppResponse::send_and_close(Vec::new())
            } else {
                AppResponse::send(Vec::new())
            };
            response.body = Self::ok_page(config, 12_000);
            response.iw_override = Some(*policy);
            return response;
        }
        let (resp, body) = match &config.behavior {
            HttpBehavior::Direct {
                root_size,
                echo_404,
            } => {
                if req.uri == "/" {
                    (Vec::new(), Self::ok_page(config, *root_size))
                } else {
                    (
                        Self::not_found_page(config, 64, *echo_404, req.uri),
                        Body::Empty,
                    )
                }
            }
            HttpBehavior::Redirect {
                host,
                path,
                target_size,
            } => {
                if req.uri == path && (req.host == host || req.host.is_empty()) {
                    (Vec::new(), Self::ok_page(config, *target_size))
                } else {
                    let moved = ResponseBuilder::new(301, "Moved Permanently")
                        .header("Server", &config.server_header)
                        .header("Location", format!("http://{host}{path}"))
                        .body(b"<html>Moved</html>".to_vec())
                        .build();
                    (moved, Body::Empty)
                }
            }
            HttpBehavior::NotFound {
                base_size,
                echo_uri,
            } => (
                Self::not_found_page(config, *base_size as usize, *echo_uri, req.uri),
                Body::Empty,
            ),
            #[expect(
                clippy::unreachable,
                reason = "the remaining variants are handled in on_data before parsing"
            )]
            HttpBehavior::Mute | HttpBehavior::SilentClose | HttpBehavior::Reset => {
                unreachable!("terminal behaviours never build responses")
            }
        };
        let mut response = if close {
            AppResponse::send_and_close(resp)
        } else {
            AppResponse::send(resp)
        };
        response.body = body;
        // Per-service IW (Akamai-style): the property named by the Host
        // header may carry its own initial-window configuration.
        response.iw_override = config
            .vhost_iw
            .iter()
            .find(|(host, _)| req.host.eq_ignore_ascii_case(host))
            .map(|(_, policy)| *policy);
        response
    }

    /// A `200` whose body is `size` bytes of filler, head and body
    /// described ([`page`]): the TCB writes both into each segment as the
    /// peer's window pulls them, so a page costs a connection no bytes of
    /// its own.
    fn ok_page(config: &Rc<HttpConfig>, size: u32) -> Body {
        Body::Page(size, Rc::clone(config))
    }

    /// A 404 whose body optionally embeds the request URI — longer URIs
    /// beget longer error pages, the §3.2 bloating lever. Its bytes depend
    /// on the request, so the page is stored whole.
    fn not_found_page(config: &HttpConfig, base: usize, echo: bool, uri: &str) -> Vec<u8> {
        const PREFIX: &[u8] = b"<html><body>404 Not Found";
        const SUFFIX: &[u8] = b"</body></html>";
        let body_len = PREFIX.len() + if echo { 2 + uri.len() } else { 0 } + base + SUFFIX.len();
        let mut out = ResponseBuilder::new(404, "Not Found")
            .header("Server", &config.server_header)
            .head(body_len);
        out.extend_from_slice(PREFIX);
        if echo {
            out.extend_from_slice(b": ");
            out.extend_from_slice(uri.as_bytes());
        }
        let at = out.len();
        out.resize(at + base, 0);
        write_fill(0, &mut out[at..]);
        out.extend_from_slice(SUFFIX);
        out
    }
}

impl App for HttpApp {
    fn on_data(&mut self, data: &[u8]) -> Option<AppResponse> {
        match self.config.behavior {
            HttpBehavior::Mute => return None,
            HttpBehavior::SilentClose => return Some(AppResponse::silent_close()),
            HttpBehavior::Reset => return Some(AppResponse::abort()),
            _ => {}
        }
        let config = &self.config;
        self.partial
            .feed(data, |bytes| match Request::parse(bytes) {
                Ok(req) => Some(Self::respond(config, &req)),
                Err(Error::Truncated) => None,
                // Unparseable request: behave like a grumpy server.
                Err(_) => Some(AppResponse::abort()),
            })
    }
}

/// The `200 OK` page of [`Body::Page`], written from `(config, size)`
/// at any offset without allocating. Its head is the one
/// `ResponseBuilder::new(200, "OK")` serializes with a `Server` and a
/// `Content-Type: text/html` header: the status line, the headers sorted
/// by name, then `Content-Length`.
pub(crate) mod page {
    use crate::app::write_fill;
    use crate::config::HttpConfig;

    /// The head up to the `Server` value.
    const START: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nServer: ";
    /// Between the `Server` value and the `Content-Length` value.
    const LENGTH: &[u8] = b"\r\nContent-Length: ";
    /// The end of the head.
    const END: &[u8] = b"\r\n\r\n";

    /// `size` in decimal, right-aligned in a 10-byte buffer, and the
    /// number of digits.
    fn decimal(size: u32) -> ([u8; 10], usize) {
        let (mut digits, mut at, mut rest) = ([0; 10], 10, size);
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                return (digits, 10 - at);
            }
        }
    }

    /// Bytes in the page's head.
    fn head_len(config: &HttpConfig, size: u32) -> usize {
        START.len() + config.server_header.len() + LENGTH.len() + decimal(size).1 + END.len()
    }

    /// Bytes in the page: head and body.
    pub(crate) fn len(config: &HttpConfig, size: u32) -> usize {
        head_len(config, size) + size as usize
    }

    /// Write page bytes `offset..offset + out.len()` into `out`.
    pub(crate) fn write_at(config: &HttpConfig, size: u32, mut offset: usize, mut out: &mut [u8]) {
        let (digits, count) = decimal(size);
        let head = [
            START,
            config.server_header.as_bytes(),
            LENGTH,
            &digits[10 - count..],
            END,
        ];
        for piece in head {
            if out.is_empty() {
                return;
            }
            if offset >= piece.len() {
                offset -= piece.len();
                continue;
            }
            let n = (piece.len() - offset).min(out.len());
            out[..n].copy_from_slice(&piece[offset..offset + n]);
            out = &mut out[n..];
            offset = 0;
        }
        write_fill(offset, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::http::ResponseHead;

    fn cfg(behavior: HttpBehavior) -> HttpConfig {
        HttpConfig {
            behavior,
            server_header: "sim/1.0".into(),
            vhost_iw: Vec::new(),
        }
    }

    fn http_app(config: HttpConfig) -> HttpApp {
        HttpApp::new(Rc::new(config))
    }

    fn get(uri: &str, host: &str) -> Vec<u8> {
        Request::probe_get(uri, host).to_bytes()
    }

    /// Every byte a response puts on the wire, its body written out.
    fn sent(resp: &AppResponse) -> Vec<u8> {
        let mut bytes = resp.data.clone();
        let at = bytes.len();
        bytes.resize(at + resp.body.len(), 0);
        resp.body.write_at(0, &mut bytes[at..]);
        bytes
    }

    #[test]
    fn a_page_is_the_head_the_builder_writes_then_filler_from_any_offset() {
        for (server, size) in [("sim/1.0", 0), ("nginx", 9), ("GHost", 10), ("", 23_456)] {
            let config = cfg(HttpBehavior::Mute);
            let config = HttpConfig {
                server_header: server.into(),
                ..config
            };
            let mut whole = ResponseBuilder::new(200, "OK")
                .header("Server", server)
                .header("Content-Type", "text/html")
                .head_only(size as usize);
            whole.extend(crate::app::FILL_PATTERN.iter().cycle().take(size as usize));
            assert_eq!(page::len(&config, size), whole.len(), "{server} {size}");
            for offset in 0..whole.len().min(120) {
                for n in [0, 1, 7, 64, whole.len() - offset] {
                    let n = n.min(whole.len() - offset);
                    let mut out = vec![0xaa; n];
                    page::write_at(&config, size, offset, &mut out);
                    assert_eq!(
                        out,
                        whole[offset..offset + n],
                        "{server} {size} @{offset}+{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_serves_root() {
        let mut app = http_app(cfg(HttpBehavior::Direct {
            root_size: 5000,
            echo_404: true,
        }));
        let resp = app.on_data(&get("/", "1.2.3.4")).unwrap();
        assert!(resp.close, "Connection: close honored");
        assert!(resp.data.is_empty(), "nothing of the page is stored");
        let bytes = sent(&resp);
        let head = ResponseHead::parse(&bytes).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(bytes.len() - head.body_offset, 5000);
    }

    #[test]
    fn redirect_then_target() {
        let behavior = HttpBehavior::Redirect {
            host: "www.example.com".into(),
            path: "/index.html".into(),
            target_size: 9000,
        };
        let mut app = http_app(cfg(behavior.clone()));
        let resp = app.on_data(&get("/", "1.2.3.4")).unwrap();
        let bytes = sent(&resp);
        let head = ResponseHead::parse(&bytes).unwrap();
        assert_eq!(head.status, 301);
        assert_eq!(
            head.redirect_location(),
            Some("http://www.example.com/index.html")
        );
        // Fresh connection, following the redirect with the right host.
        let mut app2 = http_app(cfg(behavior));
        let resp2 = app2
            .on_data(&get("/index.html", "www.example.com"))
            .unwrap();
        let bytes2 = sent(&resp2);
        let head2 = ResponseHead::parse(&bytes2).unwrap();
        assert_eq!(head2.status, 200);
        assert_eq!(bytes2.len() - head2.body_offset, 9000);
    }

    #[test]
    fn not_found_echoes_uri_making_page_grow() {
        let mut app = http_app(cfg(HttpBehavior::NotFound {
            base_size: 100,
            echo_uri: true,
        }));
        let short = app.on_data(&get("/x", "h")).unwrap().data.len();
        let mut app = http_app(cfg(HttpBehavior::NotFound {
            base_size: 100,
            echo_uri: true,
        }));
        let long_uri = format!("/{}", "a".repeat(1400));
        let long = app.on_data(&get(&long_uri, "h")).unwrap().data.len();
        assert!(long >= short + 1399, "URI echo must grow the page");
    }

    #[test]
    fn akamai_style_no_echo_keeps_page_small() {
        let mut app = http_app(cfg(HttpBehavior::NotFound {
            base_size: 100,
            echo_uri: false,
        }));
        let long_uri = format!("/{}", "a".repeat(1400));
        let resp = app.on_data(&get(&long_uri, "h")).unwrap();
        assert!(resp.data.len() < 400, "no echo: page stays small");
    }

    #[test]
    fn partial_request_buffers() {
        let mut app = http_app(cfg(HttpBehavior::Direct {
            root_size: 10,
            echo_404: true,
        }));
        let req = get("/", "h");
        let (a, b) = req.split_at(10);
        assert!(app.on_data(a).is_none());
        assert!(app.on_data(b).is_some());
    }

    #[test]
    fn terminal_behaviours() {
        let mut mute = http_app(cfg(HttpBehavior::Mute));
        assert!(mute.on_data(&get("/", "h")).is_none());
        let mut closer = http_app(cfg(HttpBehavior::SilentClose));
        assert_eq!(closer.on_data(b"x"), Some(AppResponse::silent_close()));
        let mut rster = http_app(cfg(HttpBehavior::Reset));
        assert_eq!(rster.on_data(b"x"), Some(AppResponse::abort()));
    }

    #[test]
    fn garbage_request_aborts() {
        let mut app = http_app(cfg(HttpBehavior::Direct {
            root_size: 10,
            echo_404: true,
        }));
        let resp = app.on_data(b"\xff\xfe garbage \r\n\r\n").unwrap();
        assert!(resp.reset);
    }

    #[test]
    fn vhost_iw_override_attached_on_host_match() {
        use iw_hoststack_policy_shim::IwPolicy;
        mod iw_hoststack_policy_shim {
            pub use crate::policy::IwPolicy;
        }
        let mut config = cfg(HttpBehavior::Direct {
            root_size: 5000,
            echo_404: true,
        });
        config.vhost_iw = vec![
            ("www.customer-a.example".into(), IwPolicy::Segments(16)),
            ("www.customer-b.example".into(), IwPolicy::Segments(32)),
        ];
        let mut app = http_app(config.clone());
        let resp = app.on_data(&get("/", "www.customer-b.example")).unwrap();
        assert_eq!(resp.iw_override, Some(IwPolicy::Segments(32)));
        // Case-insensitive match, unknown host gets the default.
        let mut app = http_app(config.clone());
        let resp = app.on_data(&get("/", "WWW.CUSTOMER-A.EXAMPLE")).unwrap();
        assert_eq!(resp.iw_override, Some(IwPolicy::Segments(16)));
        let mut app = http_app(config);
        let resp = app.on_data(&get("/", "1.2.3.4")).unwrap();
        assert_eq!(resp.iw_override, None);
    }

    #[test]
    fn keepalive_request_does_not_close() {
        let mut app = http_app(cfg(HttpBehavior::Direct {
            root_size: 10,
            echo_404: true,
        }));
        let req = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = app.on_data(req).unwrap();
        assert!(!resp.close, "no Connection: close header");
    }
}
