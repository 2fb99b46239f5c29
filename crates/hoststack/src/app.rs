//! The application interface between a [`crate::tcb::Tcb`] and the
//! protocol servers running on top of it.
//!
//! An application consumes the in-order receive stream and, when it has a
//! complete request, hands the TCB a response plus a disposition: keep the
//! connection, close it gracefully (FIN *after* the response drains — the
//! ordering §3.2's exhaustion check exploits), or abort it (RST).
//!
//! Responses may also carry a **per-service IW override** — the paper's
//! §4.3/§5 observation that Akamai configures initial windows per
//! service and even per customer. The edge node picks the congestion
//! configuration once it knows which property is being served (Host
//! header / SNI), i.e. just before the first data flight.

use crate::config::HttpConfig;
use crate::http_app::page;
use iw_wire::tls::handshake::ServerFlight;
use std::rc::Rc;

/// What the application wants done after producing (or not producing) a
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppResponse {
    /// Stored bytes to transmit first: a head, or a page whose bytes
    /// depend on the request. May be empty (e.g. a silent close).
    pub data: Vec<u8>,
    /// Bytes to transmit after `data` that the host's configuration
    /// alone determines: described, never stored.
    pub body: Body,
    /// Graceful close: queue a FIN behind the data.
    pub close: bool,
    /// Abortive close: send a RST instead of anything else.
    pub reset: bool,
    /// Per-service initial-window override, applied before the first
    /// data flight (Akamai-style per-customer configuration, §4.3).
    pub iw_override: Option<crate::policy::IwPolicy>,
}

impl AppResponse {
    /// Respond and keep the connection open.
    pub fn send(data: Vec<u8>) -> AppResponse {
        AppResponse {
            data,
            body: Body::Empty,
            close: false,
            reset: false,
            iw_override: None,
        }
    }

    /// Respond, then close gracefully once the data drained.
    pub fn send_and_close(data: Vec<u8>) -> AppResponse {
        AppResponse {
            close: true,
            ..AppResponse::send(data)
        }
    }

    /// Close immediately without sending anything.
    pub fn silent_close() -> AppResponse {
        AppResponse::send_and_close(Vec::new())
    }

    /// Abort the connection.
    pub fn abort() -> AppResponse {
        AppResponse {
            reset: true,
            ..AppResponse::send(Vec::new())
        }
    }
}

/// The part of a response that is a pure function of the host's
/// configuration. The TCB writes each segment's share of it straight
/// into the packet from `(description, offset)`, so a server can promise
/// a multi-hundred-kilobyte page or a 60 KB certificate chain while
/// holding a few bytes per connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Body {
    /// No bytes.
    #[default]
    Empty,
    /// A whole `200 OK` page whose body is this many bytes of filler: the
    /// head `ResponseBuilder` serializes for the service's `Server`
    /// header, then the filler. Neither is stored.
    Page(u32, Rc<HttpConfig>),
    /// A TLS server flight, as records. Boxed: every TCB holds a body,
    /// and the flight's description is five times the size of the rest.
    Tls(Box<ServerFlight>),
}

const _: () = assert!(
    std::mem::size_of::<Body>() <= 16,
    "every TCB holds a body: a larger one grows the Tcb past its gate"
);

impl Body {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Body::Empty => 0,
            Body::Page(size, config) => page::len(config, *size),
            Body::Tls(flight) => flight.record_len(),
        }
    }

    /// Whether there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write bytes `offset..offset + out.len()` of the body into `out`.
    pub fn write_at(&self, offset: usize, out: &mut [u8]) {
        debug_assert!(offset + out.len() <= self.len());
        match self {
            Body::Empty => {}
            Body::Page(size, config) => page::write_at(config, *size, offset, out),
            Body::Tls(flight) => flight.write_at(offset, out),
        }
    }
}

/// The deterministic filler the simulated servers pad pages with.
pub const FILL_PATTERN: &[u8] = b"The quick brown fox jumps over the lazy dog. ";

/// Write the filler cycle's bytes from position `offset` into `out`.
pub fn write_fill(offset: usize, out: &mut [u8]) {
    let mut pos = offset % FILL_PATTERN.len();
    for chunk in out.chunks_mut(FILL_PATTERN.len()) {
        // Each chunk is a pattern's length, so it starts where the last
        // one did: the tail of the pattern from `pos`, then its head.
        let tail = (FILL_PATTERN.len() - pos).min(chunk.len());
        chunk[..tail].copy_from_slice(&FILL_PATTERN[pos..pos + tail]);
        let head = chunk.len() - tail;
        chunk[tail..].copy_from_slice(&FILL_PATTERN[..head]);
        pos = (pos + chunk.len()) % FILL_PATTERN.len();
    }
}

/// A connection-scoped application (one instance per TCP connection).
pub trait App {
    /// In-order stream bytes arrived; each chunk is handed over exactly
    /// once, so an application that needs more than one chunk keeps what
    /// it has seen ([`PartialRequest::feed`]). Return `Some` once a complete
    /// request has been assembled; `None` keeps buffering.
    fn on_data(&mut self, data: &[u8]) -> Option<AppResponse>;
}

/// What an application has received of a request it could not parse
/// yet. A request that arrives whole (every probe's does) is parsed where
/// it lies in the packet and never copied here.
#[derive(Debug, Default)]
pub struct PartialRequest {
    held: Vec<u8>,
}

impl PartialRequest {
    /// Run `parse` over the request bytes received so far: `data` itself
    /// while nothing is held back, else everything held with `data`
    /// appended. `None` from `parse` means "incomplete": the bytes are
    /// kept for the next chunk.
    pub fn feed<T>(&mut self, data: &[u8], parse: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        if self.held.is_empty() {
            let parsed = parse(data);
            if parsed.is_none() {
                self.held.extend_from_slice(data);
            }
            parsed
        } else {
            self.held.extend_from_slice(data);
            parse(&self.held)
        }
    }
}

/// An application that never answers — the "no data" hosts of Table 2.
#[derive(Debug, Default)]
pub struct SilentApp {
    /// Whether to close (FIN) on first request instead of staying mute.
    pub close_on_request: bool,
}

impl App for SilentApp {
    fn on_data(&mut self, _data: &[u8]) -> Option<AppResponse> {
        if self.close_on_request {
            Some(AppResponse::silent_close())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(
            AppResponse::send(vec![1]),
            AppResponse {
                data: vec![1],
                body: Body::Empty,
                close: false,
                reset: false,
                iw_override: None,
            }
        );
        assert!(AppResponse::send_and_close(vec![]).close);
        assert!(AppResponse::abort().reset);
        let s = AppResponse::silent_close();
        assert!(s.close && s.data.is_empty());
    }

    #[test]
    fn fill_is_the_pattern_cycled_from_any_offset() {
        let cycled: Vec<u8> = FILL_PATTERN.iter().copied().cycle().take(400).collect();
        for offset in [0, 1, 44, 45, 46, 200] {
            for len in [0, 1, 44, 45, 46, 130] {
                let mut out = vec![0; len];
                write_fill(offset, &mut out);
                assert_eq!(out, cycled[offset..offset + len], "{offset}+{len}");
            }
        }
    }

    #[test]
    fn silent_app_behaviour() {
        let mut mute = SilentApp {
            close_on_request: false,
        };
        assert_eq!(mute.on_data(b"GET / HTTP/1.1\r\n\r\n"), None);
        let mut closer = SilentApp {
            close_on_request: true,
        };
        assert_eq!(closer.on_data(b"x"), Some(AppResponse::silent_close()));
    }
}
