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

/// What the application wants done after producing (or not producing) a
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppResponse {
    /// Bytes to transmit. May be empty (e.g. a silent close).
    pub data: Vec<u8>,
    /// Deterministic filler appended (lazily) after `data`: this many
    /// bytes of [`FILL_PATTERN`], cycled from position zero. The TCB
    /// materializes them only as the peer's window pulls them, so a
    /// server can promise a multi-hundred-kilobyte page while a probe
    /// that RSTs after the initial flight never pays for the tail.
    pub fill: usize,
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
            fill: 0,
            close: false,
            reset: false,
            iw_override: None,
        }
    }

    /// Respond, then close gracefully once the data drained.
    pub fn send_and_close(data: Vec<u8>) -> AppResponse {
        AppResponse {
            data,
            fill: 0,
            close: true,
            reset: false,
            iw_override: None,
        }
    }

    /// Close immediately without sending anything.
    pub fn silent_close() -> AppResponse {
        AppResponse {
            data: Vec::new(),
            fill: 0,
            close: true,
            reset: false,
            iw_override: None,
        }
    }

    /// Abort the connection.
    pub fn abort() -> AppResponse {
        AppResponse {
            data: Vec::new(),
            fill: 0,
            close: false,
            reset: true,
            iw_override: None,
        }
    }
}

/// The deterministic filler the simulated servers pad pages with.
///
/// [`AppResponse::fill`] counts bytes of this pattern, cycled from
/// position zero; the TCB materializes them on demand.
pub const FILL_PATTERN: &[u8] = b"The quick brown fox jumps over the lazy dog. ";

/// Append `n` bytes continuing the filler cycle of the region that
/// starts at `base` (i.e. `out[base]` holds pattern position zero).
pub fn fill_pattern_continue(out: &mut Vec<u8>, base: usize, mut n: usize) {
    out.reserve(n);
    while n > 0 {
        let pos = (out.len() - base) % FILL_PATTERN.len();
        let take = (FILL_PATTERN.len() - pos).min(n);
        out.extend_from_slice(&FILL_PATTERN[pos..pos + take]);
        n -= take;
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
                fill: 0,
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
