//! The simulated TLS server application (§3.3's counterpart).
//!
//! On a ClientHello the server either ships its first flight —
//! ServerHello, Certificate (the calibrated chain), optional stapled
//! CertificateStatus, optional ServerKeyExchange, ServerHelloDone — or
//! fails in one of the ways the paper attributes the TLS "few data" and
//! "no data" buckets to: missing SNI and cipher mismatch.

use crate::app::{App, AppResponse, Body, PartialRequest};
use crate::config::{TlsBehavior, TlsConfig};
use iw_wire::tls::handshake::{ClientHello, ServerFlight};
use iw_wire::tls::record::{self, ContentType, ProtocolVersion};
use iw_wire::tls::Alert;
use iw_wire::Error;
use std::rc::Rc;

/// One TLS connection's application state.
pub struct TlsApp {
    /// The host's service configuration, shared with its connections.
    config: Rc<TlsConfig>,
    partial: PartialRequest,
    answered: bool,
}

impl TlsApp {
    /// New connection against this host config.
    pub fn new(config: Rc<TlsConfig>) -> TlsApp {
        TlsApp {
            config,
            partial: PartialRequest::default(),
            answered: false,
        }
    }

    fn alert(alert: Alert) -> AppResponse {
        let rec = record::Record::emit(
            ContentType::Alert,
            ProtocolVersion::TLS12,
            &alert.to_bytes(),
        );
        AppResponse::send_and_close(rec)
    }

    fn serve(&self, hello: &ClientHello) -> AppResponse {
        // Choose our configured suite iff the client offered it.
        if !hello.cipher_suites.contains(&self.config.cipher) {
            return Self::alert(Alert::HANDSHAKE_FAILURE);
        }
        let flight = ServerFlight {
            cipher: self.config.cipher,
            random: [0x42; 32],
            cert_lens: self.config.cert_lens.clone(),
            ocsp_len: self.config.ocsp_len.filter(|_| hello.wants_ocsp()),
            // ECDHE params + signature: a realistic ~333 bytes.
            key_exchange_len: self.config.cipher.has_server_key_exchange().then_some(333),
        };
        // The flight is followed by silence: the server now waits for the
        // client's key exchange, so the connection stays open (the
        // scanner will RST it once the estimate is done). It is sent
        // from its description: the TCB writes each segment's records.
        let mut response = AppResponse::send(Vec::new());
        response.body = Body::Tls(Box::new(flight));
        // Per-SNI IW override (Akamai-style per-service configuration).
        if let Some(name) = hello.server_name() {
            response.iw_override = self
                .config
                .sni_iw
                .iter()
                .find(|(sni, _)| name.eq_ignore_ascii_case(sni))
                .map(|(_, policy)| *policy);
        }
        response
    }
}

impl App for TlsApp {
    fn on_data(&mut self, data: &[u8]) -> Option<AppResponse> {
        match self.config.behavior {
            TlsBehavior::Mute => return None,
            TlsBehavior::Reset => return Some(AppResponse::abort()),
            _ => {}
        }
        if self.answered {
            // Anything after our flight (we do not implement the rest of
            // the handshake — the probe never continues it).
            return None;
        }
        // A ClientHello, or the answer to a stream that will never hold one.
        let hello = self.partial.feed(data, |bytes| {
            let (records, _used) = match record::parse_stream(bytes) {
                Ok(r) => r,
                Err(_) => return Some(Err(AppResponse::abort())),
            };
            let hello = records
                .iter()
                .find(|r| r.content_type == ContentType::Handshake)
                .map(|handshake| ClientHello::parse(handshake.payload));
            match hello {
                Some(Ok(h)) => Some(Ok(h)),
                // No (whole) ClientHello yet: keep buffering.
                None | Some(Err(Error::Truncated)) => None,
                Some(Err(_)) => Some(Err(Self::alert(Alert::HANDSHAKE_FAILURE))),
            }
        })?;
        let hello = match hello {
            Ok(h) => h,
            Err(response) => return Some(response),
        };
        self.answered = true;
        let resp = match self.config.behavior {
            TlsBehavior::Serve => self.serve(&hello),
            TlsBehavior::AlertWithoutSni => {
                if hello.server_name().is_some() {
                    self.serve(&hello)
                } else {
                    Self::alert(Alert::UNRECOGNIZED_NAME)
                }
            }
            TlsBehavior::CloseWithoutSni => {
                if hello.server_name().is_some() {
                    self.serve(&hello)
                } else {
                    AppResponse::silent_close()
                }
            }
            TlsBehavior::CipherMismatch => Self::alert(Alert::HANDSHAKE_FAILURE),
            #[expect(clippy::unreachable, reason = "both return above")]
            TlsBehavior::Mute | TlsBehavior::Reset => unreachable!("handled above"),
        };
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::tls::record::parse_stream;
    use iw_wire::tls::CipherSuite;

    fn cfg(behavior: TlsBehavior) -> TlsConfig {
        TlsConfig {
            behavior,
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            cert_lens: vec![1200, 986],
            ocsp_len: Some(471),
            sni_iw: Vec::new(),
        }
    }

    fn tls_app(config: TlsConfig) -> TlsApp {
        TlsApp::new(Rc::new(config))
    }

    /// Every byte a response puts on the wire, the flight built whole.
    fn sent(resp: &AppResponse) -> Vec<u8> {
        let mut bytes = resp.data.clone();
        match &resp.body {
            Body::Tls(flight) => bytes.extend(flight.to_record_bytes()),
            body => assert!(body.is_empty(), "{body:?}"),
        }
        bytes
    }

    fn hello(sni: Option<&str>) -> Vec<u8> {
        ClientHello::probe([1; 32], sni).to_record_bytes()
    }

    #[test]
    fn serves_full_flight() {
        let mut app = tls_app(cfg(TlsBehavior::Serve));
        let resp = app.on_data(&hello(None)).unwrap();
        assert!(!resp.close, "server awaits client key exchange");
        let bytes = sent(&resp);
        let (records, _) = parse_stream(&bytes).unwrap();
        assert!(!records.is_empty());
        // Flight exceeds chain + OCSP + SKE.
        assert!(sent(&resp).len() > 1200 + 986 + 471 + 333);
    }

    #[test]
    fn static_rsa_has_no_ske_and_smaller_flight() {
        let mut c = cfg(TlsBehavior::Serve);
        c.cipher = CipherSuite::RSA_AES128_CBC;
        c.ocsp_len = None;
        let mut app = tls_app(c);
        let resp = app.on_data(&hello(None)).unwrap();
        let mut c2 = cfg(TlsBehavior::Serve);
        c2.ocsp_len = None;
        let mut app2 = tls_app(c2);
        let resp2 = app2.on_data(&hello(None)).unwrap();
        assert!(sent(&resp).len() + 300 <= sent(&resp2).len());
    }

    #[test]
    fn sni_required_alerts_without_name() {
        let mut app = tls_app(cfg(TlsBehavior::AlertWithoutSni));
        let resp = app.on_data(&hello(None)).unwrap();
        assert!(resp.close);
        let bytes = sent(&resp);
        let (records, _) = parse_stream(&bytes).unwrap();
        assert_eq!(records[0].content_type, ContentType::Alert);
        assert_eq!(
            Alert::parse(records[0].payload),
            Some(Alert::UNRECOGNIZED_NAME)
        );
        // With SNI it serves.
        let mut app = tls_app(cfg(TlsBehavior::AlertWithoutSni));
        let resp = app.on_data(&hello(Some("www.example.com"))).unwrap();
        assert!(sent(&resp).len() > 2000);
    }

    #[test]
    fn close_without_sni_sends_nothing() {
        let mut app = tls_app(cfg(TlsBehavior::CloseWithoutSni));
        let resp = app.on_data(&hello(None)).unwrap();
        assert!(resp.close && sent(&resp).is_empty());
    }

    #[test]
    fn cipher_mismatch_alerts() {
        let mut app = tls_app(cfg(TlsBehavior::CipherMismatch));
        let resp = app.on_data(&hello(Some("x"))).unwrap();
        let bytes = sent(&resp);
        let (records, _) = parse_stream(&bytes).unwrap();
        assert_eq!(
            Alert::parse(records[0].payload),
            Some(Alert::HANDSHAKE_FAILURE)
        );
    }

    #[test]
    fn unoffered_cipher_alerts_even_when_serving() {
        let mut c = cfg(TlsBehavior::Serve);
        c.cipher = CipherSuite(0xfefe); // not in the probe's 40
        let mut app = tls_app(c);
        let resp = app.on_data(&hello(None)).unwrap();
        assert!(resp.close);
        let bytes = sent(&resp);
        let (records, _) = parse_stream(&bytes).unwrap();
        assert_eq!(records[0].content_type, ContentType::Alert);
    }

    #[test]
    fn partial_hello_buffers() {
        let mut app = tls_app(cfg(TlsBehavior::Serve));
        let h = hello(None);
        let (a, b) = h.split_at(20);
        assert!(app.on_data(a).is_none());
        assert!(app.on_data(b).is_some());
    }

    #[test]
    fn ocsp_only_when_requested() {
        // Our probe always requests stapling; a hand-built hello without
        // the extension gets a smaller flight.
        let mut with_ocsp = tls_app(cfg(TlsBehavior::Serve));
        let big = sent(&with_ocsp.on_data(&hello(None)).unwrap()).len();
        let bare = ClientHello {
            random: [1; 32],
            cipher_suites: iw_wire::tls::browser_union_ciphers(),
            extensions: vec![],
        };
        let mut without = tls_app(cfg(TlsBehavior::Serve));
        let small = sent(&without.on_data(&bare.to_record_bytes()).unwrap()).len();
        assert!(big >= small + 471);
    }

    #[test]
    fn garbage_aborts() {
        let mut app = tls_app(cfg(TlsBehavior::Serve));
        // A syntactically valid record carrying a non-ClientHello body.
        let rec = record::Record::emit(
            ContentType::Handshake,
            ProtocolVersion::TLS12,
            &[9, 9, 9, 9],
        );
        let resp = app.on_data(&rec).unwrap();
        assert!(resp.close || resp.reset);
    }

    #[test]
    fn sni_iw_override() {
        use crate::policy::IwPolicy;
        let mut config = cfg(TlsBehavior::Serve);
        config.sni_iw = vec![("media.customer.example".into(), IwPolicy::Segments(32))];
        let mut app = tls_app(config.clone());
        let resp = app.on_data(&hello(Some("media.customer.example"))).unwrap();
        assert_eq!(resp.iw_override, Some(IwPolicy::Segments(32)));
        let mut app = tls_app(config);
        let resp = app.on_data(&hello(Some("other.example"))).unwrap();
        assert_eq!(resp.iw_override, None);
    }

    #[test]
    fn mute_and_reset() {
        let mut mute = tls_app(cfg(TlsBehavior::Mute));
        assert!(mute.on_data(&hello(None)).is_none());
        let mut rst = tls_app(cfg(TlsBehavior::Reset));
        assert_eq!(rst.on_data(b"x"), Some(AppResponse::abort()));
    }
}
