//! The TLS probe driver (§3.3).
//!
//! A single connection: send a ClientHello with the 40-cipher
//! browser-union list and an OCSP status request, then simply count the
//! bytes of the server's flight. The paper found no advantage in
//! inspecting TLS length fields (§3.3, last paragraph), so neither do we
//! — the generic ACK-release check decides success.

use super::{outcome_from_raw, ProbeDriver, ProbeStep};
use crate::inference::{ConnResult, Reads};
use iw_wire::tls::handshake::ClientHello;

/// One TLS probe attempt.
pub struct TlsProbe {
    /// SNI to offer, when a domain is known (Alexa scan); plain IP
    /// enumeration offers none — the §4 "few data" discussion hinges on
    /// exactly this.
    sni: Option<String>,
    /// ClientHello random (deterministic per probe).
    random: [u8; 32],
}

impl TlsProbe {
    /// New probe with an optional server name.
    pub fn new(sni: Option<String>, random: [u8; 32]) -> TlsProbe {
        TlsProbe { sni, random }
    }
}

impl ProbeDriver for TlsProbe {
    fn initial_request(&mut self) -> Vec<u8> {
        ClientHello::probe(self.random, self.sni.as_deref()).to_record_bytes()
    }

    /// The server flight is counted, never read (§3.3).
    fn reads(&self) -> Reads {
        Reads::Nothing
    }

    fn next_step(&mut self, result: &ConnResult) -> ProbeStep {
        ProbeStep::Conclude(outcome_from_raw(&result.outcome, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::RawOutcome;
    use crate::results::ProbeOutcome;

    #[test]
    fn request_is_a_client_hello() {
        let mut p = TlsProbe::new(None, [9; 32]);
        let req = p.initial_request();
        // Record header: handshake(22), TLS record version 3.x.
        assert_eq!(req[0], 22);
        assert_eq!(req[1], 3);
        let (records, _) = iw_wire::tls::record::parse_stream(&req).unwrap();
        let hello = ClientHello::parse(records[0].payload).unwrap();
        assert_eq!(hello.cipher_suites.len(), 40);
        assert!(hello.wants_ocsp());
        assert_eq!(hello.server_name(), None);
    }

    #[test]
    fn sni_included_when_known() {
        let mut p = TlsProbe::new(Some("site1.example".into()), [1; 32]);
        let req = p.initial_request();
        let (records, _) = iw_wire::tls::record::parse_stream(&req).unwrap();
        let hello = ClientHello::parse(records[0].payload).unwrap();
        assert_eq!(hello.server_name(), Some("site1.example"));
    }

    #[test]
    fn single_connection_always_concludes() {
        let mut p = TlsProbe::new(None, [2; 32]);
        let result = ConnResult {
            outcome: RawOutcome::FewData {
                lower_bound: 1,
                bytes: 7,
                max_seg: 7,
                fin_seen: true,
            },
            response: vec![21, 3, 3, 0, 2, 2, 40],
        };
        match p.next_step(&result) {
            ProbeStep::Conclude(ProbeOutcome::FewData { lower_bound, .. }) => {
                assert_eq!(lower_bound, 1)
            }
            other => panic!("{other:?}"),
        }
    }
}
