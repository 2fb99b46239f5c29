//! The TLS probe (§3.3).
//!
//! A single connection: send a ClientHello with the 40-cipher
//! browser-union list and an OCSP status request, then simply count the
//! bytes of the server's flight. The paper found no advantage in
//! inspecting TLS length fields (§3.3, last paragraph), so neither do we
//! — the generic ACK-release check decides success. The flight is counted,
//! never read ([`crate::inference::Reads::Nothing`]).

use iw_internet::util::mix;
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tls::handshake::ClientHello;

/// The ClientHello of probe `probe` to `ip`: its random is drawn from the
/// scan `seed`, the address and the probe; it offers `sni` when the target
/// list knows a domain. Plain IP enumeration offers none — the §4 "few
/// data" discussion hinges on exactly this.
pub(crate) fn request(seed: u64, ip: Ipv4Addr, sni: Option<&str>, probe: u32) -> Vec<u8> {
    let mut random = [0u8; 32];
    let h = mix(&[seed, u64::from(ip.to_u32()), u64::from(probe)]);
    for (i, b) in random.iter_mut().enumerate() {
        *b = (h >> (8 * (i % 8))) as u8 ^ i as u8;
    }
    ClientHello::probe(random, sni).to_record_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{ConnResult, RawOutcome};
    use crate::probe::{next_step, ProbeStep};
    use crate::results::{ProbeOutcome, Protocol};

    const IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    #[test]
    fn request_is_a_client_hello() {
        let req = request(9, IP, None, 0);
        // Record header: handshake(22), TLS record version 3.x.
        assert_eq!(req[0], 22);
        assert_eq!(req[1], 3);
        let (records, _) = iw_wire::tls::record::parse_stream(&req).unwrap();
        let hello = ClientHello::parse(records[0].payload).unwrap();
        assert_eq!(hello.cipher_suites.len(), 40);
        assert!(hello.wants_ocsp());
        assert_eq!(hello.server_name(), None);
        // The random is the probe's own.
        assert_eq!(request(9, IP, None, 0), req);
        assert_ne!(request(9, IP, None, 1), req);
    }

    #[test]
    fn sni_included_when_known() {
        let req = request(1, IP, Some("site1.example"), 0);
        let (records, _) = iw_wire::tls::record::parse_stream(&req).unwrap();
        let hello = ClientHello::parse(records[0].payload).unwrap();
        assert_eq!(hello.server_name(), Some("site1.example"));
    }

    #[test]
    fn single_connection_always_concludes() {
        let result = ConnResult {
            outcome: RawOutcome::FewData {
                lower_bound: 1,
                bytes: 7,
                max_seg: 7,
                fin_seen: true,
            },
            head: None,
        };
        match next_step(Protocol::Tls, 0, &result, ProbeOutcome::Unreachable) {
            ProbeStep::Conclude(ProbeOutcome::FewData { lower_bound, .. }) => {
                assert_eq!(lower_bound, 1)
            }
            other => panic!("{other:?}"),
        }
    }
}
