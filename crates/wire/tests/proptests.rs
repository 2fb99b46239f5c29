//! Property-based tests: parse ∘ emit = id for every wire format, and
//! parsers never panic on arbitrary bytes.

use iw_wire::http::{Request, ResponseHead};
use iw_wire::icmp;
use iw_wire::ipv4::{self, Cidr, Ipv4Addr};
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::tls::handshake::{ClientHello, ServerFlight};
use iw_wire::tls::record::parse_stream;
use iw_wire::tls::CipherSuite;
use iw_wire::IpProtocol;
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from_u32)
}

fn arb_flags() -> impl Strategy<Value = Flags> {
    (0u16..0x40).prop_map(Flags::from_bits)
}

fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(TcpOption::Mss),
            (0u8..15).prop_map(TcpOption::WindowScale),
            Just(TcpOption::SackPermitted),
            (any::<u32>(), any::<u32>()).prop_map(|(a, b)| TcpOption::Timestamps(a, b)),
        ],
        0..3,
    )
}

proptest! {
    #[test]
    fn ipv4_round_trip(
        src in arb_addr(),
        dst in arb_addr(),
        ttl in 1u8..,
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let repr = ipv4::Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: IpProtocol::Tcp,
            payload_len: payload.len(),
            ttl,
        };
        let buf = ipv4::build_datagram(&repr, ident, &payload);
        let packet = ipv4::Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(ipv4::Repr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn ipv4_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(p) = ipv4::Packet::new_checked(&bytes[..]) {
            let _ = ipv4::Repr::parse(&p);
        }
    }

    #[test]
    fn tcp_round_trip(
        src in arb_addr(),
        dst in arb_addr(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in arb_flags(),
        window in any::<u16>(),
        options in arb_options(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = tcp::Repr {
            src_port: sp, dst_port: dp, seq, ack, flags, window,
            options, payload,
        };
        let buf = repr.emit(src, dst);
        let packet = tcp::Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum(src, dst));
        let parsed = tcp::Repr::parse(&packet, src, dst).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn tcp_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        src in arb_addr(),
        dst in arb_addr(),
    ) {
        if let Ok(p) = tcp::Packet::new_checked(&bytes[..]) {
            let _ = tcp::Repr::parse(&p, src, dst);
            for o in p.options() { let _ = o; }
        }
    }

    #[test]
    fn tcp_seq_ordering_total(a in any::<u32>(), b in any::<u32>()) {
        // For any two distinct points closer than 2^31, exactly one of
        // lt(a,b) / lt(b,a) holds.
        prop_assume!(a != b);
        prop_assume!(a.wrapping_sub(b) != 1 << 31);
        prop_assert!(tcp::seq::lt(a, b) ^ tcp::seq::lt(b, a));
    }

    #[test]
    fn icmp_round_trip(ident in any::<u16>(), seqn in any::<u16>(), len in 0usize..256) {
        let msg = icmp::Message::EchoRequest { ident, seq: seqn, payload_len: len };
        prop_assert_eq!(icmp::Message::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn icmp_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = icmp::Message::parse(&bytes);
    }

    #[test]
    fn cidr_first_last_contains(ip in any::<u32>(), len in 0u8..=32) {
        let c = Cidr::new(Ipv4Addr::from_u32(ip), len);
        prop_assert!(c.contains(Ipv4Addr::from_u32(c.first())));
        prop_assert!(c.contains(Ipv4Addr::from_u32(c.last())));
        prop_assert_eq!(u64::from(c.last() - c.first()) + 1, c.size());
    }

    #[test]
    fn http_request_round_trip(uri_tail in "[a-zA-Z0-9_/\\-]{0,64}", host in "[a-z0-9.\\-]{1,32}") {
        let uri = format!("/{uri_tail}");
        let req = Request::probe_get(&uri, &host);
        let bytes = req.to_bytes();
        let parsed = Request::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.uri, uri.as_str());
        prop_assert_eq!(parsed.host, host.as_str());
    }

    #[test]
    fn http_response_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ResponseHead::parse(&bytes);
        let _ = Request::parse(&bytes);
    }

    #[test]
    fn client_hello_round_trip(random in any::<[u8; 32]>(), sni in proptest::option::of("[a-z0-9.\\-]{1,40}")) {
        let ch = ClientHello::probe(random, sni.as_deref());
        let parsed = ClientHello::parse(&ch.to_handshake_bytes()).unwrap();
        prop_assert_eq!(parsed.random, random);
        prop_assert_eq!(parsed.server_name(), sni.as_deref());
        prop_assert_eq!(parsed.cipher_suites.len(), 40);
    }

    #[test]
    fn server_flight_framing_is_parseable(
        nchain in 1usize..4,
        cert_len in 12u32..4000,
        ocsp in proptest::option::of(1u32..600),
        ske in proptest::option::of(1u32..400),
    ) {
        let flight = ServerFlight {
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            random: [3; 32],
            cert_lens: vec![cert_len; nchain],
            ocsp_len: ocsp,
            key_exchange_len: ske,
        };
        let bytes = flight.to_record_bytes();
        let (records, used) = parse_stream(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(!records.is_empty());
        let payload: usize = records.iter().map(|r| r.payload.len()).sum();
        prop_assert!(payload >= flight.chain_len());
    }

    /// A flight written window by window is the built flight: any
    /// `(offset, len)`, and the whole stream cut at every MSS the study
    /// meets. Chains reach past the 16 KB record boundary, OCSP and SKE
    /// come and go, and a certificate may be empty.
    #[test]
    fn server_flight_write_at_is_the_built_flight(
        cert_lens in proptest::collection::vec(
            prop_oneof![Just(0u32), 1u32..3_000, 12_000u32..40_000],
            1..4,
        ),
        ocsp in proptest::option::of(0u32..600),
        ske in proptest::option::of(0u32..400),
        windows in proptest::collection::vec((any::<u32>(), 0u32..3_000), 1..16),
    ) {
        let flight = ServerFlight {
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            random: [7; 32],
            cert_lens,
            ocsp_len: ocsp,
            key_exchange_len: ske,
        };
        let bytes = flight.to_record_bytes();
        prop_assert_eq!(flight.record_len(), bytes.len());
        for (offset, len) in windows {
            let offset = offset as usize % (bytes.len() + 1);
            let len = (len as usize).min(bytes.len() - offset);
            let mut out = vec![0x99; len];
            flight.write_at(offset, &mut out);
            prop_assert_eq!(&out[..], &bytes[offset..offset + len], "window {}+{}", offset, len);
        }
        for mss in [64, 128, 536, 1460] {
            let mut out = vec![0x99; bytes.len()];
            for (i, chunk) in out.chunks_mut(mss).enumerate() {
                flight.write_at(i * mss, chunk);
            }
            prop_assert!(out == bytes, "cut at MSS {}", mss);
        }
    }

    #[test]
    fn tls_stream_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_stream(&bytes);
    }
}
