//! TLS handshake messages: ClientHello emission (probe side) and parsing
//! (server side), plus the server's first flight builder used by
//! `iw-hoststack`.

use super::cipher::CipherSuite;
use super::record::{self, ContentType, ProtocolVersion};
use crate::{Error, Result};

/// Handshake message types we use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeType {
    /// client_hello(1)
    ClientHello,
    /// server_hello(2)
    ServerHello,
    /// certificate(11)
    Certificate,
    /// server_key_exchange(12)
    ServerKeyExchange,
    /// certificate_status(22) — OCSP stapling response.
    CertificateStatus,
    /// server_hello_done(14)
    ServerHelloDone,
}

impl HandshakeType {
    fn to_u8(self) -> u8 {
        match self {
            HandshakeType::ClientHello => 1,
            HandshakeType::ServerHello => 2,
            HandshakeType::Certificate => 11,
            HandshakeType::ServerKeyExchange => 12,
            HandshakeType::ServerHelloDone => 14,
            HandshakeType::CertificateStatus => 22,
        }
    }
}

/// A ClientHello extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// server_name(0) with a single DNS hostname.
    ServerName(String),
    /// status_request(5) — request OCSP stapling ("to generate even more
    /// data, we included extensions for requesting OCSP stapling", §3.3).
    StatusRequest,
    /// supported_groups(10) with the standard browser curve list.
    SupportedGroups,
    /// ec_point_formats(11).
    EcPointFormats,
    /// signature_algorithms(13) with a browser-typical list.
    SignatureAlgorithms,
}

impl Extension {
    fn emit(&self, out: &mut Vec<u8>) {
        match self {
            Extension::ServerName(name) => {
                let host = name.as_bytes();
                let list_len = 3 + host.len();
                push_u16(out, 0);
                push_u16(out, (2 + list_len) as u16);
                push_u16(out, list_len as u16);
                out.push(0); // name_type host_name
                push_u16(out, host.len() as u16);
                out.extend_from_slice(host);
            }
            Extension::StatusRequest => {
                push_u16(out, 5);
                push_u16(out, 5);
                out.push(1); // OCSP
                push_u16(out, 0); // responder id list
                push_u16(out, 0); // request extensions
            }
            Extension::SupportedGroups => {
                // x25519, secp256r1, secp384r1, secp521r1
                let groups: [u16; 4] = [0x001d, 0x0017, 0x0018, 0x0019];
                push_u16(out, 10);
                push_u16(out, (2 + groups.len() * 2) as u16);
                push_u16(out, (groups.len() * 2) as u16);
                for g in groups {
                    push_u16(out, g);
                }
            }
            Extension::EcPointFormats => {
                push_u16(out, 11);
                push_u16(out, 2);
                out.push(1);
                out.push(0); // uncompressed
            }
            Extension::SignatureAlgorithms => {
                let algs: [u16; 6] = [0x0401, 0x0501, 0x0601, 0x0403, 0x0503, 0x0201];
                push_u16(out, 13);
                push_u16(out, (2 + algs.len() * 2) as u16);
                push_u16(out, (algs.len() * 2) as u16);
                for a in algs {
                    push_u16(out, a);
                }
            }
        }
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u24(out: &mut Vec<u8>, v: usize) {
    debug_assert!(v < 1 << 24);
    out.push((v >> 16) as u8);
    out.push((v >> 8) as u8);
    out.push(v as u8);
}

fn read_u16(data: &[u8], off: usize) -> Result<u16> {
    data.get(off..off + 2)
        .map(|s| u16::from_be_bytes([s[0], s[1]]))
        .ok_or(Error::Truncated)
}

/// A ClientHello message (the only handshake message the probe sends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Client random (32 bytes). Deterministic in tests, seeded in scans.
    pub random: [u8; 32],
    /// Offered cipher suites in preference order.
    pub cipher_suites: Vec<CipherSuite>,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

impl ClientHello {
    /// Build the scan ClientHello: the browser-union 40-suite list, OCSP
    /// status request, and the usual curve/sig-alg baggage. `server_name`
    /// is only set when the prober learned a hostname (e.g. from an HTTP
    /// redirect); plain IP enumeration has none — the cause of the SNI
    /// failures discussed in §4 ("Success rates").
    pub fn probe(random: [u8; 32], server_name: Option<&str>) -> ClientHello {
        let mut extensions = vec![
            Extension::StatusRequest,
            Extension::SupportedGroups,
            Extension::EcPointFormats,
            Extension::SignatureAlgorithms,
        ];
        if let Some(name) = server_name {
            extensions.insert(0, Extension::ServerName(name.to_string()));
        }
        ClientHello {
            random,
            cipher_suites: super::cipher::browser_union_ciphers(),
            extensions,
        }
    }

    /// Serialize into handshake-message bytes (without record framing).
    pub fn to_handshake_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(256);
        body.push(3);
        body.push(3); // client_version TLS 1.2
        body.extend_from_slice(&self.random);
        body.push(0); // empty session id
        push_u16(&mut body, (self.cipher_suites.len() * 2) as u16);
        for cs in &self.cipher_suites {
            push_u16(&mut body, cs.0);
        }
        body.push(1); // compression methods
        body.push(0); // null
        let mut ext = Vec::new();
        for e in &self.extensions {
            e.emit(&mut ext);
        }
        push_u16(&mut body, ext.len() as u16);
        body.extend_from_slice(&ext);

        let mut msg = Vec::with_capacity(body.len() + 4);
        msg.push(HandshakeType::ClientHello.to_u8());
        push_u24(&mut msg, body.len());
        msg.extend_from_slice(&body);
        msg
    }

    /// Serialize with record framing, ready for the TCP stream.
    pub fn to_record_bytes(&self) -> Vec<u8> {
        record::Record::emit(
            ContentType::Handshake,
            ProtocolVersion::TLS10,
            &self.to_handshake_bytes(),
        )
    }

    /// Parse a ClientHello from handshake-message bytes (server side).
    pub fn parse(msg: &[u8]) -> Result<ClientHello> {
        if msg.len() < 4 || msg[0] != 1 {
            return Err(Error::TlsSyntax);
        }
        let body_len = ((msg[1] as usize) << 16) | ((msg[2] as usize) << 8) | msg[3] as usize;
        let body = msg.get(4..4 + body_len).ok_or(Error::Truncated)?;
        if body.len() < 2 + 32 + 1 {
            return Err(Error::Truncated);
        }
        if body[0] != 3 {
            return Err(Error::Version);
        }
        let mut random = [0u8; 32];
        random.copy_from_slice(&body[2..34]);
        let mut off = 34;
        let sid_len = *body.get(off).ok_or(Error::Truncated)? as usize;
        off += 1 + sid_len;
        let cs_len = read_u16(body, off)? as usize;
        off += 2;
        if !cs_len.is_multiple_of(2) {
            return Err(Error::Malformed);
        }
        let cs_bytes = body.get(off..off + cs_len).ok_or(Error::Truncated)?;
        let cipher_suites = cs_bytes
            .chunks_exact(2)
            .map(|c| CipherSuite(u16::from_be_bytes([c[0], c[1]])))
            .collect();
        off += cs_len;
        let comp_len = *body.get(off).ok_or(Error::Truncated)? as usize;
        off += 1 + comp_len;
        let mut extensions = Vec::new();
        if off < body.len() {
            let ext_len = read_u16(body, off)? as usize;
            off += 2;
            let ext_end = off + ext_len;
            if ext_end > body.len() {
                return Err(Error::Truncated);
            }
            while off + 4 <= ext_end {
                let ty = read_u16(body, off)?;
                let len = read_u16(body, off + 2)? as usize;
                off += 4;
                let data = body.get(off..off + len).ok_or(Error::Truncated)?;
                off += len;
                match ty {
                    0
                        // server_name: skip list length (2), type (1), len (2)
                        if data.len() >= 5 => {
                            let name_len = u16::from_be_bytes([data[3], data[4]]) as usize;
                            let name = data.get(5..5 + name_len).ok_or(Error::Truncated)?;
                            let name =
                                std::str::from_utf8(name).map_err(|_| Error::TlsSyntax)?;
                            extensions.push(Extension::ServerName(name.to_string()));
                        }
                    5 => extensions.push(Extension::StatusRequest),
                    10 => extensions.push(Extension::SupportedGroups),
                    11 => extensions.push(Extension::EcPointFormats),
                    13 => extensions.push(Extension::SignatureAlgorithms),
                    _ => {}
                }
            }
        }
        Ok(ClientHello {
            random,
            cipher_suites,
            extensions,
        })
    }

    /// The SNI hostname, if offered.
    pub fn server_name(&self) -> Option<&str> {
        self.extensions.iter().find_map(|e| match e {
            Extension::ServerName(n) => Some(n.as_str()),
            _ => None,
        })
    }

    /// Whether OCSP stapling was requested.
    pub fn wants_ocsp(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| matches!(e, Extension::StatusRequest))
    }
}

/// Description of the server's first flight, used by the simulated TLS
/// server to synthesize ServerHello + Certificate (+ CertificateStatus,
/// + ServerKeyExchange) + ServerHelloDone as one byte stream.
///
/// Only lengths matter for the IW study, so the opaque parts are given
/// by length and written as deterministic filler: each certificate is a
/// DER SEQUENCE tag (`0x30`) then `0xd3` bytes, the OCSP response is
/// `0x0c` bytes and the key exchange `0x5a` bytes. The description is
/// all a server holds: [`Self::write_at`] writes any window of the
/// record stream from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerFlight {
    /// Chosen cipher suite.
    pub cipher: CipherSuite,
    /// Server random.
    pub random: [u8; 32],
    /// Certificate chain: the DER length of each certificate, leaf first.
    pub cert_lens: Vec<u32>,
    /// Length of the OCSP response to staple (CertificateStatus), if any.
    pub ocsp_len: Option<u32>,
    /// Length of the ServerKeyExchange body for (EC)DHE suites, if any.
    pub key_exchange_len: Option<u32>,
}

/// Filler bytes of a flight's opaque parts (see [`ServerFlight`]).
const CERT_TAG: u8 = 0x30;
const CERT_FILL: u8 = 0xd3;
const OCSP_FILL: u8 = 0x0c;
const SKE_FILL: u8 = 0x5a;

impl ServerFlight {
    /// Serialize the whole flight into TLS records: the reference that
    /// [`Self::write_at`] reproduces window by window.
    pub fn to_record_bytes(&self) -> Vec<u8> {
        let mut hs = Vec::new();

        // ServerHello
        let mut sh = Vec::new();
        sh.push(3);
        sh.push(3);
        sh.extend_from_slice(&self.random);
        sh.push(0); // empty session id
        push_u16(&mut sh, self.cipher.0);
        sh.push(0); // null compression
        push_u16(&mut sh, 0); // no extensions
        append_handshake(&mut hs, HandshakeType::ServerHello, &sh);

        // Certificate
        let chain_len: usize = self.cert_lens.iter().map(|n| 3 + *n as usize).sum();
        let mut cert = Vec::with_capacity(3 + chain_len);
        push_u24(&mut cert, chain_len);
        for &n in &self.cert_lens {
            push_u24(&mut cert, n as usize);
            let at = cert.len();
            cert.resize(at + n as usize, CERT_FILL);
            if n > 0 {
                cert[at] = CERT_TAG;
            }
        }
        append_handshake(&mut hs, HandshakeType::Certificate, &cert);

        // CertificateStatus (OCSP stapling)
        if let Some(n) = self.ocsp_len {
            let mut st = Vec::with_capacity(4 + n as usize);
            st.push(1); // status_type ocsp
            push_u24(&mut st, n as usize);
            st.resize(4 + n as usize, OCSP_FILL);
            append_handshake(&mut hs, HandshakeType::CertificateStatus, &st);
        }

        // ServerKeyExchange
        if let Some(n) = self.key_exchange_len {
            let ke = vec![SKE_FILL; n as usize];
            append_handshake(&mut hs, HandshakeType::ServerKeyExchange, &ke);
        }

        // ServerHelloDone
        append_handshake(&mut hs, HandshakeType::ServerHelloDone, &[]);

        record::emit_fragmented(ContentType::Handshake, ProtocolVersion::TLS12, &hs)
    }

    /// Length of the record stream [`Self::to_record_bytes`] builds.
    pub fn record_len(&self) -> usize {
        let hs = self.handshake_len();
        hs + record::HEADER_LEN * hs.div_ceil(record::MAX_FRAGMENT)
    }

    /// Write `to_record_bytes()[offset..offset + out.len()]` into `out`
    /// without building the flight: the records' headers and the
    /// handshake messages' framing are computed, the opaque parts are
    /// filler runs.
    pub fn write_at(&self, offset: usize, out: &mut [u8]) {
        debug_assert!(offset + out.len() <= self.record_len());
        let hs_len = self.handshake_len();
        let mut window = Window::new(offset, out);
        for start in (0..hs_len).step_by(record::MAX_FRAGMENT) {
            let len = (hs_len - start).min(record::MAX_FRAGMENT);
            window.bytes(&record::header(
                ContentType::Handshake,
                ProtocolVersion::TLS12,
                len,
            ));
            window.put(len, |dst, from| self.write_handshake_at(start + from, dst));
        }
    }

    /// Length of the handshake messages, before record framing.
    fn handshake_len(&self) -> usize {
        let chain: usize = self.cert_lens.iter().map(|n| 3 + *n as usize).sum();
        let ocsp = self.ocsp_len.map_or(0, |n| 4 + 4 + n as usize);
        let ske = self.key_exchange_len.map_or(0, |n| 4 + n as usize);
        SERVER_HELLO_LEN + 4 + 3 + chain + ocsp + ske + 4
    }

    /// Write `out.len()` bytes of the handshake messages from `offset`.
    fn write_handshake_at(&self, offset: usize, out: &mut [u8]) {
        let mut window = Window::new(offset, out);
        window.bytes(&self.server_hello());
        let chain: usize = self.cert_lens.iter().map(|n| 3 + *n as usize).sum();
        window.bytes(&message_header(HandshakeType::Certificate, 3 + chain));
        window.bytes(&u24(chain));
        for &n in &self.cert_lens {
            window.bytes(&u24(n as usize));
            window.run(n as usize, CERT_TAG, CERT_FILL);
        }
        if let Some(n) = self.ocsp_len {
            let n = n as usize;
            window.bytes(&message_header(HandshakeType::CertificateStatus, 4 + n));
            window.bytes(&[1]); // status_type ocsp
            window.bytes(&u24(n));
            window.run(n, OCSP_FILL, OCSP_FILL);
        }
        if let Some(n) = self.key_exchange_len {
            let n = n as usize;
            window.bytes(&message_header(HandshakeType::ServerKeyExchange, n));
            window.run(n, SKE_FILL, SKE_FILL);
        }
        window.bytes(&message_header(HandshakeType::ServerHelloDone, 0));
    }

    /// The ServerHello message, framing included.
    fn server_hello(&self) -> [u8; SERVER_HELLO_LEN] {
        let mut sh = [0; SERVER_HELLO_LEN];
        sh[..4].copy_from_slice(&message_header(
            HandshakeType::ServerHello,
            SERVER_HELLO_LEN - 4,
        ));
        sh[4..6].copy_from_slice(&[3, 3]);
        sh[6..38].copy_from_slice(&self.random);
        // Then an empty session id, the suite, null compression and no
        // extensions.
        sh[39..41].copy_from_slice(&self.cipher.0.to_be_bytes());
        sh
    }

    /// Total certificate-chain length in bytes (the Fig. 2 metric: the sum
    /// of DER lengths, what censys reports).
    pub fn chain_len(&self) -> usize {
        self.cert_lens.iter().map(|n| *n as usize).sum()
    }
}

/// ServerHello with an empty session id and no extensions: the 4-byte
/// message header, version, random, session id length, suite,
/// compression and extensions length.
const SERVER_HELLO_LEN: usize = 4 + 2 + 32 + 1 + 2 + 1 + 2;

fn u24(v: usize) -> [u8; 3] {
    debug_assert!(v < 1 << 24);
    [(v >> 16) as u8, (v >> 8) as u8, v as u8]
}

fn message_header(ty: HandshakeType, len: usize) -> [u8; 4] {
    let [a, b, c] = u24(len);
    [ty.to_u8(), a, b, c]
}

/// The window `[offset, offset + out.len())` of a stream that is
/// written piece by piece, in stream order: each piece lands in `out`
/// where it overlaps the window and is skipped elsewhere.
struct Window<'a> {
    /// Stream offset of the next piece.
    at: usize,
    offset: usize,
    out: &'a mut [u8],
}

impl<'a> Window<'a> {
    fn new(offset: usize, out: &'a mut [u8]) -> Self {
        Window { at: 0, offset, out }
    }

    /// The next `len` stream bytes: `write(dst, from)` fills `dst` with
    /// the piece's bytes from its own offset `from`, where they overlap.
    fn put(&mut self, len: usize, write: impl FnOnce(&mut [u8], usize)) {
        let start = self.at.max(self.offset);
        let end = (self.at + len).min(self.offset + self.out.len());
        if start < end {
            write(
                &mut self.out[start - self.offset..end - self.offset],
                start - self.at,
            );
        }
        self.at += len;
    }

    fn bytes(&mut self, piece: &[u8]) {
        self.put(piece.len(), |dst, from| {
            dst.copy_from_slice(&piece[from..from + dst.len()])
        });
    }

    /// `len` bytes: `lead`, then `fill` for the rest.
    fn run(&mut self, len: usize, lead: u8, fill: u8) {
        self.put(len, |dst, from| {
            dst.fill(fill);
            if from == 0 {
                dst[0] = lead;
            }
        });
    }
}

fn append_handshake(out: &mut Vec<u8>, ty: HandshakeType, body: &[u8]) {
    out.push(ty.to_u8());
    push_u24(out, body.len());
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::record::parse_stream;

    #[test]
    fn client_hello_round_trip() {
        let ch = ClientHello::probe([7u8; 32], Some("www.example.com"));
        let bytes = ch.to_handshake_bytes();
        let parsed = ClientHello::parse(&bytes).unwrap();
        assert_eq!(parsed.random, [7u8; 32]);
        assert_eq!(parsed.cipher_suites.len(), 40);
        assert_eq!(parsed.server_name(), Some("www.example.com"));
        assert!(parsed.wants_ocsp());
    }

    #[test]
    fn client_hello_without_sni() {
        let ch = ClientHello::probe([0u8; 32], None);
        let parsed = ClientHello::parse(&ch.to_handshake_bytes()).unwrap();
        assert_eq!(parsed.server_name(), None);
        assert!(parsed.wants_ocsp());
    }

    #[test]
    fn client_hello_record_framing() {
        let ch = ClientHello::probe([1u8; 32], None);
        let rec_bytes = ch.to_record_bytes();
        let (records, used) = parse_stream(&rec_bytes).unwrap();
        assert_eq!(used, rec_bytes.len());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        // Record-layer version is TLS 1.0 for compatibility.
        assert_eq!(records[0].version, ProtocolVersion::TLS10);
        let parsed = ClientHello::parse(records[0].payload).unwrap();
        assert_eq!(parsed.random, [1u8; 32]);
    }

    #[test]
    fn truncated_client_hello() {
        let ch = ClientHello::probe([1u8; 32], None);
        let bytes = ch.to_handshake_bytes();
        assert!(matches!(
            ClientHello::parse(&bytes[..bytes.len() - 3]),
            Err(Error::Truncated)
        ));
    }

    #[test]
    fn server_flight_length_accounting() {
        let flight = ServerFlight {
            cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
            random: [9u8; 32],
            cert_lens: vec![1200, 900],
            ocsp_len: Some(471),
            key_exchange_len: Some(300),
        };
        assert_eq!(flight.chain_len(), 2100);
        let bytes = flight.to_record_bytes();
        let (records, used) = parse_stream(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        // Flight must comfortably exceed the chain (hello + framing + ocsp + ske).
        let payload: usize = records.iter().map(|r| r.payload.len()).sum();
        assert!(payload > 2100 + 471 + 300);
    }

    #[test]
    fn server_flight_big_chain_fragments() {
        let flight = ServerFlight {
            cipher: CipherSuite::RSA_AES128_CBC,
            random: [0u8; 32],
            cert_lens: vec![65_000],
            ocsp_len: None,
            key_exchange_len: None,
        };
        let bytes = flight.to_record_bytes();
        let (records, _) = parse_stream(&bytes).unwrap();
        assert!(records.len() >= 4, "65 kB chain spans several records");
    }

    #[test]
    fn minimal_flight_parses() {
        // 36 B chain — the censys minimum from Fig. 2.
        let flight = ServerFlight {
            cipher: CipherSuite::RSA_RC4_SHA,
            random: [2u8; 32],
            cert_lens: vec![36],
            ocsp_len: None,
            key_exchange_len: None,
        };
        let bytes = flight.to_record_bytes();
        let (records, used) = parse_stream(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(records.len(), 1);
    }
}
