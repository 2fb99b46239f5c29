//! ICMPv4 messages used by the path-MTU discovery scan (paper footnote 1).
//!
//! The RFC 1191 probe sends DF-flagged echo requests of decreasing size and
//! listens for *Fragmentation Needed* errors carrying the next-hop MTU, so
//! we implement Echo Request/Reply and Destination Unreachable.

use crate::checksum;
use crate::ipv4::{self, Ipv4Addr};
use crate::{BufferPool, Error, IpProtocol, PooledPacket, Result};

/// ICMP message types we handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Echo Request (type 8): identifier, sequence, payload length.
    EchoRequest {
        /// Identifier to match replies to requests.
        ident: u16,
        /// Sequence number within the probe train.
        seq: u16,
        /// Number of payload bytes (contents are zeros on the wire).
        payload_len: usize,
    },
    /// Echo Reply (type 0).
    EchoReply {
        /// Identifier echoed from the request.
        ident: u16,
        /// Sequence echoed from the request.
        seq: u16,
        /// Echoed payload length.
        payload_len: usize,
    },
    /// Destination Unreachable / Fragmentation Needed (type 3 code 4)
    /// carrying the next-hop MTU per RFC 1191.
    FragNeeded {
        /// Next-hop MTU reported by the constricting router.
        mtu: u16,
    },
    /// Destination Unreachable with any other code.
    DstUnreachable {
        /// The unreachable code (0 = net, 1 = host, 3 = port, ...).
        code: u8,
    },
    /// Source Quench (type 4 code 0): a router or host asking the sender
    /// to slow down. Deprecated on the real internet (RFC 6633) but alive
    /// as a rate-limiting signature, so the harvest classifies it.
    SourceQuench,
}

/// Fixed ICMP header length.
pub const HEADER_LEN: usize = 8;

impl Message {
    /// Emitted length in bytes.
    pub fn buffer_len(&self) -> usize {
        match self {
            Message::EchoRequest { payload_len, .. } | Message::EchoReply { payload_len, .. } => {
                HEADER_LEN + payload_len
            }
            // Errors carry 8 bytes of the offending datagram in real life;
            // we emit the header only (parsers must not rely on the quote).
            Message::FragNeeded { .. } | Message::DstUnreachable { .. } | Message::SourceQuench => {
                HEADER_LEN
            }
        }
    }

    /// Emit the message into a fresh buffer, checksummed.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.buffer_len()];
        self.emit_into(&mut buf);
        buf
    }

    /// This message as a whole IPv4 datagram from `src` to `dst` (TTL 64),
    /// built in a slab of `pool` sized to it. Takes the sender's IP
    /// identification counter and steps it.
    pub fn datagram(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: &mut u16,
        pool: &BufferPool,
    ) -> PooledPacket {
        let ip = ipv4::Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: IpProtocol::Icmp,
            payload_len: self.buffer_len(),
            ttl: 64,
        };
        ipv4::pooled_datagram(&ip, ident, pool, |l4| self.emit_into(l4))
    }

    /// Emit into a zeroed buffer of exactly [`Self::buffer_len`] bytes
    /// ([`Self::emit`] and [`Self::datagram`] wrap this).
    pub fn emit_into(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.buffer_len());
        match self {
            Message::EchoRequest { ident, seq, .. } => {
                buf[0] = 8;
                buf[4..6].copy_from_slice(&ident.to_be_bytes());
                buf[6..8].copy_from_slice(&seq.to_be_bytes());
            }
            Message::EchoReply { ident, seq, .. } => {
                buf[0] = 0;
                buf[4..6].copy_from_slice(&ident.to_be_bytes());
                buf[6..8].copy_from_slice(&seq.to_be_bytes());
            }
            Message::FragNeeded { mtu } => {
                buf[0] = 3;
                buf[1] = 4;
                buf[6..8].copy_from_slice(&mtu.to_be_bytes());
            }
            Message::DstUnreachable { code } => {
                buf[0] = 3;
                buf[1] = *code;
            }
            Message::SourceQuench => {
                buf[0] = 4;
            }
        }
        let sum = checksum::checksum(buf);
        buf[2..4].copy_from_slice(&sum.to_be_bytes());
    }

    /// Parse an ICMP message from an IPv4 payload.
    pub fn parse(data: &[u8]) -> Result<Message> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if checksum::checksum(data) != 0 {
            return Err(Error::Checksum);
        }
        let ty = data[0];
        let code = data[1];
        match (ty, code) {
            (8, 0) => Ok(Message::EchoRequest {
                ident: u16::from_be_bytes([data[4], data[5]]),
                seq: u16::from_be_bytes([data[6], data[7]]),
                payload_len: data.len() - HEADER_LEN,
            }),
            (0, 0) => Ok(Message::EchoReply {
                ident: u16::from_be_bytes([data[4], data[5]]),
                seq: u16::from_be_bytes([data[6], data[7]]),
                payload_len: data.len() - HEADER_LEN,
            }),
            (3, 4) => Ok(Message::FragNeeded {
                mtu: u16::from_be_bytes([data[6], data[7]]),
            }),
            (3, c) => Ok(Message::DstUnreachable { code: c }),
            (4, 0) => Ok(Message::SourceQuench),
            _ => Err(Error::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let msg = Message::EchoRequest {
            ident: 0xbeef,
            seq: 3,
            payload_len: 100,
        };
        let buf = msg.emit();
        assert_eq!(buf.len(), 108);
        assert_eq!(Message::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn frag_needed_round_trip() {
        let msg = Message::FragNeeded { mtu: 1336 };
        let buf = msg.emit();
        assert_eq!(Message::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn unreachable_round_trip() {
        let msg = Message::DstUnreachable { code: 1 };
        assert_eq!(Message::parse(&msg.emit()).unwrap(), msg);
    }

    #[test]
    fn source_quench_round_trip() {
        let msg = Message::SourceQuench;
        let buf = msg.emit();
        assert_eq!(buf.len(), HEADER_LEN);
        assert_eq!(buf[0], 4);
        assert_eq!(Message::parse(&buf).unwrap(), msg);
        // A non-zero code is not a source quench.
        let mut bad = vec![4u8, 1, 0, 0, 0, 0, 0, 0];
        let s = checksum::checksum(&bad);
        bad[2..4].copy_from_slice(&s.to_be_bytes());
        assert_eq!(Message::parse(&bad).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn checksum_enforced() {
        let mut buf = Message::FragNeeded { mtu: 1500 }.emit();
        buf[7] ^= 1;
        assert_eq!(Message::parse(&buf).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Message::parse(&[8, 0, 0]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![13u8, 0, 0, 0, 0, 0, 0, 0];
        let s = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&s.to_be_bytes());
        assert_eq!(Message::parse(&buf).unwrap_err(), Error::Malformed);
    }
}
