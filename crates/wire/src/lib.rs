//! # iw-wire — wire formats for the initial-window scanner
//!
//! Zero-copy packet wrapper types in the style of `smoltcp`: each protocol
//! has a `Packet<T: AsRef<[u8]>>` view that validates and exposes header
//! fields in place, and a `Repr` ("representation") struct that captures the
//! semantic content of a header and can be emitted back into a buffer.
//! TCP has two representations on one reader and one writer: the borrowed
//! [`tcp::Segment`] the engine parses and emits (payload left where it
//! lies), and the owned [`tcp::Repr`] that tests, the chaos hosts and the
//! benchmark build by hand. The HTTP types borrow the same way: a parsed
//! head is slices of the bytes it was parsed from.
//!
//! The crate covers everything the scanner and the simulated hosts put on
//! the (virtual) wire:
//!
//! * [`ipv4`] — IPv4 headers with checksumming (no options, like ZMap emits).
//! * [`tcp`] — TCP segments including the option kinds the measurement
//!   methodology manipulates (MSS, Window Scale, SACK-permitted, Timestamps).
//! * [`icmp`] — ICMPv4 Echo and Destination Unreachable / Fragmentation
//!   Needed, used by the RFC 1191 path-MTU discovery scan (paper footnote 1).
//! * [`http`] — a small, strict HTTP/1.1 request/response
//!   serializer/parser sufficient for the HTTP probe module (`GET`, `Host`,
//!   `Connection: close`, `Location` extraction from 3xx responses).
//! * [`tls`] — TLS 1.2 record and handshake framing (ClientHello,
//!   ServerHello, Certificate) plus the browser-union cipher-suite registry
//!   the paper compiles from Safari/Firefox/Chrome + censys.
//! * [`pool`] — the pooled packet-buffer arena the hot path emits into
//!   (fixed-size slabs, free-list recycling, refcounted shared packets).
//! * [`syn`] — the scanner's SYN as a pre-built datagram template, patched
//!   and checksummed per target from stored partial sums.
//!
//! Everything is `no_std`-shaped in spirit (no I/O, no globals) but uses
//! `alloc` types freely since the scanner is a host application.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod pool;
pub mod syn;
pub mod tcp;
pub mod tls;

pub use error::{Error, Result};
pub use ipv4::Ipv4Addr;
pub use pool::{BufferPool, Packet as PooledPacket, PacketBuf, PoolStats};
pub use syn::SynTemplate;

/// IP protocol numbers used by this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IpProtocol {
    /// ICMPv4 (1).
    Icmp = 1,
    /// TCP (6).
    Tcp = 6,
    /// Anything else we do not parse further.
    Unknown(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            other => IpProtocol::Unknown(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Unknown(v) => v,
        }
    }
}
