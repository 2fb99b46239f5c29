//! IPv4 addresses and headers.
//!
//! The scanner emits headers without options (IHL = 5) exactly like ZMap;
//! the parser tolerates options on inbound packets but does not interpret
//! them.

use crate::checksum::{self, Checksum};
use crate::{BufferPool, Error, IpProtocol, PooledPacket, Result};
use core::fmt;

/// An IPv4 address.
///
/// A local mirror of `std::net::Ipv4Addr` with the arithmetic the scanner
/// needs (index ↔ address mapping over the scan space, prefix containment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Build from dotted-quad components.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Build from a host-order `u32` (the numeric value of the address).
    pub const fn from_u32(v: u32) -> Self {
        Ipv4Addr(v)
    }

    /// The numeric (host-order) value of the address.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// Network-order octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Parse from four network-order octets.
    pub const fn from_octets(o: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(o))
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Self::from_octets(o)
    }
}

/// A CIDR prefix, e.g. `10.0.0.0/8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Cidr {
    /// Construct a prefix; the address is masked to the prefix length.
    ///
    /// # Panics
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length out of range");
        Cidr {
            addr: Ipv4Addr::from_u32(addr.to_u32() & Self::mask(prefix_len)),
            prefix_len,
        }
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// The (masked) network address.
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// First address of the prefix as a `u32`.
    pub fn first(&self) -> u32 {
        self.addr.to_u32()
    }

    /// Last address of the prefix as a `u32`.
    pub fn last(&self) -> u32 {
        self.addr.to_u32() | !Self::mask(self.prefix_len)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        ip.to_u32() & Self::mask(self.prefix_len) == self.addr.to_u32()
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;

mod field {
    use core::ops::Range;
    pub const VER_IHL: usize = 0;
    pub const DSCP_ECN: usize = 1;
    pub const LENGTH: Range<usize> = 2..4;
    pub const IDENT: Range<usize> = 4..6;
    pub const FLG_OFF: Range<usize> = 6..8;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: Range<usize> = 10..12;
    pub const SRC_ADDR: Range<usize> = 12..16;
    pub const DST_ADDR: Range<usize> = 16..20;
}

/// Read a big-endian `u16` from the first two bytes of a field slice
/// (length already validated by `check_len`).
fn be16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

/// Copy the first four bytes of a (validated) address field slice.
fn octets4(b: &[u8]) -> [u8; 4] {
    [b[0], b[1], b[2], b[3]]
}

/// A read/write view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without any checks.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap a buffer, validating length fields.
    ///
    /// Ensures the fixed header is present, the version is 4, IHL is sane,
    /// and the total-length field fits inside the buffer.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Self::new_unchecked(buffer);
        packet.check_len()?;
        Ok(packet)
    }

    fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Version);
        }
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        let total_len = self.total_len() as usize;
        if total_len < header_len || data.len() < total_len {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consume the view and return the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// IP version field.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VER_IHL] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[field::VER_IHL] & 0x0f) * 4
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::LENGTH])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::IDENT])
    }

    /// Don't Fragment flag.
    pub fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[field::FLG_OFF.start] & 0x40 != 0
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[field::TTL]
    }

    /// Layer-4 protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from(self.buffer.as_ref()[field::PROTOCOL])
    }

    /// Header checksum field.
    pub fn header_checksum(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::CHECKSUM])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from_octets(octets4(&self.buffer.as_ref()[field::SRC_ADDR]))
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from_octets(octets4(&self.buffer.as_ref()[field::DST_ADDR]))
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let data = self.buffer.as_ref();
        checksum::checksum(&data[..self.header_len() as usize]) == 0
    }

    /// The layer-4 payload as declared by total-length.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        &data[self.header_len() as usize..self.total_len() as usize]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version and IHL (header length in bytes, must be multiple of 4).
    pub fn set_version_header_len(&mut self, header_len: u8) {
        debug_assert!(header_len.is_multiple_of(4) && header_len >= 20);
        self.buffer.as_mut()[field::VER_IHL] = 0x40 | (header_len / 4);
    }

    /// Zero the DSCP/ECN byte.
    pub fn set_dscp_ecn(&mut self, v: u8) {
        self.buffer.as_mut()[field::DSCP_ECN] = v;
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.buffer.as_mut()[field::LENGTH].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, v: u16) {
        self.buffer.as_mut()[field::IDENT].copy_from_slice(&v.to_be_bytes());
    }

    /// Set flags/fragment-offset; `dont_frag` is the only flag we emit.
    pub fn set_flags(&mut self, dont_frag: bool) {
        let v: u16 = if dont_frag { 0x4000 } else { 0 };
        self.buffer.as_mut()[field::FLG_OFF].copy_from_slice(&v.to_be_bytes());
    }

    /// Set TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[field::TTL] = ttl;
    }

    /// Set the layer-4 protocol.
    pub fn set_protocol(&mut self, proto: IpProtocol) {
        self.buffer.as_mut()[field::PROTOCOL] = proto.into();
    }

    /// Set the source address.
    pub fn set_src_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::SRC_ADDR].copy_from_slice(&addr.octets());
    }

    /// Set the destination address.
    pub fn set_dst_addr(&mut self, addr: Ipv4Addr) {
        self.buffer.as_mut()[field::DST_ADDR].copy_from_slice(&addr.octets());
    }

    /// Store a header checksum computed elsewhere.
    pub fn set_header_checksum(&mut self, sum: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Compute and store the header checksum (over the header only).
    pub fn fill_checksum(&mut self) {
        self.set_header_checksum(0);
        let sum = {
            let data = self.buffer.as_ref();
            let hlen = (data[field::VER_IHL] & 0x0f) as usize * 4;
            checksum::checksum(&data[..hlen])
        };
        self.set_header_checksum(sum);
    }

    /// Mutable access to the payload region.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hlen = (self.buffer.as_ref()[field::VER_IHL] & 0x0f) as usize * 4;
        let tlen = be16(&self.buffer.as_ref()[field::LENGTH]) as usize;
        &mut self.buffer.as_mut()[hlen..tlen]
    }
}

/// High-level representation of an IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Layer-4 protocol.
    pub protocol: IpProtocol,
    /// Payload length in bytes (excluding the IPv4 header).
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
}

impl Repr {
    /// Parse a representation out of a checked packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_checksum() {
            return Err(Error::Checksum);
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - packet.header_len() as usize,
            ttl: packet.ttl(),
        })
    }

    /// Length of the emitted header.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit this header into the front of `packet`'s buffer and fill the
    /// checksum. The buffer must be at least `HEADER_LEN + payload_len`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>, ident: u16) {
        packet.set_version_header_len(HEADER_LEN as u8);
        packet.set_dscp_ecn(0);
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(ident);
        packet.set_flags(true);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

/// Convenience: build a full IPv4 datagram around a layer-4 payload.
pub fn build_datagram(repr: &Repr, ident: u16, l4: &[u8]) -> Vec<u8> {
    debug_assert_eq!(repr.payload_len, l4.len());
    let mut buf = Vec::with_capacity(HEADER_LEN + l4.len());
    build_datagram_into(repr, ident, &mut buf, |payload| {
        payload.copy_from_slice(l4);
    });
    buf
}

/// Build a full IPv4 datagram in place — the pooled, allocation-free
/// variant of [`build_datagram`]. `buf` is zero-extended to the full
/// datagram length (it should arrive empty), `fill` writes the
/// `repr.payload_len` layer-4 bytes directly into the buffer, and the
/// header is emitted around them.
pub fn build_datagram_into(
    repr: &Repr,
    ident: u16,
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut [u8]),
) {
    let start = buf.len();
    buf.resize(start + HEADER_LEN + repr.payload_len, 0);
    let datagram = &mut buf[start..];
    fill(&mut datagram[HEADER_LEN..]);
    let mut packet = Packet::new_unchecked(datagram);
    repr.emit(&mut packet, ident);
}

/// [`build_datagram_into`] a slab of `pool` sized to the datagram, with
/// the sender's IP identification counter, which it steps: what the
/// TCP and ICMP `datagram` builders share.
pub(crate) fn pooled_datagram(
    repr: &Repr,
    ident: &mut u16,
    pool: &BufferPool,
    fill: impl FnOnce(&mut [u8]),
) -> PooledPacket {
    let mut buf = pool.take_for(HEADER_LEN + repr.payload_len);
    build_datagram_into(repr, *ident, &mut buf, fill);
    *ident = ident.wrapping_add(1);
    buf.freeze()
}

/// Compute the TCP/ICMP payload checksum helper used by sibling modules.
pub(crate) fn l4_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, l4: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_pseudo_header(src, dst, proto, l4.len() as u16);
    c.add_bytes(l4);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            src_addr: Ipv4Addr::new(192, 0, 2, 1),
            dst_addr: Ipv4Addr::new(198, 51, 100, 7),
            protocol: IpProtocol::Tcp,
            payload_len: 4,
            ttl: 64,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let buf = build_datagram(&repr, 0x1234, &[1, 2, 3, 4]);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(packet.ident(), 0x1234);
        assert!(packet.dont_frag());
        let parsed = Repr::parse(&packet).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(packet.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn rejects_truncated() {
        let repr = sample_repr();
        let buf = build_datagram(&repr, 1, &[1, 2, 3, 4]);
        assert_eq!(
            Packet::new_checked(&buf[..10]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn rejects_wrong_version() {
        let repr = sample_repr();
        let mut buf = build_datagram(&repr, 1, &[1, 2, 3, 4]);
        buf[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Version);
    }

    #[test]
    fn rejects_bad_total_len() {
        let repr = sample_repr();
        let mut buf = build_datagram(&repr, 1, &[1, 2, 3, 4]);
        buf[2] = 0xff;
        buf[3] = 0xff; // total length larger than buffer
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let repr = sample_repr();
        let mut buf = build_datagram(&repr, 1, &[1, 2, 3, 4]);
        buf[8] = buf[8].wrapping_add(1); // flip TTL
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::Checksum);
    }

    #[test]
    fn addr_display_and_octets() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(a.to_string(), "10.1.2.3");
        assert_eq!(Ipv4Addr::from_octets(a.octets()), a);
        assert_eq!(a.to_u32(), 0x0a010203);
    }

    #[test]
    fn cidr_contains_and_bounds() {
        let c = Cidr::new(Ipv4Addr::new(10, 0, 0, 99), 8);
        assert_eq!(c.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert!(c.contains(Ipv4Addr::new(10, 255, 1, 2)));
        assert!(!c.contains(Ipv4Addr::new(11, 0, 0, 0)));
        assert_eq!(c.first(), 0x0a000000);
        assert_eq!(c.last(), 0x0affffff);
        assert_eq!(c.size(), 1 << 24);
        assert_eq!(c.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn cidr_zero_and_full_prefix() {
        let all = Cidr::new(Ipv4Addr::new(1, 2, 3, 4), 0);
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(all.size(), 1 << 32);
        let host = Cidr::new(Ipv4Addr::new(1, 2, 3, 4), 32);
        assert!(host.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!host.contains(Ipv4Addr::new(1, 2, 3, 5)));
        assert_eq!(host.size(), 1);
    }
}
