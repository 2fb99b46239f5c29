//! TCP segments and the options the IW methodology manipulates.
//!
//! The scanner advertises a tiny MSS (64 B) and a large window in its SYN,
//! deliberately omits SACK-permitted (to keep server tail-loss probes off),
//! and later shrinks its window to 2·MSS for the exhaustion check — all of
//! that is plain header/option manipulation implemented here.

use crate::ipv4::{self, Ipv4Addr};
use crate::{BufferPool, Error, IpProtocol, PooledPacket, Result};
use core::fmt;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;
/// Maximum TCP header length (data offset 15).
pub const MAX_HEADER_LEN: usize = 60;

mod field {
    use core::ops::Range;
    pub const SRC_PORT: Range<usize> = 0..2;
    pub const DST_PORT: Range<usize> = 2..4;
    pub const SEQ_NUM: Range<usize> = 4..8;
    pub const ACK_NUM: Range<usize> = 8..12;
    pub const FLAGS: Range<usize> = 12..14;
    pub const WIN_SIZE: Range<usize> = 14..16;
    pub const CHECKSUM: Range<usize> = 16..18;
    pub const URGENT: Range<usize> = 18..20;
}

/// Tiny local stand-in for the `bitflags` crate (kept dependency-free).
macro_rules! bitflags_like {
    (
        $(#[$meta:meta])*
        pub struct $name:ident : $ty:ty {
            $(const $flag:ident = $value:expr;)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
        pub struct $name($ty);

        impl $name {
            $(
                #[allow(missing_docs)]
                pub const $flag: $name = $name($value);
            )+

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }
            /// Raw bits.
            pub const fn bits(self) -> $ty { self.0 }
            /// Reconstruct from raw bits (unknown bits are kept).
            pub const fn from_bits(bits: $ty) -> Self { $name(bits) }
            /// Whether every bit of `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            /// Whether any bit of `other` is set in `self`.
            pub const fn intersects(self, other: $name) -> bool {
                self.0 & other.0 != 0
            }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }
        impl core::ops::BitAnd for $name {
            type Output = $name;
            fn bitand(self, rhs: $name) -> $name { $name(self.0 & rhs.0) }
        }
    };
}

bitflags_like! {
    /// TCP flag bits (lower 9 bits of the flags/offset word).
    pub struct Flags: u16 {
        const FIN = 0x001;
        const SYN = 0x002;
        const RST = 0x004;
        const PSH = 0x008;
        const ACK = 0x010;
        const URG = 0x020;
        const ECE = 0x040;
        const CWR = 0x080;
        const NS  = 0x100;
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Flags::SYN, "SYN"),
            (Flags::FIN, "FIN"),
            (Flags::RST, "RST"),
            (Flags::PSH, "PSH"),
            (Flags::ACK, "ACK"),
            (Flags::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A parsed TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// End-of-option-list marker.
    EndOfList,
    /// Padding.
    Nop,
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// Timestamps (value, echo reply).
    Timestamps(u32, u32),
    /// Anything else: (kind, length) — contents ignored.
    Unknown(u8, u8),
}

impl TcpOption {
    /// Emitted length of this option in bytes.
    pub fn buffer_len(&self) -> usize {
        match self {
            TcpOption::EndOfList | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps(..) => 10,
            TcpOption::Unknown(_, len) => *len as usize,
        }
    }

    fn emit(&self, buf: &mut [u8]) -> usize {
        match self {
            TcpOption::EndOfList => {
                buf[0] = 0;
                1
            }
            TcpOption::Nop => {
                buf[0] = 1;
                1
            }
            TcpOption::Mss(mss) => {
                buf[0] = 2;
                buf[1] = 4;
                buf[2..4].copy_from_slice(&mss.to_be_bytes());
                4
            }
            TcpOption::WindowScale(shift) => {
                buf[0] = 3;
                buf[1] = 3;
                buf[2] = *shift;
                3
            }
            TcpOption::SackPermitted => {
                buf[0] = 4;
                buf[1] = 2;
                2
            }
            TcpOption::Timestamps(val, ecr) => {
                buf[0] = 8;
                buf[1] = 10;
                buf[2..6].copy_from_slice(&val.to_be_bytes());
                buf[6..10].copy_from_slice(&ecr.to_be_bytes());
                10
            }
            TcpOption::Unknown(kind, len) => {
                buf[0] = *kind;
                buf[1] = *len;
                *len as usize
            }
        }
    }
}

/// Iterate the options region of a TCP header, tolerant of unknown kinds.
pub struct OptionsIter<'a> {
    data: &'a [u8],
}

impl<'a> Iterator for OptionsIter<'a> {
    type Item = Result<TcpOption>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.data.is_empty() {
            return None;
        }
        let kind = self.data[0];
        match kind {
            0 => {
                self.data = &[];
                Some(Ok(TcpOption::EndOfList))
            }
            1 => {
                self.data = &self.data[1..];
                Some(Ok(TcpOption::Nop))
            }
            _ => {
                if self.data.len() < 2 {
                    self.data = &[];
                    return Some(Err(Error::Truncated));
                }
                let len = self.data[1] as usize;
                if len < 2 || len > self.data.len() {
                    self.data = &[];
                    return Some(Err(Error::Malformed));
                }
                let body = &self.data[..len];
                self.data = &self.data[len..];
                let opt = match (kind, len) {
                    (2, 4) => TcpOption::Mss(u16::from_be_bytes([body[2], body[3]])),
                    (3, 3) => TcpOption::WindowScale(body[2]),
                    (4, 2) => TcpOption::SackPermitted,
                    (8, 10) => TcpOption::Timestamps(be32(&body[2..6]), be32(&body[6..10])),
                    _ => TcpOption::Unknown(kind, len as u8),
                };
                Some(Ok(opt))
            }
        }
    }
}

/// Read a big-endian `u16` from the first two bytes of a field slice
/// (length already validated by `check_len`/the options iterator).
fn be16(b: &[u8]) -> u16 {
    u16::from_be_bytes([b[0], b[1]])
}

/// Read a big-endian `u32` from the first four bytes of a field slice.
fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// A read/write view of a TCP segment (the IPv4 payload).
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without checks.
    pub const fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap and validate lengths (fixed header present, data offset sane
    /// and inside the buffer).
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
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if data.len() < header_len {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::SRC_PORT])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::DST_PORT])
    }

    /// Sequence number.
    pub fn seq_number(&self) -> u32 {
        be32(&self.buffer.as_ref()[field::SEQ_NUM])
    }

    /// Acknowledgment number.
    pub fn ack_number(&self) -> u32 {
        be32(&self.buffer.as_ref()[field::ACK_NUM])
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[field::FLAGS.start] >> 4) * 4
    }

    /// Flag bits.
    pub fn flags(&self) -> Flags {
        let raw = be16(&self.buffer.as_ref()[field::FLAGS]);
        Flags::from_bits(raw & 0x01ff)
    }

    /// Advertised receive window (unscaled).
    pub fn window(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::WIN_SIZE])
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        be16(&self.buffer.as_ref()[field::CHECKSUM])
    }

    /// Iterate over the options region.
    pub fn options(&self) -> OptionsIter<'_> {
        let hlen = self.header_len() as usize;
        OptionsIter {
            data: &self.buffer.as_ref()[HEADER_LEN..hlen],
        }
    }

    /// Payload bytes after the header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len() as usize..]
    }

    /// Verify the checksum given the IPv4 pseudo-header addresses.
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        ipv4::l4_checksum(src, dst, 6, self.buffer.as_ref()) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::SRC_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, port: u16) {
        self.buffer.as_mut()[field::DST_PORT].copy_from_slice(&port.to_be_bytes());
    }

    /// Set sequence number.
    pub fn set_seq_number(&mut self, seq: u32) {
        self.buffer.as_mut()[field::SEQ_NUM].copy_from_slice(&seq.to_be_bytes());
    }

    /// Set acknowledgment number.
    pub fn set_ack_number(&mut self, ack: u32) {
        self.buffer.as_mut()[field::ACK_NUM].copy_from_slice(&ack.to_be_bytes());
    }

    /// Set data offset (header length in bytes) and flags together.
    pub fn set_header_len_flags(&mut self, header_len: u8, flags: Flags) {
        debug_assert!(header_len.is_multiple_of(4) && (20..=60).contains(&header_len));
        let word = (u16::from(header_len / 4) << 12) | flags.bits();
        self.buffer.as_mut()[field::FLAGS].copy_from_slice(&word.to_be_bytes());
    }

    /// Set advertised window.
    pub fn set_window(&mut self, win: u16) {
        self.buffer.as_mut()[field::WIN_SIZE].copy_from_slice(&win.to_be_bytes());
    }

    /// Zero the urgent pointer.
    pub fn set_urgent(&mut self, v: u16) {
        self.buffer.as_mut()[field::URGENT].copy_from_slice(&v.to_be_bytes());
    }

    /// Store a checksum computed elsewhere.
    pub fn set_checksum(&mut self, sum: u16) {
        self.buffer.as_mut()[field::CHECKSUM].copy_from_slice(&sum.to_be_bytes());
    }

    /// Compute and store the checksum (pseudo-header + segment).
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.set_checksum(0);
        let sum = ipv4::l4_checksum(src, dst, 6, self.buffer.as_ref());
        self.set_checksum(sum);
    }
}

/// A TCP segment whose payload is borrowed: what the engine parses out
/// of a pooled packet and what it emits from a send buffer. Of the
/// options only the two the methodology reads are kept (the MSS and
/// whether SACK was offered); [`Repr`] is the owned form that keeps them
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Segment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: u32,
    /// Flags.
    pub flags: Flags,
    /// Advertised window.
    pub window: u16,
    /// The MSS option value, if present (the first one wins).
    pub mss: Option<u16>,
    /// Whether SACK-permitted was offered.
    pub sack_permitted: bool,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Length of an options region after padding to a 4-byte boundary.
fn padded_options_len(options: impl Iterator<Item = TcpOption>) -> usize {
    let raw: usize = options.map(|o| o.buffer_len()).sum();
    (raw + 3) & !3
}

/// The one segment reader: verify the checksum, walk the options
/// (handing every real one to `each`), read the fixed header.
fn read_segment<'a, T: AsRef<[u8]>>(
    packet: &'a Packet<T>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    mut each: impl FnMut(TcpOption),
) -> Result<Segment<'a>> {
    if !packet.verify_checksum(src, dst) {
        return Err(Error::Checksum);
    }
    let mut mss = None;
    let mut sack_permitted = false;
    for opt in packet.options() {
        match opt? {
            TcpOption::EndOfList => break,
            TcpOption::Nop => {}
            o => {
                match o {
                    TcpOption::Mss(v) if mss.is_none() => mss = Some(v),
                    TcpOption::SackPermitted => sack_permitted = true,
                    _ => {}
                }
                each(o);
            }
        }
    }
    Ok(Segment {
        src_port: packet.src_port(),
        dst_port: packet.dst_port(),
        seq: packet.seq_number(),
        ack: packet.ack_number(),
        flags: packet.flags(),
        window: packet.window(),
        mss,
        sack_permitted,
        payload: packet.payload(),
    })
}

/// The one segment writer: `options` in emission order, then the
/// payload (`write_payload` fills what follows the options), then the
/// fixed header and the checksum over all of it. `buf` is zeroed and
/// exactly header + options + payload long; `seg.payload` is not read.
fn write_segment(
    seg: &Segment<'_>,
    options: impl Iterator<Item = TcpOption> + Clone,
    write_payload: impl FnOnce(&mut [u8]),
    src: Ipv4Addr,
    dst: Ipv4Addr,
    buf: &mut [u8],
) {
    let header_len = HEADER_LEN + padded_options_len(options.clone());
    debug_assert!(header_len <= MAX_HEADER_LEN, "too many TCP options");
    let mut cursor = HEADER_LEN;
    for opt in options {
        cursor += opt.emit(&mut buf[cursor..]);
    }
    // Remaining bytes up to header_len stay zero = EndOfList padding.
    write_payload(&mut buf[header_len..]);
    let mut packet = Packet::new_unchecked(buf);
    packet.set_src_port(seg.src_port);
    packet.set_dst_port(seg.dst_port);
    packet.set_seq_number(seg.seq);
    packet.set_ack_number(seg.ack);
    packet.set_header_len_flags(header_len as u8, seg.flags);
    packet.set_window(seg.window);
    packet.set_urgent(0);
    packet.fill_checksum(src, dst);
}

impl<'a> Segment<'a> {
    /// A bare segment with no options and no payload.
    pub const fn bare(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: Flags,
        window: u16,
    ) -> Self {
        Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            mss: None,
            sack_permitted: false,
            payload: &[],
        }
    }

    /// Parse a segment in place; checksum is verified against the
    /// pseudo-header. The payload stays where the packet holds it.
    pub fn parse<T: AsRef<[u8]>>(
        packet: &'a Packet<T>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<Segment<'a>> {
        read_segment(packet, src, dst, |_| {})
    }

    /// The options this segment emits: MSS, then SACK-permitted.
    fn options(&self) -> impl Iterator<Item = TcpOption> + Clone {
        let mss = self.mss.map(TcpOption::Mss);
        let sack = self.sack_permitted.then_some(TcpOption::SackPermitted);
        mss.into_iter().chain(sack)
    }

    /// Total emitted segment length.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + padded_options_len(self.options()) + self.payload.len()
    }

    /// Emit into a zeroed buffer of exactly [`Self::buffer_len`] bytes,
    /// checksummed: the pooled hot path.
    pub fn emit_into(&self, src: Ipv4Addr, dst: Ipv4Addr, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.buffer_len());
        let payload = self.payload;
        write_segment(
            self,
            self.options(),
            |out| out.copy_from_slice(payload),
            src,
            dst,
            buf,
        );
    }

    /// This segment as a whole IPv4 datagram from `src` to `dst` (TTL 64,
    /// what every endpoint here sends), built in a slab of `pool` sized
    /// to it: the payload goes from wherever it is borrowed straight
    /// into the packet. Takes the sender's IP identification counter and
    /// steps it.
    pub fn datagram(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: &mut u16,
        pool: &BufferPool,
    ) -> PooledPacket {
        let payload = self.payload;
        let header = Segment {
            payload: &[],
            ..*self
        };
        header.datagram_with(
            payload.len(),
            |out| out.copy_from_slice(payload),
            src,
            dst,
            ident,
            pool,
        )
    }

    /// [`Self::datagram`] for a payload that is written, not borrowed:
    /// `write_payload` fills the `payload_len` bytes behind the header in
    /// the pooled packet itself, so a sender that computes its bytes
    /// never stores them. `self.payload` must be empty.
    pub fn datagram_with(
        &self,
        payload_len: usize,
        write_payload: impl FnOnce(&mut [u8]),
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: &mut u16,
        pool: &BufferPool,
    ) -> PooledPacket {
        debug_assert!(
            self.payload.is_empty(),
            "the payload is written, not borrowed"
        );
        let ip = ipv4::Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: IpProtocol::Tcp,
            payload_len: self.buffer_len() + payload_len,
            ttl: 64,
        };
        ipv4::pooled_datagram(&ip, ident, pool, |l4| {
            write_segment(self, self.options(), write_payload, src, dst, l4)
        })
    }

    /// Number of sequence-space units this segment occupies
    /// (payload + 1 for SYN + 1 for FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32
            + u32::from(self.flags.contains(Flags::SYN))
            + u32::from(self.flags.contains(Flags::FIN))
    }
}

/// The owned form of a TCP segment: every option, payload in a `Vec`.
/// The value type tests, the chaos hosts and the benchmark build by hand;
/// the engine itself parses and emits [`Segment`]s, and this type reads
/// and writes through the same code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: u32,
    /// Flags.
    pub flags: Flags,
    /// Advertised window.
    pub window: u16,
    /// Options, in emission order.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl<'a> From<&'a Repr> for Segment<'a> {
    fn from(repr: &'a Repr) -> Segment<'a> {
        Segment {
            src_port: repr.src_port,
            dst_port: repr.dst_port,
            seq: repr.seq,
            ack: repr.ack,
            flags: repr.flags,
            window: repr.window,
            mss: repr.mss(),
            sack_permitted: repr.sack_permitted(),
            payload: &repr.payload,
        }
    }
}

impl From<Segment<'_>> for Repr {
    fn from(seg: Segment<'_>) -> Repr {
        Repr {
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            options: seg.options().collect(),
            payload: seg.payload.to_vec(),
        }
    }
}

impl Repr {
    /// A bare segment with no options and no payload.
    pub fn bare(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: Flags,
        window: u16,
    ) -> Self {
        Segment::bare(src_port, dst_port, seq, ack, flags, window).into()
    }

    /// Parse a segment; checksum is verified against the pseudo-header.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Repr> {
        let mut options = Vec::new();
        let seg = read_segment(packet, src, dst, |o| options.push(o))?;
        Ok(Repr {
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            options,
            payload: seg.payload.to_vec(),
        })
    }

    /// Length of the options region after padding to a 4-byte boundary.
    pub fn options_len(&self) -> usize {
        padded_options_len(self.options.iter().copied())
    }

    /// Total emitted segment length.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.options_len() + self.payload.len()
    }

    /// Emit into a fresh buffer and checksum it.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buf = vec![0u8; self.buffer_len()];
        self.emit_into(src, dst, &mut buf);
        buf
    }

    /// Emit into a zeroed buffer of exactly [`Self::buffer_len`] bytes,
    /// checksummed; [`Self::emit`] wraps this.
    pub fn emit_into(&self, src: Ipv4Addr, dst: Ipv4Addr, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.buffer_len());
        write_segment(
            &self.into(),
            self.options.iter().copied(),
            |out| out.copy_from_slice(&self.payload),
            src,
            dst,
            buf,
        );
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// Whether SACK-permitted was offered.
    pub fn sack_permitted(&self) -> bool {
        self.options
            .iter()
            .any(|o| matches!(o, TcpOption::SackPermitted))
    }

    /// Number of sequence-space units this segment occupies
    /// (payload + 1 for SYN + 1 for FIN).
    pub fn seq_len(&self) -> u32 {
        Segment::from(self).seq_len()
    }
}

/// Sequence-number arithmetic (RFC 793 modular comparison).
pub mod seq {
    /// `a < b` in sequence space.
    pub fn lt(a: u32, b: u32) -> bool {
        // Negative difference iff `a` is "behind" `b` in the 2^31 window.
        (a.wrapping_sub(b) as i32) < 0
    }

    /// `a <= b` in sequence space.
    pub fn le(a: u32, b: u32) -> bool {
        a == b || lt(a, b)
    }

    /// Forward distance from `a` to `b` (b - a, wrapping).
    pub fn dist(a: u32, b: u32) -> u32 {
        b.wrapping_sub(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

    fn syn_repr() -> Repr {
        Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 0xdeadbeef,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options: vec![TcpOption::Mss(64), TcpOption::WindowScale(7)],
            payload: Vec::new(),
        }
    }

    #[test]
    fn emit_parse_round_trip_with_options() {
        let repr = syn_repr();
        let buf = repr.emit(SRC, DST);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        let parsed = Repr::parse(&packet, SRC, DST).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(parsed.mss(), Some(64));
        assert!(!parsed.sack_permitted());
    }

    #[test]
    fn emit_parse_with_payload() {
        let mut repr = Repr::bare(1234, 443, 7, 99, Flags::ACK | Flags::PSH, 128);
        repr.payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let buf = repr.emit(SRC, DST);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        let parsed = Repr::parse(&packet, SRC, DST).unwrap();
        assert_eq!(parsed.payload, repr.payload);
        assert_eq!(parsed.flags, Flags::ACK | Flags::PSH);
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let mut repr = Repr::bare(1, 2, 3, 4, Flags::ACK, 10);
        repr.payload = vec![0x55; 32];
        let mut buf = repr.emit(SRC, DST);
        *buf.last_mut().unwrap() ^= 0xff;
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(!packet.verify_checksum(SRC, DST));
    }

    #[test]
    fn checksum_depends_on_pseudo_header() {
        // Note: swapping src/dst does NOT change the ones-complement sum
        // (addition is commutative); a genuinely different address does.
        let repr = Repr::bare(1, 2, 3, 4, Flags::ACK, 10);
        let buf = repr.emit(SRC, DST);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(DST, SRC), "swap is sum-invariant");
        assert!(!packet.verify_checksum(SRC, Ipv4Addr::new(203, 0, 113, 10)));
    }

    #[test]
    fn options_padded_to_word_boundary() {
        let repr = Repr {
            options: vec![TcpOption::SackPermitted], // 2 bytes -> pad to 4
            ..syn_repr()
        };
        assert_eq!(repr.options_len(), 4);
        let buf = repr.emit(SRC, DST);
        assert_eq!(buf.len(), HEADER_LEN + 4);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.header_len() as usize, HEADER_LEN + 4);
    }

    #[test]
    fn timestamps_round_trip() {
        let repr = Repr {
            options: vec![
                TcpOption::Timestamps(0x01020304, 0x0a0b0c0d),
                TcpOption::Nop,
            ],
            ..syn_repr()
        };
        let buf = repr.emit(SRC, DST);
        let parsed = Repr::parse(&Packet::new_checked(&buf[..]).unwrap(), SRC, DST).unwrap();
        // Nop is not preserved (it is padding), Timestamps is.
        assert!(parsed
            .options
            .contains(&TcpOption::Timestamps(0x01020304, 0x0a0b0c0d)));
    }

    #[test]
    fn unknown_option_is_skipped_not_fatal() {
        // kind 254, len 4.
        let mut repr = syn_repr();
        repr.options = vec![TcpOption::Unknown(254, 4), TcpOption::Mss(536)];
        let buf = repr.emit(SRC, DST);
        let parsed = Repr::parse(&Packet::new_checked(&buf[..]).unwrap(), SRC, DST).unwrap();
        assert_eq!(parsed.mss(), Some(536));
    }

    #[test]
    fn malformed_option_length_is_error() {
        let mut repr = syn_repr();
        repr.options = vec![TcpOption::Unknown(200, 4)];
        let mut buf = repr.emit(SRC, DST);
        buf[HEADER_LEN + 1] = 99; // length beyond region
        let packet = Packet::new_checked(&buf[..]).unwrap();
        let opts: Vec<_> = packet.options().collect();
        assert!(opts.iter().any(|o| o.is_err()));
    }

    #[test]
    fn truncated_rejected() {
        let repr = syn_repr();
        let buf = repr.emit(SRC, DST);
        assert_eq!(
            Packet::new_checked(&buf[..12]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        let mut repr = Repr::bare(1, 2, 3, 4, Flags::SYN | Flags::FIN, 10);
        repr.payload = vec![0; 5];
        assert_eq!(repr.seq_len(), 7);
    }

    #[test]
    fn seq_arithmetic_wraps() {
        assert!(seq::lt(0xffff_fff0, 0x0000_0010));
        assert!(!seq::lt(0x0000_0010, 0xffff_fff0));
        assert!(seq::le(5, 5));
        assert_eq!(seq::dist(0xffff_ffff, 1), 2);
    }

    #[test]
    fn flags_display() {
        assert_eq!((Flags::SYN | Flags::ACK).to_string(), "SYN|ACK");
        assert_eq!(Flags::empty().to_string(), "-");
    }
}
