//! The templated SYN: one pre-built probe datagram, patched per target.
//!
//! A scan sends the same SYN to every address: only the destination, the
//! IPv4 identification, the source port and the ISN change. ZMap holds
//! line rate by building that probe once per thread and patching it per
//! target; [`SynTemplate`] is the same idea. The datagram is built once
//! through the ordinary emit path with its four variable fields zero, and
//! the ones-complement sums over everything *else* are stored. Emitting
//! copies the template, writes the four fields, adds their words to the
//! stored sums and folds with [`Checksum::finish`] — the same total and
//! the same fold a from-scratch build computes, so the bytes are
//! identical by construction. (An RFC 1624 delta on a finished checksum
//! would instead have to special-case its ±0 representations.)

use crate::checksum::Checksum;
use crate::ipv4::{self, Ipv4Addr};
use crate::{tcp, BufferPool, IpProtocol, PooledPacket};

/// A SYN datagram with destination, identification, source port and
/// sequence number left open.
#[derive(Debug, Clone)]
pub struct SynTemplate {
    /// The whole datagram; variable fields and both checksums zero.
    bytes: Vec<u8>,
    /// Sum over the IPv4 header as stored in `bytes`.
    ip_sum: Checksum,
    /// Sum over the pseudo-header (destination zero) and the segment as
    /// stored in `bytes`.
    tcp_sum: Checksum,
}

impl SynTemplate {
    /// Build the template for segments shaped like `syn` sent from `src`;
    /// `syn.src_port` and `syn.seq` are ignored (they are per-target).
    pub fn new(src: Ipv4Addr, syn: &tcp::Repr, ttl: u8) -> SynTemplate {
        let blank = tcp::Repr {
            src_port: 0,
            seq: 0,
            ..syn.clone()
        };
        let dst = Ipv4Addr::UNSPECIFIED;
        let mut bytes = Vec::new();
        ipv4::build_datagram_into(
            &ipv4::Repr {
                src_addr: src,
                dst_addr: dst,
                protocol: IpProtocol::Tcp,
                payload_len: blank.buffer_len(),
                ttl,
            },
            0,
            &mut bytes,
            |l4| blank.emit_into(src, dst, l4),
        );
        // The checksums just computed are for the blank fields; only the
        // sums without them carry over to a patched copy.
        let (header, segment) = bytes.split_at_mut(ipv4::HEADER_LEN);
        ipv4::Packet::new_unchecked(&mut *header).set_header_checksum(0);
        tcp::Packet::new_unchecked(&mut *segment).set_checksum(0);
        let mut ip_sum = Checksum::new();
        ip_sum.add_bytes(header);
        let mut tcp_sum = Checksum::new();
        tcp_sum.add_pseudo_header(src, dst, IpProtocol::Tcp.into(), segment.len() as u16);
        tcp_sum.add_bytes(segment);
        SynTemplate {
            bytes,
            ip_sum,
            tcp_sum,
        }
    }

    /// The SYN for one target, built in a slab of `pool` sized to it.
    /// Takes the sender's IP identification counter and steps it.
    pub fn datagram(
        &self,
        dst: Ipv4Addr,
        ident: &mut u16,
        sport: u16,
        isn: u32,
        pool: &BufferPool,
    ) -> PooledPacket {
        let mut buf = pool.take_for(self.bytes.len());
        self.emit_into(&mut buf, dst, *ident, sport, isn);
        *ident = ident.wrapping_add(1);
        buf.freeze()
    }

    /// Append the SYN for one target to `buf` (which should arrive
    /// empty, as for [`ipv4::build_datagram_into`]).
    pub fn emit_into(&self, buf: &mut Vec<u8>, dst: Ipv4Addr, ident: u16, sport: u16, isn: u32) {
        let start = buf.len();
        buf.extend_from_slice(&self.bytes);
        let (header, segment) = buf[start..].split_at_mut(ipv4::HEADER_LEN);

        let mut ip_sum = self.ip_sum;
        ip_sum.add_u16(ident);
        ip_sum.add_bytes(&dst.octets());
        let mut header = ipv4::Packet::new_unchecked(header);
        header.set_ident(ident);
        header.set_dst_addr(dst);
        header.set_header_checksum(ip_sum.finish());

        let mut tcp_sum = self.tcp_sum;
        tcp_sum.add_bytes(&dst.octets());
        tcp_sum.add_u16(sport);
        tcp_sum.add_bytes(&isn.to_be_bytes());
        let mut segment = tcp::Packet::new_unchecked(segment);
        segment.set_src_port(sport);
        segment.set_seq_number(isn);
        segment.set_checksum(tcp_sum.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{Flags, TcpOption};

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);

    fn syn(dport: u16, mss: u16) -> tcp::Repr {
        tcp::Repr {
            src_port: 40000,
            dst_port: dport,
            seq: 0,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options: vec![TcpOption::Mss(mss)],
            payload: Vec::new(),
        }
    }

    /// The from-scratch build the scanner used per SYN before the
    /// template (and still uses for every other segment).
    fn full_build(shape: &tcp::Repr, dst: Ipv4Addr, ident: u16, sport: u16, isn: u32) -> Vec<u8> {
        let seg = tcp::Repr {
            src_port: sport,
            seq: isn,
            ..shape.clone()
        };
        let mut buf = Vec::new();
        ipv4::build_datagram_into(
            &ipv4::Repr {
                src_addr: SRC,
                dst_addr: dst,
                protocol: IpProtocol::Tcp,
                payload_len: seg.buffer_len(),
                ttl: 64,
            },
            ident,
            &mut buf,
            |l4| seg.emit_into(SRC, dst, l4),
        );
        buf
    }

    fn templated(t: &SynTemplate, dst: Ipv4Addr, ident: u16, sport: u16, isn: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        t.emit_into(&mut buf, dst, ident, sport, isn);
        buf
    }

    fn checksums(datagram: &[u8]) -> (u16, u16) {
        let ip = ipv4::Packet::new_checked(datagram).unwrap();
        let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
        (ip.header_checksum(), seg.checksum())
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn template_equals_full_build_over_seeded_tuples() {
        let mut state = 0x1307_2017u64;
        for (dport, mss) in [(80, 64), (80, 128), (443, 64), (443, 128)] {
            let shape = syn(dport, mss);
            let t = SynTemplate::new(SRC, &shape, 64);
            assert_eq!(t.bytes.len(), 44, "what a target costs to copy");
            for _ in 0..100_000 {
                let (a, b) = (splitmix(&mut state), splitmix(&mut state));
                let dst = Ipv4Addr::from_u32(a as u32);
                let (ident, sport, isn) = ((a >> 32) as u16, (a >> 48) as u16, b as u32);
                let want = full_build(&shape, dst, ident, sport, isn);
                assert_eq!(
                    templated(&t, dst, ident, sport, isn),
                    want,
                    "dst {dst} ident {ident} sport {sport} isn {isn:#x} dport {dport} mss {mss}"
                );
                let (ip_sum, tcp_sum) = checksums(&want);
                assert!(
                    ip_sum != 0xffff && tcp_sum != 0xffff,
                    "a checksum of 0xffff needs an all-zero sum"
                );
            }
        }
    }

    /// The two ends of the fold. A field of `0x0000` is a sum that folds
    /// to `0xffff`, the −0 that an RFC 1624 delta has to special-case. A
    /// field of `0xffff` cannot occur (the sum would have to be zero, and
    /// every header starts `0x45`), so the other end is a sum of exactly
    /// `0x1_0000` after the first fold: it folds again to `0x0001`,
    /// field `0xfffe`.
    #[test]
    fn template_equals_full_build_at_both_ends_of_the_fold() {
        for (dport, mss) in [(80, 64), (80, 128), (443, 64), (443, 128)] {
            let shape = syn(dport, mss);
            let t = SynTemplate::new(SRC, &shape, 64);
            for dst in [
                Ipv4Addr::new(10, 1, 2, 3),
                Ipv4Addr::new(255, 255, 255, 255),
                Ipv4Addr::UNSPECIFIED,
            ] {
                let (sport, isn_hi) = (39_001u16, 0xdead_0000u32);
                // With the free word (ident, low half of the ISN) zero, the
                // folded sum of everything else is the complement of the field.
                let (ip0, tcp0) = checksums(&full_build(&shape, dst, 0, sport, isn_hi));
                let (ip_rest, tcp_rest) = (!ip0, !tcp0);
                for (ident, isn_lo, fields) in [
                    (0xffff - ip_rest, 0xffff - tcp_rest, (0x0000, 0x0000)),
                    (
                        ip_rest.wrapping_neg(),
                        tcp_rest.wrapping_neg(),
                        (0xfffe, 0xfffe),
                    ),
                ] {
                    let isn = isn_hi | u32::from(isn_lo);
                    let want = full_build(&shape, dst, ident, sport, isn);
                    assert_eq!(
                        checksums(&want),
                        fields,
                        "dst {dst} dport {dport} mss {mss}"
                    );
                    assert_eq!(templated(&t, dst, ident, sport, isn), want);
                }
            }
        }
    }

    #[test]
    fn emitted_syn_parses_and_verifies() {
        let shape = syn(443, 64);
        let t = SynTemplate::new(SRC, &shape, 64);
        let dst = Ipv4Addr::new(203, 0, 113, 9);
        let buf = templated(&t, dst, 7, 39_002, 0x0102_0304);
        let ip = ipv4::Packet::new_checked(&buf[..]).unwrap();
        let ip_repr = ipv4::Repr::parse(&ip).unwrap();
        assert_eq!((ip_repr.src_addr, ip_repr.dst_addr), (SRC, dst));
        let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
        let parsed = tcp::Repr::parse(&seg, SRC, dst).unwrap();
        assert_eq!(
            parsed,
            tcp::Repr {
                src_port: 39_002,
                seq: 0x0102_0304,
                ..shape
            }
        );
    }
}
