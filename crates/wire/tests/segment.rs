//! The borrowed `tcp::Segment` against the owned `tcp::Repr`: both sit on
//! one reader and one writer, so they must emit the same bytes, parse the
//! same fields and fail with the same error.

use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags, Segment, TcpOption, HEADER_LEN};
use iw_wire::Error;

/// SplitMix64: a seeded stream, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded segment shape: with or without the MSS option (and, one time
/// in eight, SACK-permitted behind it), payload of 0..=1460 bytes.
fn arbitrary(rng: &mut Rng, payload: &mut Vec<u8>) -> (tcp::Repr, Ipv4Addr, Ipv4Addr) {
    payload.clear();
    let len = match rng.below(4) {
        0 => 0,
        1 => 64,
        _ => rng.below(1461) as usize,
    };
    payload.extend((0..len).map(|_| rng.next() as u8));
    let mut options = Vec::new();
    if rng.below(2) == 0 {
        options.push(TcpOption::Mss(rng.next() as u16));
        if rng.below(8) == 0 {
            options.push(TcpOption::SackPermitted);
        }
    }
    let repr = tcp::Repr {
        src_port: rng.next() as u16,
        dst_port: rng.next() as u16,
        seq: rng.next() as u32,
        ack: rng.next() as u32,
        flags: Flags::from_bits(rng.below(0x200) as u16),
        window: rng.next() as u16,
        options,
        payload: payload.clone(),
    };
    let src = Ipv4Addr::from_u32(rng.next() as u32);
    let dst = Ipv4Addr::from_u32(rng.next() as u32);
    (repr, src, dst)
}

fn parse_owned(bytes: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<tcp::Repr, Error> {
    let packet = tcp::Packet::new_checked(bytes)?;
    tcp::Repr::parse(&packet, src, dst)
}

fn parse_borrowed(bytes: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<tcp::Repr, Error> {
    let packet = tcp::Packet::new_checked(bytes)?;
    Segment::parse(&packet, src, dst).map(tcp::Repr::from)
}

#[test]
fn segment_emits_the_bytes_repr_emits() {
    let mut rng = Rng(0x5e9_0001);
    let mut payload = Vec::new();
    let mut borrowed = Vec::new();
    for _ in 0..120_000 {
        let (repr, src, dst) = arbitrary(&mut rng, &mut payload);
        let owned = repr.emit(src, dst);
        let seg = Segment::from(&repr);
        assert_eq!(seg.buffer_len(), repr.buffer_len());
        borrowed.clear();
        borrowed.resize(seg.buffer_len(), 0);
        seg.emit_into(src, dst, &mut borrowed);
        assert_eq!(borrowed, owned, "{repr:?}");
    }
}

#[test]
fn segment_parses_the_fields_repr_parses() {
    let mut rng = Rng(0x5e9_0002);
    let mut payload = Vec::new();
    for _ in 0..20_000 {
        let (repr, src, dst) = arbitrary(&mut rng, &mut payload);
        let bytes = repr.emit(src, dst);
        let packet = tcp::Packet::new_checked(&bytes[..]).unwrap();
        let seg = Segment::parse(&packet, src, dst).unwrap();
        let owned = tcp::Repr::parse(&packet, src, dst).unwrap();
        assert_eq!(owned, repr);
        assert_eq!(
            (seg.src_port, seg.dst_port, seg.seq, seg.ack),
            (owned.src_port, owned.dst_port, owned.seq, owned.ack)
        );
        assert_eq!((seg.flags, seg.window), (owned.flags, owned.window));
        assert_eq!(seg.mss, owned.mss());
        assert_eq!(seg.sack_permitted, owned.sack_permitted());
        assert_eq!(seg.payload, &owned.payload[..]);
        assert_eq!(seg.seq_len(), owned.seq_len());
        assert_eq!(seg, Segment::from(&owned));
    }
}

#[test]
fn the_first_mss_option_wins_and_others_are_walked_past() {
    let (src, dst) = (Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(203, 0, 113, 9));
    let repr = tcp::Repr {
        options: vec![
            TcpOption::Timestamps(1, 2),
            TcpOption::Mss(1400),
            TcpOption::Mss(9),
            TcpOption::WindowScale(7),
        ],
        ..tcp::Repr::bare(1, 2, 3, 4, Flags::SYN, 5)
    };
    let bytes = repr.emit(src, dst);
    let packet = tcp::Packet::new_checked(&bytes[..]).unwrap();
    let seg = Segment::parse(&packet, src, dst).unwrap();
    assert_eq!(seg.mss, Some(1400), "the first MSS option, as Repr::mss");
    assert!(!seg.sack_permitted);
}

#[test]
fn mutations_fail_both_parsers_with_the_same_error() {
    let mut rng = Rng(0x5e9_0003);
    let mut payload = Vec::new();
    let mut seen = [0usize; 3];
    for round in 0..20_000 {
        let (mut repr, src, dst) = arbitrary(&mut rng, &mut payload);
        let kind = rng.below(6);
        if kind >= 4 {
            // A four-byte unknown option up front for the option-walk
            // mutations to land on.
            repr.options.insert(0, TcpOption::Unknown(200, 4));
        }
        let mut bytes = repr.emit(src, dst);
        let refresh = |bytes: &mut Vec<u8>| {
            tcp::Packet::new_unchecked(&mut bytes[..]).fill_checksum(src, dst);
        };
        match kind {
            // Flipped checksum.
            0 => bytes[16] ^= 0x40,
            // Truncated header.
            1 => bytes.truncate(rng.below(HEADER_LEN as u64) as usize),
            // Data offset below 5 words.
            2 => {
                bytes[12] = (bytes[12] & 0x0f) | ((rng.below(5) as u8) << 4);
                refresh(&mut bytes);
            }
            // Data offset past the end of the segment.
            3 => {
                bytes.truncate(HEADER_LEN + rng.below(40) as usize);
                bytes[12] |= 0xf0;
            }
            // Option length 0, 1, or past the end of the options region.
            4 => {
                bytes[HEADER_LEN + 1] = [0, 1, 99][rng.below(3) as usize];
                refresh(&mut bytes);
            }
            // An option kind on the region's last byte, its length cut off.
            _ => {
                let end = usize::from(bytes[12] >> 4) * 4;
                bytes[HEADER_LEN..end].fill(1);
                bytes[end - 1] = 200;
                refresh(&mut bytes);
            }
        }
        let owned = parse_owned(&bytes, src, dst).expect_err("mutated");
        let borrowed = parse_borrowed(&bytes, src, dst).expect_err("mutated");
        assert_eq!(owned, borrowed, "round {round}");
        let slot = match owned {
            Error::Checksum => 0,
            Error::Truncated => 1,
            Error::Malformed => 2,
            other => panic!("unexpected {other:?}"),
        };
        seen[slot] += 1;
    }
    assert!(
        seen.iter().all(|n| *n > 2_000),
        "every error seen: {seen:?}"
    );
}
