//! Edge cases of the inference machine's sequence bookkeeping that the
//! happy-path tests don't reach: partial overlaps, duplicate deliveries,
//! zero-window hosts, and very large flights.

use iw_core::inference::{ConnConfig, ConnOutput, InferenceConn, RawOutcome};
use iw_netsim::{Duration, Instant};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags, TcpOption};

const SRC: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn establish() -> InferenceConn {
    let cfg = ConnConfig::new(
        DST,
        SRC,
        40000,
        80,
        64,
        1000,
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
    );
    let (mut conn, _) = InferenceConn::new(cfg, Instant::ZERO);
    let synack = tcp::Repr {
        src_port: 80,
        dst_port: 40000,
        seq: 5000,
        ack: 1001,
        flags: Flags::SYN | Flags::ACK,
        window: 65535,
        options: vec![TcpOption::Mss(64)],
        payload: vec![],
    };
    conn.on_segment(&synack, Instant::ZERO);
    conn
}

fn data(offset: u32, len: usize) -> tcp::Repr {
    tcp::Repr {
        src_port: 80,
        dst_port: 40000,
        seq: 5001 + offset,
        ack: 1019,
        flags: Flags::ACK,
        window: 65535,
        options: vec![],
        payload: vec![0xbb; len],
    }
}

fn finish_with_retransmit(conn: &mut InferenceConn, n_new: u32) -> ConnOutput {
    let t = Instant::ZERO + Duration::from_secs(1);
    let out = conn.on_segment(&data(0, 64), t);
    if out.result.is_some() {
        return out;
    }
    conn.on_segment(&data(n_new * 64, 64), t)
}

#[test]
fn partially_overlapping_segment_is_not_a_retransmission() {
    // A segment covering [32, 96) after [0, 64) brings NEW bytes (64..96)
    // — it must extend the count, not end the measurement. (Servers
    // rarely emit this; middleboxes resegmenting can.)
    let mut conn = establish();
    conn.on_segment(&data(0, 64), Instant::ZERO);
    let out = conn.on_segment(&data(32, 64), Instant::ZERO);
    assert!(
        out.result.is_none(),
        "overlap with new bytes is not the end"
    );
    // Now a full retransmission of the first segment ends it.
    let out = finish_with_retransmit(&mut conn, 2);
    match out.result.expect("concluded").outcome {
        RawOutcome::Success { bytes, .. } => assert_eq!(bytes, 96, "distinct bytes"),
        RawOutcome::FewData { bytes, .. } => assert_eq!(bytes, 96),
        other => panic!("{other:?}"),
    }
}

#[test]
fn exact_duplicate_of_any_covered_segment_ends_collection() {
    // Not only the first segment: any fully covered range re-arriving is
    // a retransmission signal (the first unacked segment IS segment 0,
    // but a middle duplicate also proves the sender wrapped around).
    let mut conn = establish();
    for i in 0..5u32 {
        conn.on_segment(&data(i * 64, 64), Instant::ZERO);
    }
    let out = conn.on_segment(&data(2 * 64, 64), Instant::ZERO + Duration::from_secs(1));
    // Verification ACK goes out; connection is in Verifying.
    assert!(out.result.is_none());
    assert_eq!(out.tx.len(), 1);
    assert_eq!(out.tx[0].header.window, 128);
}

#[test]
fn huge_flight_counts_exactly() {
    // IW 64 at MSS 64 (the HTTP side peak): 64 segments, 4096 bytes.
    let mut conn = establish();
    for i in 0..64u32 {
        conn.on_segment(&data(i * 64, 64), Instant::ZERO);
    }
    let out = finish_with_retransmit(&mut conn, 64);
    match out.result.expect("done").outcome {
        RawOutcome::Success {
            segments, bytes, ..
        } => {
            assert_eq!(segments, 64);
            assert_eq!(bytes, 4096);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn variable_segment_sizes_use_observed_maximum() {
    // A host mixing 64 B and a final 40 B runt: divisor is 64.
    let mut conn = establish();
    for i in 0..6u32 {
        conn.on_segment(&data(i * 64, 64), Instant::ZERO);
    }
    conn.on_segment(&data(6 * 64, 40), Instant::ZERO);
    let t = Instant::ZERO + Duration::from_secs(1);
    conn.on_segment(&data(0, 64), t);
    let out = conn.on_segment(&data(7 * 64, 64), t);
    match out.result.expect("done").outcome {
        RawOutcome::Success {
            segments,
            bytes,
            max_seg,
            ..
        } => {
            assert_eq!(max_seg, 64);
            assert_eq!(bytes, 6 * 64 + 40);
            assert_eq!(segments, (6 * 64 + 40) / 64);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn data_before_request_ack_is_still_counted() {
    // Pathological but possible: data arriving out of order relative to
    // the handshake conclusion. The machine keys on sequence numbers
    // relative to the server ISS, not arrival order.
    let mut conn = establish();
    conn.on_segment(&data(64, 64), Instant::ZERO); // second segment first
    conn.on_segment(&data(0, 64), Instant::ZERO);
    let out = finish_with_retransmit(&mut conn, 2);
    match out.result.expect("done").outcome {
        RawOutcome::Success {
            bytes, reordered, ..
        } => {
            assert_eq!(bytes, 128);
            assert!(reordered);
        }
        RawOutcome::FewData { bytes, .. } => assert_eq!(bytes, 128),
        other => panic!("{other:?}"),
    }
}

#[test]
fn absurd_sequence_numbers_are_ignored() {
    // A segment 2^25 bytes ahead of the ISS is corruption/attack, not
    // data; it must not poison the range set or the response buffer.
    let mut conn = establish();
    conn.on_segment(&data(0, 64), Instant::ZERO);
    let mut crazy = data(0, 64);
    crazy.seq = 5001u32.wrapping_add(1 << 26);
    let out = conn.on_segment(&crazy, Instant::ZERO);
    assert!(out.result.is_none());
    let out = finish_with_retransmit(&mut conn, 1);
    match out.result.expect("done").outcome {
        RawOutcome::Success { bytes, .. } => assert_eq!(bytes, 64),
        RawOutcome::FewData { bytes, .. } => assert_eq!(bytes, 64),
        other => panic!("{other:?}"),
    }
}

#[test]
fn fin_only_host_yields_nodata_with_fin_flag() {
    let mut conn = establish();
    let fin = tcp::Repr::bare(80, 40000, 5001, 1019, Flags::FIN | Flags::ACK, 65535);
    conn.on_segment(&fin, Instant::ZERO);
    // The FIN retransmits (nothing was ACKed), still no payload.
    let out = conn.on_timer(Instant::ZERO + Duration::from_secs(20));
    match out.result.expect("done").outcome {
        RawOutcome::FewData {
            lower_bound,
            bytes,
            fin_seen,
            ..
        } => {
            assert_eq!((lower_bound, bytes), (0, 0));
            assert!(fin_seen);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn second_result_is_never_produced() {
    let mut conn = establish();
    conn.on_segment(&data(0, 64), Instant::ZERO);
    let t = Instant::ZERO + Duration::from_secs(1);
    conn.on_segment(&data(0, 64), t);
    let out = conn.on_segment(&data(64, 64), t);
    assert!(out.result.is_some());
    assert!(conn.is_done());
    // Everything after the conclusion is inert.
    let late = conn.on_segment(&data(128, 64), t);
    assert!(late.result.is_none());
    assert!(late.tx.is_empty());
    let late = conn.on_timer(t + Duration::from_secs(10));
    assert!(late.result.is_none());
}
