//! Property tests on the server stack: initial-flight invariants across
//! arbitrary IW policies, MSS values, OS personalities and data sizes.

use iw_hoststack::app::{App, AppResponse};
use iw_hoststack::tcb::Tcb;
use iw_hoststack::{HostConfig, HttpBehavior, HttpConfig, IwPolicy, OsProfile};
use iw_netsim::{Duration, Instant};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags, TcpOption};
use proptest::prelude::*;

const HOST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const SCAN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

struct FixedApp {
    n: usize,
}
impl App for FixedApp {
    fn on_data(&mut self, _d: &[u8]) -> Option<AppResponse> {
        Some(AppResponse::send_and_close(vec![0x41; self.n]))
    }
}

fn arb_policy() -> impl Strategy<Value = IwPolicy> {
    prop_oneof![
        (1u32..80).prop_map(IwPolicy::Segments),
        (64u32..8000).prop_map(IwPolicy::Bytes),
        (512u32..4000).prop_map(IwPolicy::MtuFill),
        Just(IwPolicy::Rfc6928),
    ]
}

fn arb_os() -> impl Strategy<Value = OsProfile> {
    prop_oneof![
        Just(OsProfile::linux()),
        Just(OsProfile::windows()),
        Just(OsProfile::embedded()),
        Just(OsProfile::bsd()),
    ]
}

fn drive_handshake(
    os: OsProfile,
    iw: IwPolicy,
    data: usize,
    announced_mss: u16,
) -> (Tcb, Vec<tcp::Repr>) {
    let syn = tcp::Repr {
        src_port: 40000,
        dst_port: 80,
        seq: 1000,
        ack: 0,
        flags: Flags::SYN,
        window: 65535,
        options: vec![TcpOption::Mss(announced_mss)],
        payload: vec![],
    };
    let (mut tcb, _) = Tcb::accept(
        HOST,
        SCAN,
        80,
        40000,
        &os,
        iw,
        Box::new(FixedApp { n: data }),
        &syn,
        5000,
        Instant::ZERO,
        &mut |_synack| {},
    );
    let req = tcp::Repr {
        src_port: 40000,
        dst_port: 80,
        seq: 1001,
        ack: 5001,
        flags: Flags::ACK | Flags::PSH,
        window: 65535,
        options: vec![],
        payload: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
    };
    let mut flight = Vec::new();
    tcb.on_segment(&req, Instant::ZERO + Duration::from_millis(1), &mut |seg| {
        flight.push(tcp::Repr::from(seg))
    });
    (tcb, flight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The initial flight never exceeds the configured IW in bytes, and
    /// exactly fills it when enough data is available.
    #[test]
    fn initial_flight_respects_iw(
        os in arb_os(),
        iw in arb_policy(),
        data in 0usize..60_000,
        mss in prop_oneof![Just(64u16), Just(128u16), Just(536u16), Just(1460u16)],
    ) {
        let effective = os.effective_mss(Some(mss));
        let cwnd = iw.initial_cwnd(effective) as usize;
        let (_tcb, flight) = drive_handshake(os, iw, data, mss);
        let flight_bytes: usize = flight.iter().map(|s| s.payload.len()).sum();
        prop_assert!(flight_bytes <= cwnd, "flight {flight_bytes} > cwnd {cwnd}");
        prop_assert_eq!(flight_bytes, data.min(cwnd));
        // No data segment exceeds the effective MSS.
        for seg in &flight {
            prop_assert!(seg.payload.len() <= effective as usize);
        }
    }

    /// FIN appears in the initial flight iff the whole response fits in
    /// the initial window (the §3.2 exhaustion signal).
    #[test]
    fn fin_iff_data_fits(
        iw in arb_policy(),
        data in 1usize..20_000,
    ) {
        let os = OsProfile::linux();
        let cwnd = iw.initial_cwnd(os.effective_mss(Some(64))) as usize;
        let (_tcb, flight) = drive_handshake(os, iw, data, 64);
        let fin_in_flight = flight.iter().any(|s| s.flags.contains(Flags::FIN));
        prop_assert_eq!(fin_in_flight, data <= cwnd,
            "data {} cwnd {} fin {}", data, cwnd, fin_in_flight);
    }

    /// The flight's sequence numbers are contiguous from the ISS+1.
    #[test]
    fn flight_is_contiguous(
        iw in arb_policy(),
        data in 1usize..30_000,
    ) {
        let (_tcb, flight) = drive_handshake(OsProfile::linux(), iw, data, 64);
        let mut expected = 5001u32;
        for seg in &flight {
            prop_assert_eq!(seg.seq, expected);
            expected = expected.wrapping_add(seg.payload.len() as u32);
        }
    }

    /// The RTO always retransmits exactly the first unacked segment with
    /// identical payload, whatever the configuration.
    #[test]
    fn rto_retransmits_first_segment(
        iw in arb_policy(),
        data in 100usize..30_000,
    ) {
        let (mut tcb, flight) = drive_handshake(OsProfile::linux(), iw, data, 64);
        prop_assume!(!flight.is_empty());
        let mut tx = Vec::new();
        tcb.on_timer(Instant::ZERO + Duration::from_secs(2), &mut |seg| {
            tx.push(tcp::Repr::from(seg))
        });
        prop_assert_eq!(tx.len(), 1);
        prop_assert_eq!(tx[0].seq, flight[0].seq);
        prop_assert_eq!(&tx[0].payload, &flight[0].payload);
    }

    /// effective_mss is monotone in the peer's advertisement and never
    /// below the OS floor.
    #[test]
    fn effective_mss_monotone(os in arb_os(), a in 1u16..6000, b in 1u16..6000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(os.effective_mss(Some(lo)) <= os.effective_mss(Some(hi)));
        prop_assert!(os.effective_mss(Some(lo)) >= os.min_mss.min(536));
    }

    /// Host configs from the population builder always parse/serve:
    /// simple sanity that any policy yields a positive segment count.
    #[test]
    fn policies_always_admit_progress(iw in arb_policy(), mss in 1u32..9000) {
        prop_assert!(iw.initial_cwnd(mss) >= mss);
        prop_assert!(iw.initial_segments(mss) >= 1);
    }
}

#[test]
fn http_direct_host_end_to_end_segments() {
    // Deterministic cross-check of the property: IW 7 at MSS 64 with a
    // big page yields exactly 7 segments of 64 bytes.
    let mut host = HostConfig::simple_web(10_000);
    host.iw = IwPolicy::Segments(7);
    let _ = HttpConfig {
        behavior: HttpBehavior::Direct {
            root_size: 10_000,
            echo_404: true,
        },
        server_header: "x".into(),
        vhost_iw: Vec::new(),
    };
    let (_tcb, flight) = drive_handshake(OsProfile::linux(), IwPolicy::Segments(7), 10_000, 64);
    assert_eq!(flight.len(), 7);
    assert!(flight.iter().all(|s| s.payload.len() == 64));
}
