//! A response written from its description at each emission puts the
//! same bytes on the wire as the response stored whole: an HTTP page
//! (head and filler) at the root, at a redirect's target and for a
//! configured virtual host, and a TLS server flight, at every MSS the
//! study meets, through the initial flight, the RTO retransmission and
//! the data later ACKs release.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use iw_hoststack::app::{App, AppResponse, Body, FILL_PATTERN};
use iw_hoststack::http_app::HttpApp;
use iw_hoststack::tcb::{Sink, Tcb};
use iw_hoststack::tls_app::TlsApp;
use iw_hoststack::{HttpBehavior, HttpConfig, IwPolicy, OsProfile, TlsBehavior, TlsConfig};
use iw_netsim::{Duration, Instant};
use iw_wire::http::{Request, ResponseBuilder};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::tls::{CipherSuite, ClientHello};
use iw_wire::BufferPool;
use std::rc::Rc;

const HOST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const SCAN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// The reference: the same application with every response stored
/// whole, as bytes, before the TCB sees it: the page's head serialized
/// by `ResponseBuilder` and its filler cycled out in full, the flight
/// built as records.
struct Materialized<A>(A);

impl<A: App> App for Materialized<A> {
    fn on_data(&mut self, data: &[u8]) -> Option<AppResponse> {
        let mut resp = self.0.on_data(data)?;
        match std::mem::replace(&mut resp.body, Body::Empty) {
            Body::Empty => {}
            Body::Page(size, config) => {
                resp.data.extend(
                    ResponseBuilder::new(200, "OK")
                        .header("Server", &config.server_header)
                        .header("Content-Type", "text/html")
                        .head_only(size as usize),
                );
                resp.data
                    .extend(FILL_PATTERN.iter().cycle().take(size as usize));
            }
            Body::Tls(flight) => resp.data.extend(flight.to_record_bytes()),
        }
        Some(resp)
    }
}

/// A connection on the host side, with what each event put on the wire.
struct Conn {
    tcb: Tcb,
    pool: BufferPool,
    ident: u16,
}

impl Conn {
    /// Datagrams one TCB event emitted, as bytes.
    fn emit(&mut self, event: impl FnOnce(&mut Tcb, &mut Sink<'_>)) -> Vec<Vec<u8>> {
        let (pool, ident) = (&self.pool, &mut self.ident);
        let mut sent = Vec::new();
        event(&mut self.tcb, &mut |tx| {
            sent.push(tx.datagram(HOST, SCAN, ident, pool).bytes().to_vec())
        });
        sent
    }
}

fn segment(seq: u32, ack: u32, flags: Flags, window: u16, payload: Vec<u8>) -> tcp::Repr {
    tcp::Repr {
        payload,
        ..tcp::Repr::bare(40000, 80, seq, ack, flags, window)
    }
}

/// The scanner's side of one exchange, fed to `app` at `mss`: every
/// event's datagrams, in order.
fn exchange(app: Box<dyn App>, mss: u16, request: &[u8]) -> Vec<Vec<Vec<u8>>> {
    let syn = tcp::Repr {
        options: vec![TcpOption::Mss(mss)],
        ..segment(1000, 0, Flags::SYN, 65535, Vec::new())
    };
    let pool = BufferPool::new();
    let mut ident = 1;
    let mut events = Vec::new();
    let mut synack = Vec::new();
    let (tcb, out) = Tcb::accept(
        HOST,
        SCAN,
        80,
        40000,
        &OsProfile::linux(),
        IwPolicy::Segments(10),
        app,
        &syn,
        5000,
        Instant::ZERO,
        &mut |tx| synack.push(tx.datagram(HOST, SCAN, &mut ident, &pool).bytes().to_vec()),
    );
    events.push(synack);
    let mut conn = Conn { tcb, pool, ident };
    let mut now = Instant::ZERO + Duration::from_millis(20);
    let seq = 1001 + request.len() as u32;
    let req = segment(1001, 5001, Flags::ACK | Flags::PSH, 65535, request.to_vec());
    events.push(conn.emit(|tcb, sink| {
        tcb.on_segment(&req, now, sink);
    }));
    // The server's RTO: its first segment again.
    let rto = out.deadline.expect("rto armed") + Duration::from_secs(2);
    let retransmitted = conn.emit(|tcb, sink| {
        tcb.on_timer(rto, sink);
    });
    assert_eq!(retransmitted.len(), 1, "the first segment, once");
    events.push(retransmitted);
    now = rto;
    // Acknowledge everything so far, first with the verification's
    // two-segment window, then wide open, until the host falls silent.
    let mut window = 2 * mss;
    for _ in 0..40 {
        now += Duration::from_millis(10);
        let acked = events
            .iter()
            .flatten()
            .map(|pkt| {
                let ip = iw_wire::ipv4::Packet::new_checked(&pkt[..]).expect("ipv4");
                let seg = tcp::Packet::new_checked(ip.payload()).expect("tcp");
                seg.seq_number() + seg.payload().len() as u32
            })
            .max()
            .unwrap_or(5001);
        let ack = segment(seq, acked, Flags::ACK, window, Vec::new());
        let sent = conn.emit(|tcb, sink| {
            tcb.on_segment(&ack, now, sink);
        });
        let silent = sent.is_empty();
        events.push(sent);
        if silent || conn.tcb.is_closed() {
            break;
        }
        window = 65535;
    }
    events
}

/// `min_payload`: every payload byte but the retransmission's must reach
/// it, so the ACKs drained the response past the head, across the body
/// and (TLS) across a record boundary.
fn assert_same_wire(
    app: impl Fn() -> Box<dyn App>,
    reference: impl Fn() -> Box<dyn App>,
    request: &[u8],
    min_payload: usize,
    what: &str,
) {
    for mss in [64u16, 128, 536, 1460] {
        let described = exchange(app(), mss, request);
        let stored = exchange(reference(), mss, request);
        let payload: usize = (described.iter().enumerate())
            .filter(|(event, _)| *event != 2)
            .flat_map(|(_, pkts)| pkts)
            .map(|pkt| pkt.len() - 40)
            .sum();
        assert!(
            payload >= min_payload,
            "{what} at MSS {mss}: {payload} bytes sent"
        );
        assert_eq!(described, stored, "{what} at MSS {mss}");
    }
}

/// [`assert_same_wire`] for an HTTP service answering `uri` at `host`.
fn assert_same_page(config: HttpConfig, uri: &str, host: &str, size: usize, what: &str) {
    let config = Rc::new(config);
    let request = Request::probe_get(uri, host).to_bytes();
    let c = config.clone();
    assert_same_wire(
        move || Box::new(HttpApp::new(c.clone())),
        move || Box::new(Materialized(HttpApp::new(config.clone()))),
        &request,
        size,
        what,
    );
}

#[test]
fn an_http_page_written_per_segment_is_the_stored_page() {
    let config = HttpConfig {
        behavior: HttpBehavior::Direct {
            root_size: 23_456,
            echo_404: true,
        },
        server_header: "sim/1.0".into(),
        vhost_iw: Vec::new(),
    };
    assert_same_page(config, "/", "198.51.100.1", 23_456, "HTTP page");
}

#[test]
fn a_redirect_target_written_per_segment_is_the_stored_page() {
    let config = HttpConfig {
        behavior: HttpBehavior::Redirect {
            host: "www.site-00beef.example".into(),
            path: "/index-4711.html".into(),
            target_size: 21_007,
        },
        server_header: "Apache".into(),
        vhost_iw: Vec::new(),
    };
    let (uri, host) = ("/index-4711.html", "www.site-00beef.example");
    assert_same_page(config, uri, host, 20_000, "redirect target");
}

#[test]
fn a_vhost_page_written_per_segment_is_the_stored_page() {
    let config = HttpConfig {
        behavior: HttpBehavior::NotFound {
            base_size: 300,
            echo_uri: true,
        },
        server_header: "GHost".into(),
        vhost_iw: vec![("www.customer.example".into(), IwPolicy::Segments(16))],
    };
    assert_same_page(config, "/", "www.customer.example", 12_000, "vhost page");
}

#[test]
fn a_tls_flight_written_per_segment_is_the_stored_flight() {
    // A chain past the 16 KB record boundary, with OCSP and SKE.
    let config = Rc::new(TlsConfig {
        behavior: TlsBehavior::Serve,
        cipher: CipherSuite::ECDHE_RSA_AES128_GCM,
        cert_lens: vec![1200, 0, 17_000, 986],
        ocsp_len: Some(471),
        sni_iw: Vec::new(),
    });
    let request = ClientHello::probe([3; 32], None).to_record_bytes();
    let c = config.clone();
    assert_same_wire(
        move || Box::new(TlsApp::new(c.clone())),
        move || Box::new(Materialized(TlsApp::new(config.clone()))),
        &request,
        20_000,
        "TLS flight",
    );
}
