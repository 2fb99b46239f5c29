//! Focused tests of the scan engine's receive-path discipline: cookie
//! gating, duplicate handling, late packets, list targets and filters —
//! the details that keep an Internet-facing scanner from being confused
//! by backscatter.
#![expect(
    clippy::unwrap_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use iw_core::blacklist::{CidrSet, ScanFilter};
use iw_core::cookie::CookieKey;
use iw_core::{Protocol, ScanConfig, Scanner, TargetSpec};
use iw_netsim::{Effects, Endpoint, Instant};
use iw_wire::ipv4::{Cidr, Ipv4Addr};
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::{ipv4, IpProtocol};

const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);

/// Drive the pacing timer until the scanner has emitted its SYNs (the
/// token bucket starts empty at t=0, so the first tick sends nothing).
fn kick_until_sent(scanner: &mut Scanner) -> Vec<iw_wire::pool::Packet> {
    let mut sent = Vec::new();
    let mut now = Instant::ZERO;
    let mut fx = Effects::default();
    scanner.start(now, &mut fx);
    sent.extend(fx.tx);
    for _ in 0..20 {
        now += iw_netsim::Duration::from_millis(5);
        let mut fx = Effects::default();
        scanner.on_timer(u64::MAX, now, &mut fx);
        sent.extend(fx.tx);
    }
    sent
}

fn config(protocol: Protocol) -> ScanConfig {
    let mut c = ScanConfig::study(protocol, 1 << 10, 99);
    c.rate_pps = 1_000_000;
    c
}

fn datagram_from(src: u32, seg: &tcp::Repr) -> Vec<u8> {
    let src = Ipv4Addr::from_u32(src);
    let l4 = seg.emit(src, SCANNER_IP);
    ipv4::build_datagram(
        &ipv4::Repr {
            src_addr: src,
            dst_addr: SCANNER_IP,
            protocol: IpProtocol::Tcp,
            payload_len: l4.len(),
            ttl: 64,
        },
        1,
        &l4,
    )
}

fn syn_ack(src: u32, cookie: &CookieKey, sport: u16, dport: u16) -> tcp::Repr {
    tcp::Repr {
        src_port: dport,
        dst_port: sport,
        seq: 77_000,
        ack: cookie.isn(src, sport, dport).wrapping_add(1),
        flags: Flags::SYN | Flags::ACK,
        window: 65535,
        options: vec![TcpOption::Mss(64)],
        payload: vec![],
    }
}

#[test]
fn syn_ack_with_bad_cookie_allocates_no_state() {
    let mut scanner = Scanner::new(config(Protocol::Http));
    let mut fx = Effects::default();
    // Backscatter: a SYN-ACK whose ack fails the cookie check.
    let bogus = tcp::Repr {
        src_port: 80,
        dst_port: 40000,
        seq: 1,
        ack: 0xdead_beef,
        flags: Flags::SYN | Flags::ACK,
        window: 65535,
        options: vec![],
        payload: vec![],
    };
    scanner.on_packet(&datagram_from(5, &bogus), Instant::ZERO, &mut fx);
    assert_eq!(scanner.live_sessions(), 0, "no state for invalid cookies");
    assert!(fx.tx.is_empty(), "and no reply");
}

#[test]
fn valid_syn_ack_creates_session_and_sends_request() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::Http));
    let mut fx = Effects::default();
    scanner.on_packet(
        &datagram_from(5, &syn_ack(5, &cookie, 40000, 80)),
        Instant::ZERO,
        &mut fx,
    );
    assert_eq!(scanner.live_sessions(), 1);
    assert_eq!(fx.tx.len(), 1, "ACK+request in one packet");
    let ip = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
    let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
    let repr = tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()).unwrap();
    assert!(repr.flags.contains(Flags::ACK));
    assert!(!repr.payload.is_empty(), "request payload present");
    assert_eq!(repr.ack, 77_001);
}

#[test]
fn duplicate_syn_ack_is_idempotent() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::Http));
    let pkt = datagram_from(5, &syn_ack(5, &cookie, 40000, 80));
    let mut fx1 = Effects::default();
    scanner.on_packet(&pkt, Instant::ZERO, &mut fx1);
    let mut fx2 = Effects::default();
    scanner.on_packet(&pkt, Instant::ZERO, &mut fx2);
    assert_eq!(scanner.live_sessions(), 1, "one session per host");
    assert!(
        fx2.tx.is_empty(),
        "a duplicate SYN-ACK must not replay the request"
    );
}

#[test]
fn corrupted_checksum_packets_are_dropped() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::Http));
    let mut pkt = datagram_from(5, &syn_ack(5, &cookie, 40000, 80));
    let last = pkt.len() - 1;
    pkt[last] ^= 0xff; // corrupt the TCP checksum
    let mut fx = Effects::default();
    scanner.on_packet(&pkt, Instant::ZERO, &mut fx);
    assert_eq!(scanner.live_sessions(), 0);
}

#[test]
fn packets_to_other_destinations_ignored() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::Http));
    // Right segment, wrong destination IP.
    let src = Ipv4Addr::from_u32(5);
    let seg = syn_ack(5, &cookie, 40000, 80);
    let l4 = seg.emit(src, Ipv4Addr::new(203, 0, 113, 200));
    let pkt = ipv4::build_datagram(
        &ipv4::Repr {
            src_addr: src,
            dst_addr: Ipv4Addr::new(203, 0, 113, 200),
            protocol: IpProtocol::Tcp,
            payload_len: l4.len(),
            ttl: 64,
        },
        1,
        &l4,
    );
    let mut fx = Effects::default();
    scanner.on_packet(&pkt, Instant::ZERO, &mut fx);
    assert_eq!(scanner.live_sessions(), 0);
}

#[test]
fn rst_to_syn_counts_refused() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::Http));
    let rst = tcp::Repr::bare(
        80,
        40000,
        0,
        cookie.isn(9, 40000, 80).wrapping_add(1),
        Flags::RST | Flags::ACK,
        0,
    );
    let mut fx = Effects::default();
    scanner.on_packet(&datagram_from(9, &rst), Instant::ZERO, &mut fx);
    assert_eq!(scanner.refused(), 1);
    assert_eq!(scanner.live_sessions(), 0);
}

#[test]
fn port_scan_mode_records_and_rsts() {
    let cookie = CookieKey::new(99);
    let mut scanner = Scanner::new(config(Protocol::PortScan));
    let mut fx = Effects::default();
    scanner.on_packet(
        &datagram_from(12, &syn_ack(12, &cookie, 40000, 80)),
        Instant::ZERO,
        &mut fx,
    );
    assert_eq!(scanner.open_ports(), &[12]);
    assert_eq!(scanner.live_sessions(), 0, "port scan keeps no sessions");
    assert_eq!(fx.tx.len(), 1);
    let ip = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
    let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
    assert!(seg.flags().contains(Flags::RST));
}

#[test]
fn port_scan_records_each_open_port_once() {
    use iw_core::ScanRunner;
    use iw_internet::{Population, PopulationConfig};
    use std::sync::Arc;

    // A lossy world: when the scanner's RST is dropped, the host's TCB
    // sits in SYN-RCVD and retransmits its SYN-ACK, and the stateless
    // cookie check happily validates the duplicate. The target has
    // concluded by then, so the duplicate is reset and counted, and the
    // open-ports list holds each host once without a dedup at harvest.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x5151,
        space_size: 1 << 14,
        target_responsive: 400,
        loss_scale: 3.0,
    }));
    let mut cfg = ScanConfig::study(Protocol::PortScan, pop.space_size(), 0x5151);
    cfg.rate_pps = 2_000_000;
    let out = ScanRunner::new(&pop).config(cfg).run();

    assert!(!out.open_ports.is_empty());
    assert!(
        out.open_ports.windows(2).all(|w| w[0] < w[1]),
        "open_ports must be sorted and free of duplicates"
    );
    let metrics = &out.telemetry.metrics;
    assert_eq!(
        metrics.counter("scan.synacks_validated"),
        out.open_ports.len() as u64,
        "one validated SYN-ACK per open port"
    );
    // The regression is only meaningful if duplicates actually arrived.
    assert!(
        metrics.counter("scan.late_answers") > 0,
        "expected retransmitted SYN-ACKs after the verdict"
    );
}

#[test]
fn pace_timer_backs_off_at_low_rates() {
    use iw_core::ScanRunner;
    use iw_internet::{Population, PopulationConfig};
    use std::sync::Arc;

    // At 50 pps a token arrives every 20 ms, so a scanner that re-arms a
    // fixed 5 ms pacing tick spends three wake-ups out of four recording
    // a zero grant. With the re-arm stretched to the bucket's own
    // `next_available`, tick counts collapse to ~one per packet while the
    // scan still probes every target.
    let space = 1u32 << 13;
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0xbac0,
        space_size: space,
        target_responsive: 150,
        loss_scale: 0.0,
    }));
    let mut cfg = ScanConfig::study(Protocol::Http, space, 0xbac0);
    cfg.rate_pps = 50;
    let out = ScanRunner::new(&pop).config(cfg).run();

    let sent = out.telemetry.metrics.counter("scan.targets_sent");
    assert_eq!(sent, space as u64, "back-off must not change targets_sent");

    let ticks = out.telemetry.metrics.counter("shard.pace.ticks");
    let fixed_cadence = out.duration.as_nanos() / 5_000_000; // one tick per 5 ms
    assert!(
        ticks < fixed_cadence / 2,
        "pace ticks did not drop: {ticks} ticks vs {fixed_cadence} at a fixed 5 ms cadence"
    );
    // Each wake-up should find its token waiting: ~one tick per packet,
    // plus the warm-up ticks before the bucket first fills.
    assert!(
        ticks <= sent + 16,
        "expected ~one pace tick per packet, got {ticks} for {sent} packets"
    );
}

#[test]
fn a_hardened_scan_ends_at_its_last_session_event() {
    use iw_core::{ResilienceConfig, RunControl, ScanRunner};
    use iw_internet::{Population, PopulationConfig};
    use std::sync::Arc;

    // Every session arms a 75 s watchdog. One that concludes on its own
    // cancels it, so once the last session event is logged only that
    // session's RST is left to cross its path. A watchdog left to fire
    // into a concluded session would stretch the scan to 75 s after that
    // session's start.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x1307_2017,
        space_size: 1 << 13,
        target_responsive: 200,
        loss_scale: 0.0,
    }));
    let mut cfg = ScanConfig::study(Protocol::Http, pop.space_size(), 0x1307_2017);
    cfg.rate_pps = 4_000_000;
    cfg.telemetry.record_events = true;
    cfg.resilience = ResilienceConfig::hardened();
    // Every address is watched, so the records hold every event.
    let control = RunControl {
        watch: (0..pop.space_size()).collect(),
        ..RunControl::default()
    };
    let out = ScanRunner::new(&pop).config(cfg).control(control).run();
    let records = out.telemetry.events.records();
    assert_eq!(records.len() as u64, out.telemetry.events.len());
    let last = records.iter().map(|r| r.at_nanos).max().unwrap();
    let forced = records
        .iter()
        .filter(|r| r.event == iw_core::telemetry::SessionEvent::WatchdogForced)
        .count();
    let tallied = out.telemetry.events.counts_by_name();
    assert_eq!(Some(&(forced as u64)), tallied.get("watchdog_forced"));
    println!(
        "duration {:?}, last session event at {last} ns, {forced} watchdog-forced",
        out.duration
    );
    assert!(forced > 0, "the 75 s watchdog must bound some session");
    let tail = out.duration.as_nanos() - last;
    assert!(
        tail < 1_000_000_000,
        "the scan ran {tail} ns past its last session event"
    );
}

#[test]
fn pacing_respects_blacklist_and_whitelist() {
    let mut cfg = config(Protocol::Http);
    cfg.targets = TargetSpec::FullSpace { size: 1 << 10 };
    cfg.filter = ScanFilter {
        whitelist: CidrSet::from_cidrs(&[Cidr::new(Ipv4Addr::from_u32(0), 23)]), // 0..512
        blacklist: CidrSet::from_cidrs(&[Cidr::new(Ipv4Addr::from_u32(0), 24)]), // 0..256
    };
    let mut scanner = Scanner::new(cfg);
    let mut fx = Effects::default();
    let mut now = Instant::ZERO;
    scanner.start(now, &mut fx);
    let mut sent: Vec<u32> = Vec::new();
    let mut collect = |fx: &Effects| {
        for pkt in &fx.tx {
            let ip = ipv4::Packet::new_checked(&pkt[..]).unwrap();
            sent.push(ip.dst_addr().to_u32());
        }
    };
    collect(&fx);
    for _ in 0..200 {
        now += iw_netsim::Duration::from_millis(5);
        let mut fx = Effects::default();
        scanner.on_timer(u64::MAX, now, &mut fx);
        collect(&fx);
    }
    assert_eq!(
        sent.len(),
        256,
        "whitelist minus blacklist = addresses 256..512"
    );
    assert!(sent.iter().all(|ip| (256..512).contains(ip)));
}

#[test]
fn list_targets_carry_domains_into_requests() {
    let mut cfg = config(Protocol::Http);
    cfg.targets = TargetSpec::List(vec![(42, Some("www.named-site.example".into()))]);
    let mut scanner = Scanner::new(cfg);
    let fx = kick_until_sent(&mut scanner);
    assert_eq!(fx.len(), 1, "one SYN for the single target");

    // Answer it and check the Host header of the request.
    let cookie = CookieKey::new(99);
    let mut fx2 = Effects::default();
    scanner.on_packet(
        &datagram_from(42, &syn_ack(42, &cookie, 40000, 80)),
        Instant::ZERO,
        &mut fx2,
    );
    let ip = ipv4::Packet::new_checked(&fx2.tx[0][..]).unwrap();
    let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
    let request = String::from_utf8_lossy(seg.payload()).into_owned();
    assert!(
        request.contains("Host: www.named-site.example"),
        "{request}"
    );
}

#[test]
fn tls_scan_sends_client_hello_with_sni_from_list() {
    let mut cfg = config(Protocol::Tls);
    cfg.targets = TargetSpec::List(vec![(42, Some("tls-site.example".into()))]);
    let mut scanner = Scanner::new(cfg);
    kick_until_sent(&mut scanner);
    let cookie = CookieKey::new(99);
    let mut fx2 = Effects::default();
    scanner.on_packet(
        &datagram_from(42, &syn_ack(42, &cookie, 40000, 443)),
        Instant::ZERO,
        &mut fx2,
    );
    let ip = ipv4::Packet::new_checked(&fx2.tx[0][..]).unwrap();
    let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
    let (records, _) = iw_wire::tls::record::parse_stream(seg.payload()).unwrap();
    let hello = iw_wire::tls::handshake::ClientHello::parse(records[0].payload).unwrap();
    assert_eq!(hello.server_name(), Some("tls-site.example"));
    assert_eq!(hello.cipher_suites.len(), 40);
}

#[test]
fn non_tcp_garbage_never_panics_the_scanner() {
    let mut scanner = Scanner::new(config(Protocol::Http));
    let mut fx = Effects::default();
    for junk in [vec![], vec![0u8; 3], vec![0xff; 64], {
        // Valid IPv4, unknown protocol.
        ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: Ipv4Addr::from_u32(1),
                dst_addr: SCANNER_IP,
                protocol: IpProtocol::Unknown(132),
                payload_len: 4,
                ttl: 64,
            },
            1,
            &[1, 2, 3, 4],
        )
    }] {
        scanner.on_packet(&junk, Instant::ZERO, &mut fx);
    }
    assert_eq!(scanner.live_sessions(), 0);
}

// ---------------------------------------------------------------------
// Retry FIFOs: retransmissions ride per-level queues, not per-target
// wheel timers — same packets at the same virtual instants, O(ticks)
// events.
// ---------------------------------------------------------------------

/// Scan one silent (unrouted) list target with the hardened retry budget
/// and return every SYN the scanner put on the wire as `(virtual nanos,
/// source port)`, plus the drained scanner's metrics.
fn silent_target_syns(stateless_first: bool) -> (Vec<(u64, u16)>, iw_core::telemetry::Snapshot) {
    use iw_core::ResilienceConfig;
    use iw_netsim::{Sim, SimConfig};

    let mut cfg = config(Protocol::Http);
    cfg.targets = TargetSpec::List(vec![(42, None)]);
    cfg.resilience = ResilienceConfig::hardened();
    cfg.stateless_first = stateless_first;
    let sim_config = SimConfig {
        seed: cfg.seed,
        record_trace: true,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    let syns = sim
        .trace()
        .entries()
        .iter()
        .map(|e| {
            let ip = ipv4::Packet::new_checked(&e.bytes[..]).unwrap();
            assert_eq!(ip.dst_addr().to_u32(), 42);
            let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
            assert_eq!(seg.flags(), Flags::SYN);
            (e.at.as_nanos(), seg.src_port())
        })
        .collect();
    assert_eq!(sim.scanner().retry_backlog(), 0, "queues empty at harvest");
    (syns, sim.scanner().metrics_snapshot())
}

#[test]
fn silent_target_retransmits_on_the_backoff_schedule_in_both_modes() {
    const SEC: u64 = 1_000_000_000;
    // Discovery: each attempt names itself in the source port.
    let (syns, metrics) = silent_target_syns(true);
    let t0 = syns[0].0;
    assert_eq!(
        syns,
        vec![(t0, 39000), (t0 + SEC, 39001), (t0 + 3 * SEC, 39002)]
    );
    assert_eq!(metrics.counter("scan.discovery.syns"), 1);
    assert_eq!(metrics.counter("scan.discovery.retries"), 2);
    assert_eq!(metrics.counter("scan.syn_retries"), 0);
    // Stateful: the fixed (probe 0, conn 0) port, same schedule.
    let (syns, metrics) = silent_target_syns(false);
    let t0 = syns[0].0;
    assert_eq!(
        syns,
        vec![(t0, 40000), (t0 + SEC, 40000), (t0 + 3 * SEC, 40000)]
    );
    assert_eq!(metrics.counter("scan.syn_retries"), 2);
    assert_eq!(metrics.counter("scan.discovery.retries"), 0);
}

#[test]
fn silent_space_costs_events_per_tick_not_per_target() {
    use iw_core::ResilienceConfig;
    use iw_netsim::{Sim, SimConfig};

    // 2^16 silent targets, stateless-first + hardened, at the study's
    // 150 kpps: three SYNs per target, yet the event count follows the
    // pacing ticks (one pacing event and one drain per level per tick),
    // not the ~131 k per-target timers this used to cost.
    let space = 1u32 << 16;
    let mut cfg = ScanConfig::study(Protocol::Http, space, 0x51e7);
    cfg.stateless_first = true;
    cfg.resilience = ResilienceConfig::hardened();
    let sim_config = SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();

    let stats = sim.stats();
    let metrics = sim.scanner().metrics_snapshot();
    assert_eq!(sim.scanner().targets_sent(), u64::from(space));
    assert_eq!(
        metrics.counter("scan.discovery.retries"),
        2 * u64::from(space)
    );
    assert_eq!(stats.scanner_tx, 3 * u64::from(space));
    let ticks = metrics.counter("shard.pace.ticks");
    assert!(
        stats.events <= 4 * ticks + 16,
        "{} events for {ticks} pacing ticks: retries are back on the wheel",
        stats.events
    );
    assert_eq!(sim.scanner().retry_backlog(), 0, "queues empty at harvest");
}

// ---------------------------------------------------------------------
// A silent classic target keeps no table entry while it owes SYN
// retries: an ICMP unreachable must still stop them for good.
// ---------------------------------------------------------------------

/// Answers the scanner's first SYN with an ICMP destination-unreachable
/// and, when `then_synack` is set, 200 ms later (inside the first
/// backoff) with a cookie-valid SYN-ACK as well.
struct UnreachableHost {
    ip: Ipv4Addr,
    then_synack: bool,
    syn: Option<tcp::Repr>,
}

impl UnreachableHost {
    fn send(&self, protocol: IpProtocol, l4: &[u8], fx: &mut Effects) {
        let repr = ipv4::Repr {
            src_addr: self.ip,
            dst_addr: SCANNER_IP,
            protocol,
            payload_len: l4.len(),
            ttl: 64,
        };
        fx.send(ipv4::build_datagram(&repr, 1, l4));
    }
}

impl iw_netsim::Endpoint for UnreachableHost {
    fn on_packet(&mut self, pkt: &[u8], _now: Instant, fx: &mut Effects) {
        fx.finished = false;
        let Ok(ip) = ipv4::Packet::new_checked(pkt) else {
            return;
        };
        let Ok(seg) = tcp::Packet::new_checked(ip.payload()) else {
            return;
        };
        let Ok(seg) = tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()) else {
            return;
        };
        if seg.flags == Flags::SYN && self.syn.is_none() {
            let unreachable = iw_wire::icmp::Message::DstUnreachable { code: 1 };
            self.send(IpProtocol::Icmp, &unreachable.emit(), fx);
            if self.then_synack {
                fx.arm(iw_netsim::Duration::from_millis(200), 0);
            }
            self.syn = Some(seg);
        }
    }

    fn on_timer(&mut self, _token: iw_netsim::TimerToken, _now: Instant, fx: &mut Effects) {
        fx.finished = false;
        let Some(syn) = &self.syn else {
            return;
        };
        let synack = tcp::Repr {
            options: vec![TcpOption::Mss(1460)],
            ..tcp::Repr::bare(
                syn.dst_port,
                syn.src_port,
                5000,
                syn.seq.wrapping_add(1),
                Flags::SYN | Flags::ACK,
                65535,
            )
        };
        self.send(IpProtocol::Tcp, &synack.emit(self.ip, SCANNER_IP), fx);
    }
}

#[test]
fn an_icmp_unreachable_inside_the_retry_window_ends_the_target() {
    use iw_core::ResilienceConfig;
    use iw_netsim::{LinkConfig, Sim, SimConfig};

    // 41 answers with ICMP only, 42 with ICMP and then a SYN-ACK, 43 is
    // silent: the hardened budget owes each two retries.
    let mut cfg = config(Protocol::Http);
    cfg.targets = TargetSpec::List(vec![(41, None), (42, None), (43, None)]);
    cfg.resilience = ResilienceConfig::hardened();
    let sim_config = SimConfig {
        seed: cfg.seed,
        record_trace: true,
        ..SimConfig::default()
    };
    let factory = |ip: u32| {
        let host = UnreachableHost {
            ip: Ipv4Addr::from_u32(ip),
            then_synack: ip == 42,
            syn: None,
        };
        (ip != 43).then(|| {
            let host: Box<dyn iw_netsim::Endpoint> = Box::new(host);
            (host, LinkConfig::testbed())
        })
    };
    let mut sim = Sim::new(Scanner::new(cfg), factory, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();

    let sent_to = |dst: u32| -> Vec<Flags> {
        let trace = sim.trace().entries().iter();
        trace
            .filter_map(|e| {
                let ip = ipv4::Packet::new_checked(&e.bytes[..]).unwrap();
                if (ip.src_addr(), ip.dst_addr().to_u32()) != (SCANNER_IP, dst) {
                    return None;
                }
                Some(tcp::Packet::new_checked(ip.payload()).unwrap().flags())
            })
            .collect()
    };
    // The ICMP freezes what the scanner sends the target: its first SYN,
    // no retry, and (for 42) one RST for the SYN-ACK that came after.
    assert_eq!(sent_to(41), [Flags::SYN]);
    assert_eq!(sent_to(42), [Flags::SYN, Flags::RST]);
    assert_eq!(sent_to(43), [Flags::SYN; 3], "the silent control retries");
    let scanner = sim.scanner();
    assert!(
        scanner.results().is_empty(),
        "an unreachable target mints no record"
    );
    let metrics = scanner.metrics_snapshot();
    assert_eq!(metrics.counter("scan.icmp_unreachable"), 2);
    assert_eq!(metrics.counter("scan.syn_retries"), 2);
    assert_eq!(metrics.counter("scan.late_answers"), 1);
    assert_eq!(metrics.counter("scan.sessions_started"), 0);
    assert_eq!(scanner.retry_backlog(), 0);
}

// ---------------------------------------------------------------------
// The MTU prober accepts only answers to what it sent.
// ---------------------------------------------------------------------

const MTU_TARGET: u32 = 7;

/// An MTU scanner of one list target, its first 1500-byte echo sent.
fn mtu_scanner() -> Scanner {
    let mut cfg = config(Protocol::IcmpMtu);
    cfg.targets = TargetSpec::List(vec![(MTU_TARGET, None)]);
    let mut scanner = Scanner::new(cfg);
    let sent = kick_until_sent(&mut scanner);
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].len(), 1500);
    scanner
}

/// Deliver `msg` from the MTU target; returns what the scanner sent back.
fn icmp_from_target(scanner: &mut Scanner, msg: iw_wire::icmp::Message) -> Vec<usize> {
    let l4 = msg.emit();
    let repr = ipv4::Repr {
        src_addr: Ipv4Addr::from_u32(MTU_TARGET),
        dst_addr: SCANNER_IP,
        protocol: IpProtocol::Icmp,
        payload_len: l4.len(),
        ttl: 64,
    };
    let mut fx = Effects::default();
    let at = Instant::ZERO + iw_netsim::Duration::from_secs(1);
    scanner.on_packet(&ipv4::build_datagram(&repr, 1, &l4), at, &mut fx);
    fx.tx.iter().map(|pkt| pkt.len()).collect()
}

/// The echo reply the target's host would send: its ident is the
/// scanner's cookie for the target.
fn echo_reply(ident: u16) -> iw_wire::icmp::Message {
    iw_wire::icmp::Message::EchoReply {
        ident,
        seq: 1,
        payload_len: 0,
    }
}

fn probe_ident() -> u16 {
    let cookie = CookieKey::new(config(Protocol::IcmpMtu).seed);
    (cookie.isn(MTU_TARGET, 0, 0) & 0xffff) as u16
}

#[test]
fn an_mtu_report_below_the_ipv4_minimum_is_ignored() {
    use iw_wire::icmp::Message::FragNeeded;
    let mut scanner = mtu_scanner();
    // Below 68 B no IPv4 link exists, and below 28 B the echo's own
    // headers would not fit: no re-probe either way.
    for mtu in [20, 67] {
        assert!(icmp_from_target(&mut scanner, FragNeeded { mtu }).is_empty());
    }
    // The minimum itself re-probes at exactly that size.
    assert_eq!(icmp_from_target(&mut scanner, FragNeeded { mtu: 68 }), [68]);
    icmp_from_target(&mut scanner, echo_reply(probe_ident()));
    let want = iw_core::results::MtuResult {
        ip: MTU_TARGET,
        mtu: 68,
    };
    assert_eq!(scanner.mtu_results(), [want]);
}

#[test]
fn an_echo_reply_counts_only_with_the_probe_ident() {
    let mut scanner = mtu_scanner();
    icmp_from_target(&mut scanner, echo_reply(probe_ident().wrapping_add(1)));
    assert!(
        scanner.mtu_results().is_empty(),
        "a reply to an echo the scanner never sent"
    );
    icmp_from_target(&mut scanner, echo_reply(probe_ident()));
    let want = iw_core::results::MtuResult {
        ip: MTU_TARGET,
        mtu: 1500,
    };
    assert_eq!(scanner.mtu_results(), [want]);
}
