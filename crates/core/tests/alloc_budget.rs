//! The allocation budget of the packet paths, counted at the allocator.
//!
//! `wire.pool_allocs_per_packet` counts slab misses, which is how the
//! pool could call itself "amortized zero" while `freeze` made one
//! `Rc::new` per packet. This target counts what the allocator is
//! actually asked for: a silent address must cost one templated,
//! pooled SYN per transmission and no heap traffic at all, and a data
//! segment must cost none on either side of a session (segments borrow
//! from the pooled packet on receive and are written into it from the
//! send stream on transmit); what a responder still allocates is per
//! connection. The
//! same allocator keeps live bytes too, so what a responder holds at a
//! campaign's peak is a gate as well, and so is what telemetry makes a
//! silent target hold. It also tallies live blocks by size class, and the
//! HTTP campaign prints that census at its live-heap peak.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]
#![expect(
    clippy::disallowed_macros,
    reason = "each test runs on its own thread and counts its own allocations"
)]

use iw_core::cookie::CookieKey;
use iw_core::{Protocol, ResilienceConfig, ScanConfig, ScanRunner, Scanner, TelemetryConfig};
use iw_hoststack::{Host, HostConfig};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::{Duration, Effects, Endpoint, Instant, LinkConfig, Sim, SimConfig};
use iw_wire::http::Request;
use iw_wire::ipv4::{self, Ipv4Addr};
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::IpProtocol;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocator calls made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed. Signed: a block
    /// allocated elsewhere and freed here counts against it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// `LIVE` by size class, as blocks and bytes.
    static CLASSES: Cell<Census> = const { Cell::new([(0, 0); SIZE_CLASSES]) };
    /// `CLASSES` when `PEAK` was set.
    static PEAK_CLASSES: Cell<Census> = const { Cell::new([(0, 0); SIZE_CLASSES]) };
}

/// Size classes of the census: blocks of up to 16 bytes, then each power
/// of two up to 1 MiB, then larger ones.
const SIZE_CLASSES: usize = 18;

/// Live `(blocks, bytes)` per size class.
type Census = [(i64, i64); SIZE_CLASSES];

/// The class of a `size`-byte block: `size` ≤ 16 << class, or the last.
fn size_class(size: usize) -> usize {
    let bits = usize::BITS - (size.max(16) - 1).leading_zeros();
    (bits as usize - 4).min(SIZE_CLASSES - 1)
}

/// Note a block of `size` bytes coming (`sign` 1) or going (-1).
fn tally(size: usize, sign: i64) {
    let _ = CLASSES.try_with(|classes| {
        let mut census = classes.get();
        let class = &mut census[size_class(size)];
        *class = (class.0 + sign, class.1 + sign * size as i64);
        classes.set(census);
    });
}

/// The system allocator with per-thread call, byte and size-class
/// counts. `realloc` and `alloc_zeroed` keep their default bodies, which
/// go through `alloc` and `dealloc`.
struct Counting;

#[expect(
    unsafe_code,
    reason = "a `GlobalAlloc` impl cannot be written without it"
)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing to count.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        tally(layout.size(), 1);
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as i64);
            let _ = PEAK.try_with(|peak| {
                if live.get() > peak.get() {
                    peak.set(live.get());
                    snapshot_peak_classes();
                }
            });
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(layout.size(), -1);
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread holds now; the peak restarts from here.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    snapshot_peak_classes();
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

fn snapshot_peak_classes() {
    let _ = CLASSES.try_with(|classes| {
        let _ = PEAK_CLASSES.try_with(|peak| peak.set(classes.get()));
    });
}

/// The live blocks of this thread by size class, now.
fn live_classes() -> Census {
    CLASSES.with(Cell::get)
}

/// Print the live blocks by size class at the peak, above `start`.
fn print_peak_census(what: &str, start: Census) {
    let at_peak = PEAK_CLASSES.with(Cell::get);
    println!("alloc_budget: {what}: live blocks at the peak above the start, by size:");
    for (class, (peak, start)) in at_peak.iter().zip(start).enumerate() {
        let (blocks, bytes) = (peak.0 - start.0, peak.1 - start.1);
        if blocks == 0 && bytes == 0 {
            continue;
        }
        let size = match class {
            0 => "<= 16 B".to_string(),
            c if c == SIZE_CLASSES - 1 => format!("> {} KiB", 16 << (c - 1) >> 10),
            c => format!("{}-{} B", (8 << c) + 1, 16 << c),
        };
        println!("alloc_budget:   {size:>18}: {blocks:>7} blocks {bytes:>10} bytes");
    }
}

#[test]
fn silent_sweep_allocates_nothing_per_syn() {
    // 2^16 addresses, none of them routed, hardened at the study's
    // 150 kpps: three SYNs per target through the template, the pool, the
    // retry FIFOs and the kernel's fan-out.
    let space = 1u32 << 16;
    let mut cfg = ScanConfig::study(Protocol::Http, space, 0x51e7);
    cfg.resilience = ResilienceConfig::hardened();
    let sim_config = SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    // The first tick that sends warms the pool (one slab per SYN of the
    // batch) and sizes the kernel's scratch; everything after is steady
    // state.
    while sim.stats().scanner_tx == 0 {
        assert!(sim.step(), "the scan must send before it ends");
    }
    let warm = sim.stats().scanner_tx;

    let before = allocs();
    sim.run_to_completion();
    let spent = allocs() - before;

    let syns = sim.stats().scanner_tx - warm;
    assert_eq!(sim.stats().scanner_tx, 3 * u64::from(space));
    assert_eq!(Scanner::harvest(&mut sim).violations(), []);
    println!("alloc_budget: silent sweep: {spent} allocations for {syns} SYNs after warm-up");
    // What is left is neither per SYN nor per event (~260 events): a
    // drained wheel bucket keeps its buffer, so filing a timer allocates
    // only the first time a bucket is used, and a retry FIFO takes one
    // 32 KiB block per 8 192 targets it queues. Measured 121 (113 when
    // each FIFO was one ring doubling up to a backoff window); a bucket
    // that dropped its buffer at every drain cost one allocation per
    // event (321).
    assert!(
        spent <= 140,
        "{spent} allocations for {syns} SYNs: the transmit path allocates per packet again"
    );
}

#[test]
fn a_silent_target_costs_the_flight_recorder_no_allocation() {
    // The same classic sweep of a silent 2^14 space with the recorder off
    // and on. The recorder keeps nothing for a target that never answers,
    // so it adds no allocation per SYN.
    let sweep = |flight_recorder: bool| {
        let mut cfg = ScanConfig::study(Protocol::Http, 1 << 14, 0x51e7);
        cfg.telemetry.flight_recorder = flight_recorder;
        let sim_config = SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        let before = allocs();
        sim.run_to_completion();
        let spent = allocs() - before;
        assert_eq!(sim.stats().scanner_tx, 1 << 14, "one SYN per target");
        spent
    };
    let (off, on) = (sweep(false), sweep(true));
    println!("alloc_budget: silent sweep: {off} allocations without the recorder, {on} with it");
    assert!(
        on <= off + 64,
        "{on} vs {off} allocations: the recorder allocates per silent target"
    );
}

#[test]
fn a_queued_silent_target_costs_at_most_eight_bytes() {
    // A silent 2^16 space at the study's 150 kpps with the hardened
    // budget: every target waits out two backoffs in a retry FIFO, and
    // the scan holds nothing else per target. The heap it holds above the
    // start at its peak, per target queued at the backlog's peak, is what
    // a silent target costs.
    {
        let mut cfg = ScanConfig::study(Protocol::Http, 1 << 16, 0x51e7);
        cfg.resilience = ResilienceConfig::hardened();
        let sim_config = SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        // The start is the first tick that sends: it warms the packet
        // pool and the kernel's scratch, which no target holds.
        while sim.stats().scanner_tx == 0 {
            assert!(sim.step(), "the scan must send before it ends");
        }
        let before = reset_peak();
        let mut backlog = 0;
        while sim.step() {
            backlog = backlog.max(sim.scanner().retry_backlog());
        }
        let held = peak() - before;
        assert_eq!(backlog, 1 << 16, "every silent target queued at once");
        let per_target = held as f64 / backlog as f64;
        println!(
            "alloc_budget: silent sweep: peak heap {held} bytes above the start for a \
             backlog of {backlog} ({per_target:.2} per target)"
        );
        assert!(
            per_target <= 8.0,
            "{per_target:.2} bytes per queued silent target: a silent target holds more \
             than its address"
        );
    }
}

#[test]
fn a_silent_target_holds_nothing_once_its_last_syn_has_left() {
    // The same hardened silent sweep, no telemetry product on: once every
    // target has sent its three SYNs, nothing waits for anything. Only
    // the flight recorder keeps a target queued past its last retry, for
    // the give-up that makes it a casualty.
    for flight_recorder in [false, true] {
        let space = 1u64 << 14;
        let mut cfg = ScanConfig::study(Protocol::Http, space as u32, 0x51e7);
        cfg.resilience = ResilienceConfig::hardened();
        cfg.telemetry.flight_recorder = flight_recorder;
        let sim_config = SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        while sim.stats().scanner_tx < 3 * space {
            assert!(sim.step(), "the scan must send three SYNs per target");
        }
        let backlog = sim.scanner().retry_backlog();
        let owed = if flight_recorder { space as usize } else { 0 };
        assert_eq!(backlog, owed, "flight recorder {flight_recorder}");
        sim.run_to_completion();
        assert_eq!(Scanner::harvest(&mut sim).violations(), []);
    }
}

/// Peak heap above the first sending tick, per target, of a classic
/// sweep of a silent 2^16 space at the study's 150 kpps under `telemetry`
/// (the sim profiles its hot path when spans are on, as the runner's does).
fn silent_sweep_peak_per_target(telemetry: TelemetryConfig) -> f64 {
    let mut cfg = ScanConfig::study(Protocol::Http, 1 << 16, 0x51e7);
    let profile = telemetry.record_spans;
    cfg.telemetry = telemetry;
    let sim_config = SimConfig {
        seed: cfg.seed,
        profile,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    while sim.stats().scanner_tx == 0 {
        assert!(sim.step(), "the scan must send before it ends");
    }
    let before = reset_peak();
    sim.run_to_completion();
    assert_eq!(sim.stats().scanner_tx, 1 << 16, "one SYN per target");
    assert_eq!(sim.scanner().live_stamps(), 0, "a stamp outlived the scan");
    (peak() - before) as f64 / f64::from(1u32 << 16)
}

#[test]
fn a_silent_target_holds_one_stamp_across_all_products() {
    // At 150 kpps the whole space is sent within the 8 s the SYN stamps
    // live, so every target's telemetry is alive at once: what the sweep
    // holds at its peak, per target, is what telemetry makes a silent
    // target cost. Each product alone, then all three together, each
    // against its bound.
    // `(rtt, spans, flight)`, bytes per target
    let products = [
        ("rtt", (true, false, false), 29.6),
        ("spans", (false, true, false), 29.6),
        ("flight", (false, false, true), 1.0),
        ("all three", (true, true, true), 29.6),
    ];
    for (name, (record_rtt, record_spans, flight_recorder), bound) in products {
        let held = silent_sweep_peak_per_target(TelemetryConfig {
            record_rtt,
            record_spans,
            flight_recorder,
            ..TelemetryConfig::default()
        });
        println!(
            "alloc_budget: silent 2^16 sweep with {name}: peak heap {held:.1} bytes per target"
        );
        // Measured 26.9 for the rows that time the SYN's answer: the one
        // stamp table's buckets, 8 bytes plus a control byte each, the
        // 2^16 it outgrows and the 2^17 it grows into live at once. Its
        // former 12-byte robin-hood slots measured 35.8. The flight
        // recorder alone keeps nothing for a silent target: it held the
        // same 26.9 while a stamp waited to open its ring. Before the
        // stamp table, the tally and the unstored hot-path spans, the
        // four held 154.2: an event record (47.6 alone), an RTT map slot
        // (71.8), the same slot for the handshake span plus the stored
        // hot-path spans (72.0) and a flight-recorder stamp (74.8).
        assert!(
            held <= bound,
            "{name}: {held:.1} bytes per silent target, over {bound:.1}: a product holds more \
             than the one stamp"
        );
    }
}

/// An endpoint that never answers, and (when `leaky`) puts every
/// datagram's length in a fresh `Box`: the allocation a pattern rule
/// over the scanner's sources cannot see, because the kernel reaches
/// hosts only through `dyn Endpoint`.
struct Sink {
    leaky: bool,
    last_len: Box<usize>,
}

impl Endpoint for Sink {
    fn on_packet(&mut self, pkt: &[u8], _now: Instant, _fx: &mut Effects) {
        if self.leaky {
            // The needless allocation is the point (and `black_box` keeps
            // clippy from folding it into a store).
            self.last_len = std::hint::black_box(Box::new(pkt.len()));
        }
    }

    fn on_timer(&mut self, _token: iw_netsim::TimerToken, _now: Instant, _fx: &mut Effects) {}
}

#[test]
fn the_counter_sees_an_allocation_behind_dyn_endpoint() {
    // The same hardened sweep twice, every address routed to a `Sink`:
    // all that differs is one `Box::new` per delivered datagram.
    let sweep = |leaky: bool| {
        let mut cfg = ScanConfig::study(Protocol::Http, 1 << 12, 0x51e7);
        cfg.resilience = ResilienceConfig::hardened();
        let sim_config = SimConfig {
            seed: cfg.seed,
            ..SimConfig::default()
        };
        let factory = move |_ip: u32| {
            let host: Box<dyn Endpoint> = Box::new(Sink {
                leaky,
                last_len: Box::new(0),
            });
            Some((host, LinkConfig::default()))
        };
        let mut sim = Sim::new(Scanner::new(cfg), factory, sim_config);
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        let before = allocs();
        sim.run_to_completion();
        (allocs() - before, sim.stats().host_rx)
    };
    let (quiet, delivered) = sweep(false);
    let (leaky, delivered_leaky) = sweep(true);
    assert_eq!(delivered, delivered_leaky, "the sweeps are the same scan");
    assert!(
        delivered >= 3 << 12,
        "three SYNs per silent host: {delivered}"
    );
    println!(
        "alloc_budget: dyn endpoint: {quiet} allocations quiet, {leaky} leaky, \
         {delivered} datagrams delivered"
    );
    assert!(
        leaky >= quiet + delivered,
        "{leaky} vs {quiet}: the counter missed an allocation per packet behind dyn Endpoint"
    );
}

#[test]
fn http_scan_allocations_per_responder_fit_the_budget() {
    // A whole small HTTP campaign, population and harvest included. What
    // a responder costs is per connection now (TCB, application, request,
    // the head's store and a redirect's `Location`), six or more
    // connections each.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0xabc,
        space_size: 1 << 14,
        target_responsive: 256,
        loss_scale: 0.0,
    }));
    let config = ScanConfig::study(Protocol::Http, pop.space_size(), 0xabc);
    let before = allocs();
    let out = ScanRunner::new(&pop).config(config).run();
    let spent = allocs() - before;
    let reachable = out.summary.reachable;
    assert!(reachable > 100, "reachable {reachable}");
    println!(
        "alloc_budget: http scan: {spent} allocations for {reachable} responders \
         ({} per responder, {} events)",
        spent / reachable,
        out.sim_stats.events
    );
    // Measured 119 with no probe driver: a request is built from the
    // session's indices and the head's store is freed once read, so a
    // connection regrows it. 121 with a boxed driver and a formatted host
    // name per probe and the store kept across a session's connections.
    // 121 also once a host stored no page head and built only the
    // scanned port's service; 141 while it did both; 143 while each
    // session copied the scan's parameters, formatted the host's address
    // once more and grew one outcome vector per MSS; 149 while the scanner stored every response and the host
    // its filler; 191 while every drained wheel bucket dropped its buffer
    // and a timer that could no longer fire still took a slot.
    assert!(
        spent / reachable <= 120,
        "{} allocations per responder: a session copies what it could share, or the \
         session path allocates per segment again",
        spent / reachable
    );
}

#[test]
fn http_scan_peak_heap_per_responder_fits_the_budget() {
    // The campaign above: its 941 responders are all in session at once,
    // so the peak is what one live responder holds (host, TCBs, scanner
    // session, packets in flight) plus the results kept so far.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0xabc,
        space_size: 1 << 14,
        target_responsive: 256,
        loss_scale: 0.0,
    }));
    let runner =
        ScanRunner::new(&pop).config(ScanConfig::study(Protocol::Http, pop.space_size(), 0xabc));
    let start = live_classes();
    let before = reset_peak();
    let out = runner.run();
    let held = peak() - before;
    let reachable = out.summary.reachable;
    assert!(reachable > 100, "reachable {reachable}");
    let per_responder = held / reachable as i64;
    println!(
        "alloc_budget: http scan: peak heap {held} bytes above the start for {reachable} \
         responders ({per_responder} per responder)"
    );
    print_peak_census("http scan", start);
    // Measured 2 587 with the head read when it completes and its store
    // freed, and no probe driver: a live session holds no response bytes
    // but an incomplete head's. 3 041 while a session kept its reassembly
    // capacity across connections (and a boxed driver and a host name per
    // probe), with what a live responder holds outside its session
    // cut: the wheel files node indices, small datagrams take 128-byte
    // slabs, a host builds only the scanned port's service and writes its
    // page head from its config. 3 426 before that, with each live record
    // holding what it reads: shared
    // scan parameters and in-place outcomes in the session, the initial
    // RTO instead of the OS profile and 12-byte in-flight entries in the
    // TCB, fault scripts out of line in the link. 3 925 before that, with
    // neither end storing response bytes it does not read (the host
    // writes its filler into each packet, the scanner keeps only the head
    // of a first connection and drops each request once sent). 5 076
    // while both ends stored them, 5 354 while every timer stayed queued
    // until its deadline; 2 KB slabs for every datagram and a four-entry
    // table per host held 9 171.
    assert!(
        per_responder <= 2_840,
        "{per_responder} bytes per responder at the peak: response bytes, packets \
         or per-host state are stored by capacity again, or a live record holds a \
         copy of what it could share or never reads"
    );
}

#[test]
fn tls_scan_peak_heap_per_responder_fits_the_budget() {
    // A small TLS campaign, its responders all in session at once. A host
    // holds its server flight as a description and the scanner counts the
    // flight without storing it, so what a live responder holds is its
    // connection state, not its certificate chain.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x7150,
        space_size: 1 << 14,
        target_responsive: 256,
        loss_scale: 0.0,
    }));
    let runner =
        ScanRunner::new(&pop).config(ScanConfig::study(Protocol::Tls, pop.space_size(), 0x7150));
    let before = reset_peak();
    let out = runner.run();
    let held = peak() - before;
    let reachable = out.summary.reachable;
    assert!(reachable > 100, "reachable {reachable}");
    let per_responder = held / reachable as i64;
    println!(
        "alloc_budget: tls scan: peak heap {held} bytes above the start for {reachable} \
         responders ({per_responder} per responder)"
    );
    // Measured 2 898 with no probe driver and no reassembly buffer kept
    // by the session; 2 972 with both; 3 366 before the wheel, the pool and the host
    // factory held less outside the session (see the HTTP campaign
    // above); 3 881 before each live record held only what it
    // reads (see the HTTP campaign above); 7 540 while every connection's
    // flight was built as records and kept until the connection closed.
    assert!(
        per_responder <= 2_960,
        "{per_responder} bytes per responder at the peak: a server flight is stored \
         as records again"
    );
}

const SCANNER: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
const HOST: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);

/// A datagram from `src` to `dst` around `seg`.
fn datagram(src: Ipv4Addr, dst: Ipv4Addr, seg: &tcp::Repr) -> Vec<u8> {
    let l4 = seg.emit(src, dst);
    ipv4::build_datagram(
        &ipv4::Repr {
            src_addr: src,
            dst_addr: dst,
            protocol: IpProtocol::Tcp,
            payload_len: l4.len(),
            ttl: 64,
        },
        7,
        &l4,
    )
}

/// The TCP segment inside a datagram the endpoint under test emitted.
fn sent(pkt: &[u8]) -> tcp::Repr {
    let ip = ipv4::Packet::new_checked(pkt).expect("valid IPv4");
    let seg = tcp::Packet::new_checked(ip.payload()).expect("valid TCP");
    tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()).expect("valid segment")
}

/// What a shuffled ten-segment flight costs the allocator on each of two
/// connections (two probes) of one `protocol` session: SYN-ACK in,
/// request out, the flight, its retransmission (verify ACK out), the
/// released segment (RST and the next connection's SYN out). The flight
/// is 640 bytes of `0xaa`: a head that never completes.
fn reordered_flight_allocations(protocol: Protocol) -> [u64; 2] {
    let config = ScanConfig::study(protocol, 1 << 14, 0x5e55);
    let key = CookieKey::new(config.seed);
    assert_eq!(config.source, SCANNER);
    let port = protocol.port();
    let mut scanner = Scanner::new(config);
    let mut fx = Effects::default();
    let now = Instant::ZERO + Duration::from_millis(20);
    let from_host = |sport: u16, flags, seq: u32, ack: u32, payload: Vec<u8>| {
        let seg = tcp::Repr {
            payload,
            ..tcp::Repr::bare(port, sport, seq, ack, flags, 65535)
        };
        datagram(HOST, SCANNER, &seg)
    };
    // Ten 64-byte segments, every other one first: five ranges open
    // before the stragglers close them.
    let order = [1u32, 3, 5, 7, 9, 8, 0, 6, 2, 4];
    let mut spent = [0; 2];
    for (conn, sport) in [40000u16, 40002].into_iter().enumerate() {
        let isn = key.isn(HOST.to_u32(), sport, port);
        let synack = tcp::Repr {
            options: vec![TcpOption::Mss(64)],
            ..tcp::Repr::bare(
                port,
                sport,
                5000,
                isn.wrapping_add(1),
                Flags::SYN | Flags::ACK,
                65535,
            )
        };
        fx.tx.clear();
        scanner.on_packet(&datagram(HOST, SCANNER, &synack), now, &mut fx);
        let request = sent(fx.tx.last().expect("request sent"));
        assert_eq!(request.src_port, sport);
        let http = request.payload.starts_with(b"GET / HTTP/1.1\r\n");
        assert_eq!(http, protocol == Protocol::Http, "the probe's request");
        let acked = isn.wrapping_add(1 + request.payload.len() as u32);

        let flight: Vec<Vec<u8>> = order
            .iter()
            .map(|i| from_host(sport, Flags::ACK, 5001 + i * 64, acked, vec![0xaa; 64]))
            .collect();
        fx.tx.clear();
        let before = allocs();
        for pkt in &flight {
            scanner.on_packet(pkt, now, &mut fx);
        }
        spent[conn] = allocs() - before;
        assert!(fx.tx.is_empty(), "data is never acknowledged");

        let later = now + Duration::from_secs(1);
        let rtx = from_host(sport, Flags::ACK, 5001, acked, vec![0xaa; 64]);
        scanner.on_packet(&rtx, later, &mut fx);
        let verify = sent(fx.tx.last().expect("verify ACK sent"));
        assert_eq!((verify.ack, verify.window), (5001 + 640, 128));
        let released = from_host(sport, Flags::ACK, 5001 + 640, acked, vec![0xaa; 64]);
        fx.tx.clear();
        scanner.on_packet(&released, later, &mut fx);
        assert_eq!(fx.tx.len(), 2, "RST, then the next probe's SYN");
        assert!(sent(&fx.tx[0]).flags.contains(Flags::RST));
        assert_eq!(sent(&fx.tx[1]).src_port, sport + 2);
    }
    spent
}

#[test]
fn a_reordered_flight_costs_the_scanner_only_its_head_store() {
    // A connection that reads the head stores it until it completes, in a
    // store that reserves 512 bytes on its first byte and then doubles:
    // 640 bytes of a head that never completes cost 2 allocations, on
    // every connection, and the store is freed with the connection. (Grown
    // exactly and kept by the session for its next connection, it cost 10
    // on the first connection and none after.) Besides that, only the
    // range list grows, for the five ranges open at once, on the
    // session's first flight (2); the session keeps it. A connection that
    // reads nothing (TLS, HTTP's follow-up) stores nothing.
    let http = reordered_flight_allocations(Protocol::Http);
    let tls = reordered_flight_allocations(Protocol::Tls);
    println!(
        "alloc_budget: reordered flight: http {http:?}, tls {tls:?} allocations per connection"
    );
    assert!(
        http[0] <= 2 + 2 && http[1] <= 2,
        "{http:?} allocations: a data segment allocates on the scanner side beyond the \
         head store's reservation and doublings"
    );
    assert!(
        tls[0] <= 2 && tls[1] == 0,
        "{tls:?} allocations: a connection that reads nothing allocates per segment"
    );
}

#[test]
fn a_host_answers_a_probe_request_within_ten_allocations() {
    let mut host = Host::new(HOST, HostConfig::simple_web(50_000), 1);
    let mut fx = Effects::default();
    // Two connections; the first warms the packet pool and the effects
    // vectors, the second is measured from its request to its flight.
    for sport in [40000u16, 40002] {
        let syn = tcp::Repr {
            options: vec![TcpOption::Mss(64)],
            ..tcp::Repr::bare(sport, 80, 100, 0, Flags::SYN, 65535)
        };
        fx.tx.clear();
        host.on_packet(&datagram(SCANNER, HOST, &syn), Instant::ZERO, &mut fx);
        let synack = sent(&fx.tx[0]);
        let request = tcp::Repr {
            payload: Request::probe_get("/", "10.1.2.3").to_bytes(),
            ..tcp::Repr::bare(
                sport,
                80,
                101,
                synack.seq.wrapping_add(1),
                Flags::ACK | Flags::PSH,
                65535,
            )
        };
        let request = datagram(SCANNER, HOST, &request);
        fx.tx.clear();
        let before = allocs();
        host.on_packet(&request, Instant::ZERO, &mut fx);
        let spent = allocs() - before;
        assert_eq!(fx.tx.len(), 10, "the IW10 flight");
        assert!(fx.tx.iter().all(|pkt| sent(pkt).payload.len() == 64));
        println!("alloc_budget: host answer: {spent} allocations for request + flight");
        if sport != 40000 {
            // Measured 1: one growth of the in-flight queue. The page,
            // head and filler, is written into each packet, so neither
            // the response head (3 while it was stored) nor the send
            // buffer (4 while the filler was) allocates.
            assert!(
                spent <= 10,
                "{spent} allocations to answer one request: the host allocates per segment again"
            );
        }
    }
}
