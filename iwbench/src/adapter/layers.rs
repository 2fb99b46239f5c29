//! Micro-drivers: looped calls into each layer's public functions, one
//! row each (ports `crates/bench/benches/components.rs` and the
//! `exp_eventloop` churn scenario so they run without criterion), plus
//! A-vs-B rows whose baseline (`BinaryHeap` queue, std `HashMap`) is kept
//! here and measured in the same process.

use super::campaign::Campaign;
use super::churn;
use crate::measure::{median, ns_per_op, Metric};
use crate::spec::Workload;
use iw_analysis::tables::{Table1, Table2, Table3};
use iw_analysis::IwHistogram;
use iw_core::cookie::CookieKey;
use iw_core::inference::{ConnConfig, InferenceConn};
use iw_core::permutation::Permutation;
use iw_core::rate::TokenBucket;
use iw_core::table::IpMap;
use iw_core::testbed::{probe_host, TestbedSpec};
use iw_core::{Protocol, ScanRunner, Scanner};
use iw_hoststack::{Host, HostConfig};
use iw_internet::population::PopulationFactory;
use iw_internet::{Population, PopulationConfig};
use iw_netsim::link::Direction;
use iw_netsim::{Duration, Effects, Endpoint, HostFactory, Instant, Link, LinkConfig, TimerWheel};
use iw_telemetry::{MetricsRegistry, Scope};
use iw_wire::http::{Request, ResponseBuilder, ResponseHead};
use iw_wire::ipv4::{self, Ipv4Addr};
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::tls::ClientHello;
use iw_wire::{checksum, BufferPool, IpProtocol};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::Arc;

const SCANNER: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
const HOST: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);

fn segment(flags: Flags, seq: u32, ack: u32, payload: Vec<u8>) -> tcp::Repr {
    tcp::Repr {
        src_port: 40000,
        dst_port: 80,
        seq,
        ack,
        flags,
        window: 65535,
        options: Vec::new(),
        payload,
    }
}

fn syn() -> tcp::Repr {
    tcp::Repr {
        options: vec![TcpOption::Mss(64)],
        ..segment(Flags::SYN, 100, 0, Vec::new())
    }
}

fn wire() -> Vec<Metric> {
    let syn = syn();
    let data = segment(Flags::ACK | Flags::PSH, 101, 0, vec![0xaa; 64]).emit(SCANNER, HOST);
    let block = [0x5au8; 64];
    let response = ResponseBuilder::new(200, "OK")
        .header("Server", "nginx")
        .header("Content-Type", "text/html")
        .header("Connection", "close")
        .body(vec![b'x'; 512])
        .build();
    let pool = BufferPool::new();
    let template = [0x45u8; 40];
    vec![
        Metric::ns(
            "wire.tcp_emit_syn_ns",
            ns_per_op(|| {
                black_box(black_box(&syn).emit(SCANNER, HOST));
            }),
        ),
        Metric::ns(
            "wire.tcp_parse_data_ns",
            ns_per_op(|| {
                let packet = tcp::Packet::new_checked(black_box(&data[..])).expect("well-formed");
                black_box(tcp::Repr::parse(&packet, SCANNER, HOST).expect("well-formed"));
            }),
        ),
        Metric::ns(
            "wire.checksum_64b_ns",
            ns_per_op(|| {
                black_box(checksum::checksum(black_box(&block)));
            }),
        ),
        Metric::ns(
            "wire.http_response_parse_ns",
            ns_per_op(|| {
                black_box(ResponseHead::parse(black_box(&response)).expect("well-formed"));
            }),
        ),
        Metric::ns(
            "wire.tls_client_hello_emit_ns",
            ns_per_op(|| {
                black_box(ClientHello::probe(black_box([7; 32]), None).to_record_bytes());
            }),
        ),
        Metric::ns(
            "wire.pool_cycle_ns",
            ns_per_op(|| {
                let mut buf = pool.take();
                buf.extend_from_slice(black_box(&template));
                drop(black_box(buf.freeze()));
            }),
        ),
    ]
}

/// Timers kept pending in the queue rows, and their 1-3 s spread.
const PENDING: u64 = 100_000;

fn retry_delay(i: u64) -> u64 {
    (1_000 + i % 2_000) * 1_000_000
}

fn netsim() -> Vec<Metric> {
    // Steady state: pop the next timer, schedule another 1-3 s after it.
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    for i in 0..PENDING {
        wheel.push(Instant::from_nanos(retry_delay(i)), i, i);
    }
    let mut seq = PENDING;
    let wheel_ns = ns_per_op(|| {
        let (at, item) = wheel.pop().expect("wheel holds PENDING entries");
        wheel.push(at + Duration::from_nanos(retry_delay(seq)), seq, item);
        seq += 1;
    });

    // The pre-overhaul queue, same operations.
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    for i in 0..PENDING {
        heap.push(Reverse((retry_delay(i), i, i)));
    }
    let mut seq = PENDING;
    let heap_ns = ns_per_op(|| {
        let Reverse((at, _, item)) = heap.pop().expect("heap holds PENDING entries");
        heap.push(Reverse((at + retry_delay(seq), seq, item)));
        seq += 1;
    });

    let mut link = Link::new(
        LinkConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::from_millis(4),
            loss: 0.01,
            ..LinkConfig::default()
        },
        7,
    );
    let link_ns = ns_per_op(|| {
        black_box(link.transit(black_box(Direction::Forward)));
    });

    let churn: Vec<f64> = (0..5)
        .map(|_| {
            let (events, wall) = churn::drive(1_500);
            wall * 1e9 / events as f64
        })
        .collect();

    vec![
        Metric::ns("netsim.wheel_push_pop_ns", wheel_ns),
        Metric::ratio("netsim.wheel_vs_heap_ratio", heap_ns / wheel_ns),
        Metric::ns("netsim.link_transit_ns", link_ns),
        Metric::ns("netsim.churn_ns_per_event", median(&churn)),
    ]
}

fn datagram(seg: &tcp::Repr) -> Vec<u8> {
    let l4 = seg.emit(SCANNER, HOST);
    ipv4::build_datagram(
        &ipv4::Repr {
            src_addr: SCANNER,
            dst_addr: HOST,
            protocol: IpProtocol::Tcp,
            payload_len: l4.len(),
            ttl: 64,
        },
        7,
        &l4,
    )
}

fn server_isn(synack: &[u8]) -> u32 {
    let ip = ipv4::Packet::new_checked(synack).expect("host emits valid IPv4");
    tcp::Packet::new_checked(ip.payload())
        .expect("host emits valid TCP")
        .seq_number()
}

/// One IW10 HTTP connection served through `Host::on_packet`/`on_timer`:
/// SYN, request, the ten-segment initial flight, never ACKed, up to the
/// first RTO retransmission.
fn serve_conn(config: &HostConfig, syn: &[u8]) -> usize {
    let mut host = Host::new(HOST, config.clone(), 1);
    let mut fx = Effects::default();
    host.on_packet(syn, Instant::ZERO, &mut fx);
    let isn = server_isn(&fx.tx[0]);
    let request = segment(
        Flags::ACK | Flags::PSH,
        101,
        isn.wrapping_add(1),
        Request::probe_get("/", "198.51.100.1").to_bytes(),
    );
    let mut flight = Effects::default();
    host.on_packet(&datagram(&request), Instant::ZERO, &mut flight);
    let (delay, token) = flight
        .timers
        .last()
        .or(fx.timers.last())
        .copied()
        .expect("RTO armed");
    let mut rto = Effects::default();
    host.on_timer(token, Instant::ZERO + delay, &mut rto);
    flight.tx.len() + rto.tx.len()
}

fn hoststack() -> Vec<Metric> {
    let config = HostConfig::simple_web(50_000);
    let syn = datagram(&syn());
    assert_eq!(serve_conn(&config, &syn), 11, "IW10 flight + one RTO");
    vec![
        Metric::ns(
            "hoststack.host_new_ns",
            ns_per_op(|| {
                black_box(Host::new(HOST, black_box(&config).clone(), 1));
            }),
        ),
        Metric::us_from_ns(
            "hoststack.serve_conn_us",
            ns_per_op(|| {
                black_box(serve_conn(&config, &syn));
            }),
        ),
    ]
}

fn internet() -> Vec<Metric> {
    let config = PopulationConfig {
        seed: 7,
        space_size: 1 << 22,
        target_responsive: 60_000,
        loss_scale: 1.0,
    };
    let new_ns = ns_per_op(|| {
        black_box(Population::new(black_box(config.clone())));
    });
    let pop = Arc::new(Population::new(config));
    let (mut live, mut empty) = (Vec::new(), Vec::new());
    for ip in 0..pop.space_size() {
        if live.len() == 4096 && empty.len() == 4096 {
            break;
        }
        let side = if pop.responsive(ip) {
            &mut live
        } else {
            &mut empty
        };
        if side.len() < 4096 {
            side.push(ip);
        }
    }
    let mut i = 0;
    let config_ns = ns_per_op(|| {
        black_box(pop.host_config(live[i % live.len()]));
        i += 1;
    });
    // What the kernel pays per SYN into unrouted or unresponsive space.
    let mut factory = PopulationFactory::new(pop.clone());
    let miss_ns = ns_per_op(|| {
        black_box(factory.create(empty[i % empty.len()]).is_none());
        i += 1;
    });
    vec![
        Metric::new("internet.population_new_ms", "ms", new_ns / 1e6),
        Metric::ns("internet.host_config_ns", config_ns),
        Metric::ns("internet.cohort_miss_ns", miss_ns),
    ]
}

/// Live entries in the address-table rows (a full session table).
const TABLE_LIVE: u32 = 65_536;

fn spread(i: u32) -> u32 {
    i.wrapping_mul(0x9e37_79b1)
}

/// The inference state machine fed one IW10 connection: SYN-ACK, ten
/// segments, the retransmission and the data its ACK releases.
fn inference_conn() -> bool {
    let cfg = ConnConfig::new(
        HOST,
        SCANNER,
        40000,
        80,
        64,
        1000,
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
    );
    let (mut conn, _) = InferenceConn::new(cfg, Instant::ZERO);
    let from_host = |flags, seq, payload| tcp::Repr {
        src_port: 80,
        dst_port: 40000,
        ..segment(flags, seq, 1019, payload)
    };
    let synack = tcp::Repr {
        ack: 1001,
        options: vec![TcpOption::Mss(64)],
        ..from_host(Flags::SYN | Flags::ACK, 5000, Vec::new())
    };
    conn.on_segment(&synack, Instant::ZERO);
    for i in 0..10u32 {
        conn.on_segment(
            &from_host(Flags::ACK, 5001 + i * 64, vec![0xaa; 64]),
            Instant::ZERO,
        );
    }
    conn.on_segment(&from_host(Flags::ACK, 5001, vec![0xaa; 64]), Instant::ZERO);
    let released = from_host(Flags::ACK, 5001 + 640, vec![0xaa; 64]);
    conn.on_segment(&released, Instant::ZERO).result.is_some()
}

fn core() -> Vec<Metric> {
    let perm_new_ns = ns_per_op(|| {
        black_box(Permutation::new(1 << 32, black_box(9)));
    });
    let mut targets = Permutation::new(1 << 32, 7).iter();
    let perm_next_ns = ns_per_op(|| {
        black_box(targets.next());
    });

    let key = CookieKey::new(42);
    let mut ip = 0u32;
    let isn_ns = ns_per_op(|| {
        ip = ip.wrapping_add(1);
        black_box(key.isn(black_box(ip), 40000, 80));
    });
    let classify_ns = ns_per_op(|| {
        ip = ip.wrapping_add(1);
        black_box(key.classify_synack(black_box(ip), 39000, 80, ip));
    });

    let mut bucket = TokenBucket::new(150_000, 1_500, Instant::ZERO);
    let mut now = Instant::ZERO;
    let bucket_ns = ns_per_op(|| {
        now += Duration::from_micros(100);
        black_box(bucket.take(now, 15));
    });

    // Steady state of a full table: admit one address, look one up, retire
    // the oldest.
    let mut ipmap: IpMap<u32> = IpMap::new();
    for i in 0..TABLE_LIVE {
        ipmap.insert(spread(i), i);
    }
    let mut head = TABLE_LIVE;
    let ipmap_ns = ns_per_op(|| {
        ipmap.insert(spread(head), head);
        black_box(ipmap.get(spread(head - TABLE_LIVE / 2)));
        black_box(ipmap.remove(spread(head - TABLE_LIVE)));
        head = head.wrapping_add(1);
    });
    let mut hashmap: HashMap<u32, u32> = HashMap::new();
    for i in 0..TABLE_LIVE {
        hashmap.insert(spread(i), i);
    }
    let mut head = TABLE_LIVE;
    let hashmap_ns = ns_per_op(|| {
        hashmap.insert(spread(head), head);
        black_box(hashmap.get(&spread(head - TABLE_LIVE / 2)));
        black_box(hashmap.remove(&spread(head - TABLE_LIVE)));
        head = head.wrapping_add(1);
    });

    assert!(inference_conn(), "IW10 connection must conclude");
    let inference_ns = ns_per_op(|| {
        black_box(inference_conn());
    });
    let testbed = TestbedSpec::new(HostConfig::simple_web(50_000), Protocol::Http);
    let probe_ns = ns_per_op(|| {
        black_box(probe_host(black_box(&testbed)).0);
    });

    vec![
        Metric::us_from_ns("core.permutation_new_us", perm_new_ns),
        Metric::ns("core.permutation_next_ns", perm_next_ns),
        Metric::ns("core.cookie_isn_ns", isn_ns),
        Metric::ns("core.cookie_classify_ns", classify_ns),
        Metric::ns("core.token_bucket_take_ns", bucket_ns),
        Metric::ns("core.ipmap_cycle_ns", ipmap_ns),
        Metric::ratio("core.ipmap_vs_hashmap_ratio", hashmap_ns / ipmap_ns),
        Metric::us_from_ns("core.inference_conn_us", inference_ns),
        Metric::us_from_ns("core.probe_host_us", probe_ns),
    ]
}

fn telemetry() -> Vec<Metric> {
    let mut registry = MetricsRegistry::new();
    let counter = registry.counter("iwbench.counter", Scope::Shard);
    let histogram = registry.histogram("iwbench.histogram", Scope::Shard);
    let inc_ns = ns_per_op(|| registry.inc(black_box(counter)));
    let mut value = 1u64;
    let observe_ns = ns_per_op(|| {
        value = value
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        registry.observe(histogram, black_box(value >> 34));
    });
    black_box(registry.snapshot());
    // The scanner's own registry: every metric a campaign snapshots.
    let scanner = Scanner::new(iw_core::ScanConfig::study(Protocol::Http, 1 << 16, 7));
    let snapshot_ns = ns_per_op(|| {
        black_box(scanner.metrics_snapshot().to_json());
    });
    vec![
        Metric::ns("telemetry.counter_inc_ns", inc_ns),
        Metric::ns("telemetry.histogram_observe_ns", observe_ns),
        Metric::us_from_ns("telemetry.snapshot_json_us", snapshot_ns),
    ]
}

/// Tables 1-3 and the IW histogram over the results of one `w` campaign.
fn analysis(w: &Workload, seed: u64) -> Vec<Metric> {
    let campaign = Campaign::build(w, seed);
    let out = ScanRunner::new(&campaign.population)
        .config(campaign.config.clone())
        .run();
    let report_ns = ns_per_op(|| {
        let t1 = Table1::new(&[("HTTP", &out.summary)]).render();
        let t2 = Table2::new(&out.results).render("HTTP");
        let t3 = Table3::new(&out.results, &campaign.population).render();
        let hist = IwHistogram::from_results(&out.results).dominant(0.01);
        black_box((t1, t2, t3, hist));
    });
    vec![Metric::new("analysis.report_ms", "ms", report_ns / 1e6)]
}

/// Every micro-driver row. `report_world` is the campaign whose results
/// the analysis row post-processes.
pub fn micro(report_world: &Workload, seed: u64) -> Vec<Metric> {
    let mut rows = wire();
    rows.extend(netsim());
    rows.extend(hoststack());
    rows.extend(internet());
    rows.extend(core());
    rows.extend(telemetry());
    rows.extend(analysis(report_world, seed));
    rows
}
