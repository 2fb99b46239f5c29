//! A complete simulated host: per-port TCP listeners, connection
//! demultiplexing, and the ICMP path-MTU responder — wired into
//! `iw-netsim` as an [`Endpoint`].

use crate::app::App;
use crate::config::{ports, HostConfig, HttpConfig, TlsConfig};
use crate::http_app::HttpApp;
use crate::os::OsProfile;
use crate::policy::IwPolicy;
use crate::tcb::{Tcb, TcbOutput};
use crate::tls_app::TlsApp;
use iw_netsim::rng::SmallRng;
use iw_netsim::{Effects, Endpoint, Instant, TimerToken};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags};
use iw_wire::{icmp, ipv4, IpProtocol};
use std::rc::Rc;

/// Connection key: (peer address, peer port, local port).
type ConnKey = (u32, u16, u16);

/// A simulated host at a fixed IPv4 address.
pub struct Host {
    ip: Ipv4Addr,
    os: OsProfile,
    iw: IwPolicy,
    // Each service's configuration is shared with the connections it
    // serves (a probe session opens six or more per host).
    http: Option<Rc<HttpConfig>>,
    tls: Option<Rc<TlsConfig>>,
    path_mtu: u32,
    icmp: bool,
    // Live connections. A probe host holds at most a couple at a time
    // (the scanner walks its connections sequentially), so a linear-scan
    // vector beats a hash map on every per-packet lookup. It grows one
    // entry at a time on accept: a responder-dense scan keeps every host
    // live at once, and the amortized first push would reserve four
    // 192-byte entries (a key and a `Tcb`) for the one most hosts ever
    // hold.
    conns: Vec<(ConnKey, Tcb)>,
    rng: SmallRng,
    ip_ident: u16,
}

impl Host {
    /// Create a host; `seed` feeds ISN generation deterministically.
    pub fn new(ip: Ipv4Addr, config: HostConfig, seed: u64) -> Host {
        Host {
            ip,
            os: config.os,
            iw: config.iw,
            http: config.http.map(Rc::new),
            tls: config.tls.map(Rc::new),
            path_mtu: config.path_mtu,
            icmp: config.icmp,
            conns: Vec::new(),
            rng: SmallRng::seed_from_u64(seed ^ u64::from(ip.to_u32())),
            ip_ident: 1,
        }
    }

    /// The host's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Live connection count (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn app_for_port(&self, port: u16) -> Option<Box<dyn App>> {
        match port {
            ports::HTTP => self
                .http
                .as_ref()
                .map(|c| Box::new(HttpApp::new(c.clone())) as Box<dyn App>),
            ports::TLS => self
                .tls
                .as_ref()
                .map(|c| Box::new(TlsApp::new(c.clone())) as Box<dyn App>),
            _ => None,
        }
    }

    /// What a TCB event leaves to the host: report its undeclared state
    /// changes, then arm its deadline, or retire the connection and
    /// cancel its timer once closed.
    fn settle(&mut self, key: ConnKey, out: TcbOutput, now: Instant, fx: &mut Effects) {
        if let Some(pos) = self.conns.iter().position(|(k, _)| *k == key) {
            let tcb = &mut self.conns[pos].1;
            fx.undeclared_edges += u64::from(std::mem::take(&mut tcb.undeclared_edges));
            if tcb.is_closed() {
                self.conns.swap_remove(pos);
                fx.cancel(token_for(key));
            } else if let Some(deadline) = out.deadline {
                if deadline > now && tcb.should_arm(deadline) {
                    fx.arm(deadline - now, token_for(key));
                }
            }
        }
        fx.finished = self.conns.is_empty();
    }

    fn handle_tcp(&mut self, ip_repr: &ipv4::Repr, payload: &[u8], now: Instant, fx: &mut Effects) {
        let Ok(packet) = tcp::Packet::new_checked(payload) else {
            return;
        };
        let Ok(seg) = tcp::Segment::parse(&packet, ip_repr.src_addr, ip_repr.dst_addr) else {
            return;
        };
        let peer = ip_repr.src_addr;
        let key: ConnKey = (peer.to_u32(), seg.src_port, seg.dst_port);
        let ip = self.ip;

        if let Some((_, tcb)) = self.conns.iter_mut().find(|(k, _)| *k == key) {
            let ident = &mut self.ip_ident;
            let out = tcb.on_segment(seg, now, &mut |tx| {
                fx.send(tx.datagram(ip, peer, ident, fx.pool()))
            });
            self.settle(key, out, now, fx);
            return;
        }

        // No connection: a SYN to an open port creates one.
        if seg.flags.contains(Flags::SYN) && !seg.flags.contains(Flags::ACK) {
            if let Some(app) = self.app_for_port(seg.dst_port) {
                let isn = self.rng.next_u32();
                let ident = &mut self.ip_ident;
                let (tcb, out) = Tcb::accept(
                    ip,
                    peer,
                    seg.dst_port,
                    seg.src_port,
                    &self.os,
                    self.iw,
                    app,
                    seg,
                    isn,
                    now,
                    &mut |tx| fx.send(tx.datagram(ip, peer, ident, fx.pool())),
                );
                self.conns.reserve_exact(1);
                self.conns.push((key, tcb));
                self.settle(key, out, now, fx);
                return;
            }
        }

        // Closed port or stray segment: RST (but never RST a RST).
        if !seg.flags.contains(Flags::RST) {
            let (rst_seq, rst_ack, rst_flags) = if seg.flags.contains(Flags::ACK) {
                (seg.ack, 0, Flags::RST)
            } else {
                (
                    0,
                    seg.seq.wrapping_add(seg.seq_len()),
                    Flags::RST | Flags::ACK,
                )
            };
            let rst =
                tcp::Segment::bare(seg.dst_port, seg.src_port, rst_seq, rst_ack, rst_flags, 0);
            fx.send(rst.datagram(ip, peer, &mut self.ip_ident, fx.pool()));
        }
        fx.finished = self.conns.is_empty();
    }

    fn handle_icmp(&mut self, ip_repr: &ipv4::Repr, payload: &[u8], fx: &mut Effects) {
        if !self.icmp {
            fx.finished = self.conns.is_empty();
            return;
        }
        let Ok(msg) = icmp::Message::parse(payload) else {
            return;
        };
        if let icmp::Message::EchoRequest {
            ident,
            seq,
            payload_len,
        } = msg
        {
            let total_len = (ipv4::HEADER_LEN + icmp::HEADER_LEN + payload_len) as u32;
            let reply = if total_len > self.path_mtu {
                // A constricting router on the path reports its MTU
                // (RFC 1191); we stand in for it.
                icmp::Message::FragNeeded {
                    mtu: self.path_mtu as u16,
                }
            } else {
                icmp::Message::EchoReply {
                    ident,
                    seq,
                    payload_len,
                }
            };
            let peer = ip_repr.src_addr;
            fx.send(reply.datagram(self.ip, peer, &mut self.ip_ident, fx.pool()));
        }
        fx.finished = self.conns.is_empty();
    }
}

/// Encode a connection key into a timer token (ip32 | sport16 | dport16).
fn token_for(key: ConnKey) -> TimerToken {
    (u64::from(key.0) << 32) | (u64::from(key.1) << 16) | u64::from(key.2)
}

fn key_for(token: TimerToken) -> ConnKey {
    (
        (token >> 32) as u32,
        ((token >> 16) & 0xffff) as u16,
        (token & 0xffff) as u16,
    )
}

impl Endpoint for Host {
    fn on_packet(&mut self, pkt: &[u8], now: Instant, fx: &mut Effects) {
        let Ok(packet) = ipv4::Packet::new_checked(pkt) else {
            return;
        };
        let Ok(ip_repr) = ipv4::Repr::parse(&packet) else {
            return;
        };
        if ip_repr.dst_addr != self.ip {
            return;
        }
        let payload = packet.payload();
        match ip_repr.protocol {
            IpProtocol::Tcp => self.handle_tcp(&ip_repr, payload, now, fx),
            IpProtocol::Icmp => self.handle_icmp(&ip_repr, payload, fx),
            IpProtocol::Unknown(_) => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects) {
        let key = key_for(token);
        let peer = Ipv4Addr::from_u32(key.0);
        let (ip, ident) = (self.ip, &mut self.ip_ident);
        if let Some((_, tcb)) = self.conns.iter_mut().find(|(k, _)| *k == key) {
            let out = tcb.on_timer(now, &mut |tx| {
                fx.send(tx.datagram(ip, peer, ident, fx.pool()))
            });
            self.settle(key, out, now, fx);
        } else {
            fx.finished = self.conns.is_empty();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCAN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const HOSTIP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

    fn datagram(seg: &tcp::Repr) -> Vec<u8> {
        let l4 = seg.emit(SCAN, HOSTIP);
        ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: SCAN,
                dst_addr: HOSTIP,
                protocol: IpProtocol::Tcp,
                payload_len: l4.len(),
                ttl: 64,
            },
            7,
            &l4,
        )
    }

    fn parse_reply(pkt: &[u8]) -> tcp::Repr {
        let ip = ipv4::Packet::new_checked(pkt).unwrap();
        let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
        tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()).unwrap()
    }

    fn web_host() -> Host {
        Host::new(HOSTIP, HostConfig::simple_web(50_000), 1)
    }

    fn syn(port: u16) -> tcp::Repr {
        tcp::Repr {
            src_port: 40000,
            dst_port: port,
            seq: 100,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options: vec![tcp::TcpOption::Mss(64)],
            payload: vec![],
        }
    }

    #[test]
    fn syn_to_open_port_gets_syn_ack() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(80)), Instant::ZERO, &mut fx);
        assert_eq!(fx.tx.len(), 1);
        let reply = parse_reply(&fx.tx[0]);
        assert!(reply.flags.contains(Flags::SYN | Flags::ACK));
        assert_eq!(reply.ack, 101);
        assert_eq!(host.conn_count(), 1);
        assert!(!fx.finished);
        assert!(!fx.timers.is_empty(), "SYN-ACK retransmit timer armed");
    }

    #[test]
    fn the_connection_table_holds_exactly_its_connections() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(80)), Instant::ZERO, &mut fx);
        assert_eq!(host.conns.capacity(), 1, "one accept, one entry");
        let second = tcp::Repr {
            src_port: 40002,
            ..syn(80)
        };
        host.on_packet(&datagram(&second), Instant::ZERO, &mut fx);
        assert_eq!(host.conn_count(), 2);
        assert_eq!(host.conns.capacity(), 2, "a concurrent second, one more");
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(443)), Instant::ZERO, &mut fx);
        assert_eq!(fx.tx.len(), 1);
        let reply = parse_reply(&fx.tx[0]);
        assert!(reply.flags.contains(Flags::RST));
        assert_eq!(host.conn_count(), 0);
        assert!(fx.finished);
    }

    #[test]
    fn full_probe_exchange_counts_iw() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(80)), Instant::ZERO, &mut fx);
        let synack = parse_reply(&fx.tx[0]);

        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 101,
            ack: synack.seq.wrapping_add(1),
            flags: Flags::ACK | Flags::PSH,
            window: 65535,
            options: vec![],
            payload: iw_wire::http::Request::probe_get("/", "198.51.100.1").to_bytes(),
        };
        let mut fx2 = Effects::default();
        host.on_packet(&datagram(&req), Instant::ZERO, &mut fx2);
        // IW 10 at MSS 64: ten 64-byte data segments.
        assert_eq!(fx2.tx.len(), 10);
        let segs: Vec<_> = fx2.tx.iter().map(|p| parse_reply(p)).collect();
        assert!(segs.iter().all(|s| s.payload.len() == 64));
    }

    /// Handshake with a fresh `config` host on `port`, send `chunks` as
    /// consecutive segments, and return every payload byte the host sent
    /// back in order plus whether it reset the connection.
    fn answer(config: &HostConfig, port: u16, chunks: &[&[u8]]) -> (Vec<u8>, bool) {
        let mut host = Host::new(HOSTIP, config.clone(), 1);
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(port)), Instant::ZERO, &mut fx);
        let synack = parse_reply(&fx.tx[0]);
        let mut seq = 101u32;
        let mut fx = Effects::default();
        for chunk in chunks {
            let seg = tcp::Repr {
                payload: chunk.to_vec(),
                ..tcp::Repr::bare(
                    40000,
                    port,
                    seq,
                    synack.seq.wrapping_add(1),
                    Flags::ACK | Flags::PSH,
                    65535,
                )
            };
            seq = seq.wrapping_add(chunk.len() as u32);
            host.on_packet(&datagram(&seg), Instant::ZERO, &mut fx);
        }
        let replies: Vec<_> = fx.tx.iter().map(|p| parse_reply(p)).collect();
        let reset = replies.iter().any(|r| r.flags.contains(Flags::RST));
        let bytes = replies.into_iter().flat_map(|r| r.payload).collect();
        (bytes, reset)
    }

    #[test]
    fn a_request_cut_anywhere_gets_the_answer_of_the_whole_request() {
        let get = iw_wire::http::Request::probe_get("/", "198.51.100.1").to_bytes();
        let hello = iw_wire::tls::ClientHello::probe([1; 32], None).to_record_bytes();
        let mut tls_host = HostConfig::simple_web(50_000);
        tls_host.tls = Some(crate::TlsConfig {
            behavior: crate::TlsBehavior::Serve,
            cipher: iw_wire::tls::CipherSuite::ECDHE_RSA_AES128_GCM,
            cert_lens: vec![1200, 986],
            ocsp_len: Some(471),
            sni_iw: Vec::new(),
        });
        for (config, port, request) in [
            (HostConfig::simple_web(50_000), 80, get),
            (tls_host, 443, hello),
        ] {
            let (whole, reset) = answer(&config, port, &[&request]);
            assert!(!reset);
            assert_eq!(whole.len(), 640, "an IW10 flight at MSS 64");
            for cut in 1..request.len() {
                let (head, tail) = request.split_at(cut);
                let (bytes, reset) = answer(&config, port, &[head, tail]);
                assert!(!reset, "port {port}: reset when cut at {cut}");
                assert_eq!(bytes, whole, "port {port}: cut at {cut}");
            }
        }
    }

    #[test]
    fn timer_token_round_trip() {
        let key = (0xc0a80001u32, 40000u16, 443u16);
        assert_eq!(key_for(token_for(key)), key);
    }

    #[test]
    fn icmp_echo_and_path_mtu() {
        let mut host = web_host(); // path_mtu 1500
        let small = icmp::Message::EchoRequest {
            ident: 7,
            seq: 1,
            payload_len: 100,
        };
        let l4 = small.emit();
        let dg = ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: SCAN,
                dst_addr: HOSTIP,
                protocol: IpProtocol::Icmp,
                payload_len: l4.len(),
                ttl: 64,
            },
            1,
            &l4,
        );
        let mut fx = Effects::default();
        host.on_packet(&dg, Instant::ZERO, &mut fx);
        let ip = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
        let reply = icmp::Message::parse(ip.payload()).unwrap();
        assert!(matches!(reply, icmp::Message::EchoReply { ident: 7, .. }));

        // Oversized probe: FragNeeded with the path MTU.
        let big = icmp::Message::EchoRequest {
            ident: 7,
            seq: 2,
            payload_len: 1600,
        };
        let l4 = big.emit();
        let dg = ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: SCAN,
                dst_addr: HOSTIP,
                protocol: IpProtocol::Icmp,
                payload_len: l4.len(),
                ttl: 64,
            },
            2,
            &l4,
        );
        let mut fx = Effects::default();
        host.on_packet(&dg, Instant::ZERO, &mut fx);
        let ip = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
        let reply = icmp::Message::parse(ip.payload()).unwrap();
        assert_eq!(reply, icmp::Message::FragNeeded { mtu: 1500 });
    }

    #[test]
    fn packet_to_wrong_ip_is_ignored() {
        let mut host = Host::new(Ipv4Addr::new(10, 0, 0, 1), HostConfig::simple_web(100), 1);
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(80)), Instant::ZERO, &mut fx);
        assert!(fx.tx.is_empty());
    }

    #[test]
    fn rst_is_never_answered() {
        let mut host = web_host();
        let rst = tcp::Repr::bare(40000, 80, 5, 0, Flags::RST, 0);
        let mut fx = Effects::default();
        host.on_packet(&datagram(&rst), Instant::ZERO, &mut fx);
        assert!(fx.tx.is_empty());
    }

    #[test]
    fn stray_ack_gets_rst_with_its_ack_as_seq() {
        let mut host = web_host();
        let stray = tcp::Repr::bare(40000, 80, 55, 777, Flags::ACK, 100);
        let mut fx = Effects::default();
        host.on_packet(&datagram(&stray), Instant::ZERO, &mut fx);
        let reply = parse_reply(&fx.tx[0]);
        assert!(reply.flags.contains(Flags::RST));
        assert_eq!(reply.seq, 777);
    }

    #[test]
    fn retransmit_via_timer_pipeline() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_packet(&datagram(&syn(80)), Instant::ZERO, &mut fx);
        let synack = parse_reply(&fx.tx[0]);
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 101,
            ack: synack.seq.wrapping_add(1),
            flags: Flags::ACK | Flags::PSH,
            window: 65535,
            options: vec![],
            payload: iw_wire::http::Request::probe_get("/", "h").to_bytes(),
        };
        let mut fx2 = Effects::default();
        host.on_packet(&datagram(&req), Instant::ZERO, &mut fx2);
        let first = parse_reply(&fx2.tx[0]);
        // Duplicate arms for an unchanged deadline are suppressed, so the
        // pending RTO timer is the one armed with the handshake output.
        let (delay, token) = fx2.timers.last().or(fx.timers.last()).copied().unwrap();
        // Fire the RTO.
        let mut fx3 = Effects::default();
        host.on_timer(token, Instant::ZERO + delay, &mut fx3);
        assert_eq!(fx3.tx.len(), 1, "one retransmission");
        let rtx = parse_reply(&fx3.tx[0]);
        assert_eq!(rtx.seq, first.seq, "first segment retransmitted");
        assert_eq!(rtx.payload, first.payload);
    }

    #[test]
    fn timer_for_dead_conn_is_harmless() {
        let mut host = web_host();
        let mut fx = Effects::default();
        host.on_timer(token_for((1, 2, 3)), Instant::ZERO, &mut fx);
        assert!(fx.tx.is_empty());
        assert!(fx.finished);
    }
}
