//! Adversarial host behaviours for fault-injection testing.
//!
//! A [`ChaosHost`] is not a TCP stack: it replays one pathological
//! pattern the resilience layer must survive — ICMP-unreachable targets,
//! stateless SYN-ACK responders that never send data (SYN-ACK floods /
//! accept-queue tarpits), and hosts that reset or go unreachable shortly
//! after the handshake.

use iw_netsim::{Duration, Effects, Endpoint, Instant, TimerToken};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags, TcpOption};
use iw_wire::{icmp, ipv4, IpProtocol};
use std::collections::HashMap;

/// The pathological behaviour a [`ChaosHost`] exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Answer every SYN with an ICMP destination-unreachable (the host or
    /// a router on its path rejects the probe).
    IcmpUnreachable {
        /// The unreachable code (1 = host, 3 = port, ...).
        code: u8,
    },
    /// Answer every SYN with a valid SYN-ACK and then go silent — the
    /// scanner allocates a session that can only die by timeout. En masse
    /// this is a SYN-ACK flood against the session table.
    SynAckBlackhole,
    /// Answer the SYN with a SYN-ACK, then inject a RST `after` the
    /// handshake (mid-connection reset).
    SynAckThenRst {
        /// Delay between the SYN-ACK and the RST.
        after: Duration,
    },
    /// Answer the SYN with a SYN-ACK, then report the destination
    /// unreachable `after` the handshake (path failure mid-session).
    SynAckThenIcmp {
        /// Delay between the SYN-ACK and the ICMP error.
        after: Duration,
        /// The unreachable code.
        code: u8,
    },
    /// Answer the SYN with a SYN-ACK whose acknowledgement number is off
    /// by `delta` (0 echoes the raw ISN instead of ISN+1; 2+ is garbage).
    /// A cookie-validating scanner must not promote or classify these.
    SynAckWrongAck {
        /// Offset added to the probe's sequence number in the SYN-ACK's
        /// ack field. The correct value is 1; anything else is invalid.
        delta: u8,
    },
    /// Answer the SYN with a valid SYN-ACK, then replay the identical
    /// SYN-ACK `after` a delay — a retransmitting or middlebox-duplicated
    /// responder. The scanner must treat the replay as a duplicate, not a
    /// second responsive target.
    SynAckReplayed {
        /// Delay between the original SYN-ACK and its replay.
        after: Duration,
    },
    /// Answer the SYN with a RST whose ack field does not carry the
    /// probe's cookie (an off-path attacker guessing at flows, or a
    /// middlebox fabricating resets). A cookie-validating scanner must
    /// not record a refused verdict.
    SpoofedRst,
    /// Answer every SYN with a burst of ICMP source-quench messages and
    /// never complete the handshake — an ICMP-rate-limited router
    /// speaking for a silent target. Source quench is advisory, so the
    /// scanner must NOT fast-fail the target; the burst feeds the
    /// harvest's rate-limiting signature instead.
    SourceQuench {
        /// Quench messages emitted per received SYN.
        burst: u32,
    },
}

/// Per-connection state for the delayed-injection modes.
#[derive(Debug, Clone, Copy)]
struct ChaosConn {
    peer: u32,
    isn: u32,
    ack: u32,
}

/// A host that misbehaves in exactly one scripted way.
pub struct ChaosHost {
    ip: Ipv4Addr,
    mode: ChaosMode,
    seed: u64,
    ip_ident: u16,
    /// Connections awaiting a delayed RST/ICMP, keyed by timer token.
    conns: HashMap<TimerToken, ChaosConn>,
}

impl ChaosHost {
    /// Create a chaos host; `seed` makes its ISNs deterministic.
    pub fn new(ip: Ipv4Addr, mode: ChaosMode, seed: u64) -> ChaosHost {
        ChaosHost {
            ip,
            mode,
            seed,
            ip_ident: 1,
            conns: HashMap::new(),
        }
    }

    /// Deterministic per-connection ISN (splitmix-style hash so every
    /// (host, peer, ports) tuple gets a stable value).
    fn isn(&self, peer: u32, sport: u16, dport: u16) -> u32 {
        let mut x = self.seed
            ^ (u64::from(self.ip.to_u32()) << 32)
            ^ u64::from(peer)
            ^ (u64::from(sport) << 48)
            ^ (u64::from(dport) << 16);
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) as u32
    }

    fn send_tcp(&mut self, peer: Ipv4Addr, seg: &tcp::Repr, fx: &mut Effects) {
        let l4 = seg.emit(self.ip, peer);
        let datagram = ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: self.ip,
                dst_addr: peer,
                protocol: IpProtocol::Tcp,
                payload_len: l4.len(),
                ttl: 64,
            },
            self.ip_ident,
            &l4,
        );
        self.ip_ident = self.ip_ident.wrapping_add(1);
        fx.send(datagram);
    }

    fn send_unreachable(&mut self, peer: Ipv4Addr, code: u8, fx: &mut Effects) {
        let l4 = icmp::Message::DstUnreachable { code }.emit();
        let datagram = ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: self.ip,
                dst_addr: peer,
                protocol: IpProtocol::Icmp,
                payload_len: l4.len(),
                ttl: 64,
            },
            self.ip_ident,
            &l4,
        );
        self.ip_ident = self.ip_ident.wrapping_add(1);
        fx.send(datagram);
    }

    fn send_source_quench(&mut self, peer: Ipv4Addr, fx: &mut Effects) {
        let l4 = icmp::Message::SourceQuench.emit();
        let datagram = ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: self.ip,
                dst_addr: peer,
                protocol: IpProtocol::Icmp,
                payload_len: l4.len(),
                ttl: 64,
            },
            self.ip_ident,
            &l4,
        );
        self.ip_ident = self.ip_ident.wrapping_add(1);
        fx.send(datagram);
    }

    fn send_syn_ack(&mut self, peer: Ipv4Addr, seg: &tcp::Repr, isn: u32, fx: &mut Effects) {
        let syn_ack = tcp::Repr {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: isn,
            ack: seg.seq.wrapping_add(1),
            flags: Flags::SYN | Flags::ACK,
            window: 65535,
            options: vec![TcpOption::Mss(1460)],
            payload: Vec::new(),
        };
        self.send_tcp(peer, &syn_ack, fx);
    }

    fn on_syn(&mut self, peer: Ipv4Addr, seg: &tcp::Repr, fx: &mut Effects) {
        match self.mode {
            ChaosMode::IcmpUnreachable { code } => {
                self.send_unreachable(peer, code, fx);
                fx.finished = true;
            }
            ChaosMode::SynAckBlackhole => {
                // Stateless SYN-ACK to everything; never any data. The
                // session starves through its collect timeout, so a flood
                // of these is the cheapest way to pin the session table.
                let isn = self.isn(peer.to_u32(), seg.src_port, seg.dst_port);
                self.send_syn_ack(peer, seg, isn, fx);
                fx.finished = true;
            }
            ChaosMode::SourceQuench { burst } => {
                for _ in 0..burst {
                    self.send_source_quench(peer, fx);
                }
                fx.finished = true;
            }
            ChaosMode::SynAckWrongAck { delta } => {
                let isn = self.isn(peer.to_u32(), seg.src_port, seg.dst_port);
                let syn_ack = tcp::Repr {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    seq: isn,
                    ack: seg.seq.wrapping_add(u32::from(delta)),
                    flags: Flags::SYN | Flags::ACK,
                    window: 65535,
                    options: vec![TcpOption::Mss(1460)],
                    payload: Vec::new(),
                };
                self.send_tcp(peer, &syn_ack, fx);
                fx.finished = true;
            }
            ChaosMode::SpoofedRst => {
                // ack carries the probe's raw seq, not seq+1, so it can
                // never match a cookie check.
                let rst = tcp::Repr::bare(
                    seg.dst_port,
                    seg.src_port,
                    0,
                    seg.seq,
                    Flags::RST | Flags::ACK,
                    0,
                );
                self.send_tcp(peer, &rst, fx);
                fx.finished = true;
            }
            ChaosMode::SynAckThenRst { after }
            | ChaosMode::SynAckThenIcmp { after, .. }
            | ChaosMode::SynAckReplayed { after } => {
                let isn = self.isn(peer.to_u32(), seg.src_port, seg.dst_port);
                self.send_syn_ack(peer, seg, isn, fx);
                let token = (u64::from(seg.src_port) << 16) | u64::from(seg.dst_port);
                let conn = ChaosConn {
                    peer: peer.to_u32(),
                    isn,
                    ack: seg.seq.wrapping_add(1),
                };
                // A retransmitted SYN finds its flow's timer running; it
                // still fires `after` the first SYN (an arm would move it).
                if self.conns.insert(token, conn).is_none() {
                    fx.arm(after, token);
                }
            }
        }
    }
}

impl Endpoint for ChaosHost {
    fn on_packet(&mut self, pkt: &[u8], _now: Instant, fx: &mut Effects) {
        let Ok(packet) = ipv4::Packet::new_checked(pkt) else {
            return;
        };
        let Ok(ip_repr) = ipv4::Repr::parse(&packet) else {
            return;
        };
        if ip_repr.dst_addr != self.ip || ip_repr.protocol != IpProtocol::Tcp {
            fx.finished = self.conns.is_empty();
            return;
        }
        let Ok(seg_packet) = tcp::Packet::new_checked(packet.payload()) else {
            return;
        };
        let Ok(seg) = tcp::Repr::parse(&seg_packet, ip_repr.src_addr, ip_repr.dst_addr) else {
            return;
        };
        if seg.flags.contains(Flags::SYN) && !seg.flags.contains(Flags::ACK) {
            self.on_syn(ip_repr.src_addr, &seg, fx);
        } else {
            // ACKs, data, RSTs: swallowed silently in every mode.
            fx.finished = self.conns.is_empty();
        }
    }

    fn on_timer(&mut self, token: TimerToken, _now: Instant, fx: &mut Effects) {
        let Some(conn) = self.conns.remove(&token) else {
            fx.finished = self.conns.is_empty();
            return;
        };
        let peer = Ipv4Addr::from_u32(conn.peer);
        let sport = ((token >> 16) & 0xffff) as u16;
        let dport = (token & 0xffff) as u16;
        match self.mode {
            ChaosMode::SynAckThenRst { .. } => {
                // From the host's service port back to the scanner's
                // source port; seq continues after the SYN-ACK's space.
                let rst = tcp::Repr::bare(dport, sport, conn.isn.wrapping_add(1), 0, Flags::RST, 0);
                self.send_tcp(peer, &rst, fx);
            }
            ChaosMode::SynAckThenIcmp { code, .. } => {
                self.send_unreachable(peer, code, fx);
            }
            ChaosMode::SynAckReplayed { .. } => {
                // Byte-identical replay of the original SYN-ACK.
                let syn_ack = tcp::Repr {
                    src_port: dport,
                    dst_port: sport,
                    seq: conn.isn,
                    ack: conn.ack,
                    flags: Flags::SYN | Flags::ACK,
                    window: 65535,
                    options: vec![TcpOption::Mss(1460)],
                    payload: Vec::new(),
                };
                self.send_tcp(peer, &syn_ack, fx);
            }
            _ => {}
        }
        fx.finished = self.conns.is_empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCAN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const HOSTIP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

    fn syn_datagram(sport: u16) -> Vec<u8> {
        let seg = tcp::Repr {
            src_port: sport,
            dst_port: 80,
            seq: 1000,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options: vec![TcpOption::Mss(64)],
            payload: vec![],
        };
        let l4 = seg.emit(SCAN, HOSTIP);
        ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: SCAN,
                dst_addr: HOSTIP,
                protocol: IpProtocol::Tcp,
                payload_len: l4.len(),
                ttl: 64,
            },
            1,
            &l4,
        )
    }

    fn parse_tcp(pkt: &[u8]) -> tcp::Repr {
        let ip = ipv4::Packet::new_checked(pkt).unwrap();
        let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
        tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()).unwrap()
    }

    #[test]
    fn unreachable_mode_answers_syn_with_icmp() {
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::IcmpUnreachable { code: 1 }, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx);
        assert_eq!(fx.tx.len(), 1);
        let ip = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
        let msg = icmp::Message::parse(ip.payload()).unwrap();
        assert_eq!(msg, icmp::Message::DstUnreachable { code: 1 });
        assert!(fx.finished);
    }

    #[test]
    fn blackhole_mode_syn_acks_and_goes_silent() {
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SynAckBlackhole, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx);
        assert_eq!(fx.tx.len(), 1);
        let reply = parse_tcp(&fx.tx[0]);
        assert!(reply.flags.contains(Flags::SYN | Flags::ACK));
        assert_eq!(reply.ack, 1001);
        assert!(fx.timers.is_empty());
        // ISNs are deterministic per tuple.
        let mut host2 = ChaosHost::new(HOSTIP, ChaosMode::SynAckBlackhole, 7);
        let mut fx2 = Effects::default();
        host2.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx2);
        assert_eq!(parse_tcp(&fx2.tx[0]).seq, reply.seq);
    }

    #[test]
    fn rst_mode_resets_after_delay() {
        let after = Duration::from_millis(10);
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SynAckThenRst { after }, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx);
        let syn_ack = parse_tcp(&fx.tx[0]);
        assert_eq!(fx.timers.len(), 1);
        let (delay, token) = fx.timers[0];
        assert_eq!(delay, after);
        let mut fx2 = Effects::default();
        host.on_timer(token, Instant::ZERO + delay, &mut fx2);
        let rst = parse_tcp(&fx2.tx[0]);
        assert!(rst.flags.contains(Flags::RST));
        assert_eq!(rst.seq, syn_ack.seq.wrapping_add(1));
        assert_eq!(rst.dst_port, 40000);
        assert!(fx2.finished);
    }

    #[test]
    fn source_quench_mode_bursts_and_never_completes() {
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SourceQuench { burst: 3 }, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx);
        assert_eq!(fx.tx.len(), 3);
        for pkt in &fx.tx {
            let ip = ipv4::Packet::new_checked(&pkt[..]).unwrap();
            assert_eq!(
                icmp::Message::parse(ip.payload()).unwrap(),
                icmp::Message::SourceQuench
            );
        }
        assert!(fx.timers.is_empty());
        assert!(fx.finished);
    }

    #[test]
    fn wrong_ack_mode_offsets_the_acknowledgement() {
        for delta in [0u8, 2, 7] {
            let mut host = ChaosHost::new(HOSTIP, ChaosMode::SynAckWrongAck { delta }, 7);
            let mut fx = Effects::default();
            host.on_packet(&syn_datagram(39000), Instant::ZERO, &mut fx);
            let reply = parse_tcp(&fx.tx[0]);
            assert!(reply.flags.contains(Flags::SYN | Flags::ACK));
            assert_eq!(reply.ack, 1000u32.wrapping_add(u32::from(delta)));
            assert!(fx.timers.is_empty());
            assert!(fx.finished);
        }
    }

    #[test]
    fn replayed_mode_duplicates_the_syn_ack_exactly() {
        let after = Duration::from_millis(20);
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SynAckReplayed { after }, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(39000), Instant::ZERO, &mut fx);
        let original = parse_tcp(&fx.tx[0]);
        assert!(original.flags.contains(Flags::SYN | Flags::ACK));
        assert_eq!(original.ack, 1001);
        let (delay, token) = fx.timers[0];
        assert_eq!(delay, after);
        let mut fx2 = Effects::default();
        host.on_timer(token, Instant::ZERO + delay, &mut fx2);
        let replay = parse_tcp(&fx2.tx[0]);
        assert_eq!(replay.seq, original.seq);
        assert_eq!(replay.ack, original.ack);
        assert_eq!(replay.flags, original.flags);
        assert_eq!(replay.src_port, original.src_port);
        assert_eq!(replay.dst_port, original.dst_port);
        assert!(fx2.finished);
    }

    #[test]
    fn spoofed_rst_mode_answers_with_a_cookieless_rst() {
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SpoofedRst, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(40000), Instant::ZERO, &mut fx);
        let rst = parse_tcp(&fx.tx[0]);
        assert!(rst.flags.contains(Flags::RST));
        // The ack echoes the raw seq, not seq+1 — never cookie-valid.
        assert_eq!(rst.ack, 1000);
        assert_eq!(rst.dst_port, 40000);
        assert!(fx.finished);
    }

    #[test]
    fn icmp_mode_reports_unreachable_after_delay() {
        let after = Duration::from_millis(5);
        let mut host = ChaosHost::new(HOSTIP, ChaosMode::SynAckThenIcmp { after, code: 3 }, 7);
        let mut fx = Effects::default();
        host.on_packet(&syn_datagram(41000), Instant::ZERO, &mut fx);
        assert!(parse_tcp(&fx.tx[0]).flags.contains(Flags::SYN | Flags::ACK));
        let (delay, token) = fx.timers[0];
        let mut fx2 = Effects::default();
        host.on_timer(token, Instant::ZERO + delay, &mut fx2);
        let ip = ipv4::Packet::new_checked(&fx2.tx[0][..]).unwrap();
        let msg = icmp::Message::parse(ip.payload()).unwrap();
        assert_eq!(msg, icmp::Message::DstUnreachable { code: 3 });
    }
}
