//! The RFC 1191 path-MTU prober (the paper's footnote 1): an echo request
//! of a full 1500-byte datagram, shrunk to each *Fragmentation Needed*
//! the path reports, until an echo reply names the path MTU. It accepts
//! only answers to what it sent: a reported MTU the IPv4 minimum rules
//! out, and a reply that does not carry its echo's ident, change nothing.

use super::Scanner;
use crate::observe::Event;
use crate::results::MtuResult;
use crate::target::Target;
use iw_netsim::{Effects, Instant};
use iw_wire::icmp;
use iw_wire::ipv4::{self, Ipv4Addr};

/// The first echo's datagram length: a full Ethernet MTU.
const FIRST_PROBE: u32 = 1500;

/// The smallest MTU an IPv4 link may have (RFC 791). A smaller report is
/// no path's, and would leave no room for the echo's own headers.
const MIN_MTU: u32 = 68;

impl Scanner {
    /// Path-MTU results (ICMP mode).
    pub fn mtu_results(&self) -> &[MtuResult] {
        &self.mtu_results
    }

    /// Send a target its first echo.
    pub(super) fn start_mtu_probe(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        self.set_target(ip, Some(Target::Mtu { total: FIRST_PROBE }), now);
        self.send_echo(ip, FIRST_PROBE, fx);
    }

    /// The echo ident of a target: a cookie, so a reply names its probe.
    fn echo_ident(&self, ip: u32) -> u16 {
        (self.params.cookie.isn(ip, 0, 0) & 0xffff) as u16
    }

    fn send_echo(&mut self, ip: u32, total_len: u32, fx: &mut Effects) {
        let payload_len = total_len as usize - ipv4::HEADER_LEN - icmp::HEADER_LEN;
        let msg = icmp::Message::EchoRequest {
            ident: self.echo_ident(ip),
            seq: 1,
            payload_len,
        };
        let dst = Ipv4Addr::from_u32(ip);
        fx.send(msg.datagram(self.config.source, dst, &mut self.ident, fx.pool()));
    }

    /// An ICMP message from a target whose echo of `total` bytes is in
    /// flight: a smaller next-hop MTU re-probes at that size, the echo
    /// reply records the size that got through.
    pub(super) fn on_mtu_icmp(
        &mut self,
        ip: u32,
        total: u32,
        msg: &icmp::Message,
        now: Instant,
        fx: &mut Effects,
    ) {
        match *msg {
            icmp::Message::FragNeeded { mtu } => {
                let mtu = u32::from(mtu);
                if (MIN_MTU..total).contains(&mtu) {
                    self.set_target(ip, Some(Target::Mtu { total: mtu }), now);
                    self.send_echo(ip, mtu, fx);
                }
            }
            icmp::Message::EchoReply { ident, .. } if ident == self.echo_ident(ip) => {
                self.obs.emit(now, ip, Event::Verdict("mtu", None));
                self.mtu_results.push(MtuResult { ip, mtu: total });
                self.set_target(ip, None, now);
            }
            _ => {}
        }
    }
}
