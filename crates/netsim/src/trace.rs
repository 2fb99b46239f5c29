//! Packet traces — the simulator's stand-in for the tcpdump captures the
//! paper's authors "manually inspected" during validation (§3.5).
//!
//! A [`Trace`] records every datagram crossing the simulator with its
//! virtual timestamp and direction. The TCP-aware pretty-printer renders
//! the Figure 1 style message sequence, and tests make exact assertions
//! over the entries instead of eyeballing them.

use crate::time::Instant;
use core::fmt;

/// Direction of a recorded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Scanner → host ("our scanner" column of Fig. 1).
    ScannerToHost,
    /// Host → scanner ("probed host" column).
    HostToScanner,
}

/// One recorded datagram.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Virtual capture time.
    pub at: Instant,
    /// Direction.
    pub dir: Dir,
    /// The raw IPv4 datagram.
    pub bytes: Vec<u8>,
}

/// An append-only packet capture.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append an entry.
    pub fn record(&mut self, at: Instant, dir: Dir, bytes: &[u8]) {
        self.entries.push(TraceEntry {
            at,
            dir,
            bytes: bytes.to_vec(),
        });
    }

    /// All entries in capture order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold another capture into this one, restoring global time order
    /// (used when merging per-shard scan traces; the sort is stable, so
    /// same-instant packets keep their per-shard capture order).
    pub fn merge(&mut self, other: Trace) {
        self.entries.extend(other.entries);
        self.entries.sort_by_key(|e| e.at);
    }

    /// Render a Fig.-1-style, TCP-aware message sequence chart.
    ///
    /// Lines look like:
    /// `0.020000s  ->  SYN        seq=1234 ack=0 win=65535 len=0 [MSS=64]`
    pub fn render_tcp(&self) -> String {
        let mut out = String::new();
        out.push_str("time        dir  flags      details\n");
        for e in &self.entries {
            let arrow = match e.dir {
                Dir::ScannerToHost => "-> ",
                Dir::HostToScanner => "<- ",
            };
            out.push_str(&format!("{}  {arrow}  {}\n", e.at, summarize_tcp(&e.bytes)));
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_tcp())
    }
}

/// One-line summary of a (possibly non-TCP) IPv4 datagram.
fn summarize_tcp(bytes: &[u8]) -> String {
    use iw_wire::{ipv4, tcp, IpProtocol};
    let Ok(ip) = ipv4::Packet::new_checked(bytes) else {
        return format!("<non-ip {} bytes>", bytes.len());
    };
    match ip.protocol() {
        IpProtocol::Tcp => {
            let Ok(seg) = tcp::Packet::new_checked(ip.payload()) else {
                return "<bad tcp>".into();
            };
            let mut opts = String::new();
            for opt in seg.options().flatten() {
                if let tcp::TcpOption::Mss(mss) = opt {
                    opts = format!(" [MSS={mss}]");
                }
            }
            format!(
                "{:<9} seq={} ack={} win={} len={}{}",
                seg.flags().to_string(),
                seg.seq_number(),
                seg.ack_number(),
                seg.window(),
                seg.payload().len(),
                opts
            )
        }
        IpProtocol::Icmp => format!("ICMP ({} bytes)", ip.payload().len()),
        IpProtocol::Unknown(p) => format!("proto {p} ({} bytes)", ip.payload().len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::ipv4::Ipv4Addr;
    use iw_wire::{ipv4, tcp};

    fn tcp_datagram() -> Vec<u8> {
        let seg = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 100,
            ack: 0,
            flags: tcp::Flags::SYN,
            window: 65535,
            options: vec![tcp::TcpOption::Mss(64)],
            payload: vec![],
        };
        let src = Ipv4Addr::new(192, 0, 2, 1);
        let dst = Ipv4Addr::new(198, 51, 100, 1);
        let l4 = seg.emit(src, dst);
        ipv4::build_datagram(
            &ipv4::Repr {
                src_addr: src,
                dst_addr: dst,
                protocol: iw_wire::IpProtocol::Tcp,
                payload_len: l4.len(),
                ttl: 64,
            },
            1,
            &l4,
        )
    }

    #[test]
    fn records_and_renders() {
        let mut trace = Trace::new();
        trace.record(Instant::ZERO, Dir::ScannerToHost, &tcp_datagram());
        assert_eq!(trace.len(), 1);
        let rendered = trace.render_tcp();
        assert!(rendered.contains("SYN"), "{rendered}");
        assert!(rendered.contains("[MSS=64]"), "{rendered}");
        assert!(rendered.contains("->"), "{rendered}");
    }

    #[test]
    fn tolerates_garbage_bytes() {
        let mut trace = Trace::new();
        trace.record(Instant::ZERO, Dir::HostToScanner, &[1, 2, 3]);
        assert!(trace.render_tcp().contains("<non-ip"));
    }

    #[test]
    fn merge_restores_time_order() {
        let mut a = Trace::new();
        a.record(Instant::from_nanos(30), Dir::ScannerToHost, &[1]);
        a.record(Instant::from_nanos(50), Dir::HostToScanner, &[2]);
        let mut b = Trace::new();
        b.record(Instant::from_nanos(10), Dir::ScannerToHost, &[3]);
        b.record(Instant::from_nanos(40), Dir::HostToScanner, &[4]);
        a.merge(b);
        let times: Vec<u64> = a.entries().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![10, 30, 40, 50]);
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.render_tcp().lines().count(), 1, "header only");
    }
}
