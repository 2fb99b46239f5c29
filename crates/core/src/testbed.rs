//! Controlled two-node testbed (§3.5 validation).
//!
//! "We manually validated our IW estimation approach in two controlled
//! testbed experiments by running different versions of Linux and
//! Windows" — this module is that testbed: one scanner, one host with an
//! exactly known configuration, one configurable link (clean, lossy, or
//! with scripted drops for exact tail loss), and optionally a full
//! packet trace for inspection.

use crate::config::{ScanConfig, TargetSpec};
use crate::results::{HostResult, Protocol};
use crate::scanner::Scanner;
use iw_hoststack::{Host, HostConfig};
use iw_netsim::{Endpoint, LinkConfig, Sim, SimConfig, Trace};
use iw_wire::ipv4::Ipv4Addr;

/// One controlled experiment.
#[derive(Debug, Clone)]
pub struct TestbedSpec {
    /// The host under test.
    pub host: HostConfig,
    /// The link between scanner and host.
    pub link: LinkConfig,
    /// Protocol to probe.
    pub protocol: Protocol,
    /// Scan seed.
    pub seed: u64,
    /// Known domain (sets Host header / SNI), as when probing by name.
    pub domain: Option<String>,
    /// Record a packet trace.
    pub record_trace: bool,
}

impl TestbedSpec {
    /// A clean-link testbed probe of `host`.
    pub fn new(host: HostConfig, protocol: Protocol) -> TestbedSpec {
        TestbedSpec {
            host,
            link: LinkConfig::testbed(),
            protocol,
            seed: 7,
            domain: None,
            record_trace: false,
        }
    }
}

/// The target address used by the testbed.
pub const TESTBED_HOST_IP: u32 = 0x0a00_0001;

/// Run one controlled measurement; returns the host record (if the host
/// answered) plus the packet trace (empty unless requested).
pub fn probe_host(spec: &TestbedSpec) -> (Option<HostResult>, Trace) {
    let mut config = ScanConfig::study(spec.protocol, 1 << 8, spec.seed);
    config.targets = TargetSpec::List(vec![(TESTBED_HOST_IP, spec.domain.clone())]);
    config.rate_pps = 1_000_000;
    let scanner = Scanner::new(config);

    let host_config = spec.host.clone();
    let link = spec.link.clone();
    let seed = spec.seed;
    let factory = move |ip: u32| {
        if ip == TESTBED_HOST_IP {
            Some((
                Box::new(Host::new(Ipv4Addr::from_u32(ip), host_config.clone(), seed))
                    as Box<dyn Endpoint>,
                link.clone(),
            ))
        } else {
            None
        }
    };
    let mut sim = Sim::new(
        scanner,
        factory,
        SimConfig {
            seed: spec.seed,
            record_trace: spec.record_trace,
            ..SimConfig::default()
        },
    );
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    let result = sim.scanner_mut().take_records().0.into_iter().next();
    (result, sim.take_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::MssVerdict;
    use iw_hoststack::IwPolicy;

    #[test]
    fn ground_truth_recovered_on_clean_link() {
        let spec = TestbedSpec::new(HostConfig::simple_web(50_000), Protocol::Http);
        let (result, _) = probe_host(&spec);
        let result = result.expect("host answered");
        assert_eq!(result.primary_verdict(), Some(MssVerdict::Success(10)));
    }

    #[test]
    fn insufficient_data_detected() {
        // Pages too small for IW10 at MSS 64, with URI echo off so the
        // bloat retry cannot rescue the probe: the estimate must degrade
        // to the lower bound the page fills, never read as a window.
        for (body, bound) in [(120, 3), (300, 5), (400, 7)] {
            let mut host = HostConfig::simple_web(body);
            host.iw = IwPolicy::Segments(10);
            if let Some(http) = &mut host.http {
                http.behavior = iw_hoststack::HttpBehavior::Direct {
                    root_size: body,
                    echo_404: false,
                };
            }
            let spec = TestbedSpec::new(host, Protocol::Http);
            let (result, _) = probe_host(&spec);
            let result = result.expect("host answered");
            match result.primary_verdict().unwrap() {
                MssVerdict::FewData(lb) => assert_eq!(lb, bound, "{body} B"),
                other => panic!("{body} B: {other:?}"),
            }
        }
    }

    #[test]
    fn uri_echo_rescues_error_page_hosts() {
        // A host that 404s everything but echoes the URI: the initial
        // "/" yields a tiny error page, and the bloated-URI retry grows
        // it past the IW (§3.2's rescue path).
        let mut host = HostConfig::simple_web(0);
        host.iw = IwPolicy::Segments(10);
        if let Some(http) = &mut host.http {
            http.behavior = iw_hoststack::HttpBehavior::NotFound {
                base_size: 200,
                echo_uri: true,
            };
        }
        let spec = TestbedSpec::new(host, Protocol::Http);
        let (result, _) = probe_host(&spec);
        let result = result.unwrap();
        assert_eq!(
            result.primary_verdict(),
            Some(MssVerdict::Success(10)),
            "error-page bloating (§3.2) must recover the IW: {:?}",
            result.runs
        );
    }

    #[test]
    fn small_200_is_final_no_bloat_retry() {
        // A 2xx page, however small, is a final answer: the probe must
        // not burn a second connection on it.
        let mut host = HostConfig::simple_web(300);
        host.iw = IwPolicy::Segments(10);
        let spec = TestbedSpec::new(host, Protocol::Http);
        let (result, _) = probe_host(&spec);
        let result = result.unwrap();
        match result.primary_verdict().unwrap() {
            MssVerdict::FewData(lb) => assert!(lb >= 4, "bound {lb}"),
            other => panic!("{other:?}"),
        }
        for (_, outcomes) in &result.runs {
            for o in outcomes {
                if let crate::results::ProbeOutcome::FewData { redirected, .. } = o {
                    assert!(!redirected, "no second connection for a 2xx");
                }
            }
        }
    }

    /// The first probe of `trace`, one line per packet up to the
    /// scanner's RST: direction, flags, the SYN's MSS option, the
    /// scanner's ACK number and window, and the host's data as
    /// `len@offset` from its first byte.
    fn first_probe_exchange(trace: &Trace) -> Vec<String> {
        use iw_netsim::Dir;
        use iw_wire::{ipv4, tcp};
        let mut data_start = 0u32;
        let mut lines = Vec::new();
        for e in trace.entries() {
            let ip = ipv4::Packet::new_checked(&e.bytes[..]).expect("ipv4");
            let seg = tcp::Packet::new_checked(ip.payload()).expect("tcp");
            let flags = seg.flags();
            let mss = seg.options().flatten().find_map(|o| match o {
                tcp::TcpOption::Mss(mss) => Some(mss),
                _ => None,
            });
            lines.push(match (e.dir, mss) {
                (Dir::HostToScanner, _) if flags.contains(tcp::Flags::SYN) => {
                    data_start = seg.seq_number().wrapping_add(1);
                    format!("<- {flags}")
                }
                (Dir::HostToScanner, _) => format!(
                    "<- {}@{}",
                    seg.payload().len(),
                    seg.seq_number().wrapping_sub(data_start)
                ),
                _ if flags.contains(tcp::Flags::RST) => format!("-> {flags}"),
                (_, Some(mss)) => format!("-> {flags} [MSS={mss}]"),
                _ if !seg.payload().is_empty() => format!("-> {flags} request"),
                _ => format!(
                    "-> {flags} ack=@{} win={}",
                    seg.ack_number().wrapping_sub(data_start),
                    seg.window()
                ),
            });
            if flags.contains(tcp::Flags::RST) {
                break;
            }
        }
        lines
    }

    #[test]
    fn trace_recording_shows_fig1_exchange() {
        let mut spec = TestbedSpec::new(HostConfig::simple_web(50_000), Protocol::Http);
        spec.record_trace = true;
        let (_, trace) = probe_host(&spec);
        // Fig. 1: handshake at MSS 64, the request, the IW10 flight, the
        // first segment's retransmission, the 2·MSS window that releases
        // two more segments, and the RST.
        let flight = (0..10).map(|k| format!("<- 64@{}", k * 64));
        let want: Vec<String> = ["-> SYN [MSS=64]", "<- SYN|ACK", "-> PSH|ACK request"]
            .into_iter()
            .map(String::from)
            .chain(flight)
            .chain(
                [
                    "<- 64@0",
                    "-> ACK ack=@640 win=128",
                    "<- 64@640",
                    "<- 64@704",
                    "-> RST",
                ]
                .map(String::from),
            )
            .collect();
        assert_eq!(first_probe_exchange(&trace), want, "{}", trace.render_tcp());
    }
}
