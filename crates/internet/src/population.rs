//! The composed synthetic Internet: `ip → host`, plus evaluation-only
//! metadata and ground truth.
//!
//! The scanner side never touches this module's ground-truth accessors —
//! they exist so the experiment harness can compare *measured* IW
//! distributions against the *configured* ones (the §3.5 validation).

use crate::cohort::CohortSpec;
use crate::registry::{AsSpec, NetClass, Registry};
use crate::util::HashStream;
use iw_hoststack::{Host, HostConfig, IwPolicy};
use iw_netsim::{Duration, Endpoint, HostFactory, LinkConfig};
use iw_wire::ipv4::Ipv4Addr;
use std::sync::Arc;

/// Population parameters.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Master seed: same seed ⇒ identical Internet.
    pub seed: u64,
    /// Scan-space size (the "IPv4 space" of the scaled world).
    pub space_size: u32,
    /// Approximate number of responsive hosts to lay out.
    pub target_responsive: u32,
    /// Multiplier on per-link loss probabilities (0 = lossless world,
    /// 1 = calibrated defaults; used by the §3.5 loss experiments).
    pub loss_scale: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            seed: 0x1a2b_3c4d,
            space_size: 1 << 22,
            target_responsive: 60_000,
            loss_scale: 1.0,
        }
    }
}

impl PopulationConfig {
    /// A small population for unit/integration tests.
    pub fn tiny(seed: u64) -> PopulationConfig {
        PopulationConfig {
            seed,
            space_size: 1 << 17,
            target_responsive: 2_000,
            loss_scale: 0.0,
        }
    }
}

/// Ground truth for one host (evaluation only).
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// The configured IW policy.
    pub iw: IwPolicy,
    /// Cohort tag.
    pub cohort: &'static str,
    /// AS number.
    pub asn: u32,
    /// Network class.
    pub class: NetClass,
    /// HTTP service deployed.
    pub http: bool,
    /// TLS service deployed.
    pub tls: bool,
}

/// Evaluation metadata for one host.
#[derive(Debug, Clone)]
pub struct HostMeta {
    /// AS number.
    pub asn: u32,
    /// AS operator name.
    pub as_name: String,
    /// Network class.
    pub class: NetClass,
    /// PTR record, if the network sets one.
    pub rdns: Option<String>,
    /// Canonical web domain for this host (vhost / SNI name).
    pub domain: String,
}

mod purpose {
    pub const DENSITY: u64 = 0x01;
    pub const COHORT: u64 = 0x02;
    pub const LINK: u64 = 0x03;
    pub const MTU: u64 = 0x04;
    pub const DOMAIN: u64 = 0x05;
}

/// The synthetic Internet.
#[derive(Debug, Clone)]
pub struct Population {
    config: PopulationConfig,
    registry: Registry,
}

impl Population {
    /// Build the population (cheap: only the registry is materialized).
    pub fn new(config: PopulationConfig) -> Population {
        let registry = Registry::build(config.space_size, config.target_responsive, config.seed);
        Population { config, registry }
    }

    /// The registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The config.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Scan-space size.
    pub fn space_size(&self) -> u32 {
        self.config.space_size
    }

    /// The AS and cohort behind `ip`, if a responsive host lives there.
    pub fn cohort_at(&self, ip: u32) -> Option<(&AsSpec, &'static CohortSpec)> {
        let spec = self.registry.as_of(ip)?;
        let mut density = HashStream::new(self.config.seed, ip, purpose::DENSITY);
        if density.next_f64() >= spec.density {
            return None;
        }
        let mut pick = HashStream::new(self.config.seed, ip, purpose::COHORT);
        let idx = pick.weighted_index(spec.cohort_weights());
        Some((spec, &spec.class.cohorts()[idx]))
    }

    /// Whether a responsive host lives at `ip`.
    pub fn responsive(&self, ip: u32) -> bool {
        self.cohort_at(ip).is_some()
    }

    /// The canonical web domain of the host at `ip` (used for vhost
    /// redirect targets and as the Alexa/SNI name).
    pub fn canonical_domain(&self, ip: u32) -> Option<String> {
        let (spec, _) = self.cohort_at(ip)?;
        let mut s = HashStream::new(self.config.seed, ip, purpose::DOMAIN);
        Some(format!(
            "site-{:06x}.{}",
            s.next_u64() & 0xff_ffff,
            spec.domain
        ))
    }

    /// Path MTU towards `ip` (footnote-1 model: 80 % of paths carry
    /// 1500 B, 19 % 1400 B, 1 % 1280 B ⇒ 99 % support MSS 1336 and
    /// 80 % support MSS 1436).
    pub fn path_mtu(&self, ip: u32) -> u32 {
        let mut s = HashStream::new(self.config.seed, ip, purpose::MTU);
        let r = s.next_f64();
        if r < 0.80 {
            1500
        } else if r < 0.99 {
            1400
        } else {
            1280
        }
    }

    /// The full host configuration at `ip`.
    pub fn host_config(&self, ip: u32) -> Option<HostConfig> {
        self.host_config_on(ip, None)
    }

    /// The host configuration at `ip` with only the service on `port`
    /// when one is named: what a scan of that port can reach.
    pub fn host_config_on(&self, ip: u32, port: Option<u16>) -> Option<HostConfig> {
        let (spec, cohort) = self.cohort_at(ip)?;
        let domain = self.canonical_domain(ip)?;
        Some(cohort.host_config_on(
            self.config.seed,
            ip,
            spec.class.server_header(),
            &domain,
            self.path_mtu(ip),
            port,
        ))
    }

    /// Ground truth (evaluation only).
    pub fn ground_truth(&self, ip: u32) -> Option<GroundTruth> {
        let (spec, cohort) = self.cohort_at(ip)?;
        Some(GroundTruth {
            iw: cohort.iw,
            cohort: cohort.tag,
            asn: spec.asn,
            class: spec.class,
            http: cohort.http.is_some(),
            tls: cohort.tls.is_some(),
        })
    }

    /// Evaluation metadata.
    pub fn meta(&self, ip: u32) -> Option<HostMeta> {
        let (spec, _) = self.cohort_at(ip)?;
        let domain = self.canonical_domain(ip)?;
        Some(HostMeta {
            asn: spec.asn,
            as_name: spec.name.clone(),
            class: spec.class,
            rdns: spec.rdns_for(ip),
            domain,
        })
    }

    /// The link towards `ip`: latency/jitter/loss by network class,
    /// deterministic per address.
    pub fn link_config(&self, ip: u32) -> LinkConfig {
        let class = self
            .registry
            .as_of(ip)
            .map(|a| a.class)
            .unwrap_or(NetClass::Backbone);
        let mut s = HashStream::new(self.config.seed, ip, purpose::LINK);
        let (lat_lo, lat_hi, loss) = match class {
            NetClass::Cloud
            | NetClass::Cdn
            | NetClass::CdnAkamai
            | NetClass::CloudAzure
            | NetClass::HosterGoDaddy
            | NetClass::Hosting => (5u64, 60u64, 0.002),
            NetClass::University => (10, 80, 0.003),
            NetClass::Access | NetClass::Backbone => (30, 180, 0.010),
            NetClass::AccessModems | NetClass::Embedded => (60, 250, 0.020),
        };
        LinkConfig {
            latency: Duration::from_millis(s.next_range(lat_lo, lat_hi)),
            jitter: Duration::from_millis(s.next_range(1, 8)),
            loss: loss * self.config.loss_scale,
            ..LinkConfig::default()
        }
    }

    /// Count responsive hosts by brute force (tests / small spaces only).
    pub fn census(&self) -> u64 {
        (0..self.space_size())
            .filter(|ip| self.responsive(*ip))
            .count() as u64
    }
}

/// `HostFactory` adapter for `iw-netsim`: spawns a [`Host`] with its link
/// when the scanner first touches an address.
#[derive(Clone)]
pub struct PopulationFactory {
    population: Arc<Population>,
    /// The one port whose service each host is built with, or `None`
    /// for every service.
    port: Option<u16>,
}

impl PopulationFactory {
    /// Wrap a shared population; hosts run every service they deploy.
    pub fn new(population: Arc<Population>) -> PopulationFactory {
        PopulationFactory {
            population,
            port: None,
        }
    }

    /// Wrap a shared population for a scan of `port`: a host is built
    /// with that port's service only (none for a port the study does not
    /// probe), so it holds nothing the scan cannot reach. Any other port
    /// answers a SYN with a RST.
    pub fn on_port(population: Arc<Population>, port: u16) -> PopulationFactory {
        PopulationFactory {
            population,
            port: Some(port),
        }
    }

    /// The underlying population.
    pub fn population(&self) -> &Arc<Population> {
        &self.population
    }
}

impl HostFactory for PopulationFactory {
    fn create(&mut self, ip: u32) -> Option<(Box<dyn Endpoint>, LinkConfig)> {
        let config = self.population.host_config_on(ip, self.port)?;
        let host = Host::new(Ipv4Addr::from_u32(ip), config, self.population.config.seed);
        Some((Box::new(host), self.population.link_config(ip)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Population {
        Population::new(PopulationConfig::tiny(11))
    }

    #[test]
    fn census_near_target() {
        let p = pop();
        let n = p.census();
        let target = f64::from(p.config().target_responsive);
        assert!(
            (target * 0.8..target * 1.25).contains(&(n as f64)),
            "census {n} vs target {target}"
        );
    }

    #[test]
    fn determinism() {
        let a = pop();
        let b = pop();
        for ip in (0..a.space_size()).step_by(97) {
            assert_eq!(a.host_config(ip), b.host_config(ip));
        }
    }

    #[test]
    fn ground_truth_consistent_with_config() {
        let p = pop();
        let mut checked = 0;
        for ip in 0..p.space_size() {
            if let Some(gt) = p.ground_truth(ip) {
                let cfg = p.host_config(ip).unwrap();
                assert_eq!(cfg.iw, gt.iw);
                assert_eq!(cfg.http.is_some(), gt.http);
                assert_eq!(cfg.tls.is_some(), gt.tls);
                checked += 1;
                if checked > 500 {
                    break;
                }
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn iw_mix_is_plausible() {
        let p = pop();
        let mut iw10 = 0u32;
        let mut total = 0u32;
        for ip in 0..p.space_size() {
            if let Some(gt) = p.ground_truth(ip) {
                total += 1;
                if gt.iw == IwPolicy::Segments(10) {
                    iw10 += 1;
                }
            }
        }
        let frac = f64::from(iw10) / f64::from(total);
        assert!(
            (0.35..0.75).contains(&frac),
            "IW10 host share {frac} out of calibration band"
        );
    }

    #[test]
    fn path_mtu_distribution() {
        let p = pop();
        let mut counts = std::collections::HashMap::new();
        for ip in 0..50_000u32 {
            *counts.entry(p.path_mtu(ip)).or_insert(0u32) += 1;
        }
        let frac_1500 = f64::from(counts[&1500]) / 50_000.0;
        assert!((0.78..0.82).contains(&frac_1500), "{frac_1500}");
        let ge_1376 = f64::from(counts[&1500] + counts.get(&1400).copied().unwrap_or(0)) / 50_000.0;
        assert!(ge_1376 > 0.985, "99% must support MSS 1336 ({ge_1376})");
    }

    #[test]
    fn factory_spawns_hosts_only_where_responsive() {
        let p = Arc::new(pop());
        let mut factory = PopulationFactory::new(p.clone());
        let mut spawned = 0;
        let mut empty = 0;
        for ip in 0..p.space_size() {
            if p.responsive(ip) {
                if spawned < 20 {
                    assert!(factory.create(ip).is_some());
                    spawned += 1;
                }
            } else if empty < 20 {
                assert!(factory.create(ip).is_none());
                empty += 1;
            }
            if spawned >= 20 && empty >= 20 {
                break;
            }
        }
        assert_eq!((spawned, empty), (20, 20));
    }

    #[test]
    fn a_host_built_for_one_port_runs_only_that_service() {
        use iw_netsim::{Effects, Instant};
        use iw_wire::tcp::{self, Flags};
        use iw_wire::{ipv4, IpProtocol};

        let p = pop();
        let ip = (0..p.space_size())
            .find(|&ip| p.ground_truth(ip).is_some_and(|gt| gt.http && gt.tls))
            .unwrap();
        let http_only = p.host_config_on(ip, Some(80)).unwrap();
        let full = p.host_config(ip).unwrap();
        assert_eq!(
            http_only.http, full.http,
            "the service built is the full one's"
        );
        assert_eq!(http_only.tls, None);
        let tls_only = p.host_config_on(ip, Some(443)).unwrap();
        assert_eq!((tls_only.http, tls_only.tls), (None, full.tls));
        let neither = p.host_config_on(ip, Some(0)).unwrap();
        assert_eq!((neither.http, neither.tls), (None, None));

        // A SYN to 443: a RST from the host built for port 80, a SYN-ACK
        // from the one built with every service.
        let scanner = Ipv4Addr::new(192, 0, 2, 1);
        let syn = tcp::Repr {
            options: vec![tcp::TcpOption::Mss(64)],
            ..tcp::Repr::bare(40000, 443, 100, 0, Flags::SYN, 65535)
        };
        let l4 = syn.emit(scanner, Ipv4Addr::from_u32(ip));
        let repr = ipv4::Repr {
            src_addr: scanner,
            dst_addr: Ipv4Addr::from_u32(ip),
            protocol: IpProtocol::Tcp,
            payload_len: l4.len(),
            ttl: 64,
        };
        let datagram = ipv4::build_datagram(&repr, 7, &l4);
        let answer = |factory: &mut PopulationFactory| {
            let (mut host, _) = factory.create(ip).unwrap();
            let mut fx = Effects::default();
            host.on_packet(&datagram, Instant::ZERO, &mut fx);
            assert_eq!(fx.tx.len(), 1);
            let packet = ipv4::Packet::new_checked(&fx.tx[0][..]).unwrap();
            let seg = tcp::Packet::new_checked(packet.payload()).unwrap();
            tcp::Repr::parse(&seg, packet.src_addr(), packet.dst_addr())
                .unwrap()
                .flags
        };
        let p = Arc::new(p);
        let on_80 = answer(&mut PopulationFactory::on_port(p.clone(), 80));
        assert_eq!(on_80, Flags::RST | Flags::ACK);
        let every = answer(&mut PopulationFactory::new(p));
        assert_eq!(every, Flags::SYN | Flags::ACK);
    }

    #[test]
    fn loss_scale_zero_means_lossless() {
        let p = pop();
        for ip in (0..p.space_size()).step_by(1009) {
            assert_eq!(p.link_config(ip).loss, 0.0);
        }
        let lossy = Population::new(PopulationConfig {
            loss_scale: 1.0,
            ..PopulationConfig::tiny(11)
        });
        let any_loss = (0..lossy.space_size())
            .step_by(1009)
            .any(|ip| lossy.link_config(ip).loss > 0.0);
        assert!(any_loss);
    }

    #[test]
    fn domains_are_per_host_and_stable() {
        let p = pop();
        let ip = (0..p.space_size()).find(|ip| p.responsive(*ip)).unwrap();
        assert_eq!(p.canonical_domain(ip), p.canonical_domain(ip));
        let other = (ip + 1..p.space_size())
            .find(|ip| p.responsive(*ip))
            .unwrap();
        assert_ne!(p.canonical_domain(ip), p.canonical_domain(other));
    }
}
