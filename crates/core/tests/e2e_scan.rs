//! End-to-end scans of small synthetic populations: the scanner must
//! recover configured initial windows through real packet exchanges.

use iw_core::session::MAX_PROBES_PER_HOST;
use iw_core::{
    ConfigError, HostVerdict, Protocol, RunDisposition, ScanConfig, ScanOutput, ScanRunner,
    Topology,
};
use iw_hoststack::IwPolicy;
use iw_internet::{Population, PopulationConfig};
use std::sync::Arc;

fn tiny_population(seed: u64) -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed,
        space_size: 1 << 15,
        target_responsive: 600,
        loss_scale: 0.0,
    }))
}

fn scan(pop: &Arc<Population>, protocol: Protocol, seed: u64) -> ScanOutput {
    let mut config = ScanConfig::study(protocol, pop.space_size(), seed);
    config.rate_pps = 2_000_000; // compress virtual time for tests
    ScanRunner::new(pop).config(config).run()
}

/// A lossless world: the run completes (so no verdict overestimates and
/// no record is spurious or duplicated), every verdict is exact or
/// inconclusive, and every host has a record.
fn assert_recovers_ground_truth(out: &ScanOutput) {
    let violations = out.telemetry.violations();
    assert_eq!(out.disposition, RunDisposition::Completed, "{violations:?}");
    let c = out.telemetry.truth();
    assert!(c.exact > 50, "expected many exact recoveries: {c:?}");
    assert_eq!(
        (c.underestimate, c.missed),
        (0, 0),
        "lossless world must be exact: {c:?}"
    );
}

#[test]
fn http_scan_recovers_ground_truth_iws() {
    let pop = tiny_population(0xabc);
    let out = scan(&pop, Protocol::Http, 0xabc);
    assert!(
        out.summary.reachable > 100,
        "reachable {}",
        out.summary.reachable
    );
    assert_recovers_ground_truth(&out);
}

#[test]
fn tls_scan_recovers_ground_truth_iws() {
    let pop = tiny_population(0xdef);
    let out = scan(&pop, Protocol::Tls, 0xdef);
    assert!(out.summary.reachable > 50);
    let (success, few, err) = out.summary.rates();
    assert!(success > 50.0, "TLS success rate {success}");
    assert!(few < 45.0, "TLS few-data rate {few}");
    assert!(err < 20.0, "TLS error rate {err}");
    assert_recovers_ground_truth(&out);
}

/// The truth tally counts a host as missed only if the scan targeted
/// it: a quarter sample of a lossless world misses nothing, although
/// three quarters of the world's hosts have no record.
#[test]
fn a_sampled_scan_misses_no_host_it_targeted() {
    let pop = tiny_population(0x25);
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0x25);
    config.rate_pps = 2_000_000;
    config.sample_fraction = 0.25;
    let out = ScanRunner::new(&pop).config(config).run();
    assert_eq!(out.disposition, RunDisposition::Completed);
    let c = out.telemetry.truth();
    assert!(c.exact > 0, "{c:?}");
    assert_eq!(c.missed, 0, "{c:?}");
    let hosts = (0..pop.space_size())
        .filter(|ip| pop.ground_truth(*ip).is_some_and(|gt| gt.http))
        .count() as u64;
    let tallied = c.exact + c.underestimate + c.overestimate + c.inconclusive;
    assert!(tallied * 2 < hosts, "{tallied} of {hosts} hosts tallied");
}

#[test]
fn byte_based_hosts_are_detected() {
    let pop = tiny_population(0x777);
    let out = scan(&pop, Protocol::Http, 0x777);
    let mut byte_based = Vec::new();
    for r in &out.results {
        if let HostVerdict::ByteBased(bytes) = r.host_verdict {
            byte_based.push((r.ip, bytes));
        }
    }
    // The modem fleet is 1.5% of hosts; some must show up and be 4096 or
    // 1536 bytes exactly.
    assert!(
        !byte_based.is_empty(),
        "no byte-limited hosts found among {} results",
        out.results.len()
    );
    for (ip, bytes) in &byte_based {
        let gt = pop.ground_truth(*ip).unwrap();
        match gt.iw {
            IwPolicy::Bytes(b) => assert_eq!(*bytes, b, "ip {ip}"),
            IwPolicy::MtuFill(b) => assert_eq!(*bytes, b, "ip {ip}"),
            other => panic!("segment-policy host {ip} misdetected as byte-based ({other:?})"),
        }
    }
}

#[test]
fn segment_based_hosts_report_same_iw_at_both_mss() {
    let pop = tiny_population(0x31415);
    let out = scan(&pop, Protocol::Http, 0x31415);
    let mut seg_checked = 0;
    for r in &out.results {
        if let HostVerdict::SegmentBased(iw) = r.host_verdict {
            let gt = pop.ground_truth(r.ip).unwrap();
            if let IwPolicy::Segments(n) = gt.iw {
                assert_eq!(iw, n, "ip {}", r.ip);
                seg_checked += 1;
            }
        }
    }
    assert!(seg_checked > 20, "checked only {seg_checked}");
}

#[test]
fn sharded_scan_equals_single_thread() {
    let pop = tiny_population(0x51);
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0x51);
    config.rate_pps = 2_000_000;
    let single = ScanRunner::new(&pop).config(config.clone()).run();
    let sharded = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(4))
        .run();
    assert_eq!(single.results.len(), sharded.results.len());
    for (a, b) in single.results.iter().zip(&sharded.results) {
        assert_eq!(a.ip, b.ip);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.host_verdict, b.host_verdict);
    }
    assert_eq!(single.summary.success, sharded.summary.success);
}

#[test]
fn determinism_same_seed_same_results() {
    let pop = tiny_population(0x99);
    let a = scan(&pop, Protocol::Http, 0x99);
    let b = scan(&pop, Protocol::Http, 0x99);
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.ip, y.ip);
        assert_eq!(x.verdicts, y.verdicts);
    }
    assert_eq!(a.duration, b.duration);
}

#[test]
fn port_scan_finds_open_ports() {
    let pop = tiny_population(0x42);
    let out = scan(&pop, Protocol::PortScan, 0x42);
    assert!(!out.open_ports.is_empty());
    for ip in &out.open_ports {
        let gt = pop.ground_truth(*ip).expect("open port implies host");
        assert!(gt.http, "port 80 open implies HTTP service, ip {ip}");
    }
    // Every HTTP host that exists must be found (lossless world).
    let http_hosts = (0..pop.space_size())
        .filter(|ip| pop.ground_truth(*ip).is_some_and(|g| g.http))
        .count();
    assert_eq!(out.open_ports.len(), http_hosts);
}

#[test]
fn icmp_mtu_scan_matches_population_model() {
    let pop = tiny_population(0x88);
    let out = scan(&pop, Protocol::IcmpMtu, 0x88);
    assert!(!out.mtu_results.is_empty());
    for r in &out.mtu_results {
        assert_eq!(r.mtu, pop.path_mtu(r.ip), "ip {}", r.ip);
    }
}

#[test]
fn sampling_one_percent_yields_similar_distribution() {
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x1234,
        space_size: 1 << 18,
        target_responsive: 6_000,
        loss_scale: 0.0,
    }));
    let full = scan(&pop, Protocol::Http, 0x1234);
    let mut sampled_cfg = ScanConfig::study(Protocol::Http, pop.space_size(), 0x1234);
    sampled_cfg.rate_pps = 2_000_000;
    sampled_cfg.sample_fraction = 0.25; // 25% of a small world ≈ paper's 1% of IPv4
    let sampled = ScanRunner::new(&pop).config(sampled_cfg).run();

    let dist = |out: &iw_core::ScanOutput| {
        let mut hist = std::collections::HashMap::new();
        let mut n = 0u64;
        for r in &out.results {
            if let Some(iw) = r.iw_estimate() {
                *hist.entry(iw).or_insert(0u64) += 1;
                n += 1;
            }
        }
        (hist, n)
    };
    let (fh, fn_) = dist(&full);
    let (sh, sn) = dist(&sampled);
    assert!(sn > 200, "sample too small: {sn}");
    for iw in [1u32, 2, 4, 10] {
        let f = *fh.get(&iw).unwrap_or(&0) as f64 / fn_ as f64;
        let s = *sh.get(&iw).unwrap_or(&0) as f64 / sn as f64;
        assert!((f - s).abs() < 0.06, "IW{iw}: full {f:.3} vs sample {s:.3}");
    }
}

/// FNV-1a, 64 bit: a digest of the `--json` bytes of a scan's records.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One scan of a lossy world with `mss_list` × `probes` per host: its
/// record count and the digest of its records.
fn plan_scan(mss_list: &[u16], probes: u32) -> (usize, u64) {
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x91a,
        space_size: 1 << 14,
        target_responsive: 300,
        loss_scale: 1.5,
    }));
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0x91a);
    config.rate_pps = 2_000_000;
    config.mss_list = mss_list.to_vec();
    config.probes_per_mss = probes;
    assert_eq!(config.validate(), Ok(()), "{mss_list:?} x {probes}");
    let out = ScanRunner::new(&pop).config(config).run();
    let json = iw_core::HostResult::array_to_json(&out.results);
    (out.results.len(), fnv1a(json.as_bytes()))
}

#[test]
fn probe_plans_fit_the_sessions_outcome_store() {
    // A session holds its outcomes in place, sized for the study's plan:
    // two MSS values, three probes each. That capacity is accepted in
    // any shape; one probe more is refused by name.
    assert_eq!(MAX_PROBES_PER_HOST, 6);
    let mut config = ScanConfig::study(Protocol::Http, 1 << 14, 7);
    assert_eq!(config.validate(), Ok(()));
    config.mss_list = vec![64];
    config.probes_per_mss = 6;
    assert_eq!(config.validate(), Ok(()));
    config.probes_per_mss = 7;
    let err = config.validate().unwrap_err();
    assert_eq!(err, ConfigError::TooManyProbes(7));
    assert_eq!(
        err.to_string(),
        "mss_list × probes_per_mss = 7 probes per host, above the maximum of 6"
    );
    config.mss_list = vec![64, 128, 256];
    config.probes_per_mss = 3;
    assert_eq!(config.validate(), Err(ConfigError::TooManyProbes(9)));

    // Every plan in use gives the records it gave while a session kept
    // its outcomes in one vector per MSS (digests recorded from that
    // build): the study's 2 x 3, the checkpoint test's 2 x 2 and the
    // ablations' 1 x 1 and 1 x 3, under loss, so that the votes differ.
    for (mss_list, probes, want) in [
        (&[64, 128][..], 3, 3_025_215_851_574_969_474),
        (&[64, 1460][..], 2, 17_145_190_594_417_395_164),
        (&[64][..], 1, 9_899_054_736_475_314_557),
        (&[64][..], 3, 11_807_463_095_664_494_118),
    ] {
        assert_eq!(
            plan_scan(mss_list, probes),
            (982, want),
            "{mss_list:?} x {probes}"
        );
    }
}

/// `ScanRunner` builds each host with only the scanned port's service.
/// That changes no record: a scan of the small world writes the same
/// per-host records under one-service hosts as under hosts built with
/// every service they deploy.
fn assert_one_service_hosts_change_no_record(protocol: Protocol) {
    use iw_core::Scanner;
    use iw_internet::population::PopulationFactory;
    use iw_netsim::{Sim, SimConfig};

    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x1307_2017,
        space_size: 1 << 17,
        target_responsive: 2_500,
        loss_scale: 0.0,
    }));
    let mut config = ScanConfig::study(protocol, pop.space_size(), 7);
    config.rate_pps = 2_000_000;
    let records = |factory: PopulationFactory| {
        let sim_config = SimConfig {
            seed: config.seed,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(Scanner::new(config.clone()), factory, sim_config);
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        sim.run_to_completion();
        assert_eq!(Scanner::harvest(&mut sim).violations(), []);
        let (results, _, _) = sim.scanner_mut().take_records();
        let mut json = String::new();
        for result in &results {
            result.write_json(&mut json);
            json.push('\n');
        }
        (results.len(), json)
    };
    let every = records(PopulationFactory::new(pop.clone()));
    let one = records(PopulationFactory::on_port(pop.clone(), protocol.port()));
    assert!(every.0 > 1_000, "{protocol:?}: {} records", every.0);
    assert!(one == every, "{protocol:?}: the records differ");
}

#[test]
fn one_service_hosts_change_no_http_record() {
    assert_one_service_hosts_change_no_record(Protocol::Http);
}

#[test]
fn one_service_hosts_change_no_tls_record() {
    assert_one_service_hosts_change_no_record(Protocol::Tls);
}
