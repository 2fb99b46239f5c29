//! Failure injection: loss, reordering, duplication, blacklists — the
//! estimator must stay correct or degrade loudly, never silently wrong
//! (except tail loss, which is the documented failure mode).

use iw_core::blacklist::{CidrSet, ScanFilter};
use iw_core::testbed::{probe_host, TestbedSpec};
use iw_core::{MssVerdict, Protocol, RunDisposition, ScanConfig, ScanRunner};
use iw_hoststack::{HostConfig, IwPolicy};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::{Duration, LinkConfig};
use iw_wire::ipv4::{Cidr, Ipv4Addr};
use std::sync::Arc;

fn iw10_host() -> HostConfig {
    let mut h = HostConfig::simple_web(60_000);
    h.iw = IwPolicy::Segments(10);
    h
}

#[test]
fn heavy_jitter_reordering_does_not_break_estimates() {
    // Jitter far beyond the inter-segment gap: segments arrive shuffled.
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig {
        latency: Duration::from_millis(5),
        jitter: Duration::from_millis(40),
        loss: 0.0,
        dup: 0.0,
        ..LinkConfig::default()
    };
    for seed in 0..10 {
        spec.seed = 100 + seed;
        let (result, _) = probe_host(&spec);
        assert_eq!(
            result.unwrap().primary_verdict(),
            Some(MssVerdict::Success(10)),
            "seed {seed}"
        );
    }
}

#[test]
fn duplication_does_not_inflate_estimates() {
    // Network duplicates look like retransmissions; the estimate must
    // never EXCEED the true IW because of them (dup ends the count early
    // at worst).
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig {
        latency: Duration::from_millis(5),
        jitter: Duration::ZERO,
        loss: 0.0,
        dup: 0.10,
        ..LinkConfig::default()
    };
    for seed in 0..10 {
        spec.seed = 200 + seed;
        let (result, _) = probe_host(&spec);
        if let Some(MssVerdict::Success(iw)) = result.unwrap().primary_verdict() {
            assert!(iw <= 10, "overestimate under duplication: {iw}");
        }
    }
}

#[test]
fn moderate_loss_mostly_recovered_by_voting() {
    let mut correct = 0;
    let trials = 30;
    for seed in 0..trials {
        let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
        spec.link = LinkConfig::testbed().with_loss(0.02);
        spec.seed = 300 + seed;
        let (result, _) = probe_host(&spec);
        if result.and_then(|r| r.iw_estimate()) == Some(10) {
            correct += 1;
        }
    }
    // Seeds 300–329 recover 25; seeds 340–739 recovered 348 of 400.
    assert!(
        correct >= trials * 8 / 10,
        "only {correct}/{trials} correct under 2% loss"
    );
}

#[test]
fn estimates_never_exceed_ground_truth_under_loss() {
    // Loss can only remove segments from the flight: any successful
    // estimate must be ≤ the configured IW.
    for seed in 0..30 {
        let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
        spec.link = LinkConfig::testbed().with_loss(0.08);
        spec.seed = 400 + seed;
        let (result, _) = probe_host(&spec);
        if let Some(result) = result {
            for (_, outcomes) in &result.runs {
                for o in outcomes {
                    if let iw_core::ProbeOutcome::Success { segments, .. } = o {
                        assert!(*segments <= 10, "overestimate {segments} (seed {seed})");
                    }
                }
            }
        }
    }
}

#[test]
fn first_syn_loss_misses_the_host_like_zmap() {
    // ZMap never retries SYNs: losing the very first one (forward
    // packet 0) means the host is simply not in the result set.
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig::testbed().with_forward_drop(0);
    let (result, _) = probe_host(&spec);
    assert!(result.is_none(), "no session without the first SYN-ACK");
}

#[test]
fn mid_session_syn_loss_costs_a_probe_not_the_host() {
    // Probe 1's forward packets: SYN(0), ACK+request(1), verify-ACK(2),
    // RST(3). Dropping index 4 kills probe 2's SYN: that probe times out
    // as a handshake failure, the rest proceed, and the vote still
    // succeeds. (With `probe_retries` > 0 the probe would be retried on
    // a fresh source port instead — see the fault matrix.)
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig::testbed().with_forward_drop(4);
    let (result, _) = probe_host(&spec);
    let result = result.expect("session exists from probe 1");
    assert_eq!(result.primary_verdict(), Some(MssVerdict::Success(10)));
    let timed_out = result
        .runs
        .iter()
        .flat_map(|(_, o)| o)
        .filter(|o| {
            matches!(
                o,
                iw_core::ProbeOutcome::Error {
                    kind: iw_core::ErrorKind::HandshakeTimeout
                }
            )
        })
        .count();
    assert_eq!(timed_out, 1, "exactly the sabotaged probe is lost");
}

#[test]
fn blacklisted_ranges_are_never_touched() {
    let pop = Arc::new(Population::new(PopulationConfig::tiny(0xb1)));
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 1);
    config.rate_pps = 2_000_000;
    // Blacklist the lower half of the space.
    let half = Cidr::new(Ipv4Addr::from_u32(0), 16); // 0..65536 of a 2^17 space
    config.filter = ScanFilter {
        whitelist: CidrSet::new(),
        blacklist: CidrSet::from_cidrs(&[half]),
    };
    let out = ScanRunner::new(&pop).config(config).run();
    assert!(out.summary.targets > 0);
    for r in &out.results {
        assert!(r.ip >= 1 << 16, "blacklisted address {} was scanned", r.ip);
    }
}

#[test]
fn lossy_population_scan_remains_sane() {
    // A whole-world scan with calibrated loss: categories stay sane and
    // estimates still never exceed ground truth.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 77,
        space_size: 1 << 15,
        target_responsive: 600,
        loss_scale: 1.0,
    }));
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 77);
    config.rate_pps = 2_000_000;
    let out = ScanRunner::new(&pop).config(config).run();
    assert!(out.summary.reachable > 100);
    // Completed: the driver's truth tally found no overestimate (loss
    // must never inflate estimates) and no spurious record.
    let violations = out.telemetry.violations();
    assert_eq!(out.disposition, RunDisposition::Completed, "{violations:?}");
    assert!(
        out.telemetry.truth().exact > 100,
        "{:?}",
        out.telemetry.truth()
    );
}

#[test]
fn tail_loss_is_the_known_failure_mode_and_only_that() {
    // Tail loss on the first probe alone: that probe reads one segment
    // short, undetectably (§3.5), and the maximum vote rescues it.
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig::testbed().with_reverse_drop(10);
    let result = probe_host(&spec).0.unwrap();
    assert!(
        matches!(
            result.runs[0].1[0],
            iw_core::ProbeOutcome::Success { segments: 9, .. }
        ),
        "{:?}",
        result.runs[0]
    );
    assert_eq!(result.primary_verdict(), Some(MssVerdict::Success(10)));

    // With tail loss on all three probes of the MSS-64 run, the vote
    // converges on the (wrong) consistent underestimate — exactly what
    // the paper warns about. The test pins the failure mode.
    let mut spec = TestbedSpec::new(iw10_host(), Protocol::Http);
    spec.link = LinkConfig::testbed()
        .with_reverse_drop(10)
        .with_reverse_drop(23)
        .with_reverse_drop(36);
    let (result, _) = probe_host(&spec);
    let result = result.unwrap();
    match result.primary_verdict().unwrap() {
        MssVerdict::Success(9) => {} // consistent underestimate
        other => panic!("expected the documented underestimate, got {other:?}"),
    }
}
