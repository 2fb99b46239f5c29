//! Fault-injection matrix: the resilience layer exercised against
//! simulated network pathologies — Bernoulli loss, scripted tail loss,
//! duplication + jitter reordering, ICMP-unreachable cohorts, SYN-ACK
//! floods and mid-connection resets — with retries on and off.
//!
//! Every scenario is deterministic per seed: identical configurations
//! must produce byte-identical results and canonical metrics.

use iw_core::telemetry::{FlightEntry, IcmpHarvest, OutcomeKind, SessionEvent, Snapshot};
use iw_core::testbed::{probe_host, TestbedSpec};
use iw_core::{
    summarize, Confusion, ErrorKind, HostResult, MssVerdict, Protocol, ResilienceConfig,
    ScanConfig, ScanTelemetry, Scanner,
};
use iw_hoststack::{ChaosHost, ChaosMode, Host, HostConfig, HttpBehavior, IwPolicy};
use iw_netsim::{Duration, Effects, Endpoint, Instant, LinkConfig, Sim, SimConfig, TimerToken};
use iw_wire::ipv4::{self, Ipv4Addr};
use iw_wire::tcp::{self, Flags};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Ground-truth IW assignment: a deterministic mix of common policies.
fn iw_for(ip: u32) -> u32 {
    [2, 3, 4, 10][ip as usize % 4]
}

fn web_host(ip: u32, seed: u64) -> Box<dyn Endpoint> {
    let mut config = HostConfig::simple_web(60_000);
    config.iw = IwPolicy::Segments(iw_for(ip));
    Box::new(Host::new(Ipv4Addr::from_u32(ip), config, seed))
}

fn scan_config(space: u32, seed: u64) -> ScanConfig {
    let mut config = ScanConfig::study(Protocol::Http, space, seed);
    config.rate_pps = 2_000_000; // compress virtual time
    config
}

/// Run a scan against a custom host factory; returns sorted results and
/// the metrics snapshot of a world whose books balance.
fn run_matrix<F>(config: ScanConfig, factory: F) -> (Vec<HostResult>, Snapshot, u64, u64)
where
    F: FnMut(u32) -> Option<(Box<dyn Endpoint>, LinkConfig)>,
{
    let seed = config.seed;
    let scanner = Scanner::new(config);
    let mut sim = Sim::new(
        scanner,
        factory,
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    let telemetry = Scanner::harvest(&mut sim);
    assert_eq!(telemetry.violations(), []);
    let scanner = sim.scanner();
    let mut results = scanner.results().to_vec();
    results.sort_by_key(|r| r.ip);
    let (sent, refused) = (scanner.targets_sent(), scanner.refused());
    (results, telemetry.metrics, sent, refused)
}

/// Fraction of results whose primary verdict matches the ground truth,
/// and the confusion it is read from.
fn accuracy(results: &[HostResult]) -> (f64, Confusion) {
    let c = Confusion::new(results.iter().map(|r| r.ip), results, |ip, _| iw_for(ip));
    (c.exact as f64 / results.len().max(1) as f64, c)
}

/// Faults only take segments away or shuffle them: no verdict may exceed
/// the truth, and at most `underestimates` fall short — the count each
/// caller measures on its fixed seed.
fn assert_faults_bounded(c: &Confusion, underestimates: u64) {
    assert_eq!(c.overestimate, 0, "{c:?}");
    assert!(c.underestimate <= underestimates, "{c:?}");
}

// ---------------------------------------------------------------------
// Determinism: the whole matrix point is reproducibility per seed.
// ---------------------------------------------------------------------

#[test]
fn identical_seeds_give_byte_identical_outcomes() {
    let run = || {
        let mut config = scan_config(128, 0xfa07);
        config.resilience = ResilienceConfig::hardened();
        run_matrix(config, |ip| {
            Some((web_host(ip, 0xfa07), LinkConfig::default().with_loss(0.02)))
        })
    };
    let (r1, m1, sent1, refused1) = run();
    let (r2, m2, sent2, refused2) = run();
    assert_faults_bounded(&accuracy(&r1).1, 0);
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert_eq!(m1.to_canonical_json(), m2.to_canonical_json());
    let s1 = summarize(&r1, sent1, refused1);
    let s2 = summarize(&r2, sent2, refused2);
    assert_eq!(format!("{s1:?}"), format!("{s2:?}"));
}

// ---------------------------------------------------------------------
// Bernoulli loss × retries on/off.
// ---------------------------------------------------------------------

#[test]
fn bernoulli_loss_with_retries_meets_accuracy_floor() {
    let space = 300;
    let lossy = |seed: u64| {
        move |ip: u32| Some((web_host(ip, seed), LinkConfig::default().with_loss(0.02)))
    };

    let mut with_retries = scan_config(space, 0x10_55);
    with_retries.resilience = ResilienceConfig::hardened();
    let (on_results, on_metrics, ..) = run_matrix(with_retries, lossy(0x10_55));

    let without_retries = scan_config(space, 0x10_55);
    let (off_results, ..) = run_matrix(without_retries, lossy(0x10_55));

    // Retries only add discovery chances: every host found without them
    // is found with them (per-link loss draws are identical up to the
    // first divergence, which is the retry itself).
    assert!(
        on_results.len() >= off_results.len(),
        "retries lost hosts: {} < {}",
        on_results.len(),
        off_results.len()
    );
    // The §4 design goal under 2 % loss: ≥95 % of responding hosts
    // classified correctly when retries are enabled.
    let (acc, c) = accuracy(&on_results);
    assert!(acc >= 0.95, "accuracy {acc:.3} below 0.95 at 2% loss");
    assert_faults_bounded(&c, 0);
    // With SYN retries every target is eventually discovered here: the
    // chance of three straight SYN/SYN-ACK losses at 2 % is negligible
    // and the seed is fixed.
    assert_eq!(on_results.len(), space as usize);
    assert!(on_metrics.counter("scan.syn_retries") > 0);
}

// ---------------------------------------------------------------------
// Scripted tail loss: the vote must never inflate the verdict.
// ---------------------------------------------------------------------

#[test]
fn tail_loss_never_inflates_the_verdict() {
    for iw in [2u32, 4, 10] {
        for seed in [1u64, 2, 3] {
            let mut host = HostConfig::simple_web(60_000);
            host.iw = IwPolicy::Segments(iw);
            let mut spec = TestbedSpec::new(host, Protocol::Http);
            spec.seed = seed;
            // Reverse index 0 is the SYN-ACK; the first data flight is
            // 1..=iw, so index `iw` is the last IW segment — exact tail
            // loss on probe 0.
            spec.link = LinkConfig::testbed().with_reverse_drop(u64::from(iw));
            let (result, _) = probe_host(&spec);
            let result = result.expect("host answered");
            for (_, verdict) in &result.verdicts {
                if let MssVerdict::Success(s) = verdict {
                    assert!(
                        *s <= iw,
                        "tail loss inflated IW {iw} to {s} (seed {seed}): {:?}",
                        result.runs
                    );
                }
            }
            // The 2-of-3-maximum vote absorbs the single degraded probe.
            assert_eq!(
                result.primary_verdict(),
                Some(MssVerdict::Success(iw)),
                "vote failed to rescue IW {iw} (seed {seed}): {:?}",
                result.runs
            );
        }
    }
}

// ---------------------------------------------------------------------
// Duplication + jitter reordering: graceful degradation.
// ---------------------------------------------------------------------

#[test]
fn duplication_and_jitter_degrade_gracefully() {
    let space = 128;
    let mut config = scan_config(space, 0xd0b);
    config.resilience = ResilienceConfig::hardened();
    let link = LinkConfig {
        jitter: Duration::from_millis(3),
        dup: 0.02,
        ..LinkConfig::default()
    };
    let (results, ..) = run_matrix(config, |ip| Some((web_host(ip, 0xd0b), link.clone())));
    // Every host is discovered and every session concludes; reordering
    // may degrade individual probes but must not wedge or crash the scan.
    assert_eq!(results.len(), space as usize);
    let (acc, c) = accuracy(&results);
    assert!(acc >= 0.80, "accuracy {acc:.3} collapsed under dup+jitter");
    assert_faults_bounded(&c, 0);
}

// ---------------------------------------------------------------------
// ICMP-unreachable cohort: fast-fail instead of timing out.
// ---------------------------------------------------------------------

#[test]
fn unreachable_cohort_fast_fails_pending_targets() {
    let space = 128u32;
    let unreachable = |ip: u32| ip.is_multiple_of(4); // 25 % cohort
    let mut config = scan_config(space, 0x1c3);
    config.resilience = ResilienceConfig::hardened();
    let (results, metrics, ..) = run_matrix(config, |ip| {
        let host: Box<dyn Endpoint> = if unreachable(ip) {
            Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::IcmpUnreachable { code: 1 },
                0x1c3,
            ))
        } else {
            web_host(ip, 0x1c3)
        };
        Some((host, LinkConfig::testbed()))
    });
    let cohort = (0..space).filter(|ip| unreachable(*ip)).count() as u64;
    // Every unreachable target is fast-failed exactly once…
    assert_eq!(metrics.counter("scan.icmp_unreachable"), cohort);
    // …so no SYN-retry budget is wasted on it (and the responsive hosts
    // answer before their first retry fires).
    assert_eq!(metrics.counter("scan.syn_retries"), 0);
    // The responsive cohort is measured perfectly on clean links.
    assert_eq!(results.len(), (space as usize) - cohort as usize);
    let (acc, _) = accuracy(&results);
    assert!((acc - 1.0).abs() < f64::EPSILON, "accuracy {acc}");
}

#[test]
fn an_icmp_fast_fail_does_not_depend_on_telemetry_switches() {
    // Without SYN retries an unreachable target is not owed anything, so
    // its ICMP mints no verdict; RTT tracking and spans (which stamp
    // every SYN) must not change that.
    let space = 128u32;
    let scan = |telemetry: bool| {
        let mut config = scan_config(space, 0x1c3);
        config.telemetry.record_rtt = telemetry;
        config.telemetry.record_spans = telemetry;
        let (results, metrics, ..) = run_matrix(config, |ip| {
            let host: Box<dyn Endpoint> = if ip.is_multiple_of(4) {
                chaos(ip, ChaosMode::IcmpUnreachable { code: 1 }, 0x1c3)
            } else {
                web_host(ip, 0x1c3)
            };
            Some((host, LinkConfig::testbed()))
        });
        let counters: Vec<(String, u64)> = metrics
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("scan."))
            .map(|(name, (_, value))| (name, value))
            .collect();
        (counters, format!("{results:?}"))
    };
    let (quiet, observed) = (scan(false), scan(true));
    assert_eq!(quiet.0, observed.0, "scan.* counters");
    assert!(quiet.1 == observed.1, "results differ");
    let counter = |name: &str| quiet.0.iter().find(|(n, _)| n == name).map(|c| c.1);
    assert_eq!(
        counter("scan.icmp.unreachable_host"),
        Some(u64::from(space / 4))
    );
    assert_eq!(counter("scan.icmp_unreachable"), Some(0));
}

#[test]
fn source_quench_cohort_is_classified_not_fast_failed() {
    let space = 64u32;
    let quenched = |ip: u32| ip.is_multiple_of(4); // 25 % cohort
    let mut config = scan_config(space, 0x5c);
    config.resilience = ResilienceConfig::hardened();
    let seed = config.seed;
    let scanner = Scanner::new(config);
    let mut sim = Sim::new(
        scanner,
        |ip| {
            let host: Box<dyn Endpoint> = if quenched(ip) {
                // A rate-limiting router speaking for a silent target:
                // every SYN draws a burst of quenches, never a SYN-ACK.
                Box::new(ChaosHost::new(
                    Ipv4Addr::from_u32(ip),
                    ChaosMode::SourceQuench { burst: 3 },
                    0x5c,
                ))
            } else {
                web_host(ip, 0x5c)
            };
            Some((host, LinkConfig::testbed()))
        },
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    let telemetry = Scanner::harvest(&mut sim);
    let scanner = sim.scanner_mut();
    let metrics = scanner.metrics_snapshot();
    let cohort = (0..space).filter(|ip| quenched(*ip)).count() as u64;
    // 3 SYNs (initial + 2 retries) × burst 3 = 9 quenches per target.
    assert_eq!(metrics.counter("scan.icmp.source_quench"), cohort * 9);
    // Source quench is advisory (RFC 6633 deprecates reacting to it):
    // the scanner classifies, it must NOT fast-fail the target…
    assert_eq!(metrics.counter("scan.icmp_unreachable"), 0);
    // …so the quenched cohort burns its full SYN-retry budget.
    assert_eq!(metrics.counter("scan.syn_retries"), cohort * 2);
    // Nine messages per source crosses the rate-limiting signature
    // threshold: every cohort member is flagged, nobody else is.
    let harvest = &telemetry.icmp;
    for ip in 0..space {
        assert_eq!(harvest.is_rate_limited(ip), quenched(ip), "ip {ip}");
    }
    assert_eq!(harvest.rate_limited_sources(), cohort);
    // Every harvested message was a quench.
    let rates = IcmpHarvest::subtype_rates_per_10k(&telemetry.metrics);
    assert_eq!(rates, [0, 0, 0, 10_000, 0]);
    // The responsive cohort is still measured perfectly.
    let mut results = scanner.results().to_vec();
    results.sort_by_key(|r| r.ip);
    assert_eq!(results.len(), (space as usize) - cohort as usize);
    let (acc, _) = accuracy(&results);
    assert!((acc - 1.0).abs() < f64::EPSILON, "accuracy {acc}");
}

#[test]
fn mid_session_icmp_concludes_live_sessions() {
    let space = 32u32;
    let mut config = scan_config(space, 0x1c4);
    config.resilience = ResilienceConfig::hardened();
    let (results, metrics, sent, refused) = run_matrix(config, |ip| {
        Some((
            Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckThenIcmp {
                    after: Duration::from_millis(50),
                    code: 1,
                },
                0x1c4,
            )) as Box<dyn Endpoint>,
            LinkConfig::testbed(),
        ))
    });
    // Every session was force-concluded by the ICMP error — without
    // waiting out the 10 s collect timeout per probe.
    assert_eq!(results.len(), space as usize);
    assert_eq!(metrics.counter("scan.icmp_unreachable"), u64::from(space));
    let summary = summarize(&results, sent, refused);
    assert_eq!(
        summary.error_kinds.get(ErrorKind::IcmpUnreachable),
        u64::from(space) * 6,
        "all six probe slots recorded the ICMP failure: {summary:?}"
    );
    assert_eq!(
        metrics.counter("scan.probes.error_kinds.icmp_unreachable"),
        u64::from(space) * 6
    );
}

// ---------------------------------------------------------------------
// SYN-ACK flood: the session cap must bound memory and evict oldest.
// ---------------------------------------------------------------------

#[test]
fn synack_flood_is_bounded_by_session_cap() {
    let space = 400u32;
    let cap = 64usize;
    let mut config = scan_config(space, 0xf100d);
    config.resilience.max_sessions = cap;
    let (results, metrics, ..) = run_matrix(config, |ip| {
        Some((
            Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckBlackhole,
                0xf100d,
            )) as Box<dyn Endpoint>,
            LinkConfig::testbed(),
        ))
    });
    // Every flooder produced a record (evicted or starved out), the live
    // set never exceeded the cap, and evictions actually happened.
    assert_eq!(results.len(), space as usize);
    let peak = metrics
        .gauges
        .get("shard.sessions.live_peak")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(peak <= cap as u64, "live peak {peak} exceeded cap {cap}");
    assert!(
        metrics.counter("scan.sessions.evicted") > 0,
        "flood must trigger evictions"
    );
}

// ---------------------------------------------------------------------
// Mid-connection RSTs: retried, then classified.
// ---------------------------------------------------------------------

#[test]
fn rst_injection_is_retried_and_classified() {
    let space = 64u32;
    let mut config = scan_config(space, 0x27);
    config.resilience = ResilienceConfig::hardened();
    let (results, metrics, sent, refused) = run_matrix(config, |ip| {
        Some((
            Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckThenRst {
                    after: Duration::from_millis(50),
                },
                0x27,
            )) as Box<dyn Endpoint>,
            LinkConfig::testbed(),
        ))
    });
    assert_eq!(results.len(), space as usize);
    // Each probe burns its full retry budget (every connection is reset),
    // and the recorded failure is the reset, not a generic error.
    assert_eq!(
        metrics.counter("scan.probes.retried"),
        u64::from(space) * 6 * 2
    );
    let summary = summarize(&results, sent, refused);
    assert_eq!(
        summary.error_kinds.get(ErrorKind::MidConnectionReset),
        u64::from(space) * 6,
        "{summary:?}"
    );
}

// ---------------------------------------------------------------------
// The SYN stamps must stay bounded over silent space.
// ---------------------------------------------------------------------

#[test]
fn rtt_map_is_bounded_after_scanning_silent_space() {
    for retries in [0u32, 2] {
        let mut config = scan_config(1 << 10, 0x51137);
        config.telemetry.record_rtt = true;
        config.resilience.syn_retries = retries;
        let seed = config.seed;
        let scanner = Scanner::new(config);
        // The whole space is unrouted: every SYN vanishes.
        let factory = |_ip: u32| None;
        let mut sim = Sim::new(
            scanner,
            factory,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        );
        sim.kick_scanner(|s, now, fx| s.start(now, fx));
        sim.run_to_completion();
        let scanner = sim.scanner_mut();
        assert_eq!(scanner.targets_sent(), 1 << 10);
        assert_eq!(
            scanner.live_stamps(),
            0,
            "a SYN stamp leaked with syn_retries={retries}"
        );
    }
}

// ---------------------------------------------------------------------
// Cookie-gating: spoofed RSTs must never mint refusal verdicts.
// ---------------------------------------------------------------------

#[test]
fn spoofed_rsts_mint_no_refusal_verdicts() {
    // Regression for the headline bug: the PortScan (and pre-session
    // TCP) RST paths counted *any* RST to our source port as "refused"
    // without validating the cookie echo, so off-path backscatter could
    // mint refusal verdicts for hosts that never answered.
    for protocol in [Protocol::PortScan, Protocol::Http] {
        let space = 64u32;
        let spoofer = |ip: u32| ip.is_multiple_of(2);
        let mut config = ScanConfig::study(protocol, space, 0x5f00);
        config.rate_pps = 2_000_000;
        let (results, metrics, _sent, refused) = run_matrix(config, |ip| {
            let host: Box<dyn Endpoint> = if spoofer(ip) {
                Box::new(ChaosHost::new(
                    Ipv4Addr::from_u32(ip),
                    ChaosMode::SpoofedRst,
                    0x5f00,
                ))
            } else {
                web_host(ip, 0x5f00)
            };
            Some((host, LinkConfig::testbed()))
        });
        let cohort = (0..space).filter(|ip| spoofer(*ip)).count() as u64;
        assert_eq!(refused, 0, "{protocol:?}: spoofed RSTs minted refusals");
        assert_eq!(metrics.counter("scan.refused"), 0, "{protocol:?}");
        // One SYN per spoofer (no retries configured), each answered by
        // one cookie-less RST, each dropped and counted.
        assert_eq!(metrics.counter("scan.rst_ignored"), cohort, "{protocol:?}");
        // The honest cohort is unaffected.
        match protocol {
            Protocol::PortScan => assert!(results.is_empty()),
            _ => {
                assert_eq!(results.len(), (space - cohort as u32) as usize);
                let (acc, _) = accuracy(&results);
                assert!((acc - 1.0).abs() < f64::EPSILON, "accuracy {acc}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// The stateless sweep: adversarial cohorts, replayed answers, and the
// rate-bounded retry backlog.
// ---------------------------------------------------------------------

/// The adversarial world: four interleaved cohorts — honest web hosts,
/// SYN-ACKs acking the raw ISN, SYN-ACKs acking garbage, and cookie-less
/// RSTs. Shared by the 1-shard and 4-shard tests.
fn adversarial_factory(seed: u64) -> impl FnMut(u32) -> Option<(Box<dyn Endpoint>, LinkConfig)> {
    move |ip: u32| {
        let host: Box<dyn Endpoint> = match ip % 4 {
            0 => web_host(ip, seed),
            1 => Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckWrongAck { delta: 0 },
                seed,
            )),
            2 => Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckWrongAck { delta: 2 },
                seed,
            )),
            _ => Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SpoofedRst,
                seed,
            )),
        };
        Some((host, LinkConfig::testbed()))
    }
}

/// Assert the adversarial-world invariants on merged (or 1-shard)
/// outputs: only the honest cohort earns verdicts, every rejection is
/// counted by taxonomy, and nothing inflates `refused`.
fn check_adversarial(
    space: u32,
    results: &[HostResult],
    metrics: &Snapshot,
    refused: u64,
    label: &str,
) {
    let cohort = u64::from(space / 4);
    // Only the honest quarter is measured — and perfectly.
    assert_eq!(results.len(), cohort as usize, "{label}");
    assert!(results.iter().all(|r| r.ip % 4 == 0), "{label}");
    let (acc, _) = accuracy(results);
    assert!((acc - 1.0).abs() < f64::EPSILON, "{label}: accuracy {acc}");
    // No refusal verdicts from cookie-less RSTs.
    assert_eq!(refused, 0, "{label}: spoofed RSTs minted refusals");
    // Hardened = 2 SYN retries; every adversarial host answers every
    // transmission and stays untracked, so it is owed both retries; the
    // honest cohort answers before its first retry.
    assert_eq!(
        metrics.counter("scan.targets_sent"),
        u64::from(space),
        "{label}"
    );
    assert_eq!(
        metrics.counter("scan.syn_retries"),
        cohort * 3 * 2,
        "{label}"
    );
    // Each rejected answer is counted by how it failed the cookie.
    for counter in [
        "scan.synack.raw_isn_echo",
        "scan.synack.cookie_mismatch",
        "scan.rst_ignored",
    ] {
        assert_eq!(metrics.counter(counter), cohort * 3, "{label}: {counter}");
    }
    assert_eq!(metrics.counter("scan.synacks_validated"), cohort, "{label}");
    assert_eq!(metrics.counter("scan.sessions_started"), cohort, "{label}");
}

#[test]
fn stateless_adversarial_cohorts_inflate_no_verdicts() {
    let space = 128u32;
    let seed = 0xad7e;
    let mut config = scan_config(space, seed);
    config.resilience = ResilienceConfig::hardened();
    let (results, metrics, _sent, refused) = run_matrix(config, adversarial_factory(seed));
    check_adversarial(space, &results, &metrics, refused, "1 shard");
}

#[test]
fn stateless_adversarial_cohorts_merge_identically_at_four_shards() {
    let space = 128u32;
    let seed = 0xad7e;
    let mut merged_results: Vec<HostResult> = Vec::new();
    let mut merged_metrics: Option<Snapshot> = None;
    let mut refused_total = 0u64;
    for shard in 0..4u32 {
        let mut config = scan_config(space, seed);
        config.resilience = ResilienceConfig::hardened();
        config.shard = (shard, 4);
        let (results, metrics, _sent, refused) = run_matrix(config, adversarial_factory(seed));
        merged_results.extend(results);
        refused_total += refused;
        match &mut merged_metrics {
            Some(m) => m.merge(&metrics),
            None => merged_metrics = Some(metrics),
        }
    }
    merged_results.sort_by_key(|r| r.ip);
    let metrics = merged_metrics.unwrap();
    check_adversarial(space, &merged_results, &metrics, refused_total, "4 shards");
    // And the merged results are byte-identical to the 1-shard run.
    let mut config = scan_config(space, seed);
    config.resilience = ResilienceConfig::hardened();
    let (single, ..) = run_matrix(config, adversarial_factory(seed));
    assert_eq!(format!("{single:?}"), format!("{merged_results:?}"));
}

/// A [`ChaosHost`] that replays each SYN-ACK, behind a tap counting the
/// scanner RSTs that answer a replay: an RST arriving after the replay
/// on its flow, whose sequence number is the replay's ack.
struct ReplayTap {
    host: ChaosHost,
    /// Scanner port of each replayed flow → the replay's ack.
    replayed: HashMap<u16, u32>,
    rsts: Rc<Cell<u64>>,
}

fn tcp_segment(pkt: &[u8]) -> Option<tcp::Repr> {
    let ip = ipv4::Packet::new_checked(pkt).ok()?;
    let seg = tcp::Packet::new_checked(ip.payload()).ok()?;
    tcp::Repr::parse(&seg, ip.src_addr(), ip.dst_addr()).ok()
}

impl Endpoint for ReplayTap {
    fn on_packet(&mut self, pkt: &[u8], now: Instant, fx: &mut Effects) {
        if let Some(seg) = tcp_segment(pkt) {
            if seg.flags.contains(Flags::RST) && self.replayed.get(&seg.src_port) == Some(&seg.seq)
            {
                self.rsts.set(self.rsts.get() + 1);
            }
        }
        self.host.on_packet(pkt, now, fx);
        // Stay up for the answers: a respawned host would forget its flows.
        fx.finished = false;
    }

    fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects) {
        let before = fx.tx.len();
        self.host.on_timer(token, now, fx);
        for pkt in &fx.tx[before..] {
            if let Some(seg) = tcp_segment(pkt) {
                self.replayed.insert(seg.dst_port, seg.ack);
            }
        }
        fx.finished = false;
    }
}

#[test]
fn replayed_synacks_promote_exactly_once() {
    // A replayed SYN-ACK is the host retransmitting it because the answer
    // to the first was lost. Each row replays every SYN-ACK either while
    // the target's session is live or after it concluded (but within the
    // hold, which outlasts the slowest host's SYN-ACK schedule). `late`
    // counts the replays per host that find the target already answered
    // on the flow of a first SYN: those of probe 0 after the verdict, and
    // a port scan's (it concludes on its first SYN-ACK). Each must draw
    // exactly one RST and no second record.
    // The probes' own flows close with the session and are not counted.
    struct Row {
        label: &'static str,
        protocol: Protocol,
        after: Duration,
        late: u64,
    }
    let (live, concluded) = (Duration::from_millis(20), Duration::from_secs(100));
    #[rustfmt::skip]
    let rows = [
        Row { label: "classic, live", protocol: Protocol::Http, after: live, late: 0 },
        Row { label: "classic, concluded", protocol: Protocol::Http, after: concluded, late: 1 },
        Row { label: "port scan, live", protocol: Protocol::PortScan, after: live, late: 1 },
        Row { label: "port scan, concluded", protocol: Protocol::PortScan, after: concluded, late: 1 },
    ];
    let space = 64u32;
    let seed = 0x4e91;
    for row in rows {
        let label = row.label;
        let mut config = ScanConfig::study(row.protocol, space, seed);
        config.rate_pps = 2_000_000;
        config.resilience = ResilienceConfig::hardened();
        let rsts = Rc::new(Cell::new(0));
        let tap = rsts.clone();
        // `run_matrix` holds every row to one record per address.
        let (results, metrics, ..) = run_matrix(config, move |ip| {
            let host = ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckReplayed { after: row.after },
                seed,
            );
            let tap = ReplayTap {
                host,
                replayed: HashMap::new(),
                rsts: tap.clone(),
            };
            Some((Box::new(tap) as Box<dyn Endpoint>, LinkConfig::testbed()))
        });
        let hosts = u64::from(space);
        assert_eq!(
            rsts.get(),
            row.late * hosts,
            "{label}: one RST per late SYN-ACK"
        );
        if row.protocol == Protocol::PortScan {
            assert!(results.is_empty(), "{label}");
            assert_eq!(metrics.counter("scan.synacks_validated"), hosts, "{label}");
        } else {
            // One record per host, none claiming success (the replayer
            // never sends data).
            assert_eq!(results.len(), space as usize, "{label}");
            assert!(
                results
                    .iter()
                    .all(|r| !matches!(r.primary_verdict(), Some(MssVerdict::Success(_)))),
                "{label}"
            );
            assert_eq!(metrics.counter("scan.sessions_started"), hosts, "{label}");
        }
    }
}

// ---------------------------------------------------------------------
// The memory-model gate: over a large, mostly-silent space a silent
// target holds nothing but its address in a retry FIFO, for as long as
// it is owed a retransmission.
// ---------------------------------------------------------------------

#[test]
fn a_silent_sweeps_retry_backlog_is_bounded_by_the_rate() {
    use iw_core::{ScanRunner, Topology};
    use iw_internet::{Population, PopulationConfig};
    use std::sync::Arc;

    let space = 1u32 << 17; // 131 072 targets, ~1.5 % responsive
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0x1b1b,
        space_size: space,
        target_responsive: 2000,
        loss_scale: 0.0,
    }));
    // No silent target has a table entry, but every one waits in a retry
    // FIFO for the length of its backoff window. Sample the backlog at
    // every event of a paper-rate-like sweep (slow enough that the bound
    // is far below the space): level 0 holds one second of targets,
    // level 1 two — never more than `rate × 3 s` plus the pacing tick in
    // flight. A target whose last retry has left waits for nothing: a
    // give-up level would hold `rate × 4 s` more.
    let rate = 20_000u64;
    let mut config = ScanConfig::study(Protocol::Http, space, 0x1b1b);
    config.rate_pps = rate;
    config.resilience = ResilienceConfig::hardened();
    // The same sweep through the runner names the responders the
    // hand-driven one must record.
    let run = ScanRunner::new(&pop)
        .config(config.clone())
        .topology(Topology::threads(1))
        .run();
    let ips = |results: &[HostResult]| {
        let mut ips: Vec<u32> = results.iter().map(|r| r.ip).collect();
        ips.sort_unstable();
        ips
    };
    let responders = ips(&run.results);
    assert!(!responders.is_empty(), "the population has responders");
    let sim_config = SimConfig {
        seed: config.seed,
        ..SimConfig::default()
    };
    let factory = iw_internet::population::PopulationFactory::new(pop.clone());
    let mut sim = Sim::new(Scanner::new(config), factory, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    let mut backlog_peak = 0;
    while sim.step() {
        backlog_peak = backlog_peak.max(sim.scanner().retry_backlog());
    }
    let bound = (rate * 3 + rate / 200) as usize;
    assert!(
        backlog_peak <= bound,
        "retry backlog peaked at {backlog_peak} entries, above rate × 3 s + one tick = {bound}"
    );
    assert!(
        backlog_peak > bound / 2 && bound < space as usize / 2,
        "the sweep must fill the backoff window for the bound to mean anything \
         (peak {backlog_peak}, bound {bound})"
    );
    assert_eq!(sim.scanner().retry_backlog(), 0, "backlog drains to zero");
    assert_eq!(
        ips(sim.scanner().results()),
        responders,
        "the hand-driven sweep records every responder the runner does"
    );
}

// ---------------------------------------------------------------------
// Satellite: Karn's rule — retransmitted handshakes contribute no RTT
// samples, so backoff periods never pollute the percentiles.
// ---------------------------------------------------------------------

#[test]
fn karn_rule_drops_retransmit_rtt_samples() {
    let space = 256u32;
    let mut config = scan_config(space, 0x6a51);
    config.resilience = ResilienceConfig::hardened();
    config.telemetry.record_rtt = true;
    let (results, metrics, ..) = run_matrix(config, |ip| {
        Some((web_host(ip, 0x6a51), LinkConfig::default().with_loss(0.05)))
    });
    assert!(!results.is_empty());
    // 5 % loss: 4 of 256 hosts read short.
    assert_faults_bounded(&accuracy(&results).1, 4);
    // Losses actually forced SYN retransmissions…
    assert!(metrics.counter("scan.syn_retries") > 0);
    let rtt = metrics
        .histograms
        .get("scan.rtt_nanos")
        .expect("rtt histogram recorded");
    assert!(rtt.count > 0, "no clean handshakes sampled");
    // …yet no sample contains a backoff period: a SYN-ACK after a
    // retransmission is ambiguous (it may answer either transmission)
    // and its sample is dropped rather than attributed to the wire.
    let backoff = Duration::from_secs(1).as_nanos();
    assert!(
        rtt.max < backoff,
        "rtt max {} contains a backoff period (≥ {backoff})",
        rtt.max
    );
}

// ---------------------------------------------------------------------
// Satellite: the eviction-order queue must stay bounded by live
// sessions, not total sessions started.
// ---------------------------------------------------------------------

#[test]
fn eviction_queue_is_bounded_over_long_campaigns() {
    let space = 1u32 << 10;
    let mut config = scan_config(space, 0xe71c);
    config.resilience.max_sessions = 32;
    let seed = config.seed;
    let scanner = Scanner::new(config);
    let mut sim = Sim::new(
        scanner,
        |ip| Some((web_host(ip, 0xe71c), LinkConfig::testbed())),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    assert_eq!(Scanner::harvest(&mut sim).violations(), []);
    let scanner = sim.scanner();
    assert_eq!(scanner.results().len(), space as usize);
    // Normally-concluded sessions leave stale deque entries behind; the
    // lazy compaction keeps the queue O(live), so after the drain it
    // holds at most the compaction slack — not the 1024 sessions that
    // ever existed.
    assert!(
        scanner.eviction_queue_len() <= 16,
        "eviction queue leaked: {} entries after {} sessions",
        scanner.eviction_queue_len(),
        space
    );
}

// ---------------------------------------------------------------------
// Baseline invariance: resilience off changes nothing on a clean run.
// ---------------------------------------------------------------------

#[test]
fn default_resilience_is_inert_on_clean_links() {
    let space = 64;
    let run = |resilience: ResilienceConfig| {
        let mut config = scan_config(space, 0xc1ea);
        config.resilience = resilience;
        run_matrix(config, |ip| {
            Some((web_host(ip, 0xc1ea), LinkConfig::testbed()))
        })
    };
    let (base, base_m, ..) = run(ResilienceConfig::default());
    let (hard, hard_m, ..) = run(ResilienceConfig::hardened());
    // On a clean network the hardened profile never has to act, so both
    // runs measure identically.
    assert_eq!(format!("{base:?}"), format!("{hard:?}"));
    assert_eq!(base_m.counter("scan.syn_retries"), 0);
    assert_eq!(hard_m.counter("scan.syn_retries"), 0);
    assert_eq!(hard_m.counter("scan.probes.retried"), 0);
    assert_eq!(hard_m.counter("scan.sessions.evicted"), 0);
    assert!((accuracy(&base).0 - 1.0).abs() < f64::EPSILON);
}

// ---------------------------------------------------------------------
// Untracked silent targets: a silent classic target keeps no table
// entry, so nothing it leaves behind may outlive the retries it is owed.
// ---------------------------------------------------------------------

/// Run `config` with the flight recorder on over a space whose even
/// addresses answer across a 100 ms link and whose odd ones are
/// unrouted, draining at `drain_at` if given, for a virtual hour.
/// Returns whether events were still queued then, and the targets the
/// scanner still held (live sessions and queued retries or give-ups).
fn flight_scan(mut config: ScanConfig, drain_at: Option<Duration>) -> (bool, usize) {
    config.telemetry.flight_recorder = true;
    let seed = config.seed;
    let link = LinkConfig {
        latency: Duration::from_millis(100),
        ..LinkConfig::testbed()
    };
    let factory = move |ip: u32| {
        ip.is_multiple_of(2)
            .then(|| (web_host(ip, seed), link.clone()))
    };
    let sim_config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(config), factory, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    if let Some(at) = drain_at {
        sim.run_until(Instant::ZERO + at);
        sim.kick_scanner(|s, now, fx| s.begin_drain(now, fx));
    }
    // Far past every timeout: a scan still busy here never ends.
    sim.run_until(Instant::ZERO + Duration::from_secs(3600));
    let busy = sim.step();
    let scanner = sim.scanner();
    (busy, scanner.live_sessions() + scanner.retry_backlog())
}

#[test]
fn a_flight_scan_with_retries_terminates() {
    let mut config = scan_config(256, 0xf117);
    config.resilience.syn_retries = 2;
    let (busy, live) = flight_scan(config, None);
    assert!(!busy, "the scan never went idle");
    assert_eq!(live, 0, "a target outlived the scan");
}

#[test]
fn a_graceful_drain_leaves_no_flight_history() {
    // Four retries: a silent target waits 16 s for its give-up, which
    // the drain must cut off.
    let mut config = scan_config(256, 0xd7a1);
    config.resilience.syn_retries = 4;
    // 300 ms in: silent targets owe their first retry, and responders
    // are mid-session.
    let (busy, live) = flight_scan(config, Some(Duration::from_millis(300)));
    assert!(!busy, "the drained scan never went idle");
    assert_eq!(live, 0, "the drain left targets behind");
}

// ---------------------------------------------------------------------
// The observability spine: every counter that counts an event is derived
// from the event itself, so the counters and the flight recorder's
// histories cannot drift apart.
// ---------------------------------------------------------------------

/// Run `config` over a space of `space` addresses, every one of them
/// watched, with the flight recorder on, and return the harvest. The scan
/// runs to completion: a watched history that kept the sweep armed would
/// never let it end.
fn observed_scan<F>(space: u32, mut config: ScanConfig, factory: F) -> ScanTelemetry
where
    F: FnMut(u32) -> Option<(Box<dyn Endpoint>, LinkConfig)>,
{
    config.telemetry.flight_recorder = true;
    let seed = config.seed;
    let sim_config = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(config), factory, sim_config);
    sim.scanner_mut().watch(0..space);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    sim.run_to_completion();
    Scanner::harvest(&mut sim)
}

fn chaos(ip: u32, mode: ChaosMode, seed: u64) -> Box<dyn Endpoint> {
    Box::new(ChaosHost::new(Ipv4Addr::from_u32(ip), mode, seed))
}

/// A host that resets its first connection mid-flight and answers every
/// later SYN with a RST: each probe, retries spent, concludes
/// `Unreachable`, and so does the session.
struct ResetsEverything {
    first: Option<u16>,
    host: Box<dyn Endpoint>,
    ident: u16,
}

impl Endpoint for ResetsEverything {
    fn on_packet(&mut self, pkt: &[u8], now: Instant, fx: &mut Effects) {
        if let (Some(seg), Ok(ip)) = (tcp_segment(pkt), ipv4::Packet::new_checked(pkt)) {
            if seg.flags == Flags::SYN && *self.first.get_or_insert(seg.src_port) != seg.src_port {
                let ack = seg.seq.wrapping_add(1);
                let rst = tcp::Segment::bare(
                    seg.dst_port,
                    seg.src_port,
                    0,
                    ack,
                    Flags::RST | Flags::ACK,
                    0,
                );
                fx.send(rst.datagram(ip.dst_addr(), ip.src_addr(), &mut self.ident, fx.pool()));
                fx.finished = false;
                return;
            }
        }
        self.host.on_packet(pkt, now, fx);
        fx.finished = false;
    }

    fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects) {
        self.host.on_timer(token, now, fx);
        fx.finished = false;
    }
}

#[test]
fn counters_are_derived_from_events() {
    const PAIRS: [(&str, &str); 13] = [
        ("syn_sent", "scan.targets_sent"),
        ("syn_ack_validated", "scan.synacks_validated"),
        ("session_started", "scan.sessions_started"),
        ("refused", "scan.refused"),
        ("retransmit_detected", "scan.retransmits_detected"),
        ("verify_ack_sent", "scan.verify_acks_sent"),
        ("syn_retried", "scan.syn_retries"),
        ("probe_retried", "scan.probes.retried"),
        ("watchdog_forced", "scan.sessions.watchdog_forced"),
        ("session_evicted", "scan.sessions.evicted"),
        ("icmp_unreachable", "scan.icmp_unreachable"),
        ("probe_started", "scan.probes.started"),
        ("follow_up_started", "scan.probes.follow_ups"),
    ];
    let hardened = |space, seed| {
        let mut config = scan_config(space, seed);
        config.resilience = ResilienceConfig::hardened();
        config
    };
    let mut flood = hardened(400, 0xf100d);
    flood.resilience.max_sessions = 64;
    let reset = ChaosMode::SynAckThenRst {
        after: Duration::from_millis(50),
    };
    let scans = [
        // Loss: SYN retries, and sessions that measure.
        observed_scan(300, hardened(300, 0x10_55), |ip| {
            Some((web_host(ip, 0x10_55), LinkConfig::default().with_loss(0.02)))
        }),
        // Mid-connection resets: every probe burns its retries.
        observed_scan(64, hardened(64, 0x27), |ip| {
            Some((chaos(ip, reset, 0x27), LinkConfig::testbed()))
        }),
        // A SYN-ACK flood past the session cap: evictions, and the
        // watchdog for the sessions left holding a slot.
        observed_scan(400, flood, |ip| {
            Some((
                chaos(ip, ChaosMode::SynAckBlackhole, 0xf100d),
                LinkConfig::testbed(),
            ))
        }),
        // Cohorts: ICMP-unreachable, closed port, silent, too little
        // data, and resets throughout.
        observed_scan(160, hardened(160, 0x1c3), |ip| {
            let host = match ip % 5 {
                0 => chaos(ip, ChaosMode::IcmpUnreachable { code: 1 }, 0x1c3),
                1 => {
                    let mut closed = HostConfig::simple_web(60_000);
                    closed.http = None;
                    Box::new(Host::new(Ipv4Addr::from_u32(ip), closed, 0x1c3))
                }
                2 => return None,
                3 => {
                    // A 100-byte page and no 404 echo to fall back on.
                    let mut small = HostConfig::simple_web(100);
                    if let Some(http) = &mut small.http {
                        http.behavior = HttpBehavior::Direct {
                            root_size: 100,
                            echo_404: false,
                        };
                    }
                    Box::new(Host::new(Ipv4Addr::from_u32(ip), small, 0x1c3))
                }
                _ => Box::new(ResetsEverything {
                    first: None,
                    host: chaos(ip, reset, 0x1c3),
                    ident: 1,
                }),
            };
            Some((host, LinkConfig::testbed()))
        }),
    ];
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for (i, t) in scans.iter().enumerate() {
        // Every address is watched: the histories hold every event.
        let m = &t.metrics;
        let histories = t.flight.histories().values().flatten();
        let events: Vec<SessionEvent> = histories
            .filter_map(|entry| match entry {
                FlightEntry::State { event, .. } => Some(*event),
                FlightEntry::Wire { .. } => None,
            })
            .collect();
        for (event, counter) in PAIRS {
            let n = events.iter().filter(|e| e.name() == event).count() as u64;
            assert_eq!(n, m.counter(counter), "scan {i}: {event} vs {counter}");
            *seen.entry(event.to_string()).or_default() += n;
        }
        for kind in OutcomeKind::ALL {
            let count = |probe: bool| {
                (events.iter())
                    .filter(|e| match e {
                        SessionEvent::ProbeConcluded { outcome, .. } => probe && *outcome == kind,
                        SessionEvent::SessionFinished { outcome } => !probe && *outcome == kind,
                        _ => false,
                    })
                    .count() as u64
            };
            for (probe, family) in [(true, "probes"), (false, "sessions")] {
                let counter = format!("scan.{family}.{}", kind.name());
                assert_eq!(count(probe), m.counter(&counter), "scan {i}: {counter}");
                *seen.entry(counter).or_default() += count(probe);
            }
        }
        let dumps = t.flight.dumps().len() as u64;
        assert_eq!(dumps, m.counter("scan.flight_recorder.dumps"), "scan {i}");
        *seen.entry("dumps".into()).or_default() += dumps;
    }
    for (what, n) in &seen {
        assert!(*n > 0, "no scan exercised {what}: {seen:?}");
    }
}
