//! The observability layer exercised through full simulated scans: span
//! tracing (Chrome-trace export determinism), the flight recorder
//! (casualties, and the black boxes a replay recovers for them), the
//! streaming telemetry sink (delta consistency) and the ICMP harvest.

use iw_core::telemetry::Snapshot;
use iw_core::{HostResult, Protocol, RunDisposition, ScanConfig, ScanRunner, Scanner, Topology};
use iw_hoststack::{ChaosHost, ChaosMode, Host, HostConfig, IwPolicy};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::{Duration, Endpoint, LinkConfig, Sim, SimConfig};
use iw_wire::ipv4::Ipv4Addr;
use std::sync::Arc;

fn population(seed: u64, space: u32, responsive: u32) -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed,
        space_size: space,
        target_responsive: responsive,
        loss_scale: 0.0,
    }))
}

fn web_host(ip: u32, seed: u64) -> Box<dyn Endpoint> {
    let mut config = HostConfig::simple_web(60_000);
    config.iw = IwPolicy::Segments([2, 3, 4, 10][ip as usize % 4]);
    Box::new(Host::new(Ipv4Addr::from_u32(ip), config, seed))
}

/// Run a scan of `space` against a custom host factory with every
/// address watched, as a replay watches its casualties, so each casualty
/// freezes its black box; returns results, the metrics snapshot and the
/// harvested recorder.
fn run_with_factory<F>(
    config: ScanConfig,
    space: u32,
    factory: F,
) -> (
    Vec<HostResult>,
    Snapshot,
    iw_core::telemetry::FlightRecorder,
)
where
    F: FnMut(u32) -> Option<(Box<dyn Endpoint>, LinkConfig)>,
{
    let seed = config.seed;
    let mut scanner = Scanner::new(config);
    scanner.watch(0..space);
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
    let mut results = scanner.results().to_vec();
    results.sort_by_key(|r| r.ip);
    let snapshot = scanner.metrics_snapshot();
    let recorder = Scanner::harvest(&mut sim).flight;
    assert_eq!(recorder.casualties().len(), recorder.dumps().len());
    (results, snapshot, recorder)
}

// ---------------------------------------------------------------------
// Span tracing: the canonical Chrome-trace export is deterministic.
// ---------------------------------------------------------------------

#[test]
fn trace_export_is_byte_identical_across_runs_and_shard_counts() {
    // A rate low enough that pacing spreads targets across many ticks:
    // absolute send times then genuinely differ between shard layouts,
    // so this exercises the per-track re-basing, not a degenerate
    // everything-in-one-batch schedule.
    let pop = population(0x7ace, 1 << 16, 800);
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0x7ace);
    config.rate_pps = 400_000;
    config.telemetry.record_spans = true;
    let single = ScanRunner::new(&pop).config(config.clone()).run();
    let again = ScanRunner::new(&pop).config(config.clone()).run();
    let sharded = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(4))
        .run();

    let json = single.telemetry.tracer.to_chrome_json();
    assert_eq!(
        json,
        again.telemetry.tracer.to_chrome_json(),
        "same config, same bytes"
    );
    assert_eq!(
        json,
        sharded.telemetry.tracer.to_chrome_json(),
        "canonical trace must not depend on the shard count"
    );

    // The export is a loadable Chrome trace: one JSON object with a
    // traceEvents array of complete ("X") events.
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"ph\":\"X\""), "complete events present");
    for name in ["\"handshake\"", "\"session\"", "\"probe\""] {
        assert!(json.contains(name), "span kind {name} missing");
    }
    // Every reachable host contributed a session span and the trace
    // counters were folded into the metrics.
    let spans = single.telemetry.tracer.scan_span_count();
    assert!(
        spans >= single.summary.reachable,
        "{spans} spans < {} sessions",
        single.summary.reachable
    );
    assert_eq!(
        single.telemetry.metrics.counter("trace.spans.scan"),
        spans,
        "scan span counter matches the tracer"
    );
    // The duration histogram covers scan spans plus the counted
    // hot-path spans from the sim's own profiler.
    assert!(
        single
            .telemetry
            .metrics
            .histogram("trace.span_nanos")
            .unwrap()
            .count
            >= spans,
        "every span duration observed"
    );
}

// ---------------------------------------------------------------------
// Flight recorder: failed sessions dump, clean sessions stay silent.
// ---------------------------------------------------------------------

#[test]
fn the_replay_recovers_every_casualty_and_refuses_another_run() {
    // A lossy world with SYN retries: casualties of every kind the
    // recorder knows, on two threads.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0xb1ac,
        space_size: 1 << 15,
        target_responsive: 800,
        loss_scale: 4.0,
    }));
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0xb1ac);
    config.resilience.syn_retries = 1;
    config.telemetry.flight_recorder = true;
    let runner = ScanRunner::new(&pop)
        .config(config.clone())
        .topology(Topology::threads(2));
    let out = runner.clone().run();
    assert_eq!(out.disposition, RunDisposition::Completed);
    let casualties = out.telemetry.flight.casualties();
    assert!(casualties.len() > 20, "{} casualties", casualties.len());
    assert!(
        out.telemetry.flight.dumps().is_empty(),
        "a run keeps no box"
    );
    let errors: std::collections::BTreeSet<&str> = casualties.iter().map(|c| c.error).collect();
    assert!(
        errors.contains("handshake_timeout") && errors.len() > 1,
        "{errors:?}"
    );

    // The replay freezes one box per casualty, at its conclusion.
    let replay = (runner.clone())
        .black_boxes(casualties, &out.sim_stats)
        .unwrap();
    assert_eq!(replay.casualties(), casualties);
    let boxes: Vec<(u64, u32, &str)> = (replay.dumps().iter())
        .map(|d| (d.at_nanos, d.ip, d.error))
        .collect();
    let listed: Vec<(u64, u32, &str)> = (casualties.iter())
        .map(|c| (c.at_nanos, c.ip, c.error))
        .collect();
    assert_eq!(boxes, listed);
    for dump in replay.dumps() {
        let history = replay.history(dump.ip);
        let kept = dump.entries.len() as u64 + dump.evicted;
        assert_eq!(
            &history[..kept as usize][dump.evicted as usize..],
            dump.entries
        );
        assert!(dump.entries.last().unwrap().at_nanos() <= dump.at_nanos);
    }

    // Another seed's run, and a list with one casualty left out, are
    // refused by the first casualty that differs.
    let mut reseeded = config;
    reseeded.seed += 1;
    let other = ScanRunner::new(&pop).config(reseeded).run();
    let msg = (runner
        .clone()
        .black_boxes(other.telemetry.flight.casualties(), &other.sim_stats))
    .expect_err("another seed's casualties");
    assert!(
        msg.starts_with("the replay does not reproduce the run: casualty "),
        "{msg}"
    );
    let k = casualties.len() / 2;
    let mut edited = casualties.to_vec();
    edited.remove(k);
    let msg = (runner.black_boxes(&edited, &out.sim_stats)).expect_err("an edited list");
    let next = Ipv4Addr::from_u32(casualties[k + 1].ip);
    assert!(msg.contains(&format!("casualty {k} is {next} ")), "{msg}");
}

#[test]
fn a_flight_only_scan_without_retries_runs_the_plain_scans_events() {
    // The recorder lists casualties and keeps nothing live: without SYN
    // retries there is no give-up to wait for, so a flight-only scan is
    // the plain scan, event for event.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 7,
        space_size: 1 << 15,
        target_responsive: 800,
        loss_scale: 2.0,
    }));
    let run = |flight_recorder: bool| {
        let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 7);
        config.telemetry.flight_recorder = flight_recorder;
        ScanRunner::new(&pop).config(config).run()
    };
    let (plain, flight) = (run(false), run(true));
    assert!(!flight.telemetry.flight.casualties().is_empty());
    assert_eq!(flight.sim_stats.events, plain.sim_stats.events);
    assert_eq!(
        HostResult::array_to_json(&flight.results),
        HostResult::array_to_json(&plain.results)
    );
}

#[test]
fn a_recorded_scan_with_timed_syns_keeps_the_sweeps_schedule() {
    // With `record_rtt` on the sweep is armed anyway, and the recorder
    // keeps it ticking while a session is live or a SYN retry or give-up
    // is queued, as it did when the sweep also aged out flight rings: the
    // counts are the ones those scans ran before the rings went.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 7,
        space_size: 1 << 15,
        target_responsive: 800,
        loss_scale: 2.0,
    }));
    let events = |syn_retries: u32, flight_recorder: bool| {
        let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 7);
        config.telemetry.record_rtt = true;
        config.telemetry.flight_recorder = flight_recorder;
        config.resilience.syn_retries = syn_retries;
        ScanRunner::new(&pop).config(config).run().sim_stats.events
    };
    assert_eq!((events(0, false), events(0, true)), (101_159, 101_275));
    assert_eq!((events(2, false), events(2, true)), (102_341, 102_508));
}

#[test]
fn synack_blackhole_produces_flight_dumps_naming_the_phase() {
    // Hosts that complete the handshake and then go silent: every
    // session dies in the collect phase, and each death must leave a
    // black-box dump naming the phase it was in.
    let space = 64u32;
    let mut config = ScanConfig::study(Protocol::Http, space, 0xb1ac);
    config.rate_pps = 2_000_000;
    config.telemetry.flight_recorder = true;
    let (results, metrics, recorder) = run_with_factory(config, space, |ip| {
        Some((
            Box::new(ChaosHost::new(
                Ipv4Addr::from_u32(ip),
                ChaosMode::SynAckBlackhole,
                0xb1ac,
            )) as Box<dyn Endpoint>,
            LinkConfig::testbed(),
        ))
    });
    assert_eq!(results.len(), space as usize);
    assert_eq!(
        recorder.dumps().len(),
        space as usize,
        "every blackholed session must dump"
    );
    for dump in recorder.dumps() {
        assert_eq!(
            dump.phase, "probe_done",
            "last pre-terminal phase: {dump:?}"
        );
        assert_eq!(dump.error, "no_data", "{dump:?}");
        assert!(!dump.entries.is_empty(), "wire history retained");
    }
    let jsonl = recorder.to_jsonl();
    assert_eq!(jsonl.lines().count(), space as usize);
    assert!(jsonl.contains("\"phase\":\"probe_done\""), "{jsonl}");
    assert_eq!(
        metrics.counter("scan.flight_recorder.dumps"),
        u64::from(space),
        "dump counter tracks the recorder"
    );
}

#[test]
fn silent_space_with_retries_dumps_handshake_timeouts() {
    // Nothing answers: with SYN retries on, exhausting the retry budget
    // is a diagnosable failure and must dump from the SYN-wait phase.
    let space = 32u32;
    let mut config = ScanConfig::study(Protocol::Http, space, 0x51e7);
    config.rate_pps = 2_000_000;
    config.resilience.syn_retries = 1;
    config.telemetry.flight_recorder = true;
    let (_, metrics, recorder) = run_with_factory(config, space, |_| None);
    assert_eq!(recorder.dumps().len(), space as usize);
    for dump in recorder.dumps() {
        assert_eq!(dump.error, "handshake_timeout", "{dump:?}");
        assert_eq!(dump.phase, "syn_wait", "{dump:?}");
        // Two entries per SYN: the state transition plus each wire tx.
        assert!(dump.entries.len() >= 2, "{dump:?}");
    }
    assert_eq!(
        metrics.counter("scan.flight_recorder.dumps"),
        u64::from(space)
    );
}

#[test]
fn silent_space_with_four_retries_still_dumps_handshake_timeouts() {
    // The fourth retry's backoff (16 s) outlasts the SYN stamps' 8 s
    // expiry: a target still owed its give-up is still a casualty, with
    // its whole history.
    let space = 32u32;
    let mut config = ScanConfig::study(Protocol::Http, space, 0x51e7);
    config.rate_pps = 2_000_000;
    config.resilience.syn_retries = 4;
    config.telemetry.flight_recorder = true;
    let (_, metrics, recorder) = run_with_factory(config, space, |_| None);
    assert_eq!(recorder.dumps().len(), space as usize);
    for dump in recorder.dumps() {
        assert_eq!(dump.error, "handshake_timeout", "{dump:?}");
        assert_eq!(dump.phase, "syn_wait", "{dump:?}");
        // The first SYN and four retries, each a transition plus a segment.
        assert_eq!(dump.entries.len(), 10, "{dump:?}");
    }
    assert_eq!(
        metrics.counter("scan.flight_recorder.dumps"),
        u64::from(space)
    );
}

#[test]
fn clean_scans_leave_no_flight_dumps() {
    // Every session concludes with a clean verdict: the recorder must
    // list no casualty and dump nothing.
    let mut config = ScanConfig::study(Protocol::Http, 64, 0xc1ea);
    config.rate_pps = 2_000_000;
    config.telemetry.flight_recorder = true;
    let (results, metrics, recorder) = run_with_factory(config, 64, |ip| {
        Some((web_host(ip, 0xc1ea), LinkConfig::testbed()))
    });
    assert!(!results.is_empty());
    assert!(
        recorder.dumps().is_empty(),
        "clean verdicts must not dump: {:?}",
        recorder.dumps().first()
    );
    assert!(recorder.casualties().is_empty());
    assert_eq!(metrics.counter("scan.flight_recorder.dumps"), 0);
}

// ---------------------------------------------------------------------
// Streaming sink: deltas sum to the final totals.
// ---------------------------------------------------------------------

#[test]
fn stream_deltas_sum_to_final_counters() {
    let pop = population(0x57e4, 1 << 14, 400);
    let mut config = ScanConfig::study(Protocol::Http, pop.space_size(), 0x57e4);
    config.rate_pps = 400_000;
    config.telemetry.stream = Some(Duration::from_secs(1));
    let out = ScanRunner::new(&pop).config(config).run();
    let jsonl = out.telemetry.stream.to_jsonl();
    assert!(!jsonl.is_empty());

    // Sum the per-snapshot deltas of a counter across all stream lines;
    // the final flush makes the sum equal the merged total.
    let sum_deltas = |key: &str| -> u64 {
        let pat = format!("\"{key}\":");
        jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"snapshot\""))
            .filter_map(|l| {
                let start = l.find(&pat)? + pat.len();
                let rest = &l[start..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                rest[..end].parse::<u64>().ok()
            })
            .sum()
    };
    for key in ["scan.targets_sent", "scan.sessions_started"] {
        assert_eq!(
            sum_deltas(key),
            out.telemetry.metrics.counter(key),
            "stream deltas for {key} must sum to the final counter"
        );
    }
    // One result line per concluded target, in deterministic order.
    let result_lines = jsonl
        .lines()
        .filter(|l| l.contains("\"type\":\"result\""))
        .count() as u64;
    assert!(
        result_lines >= out.summary.reachable,
        "{result_lines} result lines < {} reachable",
        out.summary.reachable
    );
    // Streaming must not perturb the scan itself.
    let mut quiet = ScanConfig::study(Protocol::Http, pop.space_size(), 0x57e4);
    quiet.rate_pps = 400_000;
    let base = ScanRunner::new(&pop).config(quiet).run();
    assert_eq!(format!("{:?}", base.results), format!("{:?}", out.results));
}
