//! Scan-level telemetry: the metrics snapshot (every count a scan keeps,
//! session events included), the session event log of a watch set (the
//! flight recorder's watched histories) and the progress monitor,
//! exercised through full simulated scans.
//!
//! The load-bearing property is the determinism contract: scan-scoped
//! metrics and each watched host's history must be identical between a
//! sharded run and a single-thread run of the same scan.

use iw_core::telemetry::{manifest, FlightEntry, OutcomeKind, Scope, SessionEvent};
use iw_core::{
    MonitorSink, MonitorSpec, Protocol, ResilienceConfig, RunControl, ScanConfig, ScanRunner,
    Topology,
};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::Duration;
use std::collections::BTreeMap;
use std::sync::Arc;

fn population(seed: u64, space: u32, responsive: u32) -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed,
        space_size: space,
        target_responsive: responsive,
        loss_scale: 0.0,
    }))
}

/// A control that keeps the histories of `ips`.
fn watching(ips: impl IntoIterator<Item = u32>) -> RunControl {
    RunControl {
        watch: ips.into_iter().collect(),
        ..RunControl::default()
    }
}

fn telemetry_config(space: u32, seed: u64) -> ScanConfig {
    let mut config = ScanConfig::study(Protocol::Http, space, seed);
    config.rate_pps = 2_000_000; // compress virtual time for tests
    config.telemetry.record_rtt = true;
    config
}

#[test]
fn sharded_snapshot_is_byte_identical_to_single_thread() {
    let pop = population(0x1307, 1 << 15, 600);
    let config = telemetry_config(pop.space_size(), 0x1307);
    let single = ScanRunner::new(&pop).config(config.clone()).run();
    let sharded = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(4))
        .run();

    // The canonical (scan-scoped) snapshot merges exactly: same counters,
    // same histogram buckets, same JSON bytes.
    assert_eq!(
        single.telemetry.metrics.to_canonical_json(),
        sharded.telemetry.metrics.to_canonical_json(),
        "scan-scoped metrics must not depend on the shard count"
    );
    // The session events' counts (per variant and per verdict) are scan
    // counters, compared with the rest.
    // Sanity: the scan actually produced telemetry to compare.
    let m = &single.telemetry.metrics;
    assert!(m.counter("scan.targets_sent") > 10_000);
    assert!(m.counter("scan.sessions_started") > 100);
    assert!(m.counter("scan.probes.started") > 100);
    assert!(m.histogram("scan.rtt_nanos").unwrap().count > 100);
    assert!(m.histogram("scan.session_lifetime_nanos").unwrap().count > 100);
}

#[test]
fn summarize_matches_event_log_terminal_counts() {
    let pop = population(0xbeef, 1 << 14, 300);
    let config = telemetry_config(pop.space_size(), 0xbeef);
    let control = watching(0..pop.space_size());
    let out = ScanRunner::new(&pop).config(config).control(control).run();

    // Every address is watched: the histories' `SessionFinished` events
    // are the scan's terminal counts.
    let mut terminal: BTreeMap<OutcomeKind, u64> = BTreeMap::new();
    for entry in out.telemetry.flight.histories().values().flatten() {
        if let FlightEntry::State {
            event: SessionEvent::SessionFinished { outcome },
            ..
        } = entry
        {
            *terminal.entry(*outcome).or_default() += 1;
        }
    }
    let count = |k: OutcomeKind| terminal.get(&k).copied().unwrap_or(0);
    // summarize() buckets Unreachable (and verdict-less) sessions under
    // "error"; the session events keep them distinct.
    assert_eq!(out.summary.success, count(OutcomeKind::Success));
    assert_eq!(out.summary.few_data, count(OutcomeKind::FewData));
    assert_eq!(
        out.summary.error,
        count(OutcomeKind::Error) + count(OutcomeKind::Unreachable)
    );
    // Every reachable host finished exactly one session.
    assert_eq!(
        out.summary.reachable,
        terminal.values().sum::<u64>(),
        "one SessionFinished per host record"
    );
    // The per-verdict session counters agree with the histories.
    let m = &out.telemetry.metrics;
    assert_eq!(
        m.counter("scan.sessions.success"),
        count(OutcomeKind::Success)
    );
    assert_eq!(
        m.counter("scan.sessions.few_data"),
        count(OutcomeKind::FewData)
    );
    assert_eq!(m.counter("scan.sessions.error"), count(OutcomeKind::Error));
    assert_eq!(
        m.counter("scan.sessions.unreachable"),
        count(OutcomeKind::Unreachable)
    );
    // And the flat counters agree with the summary.
    assert_eq!(m.counter("scan.targets_sent"), out.summary.targets);
    assert_eq!(m.counter("scan.refused"), out.summary.refused);
    assert_eq!(m.counter("scan.sessions_started"), out.summary.reachable);
}

#[test]
fn event_log_records_exact_session_lifecycles() {
    let pop = population(0xcafe, 1 << 13, 150);
    let config = telemetry_config(pop.space_size(), 0xcafe);
    let out = ScanRunner::new(&pop).config(config.clone()).run();
    assert!(
        out.telemetry.flight.histories().is_empty(),
        "nothing watched"
    );

    // Pick a host that concluded successfully and replay its lifecycle:
    // the same scan again, watching that one host.
    let success_ip = out
        .results
        .iter()
        .find(|r| r.iw_estimate().is_some())
        .expect("some host succeeded")
        .ip;
    let watched = ScanRunner::new(&pop)
        .config(config)
        .control(watching([success_ip]))
        .run();
    assert_eq!(
        format!("{:?}", watched.results),
        format!("{:?}", out.results)
    );
    let flight = &watched.telemetry.flight;
    assert_eq!(flight.histories().keys().collect::<Vec<_>>(), [&success_ip]);
    let entries = flight.history(success_ip);
    // The history opens with the SYN itself: its transition, then the
    // segment.
    assert!(
        matches!(
            entries[1],
            FlightEntry::Wire {
                tx: true,
                flags: 0x002,
                ..
            }
        ),
        "{:?}",
        &entries[..2]
    );
    let names: Vec<&str> = (entries.iter())
        .filter_map(|e| match e {
            FlightEntry::State { event, .. } => Some(event.name()),
            FlightEntry::Wire { .. } => None,
        })
        .collect();
    assert_eq!(names[0], "syn_sent", "{names:?}");
    assert_eq!(names[1], "syn_ack_validated", "{names:?}");
    assert_eq!(names[2], "session_started", "{names:?}");
    assert_eq!(names[3], "probe_started", "{names:?}");
    assert_eq!(*names.last().unwrap(), "session_finished", "{names:?}");
    // The study config runs six probes: six conclusions, and the probe
    // chain is recorded in order.
    let concluded = names.iter().filter(|n| **n == "probe_concluded").count();
    assert_eq!(concluded, 6, "{names:?}");
    let started = names.iter().filter(|n| **n == "probe_started").count();
    assert_eq!(started, 6, "{names:?}");
    // Timestamps never go backwards within a host's lifecycle.
    assert!(entries
        .windows(2)
        .all(|w| w[0].at_nanos() <= w[1].at_nanos()));
    // A successful inference observed at least one retransmission per
    // concluded probe (that is what ends the collection phase).
    let retransmits = names
        .iter()
        .filter(|n| **n == "retransmit_detected")
        .count();
    assert!(retransmits >= 1, "{names:?}");
}

#[test]
fn sharded_event_log_keeps_each_hosts_causal_order() {
    // A host lives in exactly one shard, so merging the shards' histories
    // must not reorder its entries: same-instant transitions (SYN-ACK
    // validated → session started → probe started) stay in the order
    // they happened. Pacing differs between shard layouts, so each
    // history is compared re-based to its first entry. Every responder
    // is watched.
    let pop = population(0xcafe, 1 << 13, 150);
    let config = telemetry_config(pop.space_size(), 0xcafe);
    let responders = (0..pop.space_size()).filter(|&ip| pop.host_config(ip).is_some());
    let control = watching(responders);
    let by_host = |threads: u32| {
        let out = ScanRunner::new(&pop)
            .config(config.clone())
            .topology(Topology::threads(threads))
            .control(control.clone())
            .run();
        let rebased = |history: &[FlightEntry]| -> Vec<FlightEntry> {
            let start = history.first().map_or(0, FlightEntry::at_nanos);
            let mut history = history.to_vec();
            for entry in &mut history {
                match entry {
                    FlightEntry::State { at_nanos, .. } | FlightEntry::Wire { at_nanos, .. } => {
                        *at_nanos -= start
                    }
                }
            }
            history
        };
        (out.telemetry.flight.histories().iter())
            .map(|(ip, history)| (*ip, rebased(history)))
            .collect::<BTreeMap<u32, Vec<FlightEntry>>>()
    };
    let single = by_host(1);
    let sessions = single.values().filter(|h| h.len() > 2).count();
    assert!(sessions > 100, "{sessions} hosts answered");
    assert_eq!(single, by_host(4));
}

#[test]
fn monitor_emits_periodic_status_lines() {
    let pop = population(0xfeed, 1 << 14, 300);
    let mut config = telemetry_config(pop.space_size(), 0xfeed);
    config.telemetry.monitor = Some(MonitorSpec {
        interval: Duration::from_millis(5),
        sink: MonitorSink::Capture,
    });
    let out = ScanRunner::new(&pop).config(config).run();

    let lines = &out.telemetry.status_lines;
    assert!(lines.len() >= 2, "expected several reports: {lines:?}");
    // Lines carry the ZMap-style send/hits/live segments.
    for line in lines {
        assert!(line.contains("send:"), "{line}");
        assert!(line.contains("hits:"), "{line}");
        assert!(line.contains("ok/few/err/unr:"), "{line}");
    }
    // Progress is monotone: sent counts never decrease across reports.
    let sent_counts: Vec<u64> = lines
        .iter()
        .map(|l| {
            let after = l.split("send: ").nth(1).unwrap();
            after.split_whitespace().next().unwrap().parse().unwrap()
        })
        .collect();
    assert!(
        sent_counts.windows(2).all(|w| w[0] <= w[1]),
        "{sent_counts:?}"
    );
    // The final report has seen every target out the door.
    assert_eq!(*sent_counts.last().unwrap(), out.summary.targets);
}

#[test]
fn config_record_trace_captures_the_scan() {
    let pop = population(0xace, 1 << 13, 80);
    let mut config = telemetry_config(pop.space_size(), 0xace);
    config.record_trace = true;
    let out = ScanRunner::new(&pop).config(config.clone()).run();
    assert!(!out.trace.is_empty());
    let rendered = out.trace.render_tcp();
    assert!(rendered.contains("SYN"), "trace renders the exchange");
    // Off by default: the same scan without the flag records nothing.
    config.record_trace = false;
    let quiet = ScanRunner::new(&pop).config(config).run();
    assert!(quiet.trace.is_empty());
}

#[test]
fn a_scan_snapshot_holds_exactly_the_manifest() {
    // Every metric a scan reports is a manifest row, and every row is
    // reported: a registration by name anywhere in a scan's life (or a
    // row the registry skipped) makes the two sets differ.
    let pop = population(0x5ca7, 1 << 14, 300);
    let mut config = telemetry_config(pop.space_size(), 0x5ca7);
    config.resilience = ResilienceConfig::hardened();
    let out = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(2))
        .run();
    let m = &out.telemetry.metrics;
    assert!(m.counter("scan.sessions_started") > 0, "the scan did work");
    let mut reported: Vec<(&str, &str, Scope)> = m
        .counters
        .iter()
        .map(|(name, (scope, _))| (name.as_str(), "counter", *scope))
        .chain(m.gauges.iter().map(|(n, (s, _))| (n.as_str(), "gauge", *s)))
        .chain(
            m.histograms
                .iter()
                .map(|(n, h)| (n.as_str(), "histogram", h.scope)),
        )
        .collect();
    let mut declared: Vec<(&str, &str, Scope)> = manifest::COUNTERS
        .iter()
        .map(|&(_, name, scope)| (name, "counter", scope))
        .chain(manifest::GAUGES.iter().map(|&(_, n, s)| (n, "gauge", s)))
        .chain(
            manifest::HISTOGRAMS
                .iter()
                .map(|&(_, n, s)| (n, "histogram", s)),
        )
        .collect();
    declared.sort_by_key(|&(name, kind, _)| (kind, name));
    reported.sort_by_key(|&(name, kind, _)| (kind, name));
    assert_eq!(reported, declared);
}
