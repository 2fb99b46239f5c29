//! Crash safety without a replay barrier: the graceful-shutdown drain,
//! which an aborted campaign relies on to end with trustworthy partial
//! outputs, and the campaign file's round-trip and corruption
//! properties. A killed campaign resumes by rerunning from event zero
//! (DESIGN.md §12), so its byte-identity is the determinism the
//! thread-count identity tests, the goldens and the CLI's kill→resume
//! test hold.
use iw_core::{
    CampaignCheckpoint, ErrorKind, Protocol, ResilienceConfig, RunControl, RunDisposition,
    ScanConfig, ScanRunner, Topology, CHECKPOINT_VERSION,
};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::Duration;
use std::sync::Arc;

/// A small world with a mix of responsive and silent space, so a drain
/// lands both mid-handshake (queued SYN retries) and mid-inference
/// (live sessions).
fn small_world(seed: u64) -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed,
        space_size: 1 << 14,
        target_responsive: 150,
        loss_scale: 0.0,
    }))
}

/// The campaign configuration under test: hardened resilience (so the
/// retry FIFOs are live state) and streaming telemetry.
fn durable_config(space: u32, seed: u64) -> ScanConfig {
    let mut config = ScanConfig::study(Protocol::Http, space, seed);
    config.rate_pps = 2_000_000; // compress virtual time
    config.resilience = ResilienceConfig::hardened();
    config.telemetry.stream = Some(Duration::from_millis(100));
    config
}

// ---------------------------------------------------------------------
// Graceful shutdown: drain, distinct disposition.
// ---------------------------------------------------------------------

#[test]
fn graceful_abort_drains() {
    let pop = small_world(0xab07);
    let config = durable_config(pop.space_size(), 0xab07);
    let out = ScanRunner::new(&pop)
        .config(config)
        .topology(Topology::threads(1))
        .control(RunControl {
            abort_at: Some(Duration::from_millis(50)),
            ..RunControl::default()
        })
        .run();
    assert_eq!(out.disposition, RunDisposition::Aborted);
    // The drain force-concluded real in-flight work…
    let forced = out.telemetry.metrics.counter("scan.drain.forced");
    assert!(forced > 0, "abort at 50ms should catch live work");
    assert!(
        out.summary.error_kinds.get(ErrorKind::CollectTimeout) > 0,
        "drained sessions record their truncation: {:?}",
        out.summary
    );
    // …and the world wound down: its books balance (no session, retry
    // or record left over), and every record it made reached the output.
    assert_eq!(out.telemetry.violations(), []);
    let started = out.telemetry.metrics.counter("scan.sessions_started");
    assert_eq!(out.results.len() as u64, started);
}

/// The drain empties the SYN-retry FIFOs, so a hardened scan stops SYNing
/// the silent space at the abort, and a late answer opens no session.
#[test]
fn graceful_abort_stops_syn_retransmissions() {
    use iw_internet::population::PopulationFactory;
    use iw_netsim::{Instant, Sim, SimConfig};

    let pop = small_world(0xab07);
    let config = durable_config(pop.space_size(), 0xab07);
    let sim_config = SimConfig {
        seed: config.seed,
        ..SimConfig::default()
    };
    let scanner = iw_core::Scanner::new(config);
    let mut sim = Sim::new(scanner, PopulationFactory::new(pop.clone()), sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    // 50 ms in: every target has its first SYN out and its retry queued,
    // and the first responders are mid-session.
    sim.run_until(Instant::ZERO + Duration::from_millis(50));
    assert!(sim.scanner().retry_backlog() > 0, "retries in flight");
    sim.kick_scanner(|s, now, fx| s.begin_drain(now, fx));
    let sessions_started =
        |s: &iw_core::Scanner| s.metrics_snapshot().counter("scan.sessions_started");
    let (tx, started) = (sim.stats().scanner_tx, sessions_started(sim.scanner()));
    assert_eq!(sim.scanner().retry_backlog(), 0, "drain empties the FIFOs");
    let dropped = sim
        .scanner()
        .metrics_snapshot()
        .counter("scan.drain.forced");
    assert!(
        dropped >= 1 << 13,
        "dropped retries count as drain pressure"
    );

    sim.run_to_completion();
    assert_eq!(
        sim.stats().scanner_tx,
        tx,
        "the scanner transmitted after the drain"
    );
    assert_eq!(
        sessions_started(sim.scanner()),
        started,
        "a session started after the drain"
    );
    assert_eq!(iw_core::Scanner::harvest(&mut sim).violations(), []);
}

/// A port scan obeys the drain as a measurement scan does: a SYN-ACK
/// that arrives after it records no open port and draws no RST.
#[test]
fn a_drained_port_scan_records_no_late_open_port() {
    use iw_internet::population::PopulationFactory;
    use iw_netsim::{Instant, Sim, SimConfig};

    let pop = small_world(0x9057);
    let mut config = ScanConfig::study(Protocol::PortScan, pop.space_size(), 0x9057);
    config.rate_pps = 2_000_000;
    let sim_config = SimConfig {
        seed: config.seed,
        ..SimConfig::default()
    };
    let factory = PopulationFactory::on_port(pop.clone(), config.protocol.port());
    let mut sim = Sim::new(iw_core::Scanner::new(config), factory, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    // 5 ms in: the space is half sent, and no SYN-ACK is back yet.
    sim.run_until(Instant::ZERO + Duration::from_millis(5));
    sim.kick_scanner(|s, now, fx| s.begin_drain(now, fx));
    let (tx, rx, open) = (
        sim.stats().scanner_tx,
        sim.stats().scanner_rx,
        sim.scanner().open_ports().len(),
    );
    sim.run_to_completion();
    assert!(
        sim.stats().scanner_rx > rx,
        "no answer arrived after the drain"
    );
    assert_eq!(
        sim.scanner().open_ports().len(),
        open,
        "an open port was recorded after the drain"
    );
    assert_eq!(
        sim.stats().scanner_tx,
        tx,
        "the scanner transmitted after the drain"
    );
    assert_eq!(iw_core::Scanner::harvest(&mut sim).violations(), []);
}

// ---------------------------------------------------------------------
// File-format properties: round-trip byte-identity, clean rejection.
// ---------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_campaign(rng: &mut u64) -> CampaignCheckpoint {
    let threads = 1 + (splitmix(rng) % 4) as u32;
    let mut config = durable_config(1 << 12, splitmix(rng));
    config.rate_pps = 1 + splitmix(rng) % 10_000_000;
    config.resilience.syn_retries = (splitmix(rng) % 4) as u32;
    CampaignCheckpoint {
        threads,
        config: config.digest(),
        // Keys needing JSON escaping must survive the round trip too.
        extra: vec![
            ("command".to_string(), "scan".to_string()),
            (
                "note \"quoted\"".to_string(),
                format!("v\\{}", splitmix(rng) % 100),
            ),
        ],
    }
}

#[test]
fn checkpoint_roundtrip_property() {
    let mut rng = 0x1e57_c4e5_u64;
    for case in 0..100 {
        let campaign = random_campaign(&mut rng);
        let bytes = campaign.to_canonical_json();
        let parsed = CampaignCheckpoint::parse(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: rejected own bytes: {e}\n{bytes}"));
        assert_eq!(parsed, campaign, "case {case}: lossy round trip");
        assert_eq!(
            parsed.to_canonical_json(),
            bytes,
            "case {case}: re-serialization not byte-identical"
        );
    }
}

#[test]
fn corrupt_checkpoint_files_rejected_without_panic() {
    let mut rng = 0xdead_f11e_u64;
    let bytes = random_campaign(&mut rng).to_canonical_json();
    // Random truncations (always inside the JSON body) must error.
    for _ in 0..64 {
        let cut = (splitmix(&mut rng) as usize) % (bytes.len() - 1);
        assert!(
            CampaignCheckpoint::parse(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    // Random single-byte garbling must never panic (it may still parse
    // if it lands inside a digit or string, which is fine: the resume
    // pre-flight refuses a digest or context that no longer matches).
    for _ in 0..64 {
        let pos = (splitmix(&mut rng) as usize) % bytes.len();
        let mut garbled = bytes.clone().into_bytes();
        garbled[pos] = garbled[pos].wrapping_add(1 + (splitmix(&mut rng) as u8 % 120));
        if let Ok(text) = String::from_utf8(garbled) {
            let _ = CampaignCheckpoint::parse(&text);
        }
    }
    // An unknown future version is refused by name, not misread, and so
    // is a version-11 file, which carried the replay barrier's captures.
    let current = format!("\"version\":{CHECKPOINT_VERSION}");
    assert!(bytes.contains(&current));
    for other in [999, 11, 1] {
        let foreign = bytes.replace(&current, &format!("\"version\":{other}"));
        assert!(matches!(
            CampaignCheckpoint::parse(&foreign),
            Err(iw_core::CheckpointError::UnknownVersion(v)) if v == other
        ));
    }
}
