//! Crash-fault injection matrix: durable campaigns must survive a
//! `kill -9` at arbitrary event boundaries. Each scenario kills a run
//! mid-flight via [`RunControl::kill_after_events`], resumes from the
//! checkpoint the kill left behind, and demands the resumed campaign
//! produce results, canonical metrics, streaming telemetry and the
//! periodic-checkpoint trail **byte-identical** to an uninterrupted run.
//!
//! Also here: the checkpoint file format's round-trip/corruption
//! properties and the graceful-shutdown drain path.
#![expect(
    clippy::expect_used,
    reason = "helpers outside the #[test] fns fail their test by panicking"
)]

use iw_core::{
    CampaignCheckpoint, ErrorKind, Protocol, ResilienceConfig, RunControl, RunDisposition,
    ScanConfig, ScanOutput, ScanRunner, ShardCheckpoint, Topology, CHECKPOINT_VERSION,
};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::Duration;
use std::sync::Arc;

/// A small world with a mix of responsive and silent space, so kill
/// points land both mid-handshake (pending SYN retries) and
/// mid-inference (live sessions).
fn small_world(seed: u64) -> Arc<Population> {
    Arc::new(Population::new(PopulationConfig {
        seed,
        space_size: 1 << 14,
        target_responsive: 150,
        loss_scale: 0.0,
    }))
}

/// The campaign configuration under test: hardened resilience (so the
/// pending-retry table is live state) and streaming telemetry (so sink
/// offsets are part of the byte-identity contract).
fn durable_config(space: u32, seed: u64) -> ScanConfig {
    let mut config = ScanConfig::study(Protocol::Http, space, seed);
    config.rate_pps = 2_000_000; // compress virtual time
    config.resilience = ResilienceConfig::hardened();
    config.telemetry.stream = Some(Duration::from_millis(100));
    config
}

fn checkpoint_cadence() -> Duration {
    Duration::from_millis(250)
}

fn run(pop: &Arc<Population>, config: &ScanConfig, shards: u32, control: RunControl) -> ScanOutput {
    ScanRunner::new(pop)
        .config(config.clone())
        .topology(Topology::threads(shards))
        .control(control)
        .run()
}

/// Everything the acceptance bar says must be byte-identical between an
/// uninterrupted and a killed-then-resumed campaign.
fn fingerprint(out: &ScanOutput) -> (String, String, String, String) {
    let trail: String = out
        .checkpoints
        .iter()
        .map(ShardCheckpoint::canonical_json)
        .collect::<Vec<_>>()
        .join("\n");
    (
        format!("{:?}", out.results),
        out.telemetry.metrics.to_canonical_json(),
        out.telemetry.stream.to_jsonl(),
        trail,
    )
}

/// The latest capture per shard — for a killed run, the kill-point
/// snapshot each shard persisted on its way down.
fn latest_per_shard(out: &ScanOutput, shards: u32) -> Vec<ShardCheckpoint> {
    (0..shards)
        .map(|s| {
            out.checkpoints
                .iter()
                .rfind(|c| c.shard == s)
                .cloned()
                .expect("killed shard persisted a capture")
        })
        .collect()
}

/// Assemble the campaign file a CLI crash would have left on disk, and
/// round-trip it through the canonical serializer to prove the resumed
/// run works from parsed bytes, not in-memory state.
fn campaign_file(config: &ScanConfig, shards: Vec<ShardCheckpoint>) -> CampaignCheckpoint {
    let threads = shards.len() as u32;
    let campaign = CampaignCheckpoint {
        threads,
        checkpoint_every_nanos: checkpoint_cadence().as_nanos(),
        config: config.digest(),
        extra: vec![("command".to_string(), "scan".to_string())],
        shards,
    };
    CampaignCheckpoint::parse(&campaign.to_canonical_json()).expect("self-serialized file parses")
}

/// Kill at each event count, resume, and demand byte-identity with the
/// uninterrupted baseline. Returns the kill captures for phase checks.
fn kill_resume_matrix(
    pop: &Arc<Population>,
    config: &ScanConfig,
    shards: u32,
    kill_points: &[u64],
) -> Vec<ShardCheckpoint> {
    let every = checkpoint_cadence();
    let baseline = run(
        pop,
        config,
        shards,
        RunControl {
            checkpoint_every: Some(every),
            ..RunControl::default()
        },
    );
    assert_eq!(baseline.disposition, RunDisposition::Completed);
    let want = fingerprint(&baseline);

    let mut captures = Vec::new();
    for &k in kill_points {
        let killed = run(
            pop,
            config,
            shards,
            RunControl {
                kill_after_events: k,
                checkpoint_every: Some(every),
                ..RunControl::default()
            },
        );
        assert_eq!(
            killed.disposition,
            RunDisposition::Killed { events: k },
            "kill at {k}"
        );
        let kill_caps = latest_per_shard(&killed, shards);
        for c in &kill_caps {
            assert_eq!(c.events, k, "shard {} kill capture", c.shard);
        }
        let file = campaign_file(config, kill_caps.clone());
        captures.extend(kill_caps);

        let resumed = run(
            pop,
            config,
            shards,
            RunControl {
                checkpoint_every: Some(every),
                resume: Some(Arc::new(file)),
                ..RunControl::default()
            },
        );
        assert_eq!(
            resumed.disposition,
            RunDisposition::Completed,
            "resume from kill at {k}"
        );
        // The world is lossless: a resumed campaign misjudges nothing (a
        // completed run neither overestimates nor records spuriously).
        let c = resumed.telemetry.truth();
        assert_eq!(c.underestimate, 0, "resumed from {k}: {c:?}");
        let got = fingerprint(&resumed);
        assert_eq!(got.0, want.0, "results diverged resuming from event {k}");
        assert_eq!(got.1, want.1, "metrics diverged resuming from event {k}");
        assert_eq!(got.2, want.2, "stream diverged resuming from event {k}");
        assert_eq!(
            got.3, want.3,
            "checkpoint trail diverged resuming from event {k}"
        );
    }
    captures
}

// ---------------------------------------------------------------------
// The matrix itself: ≥5 kill points single-threaded, 3 more at 4 shards.
// ---------------------------------------------------------------------

#[test]
fn kill_resume_matrix_single_thread() {
    let pop = small_world(0xc4a5);
    let config = durable_config(pop.space_size(), 0xc4a5);
    // Size the kill points off the campaign's own event count.
    let probe = run(&pop, &config, 1, RunControl::default());
    let total = probe
        .checkpoints
        .last()
        .expect("final capture always recorded")
        .events;
    assert!(total > 512, "world too small to exercise kill points");
    let kill_points = [64, total / 6, total / 3, total / 2, (total * 4) / 5];
    let captures = kill_resume_matrix(&pop, &config, 1, &kill_points);
    // The matrix must have sampled both interesting phases: a kill with
    // SYN-retry targets pending (mid-handshake) and one with live
    // stateful sessions (mid-inference).
    assert!(
        captures.iter().any(|c| !c.pending.is_empty()),
        "no kill point landed mid-handshake: {captures:?}"
    );
    assert!(
        captures.iter().any(|c| !c.sessions.is_empty()),
        "no kill point landed mid-inference: {captures:?}"
    );
}

#[test]
fn kill_resume_matrix_four_threads() {
    let pop = small_world(0x4f0u64);
    let config = durable_config(pop.space_size(), 0x4f0);
    let probe = run(&pop, &config, 4, RunControl::default());
    // Shards finish at different event counts; kill points must land
    // inside every shard's run.
    let shortest = latest_per_shard(&probe, 4)
        .iter()
        .map(|c| c.events)
        .min()
        .expect("four final captures");
    assert!(shortest > 256, "shards too short: {shortest}");
    let kill_points = [96, shortest / 3, shortest / 2];
    let captures = kill_resume_matrix(&pop, &config, 4, &kill_points);
    assert!(captures.iter().any(|c| !c.pending.is_empty()));
    assert!(captures.iter().any(|c| !c.sessions.is_empty()));
}

// ---------------------------------------------------------------------
// Resume validation: stale or foreign state must fail closed.
// ---------------------------------------------------------------------

#[test]
fn resume_rejects_tampered_shard_state() {
    let pop = small_world(0x7a3);
    let config = durable_config(pop.space_size(), 0x7a3);
    let killed = run(
        &pop,
        &config,
        1,
        RunControl {
            kill_after_events: 400,
            ..RunControl::default()
        },
    );
    let mut caps = latest_per_shard(&killed, 1);
    // A single off-by-one in recorded progress must be caught by the
    // replay barrier, not silently absorbed.
    caps[0].targets_sent += 1;
    let resumed = run(
        &pop,
        &config,
        1,
        RunControl {
            resume: Some(Arc::new(campaign_file(&config, caps))),
            ..RunControl::default()
        },
    );
    match resumed.disposition {
        RunDisposition::Diverged { detail } => {
            assert!(detail.contains("does not match"), "{detail}");
        }
        other => panic!("tampered checkpoint accepted: {other:?}"),
    }
    assert!(resumed.results.is_empty(), "diverged run must not report");
}

/// A capture carrying counters this build does not register (the TX
/// feeders' `shard.tx.*`, say) is a capture of another build: the barrier
/// compares every counter, so the resume diverges instead of skipping
/// them. (A build that drops a counter changes the capture, and with it
/// the checkpoint version.)
#[test]
fn resume_refuses_counters_this_build_no_longer_registers() {
    let pop = small_world(0x7a3);
    let config = durable_config(pop.space_size(), 0x7a3);
    let killed = run(
        &pop,
        &config,
        2,
        RunControl {
            kill_after_events: 400,
            ..RunControl::default()
        },
    );
    let mut caps = latest_per_shard(&killed, 2);
    for cap in &mut caps {
        cap.counters.push(("shard.tx.batches".to_string(), 0));
        cap.counters.push(("shard.tx.targets".to_string(), 0));
    }
    let resumed = run(
        &pop,
        &config,
        2,
        RunControl {
            resume: Some(Arc::new(campaign_file(&config, caps))),
            ..RunControl::default()
        },
    );
    match resumed.disposition {
        RunDisposition::Diverged { detail } => {
            assert!(detail.contains("does not match"), "{detail}")
        }
        other => panic!("a foreign counter was not compared: {other:?}"),
    }
    assert!(resumed.results.is_empty(), "diverged run must not report");
}

#[test]
fn resume_rejects_config_and_shard_mismatch() {
    let pop = small_world(0x9b1);
    let config = durable_config(pop.space_size(), 0x9b1);
    let killed = run(
        &pop,
        &config,
        1,
        RunControl {
            kill_after_events: 300,
            ..RunControl::default()
        },
    );
    let file = campaign_file(&config, latest_per_shard(&killed, 1));

    // Different seed → different campaign; refused before replay starts,
    // with the offending field named.
    let mut other_seed = config.clone();
    other_seed.seed = 0x9b2;
    let resumed = run(
        &pop,
        &other_seed,
        1,
        RunControl {
            resume: Some(Arc::new(file.clone())),
            ..RunControl::default()
        },
    );
    match resumed.disposition {
        RunDisposition::Diverged { detail } => assert!(detail.contains("seed"), "{detail}"),
        other => panic!("foreign-config resume accepted: {other:?}"),
    }

    // A file whose digest lacks a field parses, and is refused by the
    // same pre-flight check, with the missing field named.
    let bytes = file.to_canonical_json();
    let rate = format!("\"rate_pps\":{},", config.rate_pps);
    assert!(bytes.contains(&rate));
    let lacking = CampaignCheckpoint::parse(&bytes.replace(&rate, "")).unwrap();
    let resumed = run(
        &pop,
        &config,
        1,
        RunControl {
            resume: Some(Arc::new(lacking)),
            ..RunControl::default()
        },
    );
    match resumed.disposition {
        RunDisposition::Diverged { detail } => assert_eq!(
            detail,
            format!(
                "config field `rate_pps`: checkpoint (missing) vs current {}",
                config.rate_pps
            )
        ),
        other => panic!("a digest without `rate_pps` resumed: {other:?}"),
    }

    // Different shard count → cursors would never line up.
    let resumed = run(
        &pop,
        &config,
        4,
        RunControl {
            resume: Some(Arc::new(file)),
            ..RunControl::default()
        },
    );
    match resumed.disposition {
        RunDisposition::Diverged { detail } => assert!(detail.contains("shard"), "{detail}"),
        other => panic!("shard-mismatch resume accepted: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Graceful shutdown: drain, checkpoint, distinct disposition.
// ---------------------------------------------------------------------

#[test]
fn graceful_abort_drains_and_checkpoints() {
    let pop = small_world(0xab07);
    let config = durable_config(pop.space_size(), 0xab07);
    let out = run(
        &pop,
        &config,
        1,
        RunControl {
            abort_at: Some(Duration::from_millis(50)),
            checkpoint_every: Some(checkpoint_cadence()),
            ..RunControl::default()
        },
    );
    assert_eq!(out.disposition, RunDisposition::Aborted);
    // The drain force-concluded real in-flight work…
    let forced = out
        .telemetry
        .metrics
        .counter("scan.checkpoint.drain_forced");
    assert!(forced > 0, "abort at 50ms should catch live work");
    assert!(
        out.summary.error_kinds.get(ErrorKind::CollectTimeout) > 0,
        "drained sessions record their truncation: {:?}",
        out.summary
    );
    // …and the final capture shows a fully wound-down shard.
    let last = out.checkpoints.last().expect("final capture");
    assert!(last.exhausted, "drain stops target generation");
    assert!(last.sessions.is_empty(), "no session survives the drain");
    assert!(last.pending.is_empty(), "no retry survives the drain");
    assert_eq!(last.results_recorded, out.results.len() as u64);
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
        .counter("scan.checkpoint.drain_forced");
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

fn random_shard(rng: &mut u64, index: u32) -> ShardCheckpoint {
    let mut pending: Vec<(u32, u32)> = (0..(splitmix(rng) % 8))
        .map(|_| (splitmix(rng) as u32 % 4096, splitmix(rng) as u32 % 3))
        .collect();
    pending.sort_unstable();
    pending.dedup_by_key(|(ip, _)| *ip);
    let mut sessions: Vec<u32> = (0..(splitmix(rng) % 8))
        .map(|_| splitmix(rng) as u32 % 4096)
        .collect();
    sessions.sort_unstable();
    sessions.dedup();
    let counters: Vec<(String, u64)> = (0..(splitmix(rng) % 6))
        .map(|i| (format!("scan.fuzz.counter_{i:02}"), splitmix(rng)))
        .collect();
    ShardCheckpoint {
        shard: index,
        events: splitmix(rng),
        at_nanos: splitmix(rng),
        cursor_next: splitmix(rng),
        cursor_produced: splitmix(rng),
        exhausted: splitmix(rng).is_multiple_of(2),
        targets_sent: splitmix(rng),
        pending,
        sessions,
        results_recorded: splitmix(rng),
        stream_records: splitmix(rng),
        counters,
    }
}

fn random_campaign(rng: &mut u64) -> CampaignCheckpoint {
    let threads = 1 + (splitmix(rng) % 4) as u32;
    let mut config = durable_config(1 << 12, splitmix(rng));
    config.rate_pps = 1 + splitmix(rng) % 10_000_000;
    config.resilience.syn_retries = (splitmix(rng) % 4) as u32;
    CampaignCheckpoint {
        threads,
        checkpoint_every_nanos: splitmix(rng),
        config: config.digest(),
        // Keys needing JSON escaping must survive the round trip too.
        extra: vec![
            ("command".to_string(), "scan".to_string()),
            (
                "note \"quoted\"".to_string(),
                format!("v\\{}", splitmix(rng) % 100),
            ),
        ],
        shards: (0..threads).map(|i| random_shard(rng, i)).collect(),
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
    // if it lands inside a digit or string, which is fine — the replay
    // barrier catches semantic corruption).
    for _ in 0..64 {
        let pos = (splitmix(&mut rng) as usize) % bytes.len();
        let mut garbled = bytes.clone().into_bytes();
        garbled[pos] = garbled[pos].wrapping_add(1 + (splitmix(&mut rng) as u8 % 120));
        if let Ok(text) = String::from_utf8(garbled) {
            let _ = CampaignCheckpoint::parse(&text);
        }
    }
    // An unknown future version is refused by name, not misread — and
    // so is a version-1 file, whose event numbering predates this build.
    let current = format!("\"version\":{CHECKPOINT_VERSION}");
    assert!(bytes.contains(&current));
    for other in [999, 1] {
        let foreign = bytes.replace(&current, &format!("\"version\":{other}"));
        assert!(matches!(
            CampaignCheckpoint::parse(&foreign),
            Err(iw_core::CheckpointError::UnknownVersion(v)) if v == other
        ));
    }
}
