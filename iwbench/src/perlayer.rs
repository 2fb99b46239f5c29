//! The per-layer numbers: the traced run of one workload, and the layer
//! drivers (micro rows, the threaded-engine A-vs-B rows, the telemetry
//! on/off rows). Tracing is off for every end-to-end number; everything
//! here is a separate run.

use crate::adapter::campaign::Campaign;
use crate::adapter::layers;
use crate::check::{self, Tally, Verdict};
use crate::e2e::{gate, spawn_rep};
use crate::measure::{median, Metric};
use crate::spec::{self, Products, Scale, Workload};

/// The traced run of `w` (its single-world form), next to an untraced run
/// of the same form in this process: the difference between the two is the
/// tracing overhead, and their digests must agree.
pub fn traced(w: &Workload, seed: u64) -> Result<(Vec<Metric>, Tally), String> {
    let campaign = Campaign::build(w, seed);
    let plain = campaign.run_on(1);
    gate(w, &plain)?;
    let t = campaign.run_traced();
    if t.pool_outstanding != 0 || t.targets != plain.targets {
        return Err(format!("{}: traced run did not drain", w.name));
    }
    let (plain_digest, traced_digest) =
        (check::digest(&plain.observed), check::digest(&t.observed));
    if plain_digest != traced_digest || t.events != plain.events {
        return Err(format!(
            "{}: traced run diverged from the untraced one \
             (digest {traced_digest:016x} vs {plain_digest:016x}, events {} vs {})",
            w.name, t.events, plain.events
        ));
    }
    let tally = check::check(&campaign.ground_truth(), &t.observed, w.lossless());
    let success = t
        .observed
        .iter()
        .filter(|o| matches!(o.verdicts.first(), Some((_, Verdict::Success(_)))))
        .count();
    let rows = vec![
        Metric::secs("netsim.self_s", t.netsim_self_s),
        Metric::count("netsim.events", t.events),
        Metric::new(
            "netsim.ns_per_event",
            "ns",
            t.netsim_self_s * 1e9 / t.events.max(1) as f64,
        ),
        Metric::count("netsim.live_hosts_peak", t.live_hosts_peak),
        Metric::count("netsim.lost", t.lost),
        Metric::secs("core.scanner_packet_s", t.scanner_packet.secs),
        Metric::count("core.scanner_packets", t.scanner_packet.calls),
        Metric::secs("core.scanner_timer_s", t.scanner_timer.secs),
        Metric::count("core.scanner_timers", t.scanner_timer.calls),
        Metric::count("core.sessions_peak", t.sessions_peak),
        Metric::new("core.virtual_s", "s", t.virtual_s),
        Metric::count("core.scanner_tx", t.scanner_tx),
        Metric::count("core.reachable", t.observed.len() as u64),
        Metric::count("core.success", success as u64),
        Metric::count("core.underestimates", tally.underestimates),
        Metric::count("core.missed", tally.missed),
        Metric::count("core.duplicates", tally.duplicates),
        Metric::secs("hoststack.packet_s", t.host_packet.secs),
        Metric::count("hoststack.packets", t.host_packet.calls),
        Metric::secs("hoststack.timer_s", t.host_timer.secs),
        Metric::count("hoststack.timers", t.host_timer.calls),
        Metric::secs("internet.create_s", t.create.secs),
        Metric::count("internet.create_calls", t.create.calls),
        Metric::count("internet.hosts_spawned", t.hosts_spawned),
        Metric::ratio(
            "wire.pool_allocs_per_packet",
            t.pool_allocations as f64 / t.packets.max(1) as f64,
        ),
        Metric::count("wire.pool_recycled", t.pool_recycled),
        Metric::new("core.checkpoint_capture_us", "us", t.checkpoint_capture_us),
        Metric::new("core.checkpoint_bytes", "bytes", t.checkpoint_bytes as f64),
        Metric::secs("trace.wall_s", t.wall_s),
        Metric::ratio("trace.overhead_ratio", t.wall_s / plain.wall_s),
        Metric::new("trace.clock_ns", "ns", t.clock_ns),
    ];
    Ok((rows, tally))
}

/// Share of the traced run each layer accounts for, from [`traced`]'s rows.
pub fn shares(rows: &[Metric]) -> [(&'static str, f64); 4] {
    let total_of = |names: &[&str]| -> f64 {
        rows.iter()
            .filter(|m| names.contains(&m.name.as_str()))
            .map(|m| m.value)
            .sum()
    };
    let layers = [
        ("netsim", total_of(&["netsim.self_s"])),
        (
            "core",
            total_of(&["core.scanner_packet_s", "core.scanner_timer_s"]),
        ),
        (
            "hoststack",
            total_of(&["hoststack.packet_s", "hoststack.timer_s"]),
        ),
        ("internet", total_of(&["internet.create_s"])),
    ];
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    layers.map(|(name, s)| (name, s / total))
}

/// Rounds of the campaign-sized A-vs-B rows; each row is the median over
/// the rounds, and a round runs every variant once, so slow drift of the
/// host hits all variants alike.
const ROUNDS: usize = 3;

fn median_of(rounds: &[Vec<f64>], column: usize) -> f64 {
    let values: Vec<f64> = rounds.iter().map(|r| r[column]).collect();
    median(&values)
}

/// ROADMAP item 2's measurement, both variants in one process: the
/// campaign as one world, on the threaded engine (feeders, rings, merge),
/// and as two self-generating shard worlds on two plain threads.
fn driver(world: &Workload, seed: u64) -> Result<Vec<Metric>, String> {
    let campaign = Campaign::build(world, seed);
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let single = campaign.run_on(1);
        gate(world, &single)?;
        let ring = campaign.run_on(2);
        gate(world, &ring)?;
        if check::digest(&single.observed) != check::digest(&ring.observed) {
            return Err(format!(
                "{}: threaded results differ from single-world results",
                world.name
            ));
        }
        let (direct_wall_s, direct_targets) = campaign.run_direct(2);
        if direct_targets != single.targets {
            return Err(format!(
                "{}: direct shard worlds probed {direct_targets} targets, not {}",
                world.name, single.targets
            ));
        }
        rounds.push(vec![single.wall_s, ring.wall_s, direct_wall_s]);
    }
    let (single, ring, direct) = (
        median_of(&rounds, 0),
        median_of(&rounds, 1),
        median_of(&rounds, 2),
    );
    Ok(vec![
        Metric::secs("core.driver.single_wall_s", single),
        Metric::secs("core.driver.direct2_wall_s", direct),
        Metric::ratio("core.driver.ring_vs_direct_ratio", ring / direct),
        Metric::ratio("core.driver.speedup_2t", single / ring),
    ])
}

/// Wall (and for the flight recorder, memory) with one product on over
/// everything off, on one small TLS world.
fn telemetry(world: &Workload, seed: u64) -> Result<Vec<Metric>, String> {
    let wall = |products: Products| -> Result<f64, String> {
        let w = Workload { products, ..*world };
        let finished = Campaign::build(&w, seed).run();
        gate(&w, &finished)?;
        Ok(finished.wall_s)
    };
    let only = |set: fn(&mut Products)| {
        let mut p = Products::NONE;
        set(&mut p);
        p
    };
    let rows: [(&str, Products); 7] = [
        ("telemetry.events_overhead_ratio", only(|p| p.events = true)),
        ("telemetry.rtt_overhead_ratio", only(|p| p.rtt = true)),
        ("telemetry.spans_overhead_ratio", only(|p| p.spans = true)),
        ("telemetry.flight_overhead_ratio", only(|p| p.flight = true)),
        ("telemetry.stream_overhead_ratio", only(|p| p.stream = true)),
        (
            "telemetry.monitor_overhead_ratio",
            only(|p| p.monitor = true),
        ),
        (
            "core.checkpoint_overhead_ratio",
            only(|p| p.checkpoint_s = 1),
        ),
    ];
    // Column 0 is everything off; column i + 1 is row i.
    let rounds: Vec<Vec<f64>> = (0..ROUNDS)
        .map(|_| {
            std::iter::once(Products::NONE)
                .chain(rows.iter().map(|(_, p)| *p))
                .map(wall)
                .collect()
        })
        .collect::<Result<_, _>>()?;
    let off = median_of(&rounds, 0);
    let mut out: Vec<Metric> = rows
        .iter()
        .enumerate()
        .map(|(i, (name, _))| Metric::ratio(name, median_of(&rounds, i + 1) / off))
        .collect();
    // Peak memory is per process: two fresh ones.
    let rss = |products: Products| {
        spawn_rep(&Workload { products, ..*world }, seed).map(|rep| rep.peak_rss_mb)
    };
    let flight = rss(only(|p| p.flight = true))? / rss(Products::NONE)?;
    out.insert(4, Metric::ratio("telemetry.flight_rss_ratio", flight));
    Ok(out)
}

/// Every layer-driver row. The campaign-sized rows run on shrunk worlds
/// of the suite's own workloads so the whole set fits in one run.
pub fn layer_rows(scale: Scale, seed: u64) -> Result<Vec<Metric>, String> {
    let world = |name: &str, shrink: u32| {
        spec::workload(name)
            .expect("suite workload")
            .at(scale)
            .shrunk(shrink)
    };
    let mut rows = layers::micro(&world("dense_http", 2), seed);
    rows.extend(driver(&world("campaign_2t", 2), seed)?);
    // 24 runs, so small ones; much below 0.3 s each and what a run pays
    // once (first touch of its tables) drowns the product's cost.
    let tls = Workload {
        products: Products::NONE,
        ..world("observed_tls", 2)
    };
    rows.extend(telemetry(&tls, seed)?);
    Ok(rows)
}
