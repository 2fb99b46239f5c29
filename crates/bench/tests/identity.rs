//! Determinism gate: drives the standard scan on `Topology::threads`
//! 1 (the reference), 4, 7 and 8 — one self-generating shard world per
//! thread — in plain and resilience-hardened profiles, and asserts that
//! everything the scan is specified to produce deterministically —
//! per-host results, the Table 1 summary, open ports, MTU results, the
//! truth tally and the canonical metrics snapshot — is byte-identical
//! across all of them, and that each run completes (no invariant, the
//! truth tally's included, is violated). This is the gate the sharded
//! engine is held to.
//!
//! Virtual `duration` is not compared: the sharded figure is the max
//! over per-shard clocks, and a single shard pacing the whole space ends
//! one pace tick after a quarter-space shard by construction (the gap
//! predates the timer-wheel engine).
//!
//! The population is `IW_SCALE`'s, smoke when unset:
//! `IW_SCALE=medium cargo test --release -p iw-bench --test identity`
//! runs the gate at a larger scale.

use iw_bench::{standard_population, Scale, SEED};
use iw_core::{Protocol, ResilienceConfig, RunDisposition, ScanConfig, ScanRunner, Topology};
use iw_internet::Population;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// The thread counts under test. The first is the reference; every
/// later one must reproduce its bytes exactly. Seven divides neither
/// the rate below (4 000 000 mod 7 = 4) nor the smoke permutation's
/// cycle (p − 1 = 8 208, mod 7 = 4), so the shards' cycles carry a
/// remainder that 4 and 8 leave at zero.
const THREADS: [u32; 4] = [1, 4, 7, 8];

/// The population at `IW_SCALE` (smoke when unset), built once.
fn population() -> &'static Arc<Population> {
    static POPULATION: OnceLock<Arc<Population>> = OnceLock::new();
    POPULATION.get_or_init(|| {
        let scale = match std::env::var("IW_SCALE") {
            Ok(name) => name.parse().unwrap_or_else(|e| panic!("{e}")),
            Err(_) => Scale::Smoke,
        };
        standard_population(scale)
    })
}

/// The canonical dump: byte-identical across execution shapes, or the
/// gate fails.
fn dump(population: &Arc<Population>, threads: u32, hardened: bool) -> String {
    let mut config = ScanConfig::study(Protocol::Http, population.space_size(), SEED);
    config.rate_pps = 4_000_000;
    config.telemetry.record_rtt = true;
    if hardened {
        config.resilience = ResilienceConfig::hardened();
    }
    let out = ScanRunner::new(population)
        .config(config)
        .topology(Topology::threads(threads))
        .run();
    let violations = out.telemetry.violations();
    assert_eq!(
        out.disposition,
        RunDisposition::Completed,
        "threads {threads}: {violations:?}"
    );
    let mut s = String::new();
    writeln!(s, "summary: {:?}", out.summary).unwrap();
    writeln!(s, "open_ports: {:?}", out.open_ports).unwrap();
    writeln!(s, "mtu_results: {:?}", out.mtu_results).unwrap();
    writeln!(s, "truth: {:?}", out.telemetry.truth()).unwrap();
    writeln!(s, "metrics: {}", out.telemetry.metrics.to_canonical_json()).unwrap();
    for r in &out.results {
        writeln!(s, "{r:?}").unwrap();
    }
    s
}

/// Every thread count's dump equals the one-thread reference.
fn assert_identical(hardened: bool) {
    let population = population();
    let reference = dump(population, THREADS[0], hardened);
    for threads in &THREADS[1..] {
        let d = dump(population, *threads, hardened);
        let same = reference.lines().zip(d.lines()).take_while(|(a, b)| a == b);
        assert!(
            d == reference,
            "threads {threads} diverges from threads 1 (hardened: {hardened}) at line {} of {}",
            same.count() + 1,
            reference.lines().count()
        );
    }
}

#[test]
fn a_plain_scan_is_byte_identical_at_1_4_and_8_threads() {
    assert_identical(false);
}

#[test]
fn a_hardened_scan_is_byte_identical_at_1_4_and_8_threads() {
    assert_identical(true);
}
