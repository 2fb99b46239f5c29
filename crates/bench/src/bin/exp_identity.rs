//! Determinism gate: drives the standard scan on `Topology::threads`
//! 1 (the reference), 4 and 8 — one self-generating shard world per
//! thread — in plain and resilience-hardened profiles, and asserts that
//! everything the scan is specified to produce deterministically —
//! per-host results, the Table 1 summary, open ports, MTU results, and
//! the canonical metrics snapshot — is byte-identical across all of
//! them. This is the gate the sharded engine is held to; the process
//! exits non-zero on divergence.
//!
//! Virtual `duration` is reported but not compared: the sharded figure
//! is the max over per-shard clocks, and a single shard pacing the
//! whole space ends one pace tick after a quarter-space shard by
//! construction (the gap predates the timer-wheel engine).

use iw_bench::{standard_population, Scale, SEED};
use iw_core::{Confusion, Protocol, ResilienceConfig, ScanConfig, ScanRunner, Topology};
use iw_internet::Population;
use std::fmt::Write as _;
use std::sync::Arc;

/// The thread counts under test. The first is the reference; every
/// later one must reproduce its bytes exactly.
const THREADS: [u32; 3] = [1, 4, 8];

/// The canonical dump: byte-identical across execution shapes, or the
/// gate fails.
fn dump(population: &Arc<Population>, threads: u32, hardened: bool) -> String {
    let mut config = ScanConfig::study(Protocol::Http, population.space_size(), SEED);
    config.rate_pps = 4_000_000;
    config.telemetry.record_events = true;
    config.telemetry.record_rtt = true;
    if hardened {
        config.resilience = ResilienceConfig::hardened();
    }
    let out = ScanRunner::new(population)
        .config(config)
        .topology(Topology::threads(threads))
        .run();
    println!("duration (not compared): {:?}", out.duration);
    let c = Confusion::of_population(population, Protocol::Http, &out.results);
    assert_eq!(
        (c.overestimate, c.spurious),
        (0, 0),
        "against ground truth: {c:?}"
    );
    let mut s = String::new();
    writeln!(s, "summary: {:?}", out.summary).unwrap();
    writeln!(s, "open_ports: {:?}", out.open_ports).unwrap();
    writeln!(s, "mtu_results: {:?}", out.mtu_results).unwrap();
    writeln!(s, "metrics: {}", out.telemetry.metrics.to_canonical_json()).unwrap();
    for r in &out.results {
        writeln!(s, "{r:?}").unwrap();
    }
    s
}

fn main() {
    let population = standard_population(Scale::from_env());
    let mut failures = 0;
    for hardened in [false, true] {
        let profile = if hardened { "hardened" } else { "plain" };
        let mut reference: Option<String> = None;
        for threads in THREADS {
            let label = format!("threads {threads}");
            println!("== {label} {profile}");
            let d = dump(&population, threads, hardened);
            match &reference {
                None => {
                    reference = Some(d);
                }
                Some(r) if *r == d => {
                    println!("{profile}: {label} matches threads 1 ({} bytes)", d.len());
                }
                Some(r) => {
                    let at = r.lines().zip(d.lines()).position(|(a, b)| a != b);
                    eprintln!(
                        "{profile}: {label} DIVERGES from threads 1 (first differing line: {at:?})"
                    );
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("determinism gate FAILED for {failures} shape/profile pair(s)");
        std::process::exit(1);
    }
    println!("determinism gate passed");
}
