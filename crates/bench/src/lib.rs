//! # iw-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`).
//! This library holds the shared machinery: standard populations, scan
//! runners, and paper-vs-measured reporting.
//!
//! Scale is controlled by the `IW_SCALE` environment variable:
//! `small` (CI/tests, default), `medium`, or `large` (closest to the
//! paper's relative numbers; takes minutes).
#![forbid(unsafe_code)]

use iw_core::{Protocol, ScanConfig, ScanOutput, ScanRunner, TargetSpec, Topology};
use iw_internet::{alexa, Population, PopulationConfig};
use std::sync::Arc;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~200 hosts in a 2¹³ space — sub-second even in debug builds
    /// (the CI bench-smoke population).
    Smoke,
    /// ~2.5 k hosts in a 2¹⁷ space — seconds.
    Small,
    /// ~12 k hosts in a 2¹⁹ space — tens of seconds.
    Medium,
    /// ~60 k hosts in a 2²² space — minutes.
    Large,
}

impl Scale {
    /// Read from `IW_SCALE` (default small).
    pub fn from_env() -> Scale {
        match std::env::var("IW_SCALE").as_deref() {
            Ok("large") => Scale::Large,
            Ok("medium") => Scale::Medium,
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Small,
        }
    }

    /// `(space_size, target_responsive)`.
    pub fn dimensions(self) -> (u32, u32) {
        match self {
            Scale::Smoke => (1 << 13, 200),
            Scale::Small => (1 << 17, 2_500),
            Scale::Medium => (1 << 19, 12_000),
            Scale::Large => (1 << 22, 60_000),
        }
    }

    /// Alexa-list size for this scale.
    pub fn alexa_n(self) -> usize {
        match self {
            Scale::Smoke => 50,
            Scale::Small => 400,
            Scale::Medium => 2_000,
            Scale::Large => 10_000,
        }
    }
}

/// The default experiment seed (fixed: experiments must be reproducible).
pub const SEED: u64 = 0x1307_2017;

/// Build the standard population at a scale.
pub fn standard_population(scale: Scale) -> Arc<Population> {
    let (space_size, target_responsive) = scale.dimensions();
    Arc::new(Population::new(PopulationConfig {
        seed: SEED,
        space_size,
        target_responsive,
        loss_scale: 0.0,
    }))
}

/// A population with calibrated link loss enabled (validation studies).
pub fn lossy_population(scale: Scale, loss_scale: f64) -> Arc<Population> {
    let (space_size, target_responsive) = scale.dimensions();
    Arc::new(Population::new(PopulationConfig {
        seed: SEED,
        space_size,
        target_responsive,
        loss_scale,
    }))
}

/// Threads to shard scans over.
pub fn threads() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(4)
        .min(16)
}

/// The standard bench topology: all cores (results are byte-identical
/// at every thread count).
pub fn bench_topology() -> Topology {
    Topology::threads(threads())
}

/// Run a full-space scan of one protocol with study parameters.
pub fn full_scan(population: &Arc<Population>, protocol: Protocol) -> ScanOutput {
    let mut config = ScanConfig::study(protocol, population.space_size(), SEED);
    config.rate_pps = 4_000_000; // virtual pps: compress virtual time
    ScanRunner::new(population)
        .config(config)
        .topology(bench_topology())
        .run()
}

/// Run a full-space scan at the paper's real packet rate (for the §3.4
/// efficiency numbers, where virtual duration matters).
pub fn paced_scan(population: &Arc<Population>, protocol: Protocol, rate_pps: u64) -> ScanOutput {
    let config = ScanConfig {
        rate_pps,
        ..ScanConfig::study(protocol, population.space_size(), SEED)
    };
    ScanRunner::new(population)
        .config(config)
        .topology(bench_topology())
        .run()
}

/// Scan the synthetic Alexa list (domains known → Host header + SNI).
pub fn alexa_scan(population: &Arc<Population>, protocol: Protocol, n: usize) -> ScanOutput {
    let list = alexa::build(population, n, 1);
    let targets: Vec<(u32, Option<String>)> =
        list.into_iter().map(|e| (e.ip, Some(e.domain))).collect();
    let mut config = ScanConfig::study(protocol, population.space_size(), SEED);
    config.targets = TargetSpec::List(targets);
    config.rate_pps = 4_000_000;
    // One shard: list experiments are small and their reports cite the
    // single-world ordering.
    ScanRunner::new(population).config(config).run()
}

/// Write an experiment's telemetry snapshot next to its report.
///
/// Every `exp_*` binary drops a `BENCH_<label>.metrics.json` with the
/// full metrics snapshot (scan + shard scope) and the event-log summary,
/// so runs can be diffed and regressions spotted without re-reading the
/// human-oriented stdout tables.
pub fn write_metrics_snapshot(label: &str, out: &ScanOutput) {
    let path = format!("BENCH_{label}.metrics.json");
    let body = format!(
        "{{\"metrics\":{},\"events\":{}}}\n",
        out.telemetry.metrics.to_json(),
        out.telemetry.events.summary_json()
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("telemetry snapshot written to {path}");
    }
}

/// Pretty-print a paper-vs-measured header for an experiment.
pub fn banner(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// Report a numeric comparison line.
pub fn compare_line(metric: &str, paper: f64, measured: f64, unit: &str) {
    println!("  {metric:<44} paper {paper:>8.1}{unit}   measured {measured:>8.1}{unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_dimensions_are_ordered() {
        let (s, sh) = Scale::Small.dimensions();
        let (m, mh) = Scale::Medium.dimensions();
        let (l, lh) = Scale::Large.dimensions();
        assert!(s < m && m < l);
        assert!(sh < mh && mh < lh);
    }

    #[test]
    fn standard_population_shape() {
        let p = standard_population(Scale::Small);
        assert_eq!(p.space_size(), 1 << 17);
        assert!(p.registry().ases().len() > 150);
    }

    #[test]
    fn threads_positive() {
        assert!(threads() >= 1);
    }
}
