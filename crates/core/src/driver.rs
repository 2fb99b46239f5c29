//! Glue: run a scanner against a synthetic population, on the calling
//! thread or as `n` ZMap-style cycle-striding shard worlds on `n` real
//! threads ([`Topology::threads`]). Every world generates, paces and
//! probes its own partition and is a pure function of
//! `(config, shard i of n)`; outputs merge by shard index afterwards —
//! so results stay byte-identical at every thread count.

use crate::checkpoint::RunDisposition;
use crate::config::{ScanConfig, TargetSpec};
use crate::observe::ScanTelemetry;
use crate::results::{
    Confusion, HostResult, MssVerdict, MtuResult, ProbeOutcome, Protocol, ScanSummary,
};
use crate::scanner::{Scanner, TargetIter};
use iw_internet::population::{Population, PopulationFactory};
use iw_netsim::sim::SimStats;
use iw_netsim::{Duration, Sim, SimConfig, Trace};
use iw_telemetry::Counter;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything a scan produces.
#[derive(Debug, Clone)]
pub struct ScanOutput {
    /// Per-host measurement records (sorted by address).
    pub results: Vec<HostResult>,
    /// Port-scan mode: open ports.
    pub open_ports: Vec<u32>,
    /// ICMP mode: discovered path MTUs.
    pub mtu_results: Vec<MtuResult>,
    /// Table 1 aggregates.
    pub summary: ScanSummary,
    /// Simulator packet/event counters.
    pub sim_stats: SimStats,
    /// Virtual time the scan took (§3.4's metric).
    pub duration: Duration,
    /// Metrics and every telemetry product, merged across shards.
    pub telemetry: ScanTelemetry,
    /// Recorded wire traffic (empty unless `record_trace`).
    pub trace: Trace,
    /// How the run ended (a violation, kill or abort poisons completion).
    pub disposition: RunDisposition,
}

/// Run controls: crash injection, graceful abort and watched addresses.
/// The default is a plain uninterrupted run.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Stop each shard's event loop after this many events (0 = off).
    /// This is the crash-injection hook: the loop breaks *between*
    /// events, exactly as a `kill -9` between two event handlers would.
    pub kill_after_events: u64,
    /// Inert: nothing captures. Kept only because the benchmark's
    /// campaign adapter still sets it.
    #[doc(hidden)]
    pub checkpoint_every: Option<Duration>,
    /// Graceful-shutdown deadline: past this virtual time the scanner
    /// drains in-flight work and the run ends as [`RunDisposition::Aborted`].
    pub abort_at: Option<Duration>,
    /// Inert: never called. Kept only because the benchmark's campaign
    /// adapter still sets it.
    #[doc(hidden)]
    pub on_checkpoint: Option<CheckpointSink>,
    /// Addresses whose every flight entry (SYNs, segments and state
    /// transitions) the flight recorder keeps, unbounded, as a history
    /// (`ScanTelemetry::flight.histories()`); any other address is only
    /// counted.
    pub watch: BTreeSet<u32>,
}

/// The benchmark's names for the replay barrier that resume no longer
/// has (DESIGN.md §12): a callback type nothing calls, and a capture
/// that holds nothing. They go when the benchmark stops naming them.
#[doc(hidden)]
pub type CheckpointSink = Arc<dyn Fn(u32, &ShardCheckpoint) + Send + Sync>;

/// See [`CheckpointSink`].
#[doc(hidden)]
pub struct ShardCheckpoint;

impl ShardCheckpoint {
    /// Empty: there is no capture to serialise.
    pub fn canonical_json(&self) -> String {
        String::new()
    }
}

impl Scanner {
    /// See [`CheckpointSink`]: an empty capture.
    #[doc(hidden)]
    pub fn checkpoint(&self, _events: u64, _now: iw_netsim::Instant) -> ShardCheckpoint {
        ShardCheckpoint
    }
}

/// How a scan maps onto OS threads: a shard-world count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology(u32);

impl Topology {
    /// `n` self-generating shard worlds on `n` scoped threads, world `i`
    /// scanning partition `(i, n)` at `rate::shard_rate(rate_pps, i, n)`.
    /// `n <= 1` runs one world on the calling thread and honors the
    /// configured `ScanConfig::shard` tuple as-is, so a caller can still
    /// drive one sub-shard by hand.
    pub fn threads(n: u32) -> Topology {
        Topology(n.max(1))
    }
}

/// The one way to run a scan: configure, pick a topology, go.
///
/// ```no_run
/// # use iw_core::prelude::*;
/// # use iw_core::Protocol;
/// # use iw_internet::Population;
/// # use std::sync::Arc;
/// # let population: Arc<Population> = unimplemented!();
/// let output = ScanRunner::new(&population)
///     .config(ScanConfig::study(Protocol::Http, population.space_size(), 7))
///     .topology(Topology::threads(4))
///     .run();
/// ```
///
/// This builder is the entire entry surface. The default configuration
/// is the paper's HTTP study over the population's full space with
/// seed 0, on one thread.
pub struct ScanRunner {
    population: Arc<Population>,
    config: ScanConfig,
    topology: Topology,
    control: RunControl,
}

impl ScanRunner {
    /// A runner with the study defaults for `population`.
    pub fn new(population: &Arc<Population>) -> ScanRunner {
        ScanRunner {
            config: ScanConfig::study(Protocol::Http, population.space_size(), 0),
            population: population.clone(),
            topology: Topology::threads(1),
            control: RunControl::default(),
        }
    }

    /// Replace the scan configuration wholesale.
    pub fn config(mut self, config: ScanConfig) -> ScanRunner {
        self.config = config;
        self
    }

    /// Choose how the scan maps onto threads (default: one).
    pub fn topology(mut self, topology: Topology) -> ScanRunner {
        self.topology = topology;
        self
    }

    /// Install run controls (crash injection, graceful abort, watched
    /// addresses).
    pub fn control(mut self, control: RunControl) -> ScanRunner {
        self.control = control;
        self
    }

    /// Run to completion and merge.
    pub fn run(self) -> ScanOutput {
        let Topology(shards) = self.topology;
        if shards == 1 {
            let (out, _) = run_shard(&self.population, self.config.clone(), &self.control);
            return settle(out, &self.population, &self.config, 0);
        }
        let (population, control) = (&self.population, &self.control);
        #[expect(clippy::expect_used, reason = "a shard world's panic propagates")]
        let worlds: Vec<(ScanOutput, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..shards)
                .map(|i| {
                    let mut config = self.config.clone();
                    config.shard = (i, shards);
                    if i > 0 {
                        // One progress monitor is enough; shard 0 reports
                        // for all (interleaved per-shard lines would be
                        // unreadable anyway).
                        config.telemetry.monitor = None;
                    }
                    scope.spawn(move || run_shard(population, config, control))
                })
                .collect();
            // Joined in spawn order, so the merge sees shard 0..n no
            // matter which world finishes first. A world panic must
            // propagate, not be silently merged into partial results.
            workers
                .into_iter()
                .map(|h| h.join().expect("shard world panicked"))
                .collect()
        });
        // The worlds' rates must add up to the global one, or to one pps
        // per world where `shard_rate` clamps a rate below the count.
        let paced: u64 = worlds.iter().map(|w| w.1).sum();
        let unsummed = paced.abs_diff(self.config.rate_pps.max(u64::from(shards)));
        let out = merge(worlds.into_iter().map(|w| w.0).collect());
        // Together the worlds scan what an unsharded config targets.
        let mut whole = self.config;
        whole.shard = (0, 1);
        settle(out, &self.population, &whole, unsummed)
    }
}

/// The run-level step, once the worlds have joined (one world or `n`):
/// record `unsummed`, the worlds' rates against the global one (0 for a
/// one-world run), and tally a drained HTTP or TLS scan's records
/// against the population's truth, over the hosts `config` targets. A
/// non-zero `scan.invariant.*` counter makes a drained run `Violated`.
/// The worlds are gone by now, so the tally's walk adds to the run's
/// wall time but not to its peak memory.
fn settle(
    mut out: ScanOutput,
    population: &Population,
    config: &ScanConfig,
    unsummed: u64,
) -> ScanOutput {
    let telemetry = &mut out.telemetry;
    telemetry.set(Counter::InvariantRateUnsummed, unsummed);
    let drained = matches!(
        out.disposition,
        RunDisposition::Completed | RunDisposition::Aborted | RunDisposition::Violated
    );
    if drained && matches!(config.protocol, Protocol::Http | Protocol::Tls) {
        let truth = Confusion::of_population(population, config, targeted(config), &out.results);
        telemetry.record_truth(&truth);
    }
    if drained && !telemetry.violations().is_empty() {
        out.disposition = RunDisposition::Violated;
    }
    out
}

/// Every address `config`'s generator yields, before
/// [`ScanConfig::admits`] turns any away. A whole space is walked in
/// address order: a full cycle of the permutation visits each address
/// once, and stepping the cycle costs a 128-bit remainder per address.
fn targeted(config: &ScanConfig) -> Box<dyn Iterator<Item = u32> + '_> {
    match &config.targets {
        TargetSpec::FullSpace { size } if config.shard.1 <= 1 => Box::new(0..*size),
        _ => {
            let (mut generator, _) = TargetIter::new(config);
            Box::new(std::iter::from_fn(move || generator.next()).map(|(ip, _)| ip))
        }
    }
}

/// Run one shard world to completion on the current thread: drive a
/// self-generating scanner against the population under the run
/// controls, then harvest. Returns the output and the rate the world
/// paced at.
fn run_shard(
    population: &Arc<Population>,
    config: ScanConfig,
    control: &RunControl,
) -> (ScanOutput, u64) {
    let sim_config = SimConfig {
        seed: config.seed,
        record_trace: config.record_trace,
        // The sim profiles its own hot path whenever span tracing is on.
        profile: config.telemetry.record_spans,
    };
    let factory = PopulationFactory::on_port(population.clone(), config.protocol.port());
    let mut sim = Sim::new(Scanner::new(config), factory, sim_config);
    sim.scanner_mut().watch(control.watch.iter().copied());
    sim.kick_scanner(|s, now, fx| s.start(now, fx));

    // Stepwise event loop: the kill point is an event count and the
    // abort deadline a virtual time, so a killed or aborted world is as
    // deterministic as a completed one.
    let abort_nanos = control.abort_at.map(|d| d.as_nanos());
    let mut processed: u64 = 0;
    let mut disposition = RunDisposition::Completed;
    loop {
        if control.kill_after_events > 0 && processed >= control.kill_after_events {
            // Crash injection: stop dead between two events.
            disposition = RunDisposition::Killed { events: processed };
            break;
        }
        if !sim.step() {
            break;
        }
        processed += 1;
        if let Some(deadline) = abort_nanos {
            if disposition == RunDisposition::Completed && sim.now().as_nanos() >= deadline {
                disposition = RunDisposition::Aborted;
                sim.kick_scanner(|s, at, fx| s.begin_drain(at, fx));
            }
        }
    }
    let drained = matches!(
        disposition,
        RunDisposition::Completed | RunDisposition::Aborted
    );

    let duration = sim.now() - iw_netsim::Instant::ZERO;
    let sim_stats = sim.stats();
    let trace = sim.take_trace();
    let telemetry = Scanner::harvest(&mut sim);
    if drained && !telemetry.violations().is_empty() {
        disposition = RunDisposition::Violated;
    }
    // The world is dropped next: its records leave by move, not by copy.
    let scanner = sim.scanner_mut();
    let (mut results, mut open_ports, mut mtu_results) = scanner.take_records();
    results.sort_by_key(|r| r.ip);
    open_ports.sort_unstable();
    mtu_results.sort_by_key(|r| r.ip);
    let summary = summarize(&results, scanner.targets_sent(), scanner.refused());
    let output = ScanOutput {
        results,
        open_ports,
        mtu_results,
        summary,
        sim_stats,
        duration,
        telemetry,
        trace,
        disposition,
    };
    (output, scanner.pace_pps())
}

/// Build Table 1 aggregates from per-host records.
pub fn summarize(results: &[HostResult], targets: u64, refused: u64) -> ScanSummary {
    let mut summary = ScanSummary {
        targets,
        refused,
        reachable: results.len() as u64,
        ..ScanSummary::default()
    };
    for r in results {
        match r.primary_verdict() {
            Some(MssVerdict::Success(_)) => summary.success += 1,
            Some(MssVerdict::FewData(_)) => summary.few_data += 1,
            _ => summary.error += 1,
        }
        for (_, outcomes) in &r.runs {
            for o in outcomes {
                if let ProbeOutcome::Error { kind } = o {
                    summary.error_kinds.note(*kind);
                }
            }
        }
    }
    summary
}

fn merge(outputs: Vec<ScanOutput>) -> ScanOutput {
    let mut results = Vec::new();
    let mut open_ports = Vec::new();
    let mut mtu_results = Vec::new();
    let mut summary = ScanSummary::default();
    let mut sim_stats = SimStats::default();
    let mut duration = Duration::ZERO;
    let mut telemetry = ScanTelemetry::default();
    let mut trace = Trace::default();
    let mut disposition = RunDisposition::Completed;
    for out in outputs {
        results.extend(out.results);
        open_ports.extend(out.open_ports);
        mtu_results.extend(out.mtu_results);
        summary += &out.summary;
        sim_stats += out.sim_stats;
        duration = duration.max(out.duration);
        telemetry.merge(out.telemetry);
        trace.merge(out.trace);
        disposition = disposition.merge(out.disposition);
    }
    results.sort_by_key(|r| r.ip);
    open_ports.sort_unstable();
    mtu_results.sort_by_key(|r| r.ip);
    ScanOutput {
        results,
        open_ports,
        mtu_results,
        summary,
        sim_stats,
        duration,
        telemetry,
        trace,
        disposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{HostVerdict, Protocol};
    use iw_internet::PopulationConfig;

    #[test]
    fn an_overestimate_and_a_spurious_record_violate_the_run() {
        let population = Arc::new(Population::new(PopulationConfig {
            seed: 3,
            space_size: 1 << 13,
            target_responsive: 200,
            loss_scale: 0.0,
        }));
        let mut config = ScanConfig::study(Protocol::Http, population.space_size(), 3);
        config.rate_pps = 2_000_000;
        let mut out = ScanRunner::new(&population).config(config.clone()).run();
        assert_eq!(out.disposition, RunDisposition::Completed);
        assert_eq!(out.telemetry.truth().overestimate, 0);
        // One window above the truth at a real host (the world is
        // lossless, so every `Success` is exact)...
        let (at, n) = (out.results.iter().enumerate())
            .find_map(|(at, r)| match r.verdicts.first() {
                Some(&(_, MssVerdict::Success(n))) => Some((at, n)),
                _ => None,
            })
            .unwrap();
        out.results[at].verdicts[0].1 = MssVerdict::Success(n + 1);
        // ...and a record where no host lives.
        let empty = (0..population.space_size())
            .find(|&ip| population.ground_truth(ip).is_none())
            .unwrap();
        let planted = HostResult {
            ip: empty,
            ..out.results[0].clone()
        };
        out.results.push(planted);
        out.results.sort_by_key(|r| r.ip);
        let out = settle(out, &population, &config, 0);
        assert_eq!(out.disposition, RunDisposition::Violated);
        assert_eq!(
            out.telemetry.violations(),
            [
                ("scan.invariant.truth_overestimate", 1),
                ("scan.invariant.truth_spurious", 1)
            ]
        );
    }

    #[test]
    fn summarize_counts_categories() {
        let mk = |v| HostResult {
            ip: 0,
            protocol: Protocol::Http,
            runs: vec![],
            verdicts: vec![(64, v)],
            host_verdict: HostVerdict::Unclassified,
        };
        let results = vec![
            mk(MssVerdict::Success(10)),
            mk(MssVerdict::Success(2)),
            mk(MssVerdict::FewData(7)),
            mk(MssVerdict::Error),
        ];
        let s = summarize(&results, 100, 5);
        assert_eq!(s.reachable, 4);
        assert_eq!(s.success, 2);
        assert_eq!(s.few_data, 1);
        assert_eq!(s.error, 1);
        assert_eq!(s.targets, 100);
        assert_eq!(s.refused, 5);
    }
}
