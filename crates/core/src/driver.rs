//! Glue: run a scanner against a synthetic population, on the calling
//! thread or as `n` ZMap-style cycle-striding shard worlds on `n` real
//! threads ([`Topology::threads`]). Every world generates, paces and
//! probes its own partition and is a pure function of
//! `(config, shard i of n)`; outputs merge by shard index afterwards —
//! so results stay byte-identical at every thread count.

use crate::checkpoint::{CampaignCheckpoint, RunDisposition, ShardCheckpoint};
use crate::config::ScanConfig;
use crate::observe::ScanTelemetry;
use crate::results::{HostResult, MssVerdict, MtuResult, ProbeOutcome, Protocol, ScanSummary};
use crate::scanner::Scanner;
use iw_internet::population::{Population, PopulationFactory};
use iw_netsim::sim::SimStats;
use iw_netsim::{Duration, Sim, SimConfig, Trace};
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
    /// Checkpoint captures (periodic, kill-point and final), sorted by
    /// `(shard, events)`.
    pub checkpoints: Vec<ShardCheckpoint>,
    /// How the run ended (kill/abort/divergence poison completion).
    pub disposition: RunDisposition,
}

/// Durable-campaign controls: crash injection, periodic checkpoint
/// capture, graceful abort and resume validation. The default is a plain
/// uninterrupted run.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Stop each shard's event loop after this many events (0 = off).
    /// This is the crash-injection hook: the loop breaks *between*
    /// events, exactly as a `kill -9` between two event handlers would.
    pub kill_after_events: u64,
    /// Capture a checkpoint each time virtual time crosses a multiple of
    /// this interval. A resumed run must inherit the interval from the
    /// checkpoint so its captures land on identical boundaries.
    pub checkpoint_every: Option<Duration>,
    /// Graceful-shutdown deadline: past this virtual time the scanner
    /// drains in-flight work and the run ends as [`RunDisposition::Aborted`].
    pub abort_at: Option<Duration>,
    /// A prior campaign checkpoint to resume: the run replays from event
    /// zero and validates its state against the recorded barrier.
    pub resume: Option<Arc<CampaignCheckpoint>>,
    /// Invoked on every capture as it happens (the CLI persists the
    /// assembled campaign file from here; called on shard threads).
    pub on_checkpoint: Option<CheckpointSink>,
    /// Addresses whose every flight entry (SYNs, segments and state
    /// transitions) the flight recorder keeps, unbounded, as a history
    /// (`ScanTelemetry::flight.histories()`); any other address is only
    /// counted.
    pub watch: BTreeSet<u32>,
}

/// Checkpoint-capture callback: `(shard index, capture)`.
pub type CheckpointSink = Arc<dyn Fn(u32, &ShardCheckpoint) + Send + Sync>;

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

    /// Install durable-campaign controls (checkpointing, crash injection,
    /// graceful abort, resume).
    pub fn control(mut self, control: RunControl) -> ScanRunner {
        self.control = control;
        self
    }

    /// Run to completion and merge.
    pub fn run(self) -> ScanOutput {
        let Topology(shards) = self.topology;
        // Resume pre-flight: the checkpoint must describe this very
        // campaign, or the replay would diverge by construction. Fail
        // before any replay work starts, with the offending field named.
        if let Some(ckpt) = &self.control.resume {
            if let Some(detail) = ckpt.config.first_mismatch(&self.config.digest()) {
                return diverged_output(detail);
            }
            // The shard count is the partition the checkpoint cursors
            // are phrased in.
            if ckpt.threads != shards {
                return diverged_output(format!(
                    "checkpoint was taken with {} shard(s), this run has {}",
                    ckpt.threads, shards
                ));
            }
        }
        if shards == 1 {
            return run_shard(&self.population, self.config, &self.control);
        }
        let (population, control) = (&self.population, &self.control);
        #[expect(clippy::expect_used, reason = "a shard world's panic propagates")]
        let outputs: Vec<ScanOutput> = std::thread::scope(|scope| {
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
        merge(outputs)
    }
}

/// The empty output of a run refused before it started.
fn diverged_output(detail: String) -> ScanOutput {
    ScanOutput {
        results: Vec::new(),
        open_ports: Vec::new(),
        mtu_results: Vec::new(),
        summary: ScanSummary::default(),
        sim_stats: SimStats::default(),
        duration: Duration::ZERO,
        telemetry: ScanTelemetry::default(),
        trace: Trace::default(),
        checkpoints: Vec::new(),
        disposition: RunDisposition::Diverged { detail },
    }
}

/// Run one shard world to completion on the current thread: drive a
/// self-generating scanner against the population with the
/// durable-campaign hooks, then harvest.
fn run_shard(population: &Arc<Population>, config: ScanConfig, control: &RunControl) -> ScanOutput {
    let shard_index = config.shard.0;
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

    // Stepwise event loop with the durable-campaign hooks. The replay
    // barrier, the kill point and the periodic captures are all phrased
    // in (event count, virtual time), so every run — uninterrupted,
    // killed or resumed — walks the exact same sequence of states.
    let barrier = control.resume.as_ref().and_then(|c| c.shard(shard_index));
    let mut validated = barrier.is_none();
    let every = control.checkpoint_every.map_or(0, |d| d.as_nanos());
    let mut next_capture = every;
    let abort_nanos = control.abort_at.map(|d| d.as_nanos());
    let mut aborted = false;
    let mut processed: u64 = 0;
    let mut disposition = RunDisposition::Completed;
    let mut checkpoints: Vec<ShardCheckpoint> = Vec::new();
    loop {
        if let Some(b) = barrier {
            if !validated && processed == b.events {
                let now = sim.now();
                let replayed = sim.scanner_mut().checkpoint(processed, now);
                if replayed.canonical_json() != b.canonical_json() {
                    disposition = RunDisposition::Diverged {
                        detail: format!(
                            "shard {shard_index}: replayed state at event {} does not match \
                             the checkpoint (stale file or non-identical campaign?)",
                            b.events
                        ),
                    };
                    break;
                }
                validated = true;
            }
        }
        if control.kill_after_events > 0 && processed >= control.kill_after_events {
            // Crash injection: stop dead between two events, leaving only
            // what the checkpoint callback persisted.
            let now = sim.now();
            let capture = sim.scanner_mut().checkpoint(processed, now);
            if let Some(cb) = &control.on_checkpoint {
                cb(shard_index, &capture);
            }
            checkpoints.push(capture);
            disposition = RunDisposition::Killed { events: processed };
            break;
        }
        if !sim.step() {
            break;
        }
        processed += 1;
        let now = sim.now();
        if !aborted {
            if let Some(deadline) = abort_nanos {
                if now.as_nanos() >= deadline {
                    aborted = true;
                    disposition = RunDisposition::Aborted;
                    sim.kick_scanner(|s, at, fx| s.begin_drain(at, fx));
                }
            }
        }
        if every > 0 {
            while now.as_nanos() >= next_capture {
                // Count the capture *before* taking it, so the captured
                // counters include this tick; a resumed run repeats the
                // same cadence and lands on the same values.
                let capture = {
                    let s = sim.scanner_mut();
                    s.note_checkpoint_taken();
                    s.checkpoint(processed, now)
                };
                if let Some(cb) = &control.on_checkpoint {
                    cb(shard_index, &capture);
                }
                checkpoints.push(capture);
                next_capture += every;
            }
        }
    }
    if let Some(b) = barrier {
        if !validated && disposition == RunDisposition::Completed {
            disposition = RunDisposition::Diverged {
                detail: format!(
                    "shard {shard_index}: replay finished after {processed} events, before \
                     the checkpoint barrier at event {}",
                    b.events
                ),
            };
        }
    }
    let drained = matches!(
        disposition,
        RunDisposition::Completed | RunDisposition::Aborted
    );
    if drained {
        // Final capture (no counter: it adds no tick a resumed run would
        // have to reproduce) so the persisted campaign file records the
        // terminal state — exhausted, drained, all results in.
        let now = sim.now();
        let capture = sim.scanner_mut().checkpoint(processed, now);
        if let Some(cb) = &control.on_checkpoint {
            cb(shard_index, &capture);
        }
        checkpoints.push(capture);
    }

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
    ScanOutput {
        results,
        open_ports,
        mtu_results,
        summary,
        sim_stats,
        duration,
        telemetry,
        trace,
        checkpoints,
        disposition,
    }
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
    let mut checkpoints = Vec::new();
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
        checkpoints.extend(out.checkpoints);
        disposition = disposition.merge(out.disposition);
    }
    results.sort_by_key(|r| r.ip);
    open_ports.sort_unstable();
    mtu_results.sort_by_key(|r| r.ip);
    checkpoints.sort_by_key(|c| (c.shard, c.events, c.at_nanos));
    ScanOutput {
        results,
        open_ports,
        mtu_results,
        summary,
        sim_stats,
        duration,
        telemetry,
        trace,
        checkpoints,
        disposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{HostVerdict, Protocol};

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
