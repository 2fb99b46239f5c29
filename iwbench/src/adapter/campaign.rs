//! Whole campaigns through the public runner API.

use crate::check::{Observed, Truth, Verdict};
use crate::spec::{Products, Proto, Workload, RATE_PPS, WORLD_SEED};
use crate::sys;
use iw_core::{
    HostResult, MonitorSink, MonitorSpec, MssVerdict, Protocol, ResilienceConfig, RunControl,
    RunDisposition, ScanConfig, ScanOutput, ScanRunner, TelemetryConfig, Topology,
};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::Duration;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A campaign ready to run: what `setup_s` pays for.
pub struct Campaign {
    pub(super) population: Arc<Population>,
    pub(super) config: ScanConfig,
    control: RunControl,
    threads: u32,
}

/// What one finished campaign reports, as plain data.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Wall of `ScanRunner::run()`: scanner construction, drive, harvest,
    /// merge.
    pub wall_s: f64,
    /// `VmHWM` right after `run()` returned.
    pub peak_rss_kb: u64,
    pub targets: u64,
    pub events: u64,
    pub scanner_tx: u64,
    pub pool_outstanding: u64,
    pub completed: bool,
    /// Host records sorted by address.
    pub observed: Vec<Observed>,
}

fn protocol(proto: Proto) -> Protocol {
    match proto {
        Proto::Http => Protocol::Http,
        Proto::Tls => Protocol::Tls,
    }
}

fn telemetry(p: Products) -> TelemetryConfig {
    let second = Duration::from_secs(1);
    TelemetryConfig {
        record_events: p.events,
        record_rtt: p.rtt,
        monitor: p.monitor.then_some(MonitorSpec {
            interval: second,
            sink: MonitorSink::Capture,
        }),
        record_spans: p.spans,
        flight_recorder: p.flight,
        stream: p.stream.then_some(second),
    }
}

pub(super) fn observed(results: &[HostResult]) -> Vec<Observed> {
    let mut out: Vec<Observed> = results
        .iter()
        .map(|r| Observed {
            ip: r.ip,
            verdicts: r
                .verdicts
                .iter()
                .map(|(mss, v)| {
                    let v = match v {
                        MssVerdict::Success(n) => Verdict::Success(*n),
                        MssVerdict::FewData(n) => Verdict::FewData(*n),
                        MssVerdict::Error => Verdict::Error,
                        MssVerdict::Unreachable => Verdict::Unreachable,
                    };
                    (*mss, v)
                })
                .collect(),
        })
        .collect();
    out.sort_by_key(|o| o.ip);
    out
}

impl Campaign {
    /// Build the population of `w` and the configuration of a scan over
    /// it seeded with `seed`.
    pub fn build(w: &Workload, seed: u64) -> Campaign {
        let population = Arc::new(Population::new(PopulationConfig {
            seed: WORLD_SEED,
            space_size: w.space(),
            target_responsive: w.responsive,
            loss_scale: w.loss_scale,
        }));
        let mut config = ScanConfig::study(protocol(w.proto), w.space(), seed);
        config.rate_pps = RATE_PPS;
        config.stateless_first = w.stateless_first;
        if w.hardened {
            config.resilience = ResilienceConfig::hardened();
        }
        config.telemetry = telemetry(w.products);
        let mut control = RunControl::default();
        if w.products.checkpoint_s > 0 {
            control.checkpoint_every = Some(Duration::from_secs(w.products.checkpoint_s));
            // What the CLI's sink does with a capture, minus the disk.
            control.on_checkpoint = Some(Arc::new(|_shard, capture| {
                black_box(capture.canonical_json());
            }));
        }
        Campaign {
            population,
            config,
            control,
            threads: w.threads,
        }
    }

    fn runner(&self, config: ScanConfig, threads: u32) -> ScanRunner {
        ScanRunner::new(&self.population)
            .config(config)
            .topology(Topology::threads(threads))
            .control(self.control.clone())
    }

    /// Run the campaign on its configured topology.
    pub fn run(&self) -> Finished {
        self.run_on(self.threads)
    }

    /// Run on `Topology::threads(threads)`; 1 is one self-generating world
    /// on the calling thread (what `campaign_2t` is compared against).
    pub fn run_on(&self, threads: u32) -> Finished {
        let runner = self.runner(self.config.clone(), threads);
        let t0 = Instant::now();
        let out = runner.run();
        let wall_s = t0.elapsed().as_secs_f64();
        self.finished(out, wall_s)
    }

    /// The same campaign as `n` self-generating shard worlds on `n` scoped
    /// threads with no ring and no feeder: the alternative ROADMAP item 2
    /// weighs the threaded engine against. Returns the wall and the
    /// summed target count.
    pub fn run_direct(&self, n: u32) -> (f64, u64) {
        let runners: Vec<ScanRunner> = (0..n)
            .map(|i| {
                let mut config = self.config.clone();
                config.shard = (i, n);
                self.runner(config, 1)
            })
            .collect();
        let t0 = Instant::now();
        let targets = std::thread::scope(|scope| {
            let handles: Vec<_> = runners
                .into_iter()
                .map(|r| scope.spawn(move || r.run().summary.targets))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard world panicked"))
                .sum()
        });
        (t0.elapsed().as_secs_f64(), targets)
    }

    fn finished(&self, out: ScanOutput, wall_s: f64) -> Finished {
        let peak_rss_kb = sys::peak_rss_kb();
        let s = out.sim_stats;
        Finished {
            wall_s,
            peak_rss_kb,
            targets: out.summary.targets,
            events: s.events,
            scanner_tx: s.scanner_tx,
            pool_outstanding: s.pool_outstanding,
            completed: out.disposition == RunDisposition::Completed,
            observed: observed(&out.results),
        }
    }

    /// Every ground-truth host offering the scanned protocol, with its
    /// configured window at the primary MSS, by walking the space.
    pub fn ground_truth(&self) -> Vec<Truth> {
        let pop = &self.population;
        let primary_mss = self.config.mss_list.first().copied();
        (0..pop.space_size())
            .filter_map(|ip| {
                let gt = pop.ground_truth(ip)?;
                let offered = match self.config.protocol {
                    Protocol::Tls => gt.tls,
                    _ => gt.http,
                };
                if !offered {
                    return None;
                }
                let host = pop.host_config(ip)?;
                Some(Truth {
                    ip,
                    iw: host.iw.initial_segments(host.os.effective_mss(primary_mss)),
                })
            })
            .collect()
    }
}
