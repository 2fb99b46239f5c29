//! The traced run: the campaign's drive loop rebuilt from public pieces,
//! with a timing shim around every call the kernel makes into `core`
//! (the scanner endpoint), `hoststack` (the host endpoints) and `internet`
//! (the host factory). Layers are measured from outside; `netsim`'s self
//! time is the loop's wall minus its children.

use super::campaign::{observed, Campaign};
use crate::check::Observed;
use iw_core::Scanner;
use iw_internet::population::PopulationFactory;
use iw_netsim::{
    Effects, Endpoint, HostFactory, Instant as VirtualInstant, LinkConfig, Sim, SimConfig,
    TimerToken,
};
use std::cell::Cell;
use std::hint::black_box;
use std::ops::DerefMut;
use std::rc::Rc;
use std::time::Instant;

/// Calls and raw (clock reads included) nanoseconds of one timed entry
/// point.
#[derive(Debug, Default)]
struct Span {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

#[derive(Debug, Default)]
struct EndpointSpans {
    packet: Span,
    timer: Span,
}

/// An endpoint behind a timing shim (`Box<Scanner>` or the factory's
/// `Box<dyn Endpoint>`).
struct Timed<P> {
    inner: P,
    spans: Rc<EndpointSpans>,
}

impl<E: Endpoint + ?Sized, P: DerefMut<Target = E>> Endpoint for Timed<P> {
    fn on_packet(&mut self, pkt: &[u8], now: VirtualInstant, fx: &mut Effects) {
        self.spans
            .packet
            .time(|| self.inner.on_packet(pkt, now, fx));
    }
    fn on_timer(&mut self, token: TimerToken, now: VirtualInstant, fx: &mut Effects) {
        self.spans
            .timer
            .time(|| self.inner.on_timer(token, now, fx));
    }
}

/// The population's host factory behind a timing shim; every host it
/// spawns is wrapped in [`Timed`].
struct TimedFactory {
    inner: PopulationFactory,
    create: Rc<Span>,
    hosts: Rc<EndpointSpans>,
}

impl HostFactory for TimedFactory {
    fn create(&mut self, ip: u32) -> Option<(Box<dyn Endpoint>, LinkConfig)> {
        let (host, link) = self.create.time(|| self.inner.create(ip))?;
        let timed = Timed {
            inner: host,
            spans: self.hosts.clone(),
        };
        Some((Box::new(timed), link))
    }
}

/// One timed entry point, net of the clock reads around it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub calls: u64,
    pub secs: f64,
}

/// What the traced run reports.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Wall of the traced drive loop, clock reads included.
    pub wall_s: f64,
    /// Cost of one `Instant::now()` / `elapsed()` pair around a call.
    pub clock_ns: f64,
    pub netsim_self_s: f64,
    pub scanner_packet: Layer,
    pub scanner_timer: Layer,
    pub host_packet: Layer,
    pub host_timer: Layer,
    pub create: Layer,
    pub events: u64,
    pub lost: u64,
    pub scanner_tx: u64,
    pub hosts_spawned: u64,
    pub packets: u64,
    pub pool_allocations: u64,
    pub pool_recycled: u64,
    pub pool_outstanding: u64,
    pub live_hosts_peak: u64,
    pub sessions_peak: u64,
    pub virtual_s: f64,
    pub targets: u64,
    /// One mid-run `Scanner::checkpoint().canonical_json()`.
    pub checkpoint_capture_us: f64,
    pub checkpoint_bytes: u64,
    pub observed: Vec<Observed>,
}

/// How often the loop samples `Sim::live_hosts` / `Scanner::live_sessions`.
const SAMPLE_EVERY: u64 = 256;

/// `(reading, cost)` of an empty timed section in nanoseconds: what one
/// clock pair adds to the span it brackets, and what it adds to the wall.
fn calibrate_clock() -> (f64, f64) {
    const N: u64 = 2_000_000;
    let span = Span::default();
    let t0 = Instant::now();
    for i in 0..N {
        span.time(|| black_box(i));
    }
    let cost = t0.elapsed().as_nanos() as f64 / N as f64;
    (span.nanos.get() as f64 / N as f64, cost)
}

impl Campaign {
    /// Drive the campaign as one self-generating world with every layer
    /// boundary timed.
    pub fn run_traced(&self) -> Traced {
        let (clock_reading_ns, clock_ns) = calibrate_clock();
        let scanner_spans = Rc::new(EndpointSpans::default());
        let host_spans = Rc::new(EndpointSpans::default());
        let create = Rc::new(Span::default());
        let scanner = Timed {
            inner: Box::new(Scanner::new(self.config.clone())),
            spans: scanner_spans.clone(),
        };
        let factory = TimedFactory {
            inner: PopulationFactory::new(self.population.clone()),
            create: create.clone(),
            hosts: host_spans.clone(),
        };
        let mut sim = Sim::new(
            scanner,
            factory,
            // What the runner's own drive loop passes.
            SimConfig {
                seed: self.config.seed,
                record_trace: false,
                profile: self.config.telemetry.record_spans,
            },
        );
        // Half-way through the send phase: every table is populated.
        let capture_at =
            u64::from(self.population.space_size()) * 500_000_000 / self.config.rate_pps.max(1);
        let mut capture: Option<(f64, u64)> = None;
        let (mut live_hosts_peak, mut sessions_peak) = (0usize, 0usize);
        let mut processed = 0u64;

        let t0 = Instant::now();
        sim.kick_scanner(|s, now, fx| s.inner.start(now, fx));
        while sim.step() {
            processed += 1;
            if processed.is_multiple_of(SAMPLE_EVERY) {
                live_hosts_peak = live_hosts_peak.max(sim.live_hosts());
                sessions_peak = sessions_peak.max(sim.scanner().inner.live_sessions());
                if capture.is_none() && sim.now().as_nanos() >= capture_at {
                    let t = Instant::now();
                    let json = sim
                        .scanner()
                        .inner
                        .checkpoint(processed, sim.now())
                        .canonical_json();
                    capture = Some((t.elapsed().as_secs_f64(), black_box(json).len() as u64));
                }
            }
        }
        let (capture_s, checkpoint_bytes) = capture.unwrap_or_default();
        let wall_s = t0.elapsed().as_secs_f64() - capture_s;

        let net = |span: &Span| Layer {
            calls: span.calls.get(),
            secs: (span.nanos.get() as f64 - span.calls.get() as f64 * clock_reading_ns).max(0.0)
                / 1e9,
        };
        let layers = [
            net(&scanner_spans.packet),
            net(&scanner_spans.timer),
            net(&host_spans.packet),
            net(&host_spans.timer),
            net(&create),
        ];
        let calls: u64 = layers.iter().map(|l| l.calls).sum();
        let children: f64 = layers.iter().map(|l| l.secs).sum();
        let netsim_self_s = (wall_s - children - calls as f64 * clock_ns / 1e9).max(0.0);

        let stats = sim.stats();
        let scanner = &sim.scanner().inner;
        Traced {
            wall_s,
            clock_ns,
            netsim_self_s,
            scanner_packet: layers[0],
            scanner_timer: layers[1],
            host_packet: layers[2],
            host_timer: layers[3],
            create: layers[4],
            events: stats.events,
            lost: stats.lost,
            scanner_tx: stats.scanner_tx,
            hosts_spawned: stats.hosts_spawned,
            packets: stats.scanner_tx + stats.host_tx,
            pool_allocations: stats.pool_allocations,
            pool_recycled: stats.pool_recycled,
            pool_outstanding: stats.pool_outstanding,
            live_hosts_peak: live_hosts_peak as u64,
            sessions_peak: sessions_peak as u64,
            virtual_s: (sim.now() - VirtualInstant::ZERO).as_secs_f64(),
            targets: scanner.targets_sent(),
            checkpoint_capture_us: capture_s * 1e6,
            checkpoint_bytes,
            observed: observed(scanner.results()),
        }
    }
}
