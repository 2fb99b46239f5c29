//! The observability spine: the scanner reports each observation once,
//! to one [`Observer`], and every product subscribes in one static
//! `match`.
//!
//! The products are the metrics registry, the span tracer, the flight
//! recorder, the streaming sink, the ICMP harvest and the progress
//! monitor. The registry is the only thing that counts: each counter
//! that counts an [`Event`] is incremented in [`Observer::emit`] and
//! nowhere else. The flight recorder is the only per-host history: its
//! rings are the black boxes, and its watched histories keep every entry
//! of the addresses [`Observer::watch`] names. Counters of things that
//! are not observations (pacing waits, rejected answers, drained
//! entries) stay with the scanner, through [`Observer::metrics`].
//!
//! Telemetry holds what is live, not what happened. A target whose only
//! history is its first SYN holds one stamp in total, whatever products
//! need it: the RTT histogram and the handshake span time the SYN's
//! answer from it, and the flight recorder builds the target's ring from
//! it when the target's second event arrives. The stamp is an
//! [`AddrMap`] entry, 8 bytes plus a control byte: an index into the
//! shard's deque of distinct SYN send instants (a pacing tick sends
//! hundreds of SYNs at one instant) plus one bit per product still
//! holding it; the ring's ISN is derived from the cookie, not stored.
//! It lives until its last holder lets go: the answer is timed, or
//! Karn's rule, an ICMP error, a drain or a table entry makes it
//! untimable; the recorder builds the ring or the target concludes; or
//! the sweep expires it.
//!
//! A shard's recording and a run's output are one type, [`ScanTelemetry`]:
//! [`Observer::harvest`] hands it over and [`ScanTelemetry::merge`] folds
//! the shards. It holds output only: no stamp, no live ring. Its eleven
//! `scan.invariant.*` counters keep the books (see [`unbalanced`]; the
//! driver adds `rate_unsummed` and the truth tally's two when the shard
//! worlds join, [`ScanTelemetry::truth`]).

use crate::config::{MonitorSink, TelemetryConfig};
use crate::cookie::CookieKey;
use crate::results::{Confusion, ErrorKind};
use iw_netsim::sim::SimStats;
use iw_netsim::Instant;
use iw_telemetry::manifest::COUNTERS;
use iw_telemetry::{
    AddrMap, BufferSink, Counter, FlightRecorder, Gauge, Hist, IcmpHarvest, MetricsRegistry,
    OutcomeKind, ProgressMonitor, ProgressSample, SessionEvent, Snapshot, StatusSink, StdoutSink,
    TelemetrySink, Tracer, DEFAULT_RING_CAPACITY,
};
use iw_wire::{icmp, tcp};
use std::collections::VecDeque;

/// One observation, stamped by [`Observer::emit`] with its virtual time
/// and the target address (0 for scanner-global ones).
pub(crate) enum Event<'a> {
    /// A session lifecycle transition.
    Session(SessionEvent),
    /// A SYN of the target's first flow left, carrying this cookie ISN,
    /// as transmission `attempt`: attempt 0 is the target's stamp, a
    /// later one a retransmission (`SynRetried`; Karn's rule).
    Syn(u32, u8),
    /// A TCP segment crossed the wire for this target (`true` = sent by
    /// the scanner).
    Wire(bool, &'a tcp::Segment<'a>),
    /// The target's SYN was answered: one RTT sample and the handshake
    /// span, if its stamp still times the answer.
    SynAnswered,
    /// The target's SYN can no longer be timed (the scan drains, an ICMP
    /// error arrived, or the target took a table entry): its stamp stops
    /// holding for the RTT. (A retransmitted SYN is untimed by its
    /// `SynRetried`, Karn's rule.)
    Untimed,
    /// The target's terminal verdict: its stream label, and the error its
    /// black box dumps under (`None` = a clean conclusion, dropped).
    Verdict(&'static str, Option<&'static str>),
    /// A silent target spent its SYN retries: no verdict, and the black
    /// box dumps as `handshake_timeout`.
    GaveUp,
    /// An ICMP message arrived from the target.
    Icmp(icmp::Message),
    /// A pacing tick fired.
    Pace,
    /// The progress monitor's timer fired.
    Progress(&'a ProgressSample),
    /// The streaming sink's timer fired.
    Snapshot,
    /// The sweep: drop the flight histories untouched for this many
    /// virtual nanoseconds, except the targets the predicate still vouches
    /// for, and stop timing the SYNs at least that old.
    Expire(u64, &'a dyn Fn(u32) -> bool),
}

/// The `(scan.probes.*, scan.sessions.*)` counters of an [`OutcomeKind`].
pub(crate) fn outcome_counters(kind: OutcomeKind) -> (Counter, Counter) {
    match kind {
        OutcomeKind::Success => (Counter::ProbesSuccess, Counter::SessionsSuccess),
        OutcomeKind::FewData => (Counter::ProbesFewData, Counter::SessionsFewData),
        OutcomeKind::Error => (Counter::ProbesError, Counter::SessionsError),
        OutcomeKind::Unreachable => (Counter::ProbesUnreachable, Counter::SessionsUnreachable),
    }
}

/// The `scan.probes.error_kinds.*` counter of an [`ErrorKind`].
pub(crate) fn error_counter(kind: ErrorKind) -> Counter {
    match kind {
        ErrorKind::MidConnectionReset => Counter::ErrMidConnectionReset,
        ErrorKind::Malformed => Counter::ErrMalformed,
        ErrorKind::Inconsistent => Counter::ErrInconsistent,
        ErrorKind::HandshakeTimeout => Counter::ErrHandshakeTimeout,
        ErrorKind::CollectTimeout => Counter::ErrCollectTimeout,
        ErrorKind::IcmpUnreachable => Counter::ErrIcmpUnreachable,
    }
}

/// The harvest-time `scan.invariant.*` counters of a drained world, from
/// its kernel accounting, the work it left (sessions, retry-FIFO
/// entries), its records' addresses (results, open ports), its results
/// and sessions started.
pub(crate) fn unbalanced(
    s: &SimStats,
    work_left: u64,
    mut records: Vec<u32>,
    results: u64,
    sessions_started: u64,
) -> [(Counter, u64); 6] {
    let to_hosts = (s.scanner_tx + s.dup_fwd).abs_diff(s.host_rx + s.lost_fwd);
    let to_scanner = (s.host_tx + s.dup_rev).abs_diff(s.scanner_rx + s.lost_rev);
    records.sort_unstable();
    let runs = records.chunk_by(|a, b| a == b);
    let duplicated = runs.filter(|run| run.len() > 1).count() as u64;
    let unsessioned = results.abs_diff(sessions_started);
    [
        (Counter::InvariantUnconservedToHosts, to_hosts),
        (Counter::InvariantUnconservedToScanner, to_scanner),
        (Counter::InvariantPoolLeaked, s.pool_outstanding),
        (Counter::InvariantWorkLeft, work_left),
        (Counter::InvariantDuplicateRecords, duplicated),
        (Counter::InvariantUnsessionedRecords, unsessioned),
    ]
}

/// One shard's observability: the metrics registry and every product.
pub(crate) struct Observer {
    /// Every manifest metric, recorded through its `Counter`/`Gauge`/`Hist`
    /// variant. `Scope::Scan` metrics are population-determined and merge
    /// exactly across shard counts; `Scope::Shard` ones depend on scheduling.
    pub(crate) metrics: MetricsRegistry,
    record_rtt: bool,
    /// The SYN's answer feeds the RTT histogram or the handshake span.
    time_answers: bool,
    /// [`Self::reads_syn`], kept current by `new` and `watch`.
    syn_subscribers: bool,
    shard: u32,
    /// Session-phase spans (scan scope) plus the count of this shard's
    /// pacing spans; the sim kernel's hot-path counts merge in at harvest.
    tracer: Tracer,
    flight: FlightRecorder,
    stream: TelemetrySink,
    icmp: IcmpHarvest,
    monitor: Option<(ProgressMonitor, MonitorSink)>,
    /// Status lines of a [`MonitorSink::Capture`] monitor.
    captured: BufferSink,
    /// End of the previous pacing tick (for the `pace.tick` span).
    last_pace_at: u64,
    /// One stamp per target whose first SYN a product still holds.
    stamps: Stamps,
    /// The flow of every target's first SYN: the scanner sends and
    /// validates on it, and the ISN of a ring built from a stamp is its.
    syn_flow: SynFlow,
}

/// The flow of every target's first stateful SYN: its ISN is the cookie
/// of `(ip, sport, dport)`, so a stamp need not store it.
#[derive(Clone, Copy)]
pub(crate) struct SynFlow {
    pub(crate) cookie: CookieKey,
    pub(crate) sport: u16,
    pub(crate) dport: u16,
}

impl SynFlow {
    pub(crate) fn isn(&self, ip: u32) -> u32 {
        self.cookie.isn(ip, self.sport, self.dport)
    }
}

/// A stamp's hold for the RTT histogram and the handshake span: the
/// SYN's answer is still to be timed.
const TIMED: u32 = 1 << 31;
/// A stamp's hold for the flight recorder: the target's ring is still to
/// be built from it.
const FLIGHT: u32 = 1 << 30;
/// The rest of a slot: the absolute index of the SYN's send instant.
const INSTANT: u32 = FLIGHT - 1;

const _: () = assert!(
    std::mem::size_of::<(u32, u32)>() == 8,
    "a stamp is an 8-byte table bucket (plus its control byte)"
);

/// The one table of first-SYN stamps (see module docs).
#[derive(Default)]
struct Stamps {
    /// Per target: its holds (the top bits) and its send instant's index.
    slots: AddrMap<u32>,
    /// The distinct send instants, oldest first; the sweep trims the ones
    /// no stamp refers to.
    instants: VecDeque<u64>,
    /// The absolute index of `instants[0]` (wrapping within [`INSTANT`]).
    base: u32,
}

impl Stamps {
    /// Stamp the target's SYN sent at `at` with `holds`, replacing any
    /// stamp it had. Virtual time never runs backwards, so the deque
    /// stays sorted.
    fn insert(&mut self, ip: u32, at: u64, holds: u32) {
        if self.instants.back() != Some(&at) {
            self.instants.push_back(at);
        }
        let index = self.base.wrapping_add(self.instants.len() as u32 - 1) & INSTANT;
        self.slots.insert(ip, holds | index);
    }

    /// The send instant of a slot.
    fn at(&self, slot: u32) -> u64 {
        self.instants[(slot.wrapping_sub(self.base) & INSTANT) as usize]
    }

    /// Let go of `hold` on the target's stamp, dropping a stamp nothing
    /// holds any more. Returns the SYN's send time if the hold was there.
    fn release(&mut self, ip: u32, hold: u32) -> Option<u64> {
        let slot = *self.slots.get(&ip)?;
        if slot & hold == 0 {
            return None;
        }
        let left = slot & !hold;
        if left & !INSTANT == 0 {
            self.slots.remove(&ip);
        } else if let Some(held) = self.slots.get_mut(&ip) {
            *held = left;
        }
        Some(self.at(slot))
    }

    /// Keep of each stamp the holds `keep(ip, send time, holds)` returns,
    /// drop the stamps left with none, then the instants no stamp refers
    /// to.
    fn sweep(&mut self, mut keep: impl FnMut(u32, u64, u32) -> u32) {
        let (instants, base) = (&self.instants, self.base);
        let mut oldest = INSTANT;
        self.slots.retain(|&ip, slot| {
            let offset = slot.wrapping_sub(base) & INSTANT;
            let holds = keep(ip, instants[offset as usize], *slot & !INSTANT);
            *slot = holds | (*slot & INSTANT);
            if holds != 0 {
                oldest = oldest.min(offset);
            }
            holds != 0
        });
        let unused = (oldest as usize).min(self.instants.len());
        self.instants.drain(..unused);
        self.base = self.base.wrapping_add(unused as u32) & INSTANT;
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

impl Observer {
    /// The observer of shard `shard` under `config`, whose targets' first
    /// SYNs go out on `syn_flow`: every product is built, enabled or not,
    /// so recording never has to ask.
    pub(crate) fn new(config: &TelemetryConfig, shard: u32, syn_flow: SynFlow) -> Observer {
        let mut obs = Observer {
            metrics: MetricsRegistry::from_manifest(),
            record_rtt: config.record_rtt,
            time_answers: config.record_rtt || config.record_spans,
            syn_subscribers: false,
            shard,
            tracer: Tracer::new(config.record_spans),
            flight: FlightRecorder::new(config.flight_recorder, DEFAULT_RING_CAPACITY),
            stream: TelemetrySink::new(config.stream.is_some()),
            icmp: IcmpHarvest::default(),
            monitor: config
                .monitor
                .as_ref()
                .map(|spec| (ProgressMonitor::new(spec.interval.as_nanos()), spec.sink)),
            captured: BufferSink::default(),
            last_pace_at: 0,
            stamps: Stamps::default(),
            syn_flow,
        };
        obs.syn_subscribers = obs.reads_syn();
        obs
    }

    /// The flow of every target's first SYN and its retries.
    pub(crate) fn syn_flow(&self) -> SynFlow {
        self.syn_flow
    }

    /// Keep every later flight entry of these addresses in the flight
    /// recorder's watched histories.
    pub(crate) fn watch(&mut self, ips: impl IntoIterator<Item = u32>) {
        self.flight.watch(ips);
        self.syn_subscribers = self.reads_syn();
    }

    /// A product besides the counters reads SYN events: the products
    /// the `Event::Syn` arms of [`Self::record`] feed. A product that
    /// starts reading SYNs joins here, or the inline path of
    /// [`Self::emit`] drops its SYNs.
    fn reads_syn(&self) -> bool {
        self.time_answers || self.flight.is_recording()
    }

    /// Record one observation in every product that subscribes to it.
    /// A SYN is the hottest observation, several per silent target: when
    /// no product but the counters reads it, it costs a flag and at most
    /// a counter where it is reported, not a call.
    #[inline(always)]
    pub(crate) fn emit(&mut self, now: Instant, ip: u32, event: Event<'_>) {
        match event {
            Event::Syn(_, attempt) if !self.syn_subscribers => {
                if attempt > 0 {
                    self.metrics.inc(Counter::SynRetries);
                }
            }
            event => self.record(now, ip, event),
        }
    }

    /// [`Self::emit`], out of line: every product's subscription.
    #[inline(never)]
    fn record(&mut self, now: Instant, ip: u32, event: Event<'_>) {
        let n = now.as_nanos();
        let m = &mut self.metrics;
        match event {
            Event::Session(ev) => {
                match ev {
                    SessionEvent::SynAckValidated => m.inc(Counter::SynacksValidated),
                    SessionEvent::SessionStarted => m.inc(Counter::SessionsStarted),
                    SessionEvent::Refused => m.inc(Counter::Refused),
                    SessionEvent::RetransmitDetected {
                        bytes_in_flight, ..
                    } => {
                        m.inc(Counter::RetransmitsDetected);
                        m.observe(Hist::RetransmitBytesInFlight, bytes_in_flight);
                    }
                    SessionEvent::VerifyAckSent { .. } => m.inc(Counter::VerifyAcksSent),
                    SessionEvent::ProbeConcluded { outcome, .. } => {
                        m.inc(outcome_counters(outcome).0);
                    }
                    SessionEvent::SessionFinished { outcome } => {
                        m.inc(outcome_counters(outcome).1);
                    }
                    SessionEvent::ProbeRetried { .. } => m.inc(Counter::ProbesRetried),
                    SessionEvent::ProbeStarted { .. } => m.inc(Counter::ProbesStarted),
                    SessionEvent::FollowUpStarted { .. } => m.inc(Counter::ProbesFollowUps),
                    SessionEvent::WatchdogForced => m.inc(Counter::SessionsWatchdogForced),
                    SessionEvent::SessionEvicted => m.inc(Counter::SessionsEvicted),
                    SessionEvent::IcmpUnreachable => m.inc(Counter::IcmpUnreachable),
                    // Counted where they are sent: `scan.targets_sent`
                    // and `scan.syn_retries`.
                    SessionEvent::SynSent | SessionEvent::SynRetried { .. } => {}
                }
                if self.tracer.is_enabled() {
                    // Span slots per target: 1 = current probe, 2 = the
                    // session. (The handshake span comes from `SynAnswered`, so
                    // silent targets leave nothing behind in the tracer.)
                    let t = &mut self.tracer;
                    match ev {
                        SessionEvent::SessionStarted => t.open(ip, 2, n),
                        SessionEvent::ProbeStarted { .. } => t.open(ip, 1, n),
                        SessionEvent::ProbeConcluded { probe, .. } => {
                            t.close(ip, 1, n, "probe", u64::from(probe));
                        }
                        SessionEvent::SessionFinished { outcome } => {
                            t.close(ip, 2, n, "session", outcome as u64);
                            t.discard(ip, 1);
                        }
                        _ => {}
                    }
                }
                if self.flight.is_recording() {
                    self.flight_ring(ip);
                    self.flight.note_state(ip, n, ev);
                }
            }
            Event::Syn(isn, attempt @ 1..) => {
                m.inc(Counter::SynRetries);
                let ev = SessionEvent::SynRetried { attempt };
                if self.time_answers {
                    // Karn's rule: once a SYN is retransmitted, a later
                    // SYN-ACK may answer either transmission, so it is
                    // not timed.
                    self.stamps.release(ip, TIMED);
                }
                if self.flight.is_recording() {
                    self.flight_ring(ip);
                    self.flight.note_state(ip, n, ev);
                    let syn = tcp::Flags::SYN.bits();
                    self.flight.note_wire(ip, n, true, syn, isn, 0, 0);
                }
            }
            Event::Syn(isn, 0) => {
                let mut holds = if self.time_answers { TIMED } else { 0 };
                if self.flight.is_recording() {
                    // A first SYN is the target's stamp; a later one joins
                    // the ring the stamp became. A watched target takes
                    // none: its history starts at the SYN.
                    if self.flight.is_watched(ip) || self.flight_ring(ip) {
                        self.flight.note_syn(ip, n, isn);
                    } else if self.flight.is_enabled() {
                        holds |= FLIGHT;
                    }
                }
                if holds != 0 {
                    self.stamps.insert(ip, n, holds);
                }
            }
            Event::Wire(tx, seg) => {
                if self.flight.is_recording() {
                    self.flight_ring(ip);
                    let len = seg.payload.len() as u32;
                    let flags = seg.flags.bits();
                    self.flight
                        .note_wire(ip, n, tx, flags, seg.seq, seg.ack, len);
                }
            }
            Event::SynAnswered => {
                if let Some(syn_at) = self.stamps.release(ip, TIMED) {
                    if self.record_rtt {
                        m.observe(Hist::RttNanos, n - syn_at);
                    }
                    self.tracer.record_scan(syn_at, n, ip, "handshake", 0);
                }
            }
            Event::Untimed => {
                self.stamps.release(ip, TIMED);
            }
            Event::Verdict(label, error) => {
                self.stream.note_result(n, ip, label);
                self.conclude_flight(ip, n, error);
            }
            Event::GaveUp => self.conclude_flight(ip, n, Some("handshake_timeout")),
            Event::Icmp(msg) => {
                m.inc(Counter::IcmpMessages);
                m.inc(match msg {
                    icmp::Message::DstUnreachable { code } => {
                        IcmpHarvest::unreachable_counter(code)
                    }
                    icmp::Message::FragNeeded { .. } => Counter::IcmpFragNeeded,
                    icmp::Message::EchoReply { .. } => Counter::IcmpEchoReplies,
                    icmp::Message::SourceQuench => Counter::IcmpSourceQuench,
                    _ => Counter::IcmpOther,
                });
                self.icmp.note(ip);
            }
            Event::Pace => {
                m.inc(Counter::PaceTicks);
                if self.tracer.is_enabled() {
                    // One shard-scoped span per tick: the inter-tick gap.
                    self.tracer.record_shard(self.last_pace_at, n, "pace.tick");
                    self.last_pace_at = n;
                }
            }
            Event::Progress(sample) => self.report(|monitor, sink| {
                if monitor.due(sample.elapsed_nanos) {
                    monitor.report(sample, sink);
                }
            }),
            Event::Snapshot => self.snapshot(n),
            Event::Expire(expiry, keep) => {
                let cutoff = n.saturating_sub(expiry);
                self.flight.expire_stale(cutoff, keep);
                self.stamps.sweep(|ip, at, holds| {
                    let mut kept = 0;
                    if holds & TIMED != 0 && n - at < expiry {
                        kept |= TIMED;
                    }
                    if holds & FLIGHT != 0 && (at >= cutoff || keep(ip)) {
                        kept |= FLIGHT;
                    }
                    kept
                });
            }
        }
    }

    /// Does the target have a flight ring? Builds it from the target's
    /// stamp first if the recorder still holds one.
    fn flight_ring(&mut self, ip: u32) -> bool {
        if self.flight.has_ring(ip) {
            return true;
        }
        let Some(at) = self.stamps.release(ip, FLIGHT) else {
            return false;
        };
        self.flight.note_syn(ip, at, self.syn_flow.isn(ip));
        true
    }

    /// Conclude the target's black box: an error dumps it (built from its
    /// stamp if need be), a clean verdict drops it.
    fn conclude_flight(&mut self, ip: u32, n: u64, error: Option<&'static str>) {
        if !self.flight.is_recording() {
            return;
        }
        if error.is_some() {
            self.flight_ring(ip);
        } else {
            self.stamps.release(ip, FLIGHT);
        }
        if self.flight.conclude(ip, n, error) {
            self.metrics.inc(Counter::FlightDumps);
        }
    }

    /// Targets holding a stamp or a flight ring (a watched history is
    /// output, not live state).
    pub(crate) fn live_histories(&self) -> usize {
        self.stamps.len() + self.flight.live_rings()
    }

    /// Close out the shard when its event loop stops at `now` and hand
    /// over its output. The sim kernel's counters, a drained world's
    /// `unbalanced` ones and hot-path span counts fold in, span
    /// accounting reaches the `trace.*` metrics, the monitor prints its
    /// final line for `last` (even mid-interval, with error-kind tallies),
    /// and the stream takes its last snapshot, so delta sums equal totals.
    pub(crate) fn harvest(
        &mut self,
        now: Instant,
        sim: &SimStats,
        unbalanced: Option<[(Counter, u64); 6]>,
        sim_spans: Tracer,
        last: &ProgressSample,
    ) -> ScanTelemetry {
        let m = &mut self.metrics;
        m.add(Counter::InvariantStaleTimers, sim.stale_timers);
        m.add(Counter::InvariantUndeclaredEdges, sim.undeclared_edges);
        for (counter, n) in unbalanced.into_iter().flatten() {
            m.add(counter, n);
        }
        m.add(Counter::SimEvents, sim.events);
        m.add(Counter::SimPackets, sim.scanner_rx + sim.host_rx);
        m.add(Counter::SimPoolAllocations, sim.pool_allocations);
        m.add(Counter::SimPoolRecycled, sim.pool_recycled);
        m.gauge_set(Gauge::SimPoolOutstanding, sim.pool_outstanding);
        self.tracer.merge(&sim_spans);
        if self.tracer.is_enabled() {
            m.add(Counter::TraceSpansScan, self.tracer.scan_span_count());
            m.add(Counter::TraceSpansShard, self.tracer.shard_span_total());
            m.merge_histogram(Hist::SpanNanos, self.tracer.durations());
        }
        let errors: Vec<(&'static str, u64)> = ErrorKind::ALL
            .iter()
            .map(|k| (k.name(), m.counter_value(error_counter(*k))))
            .collect();
        self.report(|monitor, sink| monitor.final_report(last, &errors, sink));
        self.snapshot(now.as_nanos());
        ScanTelemetry {
            metrics: self.metrics.snapshot(),
            status_lines: std::mem::take(&mut self.captured.lines),
            tracer: std::mem::take(&mut self.tracer),
            flight: self.flight.harvest(),
            stream: std::mem::take(&mut self.stream),
            icmp: std::mem::take(&mut self.icmp),
        }
    }

    /// Append a snapshot-delta record to the stream.
    fn snapshot(&mut self, at_nanos: u64) {
        if self.stream.is_enabled() {
            let snap = self.metrics.snapshot();
            self.stream.note_snapshot(at_nanos, self.shard, &snap);
        }
    }

    /// Run `report` against the monitor and the sink its lines go to.
    fn report(&mut self, report: impl FnOnce(&mut ProgressMonitor, &mut dyn StatusSink)) {
        match &mut self.monitor {
            Some((monitor, MonitorSink::Stdout)) => report(monitor, &mut StdoutSink),
            Some((monitor, MonitorSink::Capture)) => report(monitor, &mut self.captured),
            None => {}
        }
    }
}

/// The observability products of a scan: one shard's harvest, or the
/// merge of all of them.
#[derive(Debug, Clone, Default)]
pub struct ScanTelemetry {
    /// Metrics snapshot (scan scope merges exactly; see
    /// [`Snapshot::to_canonical_json`]): every count the scan keeps.
    pub metrics: Snapshot,
    /// Captured progress-monitor lines (empty unless a capture monitor ran).
    pub status_lines: Vec<String>,
    /// Scan spans and hot-path span counts (empty unless
    /// `telemetry.record_spans`).
    pub tracer: Tracer,
    /// Flight-recorder dumps for failed sessions (empty unless
    /// `telemetry.flight_recorder`), and the history of every watched
    /// address (`RunControl::watch`, `Scanner::watch`).
    pub flight: FlightRecorder,
    /// Streaming JSONL telemetry (empty unless `telemetry.stream`).
    pub stream: TelemetrySink,
    /// ICMP messages per source (always collected; cheap). The subtype
    /// counts are `scan.icmp.*` counters in [`Self::metrics`].
    pub icmp: IcmpHarvest,
}

impl ScanTelemetry {
    /// The `scan.invariant.*` counters that are not zero, by name: a run
    /// with any has wrong books, whatever its verdicts say.
    pub fn violations(&self) -> Vec<(&str, u64)> {
        let counters = self.metrics.counters.iter();
        let named = counters.map(|(k, &(_, n))| (k.as_str(), n));
        let broken = |&(k, n): &(&str, u64)| n > 0 && k.starts_with("scan.invariant.");
        named.filter(broken).collect()
    }

    /// The run's records against the population's truth, as the driver
    /// tallied them once its worlds joined: the four `scan.truth.*`
    /// cells, the two gated `scan.invariant.truth_*` ones, and
    /// `duplicate` read from `scan.invariant.duplicate_records`
    /// (addresses with a second record). All zero where the driver
    /// tallies nothing: a killed or diverged run, a port or MTU scan, a
    /// world driven by hand through `Sim`.
    pub fn truth(&self) -> Confusion {
        let count = |counter: Counter| self.metrics.counter(COUNTERS[counter as usize].1);
        Confusion {
            exact: count(Counter::TruthExact),
            underestimate: count(Counter::TruthUnderestimate),
            overestimate: count(Counter::InvariantTruthOverestimate),
            inconclusive: count(Counter::TruthInconclusive),
            missed: count(Counter::TruthMissed),
            spurious: count(Counter::InvariantTruthSpurious),
            duplicate: count(Counter::InvariantDuplicateRecords),
        }
    }

    /// Record the truth tally's cells, all but `duplicate`, which a world
    /// already counted.
    pub(crate) fn record_truth(&mut self, truth: &Confusion) {
        for (counter, n) in [
            (Counter::TruthExact, truth.exact),
            (Counter::TruthUnderestimate, truth.underestimate),
            (Counter::InvariantTruthOverestimate, truth.overestimate),
            (Counter::TruthInconclusive, truth.inconclusive),
            (Counter::TruthMissed, truth.missed),
            (Counter::InvariantTruthSpurious, truth.spurious),
        ] {
            self.set(counter, n);
        }
    }

    /// Set a run-level counter, one the driver takes once the worlds have
    /// joined, on the merged snapshot.
    pub(crate) fn set(&mut self, counter: Counter, n: u64) {
        let (_, name, scope) = COUNTERS[counter as usize];
        self.metrics.counters.insert(name.into(), (scope, n));
    }

    /// Fold another shard's harvest in; each product restores its own
    /// canonical order.
    pub fn merge(&mut self, other: ScanTelemetry) {
        self.metrics.merge(&other.metrics);
        self.status_lines.extend(other.status_lines);
        self.tracer.merge(&other.tracer);
        self.flight.merge(&other.flight);
        self.stream.merge(&other.stream);
        self.icmp.merge(&other.icmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_telemetry::registry::Histogram;
    use iw_telemetry::FlightEntry;
    use iw_wire::tcp::Flags;
    use std::collections::BTreeMap;

    #[test]
    fn balanced_books_count_zero_and_each_imbalance_names_its_counter() {
        type Books = (SimStats, u64, Vec<u32>, u64, u64);
        type Seed = fn(&mut Books);
        let balanced = || -> Books {
            // 10 + 1 duplicated = 9 delivered + 2 lost; 8 + 2 = 7 + 3.
            let sim = SimStats {
                scanner_tx: 10,
                dup_fwd: 1,
                host_rx: 9,
                lost_fwd: 2,
                host_tx: 8,
                dup_rev: 2,
                scanner_rx: 7,
                lost_rev: 3,
                ..SimStats::default()
            };
            (sim, 0, vec![3, 1, 2], 3, 3)
        };
        let check = |(sim, work, records, results, started): Books| {
            let counts = unbalanced(&sim, work, records, results, started).into_iter();
            counts.filter(|&(_, n)| n > 0).collect::<Vec<_>>()
        };
        assert_eq!(check(balanced()), []);
        let seeded: [(Seed, Counter); 6] = [
            (|b| b.0.host_rx -= 1, Counter::InvariantUnconservedToHosts),
            (
                |b| b.0.scanner_rx += 1,
                Counter::InvariantUnconservedToScanner,
            ),
            (|b| b.0.pool_outstanding = 1, Counter::InvariantPoolLeaked),
            (|b| b.1 = 1, Counter::InvariantWorkLeft),
            // One address with three records is one duplicated address.
            (|b| b.2.extend([2, 2]), Counter::InvariantDuplicateRecords),
            (|b| b.4 += 1, Counter::InvariantUnsessionedRecords),
        ];
        for (seed, counter) in seeded {
            let mut books = balanced();
            seed(&mut books);
            assert_eq!(check(books), [(counter, 1)]);
        }
    }

    fn flow() -> SynFlow {
        SynFlow {
            cookie: CookieKey::new(7),
            sport: 40000,
            dport: 443,
        }
    }

    fn observer(record_rtt: bool, record_spans: bool, flight_recorder: bool) -> Observer {
        let config = TelemetryConfig {
            record_rtt,
            record_spans,
            flight_recorder,
            ..TelemetryConfig::default()
        };
        Observer::new(&config, 0, flow())
    }

    #[test]
    fn a_first_syn_is_a_stamp_until_the_next_event() {
        let mut obs = observer(true, true, true);
        let (ip, isn) = (4, flow().isn(4));
        obs.emit(Instant::from_nanos(10), ip, Event::Syn(isn, 0));
        assert_eq!(obs.live_histories(), 1, "a silent target holds one stamp");
        assert!(!obs.flight.has_ring(ip), "and no ring");
        let synack = Flags::SYN | Flags::ACK;
        let answer = tcp::Segment::bare(443, 40000, 5, isn.wrapping_add(1), synack, 65535);
        obs.emit(Instant::from_nanos(12), ip, Event::Wire(false, &answer));
        assert!(obs.flight.has_ring(ip), "the answer builds the ring");
        assert_eq!(obs.stamps.len(), 1, "the RTT still holds the stamp");
        obs.emit(Instant::from_nanos(12), ip, Event::SynAnswered);
        assert_eq!(obs.stamps.len(), 0, "the last holder let go");
        assert_eq!(obs.metrics.histogram_value(Hist::RttNanos).sum(), 2);
        assert_eq!(obs.tracer.spans()[0].start_nanos, 10);
        obs.emit(
            Instant::from_nanos(13),
            ip,
            Event::Verdict("x", Some("malformed")),
        );
        assert_eq!(obs.live_histories(), 0);
        let entries = &obs.flight.dumps()[0].entries;
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries[0],
            FlightEntry::State {
                at_nanos: 10,
                event: SessionEvent::SynSent
            }
        );
        assert_eq!(
            entries[1],
            FlightEntry::Wire {
                at_nanos: 10,
                tx: true,
                flags: 0x002,
                seq: isn,
                ack: 0,
                payload_len: 0
            }
        );
    }

    #[test]
    fn a_syn_skips_record_only_when_no_product_reads_it() {
        // With no product on, `record` does for a SYN what the inline
        // path of `emit` does: it counts a retry and nothing else.
        let (ip, isn) = (4, flow().isn(4));
        let (mut inline, mut recorded) =
            (observer(false, false, false), observer(false, false, false));
        assert!(!inline.syn_subscribers);
        for attempt in 0..3 {
            inline.emit(Instant::from_nanos(10), ip, Event::Syn(isn, attempt));
            recorded.record(Instant::from_nanos(10), ip, Event::Syn(isn, attempt));
        }
        assert_eq!(inline.metrics.snapshot(), recorded.metrics.snapshot());
        assert_eq!(recorded.metrics.counter_value(Counter::SynRetries), 2);
        assert_eq!(recorded.live_histories(), 0);
        // Every product that reads a SYN takes it off the inline path.
        let mut watching = observer(false, false, false);
        watching.watch([ip]);
        for obs in [
            watching,
            observer(true, false, false),
            observer(false, true, false),
            observer(false, false, true),
        ] {
            assert!(obs.syn_subscribers);
        }
    }

    #[test]
    fn a_watched_target_keeps_its_history_and_holds_nothing_live() {
        // The recorder is off: a watched target still keeps every entry
        // from its SYN on, and none of it is live state for the sweep.
        let mut obs = observer(false, false, false);
        let (ip, isn) = (4, flow().isn(4));
        obs.watch([ip]);
        obs.emit(Instant::from_nanos(10), ip, Event::Syn(isn, 0));
        obs.emit(Instant::from_nanos(10), 5, Event::Syn(flow().isn(5), 0));
        let synack = Flags::SYN | Flags::ACK;
        let answer = tcp::Segment::bare(443, 40000, 5, isn.wrapping_add(1), synack, 65535);
        obs.emit(Instant::from_nanos(12), ip, Event::Wire(false, &answer));
        let validated = SessionEvent::SynAckValidated;
        obs.emit(Instant::from_nanos(12), ip, Event::Session(validated));
        obs.emit(
            Instant::from_nanos(13),
            ip,
            Event::Verdict("x", Some("malformed")),
        );
        assert_eq!(obs.live_histories(), 0);
        assert_eq!(obs.metrics.counter_value(Counter::SynacksValidated), 1);
        let out = obs.flight.harvest();
        assert!(out.dumps().is_empty(), "no ring, no black box");
        let kinds: Vec<bool> = (out.history(ip).iter())
            .map(|e| matches!(e, FlightEntry::State { .. }))
            .collect();
        assert_eq!(kinds, [true, false, false, true], "{:?}", out.history(ip));
        assert_eq!(out.histories().len(), 1, "an unwatched target keeps none");
    }

    #[test]
    fn stamps_share_instants_and_wrap_their_index() {
        let mut stamps = Stamps {
            base: INSTANT - 1,
            ..Stamps::default()
        };
        // Two pacing ticks of three SYNs each, then a third tick: the
        // indices wrap past `INSTANT`.
        for (ip, at) in [(1, 100), (2, 100), (3, 100), (4, 200), (5, 200), (6, 300)] {
            stamps.insert(ip, at, TIMED | FLIGHT);
        }
        assert_eq!(stamps.instants.len(), 3, "one instant per tick");
        assert_eq!(stamps.release(5, FLIGHT), Some(200));
        assert_eq!(stamps.release(5, FLIGHT), None, "a hold is let go once");
        assert_eq!(stamps.release(5, TIMED), Some(200));
        assert_eq!(stamps.len(), 5);
        // The sweep keeps what the predicate keeps and trims the instants
        // nothing refers to any more.
        stamps.sweep(|ip, _, holds| if ip == 4 || ip == 6 { holds } else { 0 });
        assert_eq!(stamps.len(), 2);
        assert_eq!(stamps.instants, [200, 300]);
        assert_eq!(stamps.base, INSTANT);
        assert_eq!(stamps.release(6, TIMED | FLIGHT), Some(300));
        assert_eq!(stamps.release(4, TIMED | FLIGHT), Some(200));
        stamps.sweep(|_, _, holds| holds);
        assert!(stamps.instants.is_empty());
        assert_eq!(stamps.base, 1, "the base wrapped");
        stamps.insert(9, 400, FLIGHT);
        assert_eq!(stamps.release(9, FLIGHT), Some(400));
    }

    /// SplitMix64: the seeded call sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn one_stamp_table_matches_the_two_it_replaced() {
        // The reference is the two stores the stamp table replaced: the
        // RTT map (every SYN stamped; dropped at a retry, an untimed SYN,
        // an answer or past the expiry) and a recorder that opens every
        // target's ring at its first SYN.
        let events = [
            SessionEvent::SynAckValidated,
            SessionEvent::SessionStarted,
            SessionEvent::ProbeStarted { probe: 1, mss: 64 },
            SessionEvent::SynRetried { attempt: 1 },
            SessionEvent::SessionFinished {
                outcome: OutcomeKind::Error,
            },
            SessionEvent::Refused,
            SessionEvent::IcmpUnreachable,
        ];
        // What the sequences must have reached: [an answer timed, an
        // answer timed past the expiry before a sweep, a ring built from
        // a stamp, a stamp expired by the sweep, a stamp kept past its
        // cutoff by the predicate].
        let mut seen = [0u32; 5];
        for seed in 0..400u64 {
            let mut rng = Rng(seed);
            let (rtt, spans, flight) = [
                (true, true, true),
                (true, false, false),
                (false, true, true),
                (false, false, true),
            ][seed as usize % 4];
            let mut obs = observer(rtt, spans, flight);
            let mut syn_ts: BTreeMap<u32, u64> = BTreeMap::new();
            let mut eager = FlightRecorder::new(flight, DEFAULT_RING_CAPACITY);
            let (mut samples, mut handshakes) = (Histogram::default(), Vec::new());
            let mut t = 0u64;
            for _ in 0..300 {
                let ip = rng.below(6) as u32;
                t += rng.below(3) * 1_000;
                let now = Instant::from_nanos(t);
                let flight_held = obs.stamps.slots.get(&ip).is_some_and(|s| s & FLIGHT != 0);
                match rng.below(12) {
                    0 | 1 => {
                        let isn = flow().isn(ip);
                        obs.emit(now, ip, Event::Syn(isn, 0));
                        if rtt || spans {
                            syn_ts.insert(ip, t);
                        }
                        eager.note_syn(ip, t, isn);
                    }
                    2 | 3 => {
                        let ev = events[rng.below(events.len() as u64) as usize];
                        eager.note_state(ip, t, ev);
                        if let SessionEvent::SynRetried { attempt } = ev {
                            // A retransmission is a SYN event of its own.
                            let isn = flow().isn(ip);
                            obs.emit(now, ip, Event::Syn(isn, attempt));
                            eager.note_wire(ip, t, true, Flags::SYN.bits(), isn, 0, 0);
                            syn_ts.remove(&ip);
                        } else {
                            obs.emit(now, ip, Event::Session(ev));
                        }
                        seen[2] += u32::from(flight_held);
                    }
                    4 => {
                        let (tx, seq) = (rng.below(2) == 0, rng.below(1 << 32) as u32);
                        let seg = tcp::Segment::bare(443, 40000, seq, 7, Flags::ACK, 0);
                        obs.emit(now, ip, Event::Wire(tx, &seg));
                        eager.note_wire(ip, t, tx, Flags::ACK.bits(), seq, 7, 0);
                        seen[2] += u32::from(flight_held);
                    }
                    5 | 6 => {
                        obs.emit(now, ip, Event::SynAnswered);
                        if let Some(at) = syn_ts.remove(&ip) {
                            if rtt {
                                samples.observe(t - at);
                            }
                            if spans {
                                handshakes.push((at, t - at, ip));
                            }
                            seen[0] += 1;
                            seen[1] += u32::from(t - at >= 4_000);
                        }
                    }
                    7 => {
                        obs.emit(now, ip, Event::Untimed);
                        syn_ts.remove(&ip);
                    }
                    8 | 9 => {
                        let error = [None, Some("malformed")][rng.below(2) as usize];
                        obs.emit(now, ip, Event::Verdict("x", error));
                        eager.conclude(ip, t, error);
                    }
                    _ => {
                        let expiry = 4_000 + rng.below(3) * 1_000;
                        let kept = rng.below(1 << 6);
                        let keep = |ip: u32| kept >> ip & 1 == 1;
                        let cutoff = t.saturating_sub(expiry);
                        let before = obs.stamps.len();
                        seen[4] += obs
                            .stamps
                            .slots
                            .iter()
                            .filter(|&(&ip, &slot)| {
                                slot & FLIGHT != 0 && obs.stamps.at(slot) < cutoff && keep(ip)
                            })
                            .count() as u32;
                        obs.emit(now, 0, Event::Expire(expiry, &keep));
                        syn_ts.retain(|_, at| t - *at < expiry);
                        eager.expire_stale(cutoff, keep);
                        seen[3] += (before - obs.stamps.len()) as u32;
                    }
                }
                assert!(obs.stamps.len() <= 6, "seed {seed}: one stamp per target");
            }
            // Whatever is still held must hold the same history.
            let now = Instant::from_nanos(t);
            for ip in 0..6 {
                obs.emit(now, ip, Event::Verdict("end", Some("end")));
                eager.conclude(ip, t, Some("end"));
            }
            assert_eq!(obs.flight.dumps(), eager.dumps(), "seed {seed}");
            assert_eq!(obs.metrics.histogram_value(Hist::RttNanos), &samples);
            let timed: Vec<(u64, u64, u32)> = (obs.tracer.spans().iter())
                .filter(|s| s.name == "handshake")
                .map(|s| (s.start_nanos, s.dur_nanos, s.key))
                .collect();
            assert_eq!(timed, handshakes, "seed {seed}");
            // Only the SYNs still to be timed hold stamps now, and a late
            // enough sweep empties the table and its instants.
            assert_eq!(obs.stamps.len(), syn_ts.len(), "seed {seed}");
            obs.emit(Instant::from_nanos(t + 1), 0, Event::Expire(1, &|_| false));
            assert_eq!(obs.live_histories(), 0);
            assert!(obs.stamps.instants.is_empty());
        }
        assert!(seen.iter().all(|&n| n > 0), "unreached cases: {seen:?}");
    }
}
