//! The observability spine: the scanner reports each observation once,
//! to one [`Observer`], and every product subscribes in one static
//! `match`.
//!
//! The products are the metrics registry, the session event log, the
//! span tracer, the flight recorder, the streaming sink, the ICMP harvest
//! and the progress monitor. Each counter that counts an [`Event`] is
//! incremented in [`Observer::emit`] and nowhere else, so the event log
//! and the counters cannot drift apart. Counters of things that are not
//! observations (pacing waits, discovery bookkeeping, checkpoint
//! captures) stay with the scanner, through [`Observer::metrics`].
//!
//! A shard's recording and a run's output are one type, [`ScanTelemetry`]:
//! [`Observer::harvest`] hands it over and [`ScanTelemetry::merge`] folds
//! the shards.

use crate::config::{MonitorSink, TelemetryConfig};
use crate::results::ErrorKind;
use iw_netsim::sim::SimStats;
use iw_netsim::Instant;
use iw_telemetry::{
    BufferSink, Counter, EventLog, FlightRecorder, Gauge, Hist, IcmpHarvest, MetricsRegistry,
    OutcomeKind, ProgressMonitor, ProgressSample, SessionEvent, Snapshot, StatusSink, StdoutSink,
    TelemetrySink, Tracer, DEFAULT_RING_CAPACITY,
};
use iw_wire::{icmp, tcp};

/// One observation, stamped by [`Observer::emit`] with its virtual time
/// and the target address (0 for scanner-global ones).
pub(crate) enum Event<'a> {
    /// A session lifecycle transition.
    Session(SessionEvent),
    /// The target's first stateful SYN left, carrying this cookie ISN.
    Syn(u32),
    /// A TCP segment crossed the wire for this target (`true` = sent by
    /// the scanner).
    Wire(bool, &'a tcp::Segment<'a>),
    /// The SYN sent at this instant was answered: one RTT sample and the
    /// handshake span.
    Rtt(Instant),
    /// The target's terminal verdict: its stream label, and the error its
    /// black box dumps under (`None` = a clean conclusion, dropped).
    Verdict(&'static str, Option<&'static str>),
    /// A silent target spent its SYN retries: no verdict, and the black
    /// box dumps as `handshake_timeout`.
    GaveUp,
    /// An ICMP message arrived from the target.
    Icmp(icmp::Message),
    /// A pacing tick granted this many send tokens.
    Pace(u64),
    /// The progress monitor's timer fired.
    Progress(&'a ProgressSample),
    /// The streaming sink's timer fired.
    Snapshot,
    /// Drop the flight histories last touched before this many virtual
    /// nanoseconds, except the targets the predicate still vouches for.
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

/// One shard's observability: the metrics registry and every product.
pub(crate) struct Observer {
    /// Every manifest metric, recorded through its `Counter`/`Gauge`/`Hist`
    /// variant. `Scope::Scan` metrics are population-determined and merge
    /// exactly across shard counts; `Scope::Shard` ones depend on scheduling.
    pub(crate) metrics: MetricsRegistry,
    record_rtt: bool,
    shard: u32,
    log: EventLog,
    /// Session-phase spans (scan scope) plus this shard's pacing spans;
    /// the sim kernel's hot-path spans merge in at harvest.
    tracer: Tracer,
    flight: FlightRecorder,
    stream: TelemetrySink,
    icmp: IcmpHarvest,
    monitor: Option<(ProgressMonitor, MonitorSink)>,
    /// Status lines of a [`MonitorSink::Capture`] monitor.
    captured: BufferSink,
    /// End of the previous pacing tick (for the `pace.tick` span).
    last_pace_at: u64,
}

impl Observer {
    /// The observer of shard `shard` under `config`: every product is
    /// built, enabled or not, so recording never has to ask.
    pub(crate) fn new(config: &TelemetryConfig, shard: u32) -> Observer {
        Observer {
            metrics: MetricsRegistry::from_manifest(),
            record_rtt: config.record_rtt,
            shard,
            log: EventLog::new(config.record_events),
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
        }
    }

    /// Record one observation in every product that subscribes to it.
    #[inline]
    pub(crate) fn emit(&mut self, now: Instant, ip: u32, event: Event<'_>) {
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
                    SessionEvent::SynRetried { .. } => m.inc(Counter::SynRetries),
                    SessionEvent::ProbeRetried { .. } => m.inc(Counter::ProbesRetried),
                    SessionEvent::WatchdogForced => m.inc(Counter::SessionsWatchdogForced),
                    SessionEvent::SessionEvicted => m.inc(Counter::SessionsEvicted),
                    SessionEvent::IcmpUnreachable => m.inc(Counter::IcmpUnreachable),
                    SessionEvent::SynSent
                    | SessionEvent::ProbeStarted { .. }
                    | SessionEvent::FollowUpStarted { .. } => {}
                }
                if self.tracer.is_enabled() {
                    // Span slots per target: 1 = current probe, 2 = the
                    // session. (The handshake span comes from `Rtt`, so
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
                self.flight.note_state(ip, n, ev);
                self.log.record(n, ip, ev);
            }
            Event::Syn(isn) => {
                self.log.record(n, ip, SessionEvent::SynSent);
                self.flight.note_syn(ip, n, isn);
            }
            Event::Wire(tx, seg) => {
                let len = seg.payload.len() as u32;
                let flags = seg.flags.bits();
                self.flight
                    .note_wire(ip, n, tx, flags, seg.seq, seg.ack, len);
            }
            Event::Rtt(syn_at) => {
                if self.record_rtt {
                    m.observe(Hist::RttNanos, (now - syn_at).as_nanos());
                }
                self.tracer
                    .record_scan(syn_at.as_nanos(), n, ip, "handshake", 0);
            }
            Event::Verdict(label, error) => {
                self.stream.note_result(n, ip, label);
                if self.flight.conclude(ip, n, error) {
                    m.inc(Counter::FlightDumps);
                }
            }
            Event::GaveUp => {
                if self.flight.conclude(ip, n, Some("handshake_timeout")) {
                    m.inc(Counter::FlightDumps);
                }
            }
            Event::Icmp(msg) => {
                m.inc(Counter::IcmpMessages);
                let h = &mut self.icmp;
                match msg {
                    icmp::Message::DstUnreachable { code } => {
                        h.note_unreachable(ip, code);
                        m.inc(IcmpHarvest::unreachable_counter(code));
                    }
                    icmp::Message::FragNeeded { .. } => {
                        h.note_frag_needed(ip);
                        m.inc(Counter::IcmpFragNeeded);
                    }
                    icmp::Message::EchoReply { .. } => h.note_echo_reply(ip),
                    icmp::Message::SourceQuench => {
                        h.note_source_quench(ip);
                        m.inc(Counter::IcmpSourceQuench);
                    }
                    _ => h.note_other(ip),
                }
            }
            Event::Pace(grant) => {
                m.inc(Counter::PaceTicks);
                if self.tracer.is_enabled() {
                    // One shard-scoped span per tick: the inter-tick gap
                    // with the grant size as its argument.
                    self.tracer
                        .record_shard(self.last_pace_at, n, 0, "pace.tick", grant);
                    self.last_pace_at = n;
                }
            }
            Event::Progress(sample) => self.report(|monitor, sink| {
                if monitor.due(sample.elapsed_nanos) {
                    monitor.report(sample, sink);
                }
            }),
            Event::Snapshot => self.snapshot(n),
            Event::Expire(before, keep) => self.flight.expire_stale(before, keep),
        }
    }

    /// Stream records so far (the checkpoint's `stream_records`).
    pub(crate) fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Targets whose flight history is still live.
    pub(crate) fn live_histories(&self) -> usize {
        self.flight.live_rings()
    }

    /// Close out the shard when its event loop drains at `now` and hand
    /// over its recording. The sim kernel's counters and hot-path spans
    /// fold in, span accounting reaches the `trace.*` metrics, the
    /// monitor prints its final line for `last` (even mid-interval, with
    /// error-kind tallies), and the stream takes its last snapshot, so
    /// delta sums equal final totals.
    pub(crate) fn harvest(
        &mut self,
        now: Instant,
        sim: &SimStats,
        sim_spans: Tracer,
        last: &ProgressSample,
    ) -> ScanTelemetry {
        let m = &mut self.metrics;
        m.add(Counter::SimEvents, sim.events);
        m.add(Counter::SimPackets, sim.scanner_rx + sim.host_rx);
        m.add(Counter::SimPoolAllocations, sim.pool_allocations);
        m.add(Counter::SimPoolRecycled, sim.pool_recycled);
        m.gauge_set(Gauge::SimPoolOutstanding, sim.pool_outstanding);
        self.tracer.merge(&sim_spans);
        if self.tracer.is_enabled() {
            m.add(Counter::TraceSpansScan, self.tracer.scan_span_count());
            m.add(Counter::TraceSpansShard, self.tracer.shard_span_total());
            for s in self.tracer.spans() {
                m.observe(Hist::SpanNanos, s.dur_nanos);
            }
        }
        let errors: Vec<(&'static str, u64)> = ErrorKind::ALL
            .iter()
            .map(|k| (k.name(), m.counter_value(error_counter(*k))))
            .collect();
        self.report(|monitor, sink| monitor.final_report(last, &errors, sink));
        self.snapshot(now.as_nanos());
        ScanTelemetry {
            metrics: self.metrics.snapshot(),
            events: std::mem::take(&mut self.log),
            status_lines: std::mem::take(&mut self.captured.lines),
            tracer: std::mem::take(&mut self.tracer),
            flight: std::mem::take(&mut self.flight),
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
    /// [`Snapshot::to_canonical_json`]).
    pub metrics: Snapshot,
    /// Session event log (empty unless `telemetry.record_events`).
    pub events: EventLog,
    /// Captured progress-monitor lines (empty unless a capture monitor ran).
    pub status_lines: Vec<String>,
    /// Span tracer (empty unless `telemetry.record_spans`).
    pub tracer: Tracer,
    /// Flight-recorder dumps for failed sessions (empty unless
    /// `telemetry.flight_recorder`).
    pub flight: FlightRecorder,
    /// Streaming JSONL telemetry (empty unless `telemetry.stream`).
    pub stream: TelemetrySink,
    /// ICMP control-plane harvest (always collected; cheap).
    pub icmp: IcmpHarvest,
}

impl ScanTelemetry {
    /// Fold another shard's harvest in; each product restores its own
    /// canonical order.
    pub fn merge(&mut self, other: ScanTelemetry) {
        self.metrics.merge(&other.metrics);
        self.events.merge(&other.events);
        self.status_lines.extend(other.status_lines);
        self.tracer.merge(&other.tracer);
        self.flight.merge(&other.flight);
        self.stream.merge(&other.stream);
        self.icmp.merge(&other.icmp);
    }
}
