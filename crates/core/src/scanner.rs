//! The scan engine: ZMap's send/receive architecture as one event-driven
//! endpoint.
//!
//! The send side walks the cyclic-group permutation (or an explicit
//! target list), applies the blacklist and the sampling filter, and
//! paces stateless SYNs (or ICMP echos) with a token bucket. The receive
//! side validates SYN-ACKs against the ISN cookie and only then
//! allocates the stateful per-host probe session — the "lightweight
//! fashion" extension the paper adds to ZMap (§3.4). A silent target
//! costs no state beyond its address in a retry FIFO while a
//! retransmission is owed.
//!
//! This file holds the dispatch: every packet and timer is routed on its
//! target's `Target` state or its `Timer`, plus pacing, session open
//! and output, and the telemetry ticks. The state with a life of its own
//! sits in two submodules: `resilience` (the SYN-retry FIFOs, the
//! eviction order and the watchdog) and `mtu` (the RFC 1191 prober);
//! `timer` holds the one timer-token layout.

mod mtu;
mod resilience;
mod timer;

use crate::config::{ScanConfig, TargetSpec, SYN_BACKOFF};
use crate::cookie::{CookieKey, SynAckCheck};
use crate::observe::{error_counter, outcome_counters, Event, Observer, ScanTelemetry, SynFlow};
use crate::permutation::{Permutation, ShardIter};
use crate::rate::{shard_rate, TokenBucket};
use crate::results::{ErrorKind, HostResult, MssVerdict, MtuResult, ProbeOutcome, Protocol};
use crate::session::{HostSession, SessionOutput, SessionParams};
use crate::target::{Target, Targets};
use iw_hoststack::{tcb::synack_retransmit_span, OsProfile};
use iw_netsim::{Duration, Effects, Endpoint, HostFactory, Instant, Sim, TimerToken};
use iw_telemetry::{
    AddrMap, Counter, Gauge, Hist, OutcomeKind, ProgressSample, SessionEvent, Snapshot,
};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags};
use iw_wire::{icmp, ipv4, IpProtocol, SynTemplate};
use resilience::Resilience;
use std::sync::Arc;
use timer::Timer;

/// A world's target generator: its shard of the permutation, or its
/// round-robin slice of the target list.
pub(crate) enum TargetIter {
    Perm(ShardIter),
    List(std::vec::IntoIter<(u32, Option<String>)>),
}

impl TargetIter {
    /// The generator of `config`'s shard, and the monitor's estimate of
    /// what it will probe.
    pub(crate) fn new(config: &ScanConfig) -> (TargetIter, u64) {
        let (index, count) = (config.shard.0, config.shard.1.max(1));
        match &config.targets {
            TargetSpec::FullSpace { size } => {
                let perm = Permutation::new(u64::from(*size), config.seed);
                let per_shard = u64::from(*size) / u64::from(count);
                (
                    TargetIter::Perm(perm.shard(index, count)),
                    (per_shard as f64 * config.sample_fraction.clamp(0.0, 1.0)) as u64,
                )
            }
            TargetSpec::List(list) => {
                // Entry `k` belongs to shard `k % count`, so `count`
                // worlds cover the list exactly once. An address listed
                // again (first entry kept) would start a second lifecycle
                // for a target that already has one.
                let mut seen = std::collections::HashSet::new();
                let slice: Vec<(u32, Option<String>)> = list
                    .iter()
                    .filter(|(ip, _)| seen.insert(*ip))
                    .skip(index as usize)
                    .step_by(count as usize)
                    .cloned()
                    .collect();
                let total = slice.len() as u64;
                (TargetIter::List(slice.into_iter()), total)
            }
        }
    }

    pub(crate) fn next(&mut self) -> Option<(u32, Option<String>)> {
        match self {
            TargetIter::Perm(iter) => iter.next().map(|ip| (ip as u32, None)),
            TargetIter::List(iter) => iter.next(),
        }
    }
}

/// Pacing tick length.
const TICK: Duration = Duration::from_millis(5);
/// Period of the telemetry sweep.
const SWEEP_PERIOD: Duration = Duration::from_secs(1);
/// A SYN stamp older than this belongs to a host that will never
/// SYN-ACK; the sweep stops timing it (and expires stale flight
/// histories on the same schedule).
const RTT_EXPIRY: Duration = Duration::from_secs(8);

/// How long a concluded target absorbs late answers. Its last SYN left
/// within the SYN-retry window of `syn_retries`, the slowest host stack
/// retransmits its SYN-ACK for [`synack_retransmit_span`] after that,
/// and [`RTT_EXPIRY`] covers the path. Derived, never configured.
fn concluded_hold(syn_retries: u32) -> Duration {
    let window = SYN_BACKOFF.saturating_mul((1 << syn_retries) - 1);
    let slowest = OsProfile::all()
        .iter()
        .map(|os| synack_retransmit_span(os.initial_rto))
        .max()
        .unwrap_or_default();
    window + slowest + RTT_EXPIRY
}

/// The scanner endpoint.
pub struct Scanner {
    config: ScanConfig,
    /// What every session shares (the cookie key too); each holds a
    /// reference, not a copy.
    params: Arc<SessionParams>,
    bucket: TokenBucket,
    generator: TargetIter,
    exhausted: bool,
    /// Every tracked address's one [`Target`] state, and the live
    /// sessions. A silent target has no entry: while it owes a retry its
    /// address waits in a retry FIFO, whose level is its attempt count.
    targets: Targets,
    /// Stateful SYN retries and the `max_sessions` eviction order.
    resilience: Resilience,
    /// Set by [`Self::begin_drain`]: no response opens new work.
    draining: bool,
    /// Known domains of list targets, until their session takes them.
    domains: AddrMap<String>,
    results: Vec<HostResult>,
    open_ports: Vec<u32>,
    mtu_results: Vec<MtuResult>,
    ident: u16,
    /// Prebuilt SYN datagram (source, destination port, window and MSS
    /// option are fixed for the whole scan). Per target only the address,
    /// the IPv4 ident, the source port and the cookie ISN are patched in.
    syn_template: SynTemplate,
    /// The metrics and every telemetry product, fed through
    /// [`Observer::emit`]. It holds the one stamp of each target whose
    /// first SYN a product still needs; telemetry only, no decision
    /// reads it. It also owns the flow of every target's first SYN and
    /// its retries ([`Observer::syn_flow`]), which the scanner sends on
    /// and validates answers against.
    obs: Observer,
    /// Estimated targets this shard will probe (0 = unknown).
    targets_total: u64,
}

impl Scanner {
    /// Build a self-generating scanner: it walks its own shard of the
    /// permutation (or its round-robin slice of the target list) while
    /// pacing.
    pub fn new(config: ScanConfig) -> Scanner {
        let (generator, targets_total) = TargetIter::new(&config);
        let cookie = CookieKey::new(config.seed);
        let params = Arc::new(SessionParams {
            protocol: config.protocol,
            probes_per_mss: config.probes_per_mss,
            mss_list: config.mss_list.clone(),
            base_sport: 40000,
            source: config.source,
            seed: config.seed,
            verify_exhaustion: config.verify_exhaustion,
            probe_retries: config.resilience.probe_retries,
            cookie,
        });
        // Each shard paces at its integer slice of the global rate, so N
        // concurrent shards provably sum to `rate_pps` (see
        // `rate::shard_rate`); with one shard the slice is the whole
        // budget. `config.rate_pps` stays global for digests and the
        // monitor's configured-pps line.
        let pace_pps = shard_rate(config.rate_pps, config.shard.0, config.shard.1);
        let bucket = TokenBucket::new(pace_pps, (pace_pps / 100).max(16), Instant::ZERO);
        let syn_flow = SynFlow {
            cookie,
            sport: params.sport(0, 0, 0),
            dport: config.protocol.port(),
        };
        let obs = Observer::new(&config.telemetry, config.shard.0, syn_flow);
        let targets = Targets::new(concluded_hold(config.resilience.syn_retries));
        let syn_template = SynTemplate::new(
            config.source,
            &tcp::Repr {
                options: vec![tcp::TcpOption::Mss(*config.mss_list.first().unwrap_or(&64))],
                ..tcp::Repr::bare(0, config.protocol.port(), 0, 0, Flags::SYN, 65535)
            },
            64,
        );
        Scanner {
            config,
            params,
            bucket,
            generator,
            exhausted: false,
            targets,
            resilience: Resilience::new(),
            draining: false,
            domains: AddrMap::default(),
            results: Vec::new(),
            open_ports: Vec::new(),
            mtu_results: Vec::new(),
            ident: 1,
            syn_template,
            obs,
            targets_total,
        }
    }

    /// Begin scanning (call once via `Sim::kick_scanner`).
    pub fn start(&mut self, now: Instant, fx: &mut Effects) {
        if let Some(interval) = self.monitor_interval() {
            fx.arm(interval, Timer::Monitor.token());
        }
        // The sweep bounds the SYN stamps and expires the flight-recorder
        // rings of silent hosts.
        let t = &self.config.telemetry;
        if t.record_rtt || t.record_spans || t.flight_recorder {
            fx.arm(SWEEP_PERIOD, Timer::Sweep.token());
        }
        if let Some(interval) = t.stream {
            fx.arm(interval, Timer::Stream.token());
        }
        self.pace(now, fx);
    }

    /// Finished host records (harvest after the run).
    pub fn results(&self) -> &[HostResult] {
        &self.results
    }

    /// Move every finished record out: host records, open ports
    /// (port-scan mode) and path MTUs (ICMP mode), in conclusion order.
    pub fn take_records(&mut self) -> (Vec<HostResult>, Vec<u32>, Vec<MtuResult>) {
        (
            std::mem::take(&mut self.results),
            std::mem::take(&mut self.open_ports),
            std::mem::take(&mut self.mtu_results),
        )
    }

    /// Open ports found (port-scan mode).
    pub fn open_ports(&self) -> &[u32] {
        &self.open_ports
    }

    /// SYNs answered by RST (host up, port closed).
    pub fn refused(&self) -> u64 {
        self.obs.metrics.counter_value(Counter::Refused)
    }

    /// The rate this world's token bucket paces at: its shard's slice
    /// of `rate_pps`.
    pub(crate) fn pace_pps(&self) -> u64 {
        self.bucket.rate_pps()
    }

    /// Distinct targets probed.
    pub fn targets_sent(&self) -> u64 {
        self.obs.metrics.counter_value(Counter::TargetsSent)
    }

    /// Sessions still in flight (diagnostics).
    pub fn live_sessions(&self) -> usize {
        self.targets.live()
    }

    /// Targets holding a SYN stamp or a flight ring (diagnostics; the
    /// sweep keeps this bounded even when targets never answer).
    pub fn live_histories(&self) -> usize {
        self.obs.live_histories()
    }

    /// Keep every later flight entry of these addresses as a history in
    /// the flight recorder (what `RunControl::watch` does for a runner's
    /// scan).
    pub fn watch(&mut self, ips: impl IntoIterator<Item = u32>) {
        self.obs.watch(ips);
    }

    /// SYN retransmissions queued behind their backoff, over every level
    /// (diagnostics; the honest per-target footprint of a hardened scan —
    /// at most `rate × (backoff window)` entries, and zero once the last
    /// retry has left, unless the flight recorder waits for give-ups).
    pub fn retry_backlog(&self) -> usize {
        self.resilience.retry_backlog()
    }

    /// Frozen metrics snapshot (merge across shards via [`Snapshot::merge`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.obs.metrics.snapshot()
    }

    /// Close out the scanner of a stopped `sim` and hand over its
    /// telemetry: the sim's counters and hot-path spans fold in, the
    /// monitor prints its final line and the stream takes its last
    /// snapshot. Only a drained `sim` has its books checked.
    pub fn harvest<F: HostFactory>(sim: &mut Sim<Scanner, F>) -> ScanTelemetry {
        let (now, stats, sim_spans) = (sim.now(), sim.stats(), sim.take_tracer());
        let drained = sim.is_drained();
        let s = sim.scanner_mut();
        let last = s.progress_sample(now);
        let unbalanced = drained.then(|| {
            let left = s.targets.live() + s.retry_backlog();
            let ips = s.results.iter().map(|r| r.ip);
            let records = ips.chain(s.open_ports.iter().copied()).collect();
            let started = s.obs.metrics.counter_value(Counter::SessionsStarted);
            let results = s.results.len() as u64;
            crate::observe::unbalanced(&stats, left as u64, records, results, started)
        });
        s.obs.harvest(now, &stats, unbalanced, sim_spans, &last)
    }

    /// Graceful-shutdown drain: stop target generation, drop every queued
    /// retransmission, and force-conclude every live session (recorded
    /// as [`ErrorKind::CollectTimeout`]) so the event loop winds down on
    /// its own; from here on no response opens new work. Every queued
    /// entry, session and MTU probe cut short counts into
    /// `scan.drain.forced`.
    pub fn begin_drain(&mut self, now: Instant, fx: &mut Effects) {
        self.exhausted = true;
        self.draining = true;
        // Each dropped retransmission is forced-drain pressure. (The
        // levels' outstanding drain timers fire into empty queues.)
        let dropped = self.drop_syn_retries(now);
        self.obs.metrics.add(Counter::DrainForced, dropped as u64);
        // Handshakes in flight are cut off with them (their SYN-ACKs may
        // still arrive, but open nothing), and live work is concluded.
        let mut open: Vec<(u32, Target)> = self
            .targets
            .iter()
            .filter(|(_, target)| *target != Target::Concluded)
            .collect();
        open.sort_unstable_by_key(|(ip, _)| *ip);
        for (ip, target) in open {
            match self.targets.session_mut(ip) {
                Some(session) => {
                    let out = session.force_conclude(ErrorKind::CollectTimeout);
                    self.obs.metrics.inc(Counter::DrainForced);
                    self.apply_session_output(ip, out, now, fx);
                }
                None => {
                    if matches!(target, Target::Mtu { .. }) {
                        self.obs.metrics.inc(Counter::DrainForced);
                    }
                    self.set_target(ip, None, now);
                }
            }
        }
    }

    /// Move `ip` to `to`, counting an undeclared edge (see
    /// [`Targets::set`]). A target that changes state has no SYN left to
    /// time, and a concluded one no domain.
    fn set_target(&mut self, ip: u32, to: Option<Target>, now: Instant) {
        let undeclared = self.targets.set(ip, to, now);
        (self.obs.metrics).add(Counter::InvariantUndeclaredEdges, undeclared);
        self.obs.emit(now, ip, Event::Untimed);
        if to == Some(Target::Concluded) {
            self.domains.remove(&ip);
        }
    }

    fn pace(&mut self, now: Instant, fx: &mut Effects) {
        if self.exhausted {
            return;
        }
        // Per tick, ask for this shard's slice of the rate (the bucket
        // carries `shard_rate(..)`, not the global figure).
        let want = (self.bucket.rate_pps() / 200).max(1);
        let grant = self.bucket.take(now, want);
        self.obs.emit(now, 0, Event::Pace);
        if grant < want {
            // The bucket throttled us: record how long until the next token.
            self.obs.metrics.observe(
                Hist::PaceTokenWaitNanos,
                self.bucket.next_available().as_nanos(),
            );
        }
        for _ in 0..grant {
            loop {
                let Some((ip, domain)) = self.generator.next() else {
                    self.exhausted = true;
                    return; // no re-arm: receive path finishes the scan
                };
                if !self.config.admits(ip) {
                    continue;
                }
                self.obs.metrics.inc(Counter::TargetsSent);
                if let Some(d) = domain {
                    self.domains.insert(ip, d);
                }
                self.send_initial_probe(ip, now, fx);
                break;
            }
        }
        // Re-arm no sooner than the bucket can actually pay out: at low
        // rates the next token may be many ticks away, and a fixed 5 ms
        // cadence would wake the scanner just to record another zero
        // grant. `next_available` rounds up, so the wake-up always finds
        // at least one token.
        fx.arm(
            TICK.max(self.bucket.next_available()),
            Timer::Pacing.token(),
        );
    }

    fn send_initial_probe(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        if self.config.protocol == Protocol::IcmpMtu {
            self.start_mtu_probe(ip, now, fx);
        } else {
            self.send_stateful_syn(ip, now, fx);
        }
    }

    /// Patch the SYN template for one target and send it.
    fn send_syn(&mut self, ip: u32, sport: u16, isn: u32, fx: &mut Effects) {
        let dst = Ipv4Addr::from_u32(ip);
        fx.send(
            self.syn_template
                .datagram(dst, &mut self.ident, sport, isn, fx.pool()),
        );
    }

    /// A cookie-valid RST answered the target's SYN: host up, port
    /// closed. A terminal verdict with no session behind it.
    fn refusal(&mut self, ip: u32, now: Instant) {
        self.obs
            .emit(now, ip, Event::Session(SessionEvent::Refused));
        // A refusal is a clean conclusion: the black box is dropped.
        self.obs.emit(now, ip, Event::Verdict("refused", None));
        self.set_target(ip, Some(Target::Concluded), now);
    }

    /// Periodic telemetry sweep: SYN stamps past the expiry belong to
    /// hosts that never answered and would otherwise leak. Flight-recorder
    /// histories of hosts that went silent before reaching a conclusion
    /// age out on the same schedule. A target headed for one keeps its
    /// history, since a black box must survive until the verdict: a live
    /// session, and a target that still owes a SYN retry or its give-up,
    /// which from the fourth retry on waits longer than the expiry (a
    /// probed target's history otherwise leaves at its verdict or
    /// give-up, and inbound noise starts none). Keeping any other history
    /// would keep this sweep armed forever.
    fn sweep(&mut self, now: Instant, fx: &mut Effects) {
        let owed = self.retry_owed();
        let targets = &self.targets;
        let keep = |ip| match targets.get(ip) {
            Some(Target::Live(_)) => true,
            state => owed(state),
        };
        self.obs
            .emit(now, 0, Event::Expire(RTT_EXPIRY.as_nanos(), &keep));
        if !(self.exhausted && self.obs.live_histories() == 0) {
            fx.arm(SWEEP_PERIOD, Timer::Sweep.token());
        }
    }

    /// Observe one outgoing segment and send it.
    fn emit_segment(
        &mut self,
        dst: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        now: Instant,
        fx: &mut Effects,
    ) {
        self.obs.emit(now, dst.to_u32(), Event::Wire(true, seg));
        fx.send(seg.datagram(self.config.source, dst, &mut self.ident, fx.pool()));
    }

    fn apply_session_output(
        &mut self,
        ip: u32,
        out: SessionOutput,
        now: Instant,
        fx: &mut Effects,
    ) {
        let dst = Ipv4Addr::from_u32(ip);
        for tx in out.tx.iter() {
            // The request leaves the session with the output that sends
            // it, and is dropped once sent.
            let payload = if tx.carries_request {
                &out.request[..]
            } else {
                &[]
            };
            debug_assert_eq!(tx.carries_request, !payload.is_empty());
            let seg = tcp::Segment {
                payload,
                ..tx.header
            };
            self.obs.emit(now, ip, Event::Wire(true, &seg));
            fx.send(seg.datagram(self.config.source, dst, &mut self.ident, fx.pool()));
        }
        for ev in &out.events {
            self.obs.emit(now, ip, Event::Session(*ev));
        }
        let undeclared = u64::from(out.undeclared_edges);
        (self.obs.metrics).add(Counter::InvariantUndeclaredEdges, undeclared);
        if let Some(deadline) = out.deadline {
            if deadline > now
                && self
                    .targets
                    .session_mut(ip)
                    .is_none_or(|session| session.should_arm(deadline))
            {
                fx.arm(deadline - now, Timer::Session(ip).token());
            }
        }
        if let Some(result) = out.result {
            // Neither the session's wake-up nor its watchdog can do work
            // any more.
            fx.cancel(Timer::Session(ip).token());
            fx.cancel(Timer::Watchdog(ip).token());
            let mut first_error: Option<ErrorKind> = None;
            for (_, outcomes) in &result.runs {
                for o in outcomes {
                    if let ProbeOutcome::Error { kind } = o {
                        self.obs.metrics.inc(error_counter(*kind));
                        first_error = first_error.or(Some(*kind));
                    }
                }
            }
            if let Some(session) = self.targets.session(ip) {
                let lifetime = (now - session.started()).as_nanos();
                self.obs
                    .metrics
                    .observe(Hist::SessionLifetimeNanos, lifetime);
            }
            let primary = result.primary_verdict();
            let outcome = primary.map(|v| v.outcome_kind());
            // Clean verdicts drop their black box; error verdicts dump it,
            // named after the first failing probe's error kind. Two more
            // shapes are diagnosable failures, not clean conclusions: a
            // few-data verdict with a zero lower bound (the handshake
            // succeeded and the host then sent nothing usable — the
            // SYN-ACK-blackhole signature), and a verdict-less session
            // whose probes recorded errors.
            let error = match outcome {
                Some(OutcomeKind::Success) => None,
                Some(OutcomeKind::FewData) => match primary {
                    Some(MssVerdict::FewData(0)) => Some("no_data"),
                    _ => None,
                },
                Some(OutcomeKind::Unreachable) => Some("icmp_unreachable"),
                Some(OutcomeKind::Error) => Some(first_error.map_or("error", ErrorKind::name)),
                None => first_error.map(ErrorKind::name),
            };
            let label = outcome.map_or("unknown", OutcomeKind::name);
            self.obs.emit(now, ip, Event::Verdict(label, error));
            self.results.push(result);
            self.set_target(ip, Some(Target::Concluded), now);
            let live = self.targets.live();
            self.obs
                .metrics
                .gauge_set(Gauge::SessionsLivePeak, live as u64);
            self.compact_eviction_order();
        }
    }

    /// Dispatch one inbound segment on its target's state.
    fn on_tcp(&mut self, src: Ipv4Addr, seg: &tcp::Segment<'_>, now: Instant, fx: &mut Effects) {
        let ip = src.to_u32();
        self.obs.emit(now, ip, Event::Wire(false, seg));
        match self.targets.get(ip) {
            Some(Target::Live(index)) => {
                if let Some(session) = self.targets.session_at(index) {
                    let out = session.on_segment(seg, now);
                    self.apply_session_output(ip, out, now, fx);
                }
            }
            // Outside a session only the flow of the target's first SYN
            // (probe 0, conn 0) carries an answer.
            _ if seg.dst_port != self.obs.syn_flow().sport => {}
            None => self.on_answer(src, seg, false, now, fx),
            Some(Target::Concluded) => self.on_answer(src, seg, true, now, fx),
            Some(Target::Mtu { .. }) => {}
        }
    }

    /// A segment on the flow of the target's first SYN, with no session
    /// open. Only a cookie-valid one (acking the cookie ISN + 1) counts: a
    /// SYN-ACK opens the session (a port scan records the open port), an
    /// RST records the refusal. A SYN-ACK that fails the cookie is
    /// counted by how it fails (`scan.synack.*`), a cookie-less RST into
    /// `scan.rst_ignored`; neither mints a verdict. If the target has its
    /// verdict already, the answer is late — its host retransmitting
    /// because ours was lost: the SYN-ACK is reset, both are counted,
    /// neither mints a second verdict.
    fn on_answer(
        &mut self,
        src: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        concluded: bool,
        now: Instant,
        fx: &mut Effects,
    ) {
        let ip = src.to_u32();
        let SynFlow {
            cookie,
            sport,
            dport,
        } = self.obs.syn_flow();
        if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) {
            if seg.src_port != dport {
                return;
            }
            match cookie.classify_synack(ip, sport, dport, seg.ack) {
                SynAckCheck::Valid => {}
                SynAckCheck::RawIsnEcho => {
                    self.obs.metrics.inc(Counter::SynackRawIsnEcho);
                    return;
                }
                SynAckCheck::Mismatch => {
                    self.obs.metrics.inc(Counter::SynackCookieMismatch);
                    return;
                }
            }
            if concluded {
                self.reset(src, seg, now, fx);
                self.obs.metrics.inc(Counter::LateAnswers);
            } else if !self.draining {
                // A graceful drain opens no new work and records no verdict.
                if self.config.protocol == Protocol::PortScan {
                    self.open_port(src, seg, now, fx);
                } else {
                    self.open_session(src, seg, now, fx);
                }
            }
        } else if seg.flags.contains(Flags::RST) {
            if !cookie.validate(ip, sport, dport, seg.ack) {
                // Spoofed or stale: counted, no verdict.
                self.obs.metrics.inc(Counter::RstIgnored);
            } else if concluded {
                self.obs.metrics.inc(Counter::LateAnswers);
            } else {
                self.refusal(ip, now);
            }
        }
    }

    /// Reset the half-open connection a SYN-ACK announced.
    fn reset(&mut self, src: Ipv4Addr, seg: &tcp::Segment<'_>, now: Instant, fx: &mut Effects) {
        let rst = tcp::Segment::bare(seg.dst_port, seg.src_port, seg.ack, 0, Flags::RST, 0);
        self.emit_segment(src, &rst, now, fx);
    }

    /// A port scan's verdict: the SYN-ACK proves the port open.
    fn open_port(&mut self, src: Ipv4Addr, seg: &tcp::Segment<'_>, now: Instant, fx: &mut Effects) {
        let ip = src.to_u32();
        self.obs.emit(now, ip, Event::SynAnswered);
        self.obs
            .emit(now, ip, Event::Session(SessionEvent::SynAckValidated));
        self.open_ports.push(ip);
        self.reset(src, seg, now, fx);
        self.obs.emit(now, ip, Event::Verdict("open", None));
        self.set_target(ip, Some(Target::Concluded), now);
    }

    /// The SYN-ACK opens the target's measurement session.
    fn open_session(
        &mut self,
        src: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        now: Instant,
        fx: &mut Effects,
    ) {
        let ip = src.to_u32();
        self.admit_session(ip, now, fx);
        self.obs.emit(now, ip, Event::SynAnswered);
        for ev in [SessionEvent::SynAckValidated, SessionEvent::SessionStarted] {
            self.obs.emit(now, ip, Event::Session(ev));
        }
        let domain = self.domains.remove(&ip);
        let mut session = HostSession::new(src, self.params.clone(), domain, now);
        let mss = session.current_mss();
        self.obs.emit(
            now,
            ip,
            Event::Session(SessionEvent::ProbeStarted { probe: 0, mss }),
        );
        let out = session.on_segment(seg, now);
        let undeclared = self.targets.open(ip, session, now);
        (self.obs.metrics).add(Counter::InvariantUndeclaredEdges, undeclared);
        if let Some(deadline) = self.config.resilience.session_deadline {
            fx.arm(deadline, Timer::Watchdog(ip).token());
        }
        self.obs
            .metrics
            .gauge_set(Gauge::SessionsLivePeak, self.targets.live() as u64);
        self.apply_session_output(ip, out, now, fx);
    }

    /// A point-in-time progress reading for the monitor.
    fn progress_sample(&self, now: Instant) -> ProgressSample {
        let m = &self.obs.metrics;
        ProgressSample {
            elapsed_nanos: now.as_nanos(),
            targets_sent: self.targets_sent(),
            targets_total: self.targets_total,
            hits: m.counter_value(Counter::SynacksValidated) + self.mtu_results.len() as u64,
            // An MTU scan's table holds nothing but its probes in flight.
            live_sessions: if self.config.protocol == Protocol::IcmpMtu {
                self.targets.len()
            } else {
                self.targets.live()
            } as u64,
            configured_pps: self.config.rate_pps,
            verdicts: OutcomeKind::ALL.map(|k| m.counter_value(outcome_counters(k).1)),
        }
    }

    /// The progress monitor's reporting interval, if one runs.
    fn monitor_interval(&self) -> Option<Duration> {
        let spec = self.config.telemetry.monitor.as_ref()?;
        Some(spec.interval.max(Duration::from_nanos(1)))
    }

    /// Progress-monitor tick. Keeps ticking while the scan can still make
    /// progress; once sending is done and the stateful sessions drained,
    /// the sim winds down. (Unanswered MTU probes hold no timers, so they
    /// do not keep the monitor alive either.)
    fn monitor_tick(&mut self, now: Instant, fx: &mut Effects) {
        let Some(interval) = self.monitor_interval() else {
            return;
        };
        let sample = self.progress_sample(now);
        self.obs.emit(now, 0, Event::Progress(&sample));
        if !(self.exhausted && self.targets.live() == 0) {
            fx.arm(interval, Timer::Monitor.token());
        }
    }

    /// Streaming-telemetry tick: append one snapshot-delta record; keeps
    /// ticking on the same keep-alive rule as the monitor.
    fn stream_tick(&mut self, now: Instant, fx: &mut Effects) {
        let Some(interval) = self.config.telemetry.stream else {
            return;
        };
        self.obs.emit(now, 0, Event::Snapshot);
        if !(self.exhausted && self.targets.live() == 0) {
            fx.arm(interval, Timer::Stream.token());
        }
    }

    fn on_icmp(&mut self, src: Ipv4Addr, msg: &icmp::Message, now: Instant, fx: &mut Effects) {
        let ip = src.to_u32();
        // Control-plane harvest: classify every ICMP message before any
        // mode-specific handling, so the `scan.icmp.*` family and the
        // manifest section see the scan's full side-traffic. (A source
        // quench is an advisory rate-limiting signature — RFC 6633
        // deprecates acting on it: classified, never a fast-fail.)
        self.obs.emit(now, ip, Event::Icmp(*msg));
        // What the message means depends on where its source stands. (No
        // quoted datagram in the sim's ICMP; the source address
        // identifies the target.)
        match (self.targets.get(ip), msg) {
            (Some(Target::Mtu { total }), _) => self.on_mtu_icmp(ip, total, msg, now, fx),
            // A destination-unreachable fast-fails a TCP target instead of
            // letting it wait out the SYN/collect timeouts.
            (Some(Target::Live(index)), icmp::Message::DstUnreachable { .. }) => {
                self.obs
                    .emit(now, ip, Event::Session(SessionEvent::IcmpUnreachable));
                if let Some(session) = self.targets.session_at(index) {
                    let out = session.force_conclude(ErrorKind::IcmpUnreachable);
                    self.apply_session_output(ip, out, now, fx);
                }
            }
            (None, icmp::Message::DstUnreachable { .. }) => {
                // The SYN it answers earns no RTT sample either way.
                self.obs.emit(now, ip, Event::Untimed);
                // An untracked source still owed a SYN retry is a target
                // in flight (a silent target keeps no entry); any other
                // untracked source is not.
                if !self.retry_owed()(None) {
                    return;
                }
                self.obs
                    .emit(now, ip, Event::Session(SessionEvent::IcmpUnreachable));
                // Fast-failed before a session existed: no HostResult will
                // record this target, so the black box (and the stream)
                // carry the explanation.
                self.obs.emit(
                    now,
                    ip,
                    Event::Verdict("unreachable", Some("icmp_unreachable")),
                );
                // Concluding stops the retries the target is owed, and a
                // SYN-ACK that still arrives is a late answer: the stream
                // already carries this target's verdict.
                self.set_target(ip, Some(Target::Concluded), now);
            }
            _ => {}
        }
    }
}

impl Endpoint for Scanner {
    fn on_packet(&mut self, pkt: &[u8], now: Instant, fx: &mut Effects) {
        let Ok(packet) = ipv4::Packet::new_checked(pkt) else {
            return;
        };
        let Ok(ip_repr) = ipv4::Repr::parse(&packet) else {
            return;
        };
        if ip_repr.dst_addr != self.config.source {
            return;
        }
        match ip_repr.protocol {
            IpProtocol::Tcp => {
                let payload = packet.payload();
                let Ok(seg_packet) = tcp::Packet::new_checked(payload) else {
                    return;
                };
                // The segment borrows its payload from the packet.
                let Ok(seg) = tcp::Segment::parse(&seg_packet, ip_repr.src_addr, ip_repr.dst_addr)
                else {
                    return;
                };
                self.on_tcp(ip_repr.src_addr, &seg, now, fx);
            }
            IpProtocol::Icmp => {
                if let Ok(msg) = icmp::Message::parse(packet.payload()) {
                    self.on_icmp(ip_repr.src_addr, &msg, now, fx);
                }
            }
            IpProtocol::Unknown(_) => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects) {
        match Timer::decode(token) {
            Some(Timer::Pacing) => self.pace(now, fx),
            Some(Timer::Monitor) => self.monitor_tick(now, fx),
            Some(Timer::Sweep) => self.sweep(now, fx),
            Some(Timer::Stream) => self.stream_tick(now, fx),
            Some(Timer::Session(ip)) => match self.targets.session_mut(ip) {
                Some(session) => {
                    let out = session.on_timer(now);
                    self.apply_session_output(ip, out, now, fx);
                }
                None => self.obs.metrics.inc(Counter::InvariantStaleTimers),
            },
            Some(Timer::SynRetry(level)) => self.drain_syn_retries(level, now, fx),
            Some(Timer::Watchdog(ip)) => self.watchdog_fire(ip, now, fx),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_timer_without_a_session_is_counted_stale() {
        let mut s = Scanner::new(ScanConfig::study(Protocol::Http, 1 << 16, 7));
        let mut fx = Effects::default();
        for timer in [Timer::Session(5), Timer::Watchdog(5)] {
            s.on_timer(timer.token(), Instant::ZERO, &mut fx);
        }
        let stale = s.obs.metrics.counter_value(Counter::InvariantStaleTimers);
        assert_eq!(stale, 2);
        assert!(fx.tx.is_empty() && fx.timers.is_empty());
    }

    #[test]
    fn sampling_fraction_filters_deterministically() {
        let mut config = ScanConfig::study(Protocol::Http, 1 << 16, 7);
        config.sample_fraction = 0.25;
        let admitted = (0..40_000u32).filter(|ip| config.admits(*ip)).count();
        let frac = admitted as f64 / 40_000.0;
        assert!((0.23..0.27).contains(&frac), "{frac}");
        // Same seed/salt → same subset, whichever shard asks.
        let mut other = config.clone();
        other.shard = (2, 3);
        for ip in 0..1000 {
            assert_eq!(config.admits(ip), other.admits(ip));
        }
    }

    #[test]
    fn list_shard_holds_its_round_robin_slice() {
        let list: Vec<(u32, Option<String>)> = (0..10u32).map(|k| (100 + k, None)).collect();
        for i in 0..3u32 {
            let mut config = ScanConfig::study(Protocol::Http, 1 << 16, 7);
            config.targets = TargetSpec::List(list.clone());
            config.shard = (i, 3);
            let mut s = Scanner::new(config);
            let want: Vec<u32> = (0..10).filter(|k| k % 3 == i).map(|k| 100 + k).collect();
            assert_eq!(s.targets_total, want.len() as u64);
            let mut got = Vec::new();
            while let Some((ip, _)) = s.generator.next() {
                got.push(ip);
            }
            assert_eq!(got, want, "shard {i}/3");
        }
    }

    #[test]
    fn a_repeated_list_address_is_probed_once() {
        let mut config = ScanConfig::study(Protocol::Http, 1 << 16, 7);
        config.targets = TargetSpec::List(vec![(5, None), (6, None), (5, Some("x".into()))]);
        let mut s = Scanner::new(config);
        assert_eq!(s.generator.next(), Some((5, None)));
        assert_eq!(s.generator.next(), Some((6, None)));
        assert_eq!(s.generator.next(), None);
    }

    #[test]
    fn different_salts_different_samples() {
        let mk = |salt| {
            let mut c = ScanConfig::study(Protocol::Http, 1 << 16, 7);
            c.sample_fraction = 0.5;
            c.sample_salt = salt;
            c
        };
        let a = mk(1);
        let b = mk(2);
        let differing = (0..2000u32)
            .filter(|ip| a.admits(*ip) != b.admits(*ip))
            .count();
        assert!(differing > 500, "{differing}");
    }

    #[test]
    fn manifest_error_kind_counters_match_error_kind_order() {
        // Each kind counts into the manifest row named after it.
        for kind in ErrorKind::ALL {
            let (_, name, _) = iw_telemetry::manifest::COUNTERS[error_counter(kind) as usize];
            assert_eq!(name, format!("scan.probes.error_kinds.{}", kind.name()));
        }
    }

    #[test]
    fn pacing_respects_rate() {
        let mut config = ScanConfig::study(Protocol::Http, 1 << 20, 3);
        config.rate_pps = 10_000;
        let mut scanner = Scanner::new(config);
        let mut fx = Effects::default();
        let mut now = Instant::ZERO;
        scanner.start(now, &mut fx);
        let mut sent = fx.tx.len() as u64;
        for _ in 0..200 {
            now += TICK;
            let mut fx = Effects::default();
            scanner.pace(now, &mut fx);
            sent += fx.tx.len() as u64;
        }
        // 200 ticks × 5 ms = 1 s → ≈ 10k SYNs.
        assert!((9_000..=11_000).contains(&sent), "{sent}");
    }
}
