//! The scan engine: ZMap's send/receive architecture as one event-driven
//! endpoint.
//!
//! The send side walks the cyclic-group permutation (or an explicit
//! target list), applies the blacklist and the sampling filter, and
//! paces stateless SYNs (or ICMP echos) with a token bucket. The receive
//! side validates SYN-ACKs against the ISN cookie and only then
//! allocates the stateful per-host probe session — the "lightweight
//! fashion" extension the paper adds to ZMap (§3.4).

use crate::blacklist::ScanFilter;
use crate::checkpoint::ShardCheckpoint;
use crate::cookie::{self, CookieKey, SynAckCheck};
use crate::observe::{error_counter, outcome_counters, Event, Observer, ScanTelemetry};
use crate::permutation::{Permutation, ShardIter};
use crate::rate::{shard_rate, TokenBucket};
use crate::results::{ErrorKind, HostResult, MssVerdict, MtuResult, ProbeOutcome, Protocol};
use crate::retry::RetryQueue;
use crate::session::{HostSession, SessionOutput, SessionParams};
use crate::table::IpMap;
use crate::target::{Target, Targets};
use iw_hoststack::{tcb::synack_retransmit_span, OsProfile};
use iw_internet::util::mix;
use iw_netsim::{Duration, Effects, Endpoint, HostFactory, Instant, Sim, TimerToken};
use iw_telemetry::{Counter, Gauge, Hist, OutcomeKind, ProgressSample, SessionEvent, Snapshot};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags};
use iw_wire::{icmp, ipv4, IpProtocol, SynTemplate};
use std::collections::VecDeque;

/// What to scan.
#[derive(Debug, Clone)]
pub enum TargetSpec {
    /// The whole scaled address space (permutation order).
    FullSpace {
        /// Space size in addresses.
        size: u32,
    },
    /// An explicit list (e.g. Alexa): `(ip, known domain)`.
    List(Vec<(u32, Option<String>)>),
}

/// Scan configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Seed for permutation, cookies and probe randomness.
    pub seed: u64,
    /// Protocol module.
    pub protocol: Protocol,
    /// Target generation rate (packets/second, virtual time).
    pub rate_pps: u64,
    /// Targets.
    pub targets: TargetSpec,
    /// White/blacklists.
    pub filter: ScanFilter,
    /// Probe only this fraction of admitted targets (1.0 = all); the
    /// "1 % is enough" experiments use 0.01.
    pub sample_fraction: f64,
    /// Salt distinguishing independent random samples.
    pub sample_salt: u64,
    /// `(index, count)` cycle-striding shard.
    pub shard: (u32, u32),
    /// Probes per MSS (3 in the study).
    pub probes_per_mss: u32,
    /// Announced MSS values in run order.
    pub mss_list: Vec<u16>,
    /// Scanner source address.
    pub source: Ipv4Addr,
    /// Exhaustion-verification knob (ablation; on in the study).
    pub verify_exhaustion: bool,
    /// Record the simulated wire traffic (pcap export).
    pub record_trace: bool,
    /// Stateless-first hybrid mode (ZBanner-style): discovery SYNs carry
    /// their whole per-flow state in the source port + ISN cookie, and a
    /// target only earns a table entry once its SYN-ACK validates and it
    /// is promoted to a full stateful IW-inference session (until then
    /// it costs at most its 4-byte address in a retry FIFO per backoff
    /// window). Applies to the TCP inference protocols (`Http`/`Tls`);
    /// `PortScan` is already stateless and `IcmpMtu` has no handshake.
    pub stateless_first: bool,
    /// Telemetry knobs (event log, RTT tracking, progress monitor).
    pub telemetry: TelemetryConfig,
    /// Resilience knobs (retries, watchdog, concurrency cap).
    pub resilience: ResilienceConfig,
}

/// Resilience knobs: retry budgets, the per-session watchdog and the
/// concurrency cap. Everything defaults to off so the baseline scan is
/// byte-identical with and without this layer compiled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// SYN retransmissions for silent targets (0 = single SYN, ZMap
    /// style). Each retry doubles the backoff.
    pub syn_retries: u32,
    /// Delay before the first SYN retry; doubles per attempt.
    pub syn_backoff: Duration,
    /// Per-probe connection retries for `Error`/`Unreachable` outcomes
    /// (0 = record the failure immediately).
    pub probe_retries: u32,
    /// Delay before a probe retry connection; doubles per attempt.
    pub probe_backoff: Duration,
    /// Hard per-session deadline: a session still running this long after
    /// its SYN-ACK is force-concluded (tarpit defense). `None` = no watchdog.
    pub session_deadline: Option<Duration>,
    /// Maximum live sessions; above this the oldest session is evicted
    /// (0 = unbounded).
    pub max_sessions: usize,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            syn_retries: 0,
            syn_backoff: Duration::from_secs(1),
            probe_retries: 0,
            probe_backoff: Duration::from_millis(500),
            session_deadline: None,
            max_sessions: 0,
        }
    }
}

impl ResilienceConfig {
    /// A hardened profile for hostile networks: 2 SYN retries, 2 probe
    /// retries, a 75 s watchdog and a 64 Ki session cap.
    pub fn hardened() -> ResilienceConfig {
        ResilienceConfig {
            syn_retries: 2,
            syn_backoff: Duration::from_secs(1),
            probe_retries: 2,
            probe_backoff: Duration::from_millis(500),
            session_deadline: Some(Duration::from_secs(75)),
            max_sessions: 65_536,
        }
    }
}

/// Telemetry knobs for a scan: which products the scan's observer
/// (`observe.rs`) records into. Everything defaults to off: the metrics
/// registry and the ICMP harvest always run (both are cheap), but the
/// other products and the SYN-timestamp map cost memory per host and
/// are opt-in.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Record per-session lifecycle events into the scan event log.
    pub record_events: bool,
    /// Track SYN send times to measure the SYN → SYN-ACK RTT (one map
    /// entry per in-flight target).
    pub record_rtt: bool,
    /// Emit periodic ZMap-style progress lines.
    pub monitor: Option<MonitorSpec>,
    /// Record virtual-time session-phase spans (handshake, probes,
    /// session lifetime) for Chrome-trace export. Uses the SYN-timestamp
    /// map, so it shares `record_rtt`'s per-target memory cost.
    pub record_spans: bool,
    /// Keep a bounded per-session flight-recorder ring of wire and
    /// state-transition activity; sessions ending in an error dump theirs
    /// as a JSONL black box.
    pub flight_recorder: bool,
    /// Append streaming JSONL telemetry (metric deltas + per-target
    /// results) on this virtual-time interval.
    pub stream: Option<Duration>,
}

/// Progress-monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Virtual-time reporting interval.
    pub interval: Duration,
    /// Where the status lines go.
    pub sink: MonitorSink,
}

impl Default for MonitorSpec {
    fn default() -> MonitorSpec {
        MonitorSpec {
            interval: Duration::from_secs(1),
            sink: MonitorSink::Capture,
        }
    }
}

/// Status-line destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorSink {
    /// Print lines as they are produced (the CLI's `--monitor`).
    Stdout,
    /// Collect lines for later retrieval (tests; sharded runs).
    Capture,
}

impl ScanConfig {
    /// Study defaults against a full space.
    pub fn study(protocol: Protocol, space: u32, seed: u64) -> ScanConfig {
        ScanConfig {
            seed,
            protocol,
            rate_pps: 150_000,
            targets: TargetSpec::FullSpace { size: space },
            filter: ScanFilter::default(),
            sample_fraction: 1.0,
            sample_salt: 0,
            shard: (0, 1),
            probes_per_mss: 3,
            mss_list: vec![64, 128],
            source: Ipv4Addr::new(198, 18, 0, 1),
            verify_exhaustion: true,
            record_trace: false,
            stateless_first: false,
            telemetry: TelemetryConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// Reject a configuration that would run but measure nothing (no MSS,
    /// no probes, no rate, an empty sample) or force-conclude healthy
    /// sessions (a watchdog below [`WATCHDOG_FLOOR`]). The fields stay
    /// public, so a caller that takes them from a user checks first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mss_list.is_empty() {
            return Err(ConfigError::EmptyMssList);
        }
        if self.mss_list.contains(&0) {
            return Err(ConfigError::ZeroMss);
        }
        if self.probes_per_mss == 0 {
            return Err(ConfigError::ZeroProbes);
        }
        if self.rate_pps == 0 {
            return Err(ConfigError::ZeroRate);
        }
        if !(self.sample_fraction > 0.0 && self.sample_fraction <= 1.0) {
            return Err(ConfigError::SampleFraction(self.sample_fraction));
        }
        let r = &self.resilience;
        if let Some(deadline) = r.session_deadline {
            if deadline < WATCHDOG_FLOOR {
                return Err(ConfigError::WatchdogBelowFloor(deadline));
            }
        }
        if (r.syn_retries > 0 && r.syn_backoff == Duration::ZERO)
            || (r.probe_retries > 0 && r.probe_backoff == Duration::ZERO)
        {
            return Err(ConfigError::ZeroBackoff);
        }
        Ok(())
    }
}

/// A scan configuration rejected by [`ScanConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The MSS run list is empty: the scan would probe nothing.
    EmptyMssList,
    /// An announced MSS of zero (the TCP option cannot express it and
    /// every segment-count division would be by zero).
    ZeroMss,
    /// `probes_per_mss` of zero: no probes, no verdicts.
    ZeroProbes,
    /// A target rate of zero packets/second never sends the first SYN.
    ZeroRate,
    /// `sample_fraction` outside `(0, 1]`.
    SampleFraction(f64),
    /// The watchdog would fire before a single connection attempt can
    /// exhaust its own timeouts (SYN 4 s + collect 10 s + verify 3 s),
    /// force-concluding perfectly healthy sessions.
    WatchdogBelowFloor(Duration),
    /// Retries were requested with a zero backoff: every retry would
    /// fire in the same virtual instant, a busy-loop in disguise.
    ZeroBackoff,
}

/// Minimum useful watchdog: one full connection attempt's timeout
/// budget (`syn_timeout + collect_timeout + verify_timeout` defaults).
pub const WATCHDOG_FLOOR: Duration = Duration::from_secs(4 + 10 + 3);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyMssList => write!(f, "mss_list must not be empty"),
            ConfigError::ZeroMss => write!(f, "mss_list must not contain 0"),
            ConfigError::ZeroProbes => write!(f, "probes_per_mss must be at least 1"),
            ConfigError::ZeroRate => write!(f, "rate_pps must be at least 1"),
            ConfigError::SampleFraction(v) => {
                write!(f, "sample_fraction {v} outside (0, 1]")
            }
            ConfigError::WatchdogBelowFloor(d) => write!(
                f,
                "session watchdog {d} below the {WATCHDOG_FLOOR} single-attempt floor"
            ),
            ConfigError::ZeroBackoff => {
                write!(f, "retries configured with a zero backoff")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

enum TargetIter {
    Perm(ShardIter),
    List(std::vec::IntoIter<(u32, Option<String>)>),
}

impl TargetIter {
    fn next(&mut self) -> Option<(u32, Option<String>)> {
        match self {
            TargetIter::Perm(iter) => iter.next().map(|ip| (ip as u32, None)),
            TargetIter::List(iter) => iter.next(),
        }
    }

    /// Resumable position: the permutation cursor ([`ShardIter::cursor`]),
    /// or `(remaining, 0)` for explicit lists. Either way the pair pins
    /// the generator's exact state for checkpoint barrier comparison.
    fn cursor(&self) -> (u64, u64) {
        match self {
            TargetIter::Perm(iter) => iter.cursor(),
            TargetIter::List(iter) => (iter.len() as u64, 0),
        }
    }
}

/// Timer token for the pacing tick.
const PACING_TOKEN: TimerToken = u64::MAX;
/// Timer token for the progress monitor (session tokens are `u64::from(ip)`,
/// so the top of the token space is free for scanner-internal timers).
const MONITOR_TOKEN: TimerToken = u64::MAX - 1;
/// Timer token for the periodic SYN-timestamp sweep.
const SWEEP_TOKEN: TimerToken = u64::MAX - 2;
/// Timer token for the streaming-telemetry snapshot tick.
const STREAM_TOKEN: TimerToken = u64::MAX - 3;
/// Timer namespaces in bits 32..40 of the token: 0 = session wake-up,
/// 1 = stateful SYN-retry drain, 2 = session watchdog, 3 = discovery
/// retry drain. Session wake-ups and watchdogs are per responder (bits
/// ..32 carry the IP); the two retry namespaces carry no IP — one timer
/// per backoff level (bits 40..) drains that level's [`RetryQueue`].
/// The scanner-global tokens above live at the very top of the space
/// and are matched by equality first.
const SYN_RETRY_NS: u64 = 1 << 32;
/// See [`SYN_RETRY_NS`].
const WATCHDOG_NS: u64 = 2 << 32;
/// Discovery-retry drain namespace. Level `k` holds the targets whose
/// retransmission `k + 1` is due `syn_backoff << k` after they were
/// queued; a discovery-phase target has no table entry.
const DISCOVERY_NS: u64 = 3 << 32;

/// Token of the drain timer for backoff `level` in retry namespace `ns`.
fn retry_token(ns: u64, level: usize) -> TimerToken {
    ns | ((level as u64) << 40)
}
/// Pacing tick length.
const TICK: Duration = Duration::from_millis(5);
/// Period of the SYN-timestamp sweep.
const SWEEP_PERIOD: Duration = Duration::from_secs(1);
/// A SYN-timestamp entry older than this belongs to a host that will
/// never SYN-ACK; the sweep drops it (satellite: the `syn_ts` leak).
const RTT_EXPIRY: Duration = Duration::from_secs(8);

/// How long a concluded target absorbs late answers. Its last SYN left
/// within the SYN-retry window, the slowest host stack retransmits its
/// SYN-ACK for [`synack_retransmit_span`] after that, and [`RTT_EXPIRY`]
/// covers the path. Derived, never configured.
fn concluded_hold(r: &ResilienceConfig) -> Duration {
    // (Clamped only to keep the shift in range: 2^32 backoffs outlast
    // any scan.)
    let window = r
        .syn_backoff
        .saturating_mul((1 << r.syn_retries.min(32)) - 1);
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
    params: SessionParams,
    cookie: CookieKey,
    bucket: TokenBucket,
    generator: TargetIter,
    exhausted: bool,
    /// Every tracked address's one [`Target`] state, and the live
    /// sessions. A silent target has no entry: while it owes a retry its
    /// address waits in a retry FIFO, whose level is its attempt count.
    targets: Targets,
    /// Stateful SYN retransmissions waiting out their backoff, one FIFO
    /// per level (level = retries already spent; the last level is the
    /// give-up deadline). Grown on first use, so empty without retries.
    syn_retry_queues: Vec<RetryQueue>,
    /// Discovery retransmissions (stateless-first mode), one FIFO per
    /// level. Like the stateful ones, they hold a silent target's 4-byte
    /// address for the length of a backoff window: the only per-target
    /// state a silent target costs.
    discovery_retry_queues: Vec<RetryQueue>,
    /// Set by [`Self::begin_drain`]: no response opens new work.
    draining: bool,
    /// Session creation order (oldest first) for `max_sessions` eviction.
    /// Maintained only when a cap is configured; may hold stale entries
    /// for already-finished sessions (skipped on eviction, lazily
    /// compacted on conclusion so it stays O(live sessions)).
    session_order: VecDeque<u32>,
    /// `Queued` responders in discovery order (stateless-first mode).
    /// Drained FIFO whenever live sessions plus promoted handshakes in
    /// flight leave room under `max_sessions`: a session only appears
    /// when the SYN-ACK returns, so gating on sessions alone would flush
    /// the whole queue in one burst and evict everything past the cap.
    promotions: VecDeque<u32>,
    /// Known domains of list targets, until their session takes them.
    domains: IpMap<String>,
    results: Vec<HostResult>,
    open_ports: Vec<u32>,
    mtu_results: Vec<MtuResult>,
    ident: u16,
    /// Prebuilt SYN datagram (source, destination port, window and MSS
    /// option are fixed for the whole scan). Per target only the address,
    /// the IPv4 ident, the source port (discovery: the attempt) and the
    /// cookie ISN are patched in.
    syn_template: SynTemplate,
    /// The metrics and every telemetry product, fed through
    /// [`Observer::emit`].
    obs: Observer,
    /// SYN send times for RTT measurement (populated only when
    /// `telemetry.record_rtt` or `record_spans`; consumed on first
    /// response, dropped at the first SYN retry (Karn's rule, so before
    /// any give-up) or a drain, and whenever the target's entry moves to
    /// any state but `Handshake`).
    syn_ts: IpMap<Instant>,
    /// Estimated targets this shard will probe (0 = unknown).
    targets_total: u64,
}

impl Scanner {
    /// Build a self-generating scanner: it walks its own shard of the
    /// permutation (or its round-robin slice of the target list) while
    /// pacing.
    pub fn new(config: ScanConfig) -> Scanner {
        let (index, count) = (config.shard.0, config.shard.1.max(1));
        // `targets_total` is the monitor's estimate of what this shard
        // will probe.
        let (generator, targets_total) = match &config.targets {
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
        };
        let params = SessionParams {
            protocol: config.protocol,
            probes_per_mss: config.probes_per_mss,
            mss_list: config.mss_list.clone(),
            base_sport: 40000,
            source: config.source,
            seed: config.seed,
            verify_exhaustion: config.verify_exhaustion,
            probe_retries: config.resilience.probe_retries,
            probe_backoff: config.resilience.probe_backoff,
        };
        let cookie = CookieKey::new(config.seed);
        // Each shard paces at its integer slice of the global rate, so N
        // concurrent shards provably sum to `rate_pps` (see
        // `rate::shard_rate`); with one shard the slice is the whole
        // budget. `config.rate_pps` stays global for digests and the
        // monitor's configured-pps line.
        let pace_pps = shard_rate(config.rate_pps, config.shard.0, config.shard.1);
        let bucket = TokenBucket::new(pace_pps, (pace_pps / 100).max(16), Instant::ZERO);
        let obs = Observer::new(&config.telemetry, config.shard.0);
        let targets = Targets::new(concluded_hold(&config.resilience));
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
            cookie,
            bucket,
            generator,
            exhausted: false,
            targets,
            syn_retry_queues: Vec::new(),
            discovery_retry_queues: Vec::new(),
            draining: false,
            session_order: VecDeque::new(),
            promotions: VecDeque::new(),
            domains: IpMap::new(),
            results: Vec::new(),
            open_ports: Vec::new(),
            mtu_results: Vec::new(),
            ident: 1,
            syn_template,
            obs,
            syn_ts: IpMap::new(),
            targets_total,
        }
    }

    /// Begin scanning (call once via `Sim::kick_scanner`).
    pub fn start(&mut self, now: Instant, fx: &mut Effects) {
        if let Some(interval) = self.monitor_interval() {
            fx.arm(interval, MONITOR_TOKEN);
        }
        // The sweep also bounds the SYN-timestamp map when it serves the
        // span tracer, and expires flight-recorder rings of silent hosts.
        let t = &self.config.telemetry;
        if t.record_rtt || t.record_spans || t.flight_recorder {
            fx.arm(SWEEP_PERIOD, SWEEP_TOKEN);
        }
        if let Some(interval) = t.stream {
            fx.arm(interval, STREAM_TOKEN);
        }
        self.pace(now, fx);
    }

    /// Finished host records (harvest after the run).
    pub fn results(&self) -> &[HostResult] {
        &self.results
    }

    /// Open ports found (port-scan mode).
    pub fn open_ports(&self) -> &[u32] {
        &self.open_ports
    }

    /// Path-MTU results (ICMP mode).
    pub fn mtu_results(&self) -> &[MtuResult] {
        &self.mtu_results
    }

    /// SYNs answered by RST (host up, port closed).
    pub fn refused(&self) -> u64 {
        self.obs.metrics.counter_value(Counter::Refused)
    }

    /// Distinct targets probed.
    pub fn targets_sent(&self) -> u64 {
        self.obs.metrics.counter_value(Counter::TargetsSent)
    }

    /// Sessions still in flight (diagnostics).
    pub fn live_sessions(&self) -> usize {
        self.targets.live()
    }

    /// SYN timestamps still held for RTT measurement (diagnostics; the
    /// sweep keeps this bounded even when targets never answer).
    pub fn rtt_pending(&self) -> usize {
        self.syn_ts.len()
    }

    /// Depth of the eviction-order queue (diagnostics; lazy compaction
    /// keeps this O(live sessions), not O(total sessions started)).
    pub fn eviction_queue_len(&self) -> usize {
        self.session_order.len()
    }

    /// Retransmissions queued behind their backoff, over every level of
    /// both retry paths (diagnostics; the honest per-target footprint of
    /// a hardened scan — at most `rate × (backoff window)` entries, and
    /// zero once the scan drains).
    pub fn retry_backlog(&self) -> usize {
        self.syn_retry_queues
            .iter()
            .chain(&self.discovery_retry_queues)
            .map(RetryQueue::len)
            .sum()
    }

    /// Frozen metrics snapshot (merge across shards via [`Snapshot::merge`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.obs.metrics.snapshot()
    }

    /// Close out the scanner of a drained `sim` and hand over its
    /// telemetry: the sim's counters and hot-path spans fold in, the
    /// monitor prints its final line and the stream takes its last
    /// snapshot.
    pub fn harvest<F: HostFactory>(sim: &mut Sim<Scanner, F>) -> ScanTelemetry {
        let (now, stats, sim_spans) = (sim.now(), sim.stats(), sim.take_tracer());
        let scanner = sim.scanner_mut();
        let last = scanner.progress_sample(now);
        scanner.obs.harvest(now, &stats, sim_spans, &last)
    }

    /// Capture this shard's observable state as a [`ShardCheckpoint`]
    /// (a pure read — the driver pairs it with its event count). The
    /// capture is the durable-campaign barrier token: a resumed replay
    /// reaching `events` must reproduce these bytes exactly.
    pub fn checkpoint(&self, events: u64, now: Instant) -> ShardCheckpoint {
        let (cursor_next, cursor_produced) = self.generator.cursor();
        // Pending: every unanswered stateful SYN with the retries it has
        // sent. A target owed a retry waits in the FIFO of that level,
        // silent (no entry, or a promoted `Handshake`) unless its answer
        // came first; without retries only promoted handshakes are held.
        let (mut pending, mut sessions) = (Vec::new(), Vec::new());
        for (level, queue) in self.syn_retry_queues.iter().enumerate() {
            for ip in queue.iter() {
                if matches!(self.targets.get(ip), None | Some(Target::Handshake)) {
                    pending.push((ip, level as u32));
                }
            }
        }
        let retries = self.config.resilience.syn_retries > 0;
        for (ip, target) in self.targets.iter() {
            match target {
                Target::Handshake if !retries => pending.push((ip, 0)),
                Target::Live(_) | Target::Mtu { .. } => sessions.push(ip),
                Target::Queued | Target::Handshake | Target::Concluded => {}
            }
        }
        pending.sort_unstable();
        sessions.sort_unstable();
        let snap = self.obs.metrics.snapshot();
        let counters: Vec<(String, u64)> = snap
            .counters
            .iter()
            .map(|(name, (_, value))| (name.clone(), *value))
            .collect();
        ShardCheckpoint {
            shard: self.config.shard.0,
            events,
            at_nanos: now.as_nanos(),
            cursor_next,
            cursor_produced,
            exhausted: self.exhausted,
            targets_sent: self.targets_sent(),
            pending,
            sessions,
            // Queue order is state (promotion is FIFO), so the capture
            // is NOT sorted — a resumed replay must reproduce the exact
            // drain order for the tail to stay byte-identical.
            promotions: self.promotions.iter().copied().collect(),
            results_recorded: (self.results.len() + self.open_ports.len() + self.mtu_results.len())
                as u64,
            stream_records: self.obs.stream_len() as u64,
            counters,
        }
    }

    /// Count one periodic checkpoint capture. The driver calls this
    /// *before* [`Self::checkpoint`] on periodic ticks so the captured
    /// counters include the capture producing them; kill and barrier
    /// validation captures do not count — a resumed run only has to
    /// reproduce the periodic cadence to stay byte-identical.
    pub fn note_checkpoint_taken(&mut self) {
        self.obs.metrics.inc(Counter::CheckpointsTaken);
    }

    /// Graceful-shutdown drain: stop target generation, drop every queued
    /// retransmission and promotion, and force-conclude every live
    /// session (recorded as [`ErrorKind::CollectTimeout`]) so the event
    /// loop winds down on its own; from here on no response opens new
    /// work. Every queued entry, session and MTU probe cut short counts
    /// into `scan.checkpoint.drain_forced`.
    pub fn begin_drain(&mut self, now: Instant, fx: &mut Effects) {
        self.exhausted = true;
        self.draining = true;
        // Queued retransmissions and queued responders are cut short
        // alike: each dropped entry is forced-drain pressure. (The
        // levels' outstanding drain timers fire into empty queues.) A
        // silent target cut off here loses its RTT stamp too.
        for ip in self.syn_retry_queues.iter().flat_map(RetryQueue::iter) {
            self.syn_ts.remove(ip);
        }
        let dropped_retries: usize = self
            .syn_retry_queues
            .iter_mut()
            .chain(&mut self.discovery_retry_queues)
            .map(RetryQueue::clear)
            .sum();
        self.obs.metrics.add(
            Counter::CheckpointDrainForced,
            (dropped_retries + self.promotions.len()) as u64,
        );
        self.promotions.clear();
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
                    self.obs.metrics.inc(Counter::CheckpointDrainForced);
                    self.apply_session_output(ip, out, now, fx);
                }
                None => {
                    if matches!(target, Target::Mtu { .. }) {
                        self.obs.metrics.inc(Counter::CheckpointDrainForced);
                    }
                    self.set_target(ip, None, now);
                }
            }
        }
    }

    /// Move `ip` to `to` along a declared edge (see [`Targets::set`]).
    /// A target with an entry outside `Handshake` holds no RTT stamp, and
    /// a concluded one no domain.
    fn set_target(&mut self, ip: u32, to: Option<Target>, now: Instant) {
        self.targets.set(ip, to, now);
        if to != Some(Target::Handshake) {
            self.syn_ts.remove(ip);
        }
        if to == Some(Target::Concluded) {
            self.domains.remove(ip);
        }
    }

    /// The deterministic per-target sampling decision: a target's
    /// admission depends only on `(seed, salt, ip)`, never on which
    /// shard asks.
    fn sample_admits(&self, ip: u32) -> bool {
        let c = &self.config;
        if c.sample_fraction >= 1.0 {
            return true;
        }
        let h = mix(&[c.seed, c.sample_salt, u64::from(ip)]);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < c.sample_fraction
    }

    fn pace(&mut self, now: Instant, fx: &mut Effects) {
        if self.exhausted {
            return;
        }
        // Per tick, ask for this shard's slice of the rate (the bucket
        // carries `shard_rate(..)`, not the global figure).
        let want = (self.bucket.rate_pps() / 200).max(1);
        let grant = self.bucket.take(now, want);
        self.obs.emit(now, 0, Event::Pace(grant));
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
                if !self.config.filter.admits(ip) || !self.sample_admits(ip) {
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
        fx.arm(TICK.max(self.bucket.next_available()), PACING_TOKEN);
    }

    fn send_initial_probe(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        match self.config.protocol {
            Protocol::IcmpMtu => {
                let total = 1500u32;
                self.set_target(ip, Some(Target::Mtu { total }), now);
                self.send_echo(ip, total, fx);
            }
            _ if self.discovery_active() => {
                // Stateless-first: the SYN's source port and cookie ISN
                // carry the whole flow state. No table entry, no RTT
                // stamp, no recorder stamp — a target earns table memory
                // only at promotion. Its retransmission is one FIFO entry
                // whose level names the attempt.
                self.obs.metrics.inc(Counter::DiscoverySyns);
                self.emit_discovery_syn(ip, 0, fx);
                if self.discovery_retry_budget() > 0 {
                    self.queue_retry(DISCOVERY_NS, 0, ip, now, fx);
                }
            }
            _ => self.send_stateful_syn(ip, false, now, fx),
        }
    }

    /// Whether discovery-phase statelessness applies: the inference
    /// protocols handshake over TCP and benefit; `PortScan` is already
    /// stateless and `IcmpMtu` has no TCP handshake.
    fn discovery_active(&self) -> bool {
        self.config.stateless_first
            && matches!(self.config.protocol, Protocol::Http | Protocol::Tls)
    }

    /// Whether an untracked address may be a silent target still owed a
    /// stateful SYN retry or its give-up: a classic TCP scan with SYN
    /// retries, before a drain cut them off. (The discovery phase's own
    /// retries are stateless, and a promoted target has an entry.)
    fn untracked_owes_retry(&self) -> bool {
        self.config.resilience.syn_retries > 0
            && !self.draining
            && !self.discovery_active()
            && self.config.protocol != Protocol::IcmpMtu
    }

    /// Discovery retransmission budget: the configured SYN retries,
    /// clamped so the attempt always fits the source-port encoding.
    fn discovery_retry_budget(&self) -> u32 {
        self.config
            .resilience
            .syn_retries
            .min(cookie::DISCOVERY_MAX_ATTEMPTS - 1)
    }

    /// Send the stateful SYN for a target — directly in classic mode, or
    /// at promotion time in stateless-first mode. From here on the
    /// target follows the exact classic lifecycle (RTT stamp, recorder
    /// stamp, stateful retry queue), which is what keeps responder
    /// verdicts byte-identical across the two modes. Only a promoted
    /// target takes an entry (`Handshake`, for its `max_sessions` slot).
    fn send_stateful_syn(&mut self, ip: u32, promoted: bool, now: Instant, fx: &mut Effects) {
        if promoted {
            self.set_target(ip, Some(Target::Handshake), now);
        }
        // The SYN timestamp serves both the RTT histogram and the
        // handshake span, so either knob populates the map (the
        // sweep bounds it for silent targets in both cases).
        if self.config.telemetry.record_rtt || self.config.telemetry.record_spans {
            self.syn_ts.insert(ip, now);
        }
        let isn = self.emit_syn(ip, fx);
        self.obs.emit(now, ip, Event::Syn(isn));
        if self.config.resilience.syn_retries > 0 {
            self.queue_retry(SYN_RETRY_NS, 0, ip, now, fx);
        }
    }

    /// The FIFOs of retry namespace `ns`, one per backoff level.
    fn retry_queues(&mut self, ns: u64) -> &mut Vec<RetryQueue> {
        if ns == DISCOVERY_NS {
            &mut self.discovery_retry_queues
        } else {
            &mut self.syn_retry_queues
        }
    }

    /// Queue `ip` for the retransmission of backoff `level`, due
    /// `syn_backoff << level` from now (the doubling schedule both retry
    /// paths share), arming the level's drain timer if none is
    /// outstanding.
    fn queue_retry(&mut self, ns: u64, level: usize, ip: u32, now: Instant, fx: &mut Effects) {
        let delay = Duration::from_nanos(self.config.resilience.syn_backoff.as_nanos() << level);
        let queues = self.retry_queues(ns);
        if queues.len() <= level {
            queues.resize_with(level + 1, RetryQueue::default);
        }
        if queues[level].push(now + delay, ip) {
            fx.arm(delay, retry_token(ns, level));
        }
    }

    /// A level's drain timer fired: run the retry body for every entry
    /// due by now — one wheel event per pacing batch, not one per target
    /// — and re-arm at the new head's due time. A fire queues its target
    /// onto the *next* level, never this one, so the level stays sorted.
    fn drain_retries(&mut self, ns: u64, level: usize, now: Instant, fx: &mut Effects) {
        while let Some(ip) = self
            .retry_queues(ns)
            .get_mut(level)
            .and_then(|q| q.pop_due(now))
        {
            if ns == DISCOVERY_NS {
                self.discovery_retry_fire(ip, level, now, fx);
            } else {
                self.syn_retry_fire(ip, level, now, fx);
            }
        }
        if let Some(delay) = self
            .retry_queues(ns)
            .get_mut(level)
            .and_then(|q| q.rearm(now))
        {
            fx.arm(delay, retry_token(ns, level));
        }
    }

    /// Emit the stateless discovery SYN for `attempt`: the source port
    /// encodes the attempt, the ISN is the cookie for exactly that flow,
    /// so the eventual SYN-ACK names the transmission it answers.
    fn emit_discovery_syn(&mut self, ip: u32, attempt: u32, fx: &mut Effects) {
        let sport = cookie::discovery_sport(attempt);
        let isn = self.cookie.isn(ip, sport, self.config.protocol.port());
        self.send_syn(ip, sport, isn, fx);
    }

    /// Patch the SYN template for one target and send it.
    fn send_syn(&mut self, ip: u32, sport: u16, isn: u32, fx: &mut Effects) {
        let dst = Ipv4Addr::from_u32(ip);
        fx.send(
            self.syn_template
                .datagram(dst, &mut self.ident, sport, isn, fx.pool()),
        );
    }

    /// A target's level-`level` discovery backoff elapsed: send attempt
    /// `level + 1` on a fresh source port unless the target already
    /// answered, and queue the next level while budget remains.
    fn discovery_retry_fire(&mut self, ip: u32, level: usize, now: Instant, fx: &mut Effects) {
        // One table probe per silent target: in stateless-first mode a
        // target has an entry only once an answer validated, and keeps it
        // for far longer than the retry schedule runs.
        if self.targets.get(ip).is_some() {
            return;
        }
        let attempt = level as u32 + 1;
        self.obs.metrics.inc(Counter::DiscoveryRetries);
        self.emit_discovery_syn(ip, attempt, fx);
        if attempt < self.discovery_retry_budget() {
            self.queue_retry(DISCOVERY_NS, level + 1, ip, now, fx);
        }
    }

    /// A discovery-flow segment arrived (destination port inside the
    /// discovery block). Every verdict path is cookie-gated; failures are
    /// counted by taxonomy and dropped without a verdict.
    fn on_discovery_segment(
        &mut self,
        src: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        now: Instant,
        fx: &mut Effects,
    ) {
        if self.draining {
            // A graceful drain is winding the scan down: late answers
            // earn neither a teardown RST nor a promotion.
            return;
        }
        let ip = src.to_u32();
        // Blind retransmissions draw duplicate answers, and every answer
        // after the first finds the target tracked: a responder is
        // promoted (or refused) exactly once.
        let known = self.targets.get(ip).is_some();
        if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) {
            match self
                .cookie
                .classify_synack(ip, seg.dst_port, seg.src_port, seg.ack)
            {
                SynAckCheck::Valid => {
                    // Tear the stateless flow down either way: the host
                    // holds a half-open connection we will never use.
                    let rst =
                        tcp::Segment::bare(seg.dst_port, seg.src_port, seg.ack, 0, Flags::RST, 0);
                    fx.send(rst.datagram(self.config.source, src, &mut self.ident, fx.pool()));
                    if known {
                        self.obs.metrics.inc(Counter::DiscoveryDuplicates);
                        return;
                    }
                    self.set_target(ip, Some(Target::Queued), now);
                    self.obs.metrics.inc(Counter::DiscoveryValidated);
                    self.promotions.push_back(ip);
                    self.note_discovery_state();
                    self.try_drain_promotions(now, fx);
                }
                SynAckCheck::RawIsnEcho => {
                    self.obs.metrics.inc(Counter::DiscoveryRawIsnEcho);
                }
                SynAckCheck::Mismatch => {
                    self.obs.metrics.inc(Counter::DiscoveryCookieMismatch);
                }
            }
        } else if seg.flags.contains(Flags::RST) {
            if !self
                .cookie
                .validate(ip, seg.dst_port, seg.src_port, seg.ack)
            {
                self.obs.metrics.inc(Counter::DiscoverySpoofedRst);
                return;
            }
            // Same verdict as on the stateful path, no promotion needed.
            if !known {
                self.refusal(ip, now, fx);
            }
        }
    }

    /// A cookie-valid RST answered the target's SYN: host up, port
    /// closed. A terminal verdict with no session behind it.
    fn refusal(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        self.obs
            .emit(now, ip, Event::Session(SessionEvent::Refused));
        // A refusal is a clean conclusion: the black box is dropped.
        self.obs.emit(now, ip, Event::Verdict("refused", None));
        self.set_target(ip, Some(Target::Concluded), now);
        // A promoted handshake's slot frees up.
        self.try_drain_promotions(now, fx);
    }

    /// Promote queued responders into stateful sessions while the
    /// `max_sessions` cap has room. Unlike classic mode (which evicts the
    /// oldest session on admission pressure), promotion *waits*: the
    /// queue is the back-pressure buffer, and concluded sessions pull the
    /// next responder in.
    fn try_drain_promotions(&mut self, now: Instant, fx: &mut Effects) {
        if self.draining {
            return;
        }
        let cap = self.config.resilience.max_sessions;
        while let Some(&ip) = self.promotions.front() {
            // In-flight promotions hold a slot too: their sessions only
            // materialize one RTT later, when the SYN-ACK comes back.
            if cap > 0 && self.targets.live() + self.targets.promoted() >= cap {
                return;
            }
            self.promotions.pop_front();
            self.obs.metrics.inc(Counter::DiscoveryPromoted);
            self.send_stateful_syn(ip, true, now, fx);
            self.note_discovery_state();
        }
    }

    /// Record the current per-target discovery footprint into the
    /// `scan.discovery.state_peak` gauge (the registry keeps the peak).
    /// This is the memory-model gate: the gauge counts distinct targets
    /// holding pre-session state — `Queued` responders plus promoted
    /// `Handshake`s. RTT stamps only exist for those same targets in
    /// stateless-first mode, so the gauge bounds them too: O(validated
    /// responders), never O(targets). (The retry FIFOs are the other
    /// per-target cost — a silent target's 4-byte address per backoff
    /// window, bounded by the rate; see [`Self::retry_backlog`].)
    fn note_discovery_state(&mut self) {
        let footprint = (self.promotions.len() + self.targets.promoted()) as u64;
        self.obs
            .metrics
            .gauge_set(Gauge::DiscoveryStatePeak, footprint);
    }

    /// Emit the stateless (probe 0, conn 0) SYN for a target and return
    /// its ISN. Retries use the identical 4-tuple and ISN, so a SYN-ACK
    /// to any attempt validates against the same cookie.
    fn emit_syn(&mut self, ip: u32, fx: &mut Effects) -> u32 {
        let sport = self.params.sport(0, 0, 0);
        let isn = self.cookie.isn(ip, sport, self.config.protocol.port());
        self.send_syn(ip, sport, isn, fx);
        isn
    }

    /// A target's level-`level` stateful SYN backoff elapsed: retransmit
    /// if it is still silent and budget remains, and queue the next
    /// (doubled) level. The level is the retries already sent; a silent
    /// target has no entry, or a `Handshake` one if it was promoted, and
    /// any other entry means its answer (or an ICMP fast-fail) came first.
    fn syn_retry_fire(&mut self, ip: u32, level: usize, now: Instant, fx: &mut Effects) {
        let promoted = match self.targets.get(ip) {
            None => false,
            Some(Target::Handshake) => true,
            Some(_) => return,
        };
        let attempts = level as u32;
        if attempts >= self.config.resilience.syn_retries {
            // Budget spent and still silent: give up on the target (its
            // RTT stamp went with the first retry, by Karn's rule). The
            // flight recorder dumps the ring — a SYN-blackholed target is
            // a failure worth a black box even though no session existed.
            // A promoted target concludes: its discovery answer was
            // already spent.
            self.obs.emit(now, ip, Event::GaveUp);
            if promoted {
                self.set_target(ip, Some(Target::Concluded), now);
                self.try_drain_promotions(now, fx);
            }
            return;
        }
        let attempt = (attempts + 1) as u8;
        self.obs.emit(
            now,
            ip,
            Event::Session(SessionEvent::SynRetried { attempt }),
        );
        // Karn's rule: once a SYN is retransmitted, a later SYN-ACK is
        // ambiguous — it may answer either transmission — so the RTT
        // sample (and the handshake span it would start) is dropped
        // rather than attributing whole backoff periods to the wire.
        self.syn_ts.remove(ip);
        let isn = self.emit_syn(ip, fx);
        let (sport, dport) = (self.params.sport(0, 0, 0), self.config.protocol.port());
        let syn = tcp::Segment::bare(sport, dport, isn, 0, Flags::SYN, 65535);
        self.obs.emit(now, ip, Event::Wire(true, &syn));
        self.queue_retry(SYN_RETRY_NS, level + 1, ip, now, fx);
    }

    /// The per-session watchdog fired: if the session is somehow still
    /// running, force-conclude it (tarpit/dribbler defense).
    fn watchdog_fire(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        let Some(session) = self.targets.session_mut(ip) else {
            return;
        };
        let out = session.force_conclude(ErrorKind::CollectTimeout);
        self.obs
            .emit(now, ip, Event::Session(SessionEvent::WatchdogForced));
        self.apply_session_output(ip, out, now, fx);
    }

    /// Evict the oldest live session to stay under `max_sessions`.
    fn evict_oldest(&mut self, now: Instant, fx: &mut Effects) {
        while let Some(ip) = self.session_order.pop_front() {
            let Some(session) = self.targets.session_mut(ip) else {
                continue; // stale entry: that session already finished
            };
            let out = session.force_conclude(ErrorKind::CollectTimeout);
            self.obs
                .emit(now, ip, Event::Session(SessionEvent::SessionEvicted));
            self.apply_session_output(ip, out, now, fx);
            return;
        }
    }

    /// Periodic sweep of the SYN-timestamp map: entries past the expiry
    /// belong to hosts that never answered and would otherwise leak.
    fn sweep_rtt(&mut self, now: Instant, fx: &mut Effects) {
        self.syn_ts.retain(|_, t0| now - *t0 < RTT_EXPIRY);
        // Flight-recorder histories of hosts that went silent before
        // reaching a conclusion age out on the same schedule. A target
        // headed for one keeps its history, since a black box must
        // survive until the verdict: a live session, and a handshake that
        // owes a SYN retry or its give-up, which from the fourth retry on
        // waits longer than the expiry. A promoted one is `Handshake`; a
        // classic one is untracked, and while classic retries run every
        // untracked history is one (a probed target's history otherwise
        // leaves at its verdict or give-up, and inbound noise starts
        // none). Without retries nothing gives up on a (promoted) silent
        // `Handshake`, after a drain nothing is owed, and in the discovery
        // phase no untracked target is owed a stateful retry: keeping
        // those histories would keep this sweep armed forever.
        let cutoff = now.as_nanos().saturating_sub(RTT_EXPIRY.as_nanos());
        let retries = self.config.resilience.syn_retries > 0;
        let untracked_owed = self.untracked_owes_retry();
        let targets = &self.targets;
        let keep = |ip| match targets.get(ip) {
            Some(Target::Live(_)) => true,
            Some(Target::Handshake) => retries,
            None => untracked_owed,
            _ => false,
        };
        self.obs.emit(now, 0, Event::Expire(cutoff, &keep));
        if !(self.exhausted && self.syn_ts.is_empty() && self.obs.live_histories() == 0) {
            fx.arm(SWEEP_PERIOD, SWEEP_TOKEN);
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

    fn send_echo(&mut self, ip: u32, total_len: u32, fx: &mut Effects) {
        let payload_len = total_len as usize - ipv4::HEADER_LEN - icmp::HEADER_LEN;
        let msg = icmp::Message::EchoRequest {
            ident: (self.cookie.isn(ip, 0, 0) & 0xffff) as u16,
            seq: 1,
            payload_len,
        };
        let dst = Ipv4Addr::from_u32(ip);
        fx.send(msg.datagram(self.config.source, dst, &mut self.ident, fx.pool()));
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
            // The session lends its request for the length of the emit.
            let payload = if tx.carries_request {
                self.targets
                    .session(ip)
                    .map_or(&[][..], HostSession::request)
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
        if let Some(deadline) = out.deadline {
            if deadline > now
                && self
                    .targets
                    .session_mut(ip)
                    .is_none_or(|session| session.should_arm(deadline))
            {
                fx.arm(deadline - now, u64::from(ip));
            }
        }
        if let Some(result) = out.result {
            // Neither the session's wake-up nor its watchdog can do work
            // any more.
            fx.cancel(u64::from(ip));
            fx.cancel(WATCHDOG_NS | u64::from(ip));
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
            // Lazily compact the eviction deque: normally-concluded
            // sessions leave stale entries behind, and without this the
            // deque grows O(total sessions started) over a long
            // campaign. Compacting only past 2× live (+ slack) keeps the
            // amortized cost O(1) per conclusion.
            if self.config.resilience.max_sessions > 0 && self.session_order.len() > live * 2 + 16 {
                let targets = &self.targets;
                self.session_order
                    .retain(|ip| targets.session(*ip).is_some());
            }
            // A concluded session frees a `max_sessions` slot: pull the
            // next queued responder in (stateless-first mode).
            self.try_drain_promotions(now, fx);
        }
    }

    /// Consume a SYN timestamp: the RTT sample and the handshake span.
    fn consume_syn_ts(&mut self, ip: u32, now: Instant) {
        if let Some(syn_at) = self.syn_ts.remove(ip) {
            self.obs.emit(now, ip, Event::Rtt(syn_at));
        }
    }

    /// Dispatch one inbound segment on its target's state.
    fn on_tcp(&mut self, src: Ipv4Addr, seg: &tcp::Segment<'_>, now: Instant, fx: &mut Effects) {
        let ip = src.to_u32();
        self.obs.emit(now, ip, Event::Wire(false, seg));
        // Stateless-first discovery flows live in their own source-port
        // block, so the destination port alone routes the segment.
        if self.discovery_active() && cookie::discovery_attempt(seg.dst_port).is_some() {
            self.on_discovery_segment(src, seg, now, fx);
            return;
        }
        match self.targets.get(ip) {
            Some(Target::Live(index)) => {
                if let Some(session) = self.targets.session_at(index) {
                    let out = session.on_segment(seg, now);
                    self.apply_session_output(ip, out, now, fx);
                }
            }
            // Outside a session only the flow of the target's first SYN
            // (probe 0, conn 0) carries an answer.
            _ if seg.dst_port != self.params.sport(0, 0, 0) => {}
            None | Some(Target::Handshake) => self.on_answer(src, seg, false, now, fx),
            Some(Target::Concluded) => self.on_answer(src, seg, true, now, fx),
            Some(Target::Queued | Target::Mtu { .. }) => {}
        }
    }

    /// A segment on the flow of the target's first SYN, with no session
    /// open. Only a cookie-valid one (acking the cookie ISN + 1) counts: a
    /// SYN-ACK opens the session (a port scan records the open port), an
    /// RST records the refusal. If the target has its verdict already,
    /// the answer is late — its host retransmitting because ours was
    /// lost: the SYN-ACK is reset, both are counted, neither mints a
    /// second verdict.
    fn on_answer(
        &mut self,
        src: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        concluded: bool,
        now: Instant,
        fx: &mut Effects,
    ) {
        let ip = src.to_u32();
        let (sport, dport) = (self.params.sport(0, 0, 0), self.config.protocol.port());
        if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) {
            if seg.src_port != dport || !self.cookie.validate(ip, sport, dport, seg.ack) {
                return;
            }
            if concluded {
                self.reset(src, seg, now, fx);
                self.obs.metrics.inc(Counter::LateAnswers);
            } else if self.config.protocol == Protocol::PortScan {
                self.open_port(src, seg, now, fx);
            } else if !self.draining {
                // A graceful drain opens no new work.
                self.open_session(src, seg, now, fx);
            }
        } else if seg.flags.contains(Flags::RST) {
            if !self.cookie.validate(ip, sport, dport, seg.ack) {
                // Spoofed or stale: counted, no verdict.
                self.obs.metrics.inc(Counter::RstIgnored);
            } else if concluded {
                self.obs.metrics.inc(Counter::LateAnswers);
            } else {
                self.refusal(ip, now, fx);
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
        self.consume_syn_ts(ip, now);
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
        let cap = self.config.resilience.max_sessions;
        if cap > 0 && self.targets.live() >= cap {
            self.evict_oldest(now, fx);
        }
        self.consume_syn_ts(ip, now);
        for ev in [SessionEvent::SynAckValidated, SessionEvent::SessionStarted] {
            self.obs.emit(now, ip, Event::Session(ev));
        }
        let domain = self.domains.remove(ip);
        let mut session = HostSession::new(src, self.params.clone(), self.cookie, domain, now);
        let mss = session.current_mss();
        self.obs.emit(
            now,
            ip,
            Event::Session(SessionEvent::ProbeStarted { probe: 0, mss }),
        );
        let out = session.on_segment(seg, now);
        // A promoted handshake's slot becomes the session's slot (net
        // occupancy unchanged, so no promotion drain here).
        self.targets.open(ip, session, now);
        if cap > 0 {
            self.session_order.push_back(ip);
        }
        if let Some(deadline) = self.config.resilience.session_deadline {
            fx.arm(deadline, WATCHDOG_NS | u64::from(ip));
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
            verdicts: [
                OutcomeKind::Success,
                OutcomeKind::FewData,
                OutcomeKind::Error,
                OutcomeKind::Unreachable,
            ]
            .map(|k| m.counter_value(outcome_counters(k).1)),
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
            fx.arm(interval, MONITOR_TOKEN);
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
            fx.arm(interval, STREAM_TOKEN);
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
            (Some(Target::Mtu { total }), icmp::Message::FragNeeded { mtu }) => {
                let mtu = u32::from(*mtu);
                if mtu > 0 && mtu < total {
                    self.set_target(ip, Some(Target::Mtu { total: mtu }), now);
                    self.send_echo(ip, mtu, fx);
                }
            }
            (Some(Target::Mtu { total }), icmp::Message::EchoReply { .. }) => {
                self.obs.emit(now, ip, Event::Verdict("mtu", None));
                self.mtu_results.push(MtuResult { ip, mtu: total });
                self.set_target(ip, None, now);
            }
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
            (state @ (None | Some(Target::Handshake)), icmp::Message::DstUnreachable { .. }) => {
                // A promoted handshake is in flight, and so is an
                // untracked source while classic SYN retries run (a
                // silent target keeps no entry). Otherwise an untracked
                // target was probed statefully only if it holds an RTT
                // stamp.
                let in_flight = state.is_some() || self.untracked_owes_retry();
                if self.syn_ts.remove(ip).is_none() && !in_flight {
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
                if in_flight {
                    self.set_target(ip, Some(Target::Concluded), now);
                    self.try_drain_promotions(now, fx);
                }
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
        if token == PACING_TOKEN {
            self.pace(now, fx);
            return;
        }
        if token == MONITOR_TOKEN {
            self.monitor_tick(now, fx);
            return;
        }
        if token == SWEEP_TOKEN {
            self.sweep_rtt(now, fx);
            return;
        }
        if token == STREAM_TOKEN {
            self.stream_tick(now, fx);
            return;
        }
        let ip = token as u32;
        // The namespace sits in bits 32..40; bits 40.. carry the backoff
        // level of the two retry-drain namespaces.
        let ns = token & (0xff << 32);
        match ns >> 32 {
            0 => {
                if let Some(session) = self.targets.session_mut(ip) {
                    let out = session.on_timer(now);
                    self.apply_session_output(ip, out, now, fx);
                }
            }
            1 | 3 => self.drain_retries(ns, (token >> 40) as usize, now, fx),
            2 => self.watchdog_fire(ip, now, fx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_study_defaults() {
        let c = ScanConfig::study(Protocol::Http, 1 << 20, 7);
        assert_eq!(c.rate_pps, 150_000);
        assert_eq!(c.mss_list, vec![64, 128]);
        assert_eq!(c.probes_per_mss, 3);
        assert_eq!(c.shard, (0, 1));
    }

    #[test]
    fn sampling_fraction_filters_deterministically() {
        let mut config = ScanConfig::study(Protocol::Http, 1 << 16, 7);
        config.sample_fraction = 0.25;
        let s = Scanner::new(config);
        let admitted = (0..40_000u32).filter(|ip| s.sample_admits(*ip)).count();
        let frac = admitted as f64 / 40_000.0;
        assert!((0.23..0.27).contains(&frac), "{frac}");
        // Same seed/salt → same subset.
        let s2 = Scanner::new(ScanConfig {
            sample_fraction: 0.25,
            ..ScanConfig::study(Protocol::Http, 1 << 16, 7)
        });
        for ip in 0..1000 {
            assert_eq!(s.sample_admits(ip), s2.sample_admits(ip));
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
            loop {
                // The cursor counts what is left of this shard's slice.
                assert_eq!(s.generator.cursor(), ((want.len() - got.len()) as u64, 0));
                match s.generator.next() {
                    Some((ip, _)) => got.push(ip),
                    None => break,
                }
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
            Scanner::new(c)
        };
        let a = mk(1);
        let b = mk(2);
        let differing = (0..2000u32)
            .filter(|ip| a.sample_admits(*ip) != b.sample_admits(*ip))
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
