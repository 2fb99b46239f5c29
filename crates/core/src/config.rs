//! What a scan is asked to do: targets, protocol, pacing, the resilience
//! budgets and the telemetry switches, and the one check that rejects a
//! configuration which would run but measure nothing.

use crate::blacklist::ScanFilter;
use crate::checkpoint::ConfigDigest;
use crate::results::Protocol;
use crate::session::MAX_PROBES_PER_HOST;
use iw_internet::util::mix;
use iw_netsim::Duration;
use iw_telemetry::JsonValue;
use iw_wire::ipv4::Ipv4Addr;

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
    /// Inert: no scan reads it, and the digest does not carry it. The
    /// scanner has one front-end (DESIGN.md §15); the field stays only
    /// because the benchmark's campaign adapter still sets it.
    #[doc(hidden)]
    pub stateless_first: bool,
    /// Telemetry knobs (RTT tracking, spans, flight recorder, stream,
    /// progress monitor).
    pub telemetry: TelemetryConfig,
    /// Resilience knobs (retries, watchdog, concurrency cap).
    pub resilience: ResilienceConfig,
}

/// Delay before the first SYN retry; doubles per attempt.
pub const SYN_BACKOFF: Duration = Duration::from_secs(1);

/// Delay before the first probe retry connection; doubles per attempt.
pub const PROBE_BACKOFF: Duration = Duration::from_millis(500);

/// The largest SYN or probe retry budget [`ScanConfig::validate`]
/// accepts: the last SYN retry it allows waits [`SYN_BACKOFF`]` << 14`
/// (4.5 h), longer than any campaign runs, and the doubling backoffs and
/// the probe source-port strides stay in range far beyond it.
pub const MAX_RETRIES: u32 = 15;

/// Resilience knobs: retry budgets, the per-session watchdog and the
/// concurrency cap. Everything defaults to off so the baseline scan is
/// byte-identical with and without this layer compiled in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// SYN retransmissions for silent targets (0 = single SYN, ZMap
    /// style), at most [`MAX_RETRIES`]. Retry `k` waits
    /// [`SYN_BACKOFF`]` << k`.
    pub syn_retries: u32,
    /// Per-probe connection retries for `Error`/`Unreachable` outcomes
    /// (0 = record the failure immediately), at most [`MAX_RETRIES`].
    /// Retry `k` waits [`PROBE_BACKOFF`]` << k`.
    pub probe_retries: u32,
    /// Hard per-session deadline: a session still running this long after
    /// its SYN-ACK is force-concluded (tarpit defense). `None` = no watchdog.
    pub session_deadline: Option<Duration>,
    /// Maximum live sessions; above this the oldest session is evicted
    /// (0 = unbounded).
    pub max_sessions: usize,
}

impl ResilienceConfig {
    /// A hardened profile for hostile networks: 2 SYN retries, 2 probe
    /// retries, a 75 s watchdog and a 64 Ki session cap.
    pub fn hardened() -> ResilienceConfig {
        ResilienceConfig {
            syn_retries: 2,
            probe_retries: 2,
            session_deadline: Some(Duration::from_secs(75)),
            max_sessions: 65_536,
        }
    }
}

/// Telemetry knobs for a scan: which products the scan's observer
/// (`observe.rs`) records into. Everything defaults to off: the metrics
/// registry (every count the scan keeps, the session events' included)
/// and the ICMP harvest always run (both are cheap), but the other
/// products cost memory per live host and are opt-in. With `record_rtt`,
/// `record_spans` or both on, a target that has sent only its SYN holds
/// one stamp: an 8-byte table bucket plus its control byte.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Inert: no scan reads it, and the digest does not carry it. Every
    /// session event is a metrics-registry counter, always on; the field
    /// stays only because the benchmark's campaign adapter still sets it.
    #[doc(hidden)]
    pub record_events: bool,
    /// Stamp SYN send times to measure the SYN → SYN-ACK RTT (one stamp
    /// per in-flight target).
    pub record_rtt: bool,
    /// Emit periodic ZMap-style progress lines.
    pub monitor: Option<MonitorSpec>,
    /// Record virtual-time session-phase spans (handshake, probes,
    /// session lifetime) for Chrome-trace export. The handshake span is
    /// timed from the SYN stamp `record_rtt` uses.
    pub record_spans: bool,
    /// List the casualties (targets that conclude in an error, an ICMP
    /// unreachable, no data or a spent SYN budget) and wait out each
    /// silent target's give-up; their black boxes come from a replay
    /// (`ScanRunner::black_boxes`). With `record_rtt` or `record_spans`
    /// on, it also keeps their sweep ticking while a session is live or
    /// a SYN retry is queued (DESIGN.md §11).
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

    /// Whether the scan probes `ip` when its generator yields it: the
    /// filter lets it through and it falls in the sample. The sample
    /// depends only on `(seed, sample_salt, ip)`, never on which shard
    /// asks. The scanner's pacing and the driver's truth tally both ask
    /// here, so the tally counts a host as missed only if it was a target.
    pub fn admits(&self, ip: u32) -> bool {
        if !self.filter.admits(ip) {
            return false;
        }
        if self.sample_fraction >= 1.0 {
            return true;
        }
        let h = mix(&[self.seed, self.sample_salt, u64::from(ip)]);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.sample_fraction
    }

    /// Every knob that shapes the simulation, one named value each, in
    /// file order: the digest a checkpoint records and a resume must
    /// match. A knob that shapes a run is added here, and nowhere else.
    pub fn digest(&self) -> ConfigDigest {
        let (r, t, f) = (&self.resilience, &self.telemetry, &self.filter);
        let nanos = |d: Option<Duration>| JsonValue::from(d.map_or(0, |d| d.as_nanos()));
        let monitor = t.monitor.as_ref().map(|m| m.interval);
        let protocol = match self.protocol {
            Protocol::Http => "http",
            Protocol::Tls => "tls",
            Protocol::PortScan => "portscan",
            Protocol::IcmpMtu => "icmp_mtu",
        };
        let targets = match &self.targets {
            TargetSpec::FullSpace { size } => format!("full:{size}"),
            TargetSpec::List(list) => format!("list:{}", list.len()),
        };
        ConfigDigest::new([
            ("seed", self.seed.into()),
            ("protocol", protocol.into()),
            ("targets", targets.into()),
            ("sample_bits", self.sample_fraction.to_bits().into()),
            ("sample_salt", self.sample_salt.into()),
            ("rate_pps", self.rate_pps.into()),
            ("probes_per_mss", self.probes_per_mss.into()),
            ("mss_list", self.mss_list.as_slice().into()),
            ("source", self.source.to_u32().into()),
            ("whitelist_addrs", f.whitelist.address_count().into()),
            ("blacklist_addrs", f.blacklist.address_count().into()),
            ("verify_exhaustion", self.verify_exhaustion.into()),
            ("record_trace", self.record_trace.into()),
            ("syn_retries", r.syn_retries.into()),
            ("probe_retries", r.probe_retries.into()),
            ("watchdog_nanos", nanos(r.session_deadline)),
            ("max_sessions", (r.max_sessions as u64).into()),
            ("record_rtt", t.record_rtt.into()),
            ("record_spans", t.record_spans.into()),
            ("flight_recorder", t.flight_recorder.into()),
            ("monitor_nanos", nanos(monitor)),
            ("stream_nanos", nanos(t.stream)),
        ])
    }

    /// Reject a configuration that would run but measure nothing (no MSS,
    /// no probes, no rate, an empty sample), outgrow a session's outcome
    /// store (more than [`MAX_PROBES_PER_HOST`] probes per host),
    /// force-conclude healthy sessions (a watchdog below
    /// [`WATCHDOG_FLOOR`]) or overrun the retry schedules (a budget above
    /// [`MAX_RETRIES`]). The fields stay public, so a caller that takes
    /// them from a user checks first.
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
        let probes = self
            .mss_list
            .len()
            .saturating_mul(self.probes_per_mss as usize);
        if probes > MAX_PROBES_PER_HOST {
            return Err(ConfigError::TooManyProbes(probes));
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
        for (knob, retries) in [
            ("syn_retries", r.syn_retries),
            ("probe_retries", r.probe_retries),
        ] {
            if retries > MAX_RETRIES {
                return Err(ConfigError::TooManyRetries(knob, retries));
            }
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
    /// More probes per host (`mss_list.len() × probes_per_mss`, given)
    /// than a session's fixed-size outcome store holds,
    /// [`MAX_PROBES_PER_HOST`].
    TooManyProbes(usize),
    /// A target rate of zero packets/second never sends the first SYN.
    ZeroRate,
    /// `sample_fraction` outside `(0, 1]`.
    SampleFraction(f64),
    /// The watchdog would fire before a single connection attempt can
    /// exhaust its own timeouts (SYN 4 s + collect 10 s + verify 3 s),
    /// force-concluding perfectly healthy sessions.
    WatchdogBelowFloor(Duration),
    /// A retry budget (`syn_retries` or `probe_retries`, named) above
    /// [`MAX_RETRIES`]: past it a retry waits longer than any campaign
    /// runs, and further on the doubling backoff overflows.
    TooManyRetries(&'static str, u32),
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
            ConfigError::TooManyProbes(n) => write!(
                f,
                "mss_list × probes_per_mss = {n} probes per host, above the maximum of \
                 {MAX_PROBES_PER_HOST}"
            ),
            ConfigError::ZeroRate => write!(f, "rate_pps must be at least 1"),
            ConfigError::SampleFraction(v) => {
                write!(f, "sample_fraction {v} outside (0, 1]")
            }
            ConfigError::WatchdogBelowFloor(d) => write!(
                f,
                "session watchdog {d} below the {WATCHDOG_FLOOR} single-attempt floor"
            ),
            ConfigError::TooManyRetries(knob, n) => {
                write!(f, "{knob} {n} above the maximum of {MAX_RETRIES}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blacklist::CidrSet;
    use iw_wire::ipv4::Cidr;

    #[test]
    fn config_study_defaults() {
        let c = ScanConfig::study(Protocol::Http, 1 << 20, 7);
        assert_eq!(c.rate_pps, 150_000);
        assert_eq!(c.mss_list, vec![64, 128]);
        assert_eq!(c.probes_per_mss, 3);
        assert_eq!(c.shard, (0, 1));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn retry_budgets_above_the_maximum_are_rejected() {
        let mut c = ScanConfig::study(Protocol::Http, 1 << 20, 7);
        c.resilience.syn_retries = MAX_RETRIES;
        c.resilience.probe_retries = MAX_RETRIES;
        assert_eq!(c.validate(), Ok(()), "the maximum itself is accepted");
        c.resilience.syn_retries = MAX_RETRIES + 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::TooManyRetries("syn_retries", 16))
        );
        c.resilience.syn_retries = 2;
        c.resilience.probe_retries = u32::MAX;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyRetries("probe_retries", u32::MAX));
        assert_eq!(
            err.to_string(),
            format!("probe_retries {} above the maximum of 15", u32::MAX)
        );
    }

    #[test]
    fn each_knob_is_named_by_the_digest() {
        // One row per digest input: changing that knob alone makes
        // `first_mismatch` name it.
        type Change = fn(&mut ScanConfig);
        let rows: [(&str, Change); 22] = [
            ("seed", |c| c.seed = 1),
            ("protocol", |c| c.protocol = Protocol::Tls),
            ("targets", |c| c.targets = TargetSpec::List(vec![(1, None)])),
            ("sample_bits", |c| c.sample_fraction = 0.5),
            ("sample_salt", |c| c.sample_salt += 1),
            ("rate_pps", |c| c.rate_pps += 1),
            ("probes_per_mss", |c| c.probes_per_mss += 1),
            ("mss_list", |c| c.mss_list.push(536)),
            ("source", |c| c.source = Ipv4Addr::new(10, 0, 0, 2)),
            ("whitelist_addrs", |c| {
                c.filter.whitelist =
                    CidrSet::from_cidrs(&[Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 24)])
            }),
            ("blacklist_addrs", |c| {
                c.filter.blacklist =
                    CidrSet::from_cidrs(&[Cidr::new(Ipv4Addr::new(10, 0, 1, 0), 30)])
            }),
            ("verify_exhaustion", |c| c.verify_exhaustion = false),
            ("record_trace", |c| c.record_trace = true),
            ("syn_retries", |c| c.resilience.syn_retries += 1),
            ("probe_retries", |c| c.resilience.probe_retries += 1),
            ("watchdog_nanos", |c| {
                c.resilience.session_deadline = Some(Duration::from_secs(100))
            }),
            ("max_sessions", |c| c.resilience.max_sessions += 1),
            ("record_rtt", |c| c.telemetry.record_rtt = true),
            ("record_spans", |c| c.telemetry.record_spans = true),
            ("flight_recorder", |c| c.telemetry.flight_recorder = true),
            ("monitor_nanos", |c| {
                c.telemetry.monitor = Some(MonitorSpec::default())
            }),
            ("stream_nanos", |c| {
                c.telemetry.stream = Some(Duration::from_secs(2))
            }),
        ];
        let base = ScanConfig::study(Protocol::Http, 1 << 12, 7);
        let recorded = base.digest();
        let names: Vec<&str> = recorded.0.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            names,
            rows.map(|(name, _)| name),
            "one row per digest field"
        );
        for (name, change) in rows {
            let mut config = base.clone();
            change(&mut config);
            let msg = recorded.first_mismatch(&config.digest()).unwrap();
            assert!(
                msg.starts_with(&format!("config field `{name}`: ")),
                "{msg}"
            );
        }
        // The inert fields shape nothing, and the digest ignores them.
        let mut inert = base.clone();
        inert.stateless_first = true;
        inert.telemetry.record_events = true;
        assert_eq!(recorded.first_mismatch(&inert.digest()), None);
    }
}
