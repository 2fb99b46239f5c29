//! Durable-campaign checkpoints: a versioned, canonical-JSON snapshot of
//! a scan's position that survives crashes and powers `--resume`.
//!
//! # Why replay-validate instead of full state restore
//!
//! A mid-campaign scanner is entangled with the simulation around it:
//! host TCBs, link RNG positions, the timer wheel, packets in flight.
//! Serialising all of that would freeze the whole world format into the
//! checkpoint schema. Instead we exploit the fact that the simulation is
//! *deterministic in virtual time*: a resumed run replays from event 0
//! (cheap — hundreds of thousands of hosts per virtual second) and uses
//! the checkpoint as a **validation barrier**. When the replay reaches
//! the recorded event count, its observable scanner state — permutation
//! cursor, pending-retry set, live-session set, counters, sink record
//! count — must match the checkpoint byte-for-byte, or the resume fails
//! cleanly as diverged. Matching state at the barrier plus determinism
//! afterwards makes the resumed tail *identical* to the uninterrupted
//! run, so results, metrics and stream output are byte-equal — the crash
//! matrix in `tests/crash_matrix.rs` proves exactly that. RNG stream
//! positions are implicit: they are pure functions of (seed, events
//! replayed), which the barrier pins.
//!
//! # Schema stability
//!
//! The file is the canonical-JSON dialect of [`iw_telemetry::json`]
//! (sorted construction order, integers only) with an explicit `kind`
//! and `version` header. Unknown versions and corrupted bytes are
//! rejected with a typed [`CheckpointError`], never a panic.

use crate::config::{ScanConfig, TargetSpec};
use crate::results::Protocol;
use iw_telemetry::json::{push_bool_field, push_key, push_str_literal, push_u64_field};
use iw_telemetry::{parse_json, JsonValue};
use std::fmt;
use std::fmt::Write as _;

/// Current checkpoint schema version. The barrier is phrased in event
/// counts and captured state, so the version moves when a build
/// renumbers events or reshapes the capture: 2 = retry FIFOs (hardened
/// campaigns process far fewer events than under version 1); 3 = one
/// target table (`pending` lists every handshake, promoted ones without
/// SYN retries included, and `scan.late_answers` joins the counters);
/// 4 = keyed timers (a timer that can no longer do work is cancelled
/// instead of firing, so every run processes fewer events); 5 = the
/// SYN and probe backoffs are constants, and the config digest no
/// longer carries them. Older files are refused by name instead of being
/// replayed into a `Diverged` barrier.
pub const CHECKPOINT_VERSION: u64 = 5;

/// The `kind` discriminator in the file header.
pub const CHECKPOINT_KIND: &str = "iwscan-campaign-checkpoint";

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes are not the emitter's JSON dialect.
    Malformed(String),
    /// Parsed, but the schema version is not one we write.
    UnknownVersion(u64),
    /// Parsed, but the `kind` header names a different artifact.
    WrongKind(String),
    /// A required field is missing or has the wrong shape.
    MissingField(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(detail) => write!(f, "malformed checkpoint: {detail}"),
            CheckpointError::UnknownVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::WrongKind(kind) => {
                write!(f, "not a campaign checkpoint (kind {kind:?})")
            }
            CheckpointError::MissingField(field) => {
                write!(f, "checkpoint field {field:?} missing or wrong type")
            }
        }
    }
}

/// How a driver run ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RunDisposition {
    /// Ran to natural completion.
    #[default]
    Completed,
    /// Stopped by the crash-injection hook after this many events on the
    /// killed shard.
    Killed {
        /// Events the killed shard had processed.
        events: u64,
    },
    /// Stopped by the graceful-shutdown deadline: in-flight sessions were
    /// drained and a final checkpoint captured.
    Aborted,
    /// A resume barrier did not match the replayed state — the
    /// checkpoint belongs to a different run or was corrupted in a way
    /// that still parses.
    Diverged {
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl RunDisposition {
    /// Merge precedence across shards: any divergence poisons the run,
    /// then a kill, then an abort, then completion.
    pub fn merge(self, other: RunDisposition) -> RunDisposition {
        fn rank(d: &RunDisposition) -> u32 {
            match d {
                RunDisposition::Diverged { .. } => 3,
                RunDisposition::Killed { .. } => 2,
                RunDisposition::Aborted => 1,
                RunDisposition::Completed => 0,
            }
        }
        if rank(&other) > rank(&self) {
            other
        } else {
            self
        }
    }
}

/// A digest of every configuration field that shapes the simulation.
///
/// Resuming under a different configuration would replay a *different*
/// campaign, so the digest is compared verbatim before any replay work
/// starts. Fields are stored individually (not hashed) so a mismatch can
/// be reported legibly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigDigest {
    /// Permutation / cookie / probe seed.
    pub seed: u64,
    /// Protocol module name (`http`, `tls`, `portscan`, `icmp_mtu`).
    pub protocol: String,
    /// Target spec summary: `full:<size>` or `list:<len>`.
    pub targets: String,
    /// `sample_fraction` as IEEE-754 bits (exact, no float formatting).
    pub sample_bits: u64,
    /// Sampling salt.
    pub sample_salt: u64,
    /// Token-bucket rate (packets/second).
    pub rate_pps: u64,
    /// Probes per announced MSS.
    pub probes_per_mss: u32,
    /// Announced MSS values in run order.
    pub mss_list: Vec<u16>,
    /// Scanner source address.
    pub source: u32,
    /// Addresses covered by the whitelist.
    pub whitelist_addrs: u64,
    /// Addresses covered by the blacklist.
    pub blacklist_addrs: u64,
    /// Exhaustion-verification knob.
    pub verify_exhaustion: bool,
    /// Wire-trace recording knob.
    pub record_trace: bool,
    /// Stateless-first hybrid discovery knob.
    pub stateless_first: bool,
    /// SYN retry budget.
    pub syn_retries: u32,
    /// Probe retry budget.
    pub probe_retries: u32,
    /// Session watchdog in nanoseconds (0 = off).
    pub watchdog_nanos: u64,
    /// Live-session cap (0 = unbounded).
    pub max_sessions: u64,
    /// Event-log knob.
    pub record_events: bool,
    /// RTT-tracking knob.
    pub record_rtt: bool,
    /// Span-recording knob.
    pub record_spans: bool,
    /// Flight-recorder knob.
    pub flight_recorder: bool,
    /// Progress-monitor interval in nanoseconds (0 = off).
    pub monitor_nanos: u64,
    /// Streaming-telemetry interval in nanoseconds (0 = off).
    pub stream_nanos: u64,
}

impl ConfigDigest {
    /// Capture the digest of a scan configuration.
    pub fn from_config(config: &ScanConfig) -> ConfigDigest {
        let protocol = match config.protocol {
            Protocol::Http => "http",
            Protocol::Tls => "tls",
            Protocol::PortScan => "portscan",
            Protocol::IcmpMtu => "icmp_mtu",
        };
        let targets = match &config.targets {
            TargetSpec::FullSpace { size } => format!("full:{size}"),
            TargetSpec::List(list) => format!("list:{}", list.len()),
        };
        ConfigDigest {
            seed: config.seed,
            protocol: protocol.to_string(),
            targets,
            sample_bits: config.sample_fraction.to_bits(),
            sample_salt: config.sample_salt,
            rate_pps: config.rate_pps,
            probes_per_mss: config.probes_per_mss,
            mss_list: config.mss_list.clone(),
            source: config.source.to_u32(),
            whitelist_addrs: config.filter.whitelist.address_count(),
            blacklist_addrs: config.filter.blacklist.address_count(),
            verify_exhaustion: config.verify_exhaustion,
            record_trace: config.record_trace,
            stateless_first: config.stateless_first,
            syn_retries: config.resilience.syn_retries,
            probe_retries: config.resilience.probe_retries,
            watchdog_nanos: config
                .resilience
                .session_deadline
                .map_or(0, |d| d.as_nanos()),
            max_sessions: config.resilience.max_sessions as u64,
            record_events: config.telemetry.record_events,
            record_rtt: config.telemetry.record_rtt,
            record_spans: config.telemetry.record_spans,
            flight_recorder: config.telemetry.flight_recorder,
            monitor_nanos: config
                .telemetry
                .monitor
                .as_ref()
                .map_or(0, |m| m.interval.as_nanos()),
            stream_nanos: config.telemetry.stream.map_or(0, |d| d.as_nanos()),
        }
    }

    fn emit(&self, out: &mut String) {
        out.push('{');
        push_u64_field(out, "seed", self.seed);
        out.push(',');
        push_key(out, "protocol");
        push_str_literal(out, &self.protocol);
        out.push(',');
        push_key(out, "targets");
        push_str_literal(out, &self.targets);
        out.push(',');
        push_u64_field(out, "sample_bits", self.sample_bits);
        out.push(',');
        push_u64_field(out, "sample_salt", self.sample_salt);
        out.push(',');
        push_u64_field(out, "rate_pps", self.rate_pps);
        out.push(',');
        push_u64_field(out, "probes_per_mss", u64::from(self.probes_per_mss));
        out.push(',');
        push_key(out, "mss_list");
        out.push('[');
        for (i, mss) in self.mss_list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{mss}");
        }
        out.push(']');
        out.push(',');
        push_u64_field(out, "source", u64::from(self.source));
        out.push(',');
        push_u64_field(out, "whitelist_addrs", self.whitelist_addrs);
        out.push(',');
        push_u64_field(out, "blacklist_addrs", self.blacklist_addrs);
        out.push(',');
        push_bool_field(out, "verify_exhaustion", self.verify_exhaustion);
        out.push(',');
        push_bool_field(out, "record_trace", self.record_trace);
        out.push(',');
        push_bool_field(out, "stateless_first", self.stateless_first);
        out.push(',');
        push_u64_field(out, "syn_retries", u64::from(self.syn_retries));
        out.push(',');
        push_u64_field(out, "probe_retries", u64::from(self.probe_retries));
        out.push(',');
        push_u64_field(out, "watchdog_nanos", self.watchdog_nanos);
        out.push(',');
        push_u64_field(out, "max_sessions", self.max_sessions);
        out.push(',');
        push_bool_field(out, "record_events", self.record_events);
        out.push(',');
        push_bool_field(out, "record_rtt", self.record_rtt);
        out.push(',');
        push_bool_field(out, "record_spans", self.record_spans);
        out.push(',');
        push_bool_field(out, "flight_recorder", self.flight_recorder);
        out.push(',');
        push_u64_field(out, "monitor_nanos", self.monitor_nanos);
        out.push(',');
        push_u64_field(out, "stream_nanos", self.stream_nanos);
        out.push('}');
    }

    fn from_value(value: &JsonValue) -> Result<ConfigDigest, CheckpointError> {
        let mss_list = req_arr(value, "mss_list")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u16::try_from(n).ok())
                    .ok_or_else(|| CheckpointError::MissingField("mss_list".to_string()))
            })
            .collect::<Result<Vec<u16>, CheckpointError>>()?;
        Ok(ConfigDigest {
            seed: req_u64(value, "seed")?,
            protocol: req_str(value, "protocol")?,
            targets: req_str(value, "targets")?,
            sample_bits: req_u64(value, "sample_bits")?,
            sample_salt: req_u64(value, "sample_salt")?,
            rate_pps: req_u64(value, "rate_pps")?,
            probes_per_mss: req_u32(value, "probes_per_mss")?,
            mss_list,
            source: req_u32(value, "source")?,
            whitelist_addrs: req_u64(value, "whitelist_addrs")?,
            blacklist_addrs: req_u64(value, "blacklist_addrs")?,
            verify_exhaustion: req_bool(value, "verify_exhaustion")?,
            record_trace: req_bool(value, "record_trace")?,
            stateless_first: req_bool(value, "stateless_first")?,
            syn_retries: req_u32(value, "syn_retries")?,
            probe_retries: req_u32(value, "probe_retries")?,
            watchdog_nanos: req_u64(value, "watchdog_nanos")?,
            max_sessions: req_u64(value, "max_sessions")?,
            record_events: req_bool(value, "record_events")?,
            record_rtt: req_bool(value, "record_rtt")?,
            record_spans: req_bool(value, "record_spans")?,
            flight_recorder: req_bool(value, "flight_recorder")?,
            monitor_nanos: req_u64(value, "monitor_nanos")?,
            stream_nanos: req_u64(value, "stream_nanos")?,
        })
    }

    /// Describe the first field that differs from `other`, if any.
    pub fn first_mismatch(&self, other: &ConfigDigest) -> Option<String> {
        if self == other {
            return None;
        }
        macro_rules! check {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some(format!(
                        "config field `{}`: checkpoint {:?} vs current {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        check!(seed);
        check!(protocol);
        check!(targets);
        check!(sample_bits);
        check!(sample_salt);
        check!(rate_pps);
        check!(probes_per_mss);
        check!(mss_list);
        check!(source);
        check!(whitelist_addrs);
        check!(blacklist_addrs);
        check!(verify_exhaustion);
        check!(record_trace);
        check!(stateless_first);
        check!(syn_retries);
        check!(probe_retries);
        check!(watchdog_nanos);
        check!(max_sessions);
        check!(record_events);
        check!(record_rtt);
        check!(record_spans);
        check!(flight_recorder);
        check!(monitor_nanos);
        check!(stream_nanos);
        Some("config digests differ".to_string())
    }
}

/// One shard's observable scanner state at a recorded event count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: u32,
    /// Simulation events this shard had processed at capture time.
    pub events: u64,
    /// Virtual time at capture, in nanoseconds.
    pub at_nanos: u64,
    /// Permutation cursor: the next group element
    /// ([`crate::permutation::ShardIter::cursor`]), or the list index for
    /// explicit target lists.
    pub cursor_next: u64,
    /// Permutation cursor: elements consumed so far.
    pub cursor_produced: u64,
    /// Whether target generation had finished.
    pub exhausted: bool,
    /// SYNs sent (admitted targets actually probed).
    pub targets_sent: u64,
    /// Targets awaiting their SYN-ACK (`Handshake`) as sorted
    /// `(ip, retries_used)` pairs.
    pub pending: Vec<(u32, u32)>,
    /// Live session and path-MTU probe addresses, sorted.
    pub sessions: Vec<u32>,
    /// Responders queued for promotion to a stateful session
    /// (stateless-first mode), in queue order — promotion is FIFO, so
    /// the order is part of the observable state, not a set.
    pub promotions: Vec<u32>,
    /// Host results recorded so far.
    pub results_recorded: u64,
    /// Streaming-telemetry records emitted so far.
    pub stream_records: u64,
    /// All counter values (both scopes), sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl ShardCheckpoint {
    /// Canonical JSON for this shard (also the barrier-equality token:
    /// two captures match iff these bytes match).
    pub fn canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.emit(&mut out);
        out
    }

    fn emit(&self, out: &mut String) {
        out.push('{');
        push_u64_field(out, "shard", u64::from(self.shard));
        out.push(',');
        push_u64_field(out, "events", self.events);
        out.push(',');
        push_u64_field(out, "at_nanos", self.at_nanos);
        out.push(',');
        push_u64_field(out, "cursor_next", self.cursor_next);
        out.push(',');
        push_u64_field(out, "cursor_produced", self.cursor_produced);
        out.push(',');
        push_bool_field(out, "exhausted", self.exhausted);
        out.push(',');
        push_u64_field(out, "targets_sent", self.targets_sent);
        out.push(',');
        push_key(out, "pending");
        out.push('[');
        for (i, (ip, retries)) in self.pending.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ip},{retries}]");
        }
        out.push(']');
        out.push(',');
        push_key(out, "sessions");
        out.push('[');
        for (i, ip) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ip}");
        }
        out.push(']');
        out.push(',');
        push_key(out, "promotions");
        out.push('[');
        for (i, ip) in self.promotions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ip}");
        }
        out.push(']');
        out.push(',');
        push_u64_field(out, "results_recorded", self.results_recorded);
        out.push(',');
        push_u64_field(out, "stream_records", self.stream_records);
        out.push(',');
        push_key(out, "counters");
        out.push('{');
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64_field(out, name, *value);
        }
        out.push('}');
        out.push('}');
    }

    fn from_value(value: &JsonValue) -> Result<ShardCheckpoint, CheckpointError> {
        let pending = req_arr(value, "pending")?
            .iter()
            .map(|pair| {
                let items = pair.as_arr().unwrap_or(&[]);
                match items {
                    [ip, retries] => match (ip.as_u64(), retries.as_u64()) {
                        (Some(ip), Some(retries)) => {
                            match (u32::try_from(ip), u32::try_from(retries)) {
                                (Ok(ip), Ok(retries)) => Ok((ip, retries)),
                                _ => Err(CheckpointError::MissingField("pending".to_string())),
                            }
                        }
                        _ => Err(CheckpointError::MissingField("pending".to_string())),
                    },
                    _ => Err(CheckpointError::MissingField("pending".to_string())),
                }
            })
            .collect::<Result<Vec<(u32, u32)>, CheckpointError>>()?;
        let sessions = req_arr(value, "sessions")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| CheckpointError::MissingField("sessions".to_string()))
            })
            .collect::<Result<Vec<u32>, CheckpointError>>()?;
        let promotions = req_arr(value, "promotions")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| CheckpointError::MissingField("promotions".to_string()))
            })
            .collect::<Result<Vec<u32>, CheckpointError>>()?;
        let counters = value
            .get("counters")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| CheckpointError::MissingField("counters".to_string()))?
            .iter()
            .map(|(name, v)| {
                v.as_u64()
                    .map(|n| (name.clone(), n))
                    .ok_or_else(|| CheckpointError::MissingField("counters".to_string()))
            })
            .collect::<Result<Vec<(String, u64)>, CheckpointError>>()?;
        Ok(ShardCheckpoint {
            shard: req_u32(value, "shard")?,
            events: req_u64(value, "events")?,
            at_nanos: req_u64(value, "at_nanos")?,
            cursor_next: req_u64(value, "cursor_next")?,
            cursor_produced: req_u64(value, "cursor_produced")?,
            exhausted: req_bool(value, "exhausted")?,
            targets_sent: req_u64(value, "targets_sent")?,
            pending,
            sessions,
            promotions,
            results_recorded: req_u64(value, "results_recorded")?,
            stream_records: req_u64(value, "stream_records")?,
            counters,
        })
    }
}

/// The whole campaign's durable state: header, config digest, per-shard
/// snapshots and free-form CLI context (`extra`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Shard/thread count the campaign runs with.
    pub threads: u32,
    /// Periodic checkpoint interval in virtual nanoseconds (0 = final /
    /// kill capture only). A resumed run inherits this so its periodic
    /// captures land on identical virtual-time boundaries.
    pub checkpoint_every_nanos: u64,
    /// Digest of the simulation-shaping configuration.
    pub config: ConfigDigest,
    /// CLI-level context (command, scale, loss…), sorted by key.
    pub extra: Vec<(String, String)>,
    /// Per-shard snapshots, sorted by shard index.
    pub shards: Vec<ShardCheckpoint>,
}

impl CampaignCheckpoint {
    /// Serialise to canonical bytes (the exact file format).
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_key(&mut out, "kind");
        push_str_literal(&mut out, CHECKPOINT_KIND);
        out.push(',');
        push_u64_field(&mut out, "version", self.version);
        out.push(',');
        push_u64_field(&mut out, "threads", u64::from(self.threads));
        out.push(',');
        push_u64_field(
            &mut out,
            "checkpoint_every_nanos",
            self.checkpoint_every_nanos,
        );
        out.push(',');
        push_key(&mut out, "config");
        self.config.emit(&mut out);
        out.push(',');
        push_key(&mut out, "extra");
        out.push('{');
        let mut extra: Vec<&(String, String)> = self.extra.iter().collect();
        extra.sort();
        for (i, (key, value)) in extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, key);
            push_str_literal(&mut out, value);
        }
        out.push('}');
        out.push(',');
        push_key(&mut out, "shards");
        out.push('[');
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            shard.emit(&mut out);
        }
        out.push(']');
        out.push('}');
        out.push('\n');
        out
    }

    /// Parse checkpoint bytes, rejecting unknown versions, foreign kinds
    /// and malformed JSON with a typed error (never a panic).
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, CheckpointError> {
        let value = parse_json(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("<missing>");
        if kind != CHECKPOINT_KIND {
            return Err(CheckpointError::WrongKind(kind.to_string()));
        }
        let version = req_u64(&value, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnknownVersion(version));
        }
        let config = ConfigDigest::from_value(
            value
                .get("config")
                .ok_or_else(|| CheckpointError::MissingField("config".to_string()))?,
        )?;
        let extra = value
            .get("extra")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| CheckpointError::MissingField("extra".to_string()))?
            .iter()
            .map(|(key, v)| {
                v.as_str()
                    .map(|s| (key.clone(), s.to_string()))
                    .ok_or_else(|| CheckpointError::MissingField("extra".to_string()))
            })
            .collect::<Result<Vec<(String, String)>, CheckpointError>>()?;
        let mut shards = req_arr(&value, "shards")?
            .iter()
            .map(ShardCheckpoint::from_value)
            .collect::<Result<Vec<ShardCheckpoint>, CheckpointError>>()?;
        shards.sort_by_key(|s| s.shard);
        Ok(CampaignCheckpoint {
            version,
            threads: req_u32(&value, "threads")?,
            checkpoint_every_nanos: req_u64(&value, "checkpoint_every_nanos")?,
            config,
            extra,
            shards,
        })
    }

    /// The snapshot for shard `index`, if present.
    pub fn shard(&self, index: u32) -> Option<&ShardCheckpoint> {
        self.shards.iter().find(|s| s.shard == index)
    }
}

fn req_u64(value: &JsonValue, key: &str) -> Result<u64, CheckpointError> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

fn req_u32(value: &JsonValue, key: &str) -> Result<u32, CheckpointError> {
    req_u64(value, key)?
        .try_into()
        .map_err(|_| CheckpointError::MissingField(key.to_string()))
}

fn req_str(value: &JsonValue, key: &str) -> Result<String, CheckpointError> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

fn req_bool(value: &JsonValue, key: &str) -> Result<bool, CheckpointError> {
    value
        .get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

fn req_arr<'v>(value: &'v JsonValue, key: &str) -> Result<&'v [JsonValue], CheckpointError> {
    value
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScanConfig, TargetSpec, TelemetryConfig};
    use crate::ResilienceConfig;
    use iw_wire::ipv4::Ipv4Addr;

    fn sample_config() -> ScanConfig {
        ScanConfig {
            seed: 0xfeed,
            protocol: Protocol::Http,
            rate_pps: 100_000,
            targets: TargetSpec::FullSpace { size: 1 << 12 },
            filter: Default::default(),
            sample_fraction: 1.0,
            sample_salt: 7,
            shard: (0, 1),
            probes_per_mss: 2,
            mss_list: vec![64, 1460],
            source: Ipv4Addr::new(10, 0, 0, 1),
            verify_exhaustion: true,
            record_trace: false,
            stateless_first: false,
            telemetry: TelemetryConfig::default(),
            resilience: ResilienceConfig::hardened(),
        }
    }

    fn sample_checkpoint() -> CampaignCheckpoint {
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            threads: 2,
            checkpoint_every_nanos: 5_000_000_000,
            config: ConfigDigest::from_config(&sample_config()),
            extra: vec![
                ("scale".to_string(), "small".to_string()),
                ("command".to_string(), "scan".to_string()),
            ],
            shards: vec![
                ShardCheckpoint {
                    shard: 0,
                    events: 4242,
                    at_nanos: 17_000_000,
                    cursor_next: 99,
                    cursor_produced: 1234,
                    exhausted: false,
                    targets_sent: 1200,
                    pending: vec![(167772161, 1), (167772170, 0)],
                    sessions: vec![167772162, 167772163],
                    promotions: vec![167772165, 167772164],
                    results_recorded: 1100,
                    stream_records: 3,
                    counters: vec![
                        ("scan.checkpoint.taken".to_string(), 3),
                        ("scan.targets.sent".to_string(), 1200),
                    ],
                },
                ShardCheckpoint {
                    shard: 1,
                    events: 4100,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let ckpt = sample_checkpoint();
        let json = ckpt.to_canonical_json();
        let parsed = CampaignCheckpoint::parse(&json).unwrap();
        assert_eq!(
            parsed.to_canonical_json(),
            json,
            "re-serialise must be byte-identical"
        );
        // Field-level equality modulo extra-key canonicalisation.
        assert_eq!(parsed.threads, ckpt.threads);
        assert_eq!(parsed.config, ckpt.config);
        assert_eq!(parsed.shards, ckpt.shards);
    }

    #[test]
    fn unknown_version_rejected() {
        let mut ckpt = sample_checkpoint();
        ckpt.version = CHECKPOINT_VERSION + 1;
        let json = ckpt.to_canonical_json();
        assert_eq!(
            CampaignCheckpoint::parse(&json).unwrap_err(),
            CheckpointError::UnknownVersion(CHECKPOINT_VERSION + 1)
        );
        // Files from before the retry FIFOs (1), the one target table (2),
        // keyed timers (3) or the constant backoffs (4) capture different
        // events or state: refused cleanly, never replayed to a divergence.
        for old in [1, 2, 3, 4] {
            ckpt.version = old;
            assert_eq!(
                CampaignCheckpoint::parse(&ckpt.to_canonical_json()).unwrap_err(),
                CheckpointError::UnknownVersion(old)
            );
        }
    }

    #[test]
    fn foreign_kind_rejected() {
        let err = CampaignCheckpoint::parse(r#"{"kind":"metrics","version":1}"#).unwrap_err();
        assert_eq!(err, CheckpointError::WrongKind("metrics".to_string()));
        let err = CampaignCheckpoint::parse(r#"{"version":1}"#).unwrap_err();
        assert_eq!(err, CheckpointError::WrongKind("<missing>".to_string()));
    }

    #[test]
    fn corrupted_bytes_rejected_cleanly() {
        let json = sample_checkpoint().to_canonical_json();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..json.len() - 1 {
            assert!(
                CampaignCheckpoint::parse(&json[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Flipping a structural byte must error too.
        let garbled = json.replace("\"shards\":[", "\"shards\":{");
        assert!(CampaignCheckpoint::parse(&garbled).is_err());
    }

    #[test]
    fn missing_fields_are_named() {
        let json = sample_checkpoint()
            .to_canonical_json()
            .replace("\"rate_pps\":100000,", "");
        assert_eq!(
            CampaignCheckpoint::parse(&json).unwrap_err(),
            CheckpointError::MissingField("rate_pps".to_string())
        );
    }

    #[test]
    fn digest_mismatch_is_legible() {
        let a = ConfigDigest::from_config(&sample_config());
        let mut altered = sample_config();
        altered.seed = 1;
        let b = ConfigDigest::from_config(&altered);
        assert!(a.first_mismatch(&a.clone()).is_none());
        let msg = a.first_mismatch(&b).unwrap();
        assert!(msg.contains("seed"), "{msg}");
    }

    #[test]
    fn disposition_merge_precedence() {
        use RunDisposition::*;
        assert_eq!(Completed.merge(Aborted), Aborted);
        assert_eq!(Killed { events: 5 }.merge(Aborted), Killed { events: 5 });
        assert_eq!(
            Aborted.merge(Diverged { detail: "x".into() }),
            Diverged { detail: "x".into() }
        );
        assert_eq!(Completed.merge(Completed), Completed);
    }

    #[test]
    fn shard_lookup_and_barrier_token() {
        let ckpt = sample_checkpoint();
        assert_eq!(ckpt.shard(1).unwrap().events, 4100);
        assert!(ckpt.shard(9).is_none());
        let a = ckpt.shards[0].canonical_json();
        let mut tweaked = ckpt.shards[0].clone();
        tweaked.cursor_next += 1;
        assert_ne!(a, tweaked.canonical_json());
        assert_eq!(a, ckpt.shards[0].clone().canonical_json());
        // Promotion is FIFO, so queue *order* is observable state: the
        // same set in a different order is a different barrier token.
        let mut reordered = ckpt.shards[0].clone();
        reordered.promotions.reverse();
        assert_ne!(a, reordered.canonical_json());
    }
}
