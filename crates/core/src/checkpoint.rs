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
//! rejected with a typed [`CheckpointError`], never a panic. The config
//! digest is declared once, as named values beside the configuration
//! ([`crate::config::ScanConfig::digest`]); the codec loops over them.

use iw_telemetry::json::{push_array, push_str_literal, push_u64_field, push_value};
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
/// longer carries them; 6 = a promoted handshake without SYN retries
/// gives up (discovery-sweep runs without SYN retries process its
/// give-up timer and count its `GaveUp`); 7 = the `scan.invariant.*`
/// counters; 8 = one front-end: the promotion queue and the
/// `scan.discovery.*` counters are gone, `scan.synack.*` counts rejected
/// SYN-ACKs, and a silent target waits for its give-up only with the
/// flight recorder on (so `pending` no longer lists spent budgets, and
/// hardened runs process fewer events); 9 = one count: the event log is
/// gone, and each capture carries four more counters
/// (`scan.probes.started`, `scan.probes.follow_ups`,
/// `scan.icmp.echo_replies`, `scan.icmp.other`), and the config digest
/// drops the inert event-log switch. Older files are refused by name
/// instead of being replayed into a `Diverged` barrier.
pub const CHECKPOINT_VERSION: u64 = 9;

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
    /// Drained, but a `scan.invariant.*` counter is not zero
    /// ([`crate::ScanTelemetry::violations`] names it).
    Violated,
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
    /// then a violation, then a kill, then an abort, then completion.
    pub fn merge(self, other: RunDisposition) -> RunDisposition {
        fn rank(d: &RunDisposition) -> u32 {
            match d {
                RunDisposition::Diverged { .. } => 4,
                RunDisposition::Violated => 3,
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

/// A digest of every configuration field that shapes the simulation:
/// named values in the order [`crate::config::ScanConfig::digest`] lists
/// them, written to the file as one JSON object.
///
/// Resuming under a different configuration would replay a *different*
/// campaign, so the digest is compared verbatim before any replay work
/// starts. Fields are stored individually (not hashed) so a mismatch can
/// be reported legibly; a field missing from the file, or one this build
/// does not know, is a mismatch like any other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigDigest(pub(crate) Vec<(String, JsonValue)>);

impl ConfigDigest {
    /// A digest of these named values, in this order.
    pub(crate) fn new<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> ConfigDigest {
        ConfigDigest(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Describe the first field that differs from `current`, is missing
    /// from one side or is extra on it, with both values as JSON.
    pub fn first_mismatch(&self, current: &ConfigDigest) -> Option<String> {
        let render = |value: Option<&JsonValue>| {
            let mut out = String::new();
            match value {
                Some(value) => push_value(&mut out, value),
                None => out.push_str("(missing)"),
            }
            out
        };
        let keys = current.0.iter().chain(&self.0).map(|(key, _)| key);
        let (key, recorded, now) = keys
            .map(|key| (key, self.get(key), current.get(key)))
            .find(|(_, recorded, now)| recorded != now)?;
        Some(format!(
            "config field `{key}`: checkpoint {} vs current {}",
            render(recorded),
            render(now)
        ))
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
    /// Silent targets still owed a SYN retry (or, with the flight
    /// recorder on, their give-up) as sorted `(ip, retries_used)` pairs.
    pub pending: Vec<(u32, u32)>,
    /// Live session and path-MTU probe addresses, sorted.
    pub sessions: Vec<u32>,
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
        let _ = write!(
            out,
            "{{\"shard\":{},\"events\":{},\"at_nanos\":{},\"cursor_next\":{},\
             \"cursor_produced\":{},\"exhausted\":{},\"targets_sent\":{},\"pending\":",
            self.shard,
            self.events,
            self.at_nanos,
            self.cursor_next,
            self.cursor_produced,
            self.exhausted,
            self.targets_sent
        );
        push_array(out, &self.pending, |(ip, retries), out| {
            let _ = write!(out, "[{ip},{retries}]");
        });
        let push_ip = |ip: &u32, out: &mut String| {
            let _ = write!(out, "{ip}");
        };
        out.push_str(",\"sessions\":");
        push_array(out, &self.sessions, push_ip);
        let _ = write!(
            out,
            ",\"results_recorded\":{},\"stream_records\":{},\"counters\":{{",
            self.results_recorded, self.stream_records
        );
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64_field(out, name, *value);
        }
        out.push_str("}}");
    }

    fn from_value(value: &JsonValue) -> Result<ShardCheckpoint, CheckpointError> {
        let pair = |item: &JsonValue| match item.as_arr()? {
            [ip, retries] => Some((as_u32(ip)?, as_u32(retries)?)),
            _ => None,
        };
        let counter = |(name, n): &(String, JsonValue)| Some((name.clone(), n.as_u64()?));
        Ok(ShardCheckpoint {
            shard: req(value, "shard", as_u32)?,
            events: req(value, "events", JsonValue::as_u64)?,
            at_nanos: req(value, "at_nanos", JsonValue::as_u64)?,
            cursor_next: req(value, "cursor_next", JsonValue::as_u64)?,
            cursor_produced: req(value, "cursor_produced", JsonValue::as_u64)?,
            exhausted: req(value, "exhausted", JsonValue::as_bool)?,
            targets_sent: req(value, "targets_sent", JsonValue::as_u64)?,
            pending: req(value, "pending", list(pair))?,
            sessions: req(value, "sessions", list(as_u32))?,
            results_recorded: req(value, "results_recorded", JsonValue::as_u64)?,
            stream_records: req(value, "stream_records", JsonValue::as_u64)?,
            counters: req(value, "counters", |v| {
                v.as_obj()?.iter().map(counter).collect()
            })?,
        })
    }
}

/// The whole campaign's durable state: header, config digest, per-shard
/// snapshots and free-form CLI context (`extra`). The file's `version`
/// is always [`CHECKPOINT_VERSION`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
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
        out.push_str("{\"kind\":");
        push_str_literal(&mut out, CHECKPOINT_KIND);
        let _ = write!(
            out,
            ",\"version\":{CHECKPOINT_VERSION},\"threads\":{},\"checkpoint_every_nanos\":{},\
             \"config\":",
            self.threads, self.checkpoint_every_nanos
        );
        push_value(&mut out, &JsonValue::Obj(self.config.0.clone()));
        let mut extra = self.extra.clone();
        extra.sort();
        let extra = extra.into_iter().map(|(key, value)| (key, value.into()));
        out.push_str(",\"extra\":");
        push_value(&mut out, &JsonValue::Obj(extra.collect()));
        out.push_str(",\"shards\":");
        push_array(&mut out, &self.shards, |shard, out| shard.emit(out));
        out.push_str("}\n");
        out
    }

    /// Parse checkpoint bytes, rejecting unknown versions, foreign kinds
    /// and malformed JSON with a typed error (never a panic). The config
    /// digest is taken as written: whether it names every field this
    /// build records is for [`ConfigDigest::first_mismatch`] to say.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, CheckpointError> {
        let value = parse_json(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("<missing>");
        if kind != CHECKPOINT_KIND {
            return Err(CheckpointError::WrongKind(kind.to_string()));
        }
        let version = req(&value, "version", JsonValue::as_u64)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnknownVersion(version));
        }
        let context = |(key, v): &(String, JsonValue)| Some((key.clone(), v.as_str()?.to_string()));
        let mut shards = (req(&value, "shards", JsonValue::as_arr)?.iter())
            .map(ShardCheckpoint::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        shards.sort_by_key(|s| s.shard);
        Ok(CampaignCheckpoint {
            threads: req(&value, "threads", as_u32)?,
            checkpoint_every_nanos: req(&value, "checkpoint_every_nanos", JsonValue::as_u64)?,
            config: ConfigDigest(req(&value, "config", |v| v.as_obj().map(<[_]>::to_vec))?),
            extra: req(&value, "extra", |v| {
                v.as_obj()?.iter().map(context).collect()
            })?,
            shards,
        })
    }

    /// The snapshot for shard `index`, if present.
    pub fn shard(&self, index: u32) -> Option<&ShardCheckpoint> {
        self.shards.iter().find(|s| s.shard == index)
    }
}

/// Member `key` of `value`, read by `read`; a missing member, or one
/// `read` refuses, is named in the error.
fn req<'v, T>(
    value: &'v JsonValue,
    key: &str,
    read: impl FnOnce(&'v JsonValue) -> Option<T>,
) -> Result<T, CheckpointError> {
    value
        .get(key)
        .and_then(read)
        .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
}

/// A reader of arrays whose every element `item` accepts.
fn list<T>(item: impl Fn(&JsonValue) -> Option<T>) -> impl FnOnce(&JsonValue) -> Option<Vec<T>> {
    move |value| value.as_arr()?.iter().map(item).collect()
}

fn as_u32(value: &JsonValue) -> Option<u32> {
    value.as_u64()?.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScanConfig, TargetSpec, TelemetryConfig};
    use crate::results::Protocol;
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
            telemetry: TelemetryConfig::default(),
            resilience: ResilienceConfig::hardened(),
            ..ScanConfig::study(Protocol::Http, 1 << 12, 0)
        }
    }

    fn sample_checkpoint() -> CampaignCheckpoint {
        CampaignCheckpoint {
            threads: 2,
            checkpoint_every_nanos: 5_000_000_000,
            config: sample_config().digest(),
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
        let json = sample_checkpoint().to_canonical_json();
        let current = format!("\"version\":{CHECKPOINT_VERSION},");
        assert!(
            json.contains(&current),
            "the writer writes the current version"
        );
        // Files from before the retry FIFOs (1), the one target table (2),
        // keyed timers (3), the constant backoffs (4), the promoted
        // handshake's give-up (5), the invariant counters (6), the one
        // front-end (7) or the one count (8) capture different events or
        // state: refused cleanly, never replayed to a divergence.
        for other in [1, 2, 3, 4, 5, 6, 7, 8, CHECKPOINT_VERSION + 1] {
            let foreign = json.replace(&current, &format!("\"version\":{other},"));
            assert_eq!(
                CampaignCheckpoint::parse(&foreign).unwrap_err(),
                CheckpointError::UnknownVersion(other)
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
        let json = sample_checkpoint().to_canonical_json();
        let without_cursor = json.replace("\"cursor_next\":99,", "");
        assert_eq!(
            CampaignCheckpoint::parse(&without_cursor).unwrap_err(),
            CheckpointError::MissingField("cursor_next".to_string())
        );
        // A digest field is not the parser's to require: the file parses,
        // and the resume pre-flight names the field it lacks.
        let without_rate = json.replace("\"rate_pps\":100000,", "");
        let parsed = CampaignCheckpoint::parse(&without_rate).unwrap();
        assert_eq!(
            parsed.config.first_mismatch(&sample_config().digest()),
            Some("config field `rate_pps`: checkpoint (missing) vs current 100000".to_string())
        );
    }

    #[test]
    fn digest_mismatch_is_legible() {
        let recorded = sample_config().digest();
        assert!(recorded.first_mismatch(&recorded.clone()).is_none());
        // Both values are rendered as JSON.
        let mut tls = sample_config();
        tls.protocol = Protocol::Tls;
        tls.mss_list = vec![536];
        assert_eq!(
            recorded.first_mismatch(&tls.digest()).unwrap(),
            "config field `protocol`: checkpoint \"http\" vs current \"tls\""
        );
        let mut mss = sample_config();
        mss.mss_list = vec![536];
        assert_eq!(
            recorded.first_mismatch(&mss.digest()).unwrap(),
            "config field `mss_list`: checkpoint [64,1460] vs current [536]"
        );
        // A field the file lacks, and one this build does not record.
        let missing = ConfigDigest(recorded.0[1..].to_vec());
        assert_eq!(
            missing.first_mismatch(&recorded).unwrap(),
            "config field `seed`: checkpoint (missing) vs current 65261"
        );
        let mut extra = recorded.clone();
        extra.0.push(("shard_tx".to_string(), 0u64.into()));
        assert_eq!(
            extra.first_mismatch(&recorded).unwrap(),
            "config field `shard_tx`: checkpoint 0 vs current (missing)"
        );
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
    }
}
