//! The campaign file: a versioned, canonical-JSON record of which
//! campaign a run is. `iwscan` writes it before the run starts, and
//! `--resume` reads it back.
//!
//! # Why a rerun, not a restore
//!
//! A campaign is a pure function of its configuration and shard count:
//! every world is seeded from the config and advanced only by its own
//! events. So the file holds no scanner state. It names the campaign
//! (thread count, config digest, CLI context); a resume checks that the
//! file describes the command it is given and reruns that campaign from
//! event zero. A rerun reuses nothing from the killed run, so its
//! outputs are the uninterrupted run's by construction, which the
//! thread-count identity tests, the goldens and the CLI's kill→resume
//! test hold.
//!
//! # Schema stability
//!
//! The file is the canonical-JSON dialect of [`iw_telemetry::json`]
//! (sorted construction order, integers only) with an explicit `kind`
//! and `version` header. Unknown versions and corrupted bytes are
//! rejected with a typed [`CheckpointError`], never a panic. The config
//! digest is declared once, as named values beside the configuration
//! ([`crate::config::ScanConfig::digest`]); the codec loops over them.

use iw_telemetry::json::{push_str_literal, push_value};
use iw_telemetry::{parse_json, JsonValue};
use std::fmt;
use std::fmt::Write as _;

/// Current campaign-file version. Versions 1 to 11 carried per-shard
/// captures that a resumed replay was compared against at a recorded
/// event count, so they moved whenever a build renumbered events or
/// reshaped the capture. Version 12 holds only the header (`threads`,
/// `config`, `extra`) and moves only when that shape does. Older files
/// are refused by name.
pub const CHECKPOINT_VERSION: u64 = 12;

/// The `kind` discriminator in the file header.
pub const CHECKPOINT_KIND: &str = "iwscan-campaign-checkpoint";

/// Why a campaign file could not be loaded.
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
    /// drained.
    Aborted,
    /// Drained, but a `scan.invariant.*` counter is not zero
    /// ([`crate::ScanTelemetry::violations`] names it).
    Violated,
}

impl RunDisposition {
    /// Merge precedence across shards: a violation poisons the run, then
    /// a kill, then an abort, then completion.
    pub fn merge(self, other: RunDisposition) -> RunDisposition {
        fn rank(d: &RunDisposition) -> u32 {
            match d {
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
/// Resuming under a different configuration would run a *different*
/// campaign, so the digest is compared verbatim before the run starts.
/// Fields are stored individually (not hashed) so a mismatch can be
/// reported legibly; a field missing from the file, or one this build
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

/// The campaign a run is: header, shard count, config digest and
/// free-form CLI context (`extra`). The file's `version` is always
/// [`CHECKPOINT_VERSION`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Shard/thread count the campaign runs with.
    pub threads: u32,
    /// Digest of the simulation-shaping configuration.
    pub config: ConfigDigest,
    /// CLI-level context (command, scale, loss…), sorted by key.
    pub extra: Vec<(String, String)>,
}

impl CampaignCheckpoint {
    /// Serialise to canonical bytes (the exact file format).
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"kind\":");
        push_str_literal(&mut out, CHECKPOINT_KIND);
        let _ = write!(
            out,
            ",\"version\":{CHECKPOINT_VERSION},\"threads\":{},\"config\":",
            self.threads
        );
        push_value(&mut out, &JsonValue::Obj(self.config.0.clone()));
        let mut extra = self.extra.clone();
        extra.sort();
        let extra = extra.into_iter().map(|(key, value)| (key, value.into()));
        out.push_str(",\"extra\":");
        push_value(&mut out, &JsonValue::Obj(extra.collect()));
        out.push_str("}\n");
        out
    }

    /// Parse campaign-file bytes, rejecting unknown versions, foreign
    /// kinds and malformed JSON with a typed error (never a panic). The
    /// config digest is taken as written: whether it names every field
    /// this build records is for [`ConfigDigest::first_mismatch`] to say.
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
        Ok(CampaignCheckpoint {
            threads: req(&value, "threads", |v| v.as_u64()?.try_into().ok())?,
            config: ConfigDigest(req(&value, "config", |v| v.as_obj().map(<[_]>::to_vec))?),
            extra: req(&value, "extra", |v| {
                v.as_obj()?.iter().map(context).collect()
            })?,
        })
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
            config: sample_config().digest(),
            extra: vec![
                ("scale".to_string(), "small".to_string()),
                ("command".to_string(), "scan".to_string()),
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
        // The file is the header and nothing else.
        assert!(json.ends_with("\"extra\":{\"command\":\"scan\",\"scale\":\"small\"}}\n"));
    }

    #[test]
    fn unknown_version_rejected() {
        let json = sample_checkpoint().to_canonical_json();
        let current = format!("\"version\":{CHECKPOINT_VERSION},");
        assert!(
            json.contains(&current),
            "the writer writes the current version"
        );
        // Files of versions 1 to 11 carried the replay barrier's
        // per-shard captures: refused by name, like a future version.
        for other in (1..CHECKPOINT_VERSION).chain([CHECKPOINT_VERSION + 1]) {
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
        let garbled = json.replace("\"extra\":{", "\"extra\":[");
        assert!(CampaignCheckpoint::parse(&garbled).is_err());
    }

    #[test]
    fn missing_fields_are_named() {
        let json = sample_checkpoint().to_canonical_json();
        let without_threads = json.replace("\"threads\":2,", "");
        assert_eq!(
            CampaignCheckpoint::parse(&without_threads).unwrap_err(),
            CheckpointError::MissingField("threads".to_string())
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
        assert_eq!(Killed { events: 5 }.merge(Violated), Violated);
        assert_eq!(Completed.merge(Completed), Completed);
    }
}
