//! Streaming JSONL telemetry: what the scan looks like *while it runs*.
//!
//! A [`TelemetrySink`] accumulates two record types as newline-delimited
//! JSON, each stamped with virtual time:
//!
//! * `snapshot` — periodic deltas of the counter set since the previous
//!   snapshot (`{"type":"snapshot","at_nanos":..,"shard":..,"delta":{..}}`).
//!   Deltas are per-shard observations: which shard's counter moved in
//!   which interval depends on scheduling, so these records carry their
//!   shard index and are *not* part of the canonical cross-shard
//!   contract. Summing every delta for a counter always reproduces the
//!   final merged total (the last snapshot is flushed at harvest).
//! * `result` — one line per concluded target
//!   (`{"type":"result","at_nanos":..,"ip":"..","verdict":".."}`).
//!   Conclusion times and verdicts are population-determined, so after a
//!   merge these lines are identical across shard counts.
//!
//! Records merge across shards by `(time, type, key)` with a full-line
//! tie-break, so a merged stream is deterministic for a fixed sharding.
//! The CLI appends the stream to `--stream-out`; `iw-cli inspect`
//! summarizes it offline.

use crate::json::{push_ip, push_key, push_str_literal, push_u64_field};
use crate::registry::Snapshot;
use std::collections::BTreeMap;

/// Record-type tag (orders snapshot lines before result lines at equal
/// timestamps).
const ORDER_SNAPSHOT: u8 = 0;
/// See [`ORDER_SNAPSHOT`].
const ORDER_RESULT: u8 = 1;

/// One rendered JSONL record with its sort key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SinkRecord {
    at_nanos: u64,
    order: u8,
    key: u64,
    line: String,
}

/// Streaming JSONL sink. See module docs.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    enabled: bool,
    records: Vec<SinkRecord>,
    /// Counter values at the previous snapshot, for delta computation.
    last: BTreeMap<String, u64>,
}

impl TelemetrySink {
    /// A sink; disabled sinks never record or allocate.
    pub fn new(enabled: bool) -> TelemetrySink {
        TelemetrySink {
            enabled,
            ..TelemetrySink::default()
        }
    }

    /// Is recording on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append a snapshot-delta record: every counter that moved since the
    /// previous snapshot. Emitted even when nothing moved (heartbeat).
    pub fn note_snapshot(&mut self, at_nanos: u64, shard: u32, snap: &Snapshot) {
        if !self.enabled {
            return;
        }
        let mut line = String::new();
        line.push('{');
        push_key(&mut line, "type");
        line.push_str("\"snapshot\",");
        push_u64_field(&mut line, "at_nanos", at_nanos);
        line.push(',');
        push_u64_field(&mut line, "shard", u64::from(shard));
        line.push(',');
        push_key(&mut line, "delta");
        line.push('{');
        let mut first = true;
        for (name, (_, v)) in &snap.counters {
            let prev = self.last.get(name).copied().unwrap_or(0);
            if *v == prev {
                continue;
            }
            if !first {
                line.push(',');
            }
            first = false;
            push_u64_field(&mut line, name, v - prev);
            self.last.insert(name.clone(), *v);
        }
        line.push_str("}}");
        self.records.push(SinkRecord {
            at_nanos,
            order: ORDER_SNAPSHOT,
            key: u64::from(shard),
            line,
        });
    }

    /// Append a per-target result record.
    pub fn note_result(&mut self, at_nanos: u64, ip: u32, verdict: &str) {
        if !self.enabled {
            return;
        }
        let mut line = String::new();
        line.push('{');
        push_key(&mut line, "type");
        line.push_str("\"result\",");
        push_u64_field(&mut line, "at_nanos", at_nanos);
        line.push(',');
        push_key(&mut line, "ip");
        push_ip(&mut line, ip);
        line.push(',');
        push_key(&mut line, "verdict");
        push_str_literal(&mut line, verdict);
        line.push('}');
        self.records.push(SinkRecord {
            at_nanos,
            order: ORDER_RESULT,
            key: u64::from(ip),
            line,
        });
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge another shard's stream and restore canonical order.
    pub fn merge(&mut self, other: &TelemetrySink) {
        self.enabled |= other.enabled;
        self.records.extend(other.records.iter().cloned());
        self.records.sort_by(|a, b| {
            (a.at_nanos, a.order, a.key, &a.line).cmp(&(b.at_nanos, b.order, b.key, &b.line))
        });
    }

    /// The stream as JSONL (trailing newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.line);
            out.push('\n');
        }
        out
    }

    /// The result lines only (the cross-shard-deterministic subset).
    pub fn result_lines(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.order == ORDER_RESULT)
            .map(|r| r.line.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricsRegistry, Scope};

    fn snap_with(count: u64) -> Snapshot {
        let mut r = MetricsRegistry::new();
        let c = r.counter("scan.targets_sent", Scope::Scan);
        r.add(c, count);
        r.snapshot()
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TelemetrySink::new(false);
        s.note_result(1, 1, "success");
        s.note_snapshot(2, 0, &snap_with(3));
        assert!(s.is_empty());
        assert_eq!(s.to_jsonl(), "");
    }

    #[test]
    fn snapshot_records_deltas_not_totals() {
        let mut s = TelemetrySink::new(true);
        s.note_snapshot(100, 0, &snap_with(10));
        s.note_snapshot(200, 0, &snap_with(25));
        s.note_snapshot(300, 0, &snap_with(25)); // heartbeat, empty delta
        let out = s.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"delta\":{\"scan.targets_sent\":10}"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("\"delta\":{\"scan.targets_sent\":15}"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"delta\":{}"), "{}", lines[2]);
    }

    #[test]
    fn result_lines_render_ip_and_verdict() {
        let mut s = TelemetrySink::new(true);
        s.note_result(7_000, 0x0a000001, "few_data");
        assert_eq!(
            s.to_jsonl(),
            "{\"type\":\"result\",\"at_nanos\":7000,\"ip\":\"10.0.0.1\",\"verdict\":\"few_data\"}\n"
        );
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mk = |ip: u32, at: u64| {
            let mut s = TelemetrySink::new(true);
            s.note_result(at, ip, "success");
            s
        };
        let mut a = mk(2, 50);
        a.merge(&mk(1, 50));
        let mut b = mk(1, 50);
        b.merge(&mk(2, 50));
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert!(a.to_jsonl().find("0.0.0.1").unwrap() < a.to_jsonl().find("0.0.0.2").unwrap());
    }
}
