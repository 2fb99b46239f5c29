//! Virtual-time span tracing: the scan's flame graph.
//!
//! A [`Tracer`] collects named intervals of **virtual** time (the
//! simulator clock, never the wall clock) and exports them as Chrome
//! trace-event JSON loadable in `chrome://tracing` or Perfetto. Spans
//! come in two determinism classes, mirroring the metric scopes in
//! [`crate::registry::Scope`]:
//!
//! * **Scan** spans — population-determined (session phases,
//!   handshakes, inference probes). Keyed by target address, these
//!   partition across ZMap shards exactly, and a target's timeline is
//!   translation-invariant (every event is an offset from its SYN), so
//!   the canonical export — which re-bases each track to its first
//!   event — is **byte-identical** whether the scan ran on one thread
//!   or many. They are stored as [`SpanRecord`]s: they are the export.
//! * **Shard** spans — scheduling-determined, from the event loop hot
//!   path (timer-wheel advances, packet fan-out batches, pacing ticks).
//!   They depend on how the scan was sharded, so the canonical export
//!   leaves them out, and they are counted, not stored: each one bumps
//!   a count per span name, and the first [`SHARD_SPAN_CAP`] of them
//!   feed their durations into the tracer's histogram as they arrive.
//!   A hot path that advances the wheel millions of times costs a fixed
//!   few hundred bytes.
//!
//! [`Tracer::durations`] holds every scan span's duration and those of
//! the counted shard spans: the `trace.span_nanos` histogram.
//!
//! The tracer is ~zero-cost when disabled: every recording entry point
//! checks one `bool` and returns. Nesting needs no explicit stack —
//! Chrome "complete" (`ph:"X"`) events nest by timestamp containment on
//! the same track, and each target gets its own track (`tid` = address).

use crate::json::{push_key, push_str_literal, push_u64_field};
use crate::registry::Histogram;
use std::collections::BTreeMap;

/// One named, scan-scoped interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Start of the interval, nanoseconds of virtual time.
    pub start_nanos: u64,
    /// Length of the interval in nanoseconds (0 = instant event).
    pub dur_nanos: u64,
    /// Track key: the target address.
    pub key: u32,
    /// Span name (static so the hot path never allocates).
    pub name: &'static str,
    /// One free argument (probe index, outcome, ...).
    pub arg: u64,
}

impl SpanRecord {
    /// Sort key: virtual-time order with deterministic tie-breaks. It
    /// covers every field, so an unstable sort gives one order.
    fn sort_key(&self) -> (u64, u32, &'static str, u64, u64) {
        (
            self.start_nanos,
            self.key,
            self.name,
            self.dur_nanos,
            self.arg,
        )
    }
}

/// How many shard-scoped (hot-path) spans per tracer feed the duration
/// histogram. Past the cap the tracer keeps counting them by name, and
/// the histogram stays what it was.
pub const SHARD_SPAN_CAP: usize = 1 << 16;

/// Span collector and Chrome trace-event exporter. See module docs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    /// Scan spans, canonical order after a merge.
    spans: Vec<SpanRecord>,
    /// Begin timestamps of spans opened but not yet closed, keyed by
    /// `(track key, slot)`. Ordered map: iteration order never leaks into
    /// output, but determinism is cheap to keep everywhere.
    open: BTreeMap<(u32, u8), u64>,
    /// Durations of every scan span and of the first [`SHARD_SPAN_CAP`]
    /// shard spans.
    durations: Histogram,
    /// Shard-scoped spans recorded (including any past [`SHARD_SPAN_CAP`]).
    shard_total: u64,
    /// Shard-scoped spans recorded, per name (a handful of names).
    shard_names: Vec<(&'static str, u64)>,
}

impl Tracer {
    /// A tracer; disabled tracers never record or allocate.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Is recording on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished scan-scoped span.
    #[inline]
    pub fn record_scan(
        &mut self,
        start_nanos: u64,
        end_nanos: u64,
        key: u32,
        name: &'static str,
        arg: u64,
    ) {
        if !self.enabled {
            return;
        }
        let dur_nanos = end_nanos.saturating_sub(start_nanos);
        self.durations.observe(dur_nanos);
        self.spans.push(SpanRecord {
            start_nanos,
            dur_nanos,
            key,
            name,
            arg,
        });
    }

    /// Count a finished shard-scoped (hot-path) span: by name always, its
    /// duration only up to [`SHARD_SPAN_CAP`]. Nothing is stored.
    #[inline]
    pub fn record_shard(&mut self, start_nanos: u64, end_nanos: u64, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.shard_total += 1;
        match self.shard_names.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => *count += 1,
            None => self.shard_names.push((name, 1)),
        }
        if self.shard_total <= SHARD_SPAN_CAP as u64 {
            self.durations
                .observe(end_nanos.saturating_sub(start_nanos));
        }
    }

    /// Count an instant (zero-duration) shard-scoped event.
    #[inline]
    pub fn instant_shard(&mut self, at_nanos: u64, name: &'static str) {
        self.record_shard(at_nanos, at_nanos, name);
    }

    /// Open a nestable scan span on `(key, slot)` at `start_nanos`.
    /// Re-opening an open slot restarts it.
    #[inline]
    pub fn open(&mut self, key: u32, slot: u8, start_nanos: u64) {
        if !self.enabled {
            return;
        }
        self.open.insert((key, slot), start_nanos);
    }

    /// Close the scan span opened on `(key, slot)`; no-op if the slot was
    /// never opened (e.g. the tracer was enabled mid-flight).
    #[inline]
    pub fn close(&mut self, key: u32, slot: u8, end_nanos: u64, name: &'static str, arg: u64) {
        if !self.enabled {
            return;
        }
        if let Some(start) = self.open.remove(&(key, slot)) {
            self.record_scan(start, end_nanos, key, name, arg);
        }
    }

    /// Drop an open slot without recording (clean abandon).
    #[inline]
    pub fn discard(&mut self, key: u32, slot: u8) {
        if !self.enabled {
            return;
        }
        self.open.remove(&(key, slot));
    }

    /// All scan spans, canonical order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The `trace.span_nanos` samples: every scan span's duration and
    /// those of the counted shard spans.
    pub fn durations(&self) -> &Histogram {
        &self.durations
    }

    /// Number of scan-scoped spans recorded.
    pub fn scan_span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Number of shard-scoped spans *recorded*, including capped ones.
    pub fn shard_span_total(&self) -> u64 {
        self.shard_total
    }

    /// Shard-scoped spans recorded under `name`.
    pub fn shard_spans_named(&self, name: &str) -> u64 {
        self.shard_names
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, count)| *count)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.shard_total == 0
    }

    /// Merge another tracer's spans and counts and restore canonical
    /// order. Because scan spans partition across shards by target
    /// address, merging N shard tracers reproduces the single-shard span
    /// list exactly.
    pub fn merge(&mut self, other: &Tracer) {
        self.enabled |= other.enabled;
        self.durations.merge(&other.durations);
        self.shard_total += other.shard_total;
        for &(name, count) in &other.shard_names {
            match self.shard_names.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += count,
                None => self.shard_names.push((name, count)),
            }
        }
        if !other.spans.is_empty() {
            self.spans.extend_from_slice(&other.spans);
            self.spans.sort_unstable_by_key(SpanRecord::sort_key);
        }
    }

    /// Canonical Chrome trace-event export, each track (target) re-based
    /// to its own first event. A target's session timeline is
    /// translation-invariant — every event is an offset from its SYN —
    /// while its absolute placement depends on which shard paced it, so
    /// re-basing makes the bytes identical across runs **and across
    /// shard counts**. Load in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_key(&mut out, "displayTimeUnit");
        out.push_str("\"ms\",");
        push_key(&mut out, "traceEvents");
        out.push('[');
        push_meta(&mut out, 1, "scan sessions");
        let mut sorted: Vec<&SpanRecord> = self.spans.iter().collect();
        // Canonical order is track-major: absolute order across tracks is
        // scheduling-determined, order *within* a track is not. The
        // earliest span per track, its first, becomes its time base.
        sorted.sort_by_key(|s| (s.key, s.start_nanos, s.name, s.dur_nanos, s.arg));
        let mut track: Option<(u32, u64)> = None;
        for s in sorted {
            let base = match track {
                Some((key, base)) if key == s.key => base,
                _ => track.insert((s.key, s.start_nanos)).1,
            };
            out.push(',');
            out.push('{');
            push_key(&mut out, "name");
            push_str_literal(&mut out, s.name);
            out.push(',');
            push_key(&mut out, "cat");
            push_str_literal(&mut out, "scan");
            out.push(',');
            push_key(&mut out, "ph");
            out.push_str("\"X\",");
            push_key(&mut out, "ts");
            push_micros(&mut out, s.start_nanos - base);
            out.push(',');
            push_key(&mut out, "dur");
            push_micros(&mut out, s.dur_nanos);
            out.push(',');
            push_u64_field(&mut out, "pid", 1);
            out.push(',');
            push_u64_field(&mut out, "tid", u64::from(s.key));
            out.push(',');
            push_key(&mut out, "args");
            out.push('{');
            push_u64_field(&mut out, "arg", s.arg);
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// A Chrome `process_name` metadata event.
fn push_meta(out: &mut String, pid: u64, name: &str) {
    out.push('{');
    push_key(out, "name");
    out.push_str("\"process_name\",");
    push_key(out, "ph");
    out.push_str("\"M\",");
    push_u64_field(out, "pid", pid);
    out.push(',');
    push_key(out, "args");
    out.push('{');
    push_key(out, "name");
    push_str_literal(out, name);
    out.push_str("}}");
}

/// Append `nanos` as microseconds with fixed three-digit nanosecond
/// fraction (`1234.567`). Integer arithmetic only: byte-stable.
fn push_micros(out: &mut String, nanos: u64) {
    use std::fmt::Write;
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.record_scan(0, 10, 1, "session", 0);
        t.record_shard(0, 10, "pace.tick");
        t.open(1, 0, 5);
        t.close(1, 0, 9, "probe", 0);
        assert!(t.is_empty());
        assert_eq!(t.shard_span_total(), 0);
    }

    #[test]
    fn open_close_records_the_interval() {
        let mut t = Tracer::new(true);
        t.open(7, 2, 1_000);
        t.close(7, 2, 4_500, "probe", 2);
        // Closing an unopened slot is a no-op.
        t.close(8, 0, 9_999, "probe", 0);
        assert_eq!(t.spans().len(), 1);
        let s = t.spans()[0];
        assert_eq!(
            (s.start_nanos, s.dur_nanos, s.key, s.name, s.arg),
            (1_000, 3_500, 7, "probe", 2)
        );
    }

    #[test]
    fn merge_is_order_insensitive() {
        let mut a = Tracer::new(true);
        a.record_scan(10, 20, 2, "session", 0);
        a.record_shard(0, 5, "wheel");
        let mut b = Tracer::new(true);
        b.record_scan(5, 9, 1, "session", 0);
        b.record_shard(6, 8, "wheel");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.spans(), ba.spans());
        assert_eq!(ab.to_chrome_json(), ba.to_chrome_json());
        assert_eq!(ab.shard_span_total(), 2);
        assert_eq!(ab.shard_spans_named("wheel"), 2);
        assert_eq!(ab.durations(), ba.durations());
        assert_eq!(ab.durations().count(), 4);
    }

    #[test]
    fn canonical_export_excludes_shard_spans() {
        let mut t = Tracer::new(true);
        t.record_scan(1_000, 2_000, 0x0a000001, "handshake", 0);
        t.record_scan(1_500, 1_800, 0x0a000001, "probe", 1);
        t.record_shard(0, 500, "pace.tick");
        let json = t.to_chrome_json();
        assert!(json.contains("\"handshake\""), "{json}");
        assert!(!json.contains("pace.tick"), "{json}");
        // The track is re-based to its first event: the handshake starts
        // at 0, the nested probe keeps its 500 ns offset.
        assert!(json.contains("\"ts\":0.000,\"dur\":1.000"), "{json}");
        assert!(json.contains("\"ts\":0.500,\"dur\":0.300"), "{json}");
        // Valid trace shape: object with a traceEvents array.
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // The hot path is counted, not stored.
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.shard_spans_named("pace.tick"), 1);
        assert_eq!(t.durations().count(), 3);
    }

    #[test]
    fn canonical_export_is_translation_invariant_per_track() {
        // The same session recorded at a different absolute time (as
        // happens when another shard paces the target later) exports
        // identically; the spans keep their absolute placement. Each
        // track is re-based on its own.
        let mut a = Tracer::new(true);
        a.record_scan(1_000, 3_000, 1, "session", 0);
        a.record_scan(1_200, 1_900, 1, "probe", 0);
        let mut b = Tracer::new(true);
        b.record_scan(501_000, 503_000, 1, "session", 0);
        b.record_scan(501_200, 501_900, 1, "probe", 0);
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        assert_ne!(a.spans(), b.spans());
        a.record_scan(9_000, 9_400, 2, "session", 0);
        let json = a.to_chrome_json();
        assert!(
            json.ends_with(
                "\"ts\":0.000,\"dur\":0.400,\"pid\":1,\"tid\":2,\"args\":{\"arg\":0}}]}"
            ),
            "{json}"
        );
    }

    #[test]
    fn shard_span_cap_bounds_memory() {
        let mut t = Tracer::new(true);
        for i in 0..(SHARD_SPAN_CAP as u64 + 100) {
            t.record_shard(i, i + 1 + (i >= SHARD_SPAN_CAP as u64) as u64, "wheel");
        }
        t.instant_shard(7, "fanout");
        assert_eq!(t.shard_span_total(), SHARD_SPAN_CAP as u64 + 101);
        assert_eq!(t.shard_spans_named("wheel"), SHARD_SPAN_CAP as u64 + 100);
        assert_eq!(t.shard_spans_named("fanout"), 1);
        // Only the first spans' durations (all 1 ns) were counted.
        let d = t.durations();
        assert_eq!((d.count(), d.max()), (SHARD_SPAN_CAP as u64, Some(1)));
        assert!(t.spans().is_empty(), "no shard span is stored");
    }

    #[test]
    fn micros_formatting_is_fixed_width() {
        let mut s = String::new();
        push_micros(&mut s, 1);
        s.push(' ');
        push_micros(&mut s, 1_234_567);
        assert_eq!(s, "0.001 1234.567");
    }
}
