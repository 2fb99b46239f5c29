//! Virtual-time span tracing: the scan's flame graph.
//!
//! A [`Tracer`] collects [`SpanRecord`]s — named intervals of **virtual**
//! time (the simulator clock, never the wall clock) — and exports them as
//! Chrome trace-event JSON loadable in `chrome://tracing` or Perfetto.
//! Spans come in two determinism classes, mirroring the metric scopes in
//! [`crate::registry::Scope`]:
//!
//! * [`SpanScope::Scan`] — population-determined spans (session phases,
//!   handshakes, inference probes). Keyed by target address, these
//!   partition across ZMap shards exactly, and a target's timeline is
//!   translation-invariant (every event is an offset from its SYN), so
//!   the canonical export — which re-bases each track to its first
//!   event — is **byte-identical** whether the scan ran on one thread
//!   or many.
//! * [`SpanScope::Shard`] — scheduling-determined spans from the event
//!   loop hot path (timer-wheel advances, packet fan-out batches, pacing
//!   ticks). These depend on how the scan was sharded and are therefore
//!   kept out of the canonical export; they are counted into the
//!   `trace.*` metrics and kept in [`Tracer::spans`].
//!
//! The tracer is ~zero-cost when disabled: every recording entry point
//! checks one `bool` and returns. Nesting needs no explicit stack —
//! Chrome "complete" (`ph:"X"`) events nest by timestamp containment on
//! the same track, and each target gets its own track (`tid` = address).

use crate::json::{push_key, push_str_literal, push_u64_field};
use std::collections::BTreeMap;

/// Determinism class of a span (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanScope {
    /// Population-determined: merges byte-identically across shard counts.
    Scan,
    /// Scheduling-determined: excluded from the canonical export.
    Shard,
}

/// One named interval of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Determinism class.
    pub scope: SpanScope,
    /// Start of the interval, nanoseconds of virtual time.
    pub start_nanos: u64,
    /// Length of the interval in nanoseconds (0 = instant event).
    pub dur_nanos: u64,
    /// Track key: the target address for session spans, 0 for
    /// scanner/simulator-global spans.
    pub key: u32,
    /// Span name (static so the hot path never allocates).
    pub name: &'static str,
    /// One free argument (probe index, batch size, grant count, ...).
    pub arg: u64,
}

impl SpanRecord {
    /// Sort key: virtual-time order with deterministic tie-breaks, scan
    /// spans ahead of shard spans.
    fn sort_key(&self) -> (SpanScope, u64, u32, &'static str, u64, u64) {
        (
            self.scope,
            self.start_nanos,
            self.key,
            self.name,
            self.dur_nanos,
            self.arg,
        )
    }
}

/// Upper bound on retained shard-scoped (hot-path) spans. The event loop
/// can advance the wheel millions of times in a large scan; past the cap
/// the tracer keeps counting but stops storing, so memory stays bounded.
pub const SHARD_SPAN_CAP: usize = 1 << 16;

/// Span collector and Chrome trace-event exporter. See module docs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<SpanRecord>,
    /// Begin timestamps of spans opened but not yet closed, keyed by
    /// `(track key, slot)`. Ordered map: iteration order never leaks into
    /// output, but determinism is cheap to keep everywhere.
    open: BTreeMap<(u32, u8), u64>,
    /// Shard-scoped spans retained in `spans` (≤ [`SHARD_SPAN_CAP`]).
    shard_retained: usize,
    /// Shard-scoped spans recorded (including any past [`SHARD_SPAN_CAP`]).
    shard_total: u64,
    /// Shard-scoped spans dropped by the cap.
    shard_dropped: u64,
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
        self.spans.push(SpanRecord {
            scope: SpanScope::Scan,
            start_nanos,
            dur_nanos: end_nanos.saturating_sub(start_nanos),
            key,
            name,
            arg,
        });
    }

    /// Record a finished shard-scoped (hot-path) span. Counted always,
    /// stored only up to [`SHARD_SPAN_CAP`].
    #[inline]
    pub fn record_shard(
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
        self.shard_total += 1;
        if self.shard_retained >= SHARD_SPAN_CAP {
            self.shard_dropped += 1;
            return;
        }
        self.shard_retained += 1;
        self.spans.push(SpanRecord {
            scope: SpanScope::Shard,
            start_nanos,
            dur_nanos: end_nanos.saturating_sub(start_nanos),
            key,
            name,
            arg,
        });
    }

    /// Record an instant (zero-duration) shard-scoped event.
    #[inline]
    pub fn instant_shard(&mut self, at_nanos: u64, key: u32, name: &'static str, arg: u64) {
        self.record_shard(at_nanos, at_nanos, key, name, arg);
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

    /// All retained spans, canonical order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Retained shard-scoped spans.
    pub fn shard_spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.scope == SpanScope::Shard)
    }

    /// Number of scan-scoped spans recorded.
    pub fn scan_span_count(&self) -> u64 {
        (self.spans.len() - self.shard_retained) as u64
    }

    /// Number of shard-scoped spans *retained* (≤ [`SHARD_SPAN_CAP`]).
    pub fn shard_span_count(&self) -> usize {
        self.shard_retained
    }

    /// Number of shard-scoped spans *recorded*, including capped ones.
    pub fn shard_span_total(&self) -> u64 {
        self.shard_total
    }

    /// Shard-scoped spans dropped by [`SHARD_SPAN_CAP`].
    pub fn shard_spans_dropped(&self) -> u64 {
        self.shard_dropped
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Merge another shard's spans and restore canonical order. Because
    /// scan spans partition across shards by target address, merging N
    /// shard tracers reproduces the single-shard span list exactly.
    pub fn merge(&mut self, other: &Tracer) {
        self.enabled |= other.enabled;
        self.spans.extend_from_slice(&other.spans);
        self.shard_retained += other.shard_retained;
        self.shard_total += other.shard_total;
        self.shard_dropped += other.shard_dropped;
        self.spans.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// Canonical Chrome trace-event export: **scan-scoped spans only**,
    /// each track (target) re-based to its own first event. A target's
    /// session timeline is translation-invariant — every event is an
    /// offset from its SYN — while its absolute placement depends on
    /// which shard paced it, so re-basing makes the bytes identical
    /// across runs **and across shard counts**. Load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_key(&mut out, "displayTimeUnit");
        out.push_str("\"ms\",");
        push_key(&mut out, "traceEvents");
        out.push('[');
        push_meta(&mut out, 1, "scan sessions");
        let mut sorted: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.scope == SpanScope::Scan)
            .collect();
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
        t.record_shard(0, 10, 0, "pace.tick", 3);
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
        a.record_shard(0, 5, 0, "wheel", 1);
        let mut b = Tracer::new(true);
        b.record_scan(5, 9, 1, "session", 0);
        b.record_shard(6, 8, 0, "wheel", 1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.spans(), ba.spans());
        assert_eq!(ab.to_chrome_json(), ba.to_chrome_json());
        assert_eq!(ab.shard_span_total(), 2);
    }

    #[test]
    fn canonical_export_excludes_shard_spans() {
        let mut t = Tracer::new(true);
        t.record_scan(1_000, 2_000, 0x0a000001, "handshake", 0);
        t.record_scan(1_500, 1_800, 0x0a000001, "probe", 1);
        t.record_shard(0, 500, 0, "pace.tick", 9);
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
        // The hot path stays in the tracer, shard-scoped.
        let shard: Vec<&str> = t.shard_spans().map(|s| s.name).collect();
        assert_eq!(shard, ["pace.tick"]);
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
            t.record_shard(i, i + 1, 0, "wheel", 0);
        }
        assert_eq!(t.shard_span_count(), SHARD_SPAN_CAP);
        assert_eq!(t.shard_span_total(), SHARD_SPAN_CAP as u64 + 100);
        assert_eq!(t.shard_spans_dropped(), 100);
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
