//! The metrics registry: counters, gauges and log₂ histograms.
//!
//! Metrics are registered once up front (returning a typed index handle)
//! and recorded through the handle — the hot path is an array index plus
//! an integer add, with zero allocation and zero hashing. A registry built
//! by [`MetricsRegistry::from_manifest`] holds every [`manifest`] metric at
//! its variant's slot, so a [`manifest::Counter`] (or gauge, histogram)
//! is itself a handle. Snapshots are name-keyed, mergeable, and serialize
//! to deterministic JSON.

use crate::json::{push_key, push_u64_field};
use crate::manifest;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Determinism scope of a metric (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Population-determined: merges exactly across shard counts and is
    /// part of the canonical snapshot.
    Scan,
    /// Scheduling-determined (pacing, queue depths): reported but excluded
    /// from the canonical snapshot because sharding legitimately changes it.
    Shard,
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

impl From<manifest::Counter> for CounterId {
    fn from(c: manifest::Counter) -> CounterId {
        CounterId(c as usize)
    }
}

impl From<manifest::Gauge> for GaugeId {
    fn from(g: manifest::Gauge) -> GaugeId {
        GaugeId(g as usize)
    }
}

impl From<manifest::Hist> for HistogramId {
    fn from(h: manifest::Hist) -> HistogramId {
        HistogramId(h as usize)
    }
}

/// Number of log₂ buckets: index 0 holds the value 0, index `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`; u64::MAX lands in index 64.
pub const BUCKETS: usize = 65;

/// Bucket index of a value (0 → 0, 1 → 1, 2..=3 → 2, 4..=7 → 3, …).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket (0 for bucket 0, else `2^(i-1)`).
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one sample. Allocation-free.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Fold another histogram's samples in: the result is what observing
    /// both sample sets, in any order, would have given.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

struct Metric<T> {
    name: &'static str,
    scope: Scope,
    value: T,
}

/// A gauge: last-set value plus the high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Gauge {
    value: u64,
    peak: u64,
}

/// The registry. Build one per scanner (or per shard); merge snapshots.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<Metric<u64>>,
    gauges: Vec<Metric<Gauge>>,
    histograms: Vec<Metric<Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Every [`manifest`] metric, registered in table order: each
    /// variant's discriminant is its slot, so the variant is the handle.
    pub fn from_manifest() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for (_, name, scope) in manifest::COUNTERS {
            r.counter(name, scope);
        }
        for (_, name, scope) in manifest::GAUGES {
            r.gauge(name, scope);
        }
        for (_, name, scope) in manifest::HISTOGRAMS {
            r.histogram(name, scope);
        }
        r
    }

    /// Register a monotonic counter. Names must be unique per registry.
    pub fn counter(&mut self, name: &'static str, scope: Scope) -> CounterId {
        debug_assert!(self.counters.iter().all(|m| m.name != name), "{name}");
        self.counters.push(Metric {
            name,
            scope,
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge (tracks last value and peak).
    pub fn gauge(&mut self, name: &'static str, scope: Scope) -> GaugeId {
        debug_assert!(self.gauges.iter().all(|m| m.name != name), "{name}");
        self.gauges.push(Metric {
            name,
            scope,
            value: Gauge::default(),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram.
    pub fn histogram(&mut self, name: &'static str, scope: Scope) -> HistogramId {
        debug_assert!(self.histograms.iter().all(|m| m.name != name), "{name}");
        self.histograms.push(Metric {
            name,
            scope,
            value: Histogram::default(),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: impl Into<CounterId>) {
        self.counters[id.into().0].value += 1;
    }

    /// Add to a counter.
    #[inline]
    pub fn add(&mut self, id: impl Into<CounterId>, n: u64) {
        self.counters[id.into().0].value += n;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: impl Into<CounterId>) -> u64 {
        self.counters[id.into().0].value
    }

    /// Set a gauge (peak is kept automatically).
    #[inline]
    pub fn gauge_set(&mut self, id: impl Into<GaugeId>, value: u64) {
        let g = &mut self.gauges[id.into().0].value;
        g.value = value;
        g.peak = g.peak.max(value);
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: impl Into<HistogramId>, value: u64) {
        self.histograms[id.into().0].value.observe(value);
    }

    /// Fold a histogram recorded elsewhere into a registry histogram.
    pub fn merge_histogram(&mut self, id: impl Into<HistogramId>, samples: &Histogram) {
        self.histograms[id.into().0].value.merge(samples);
    }

    /// Read a histogram back (for reporting and tests).
    pub fn histogram_value(&self, id: impl Into<HistogramId>) -> &Histogram {
        &self.histograms[id.into().0].value
    }

    /// Produce a name-keyed, mergeable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for m in &self.counters {
            snap.counters.insert(m.name.to_string(), (m.scope, m.value));
        }
        for m in &self.gauges {
            snap.gauges
                .insert(m.name.to_string(), (m.scope, m.value.peak));
        }
        for m in &self.histograms {
            snap.histograms.insert(
                m.name.to_string(),
                HistogramSnapshot::from_histogram(m.scope, &m.value),
            );
        }
        snap
    }
}

/// Frozen histogram state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Determinism scope.
    pub scope: Scope,
    /// Sample count.
    pub count: u64,
    /// Saturating sample sum.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(bucket_index, count)` pairs for non-empty buckets, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(scope: Scope, h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            scope,
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (i, *c))
                .collect(),
        }
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<usize, u64> = self.buckets.iter().copied().collect();
        for (i, c) in &other.buckets {
            *merged.entry(*i).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Estimated `pct`-th percentile (0–100) by linear interpolation
    /// inside the log₂ bucket holding that rank, clamped to the observed
    /// `[min, max]`. Integer arithmetic only, and a pure function of the
    /// merged snapshot state — so the estimate is byte-identical across
    /// shard counts. Returns 0 for an empty histogram.
    pub fn quantile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // 1-based rank of the requested percentile, ceiling division.
        let rank =
            ((u128::from(self.count) * u128::from(pct)).div_ceil(100) as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            if seen + c < rank {
                seen += c;
                continue;
            }
            let lo = bucket_floor(i);
            let hi = if i + 1 < BUCKETS {
                bucket_floor(i + 1) - 1
            } else {
                u64::MAX
            };
            let pos = rank - seen; // 1..=c
            let est = lo + (u128::from(hi - lo) * u128::from(pos) / u128::from(c)) as u64;
            return est.clamp(self.min, self.max);
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(99)
    }

    fn to_json(&self, out: &mut String) {
        out.push('{');
        push_u64_field(out, "count", self.count);
        out.push(',');
        push_u64_field(out, "sum", self.sum);
        if self.count > 0 {
            out.push(',');
            push_u64_field(out, "min", self.min);
            out.push(',');
            push_u64_field(out, "max", self.max);
            out.push(',');
            push_u64_field(out, "p50", self.p50());
            out.push(',');
            push_u64_field(out, "p95", self.p95());
            out.push(',');
            push_u64_field(out, "p99", self.p99());
        }
        out.push(',');
        push_key(out, "buckets");
        out.push('[');
        for (n, (i, c)) in self.buckets.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", bucket_floor(*i), c);
        }
        out.push_str("]}");
    }
}

/// A frozen, name-keyed view of a registry. Mergeable across shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, (Scope, u64)>,
    /// Gauge peaks by name (merged with `max`).
    pub gauges: BTreeMap<String, (Scope, u64)>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Merge another shard's snapshot into this one: counters and
    /// histogram buckets add, gauge peaks take the maximum.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, (scope, v)) in &other.counters {
            let e = self.counters.entry(name.clone()).or_insert((*scope, 0));
            e.1 += v;
        }
        for (name, (scope, v)) in &other.gauges {
            let e = self.gauges.entry(name.clone()).or_insert((*scope, 0));
            e.1 = e.1.max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    fn section_json(&self, out: &mut String, scope: Scope) {
        out.push('{');
        push_key(out, "counters");
        out.push('{');
        let mut first = true;
        for (name, (s, v)) in &self.counters {
            if *s != scope {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_u64_field(out, name, *v);
        }
        out.push_str("},");
        push_key(out, "gauges");
        out.push('{');
        let mut first = true;
        for (name, (s, v)) in &self.gauges {
            if *s != scope {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_u64_field(out, name, *v);
        }
        out.push_str("},");
        push_key(out, "histograms");
        out.push('{');
        let mut first = true;
        for (name, h) in &self.histograms {
            if h.scope != scope {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_key(out, name);
            h.to_json(out);
        }
        out.push_str("}}");
    }

    /// The canonical snapshot: scan-scoped metrics only. Byte-identical
    /// between a sharded run and a single-thread run of the same scan.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::new();
        self.section_json(&mut out, Scope::Scan);
        out
    }

    /// The full snapshot: `{"scan": {...}, "shard": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_key(&mut out, "scan");
        self.section_json(&mut out, Scope::Scan);
        out.push(',');
        push_key(&mut out, "shard");
        self.section_json(&mut out, Scope::Shard);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
        // floor/index are consistent.
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i);
        }
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        for v in [0u64, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 202.2).abs() < 1e-9);
    }

    #[test]
    fn merged_histograms_equal_one_observing_both() {
        let (mut a, mut b, mut both) = Default::default();
        for (i, v) in [0u64, 7, 7, 3_000, u64::MAX, 12].into_iter().enumerate() {
            Histogram::observe(if i % 2 == 0 { &mut a } else { &mut b }, v);
            Histogram::observe(&mut both, v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // An empty side changes nothing, min included.
        a.merge(&Histogram::default());
        assert_eq!(a, both);
    }

    #[test]
    fn quantile_estimates_interpolate_within_buckets() {
        let snap_of = |values: &[u64]| {
            let mut r = MetricsRegistry::new();
            let h = r.histogram("scan.rtt_nanos", Scope::Scan);
            for v in values {
                r.observe(h, *v);
            }
            r.snapshot()
        };

        // Empty histogram: all quantiles are 0.
        let empty = snap_of(&[]);
        assert_eq!(empty.histogram("scan.rtt_nanos").unwrap().p99(), 0);

        // Single sample: every quantile is that sample.
        let one = snap_of(&[42]);
        let h = one.histogram("scan.rtt_nanos").unwrap();
        assert_eq!((h.p50(), h.p95(), h.p99()), (42, 42, 42));

        // Two samples 3 and 1024: p50 hits the first, tail hits the second.
        let two = snap_of(&[3, 1024]);
        let h = two.histogram("scan.rtt_nanos").unwrap();
        assert_eq!((h.p50(), h.p95(), h.p99()), (3, 1024, 1024));

        // 100 samples of 0..100: estimates land in the right log₂ bucket
        // and are monotone in the percentile.
        let many: Vec<u64> = (0..100).collect();
        let snap = snap_of(&many);
        let h = snap.histogram("scan.rtt_nanos").unwrap();
        assert!(h.p50() >= 32 && h.p50() <= 63, "p50 = {}", h.p50());
        assert!(h.p95() >= 64 && h.p95() <= 99, "p95 = {}", h.p95());
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
        assert!(h.p99() <= h.max);

        // Estimates never escape [min, max] even for the top bucket.
        let extreme = snap_of(&[u64::MAX]);
        let h = extreme.histogram("scan.rtt_nanos").unwrap();
        assert_eq!(h.p99(), u64::MAX);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("scan.syn_sent", Scope::Scan);
        let g = r.gauge("shard.live", Scope::Shard);
        let h = r.histogram("scan.rtt", Scope::Scan);
        r.inc(c);
        r.add(c, 4);
        r.gauge_set(g, 7);
        r.gauge_set(g, 3);
        r.observe(h, 100);
        assert_eq!(r.counter_value(c), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("scan.syn_sent"), 5);
        assert_eq!(snap.gauges["shard.live"], (Scope::Shard, 7), "peak kept");
        assert_eq!(snap.histogram("scan.rtt").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let build = |vals: &[u64]| {
            let mut r = MetricsRegistry::new();
            let c = r.counter("c", Scope::Scan);
            let h = r.histogram("h", Scope::Scan);
            for v in vals {
                r.add(c, *v);
                r.observe(h, *v);
            }
            r.snapshot()
        };
        let a = build(&[1, 2, 3]);
        let b = build(&[10, 20]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 36);
        let h = ab.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 20);
    }

    #[test]
    fn sharded_merge_equals_single_registry() {
        // The determinism contract in miniature: recording the same
        // samples split across two registries merges to the same snapshot
        // (and the same canonical JSON bytes) as one registry.
        let samples: Vec<u64> = (0..100).map(|i| i * 37 % 1000).collect();
        let record = |vals: &[u64]| {
            let mut r = MetricsRegistry::new();
            let c = r.counter("scan.n", Scope::Scan);
            let h = r.histogram("scan.v", Scope::Scan);
            let p = r.counter("shard.ticks", Scope::Shard);
            for v in vals {
                r.inc(c);
                r.observe(h, *v);
            }
            r.inc(p); // shard-local noise: one tick per registry
            r.snapshot()
        };
        let single = record(&samples);
        let mut merged = record(&samples[..33]);
        merged.merge(&record(&samples[33..]));
        assert_eq!(single.to_canonical_json(), merged.to_canonical_json());
        // The full JSON legitimately differs (shard.ticks: 1 vs 2).
        assert_ne!(single.to_json(), merged.to_json());
    }

    #[test]
    fn json_shape() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("scan.syn_sent", Scope::Scan);
        let h = r.histogram("scan.rtt_nanos", Scope::Scan);
        r.add(c, 7);
        r.observe(h, 3);
        r.observe(h, 1024);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"scan\":{"), "{json}");
        assert!(json.contains("\"scan.syn_sent\":7"), "{json}");
        assert!(
            json.contains("\"scan.rtt_nanos\":{\"count\":2,\"sum\":1027,\"min\":3,\"max\":1024,\"p50\":3,\"p95\":1024,\"p99\":1024,\"buckets\":[[2,1],[1024,1]]}"),
            "{json}"
        );
        assert!(json.contains("\"shard\":{"), "{json}");
        // Canonical form is exactly the scan section.
        let canon = r.snapshot().to_canonical_json();
        assert!(json.contains(&canon), "canonical is a substring");
    }

    #[test]
    fn empty_histogram_json_omits_min_max() {
        let mut r = MetricsRegistry::new();
        r.histogram("scan.empty", Scope::Scan);
        let json = r.snapshot().to_canonical_json();
        assert!(
            json.contains("\"scan.empty\":{\"count\":0,\"sum\":0,\"buckets\":[]}"),
            "{json}"
        );
    }
}
