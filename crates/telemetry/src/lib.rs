//! # iw-telemetry — the scanner's measurement layer
//!
//! ZMap-style scanners are operated by watching them: hit rates, pacing,
//! and failure modes tell the operator whether a campaign is healthy long
//! before the results land ("Ten Years of ZMap" calls the live status
//! monitor essential operational machinery). This crate is that layer for
//! the IW scanner:
//!
//! * a cheap **metrics registry** ([`registry`]) — named monotonic
//!   counters, gauges and log₂-bucketed histograms with a deterministic
//!   JSON snapshot format and exact shard merging;
//! * the **metrics manifest** ([`manifest`]) — the scanner's metric set,
//!   written once: one enum per instrument kind whose variants index a
//!   table of names and scopes, and are themselves registry handles;
//! * the **session event vocabulary** ([`events`]) — the per-host
//!   lifecycle transitions (SYN sent → SYN-ACK validated → retransmit
//!   detected → verify-ACK → verdict) that the registry counts and the
//!   flight recorder keeps;
//! * a **progress monitor** ([`monitor`]) — periodic ZMap-style status
//!   lines (send progress, hit rate, pps, verdict mix, ETA) through a
//!   pluggable sink;
//! * a **span tracer** ([`trace`]) — virtual-time spans over session
//!   phases, exported as Chrome trace-event JSON (Perfetto-loadable) with
//!   a byte-identical canonical form across shard counts, and the
//!   event-loop hot path's spans, counted but not stored;
//! * a **flight recorder** ([`recorder`]) — the unbounded history of
//!   every address in a watch set, the one per-host record of a scan,
//!   and the scan's casualties, whose JSONL black boxes are windows of
//!   their histories in a replay that watches them;
//! * a **streaming sink** ([`sink`]) — JSONL metric deltas and
//!   per-target results emitted while the scan runs;
//! * an **ICMP harvest** ([`harvest`]) — per-source counts of the
//!   control-plane side-traffic (rate-limiting signatures, top talkers),
//!   rendered with the registry's `scan.icmp.*` subtype counters into the
//!   results manifest.
//!
//! The products know nothing of the scanner. The scanner's observer
//! (`crates/core/src/observe.rs`) owns one of each and feeds them: the
//! scanner reports each observation once, and one `match` fans it out
//! and increments the counters that count it: the registry is the only
//! thing that counts, and the flight recorder the only per-host history.
//!
//! The crate is dependency-free by design: every recording operation is
//! allocation-free (array index + integer add), and the JSON emitters are
//! hand-rolled so snapshots are byte-stable across platforms and shard
//! counts. Time is passed in as plain `u64` nanoseconds so the crate does
//! not depend on the simulator's clock types.
//!
//! ## Determinism contract
//!
//! Metrics are registered with a [`registry::Scope`] (for the scanner's
//! metrics, the one in their manifest row):
//!
//! * [`Scope::Scan`](registry::Scope::Scan) metrics describe the scanned
//!   population (verdicts, RTTs, session lifetimes). They are defined to
//!   merge exactly: summing per-shard registries yields byte-identical
//!   canonical snapshots whether a scan ran on one thread or sixteen.
//! * [`Scope::Shard`](registry::Scope::Shard) metrics describe scheduling
//!   (pacing ticks, token-bucket waits, peak live sessions). They are
//!   still merged and reported, but excluded from the canonical snapshot
//!   because shard boundaries legitimately change them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod events;
pub mod harvest;
pub mod json;
pub mod manifest;
pub mod monitor;
pub mod recorder;
pub mod registry;
pub mod sink;
pub mod trace;

pub use addr::{AddrHasher, AddrMap};
pub use events::{OutcomeKind, SessionEvent};
pub use harvest::IcmpHarvest;
pub use json::{parse_json, JsonError, JsonValue};
pub use manifest::{Counter, Gauge, Hist};
pub use monitor::{
    print_line, BufferSink, ProgressMonitor, ProgressSample, StatusSink, StdoutSink,
};
pub use recorder::{Casualty, FlightDump, FlightEntry, FlightRecorder, DEFAULT_RING_CAPACITY};
pub use registry::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricsRegistry, Scope, Snapshot,
};
pub use sink::TelemetrySink;
pub use trace::{SpanRecord, Tracer};
