//! # iw-core — the paper's contribution
//!
//! An Internet-scale scanner, modelled on ZMap, that infers TCP's initial
//! congestion window (IW) from HTTP and TLS hosts *without prior
//! knowledge* (Rüth, Bormann, Hohlfeld — IMC '17).
//!
//! The architecture keeps ZMap's two halves and adds the paper's third:
//!
//! 1. **Stateless target generation** — a multiplicative cyclic-group
//!    permutation of the scan space ([`permutation`], primality and
//!    primitive-root search in [`prime`]), CIDR blacklists
//!    ([`blacklist`]), token-bucket pacing ([`rate`]) and SYN cookies for
//!    stateless SYN-ACK validation ([`cookie`]).
//! 2. **Stateful probe connections** — the lightweight per-connection
//!    module the paper adds to ZMap: the IW-inference state machine
//!    ([`inference`]) that advertises a tiny MSS, counts segments until
//!    the first retransmission, and verifies exhaustion with a 2·MSS
//!    window ACK (§3.1, Fig. 1).
//! 3. **Probes** ([`probe`]), stateless functions of the session's
//!    indices — HTTP (§3.2: redirects, error-page
//!    bloating, `Connection: close`), TLS (§3.3: 40-cipher hello, OCSP),
//!    a single-packet port-scan baseline (§3.4) and the RFC 1191
//!    ICMP path-MTU probe (footnote 1).
//!
//! [`session`] chains the six probes per host (3 × MSS 64 + 3 × MSS 128),
//! applies the majority-of-maximum vote and the §4.2 byte-limit
//! detection. [`config`] says what a scan is asked to do and rejects
//! what it cannot measure. [`scanner`] is the event-driven engine: its
//! file is the dispatch by target state, and its submodules own the rest
//! of its state — `resilience` (SYN retries, eviction, watchdog), `mtu`
//! (the path-MTU prober) and `timer` (the timer-token layout).
//! `target.rs` holds its one lifecycle per target address and `retry.rs`
//! the per-level retransmission FIFOs the SYN retries and the concluded
//! hold use. [`driver`]
//! wires it to `iw-netsim`/`iw-internet` and runs sharded scans on real
//! threads.
//!
//! Observability rides on `iw-telemetry` (re-exported as [`telemetry`]):
//! the scanner always feeds an allocation-free metrics registry, the one
//! place a scan counts, and [`config::TelemetryConfig`] opts into SYN→
//! SYN-ACK RTT tracking, spans, the flight recorder, the stream and the
//! ZMap-style progress monitor. Scan-scoped metrics merge
//! byte-identically across shard counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blacklist;
pub mod checkpoint;
pub mod config;
pub mod cookie;
pub mod driver;
pub mod inference;
mod observe;
pub mod permutation;
pub mod prime;
pub mod probe;
pub mod rate;
pub mod results;
mod retry;
pub mod scanner;
pub mod session;
#[doc(hidden)]
pub mod table;
mod target;
pub mod testbed;

/// The stable scan-entry surface in one import: build a config, pick a
/// [`prelude::Topology`], run via [`prelude::ScanRunner`].
///
/// ```no_run
/// use iw_core::prelude::*;
/// # use iw_internet::Population;
/// # use std::sync::Arc;
/// # let population: Arc<Population> = unimplemented!();
/// let output = ScanRunner::new(&population)
///     .topology(Topology::threads(4))
///     .run();
/// ```
pub mod prelude {
    pub use crate::config::ScanConfig;
    pub use crate::driver::{RunControl, ScanOutput, ScanRunner, Topology};
}

pub use checkpoint::{
    CampaignCheckpoint, CheckpointError, ConfigDigest, RunDisposition, CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
};
pub use config::{
    ConfigError, MonitorSink, MonitorSpec, ResilienceConfig, ScanConfig, TargetSpec,
    TelemetryConfig, WATCHDOG_FLOOR,
};
pub use driver::{summarize, RunControl, ScanOutput, ScanRunner, Topology};
pub use iw_telemetry as telemetry;
pub use observe::ScanTelemetry;
pub use results::{
    Confusion, ErrorKind, ErrorKindCounts, HostResult, HostVerdict, MssVerdict, ProbeOutcome,
    Protocol, ScanSummary,
};
pub use scanner::Scanner;
