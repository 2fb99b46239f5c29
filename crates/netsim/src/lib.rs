//! # iw-netsim — deterministic virtual-time packet network
//!
//! The scanner in `iw-core` was designed to sit on a raw socket; in this
//! reproduction it sits on this simulator instead. The simulator is a
//! discrete-event kernel with:
//!
//! * a virtual clock ([`time::Instant`], [`time::Duration`]) — nanosecond
//!   integer arithmetic, no wall clock anywhere;
//! * an event queue ([`sim::Sim`]) delivering packets and timers in
//!   deterministic order (ties broken by insertion sequence), backed by a
//!   hierarchical timer wheel ([`wheel::TimerWheel`]) so scheduling and
//!   cancelling stay O(1) amortized at millions of in-flight events;
//! * per-path link impairments ([`link::Link`]) — propagation delay,
//!   jitter, Bernoulli loss, duplication, plus scripted drops for exact
//!   tail-loss experiments (paper §3.5), all drawn from the one seeded
//!   generator ([`rng::SmallRng`]);
//! * packet traces ([`trace::Trace`]) standing in for the tcpdump captures
//!   the authors inspected manually — exportable as real pcap files
//!   ([`pcap`]) for Wireshark.
//!
//! Determinism is a design requirement, not an accident: the same seed
//! must reproduce byte-identical scan results so that the experiment
//! harness can diff against recorded expectations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod pcap;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;
pub mod wheel;

pub use link::{Arrivals, Link, LinkConfig};
pub use sim::{AddrMap, Effects, Endpoint, HostFactory, Sim, SimConfig, TimerToken};
pub use time::{Duration, Instant};
pub use trace::{Dir, Trace, TraceEntry};
pub use wheel::{TimerId, TimerWheel};
