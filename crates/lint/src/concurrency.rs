//! Declared-intent concurrency manifest.
//!
//! The sharded engine (`Topology::threads`) brings real threads into a
//! codebase whose headline guarantee is byte-identical determinism.
//! This module is where concurrency *intent* is declared as data, the
//! same way `machines.rs` declares state machines — and the
//! `shared-state-audit`, `hot-path-purity` and `channel-discipline`
//! rules in `rules.rs` verify the code against it. Shared mutable
//! state, lock ordering and the cross-shard channel topology become
//! facts the linter checks, not folklore.
//!
//! `Arc` is deliberately exempt from the audit: it shares immutable
//! data (populations, checkpoints) and cannot introduce a data race by
//! itself. The audited kinds are the interior-mutability primitives —
//! `static`, `Mutex`, `RwLock`, `Atomic*`, `Rc`, `RefCell`.

/// One declared shared-state site.
#[derive(Debug, Clone)]
pub struct SharedStateSpec {
    /// Workspace-relative file the state lives in.
    pub file: &'static str,
    /// Field/binding name at the declaration site.
    pub name: &'static str,
    /// Primitive kind: `Mutex`, `RwLock`, `RefCell`, `Rc`, `Atomic`,
    /// or `static`.
    pub kind: &'static str,
    /// Why this shared state exists — shown in diagnostics and docs.
    pub role: &'static str,
    /// Lock-order rank for lockable kinds (`Mutex`/`RwLock`/`RefCell`):
    /// acquisitions must be textually nested in ascending rank.
    pub rank: Option<u32>,
}

/// A function whose whole reachable call tree must stay pure
/// (no allocation, locking or I/O).
#[derive(Debug, Clone)]
pub struct HotPathRoot {
    /// Workspace-relative file containing the root fn.
    pub file: &'static str,
    /// Qualified fn name (`Owner::name`) as extracted by `items.rs`.
    pub func: &'static str,
    /// Why this is a hot path.
    pub why: &'static str,
}

/// A function the hot-path traversal reaches but does not expand:
/// a declared cold boundary (setup, opt-in tracing, trait fan-out).
#[derive(Debug, Clone)]
pub struct ColdBoundary {
    /// Qualified (`Owner::name`) or bare fn name; bare names match any
    /// owner — used for trait methods with many impls.
    pub func: &'static str,
    /// Why crossing into this fn leaves the hot path.
    pub why: &'static str,
}

/// One declared channel endpoint pair: where sends and receives of a
/// cross-shard (or shard-to-sim) channel are allowed to appear.
#[derive(Debug, Clone)]
pub struct ChannelEndpoint {
    /// The receiver binding name at call sites (`fx` in `fx.send(..)`).
    pub name: &'static str,
    /// What flows through it.
    pub role: &'static str,
    /// Files allowed to contain send-side calls.
    pub tx_files: &'static [&'static str],
    /// Files allowed to contain recv/drain-side calls.
    pub rx_files: &'static [&'static str],
}

/// The whole manifest the three concurrency rules run against.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencySpec {
    /// Crates whose non-test code is subject to `shared-state-audit`.
    pub state_crates: Vec<&'static str>,
    /// Crates whose non-test code is subject to `channel-discipline`.
    pub channel_crates: Vec<&'static str>,
    pub shared_state: Vec<SharedStateSpec>,
    pub hot_path_roots: Vec<HotPathRoot>,
    pub cold_boundaries: Vec<ColdBoundary>,
    pub channels: Vec<ChannelEndpoint>,
}

/// The project's declared concurrency intent. Every entry here is a
/// claim the linter verifies against the source: a removed site makes
/// its entry stale (diagnosed), a new primitive without an entry is a
/// violation.
pub fn project_concurrency() -> ConcurrencySpec {
    ConcurrencySpec {
        state_crates: vec!["core", "netsim", "wire", "hoststack", "telemetry", "cli"],
        channel_crates: vec!["core", "netsim", "wire", "hoststack", "bench"],
        shared_state: vec![
            SharedStateSpec {
                file: "crates/wire/src/pool.rs",
                name: "inner",
                kind: "RefCell",
                role: "single-threaded slab free-list behind BufferPool handles; \
                       one pool per shard world",
                rank: Some(10),
            },
            SharedStateSpec {
                file: "crates/wire/src/pool.rs",
                name: "inner",
                kind: "Rc",
                role: "the handle BufferPool clones share; every slab holds its \
                       Weak to find the way home, so a pool may die first",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/wire/src/pool.rs",
                name: "free",
                kind: "Rc",
                role: "parked buffers: each entry is the only handle to its \
                       refcount shell and slab, which is what lets `take` \
                       reuse both without allocating",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/wire/src/pool.rs",
                name: "shared",
                kind: "Rc",
                role: "refcount shell around a slab so fan-out clones share \
                       it without copying bytes; parked on the free list \
                       together with the slab, never reallocated",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/hoststack/src/host.rs",
                name: "http",
                kind: "Rc",
                role: "the host's HTTP service configuration, immutable once \
                       built; every connection's HttpApp holds a clone of the \
                       handle instead of a copy of the strings",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/hoststack/src/host.rs",
                name: "tls",
                kind: "Rc",
                role: "the host's TLS service configuration, shared with its \
                       TlsApps the same way",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/hoststack/src/http_app.rs",
                name: "config",
                kind: "Rc",
                role: "a connection's handle on its host's HttpConfig \
                       (read-only; host and connections live in one world)",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/hoststack/src/tls_app.rs",
                name: "config",
                kind: "Rc",
                role: "a connection's handle on its host's TlsConfig \
                       (read-only; host and connections live in one world)",
                rank: None,
            },
            SharedStateSpec {
                file: "crates/cli/src/commands.rs",
                name: "slots",
                kind: "Mutex",
                role: "serializes per-shard checkpoint captures into one \
                       atomically renamed campaign file",
                rank: Some(20),
            },
        ],
        hot_path_roots: vec![
            HotPathRoot {
                file: "crates/netsim/src/wheel.rs",
                func: "TimerWheel::advance_to_due",
                why: "timer-wheel advance runs once per event-loop step",
            },
            HotPathRoot {
                file: "crates/netsim/src/sim.rs",
                func: "Sim::step",
                why: "the event loop itself: one call per simulated event",
            },
            HotPathRoot {
                file: "crates/netsim/src/sim.rs",
                func: "Sim::apply_scanner_effects",
                why: "packet fan-out from scanner to links; per-batch",
            },
            HotPathRoot {
                file: "crates/core/src/rate.rs",
                func: "TokenBucket::take",
                why: "pacing decision on every transmitted probe",
            },
            HotPathRoot {
                file: "crates/wire/src/pool.rs",
                func: "BufferPool::take",
                why: "per-packet buffer checkout: a free-list pop of slab \
                      and refcount shell; only the declared miss arm may \
                      allocate (crates/core/tests/alloc_budget.rs counts it)",
            },
            HotPathRoot {
                file: "crates/wire/src/pool.rs",
                func: "PacketBuf::freeze",
                why: "per-packet hand-off to the wire, not reachable by name \
                      across `dyn Endpoint`; must stay a move",
            },
        ],
        cold_boundaries: vec![
            ColdBoundary {
                func: "Sim::spawn_host",
                why: "one-time host construction on first contact; factory \
                      setup is allowed to allocate",
            },
            ColdBoundary {
                func: "Trace::record",
                why: "pcap capture is opt-in (ScanConfig::record_trace) and \
                      off on the measured path",
            },
            ColdBoundary {
                func: "Tracer::record_shard",
                why: "span profiling is opt-in (SimConfig::profile)",
            },
            ColdBoundary {
                func: "Tracer::instant_shard",
                why: "span profiling is opt-in (SimConfig::profile)",
            },
            ColdBoundary {
                func: "Scanner::try_drain_promotions",
                why: "promotion of a cookie-validated discovery responder \
                      into a full stateful session; allocating session \
                      state is the point of crossing this boundary",
            },
            ColdBoundary {
                func: "on_packet",
                why: "trait fan-out: name-based resolution would conflate \
                      every Endpoint impl (hosts, chaos, scanner); endpoint \
                      internals are audited by their own invariants",
            },
            ColdBoundary {
                func: "on_timer",
                why: "trait fan-out, as for on_packet",
            },
        ],
        channels: vec![ChannelEndpoint {
            name: "fx",
            role: "Effects sink: packets and timer arms emitted by \
                       endpoints, drained by the sim loop inside each \
                       shard's world",
            tx_files: &[
                "crates/core/src/scanner.rs",
                "crates/hoststack/src/host.rs",
                "crates/hoststack/src/chaos.rs",
            ],
            rx_files: &["crates/netsim/src/sim.rs"],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockable_kinds_carry_ranks_and_ranks_are_unique() {
        let spec = project_concurrency();
        let mut ranks = Vec::new();
        for s in &spec.shared_state {
            let lockable = matches!(s.kind, "Mutex" | "RwLock" | "RefCell");
            assert_eq!(
                lockable,
                s.rank.is_some(),
                "{}::{} — exactly the lockable kinds carry a rank",
                s.file,
                s.name
            );
            if let Some(r) = s.rank {
                assert!(!ranks.contains(&r), "duplicate lock-order rank {r}");
                ranks.push(r);
            }
        }
    }

    #[test]
    fn roots_live_in_state_crates() {
        let spec = project_concurrency();
        for r in &spec.hot_path_roots {
            let krate = r.file.split('/').nth(1).unwrap_or("");
            assert!(
                spec.state_crates.contains(&krate),
                "hot-path root {} is outside the audited crates",
                r.func
            );
        }
    }

    #[test]
    fn channel_files_are_disjoint_per_endpoint() {
        let spec = project_concurrency();
        for c in &spec.channels {
            for tx in c.tx_files {
                assert!(
                    !c.rx_files.contains(tx),
                    "endpoint {}: {} is both tx and rx",
                    c.name,
                    tx
                );
            }
        }
    }
}
