//! The discrete-event simulation kernel.
//!
//! Topology is a star: one *scanner* endpoint in the middle, and one lazily
//! instantiated *host* endpoint per probed IPv4 address, each behind its
//! own impaired [`Link`]. That is exactly the world an Internet-wide
//! scanner sees — it never observes host↔host traffic.
//!
//! Hosts are spawned by a [`HostFactory`] on the first packet addressed to
//! them and torn down when they declare themselves finished, so a scan of
//! millions of addresses only keeps live connections in memory.

use crate::link::{Direction, Link, LinkConfig};
use crate::time::{Duration, Instant};
use crate::trace::{Dir, Trace};
use crate::wheel::{TimerId, TimerWheel};
use iw_telemetry::trace::Tracer;
pub use iw_telemetry::AddrMap;
use iw_wire::pool::{BufferPool, Packet, PacketBuf, PoolStats};
use std::collections::hash_map::Entry;

/// Names one timer of one endpoint: each endpoint has at most one
/// pending timer per token. Arming a token that is pending moves that
/// timer ([`Effects::arm`]); [`Effects::cancel`] removes it; a host that
/// despawns takes its pending timers with it. A fire is delivered to the
/// endpoint that armed it, which still checks its own state — a timer
/// can come due for a deadline the endpoint has not reported as moved.
pub type TimerToken = u64;

/// What an endpoint wants done after handling an event.
///
/// The kernel applies the cancels first, then the arms in order, then
/// the transmissions: cancelling and re-arming a token in one call
/// leaves it armed.
#[derive(Debug, Default)]
pub struct Effects {
    /// IPv4 datagrams to transmit (routed by destination address).
    pub tx: Vec<Packet>,
    /// Timers to arm, as (delay, token).
    pub timers: Vec<(Duration, TimerToken)>,
    /// Pending timers to remove, by token.
    pub cancels: Vec<TimerToken>,
    /// The endpoint is done and may be deallocated (hosts only; the
    /// scanner ignores this flag).
    pub finished: bool,
    /// Undeclared state changes (hosts only; into [`SimStats::undeclared_edges`]).
    pub undeclared_edges: u64,
    /// The buffer pool emissions draw from. Every `Effects` brings its
    /// own: the kernel keeps one `Effects` per simulation, so that pool is
    /// the world's; a test's `Effects::default()` gets a private one.
    pool: BufferPool,
}

impl Effects {
    /// Check out a recycled small-class packet buffer to emit into; send
    /// the frozen result with [`Effects::send`]. The `iw_wire` datagram
    /// builders take [`Effects::pool`] instead and size the slab to the
    /// datagram.
    pub fn buffer(&self) -> PacketBuf {
        self.pool.take()
    }

    /// The pool emissions draw from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Queue a datagram for transmission (a frozen [`PacketBuf`], or a
    /// plain `Vec<u8>` on cold/compatibility paths).
    pub fn send(&mut self, pkt: impl Into<Packet>) {
        self.tx.push(pkt.into());
    }

    /// Arm the timer `token` names to fire `delay` from now, moving it if
    /// it is pending. A move to the instant it is already due at keeps
    /// its place among same-instant events.
    pub fn arm(&mut self, delay: Duration, token: TimerToken) {
        self.timers.push((delay, token));
    }

    /// Remove the pending timer `token` names (nothing if none is).
    pub fn cancel(&mut self, token: TimerToken) {
        self.cancels.push(token);
    }
}

/// A packet-handling actor: the scanner, or one simulated host.
pub trait Endpoint {
    /// An IPv4 datagram addressed to this endpoint arrived.
    fn on_packet(&mut self, pkt: &[u8], now: Instant, fx: &mut Effects);
    /// The timer `token` came due. It is no longer pending: keeping it
    /// running means arming it again.
    fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects);
}

/// Creates host endpoints on demand.
pub trait HostFactory {
    /// Instantiate the host behind `ip` (host-order address), or `None` if
    /// the address is unrouted (the packet disappears, like on the real
    /// Internet).
    fn create(&mut self, ip: u32) -> Option<(Box<dyn Endpoint>, LinkConfig)>;
}

/// Blanket impl so closures can serve as factories in tests.
impl<F> HostFactory for F
where
    F: FnMut(u32) -> Option<(Box<dyn Endpoint>, LinkConfig)>,
{
    fn create(&mut self, ip: u32) -> Option<(Box<dyn Endpoint>, LinkConfig)> {
        self(ip)
    }
}

/// Kernel tuning and accounting options.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Seed mixed into every per-link RNG.
    pub seed: u64,
    /// Record a packet trace (validation runs only; costs memory).
    pub record_trace: bool,
    /// Profile the event loop: count shard-scoped spans (timer-wheel
    /// advances, packet fan-out batches) in the kernel's [`Tracer`].
    pub profile: bool,
}

/// Aggregate statistics, the raw material of the §3.4 efficiency numbers.
///
/// Stats from independent shard simulations combine with `+=` (see
/// [`std::ops::AddAssign`] below): every field is a sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Datagrams the scanner transmitted.
    pub scanner_tx: u64,
    /// Datagrams delivered to the scanner.
    pub scanner_rx: u64,
    /// Datagrams hosts transmitted.
    pub host_tx: u64,
    /// Datagrams delivered to hosts.
    pub host_rx: u64,
    /// Datagrams lost on the way to hosts (link drop, no host, unparseable).
    pub lost_fwd: u64,
    /// Datagrams lost on the way to the scanner.
    pub lost_rev: u64,
    /// Datagrams lost in either direction: `lost_fwd + lost_rev`.
    pub lost: u64,
    /// Extra copies links delivered to hosts (link duplication).
    pub dup_fwd: u64,
    /// Extra copies links delivered to the scanner.
    pub dup_rev: u64,
    /// Bytes the scanner transmitted.
    pub scanner_tx_bytes: u64,
    /// Bytes delivered to the scanner.
    pub scanner_rx_bytes: u64,
    /// Host endpoints spawned.
    pub hosts_spawned: u64,
    /// Events processed.
    pub events: u64,
    /// Fresh slabs the packet-buffer pool allocated (lifetime total).
    pub pool_allocations: u64,
    /// Buffers the pool recycled through the free list instead of
    /// allocating (lifetime total).
    pub pool_recycled: u64,
    /// Pool buffers checked out and not yet returned. Zero once a scan
    /// drains; anything else is a leak.
    pub pool_outstanding: u64,
    /// Host timers that came due for a host that is not live.
    pub stale_timers: u64,
    /// Undeclared state changes hosts reported ([`Effects::undeclared_edges`]).
    pub undeclared_edges: u64,
}

impl std::ops::AddAssign for SimStats {
    fn add_assign(&mut self, rhs: SimStats) {
        self.scanner_tx += rhs.scanner_tx;
        self.scanner_rx += rhs.scanner_rx;
        self.host_tx += rhs.host_tx;
        self.host_rx += rhs.host_rx;
        self.lost_fwd += rhs.lost_fwd;
        self.lost_rev += rhs.lost_rev;
        self.lost += rhs.lost;
        self.dup_fwd += rhs.dup_fwd;
        self.dup_rev += rhs.dup_rev;
        self.scanner_tx_bytes += rhs.scanner_tx_bytes;
        self.scanner_rx_bytes += rhs.scanner_rx_bytes;
        self.hosts_spawned += rhs.hosts_spawned;
        self.events += rhs.events;
        self.pool_allocations += rhs.pool_allocations;
        self.pool_recycled += rhs.pool_recycled;
        self.pool_outstanding += rhs.pool_outstanding;
        self.stale_timers += rhs.stale_timers;
        self.undeclared_edges += rhs.undeclared_edges;
    }
}

#[derive(Debug)]
enum EventKind {
    ToHost { ip: u32, pkt: Packet },
    ToScanner { pkt: Packet },
    HostTimer { ip: u32, token: TimerToken },
    ScannerTimer { token: TimerToken },
}

const _: () = assert!(
    crate::wheel::node_bytes::<EventKind>() <= 48,
    "the wheel keeps one node per pending event, ~33 k at dense_http's \
     peak: a node past 48 B costs what the index buckets saved"
);

struct HostSlot {
    endpoint: Box<dyn Endpoint>,
    /// The host's pending timers, one per token (a host holds about one
    /// per live connection).
    timers: Vec<(TimerToken, TimerId)>,
}

/// The scanner's pending timers, one per token.
type TokenMap = AddrMap<TimerId, TimerToken>;

/// The simulation: one scanner endpoint `S`, hosts from factory `F`.
pub struct Sim<S: Endpoint, F: HostFactory> {
    scanner: S,
    factory: F,
    config: SimConfig,
    now: Instant,
    queue: TimerWheel<EventKind>,
    next_seq: u64,
    scanner_timers: TokenMap,
    hosts: AddrMap<HostSlot>,
    /// Links persist across host despawn/respawn: the network path (and
    /// its loss-process state, including scripted drop counters) exists
    /// independently of whether the endpoint is in memory.
    links: AddrMap<Link>,
    /// The one `Effects` every endpoint call writes into, drained after
    /// each call: its vectors keep the capacity of the largest batch so
    /// far, so a pacing tick's hundreds of SYNs never regrow them. It
    /// holds the world's packet-buffer pool, so every endpoint emits into
    /// the same arena and buffers recycle through one free list.
    fx: Effects,
    stats: SimStats,
    trace: Trace,
    /// Hot-path span tracer (enabled by [`SimConfig::profile`]).
    tracer: Tracer,
}

impl<S: Endpoint, F: HostFactory> Sim<S, F> {
    /// Build a simulation around a scanner and a host factory.
    pub fn new(scanner: S, factory: F, config: SimConfig) -> Self {
        let tracer = Tracer::new(config.profile);
        Sim {
            scanner,
            factory,
            config,
            now: Instant::ZERO,
            queue: TimerWheel::new(),
            next_seq: 0,
            scanner_timers: TokenMap::default(),
            hosts: AddrMap::default(),
            links: AddrMap::default(),
            fx: Effects::default(),
            stats: SimStats::default(),
            trace: Trace::new(),
            tracer,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Accumulated statistics, including the pool counters as of now.
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        stats.lost = stats.lost_fwd + stats.lost_rev;
        let pool = self.fx.pool.stats();
        stats.pool_allocations = pool.allocated;
        stats.pool_recycled = pool.recycled;
        stats.pool_outstanding = pool.outstanding;
        stats
    }

    /// Raw counters from the shared packet-buffer pool (leak checks).
    pub fn pool_stats(&self) -> PoolStats {
        self.fx.pool.stats()
    }

    /// The recorded trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the recorded trace out of the kernel (harvest).
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// The hot-path span tracer (empty unless `profile` was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Take the span tracer out of the kernel (for merging into the
    /// scan-level trace at harvest time).
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Immutable access to the scanner endpoint (for result harvesting).
    pub fn scanner(&self) -> &S {
        &self.scanner
    }

    /// Mutable access to the scanner endpoint.
    pub fn scanner_mut(&mut self) -> &mut S {
        &mut self.scanner
    }

    /// Number of live host endpoints (diagnostic).
    pub fn live_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Whether nothing is scheduled: the world has drained.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Invoke the scanner directly (e.g. to start the scan) and apply the
    /// effects it produces.
    pub fn kick_scanner(&mut self, f: impl FnOnce(&mut S, Instant, &mut Effects)) {
        f(&mut self.scanner, self.now, &mut self.fx);
        self.apply_scanner_effects();
    }

    fn schedule(&mut self, delay: Duration, kind: EventKind) {
        self.queue.push(self.now + delay, self.next_seq, kind);
        self.next_seq += 1;
    }

    /// Schedule and route what the scanner just wrote into `self.fx`.
    /// The vectors are drained in place, except `tx`, which is lent out
    /// for the drain (routing needs `&mut self`) and handed back empty
    /// with its capacity.
    fn apply_scanner_effects(&mut self) {
        for token in self.fx.cancels.drain(..) {
            if let Some(id) = self.scanner_timers.remove(&token) {
                self.queue.cancel(id);
            }
        }
        for (delay, token) in self.fx.timers.drain(..) {
            let (at, kind) = (self.now + delay, EventKind::ScannerTimer { token });
            match self.scanner_timers.entry(token) {
                Entry::Occupied(mut e) => {
                    let id = arm(
                        &mut self.queue,
                        &mut self.next_seq,
                        at,
                        Some(*e.get()),
                        kind,
                    );
                    e.insert(id);
                }
                Entry::Vacant(e) => {
                    e.insert(arm(&mut self.queue, &mut self.next_seq, at, None, kind));
                }
            }
        }
        let mut tx = std::mem::take(&mut self.fx.tx);
        // A multi-packet batch is the fan-out hot path (pacing grants);
        // single replies are too common to be worth a span each.
        if self.tracer.is_enabled() && tx.len() >= 2 {
            self.tracer.instant_shard(self.now.as_nanos(), "sim.fanout");
        }
        for pkt in tx.drain(..) {
            self.route_from_scanner(pkt);
        }
        self.fx.tx = tx;
        self.fx.finished = false; // hosts only; the scanner's is ignored
    }

    /// As [`Self::apply_scanner_effects`], for the host at `ip`.
    /// A host that finished is dropped with its pending timers, and what
    /// it armed or cancelled in the same call is moot.
    fn apply_host_effects(&mut self, ip: u32) {
        if std::mem::take(&mut self.fx.finished) {
            if let Some(slot) = self.hosts.remove(&ip) {
                for (_, id) in slot.timers {
                    self.queue.cancel(id);
                }
            }
        } else if let Some(slot) = self.hosts.get_mut(&ip) {
            for token in self.fx.cancels.drain(..) {
                if let Some(k) = slot.timers.iter().position(|(t, _)| *t == token) {
                    self.queue.cancel(slot.timers.swap_remove(k).1);
                }
            }
            for (delay, token) in self.fx.timers.drain(..) {
                let (at, kind) = (self.now + delay, EventKind::HostTimer { ip, token });
                let (queue, seq) = (&mut self.queue, &mut self.next_seq);
                match slot.timers.iter_mut().find(|(t, _)| *t == token) {
                    Some((_, id)) => *id = arm(queue, seq, at, Some(*id), kind),
                    None => {
                        let id = arm(queue, seq, at, None, kind);
                        slot.timers.reserve_exact(1);
                        slot.timers.push((token, id));
                    }
                }
            }
        }
        self.fx.cancels.clear();
        self.fx.timers.clear();
        self.stats.undeclared_edges += std::mem::take(&mut self.fx.undeclared_edges);
        let mut tx = std::mem::take(&mut self.fx.tx);
        for pkt in tx.drain(..) {
            self.route_from_host(ip, pkt);
        }
        self.fx.tx = tx;
    }

    fn route_from_scanner(&mut self, pkt: Packet) {
        self.stats.scanner_tx += 1;
        self.stats.scanner_tx_bytes += pkt.len() as u64;
        // Destination address straight out of the IPv4 header; a full parse
        // happens at the receiving endpoint.
        let Some(dst) = dst_addr(&pkt) else {
            self.stats.lost_fwd += 1;
            return;
        };
        if self.config.record_trace {
            self.trace.record(self.now, Dir::ScannerToHost, &pkt);
        }
        if !self.hosts.contains_key(&dst) && !self.spawn_host(dst) {
            self.stats.lost_fwd += 1;
            return;
        }
        // A live host's link exists: links are built before the slot and
        // never removed. A miss goes uncounted, for the conservation
        // invariant to report.
        let Some(link) = self.links.get_mut(&dst) else {
            return;
        };
        let arrivals = link.transit(Direction::Forward);
        match arrivals.len() {
            0 => self.stats.lost_fwd += 1,
            n => self.stats.dup_fwd += n as u64 - 1,
        }
        for delay in arrivals {
            self.schedule(
                delay,
                EventKind::ToHost {
                    ip: dst,
                    pkt: pkt.clone(),
                },
            );
        }
    }

    fn route_from_host(&mut self, ip: u32, pkt: Packet) {
        self.stats.host_tx += 1;
        if self.config.record_trace {
            self.trace.record(self.now, Dir::HostToScanner, &pkt);
        }
        // As in `route_from_scanner`, a miss goes uncounted.
        let Some(link) = self.links.get_mut(&ip) else {
            return;
        };
        let arrivals = link.transit(Direction::Reverse);
        match arrivals.len() {
            0 => self.stats.lost_rev += 1,
            n => self.stats.dup_rev += n as u64 - 1,
        }
        for delay in arrivals {
            self.schedule(delay, EventKind::ToScanner { pkt: pkt.clone() });
        }
    }

    /// Instantiate (or re-instantiate) the host at `ip`; the link is
    /// created once and kept for the lifetime of the simulation.
    fn spawn_host(&mut self, ip: u32) -> bool {
        match self.factory.create(ip) {
            Some((endpoint, link_config)) => {
                self.links
                    .entry(ip)
                    .or_insert_with(|| Link::new(link_config, self.config.seed ^ u64::from(ip)));
                self.hosts.insert(
                    ip,
                    HostSlot {
                        endpoint,
                        timers: Vec::new(),
                    },
                );
                self.stats.hosts_spawned += 1;
                true
            }
            None => false,
        }
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must not run backwards");
        if self.tracer.is_enabled() && at > self.now {
            // The wheel advanced: idle virtual time between events.
            (self.tracer).record_shard(self.now.as_nanos(), at.as_nanos(), "wheel.advance");
        }
        self.now = at;
        self.stats.events += 1;
        match kind {
            EventKind::ToScanner { pkt } => {
                self.stats.scanner_rx += 1;
                self.stats.scanner_rx_bytes += pkt.len() as u64;
                self.scanner.on_packet(&pkt, self.now, &mut self.fx);
                self.apply_scanner_effects();
            }
            EventKind::ScannerTimer { token } => {
                self.scanner_timers.remove(&token);
                self.scanner.on_timer(token, self.now, &mut self.fx);
                self.apply_scanner_effects();
            }
            EventKind::ToHost { ip, pkt } => {
                // A despawned host is a memory optimization, not a
                // semantic statement: a packet already in flight when the
                // host idled out must still find it, so respawn on demand
                // (host state is a pure function of the address).
                if !self.hosts.contains_key(&ip) {
                    self.spawn_host(ip);
                }
                if let Some(slot) = self.hosts.get_mut(&ip) {
                    self.stats.host_rx += 1;
                    slot.endpoint.on_packet(&pkt, self.now, &mut self.fx);
                    self.apply_host_effects(ip);
                }
            }
            EventKind::HostTimer { ip, token } => {
                // A despawned host's timers left with it, so the slot is
                // the one that armed this timer; a fire without one is stale.
                let Some(slot) = self.hosts.get_mut(&ip) else {
                    self.stats.stale_timers += 1;
                    return true;
                };
                if let Some(k) = slot.timers.iter().position(|(t, _)| *t == token) {
                    slot.timers.swap_remove(k);
                }
                slot.endpoint.on_timer(token, self.now, &mut self.fx);
                self.apply_host_effects(ip);
            }
        }
        true
    }

    /// Run until the event queue drains or `deadline` passes.
    ///
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Instant) -> u64 {
        let mut n = 0;
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        n
    }

    /// Run until the queue is completely empty.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }
}

/// Arm a keyed timer for `at`: push it, or move the entry `pending`
/// names. A move to the instant it is already due at keeps that entry,
/// and with it its place among same-instant events. Every arm takes a
/// sequence number, so the entries that are pushed carry the numbers an
/// unkeyed queue would give them.
fn arm(
    queue: &mut TimerWheel<EventKind>,
    next_seq: &mut u64,
    at: Instant,
    pending: Option<TimerId>,
    kind: EventKind,
) -> TimerId {
    let seq = *next_seq;
    *next_seq += 1;
    if let Some(id) = pending {
        if queue.deadline(id) == Some(at) {
            return id;
        }
        queue.cancel(id);
    }
    queue.push_cancellable(at, seq, kind)
}

fn dst_addr(pkt: &[u8]) -> Option<u32> {
    pkt.get(16..20)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire_shim::*;

    /// Minimal hand-rolled IPv4-ish datagrams for kernel tests: we only
    /// need a valid destination-address field at bytes 16..20.
    mod iw_wire_shim {
        pub fn fake_pkt(dst: u32, tag: u8) -> Vec<u8> {
            let mut pkt = vec![0u8; 21];
            pkt[16..20].copy_from_slice(&dst.to_be_bytes());
            pkt[20] = tag;
            pkt
        }
    }

    /// Host that echoes every packet back with the tag incremented.
    struct Echo {
        my_ip: u32,
        seen: u32,
    }

    impl Endpoint for Echo {
        fn on_packet(&mut self, pkt: &[u8], _now: Instant, fx: &mut Effects) {
            self.seen += 1;
            // Reply to the scanner: destination is "the scanner" which the
            // kernel routes by construction; we keep our IP in the header
            // so the test can identify the sender.
            fx.send(fake_pkt(self.my_ip, pkt[20] + 1));
        }
        fn on_timer(&mut self, _token: TimerToken, _now: Instant, _fx: &mut Effects) {}
    }

    /// Scanner that sends one packet to each of `targets` when kicked and
    /// records replies.
    #[derive(Default)]
    struct TestScanner {
        replies: Vec<u8>,
        timer_fired: Vec<TimerToken>,
        fired_at: Vec<Instant>,
    }

    impl Endpoint for TestScanner {
        fn on_packet(&mut self, pkt: &[u8], _now: Instant, _fx: &mut Effects) {
            self.replies.push(pkt[20]);
        }
        fn on_timer(&mut self, token: TimerToken, now: Instant, fx: &mut Effects) {
            self.timer_fired.push(token);
            self.fired_at.push(now);
            if token == 7 {
                fx.arm(Duration::from_millis(1), 8);
            }
        }
    }

    fn echo_factory(ip: u32) -> Option<(Box<dyn Endpoint>, LinkConfig)> {
        if ip == 0xdead {
            None // unrouted
        } else {
            Some((Box::new(Echo { my_ip: ip, seen: 0 }), LinkConfig::testbed()))
        }
    }

    #[test]
    fn packet_round_trip_and_lazy_spawn() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.send(fake_pkt(1, 10));
            fx.send(fake_pkt(2, 20));
        });
        assert_eq!(sim.live_hosts(), 2, "hosts spawn on first packet");
        sim.run_to_completion();
        let mut replies = sim.scanner().replies.clone();
        replies.sort_unstable();
        assert_eq!(replies, vec![11, 21]);
        assert_eq!(sim.stats().hosts_spawned, 2);
        assert_eq!(sim.stats().scanner_tx, 2);
        assert_eq!(sim.stats().scanner_rx, 2);
    }

    #[test]
    fn every_datagram_is_delivered_or_lost_once_per_copy() {
        let lossy = |ip: u32| -> Option<(Box<dyn Endpoint>, LinkConfig)> {
            let link = LinkConfig {
                dup: 0.3,
                ..LinkConfig::testbed().with_loss(0.3)
            };
            Some((Box::new(Echo { my_ip: ip, seen: 0 }), link))
        };
        let mut sim = Sim::new(TestScanner::default(), lossy, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            for ip in 1..=200 {
                fx.send(fake_pkt(ip, 0));
            }
        });
        sim.run_to_completion();
        let s = sim.stats();
        assert!(s.lost_fwd * s.lost_rev * s.dup_fwd * s.dup_rev > 0, "{s:?}");
        assert_eq!(s.scanner_tx + s.dup_fwd, s.host_rx + s.lost_fwd);
        assert_eq!(s.host_tx + s.dup_rev, s.scanner_rx + s.lost_rev);
        assert_eq!(s.lost, s.lost_fwd + s.lost_rev);
    }

    #[test]
    fn a_host_timer_without_its_host_is_counted_stale() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.schedule(Duration::ZERO, EventKind::HostTimer { ip: 9, token: 1 });
        assert!(sim.step());
        assert_eq!(sim.stats().stale_timers, 1);
        assert!(sim.is_drained());
    }

    #[test]
    fn unrouted_address_is_silently_dropped() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| fx.send(fake_pkt(0xdead, 1)));
        sim.run_to_completion();
        assert!(sim.scanner().replies.is_empty());
        assert_eq!(sim.stats().lost, 1);
        assert_eq!(sim.live_hosts(), 0);
    }

    #[test]
    fn timers_fire_in_order_and_can_rearm() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.arm(Duration::from_millis(5), 7);
            fx.arm(Duration::from_millis(1), 3);
        });
        sim.run_to_completion();
        assert_eq!(sim.scanner().timer_fired, vec![3, 7, 8]);
        assert_eq!(sim.now(), Instant::ZERO + Duration::from_millis(6));
    }

    #[test]
    fn finished_host_is_deallocated() {
        struct OneShot;
        impl Endpoint for OneShot {
            fn on_packet(&mut self, _pkt: &[u8], _now: Instant, fx: &mut Effects) {
                fx.finished = true;
            }
            fn on_timer(&mut self, _t: TimerToken, _n: Instant, _fx: &mut Effects) {}
        }
        let factory = |_ip: u32| {
            Some((
                Box::new(OneShot) as Box<dyn Endpoint>,
                LinkConfig::testbed(),
            ))
        };
        let mut sim = Sim::new(TestScanner::default(), factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| fx.send(fake_pkt(5, 0)));
        sim.run_to_completion();
        assert_eq!(sim.live_hosts(), 0);
    }

    fn ms(n: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(n)
    }

    #[test]
    fn a_rearm_fires_once_at_the_new_deadline() {
        // Later and earlier alike: the token names one timer, and the
        // arm moves it.
        for (first, second) in [(5, 9), (9, 5)] {
            let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
            sim.kick_scanner(|_, _, fx| fx.arm(Duration::from_millis(first), 1));
            sim.kick_scanner(|_, _, fx| fx.arm(Duration::from_millis(second), 1));
            sim.run_to_completion();
            assert_eq!(sim.scanner().timer_fired, vec![1]);
            assert_eq!(sim.scanner().fired_at, vec![ms(second)]);
        }
    }

    #[test]
    fn a_rearm_to_the_same_instant_keeps_its_sequence() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.arm(Duration::from_millis(5), 1);
            fx.arm(Duration::from_millis(5), 2);
        });
        // Armed again for the instant it is due at: still ahead of 2.
        sim.kick_scanner(|_, _, fx| fx.arm(Duration::from_millis(5), 1));
        sim.run_to_completion();
        assert_eq!(sim.scanner().timer_fired, vec![1, 2]);
    }

    #[test]
    fn cancel_removes_the_timer_before_the_arms_of_the_call() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.arm(Duration::from_millis(5), 1);
            fx.arm(Duration::from_millis(6), 2);
            fx.arm(Duration::from_millis(7), 3);
        });
        sim.kick_scanner(|_, _, fx| {
            fx.cancel(1);
            fx.cancel(4); // nothing pending: nothing happens
                          // Cancels apply first, so this pair moves 3 to 8 ms.
            fx.arm(Duration::from_millis(8), 3);
            fx.cancel(3);
        });
        sim.run_to_completion();
        assert_eq!(sim.scanner().timer_fired, vec![2, 3]);
        assert_eq!(sim.scanner().fired_at, vec![ms(6), ms(8)]);
    }

    #[test]
    fn events_count_only_fired_timers() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            for token in 0..10 {
                fx.arm(Duration::from_millis(5 + token), token);
            }
            fx.arm(Duration::from_millis(30), 0);
        });
        sim.kick_scanner(|_, _, fx| (1..9).for_each(|token| fx.cancel(token)));
        sim.run_to_completion();
        assert_eq!(sim.scanner().timer_fired, vec![9, 0]);
        assert_eq!(
            sim.stats().events,
            2,
            "moved and cancelled entries are no events"
        );
    }

    #[test]
    fn a_despawned_hosts_timers_never_fire() {
        // Tag 0 arms a one-second timer, tag 1 finishes the host, tag 2
        // just arrives. The host despawns with its timer pending and is
        // respawned before the deadline: the new host never armed it.
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Armer(Rc<RefCell<Vec<TimerToken>>>);
        impl Endpoint for Armer {
            fn on_packet(&mut self, pkt: &[u8], _n: Instant, fx: &mut Effects) {
                match pkt[20] {
                    0 => fx.arm(Duration::from_secs(1), 9),
                    1 => fx.finished = true,
                    _ => {}
                }
            }
            fn on_timer(&mut self, token: TimerToken, _n: Instant, _fx: &mut Effects) {
                self.0.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let log = fired.clone();
        let factory = move |_ip: u32| {
            Some((
                Box::new(Armer(log.clone())) as Box<dyn Endpoint>,
                LinkConfig::testbed(),
            ))
        };
        let mut sim = Sim::new(TestScanner::default(), factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.send(fake_pkt(1, 0));
            fx.send(fake_pkt(1, 1));
        });
        sim.run_until(ms(100));
        assert_eq!(sim.live_hosts(), 0, "the host finished");
        sim.kick_scanner(|_, _, fx| fx.send(fake_pkt(1, 2)));
        sim.run_to_completion();
        assert_eq!(sim.live_hosts(), 1, "respawned");
        assert!(fired.borrow().is_empty(), "{:?}", fired.borrow());
        assert_eq!(sim.stats().events, 3, "three deliveries");
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            fx.arm(Duration::from_millis(1), 1);
            fx.arm(Duration::from_secs(10), 2);
        });
        sim.run_until(Instant::ZERO + Duration::from_secs(1));
        assert_eq!(sim.scanner().timer_fired, vec![1]);
        sim.run_to_completion();
        assert_eq!(sim.scanner().timer_fired, vec![1, 2]);
    }

    #[test]
    fn deterministic_event_ordering_at_equal_times() {
        // Two packets to the same host with identical link delay must
        // arrive in send order (seq tiebreaker).
        struct Recorder {
            tags: Vec<u8>,
        }
        impl Endpoint for Recorder {
            fn on_packet(&mut self, pkt: &[u8], _n: Instant, _fx: &mut Effects) {
                self.tags.push(pkt[20]);
            }
            fn on_timer(&mut self, _t: TimerToken, _n: Instant, _fx: &mut Effects) {}
        }
        // Recorder lives inside the sim; observe via host_rx order using a
        // shared log.
        use std::cell::RefCell;
        use std::rc::Rc;
        let log = Rc::new(RefCell::new(Vec::new()));
        struct SharedRecorder(Rc<RefCell<Vec<u8>>>);
        impl Endpoint for SharedRecorder {
            fn on_packet(&mut self, pkt: &[u8], _n: Instant, _fx: &mut Effects) {
                self.0.borrow_mut().push(pkt[20]);
            }
            fn on_timer(&mut self, _t: TimerToken, _n: Instant, _fx: &mut Effects) {}
        }
        let log2 = log.clone();
        let factory = move |_ip: u32| {
            Some((
                Box::new(SharedRecorder(log2.clone())) as Box<dyn Endpoint>,
                LinkConfig::testbed(),
            ))
        };
        let mut sim = Sim::new(TestScanner::default(), factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            for tag in 0..10 {
                fx.send(fake_pkt(1, tag));
            }
        });
        sim.run_to_completion();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<u8>>());
        let _ = Recorder { tags: vec![] };
    }

    #[test]
    fn stats_add_assign_sums_every_field() {
        let mut a = SimStats {
            scanner_tx: 1,
            scanner_rx: 2,
            host_tx: 3,
            host_rx: 4,
            lost: 5,
            scanner_tx_bytes: 6,
            scanner_rx_bytes: 7,
            hosts_spawned: 8,
            events: 9,
            pool_allocations: 10,
            pool_recycled: 11,
            pool_outstanding: 12,
            lost_fwd: 13,
            lost_rev: 14,
            dup_fwd: 15,
            dup_rev: 16,
            stale_timers: 17,
            undeclared_edges: 18,
        };
        let b = SimStats {
            scanner_tx: 10,
            scanner_rx: 20,
            host_tx: 30,
            host_rx: 40,
            lost: 50,
            scanner_tx_bytes: 60,
            scanner_rx_bytes: 70,
            hosts_spawned: 80,
            events: 90,
            pool_allocations: 100,
            pool_recycled: 110,
            pool_outstanding: 120,
            lost_fwd: 130,
            lost_rev: 140,
            dup_fwd: 150,
            dup_rev: 160,
            stale_timers: 170,
            undeclared_edges: 180,
        };
        a += b;
        assert_eq!(
            a,
            SimStats {
                scanner_tx: 11,
                scanner_rx: 22,
                host_tx: 33,
                host_rx: 44,
                lost: 55,
                scanner_tx_bytes: 66,
                scanner_rx_bytes: 77,
                hosts_spawned: 88,
                events: 99,
                pool_allocations: 110,
                pool_recycled: 121,
                pool_outstanding: 132,
                lost_fwd: 143,
                lost_rev: 154,
                dup_fwd: 165,
                dup_rev: 176,
                stale_timers: 187,
                undeclared_edges: 198,
            }
        );
    }

    #[test]
    fn pool_buffers_return_after_the_run() {
        let mut sim = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        sim.kick_scanner(|_, _, fx| {
            for tag in 0..8 {
                let mut buf = fx.buffer();
                buf.extend_from_slice(&fake_pkt(1, tag));
                fx.send(buf.freeze());
            }
        });
        sim.run_to_completion();
        let pool = sim.pool_stats();
        assert_eq!(pool.outstanding, 0, "every pooled buffer must come home");
        assert_eq!(pool.high_water, 8, "all eight buffers were out at once");
        let stats = sim.stats();
        assert_eq!(stats.pool_outstanding, 0);
        assert_eq!(
            stats.pool_allocations + stats.pool_recycled,
            8,
            "every checkout is either a fresh slab or a recycled one"
        );
    }

    #[test]
    fn profiling_records_hot_path_spans() {
        let config = SimConfig {
            profile: true,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(TestScanner::default(), echo_factory, config);
        sim.kick_scanner(|_, _, fx| {
            fx.send(fake_pkt(1, 0));
            fx.send(fake_pkt(2, 0));
        });
        sim.run_to_completion();
        let tracer = sim.tracer();
        for name in ["sim.fanout", "wheel.advance"] {
            assert!(tracer.shard_spans_named(name) > 0, "{name}: {tracer:?}");
        }
        let named =
            tracer.shard_spans_named("sim.fanout") + tracer.shard_spans_named("wheel.advance");
        assert_eq!(
            named,
            tracer.shard_span_total(),
            "every span is counted by name"
        );
        // Profiling off (the default): the tracer stays empty.
        let mut quiet = Sim::new(TestScanner::default(), echo_factory, SimConfig::default());
        quiet.kick_scanner(|_, _, fx| fx.send(fake_pkt(1, 0)));
        quiet.run_to_completion();
        assert!(quiet.take_tracer().is_empty());
    }

    #[test]
    fn trace_recording_captures_both_directions() {
        let config = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(TestScanner::default(), echo_factory, config);
        sim.kick_scanner(|_, _, fx| fx.send(fake_pkt(1, 0)));
        sim.run_to_completion();
        let trace = sim.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.entries()[0].dir, Dir::ScannerToHost);
        assert_eq!(trace.entries()[1].dir, Dir::HostToScanner);
    }
}
