//! The stateful SYN and the resilience layer around it: SYN retries,
//! the `max_sessions` eviction order and the per-session watchdog.
//!
//! A silent classic target keeps no table entry: while it owes a SYN
//! retry (or, once the budget is spent, its give-up) its address waits in
//! the SYN-retry FIFO whose level is the retries it has sent. A promoted
//! target reads its count there too, beside its `Handshake` entry; one
//! promoted without SYN retries waits at level 0 for its give-up alone.
//! [`Scanner::retry_owed`] is the one answer to "does this address still
//! owe a SYN retry or its give-up?", which the ICMP fast-fail, the
//! flight-history sweep and the checkpoint's `pending` list all ask.

use super::{concluded_hold, Scanner, Timer};
use crate::observe::Event;
use crate::results::{ErrorKind, Protocol};
use crate::retry::RetryLevels;
use crate::target::Target;
use iw_netsim::{Effects, Instant};
use iw_telemetry::SessionEvent;
use iw_wire::tcp::{self, Flags};
use std::collections::VecDeque;

/// The scanner state the resilience layer owns.
pub(super) struct Resilience {
    /// Stateful SYN retransmissions waiting out their backoff, one FIFO
    /// per level (level = retries already spent; the last level is the
    /// give-up deadline).
    syn_retries: RetryLevels,
    /// Session creation order (oldest first) for `max_sessions` eviction.
    /// Maintained only when a cap is configured; may hold stale entries
    /// for already-finished sessions (skipped on eviction, lazily
    /// compacted on conclusion so it stays O(live sessions)).
    session_order: VecDeque<u32>,
}

impl Resilience {
    pub(super) fn new() -> Resilience {
        Resilience {
            syn_retries: RetryLevels::new(|level| Timer::SynRetry(level).token()),
            session_order: VecDeque::new(),
        }
    }

    pub(super) fn retry_backlog(&self) -> usize {
        self.syn_retries.len()
    }
}

impl Scanner {
    /// Depth of the eviction-order queue (diagnostics; lazy compaction
    /// keeps this O(live sessions), not O(total sessions started)).
    pub fn eviction_queue_len(&self) -> usize {
        self.resilience.session_order.len()
    }

    /// Whether an address in a given state still owes a SYN retry or its
    /// give-up. A promoted `Handshake` always does (a drain untracks
    /// them all), and so does an untracked address in a classic TCP scan
    /// while retries run and no drain has cut them off, since a silent
    /// target keeps no entry. (The discovery phase's own retries are
    /// stateless, an MTU probe sends no SYN, and every other state has
    /// its answer.) The answer is a closure, so a caller can ask it while
    /// it holds the scanner's fields.
    pub(super) fn retry_owed(&self) -> impl Fn(Option<Target>) -> bool {
        let untracked = self.config.resilience.syn_retries > 0
            && !self.draining
            && self.discovery.is_none()
            && self.config.protocol != Protocol::IcmpMtu;
        move |target| match target {
            None => untracked,
            Some(Target::Handshake) => true,
            Some(_) => false,
        }
    }

    /// Every unanswered stateful SYN with the retries it has sent, in
    /// address order: the checkpoint's `pending` list. Each waits in the
    /// FIFO of that level, for its next retry or its give-up, unless its
    /// answer came first.
    pub(super) fn pending_syns(&self) -> Vec<(u32, u32)> {
        let owed = self.retry_owed();
        let queued = self.resilience.syn_retries.iter();
        let mut pending: Vec<(u32, u32)> = queued
            .filter(|&(_, ip)| owed(self.targets.get(ip)))
            .map(|(level, ip)| (ip, level as u32))
            .collect();
        pending.sort_unstable();
        pending
    }

    /// Send the stateful SYN for a target — directly in classic mode, or
    /// at promotion time in stateless-first mode. From here on the
    /// target follows the exact classic lifecycle (RTT stamp, recorder
    /// stamp, stateful retry queue), which is what keeps responder
    /// verdicts byte-identical across the two modes. Only a promoted
    /// target takes an entry (`Handshake`, for its `max_sessions` slot).
    pub(super) fn send_stateful_syn(
        &mut self,
        ip: u32,
        promoted: bool,
        now: Instant,
        fx: &mut Effects,
    ) {
        if promoted {
            self.set_target(ip, Some(Target::Handshake), now);
        }
        // The SYN timestamp serves both the RTT histogram and the
        // handshake span, so either knob populates the map (the
        // sweep bounds it for silent targets in both cases).
        if self.config.telemetry.record_rtt || self.config.telemetry.record_spans {
            self.syn_ts.insert(ip, now);
        }
        let isn = self.emit_syn(ip, fx);
        self.obs.emit(now, ip, Event::Syn(isn));
        if self.config.resilience.syn_retries > 0 {
            self.resilience.syn_retries.push(0, ip, now, fx);
        } else if promoted {
            // Nothing retransmits this SYN, so only its give-up frees the
            // `max_sessions` slot when the SYN or its SYN-ACK is lost. It
            // waits as long as a concluded target absorbs late answers:
            // a shorter wait ends hosts whose SYN-ACK retransmission is
            // still on its way.
            let give_up = concluded_hold(0);
            (self.resilience.syn_retries).push_after(give_up, 0, ip, now, fx);
        }
    }

    /// Emit the stateless (probe 0, conn 0) SYN for a target and return
    /// its ISN. Retries use the identical 4-tuple and ISN, so a SYN-ACK
    /// to any attempt validates against the same cookie.
    fn emit_syn(&mut self, ip: u32, fx: &mut Effects) -> u32 {
        let sport = self.params.sport(0, 0, 0);
        let isn = self.cookie.isn(ip, sport, self.config.protocol.port());
        self.send_syn(ip, sport, isn, fx);
        isn
    }

    /// Drop every queued SYN retransmission (graceful drain), with the
    /// RTT stamps of the silent targets cut off; returns how many.
    pub(super) fn drop_syn_retries(&mut self) -> usize {
        for (_, ip) in self.resilience.syn_retries.iter() {
            self.syn_ts.remove(ip);
        }
        self.resilience.syn_retries.clear()
    }

    /// A level's drain timer fired: run [`Self::syn_retry_fire`] for
    /// every entry due by now — one wheel event per pacing batch, not one
    /// per target — and re-arm at the new head. A fire queues its target
    /// onto the *next* level, never this one, so the level stays sorted.
    pub(super) fn drain_syn_retries(&mut self, level: usize, now: Instant, fx: &mut Effects) {
        while let Some(ip) = self.resilience.syn_retries.pop_due(level, now) {
            self.syn_retry_fire(ip, level, now, fx);
        }
        self.resilience.syn_retries.rearm(level, now, fx);
    }

    /// A target's level-`level` stateful SYN backoff elapsed: retransmit
    /// if it is still silent and budget remains, and queue the next
    /// (doubled) level. The level is the retries already sent; a silent
    /// target has no entry, or a `Handshake` one if it was promoted, and
    /// any other entry means its answer (or an ICMP fast-fail) came first.
    fn syn_retry_fire(&mut self, ip: u32, level: usize, now: Instant, fx: &mut Effects) {
        let promoted = match self.targets.get(ip) {
            None => false,
            Some(Target::Handshake) => true,
            Some(_) => return,
        };
        let attempts = level as u32;
        if attempts >= self.config.resilience.syn_retries {
            // Budget spent and still silent: give up on the target (its
            // RTT stamp went with the first retry, by Karn's rule). The
            // flight recorder dumps the ring — a SYN-blackholed target is
            // a failure worth a black box even though no session existed.
            // A promoted target concludes: its discovery answer was
            // already spent.
            self.obs.emit(now, ip, Event::GaveUp);
            if promoted {
                self.set_target(ip, Some(Target::Concluded), now);
                self.try_drain_promotions(now, fx);
            }
            return;
        }
        let attempt = (attempts + 1) as u8;
        self.obs.emit(
            now,
            ip,
            Event::Session(SessionEvent::SynRetried { attempt }),
        );
        // Karn's rule: once a SYN is retransmitted, a later SYN-ACK is
        // ambiguous — it may answer either transmission — so the RTT
        // sample (and the handshake span it would start) is dropped
        // rather than attributing whole backoff periods to the wire.
        self.syn_ts.remove(ip);
        let isn = self.emit_syn(ip, fx);
        let (sport, dport) = (self.params.sport(0, 0, 0), self.config.protocol.port());
        let syn = tcp::Segment::bare(sport, dport, isn, 0, Flags::SYN, 65535);
        self.obs.emit(now, ip, Event::Wire(true, &syn));
        self.resilience.syn_retries.push(level + 1, ip, now, fx);
    }

    /// The per-session watchdog fired: if the session is somehow still
    /// running, force-conclude it (tarpit/dribbler defense).
    pub(super) fn watchdog_fire(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        let Some(session) = self.targets.session_mut(ip) else {
            return;
        };
        let out = session.force_conclude(ErrorKind::CollectTimeout);
        self.obs
            .emit(now, ip, Event::Session(SessionEvent::WatchdogForced));
        self.apply_session_output(ip, out, now, fx);
    }

    /// A SYN-ACK is about to open a session for `ip`: under a
    /// `max_sessions` cap it joins the eviction order, after the oldest
    /// live session made room for it if the cap is reached.
    pub(super) fn admit_session(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        let cap = self.config.resilience.max_sessions;
        if cap > 0 && self.targets.live() >= cap {
            self.evict_oldest(now, fx);
        }
        if cap > 0 {
            self.resilience.session_order.push_back(ip);
        }
    }

    /// Evict the oldest live session to stay under `max_sessions`.
    fn evict_oldest(&mut self, now: Instant, fx: &mut Effects) {
        while let Some(ip) = self.resilience.session_order.pop_front() {
            let Some(session) = self.targets.session_mut(ip) else {
                continue; // stale entry: that session already finished
            };
            let out = session.force_conclude(ErrorKind::CollectTimeout);
            self.obs
                .emit(now, ip, Event::Session(SessionEvent::SessionEvicted));
            self.apply_session_output(ip, out, now, fx);
            return;
        }
    }

    /// A session concluded. Lazily compact the eviction order:
    /// normally-concluded sessions leave stale entries behind, and
    /// without this the deque grows O(total sessions started) over a long
    /// campaign. Compacting only past 2× live (+ slack) keeps the
    /// amortized cost O(1) per conclusion.
    pub(super) fn compact_eviction_order(&mut self) {
        let live = self.targets.live();
        let order = &mut self.resilience.session_order;
        if self.config.resilience.max_sessions > 0 && order.len() > live * 2 + 16 {
            let targets = &self.targets;
            order.retain(|ip| targets.session(*ip).is_some());
        }
    }
}
