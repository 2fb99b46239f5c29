//! The stateful SYN and the resilience layer around it: SYN retries,
//! the `max_sessions` eviction order and the per-session watchdog.
//!
//! A silent target keeps no table entry: while it owes a SYN retry its
//! address waits in the SYN-retry FIFO whose level is the retries it has
//! sent. Once the budget is spent it waits one more backoff for its
//! give-up only when the flight recorder is on, since a give-up does
//! nothing but list the target as a casualty. [`Scanner::retry_owed`]
//! answers the ICMP fast-fail's "does an untracked address still owe a
//! SYN retry or its give-up?".

use super::{Scanner, Timer};
use crate::observe::Event;
use crate::results::{ErrorKind, Protocol};
use crate::retry::RetryLevels;
use iw_netsim::{Effects, Instant};
use iw_telemetry::{Counter, SessionEvent};
use std::collections::VecDeque;

/// The scanner state the resilience layer owns.
pub(super) struct Resilience {
    /// Stateful SYN retransmissions waiting out their backoff, one FIFO
    /// per level (level = retries already spent; with the flight recorder
    /// on, the last level is the give-up deadline).
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

    /// Whether an untracked address still owes a SYN retry or its
    /// give-up. In a TCP scan it does while retries run and no drain has
    /// cut them off, since a silent target keeps no entry. (An MTU probe
    /// sends no SYN.)
    pub(super) fn retry_owed(&self) -> bool {
        self.config.resilience.syn_retries > 0
            && !self.draining
            && self.config.protocol != Protocol::IcmpMtu
    }

    /// Send a target its first SYN and, if retries run, queue its first
    /// retry. The target takes no table entry until it answers.
    pub(super) fn send_stateful_syn(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        self.emit_syn(ip, 0, now, fx);
        if self.config.resilience.syn_retries > 0 {
            self.resilience.syn_retries.push(0, ip, now, fx);
        }
    }

    /// Send the target's (probe 0, conn 0) SYN, transmission `attempt`,
    /// and report it. Retries use the identical 4-tuple and ISN, so a
    /// SYN-ACK to any attempt validates against the same cookie.
    fn emit_syn(&mut self, ip: u32, attempt: u8, now: Instant, fx: &mut Effects) {
        let flow = self.obs.syn_flow();
        let isn = flow.isn(ip);
        self.send_syn(ip, flow.sport, isn, fx);
        self.obs.emit(now, ip, Event::Syn(isn, attempt));
    }

    /// Drop every queued SYN retransmission (graceful drain), with the
    /// SYNs of the silent targets no longer timed; returns how many.
    pub(super) fn drop_syn_retries(&mut self, now: Instant) -> usize {
        for (_, ip) in self.resilience.syn_retries.iter() {
            self.obs.emit(now, ip, Event::Untimed);
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
    /// target has no entry, and an entry means its answer (or an ICMP
    /// fast-fail) came first.
    fn syn_retry_fire(&mut self, ip: u32, level: usize, now: Instant, fx: &mut Effects) {
        if self.targets.get(ip).is_some() {
            return;
        }
        let retries = self.config.resilience.syn_retries;
        let attempt = level as u32 + 1;
        if attempt > retries {
            // Budget spent and still silent: give up on the target (its
            // SYN stopped being timed at the first retry, by Karn's
            // rule). The flight recorder lists it as a casualty — a
            // SYN-blackholed target is a failure worth a black box even
            // though no session existed.
            self.obs.emit(now, ip, Event::GaveUp);
            return;
        }
        // The observer applies Karn's rule to a retransmission: a later
        // SYN-ACK may answer either transmission, so it earns no RTT
        // sample and no handshake span.
        self.emit_syn(ip, attempt as u8, now, fx);
        // The give-up is queued only for the flight recorder: without it,
        // giving up changes nothing, and a target whose last SYN has
        // left holds nothing.
        if attempt < retries || self.config.telemetry.flight_recorder {
            self.resilience.syn_retries.push(level + 1, ip, now, fx);
        }
    }

    /// The per-session watchdog fired: force-conclude the session
    /// (tarpit/dribbler defense). A concluded session cancelled its
    /// watchdog, so a fire without one is stale.
    pub(super) fn watchdog_fire(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        let Some(session) = self.targets.session_mut(ip) else {
            self.obs.metrics.inc(Counter::InvariantStaleTimers);
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
