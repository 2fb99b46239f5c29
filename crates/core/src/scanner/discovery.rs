//! The stateless-first discovery phase (ZBanner-style): a discovery SYN
//! carries its whole flow state in the source port (the attempt) and the
//! ISN cookie, so a silent target costs at most its 4-byte address in a
//! retry FIFO per backoff window. A target earns a table entry only when
//! a cookie-valid SYN-ACK comes back (`Queued`), and the promotion queue
//! then feeds it to the classic stateful lifecycle as the `max_sessions`
//! cap allows.

use super::{Scanner, Timer};
use crate::cookie::{self, SynAckCheck};
use crate::retry::RetryLevels;
use crate::target::Target;
use iw_netsim::{Effects, Instant};
use iw_telemetry::{Counter, Gauge};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags};
use std::collections::VecDeque;

/// The scanner state the discovery phase owns.
pub(super) struct Discovery {
    /// Discovery retransmissions, one FIFO per level. Level `k` holds
    /// the targets whose attempt `k + 1` is due; a discovery-phase
    /// target has no table entry, so this is the only per-target state a
    /// silent target costs.
    retries: RetryLevels,
    /// `Queued` responders in discovery order. Drained FIFO whenever
    /// live sessions plus promoted handshakes in flight leave room under
    /// `max_sessions`: a session only appears when the SYN-ACK returns,
    /// so gating on sessions alone would flush the whole queue in one
    /// burst and evict everything past the cap.
    promotions: VecDeque<u32>,
}

impl Discovery {
    pub(super) fn new() -> Discovery {
        Discovery {
            retries: RetryLevels::new(|level| Timer::DiscoveryRetry(level).token()),
            promotions: VecDeque::new(),
        }
    }

    pub(super) fn retry_backlog(&self) -> usize {
        self.retries.len()
    }

    /// The promotion queue in drain order (the checkpoint's capture).
    pub(super) fn queued(&self) -> Vec<u32> {
        self.promotions.iter().copied().collect()
    }

    /// Drop every queued retransmission and promotion (graceful drain),
    /// returning how many were cut short.
    pub(super) fn clear(&mut self) -> usize {
        let dropped = self.retries.clear() + self.promotions.len();
        self.promotions.clear();
        dropped
    }
}

impl Scanner {
    /// Send a target its first discovery SYN. No table entry, no RTT
    /// stamp, no recorder stamp — a target earns table memory only at
    /// promotion. Its retransmission is one FIFO entry whose level names
    /// the attempt.
    pub(super) fn discover(&mut self, ip: u32, now: Instant, fx: &mut Effects) {
        self.obs.metrics.inc(Counter::DiscoverySyns);
        self.send_discovery_attempt(ip, 0, now, fx);
    }

    /// Emit the stateless discovery SYN for `attempt` and queue the next
    /// one while budget remains: the source port encodes the attempt, the
    /// ISN is the cookie for exactly that flow, so the eventual SYN-ACK
    /// names the transmission it answers.
    fn send_discovery_attempt(&mut self, ip: u32, attempt: u32, now: Instant, fx: &mut Effects) {
        let sport = cookie::discovery_sport(attempt);
        let isn = self
            .params
            .cookie
            .isn(ip, sport, self.config.protocol.port());
        self.send_syn(ip, sport, isn, fx);
        if attempt < self.config.resilience.syn_retries {
            if let Some(d) = &mut self.discovery {
                d.retries.push(attempt as usize, ip, now, fx);
            }
        }
    }

    /// A level's drain timer fired: retransmit to every entry due by now
    /// and re-arm at the new head (see `drain_syn_retries`).
    pub(super) fn drain_discovery_retries(&mut self, level: usize, now: Instant, fx: &mut Effects) {
        while let Some(ip) = self
            .discovery
            .as_mut()
            .and_then(|d| d.retries.pop_due(level, now))
        {
            self.discovery_retry_fire(ip, level, now, fx);
        }
        if let Some(d) = &mut self.discovery {
            d.retries.rearm(level, now, fx);
        }
    }

    /// A target's level-`level` discovery backoff elapsed: send attempt
    /// `level + 1` on a fresh source port unless the target already
    /// answered.
    fn discovery_retry_fire(&mut self, ip: u32, level: usize, now: Instant, fx: &mut Effects) {
        // One table probe per silent target: in stateless-first mode a
        // target has an entry only once an answer validated, and keeps it
        // for far longer than the retry schedule runs.
        if self.targets.get(ip).is_some() {
            return;
        }
        self.obs.metrics.inc(Counter::DiscoveryRetries);
        self.send_discovery_attempt(ip, level as u32 + 1, now, fx);
    }

    /// A discovery-flow segment arrived (destination port inside the
    /// discovery block). Every verdict path is cookie-gated; failures are
    /// counted by taxonomy and dropped without a verdict.
    pub(super) fn on_discovery_segment(
        &mut self,
        src: Ipv4Addr,
        seg: &tcp::Segment<'_>,
        now: Instant,
        fx: &mut Effects,
    ) {
        if self.draining {
            // A graceful drain is winding the scan down: late answers
            // earn neither a teardown RST nor a promotion.
            return;
        }
        let ip = src.to_u32();
        // Blind retransmissions draw duplicate answers, and every answer
        // after the first finds the target tracked: a responder is
        // promoted (or refused) exactly once.
        let known = self.targets.get(ip).is_some();
        if seg.flags.contains(Flags::SYN) && seg.flags.contains(Flags::ACK) {
            match self
                .params
                .cookie
                .classify_synack(ip, seg.dst_port, seg.src_port, seg.ack)
            {
                SynAckCheck::Valid => {
                    // Tear the stateless flow down either way: the host
                    // holds a half-open connection we will never use.
                    let rst =
                        tcp::Segment::bare(seg.dst_port, seg.src_port, seg.ack, 0, Flags::RST, 0);
                    fx.send(rst.datagram(self.config.source, src, &mut self.ident, fx.pool()));
                    if known {
                        self.obs.metrics.inc(Counter::DiscoveryDuplicates);
                        return;
                    }
                    self.set_target(ip, Some(Target::Queued), now);
                    self.obs.metrics.inc(Counter::DiscoveryValidated);
                    if let Some(d) = &mut self.discovery {
                        d.promotions.push_back(ip);
                    }
                    self.note_discovery_state();
                    self.try_drain_promotions(now, fx);
                }
                SynAckCheck::RawIsnEcho => {
                    self.obs.metrics.inc(Counter::DiscoveryRawIsnEcho);
                }
                SynAckCheck::Mismatch => {
                    self.obs.metrics.inc(Counter::DiscoveryCookieMismatch);
                }
            }
        } else if seg.flags.contains(Flags::RST) {
            if !self
                .params
                .cookie
                .validate(ip, seg.dst_port, seg.src_port, seg.ack)
            {
                self.obs.metrics.inc(Counter::DiscoverySpoofedRst);
                return;
            }
            // Same verdict as on the stateful path, no promotion needed.
            if !known {
                self.refusal(ip, now, fx);
            }
        }
    }

    /// Promote queued responders into stateful sessions while the
    /// `max_sessions` cap has room. Unlike classic mode (which evicts the
    /// oldest session on admission pressure), promotion *waits*: the
    /// queue is the back-pressure buffer, and concluded sessions pull the
    /// next responder in. A no-op outside stateless-first mode.
    pub(super) fn try_drain_promotions(&mut self, now: Instant, fx: &mut Effects) {
        if self.draining {
            return;
        }
        let cap = self.config.resilience.max_sessions;
        while let Some(d) = &mut self.discovery {
            // In-flight promotions hold a slot too: their sessions only
            // materialize one RTT later, when the SYN-ACK comes back.
            if cap > 0 && self.targets.live() + self.targets.promoted() >= cap {
                return;
            }
            let Some(ip) = d.promotions.pop_front() else {
                return;
            };
            self.obs.metrics.inc(Counter::DiscoveryPromoted);
            self.send_stateful_syn(ip, true, now, fx);
            self.note_discovery_state();
        }
    }

    /// Record the current per-target discovery footprint into the
    /// `scan.discovery.state_peak` gauge (the registry keeps the peak).
    /// This is the memory-model gate: the gauge counts distinct targets
    /// holding pre-session state — `Queued` responders plus promoted
    /// `Handshake`s. RTT stamps only exist for those same targets in
    /// stateless-first mode, so the gauge bounds them too: O(validated
    /// responders), never O(targets). (The retry FIFOs are the other
    /// per-target cost — a silent target's 4-byte address per backoff
    /// window, bounded by the rate; see [`Scanner::retry_backlog`].)
    fn note_discovery_state(&mut self) {
        let queued = self.discovery.as_ref().map_or(0, |d| d.promotions.len());
        let footprint = (queued + self.targets.promoted()) as u64;
        self.obs
            .metrics
            .gauge_set(Gauge::DiscoveryStatePeak, footprint);
    }
}
