//! Per-host probe sessions: the §4 scan configuration.
//!
//! "We decided to probe each host three times to account for tail loss
//! and count it successful if at least two out of three probes yield the
//! same result and … we require them to be the maximum of all three
//! probes. To further test if hosts adjust their IW based on the
//! announced MSS … we scan with an MSS of 64 B and 128 B. To ensure no
//! temporal changes at the host, all six probes (three for each MSS) are
//! sent after each other."

use crate::config::PROBE_BACKOFF;
use crate::cookie::CookieKey;
use crate::inference::{ConnConfig, ConnNote, ConnOutput, InferenceConn, TxBatch};
use crate::probe::{self, ProbeStep};
use crate::results::{ErrorKind, HostResult, HostVerdict, MssVerdict, ProbeOutcome, Protocol};
use iw_netsim::{Duration, Instant};
use iw_telemetry::{OutcomeKind, SessionEvent};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp;
use std::sync::Arc;

/// The most probes one host is sent (`mss_list.len() × probes_per_mss`;
/// the study's 2 × 3): what a session's outcome store holds.
/// [`crate::ScanConfig::validate`] refuses a larger plan.
pub const MAX_PROBES_PER_HOST: usize = 6;

/// Session-wide parameters: one per scan, shared by every session.
#[derive(Debug, Clone)]
pub struct SessionParams {
    /// Protocol under measurement (HTTP or TLS).
    pub protocol: Protocol,
    /// Probes per MSS value (3 in the study).
    pub probes_per_mss: u32,
    /// MSS values, in probe order ([64, 128] in the study).
    pub mss_list: Vec<u16>,
    /// First source port; each connection takes one from here up.
    pub base_sport: u16,
    /// Scanner address.
    pub source: Ipv4Addr,
    /// Scan seed (drives the ClientHello randoms).
    pub seed: u64,
    /// Exhaustion-verification knob (see [`ConnConfig::verify_exhaustion`]).
    pub verify_exhaustion: bool,
    /// How many times an `Error`/`Unreachable` probe outcome is retried on
    /// a fresh connection before being recorded (0 = record immediately).
    /// Retry `k` waits [`PROBE_BACKOFF`]` << k`.
    pub probe_retries: u32,
    /// The SYN-cookie key every connection's ISN is drawn from.
    pub cookie: CookieKey,
}

impl SessionParams {
    /// The study configuration for a protocol.
    pub fn study(protocol: Protocol, source: Ipv4Addr, seed: u64) -> SessionParams {
        SessionParams {
            protocol,
            probes_per_mss: 3,
            mss_list: vec![64, 128],
            base_sport: 40000,
            source,
            seed,
            verify_exhaustion: true,
            probe_retries: 0,
            cookie: CookieKey::new(seed),
        }
    }

    /// Total probes per host.
    pub fn total_probes(&self) -> u32 {
        self.probes_per_mss * self.mss_list.len() as u32
    }

    /// The source port of (probe, conn, attempt) — 2 connections max per
    /// probe; retry attempts stride past the whole base block so retry
    /// connections never collide with an earlier attempt's ports.
    pub fn sport(&self, probe_idx: u32, conn_idx: u8, attempt: u32) -> u16 {
        let block = (self.total_probes() * 2) as u16;
        self.base_sport
            .wrapping_add((attempt as u16).wrapping_mul(block))
            .wrapping_add((probe_idx * 2) as u16)
            .wrapping_add(u16::from(conn_idx))
    }
}

/// Output of feeding an event to a session.
#[derive(Debug, Default)]
pub struct SessionOutput {
    /// Segments to transmit to the session's host. One that carries the
    /// request is emitted with `request` as its payload.
    pub tx: TxBatch,
    /// The request bytes the segment marked as carrying them sends
    /// ([`ConnOutput::request`]).
    pub request: Vec<u8>,
    /// Deadline to be woken at.
    pub deadline: Option<Instant>,
    /// Present once: the finished host record.
    pub result: Option<HostResult>,
    /// Lifecycle transitions for the scan's telemetry (the scanner stamps
    /// them with host address and virtual time).
    pub events: Vec<SessionEvent>,
    /// Undeclared phase changes the connection machine took.
    pub undeclared_edges: u32,
}

/// A live measurement session against one host.
pub struct HostSession {
    ip: Ipv4Addr,
    params: Arc<SessionParams>,
    /// The target's known domain (Alexa scans). HTTP names the server by
    /// it in the Host header, or else by the literal address; TLS offers
    /// it as the SNI, and no SNI without it.
    domain: Option<Box<str>>,
    probe_idx: u32,
    /// The connection of the current probe: 0, or 1 for HTTP's follow-up.
    conn_idx: u8,
    /// Retry attempt of the current probe (0 = first try). Strides the
    /// source-port allocation so retry connections use fresh ports.
    attempt: u32,
    /// Retries consumed by the current probe; reset when the probe records.
    retries_used: u32,
    /// When set, the session is backing off; the next timer at/after this
    /// instant launches the retry connection.
    retry_at: Option<Instant>,
    conn: InferenceConn,
    /// Each concluded probe's outcome at its probe index (the first
    /// `probe_idx` are set): the whole plan in one fixed-size place. A
    /// probe's first connection leaves its outcome at its index while the
    /// follow-up runs.
    outcomes: [ProbeOutcome; MAX_PROBES_PER_HOST],
    done: bool,
    /// When the session was created (SYN-ACK arrival); session-lifetime
    /// telemetry measures from here.
    started: Instant,
    /// The deadline the scanner last armed the session's timer for. An
    /// arm moves the one pending timer the session's token names, so the
    /// scanner consults this to arm only when the deadline changed: an
    /// unchanged one is already pending. The scanner cancels the timer
    /// when the session concludes.
    armed: Option<Instant>,
}

const _: () = assert!(
    std::mem::size_of::<HostSession>() <= 368,
    "a responder-dense scan keeps every responder's session live at once \
     (dense_http: 12 900, so each byte here is ~13 KB there); a session \
     once added ~250 B of heap to its 368: its own copy of the scan's \
     parameters, one outcome vector per MSS and a formatted host name; \
     and it was 384 B with a boxed probe driver and a kept reassembly \
     buffer, which held ~340 B of capacity per live session"
);

impl HostSession {
    /// Start a session. The initial SYN for (probe 0, conn 0) was already
    /// sent statelessly by the scanner, so the returned output carries no
    /// SYN — feed the SYN-ACK that created this session via
    /// [`HostSession::on_segment`].
    pub fn new(
        ip: Ipv4Addr,
        params: Arc<SessionParams>,
        domain: Option<String>,
        now: Instant,
    ) -> HostSession {
        let domain = domain.map(String::into_boxed_str);
        let cfg = conn_config(&params, ip, domain.as_deref(), 0, 0, 0, None);
        // Reconstruct the conn machine in SynSent; discard its duplicate
        // SYN (already on the wire).
        let (conn, _discard) = InferenceConn::new(cfg, now);
        HostSession {
            ip,
            params,
            domain,
            outcomes: [ProbeOutcome::Unreachable; MAX_PROBES_PER_HOST],
            probe_idx: 0,
            conn_idx: 0,
            attempt: 0,
            retries_used: 0,
            retry_at: None,
            conn,
            done: false,
            started: now,
            armed: None,
        }
    }

    /// The target address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// When the session was created.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The MSS the current probe announces.
    pub fn current_mss(&self) -> u16 {
        let mss_idx = (self.probe_idx / self.params.probes_per_mss) as usize;
        self.params.mss_list[mss_idx.min(self.params.mss_list.len() - 1)]
    }

    /// Whether the session concluded.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the session's timer must be armed for `deadline`: true the
    /// first time each distinct deadline is reported, false for repeats
    /// (the timer is already pending for it).
    pub fn should_arm(&mut self, deadline: Instant) -> bool {
        if self.armed == Some(deadline) {
            return false;
        }
        self.armed = Some(deadline);
        true
    }

    /// Feed an inbound segment (already parsed; src is this host).
    pub fn on_segment(&mut self, seg: &tcp::Segment<'_>, now: Instant) -> SessionOutput {
        if self.done {
            return SessionOutput::default();
        }
        // Only the current connection's port is live; late packets from
        // completed connections are ignored (they were RST anyway).
        if seg.dst_port
            != self
                .params
                .sport(self.probe_idx, self.conn_idx, self.attempt)
        {
            return SessionOutput::default();
        }
        if self.retry_at.is_some() {
            // Backing off between attempts: nothing is in flight on the
            // current port yet, so any straggler is from a dead connection.
            return SessionOutput::default();
        }
        let out = self.conn.on_segment(*seg, now);
        self.absorb(out, now)
    }

    /// Timer wake-up.
    pub fn on_timer(&mut self, now: Instant) -> SessionOutput {
        if self.done {
            return SessionOutput::default();
        }
        if let Some(at) = self.retry_at {
            if now < at {
                return SessionOutput {
                    deadline: Some(at),
                    ..SessionOutput::default()
                };
            }
            return self.launch_retry(now);
        }
        let out = self.conn.on_timer(now);
        self.absorb(out, now)
    }

    /// Open the next connection (the current probe/conn/attempt indices;
    /// a follow-up goes to `location` when the first head redirected).
    fn connect(&mut self, location: Option<&str>, now: Instant) -> ConnOutput {
        let (probe, conn, attempt) = (self.probe_idx, self.conn_idx, self.attempt);
        let domain = self.domain.as_deref();
        let cfg = conn_config(
            &self.params,
            self.ip,
            domain,
            probe,
            conn,
            attempt,
            location,
        );
        self.conn.restart(cfg, now)
    }

    /// The backoff expired: open a fresh connection for the current probe
    /// on the next attempt's source port.
    fn launch_retry(&mut self, now: Instant) -> SessionOutput {
        self.retry_at = None;
        let first = self.connect(None, now);
        SessionOutput {
            tx: first.tx,
            request: first.request,
            deadline: first.deadline,
            ..SessionOutput::default()
        }
    }

    /// Abort the session right now, recording `kind` for every probe that
    /// has not concluded yet. Used by the scanner's watchdog, eviction,
    /// and ICMP-unreachable paths. No-op when already done.
    pub fn force_conclude(&mut self, kind: ErrorKind) -> SessionOutput {
        if self.done {
            return SessionOutput::default();
        }
        let mut session_out = SessionOutput::default();
        if self.retry_at.is_none() {
            // A live connection may need an RST on the wire.
            let out = self.conn.fail(kind);
            (session_out.tx, session_out.undeclared_edges) = (out.tx, out.undeclared_edges);
        }
        self.retry_at = None;
        while self.probe_idx < self.params.total_probes() {
            session_out.events.push(SessionEvent::ProbeConcluded {
                probe: self.probe_idx as u8,
                outcome: OutcomeKind::Error,
            });
            self.outcomes[self.probe_idx as usize] = ProbeOutcome::Error { kind };
            self.probe_idx += 1;
        }
        let host = self.finalize();
        session_out.events.push(SessionEvent::SessionFinished {
            outcome: host
                .primary_verdict()
                .map(MssVerdict::outcome_kind)
                .unwrap_or(OutcomeKind::Error),
        });
        session_out.result = Some(host);
        session_out.deadline = None;
        session_out
    }

    fn absorb(&mut self, out: ConnOutput, now: Instant) -> SessionOutput {
        let probe = self.probe_idx as u8;
        let mut session_out = SessionOutput {
            tx: out.tx,
            request: out.request,
            deadline: out.deadline,
            result: None,
            events: out
                .notes
                .iter()
                .map(|note| match note {
                    ConnNote::RetransmitDetected { bytes_in_flight } => {
                        SessionEvent::RetransmitDetected {
                            probe,
                            bytes_in_flight: u64::from(*bytes_in_flight),
                        }
                    }
                    ConnNote::VerifyAckSent => SessionEvent::VerifyAckSent { probe },
                })
                .collect(),
            undeclared_edges: out.undeclared_edges,
        };
        let Some(result) = out.result else {
            return session_out;
        };
        let first = self.outcomes[self.probe_idx as usize];
        match probe::next_step(self.params.protocol, self.conn_idx, &result, first) {
            ProbeStep::FollowUp(first, location) => {
                self.outcomes[self.probe_idx as usize] = first;
                self.conn_idx += 1;
                session_out
                    .events
                    .push(SessionEvent::FollowUpStarted { probe });
                let first = self.connect(location, now);
                session_out.tx.extend(first.tx);
                session_out.deadline = first.deadline;
            }
            ProbeStep::Conclude(outcome) => {
                // Transient failures are retried on a fresh connection
                // (new source port) after a doubling backoff, instead of
                // burning one of the probe's vote slots. ICMP unreachable
                // is deliberately NOT retried: the network told us.
                let retryable = matches!(
                    outcome,
                    ProbeOutcome::Unreachable
                        | ProbeOutcome::Error {
                            kind: ErrorKind::MidConnectionReset
                        }
                        | ProbeOutcome::Error {
                            kind: ErrorKind::HandshakeTimeout
                        }
                );
                if retryable && self.retries_used < self.params.probe_retries {
                    self.retries_used += 1;
                    self.attempt += 1;
                    self.conn_idx = 0;
                    let shift = self.retries_used - 1;
                    let delay = Duration::from_nanos(PROBE_BACKOFF.as_nanos() << shift);
                    session_out.events.push(SessionEvent::ProbeRetried {
                        probe,
                        attempt: self.attempt as u8,
                    });
                    let at = now + delay;
                    self.retry_at = Some(at);
                    session_out.deadline = Some(at);
                    return session_out;
                }
                session_out.events.push(SessionEvent::ProbeConcluded {
                    probe,
                    outcome: outcome.outcome_kind(),
                });
                self.outcomes[self.probe_idx as usize] = outcome;
                self.probe_idx += 1;
                self.retries_used = 0;
                self.attempt = 0;
                // Even an Unreachable probe does not abort the session: a
                // lost SYN under loss must not discard the host (the
                // remaining probes still vote).
                if self.probe_idx >= self.params.total_probes() {
                    let host = self.finalize();
                    session_out.events.push(SessionEvent::SessionFinished {
                        outcome: host
                            .primary_verdict()
                            .map(MssVerdict::outcome_kind)
                            .unwrap_or(OutcomeKind::Error),
                    });
                    session_out.result = Some(host);
                    session_out.deadline = None;
                } else {
                    // Launch the next probe immediately ("all six probes
                    // are sent after each other").
                    self.conn_idx = 0;
                    session_out.events.push(SessionEvent::ProbeStarted {
                        probe: self.probe_idx as u8,
                        mss: self.current_mss(),
                    });
                    let first = self.connect(None, now);
                    session_out.tx.extend(first.tx);
                    session_out.deadline = first.deadline;
                }
            }
        }
        session_out
    }

    fn finalize(&mut self) -> HostResult {
        self.done = true;
        let per_mss = self.params.probes_per_mss as usize;
        let runs: Vec<(u16, Vec<ProbeOutcome>)> = (self.params.mss_list.iter())
            .zip(self.outcomes.chunks(per_mss))
            .map(|(&mss, probes)| (mss, probes.to_vec()))
            .collect();
        let verdicts: Vec<(u16, MssVerdict)> = runs
            .iter()
            .map(|(mss, outcomes)| (*mss, vote(outcomes)))
            .collect();
        HostResult {
            ip: self.ip.to_u32(),
            protocol: self.params.protocol,
            runs,
            host_verdict: classify_host(&verdicts),
            verdicts,
        }
    }
}

/// Connection `conn_idx` of probe `probe_idx`'s attempt `attempt`: its
/// request (a follow-up's to `location`) and what it reads.
fn conn_config(
    params: &SessionParams,
    ip: Ipv4Addr,
    domain: Option<&str>,
    probe_idx: u32,
    conn_idx: u8,
    attempt: u32,
    location: Option<&str>,
) -> ConnConfig {
    let request = probe::request(params, ip, domain, probe_idx, conn_idx, location);
    let sport = params.sport(probe_idx, conn_idx, attempt);
    let dport = params.protocol.port();
    let mss_idx = (probe_idx / params.probes_per_mss) as usize;
    let mss = params.mss_list[mss_idx];
    let isn = params.cookie.isn(ip.to_u32(), sport, dport);
    let mut cfg = ConnConfig::new(ip, params.source, sport, dport, mss, isn, request);
    cfg.reads = probe::reads(params.protocol, conn_idx);
    cfg.verify_exhaustion = params.verify_exhaustion;
    cfg
}

/// The 2-of-3-maximum vote over one MSS run's probe outcomes. With
/// fewer than three probes (ablation configurations) a single success
/// is accepted — there is nothing to vote with.
pub fn vote(outcomes: &[ProbeOutcome]) -> MssVerdict {
    let required = if outcomes.len() >= 3 { 2 } else { 1 };
    let successes: Vec<u32> = outcomes
        .iter()
        .filter_map(|o| match o {
            ProbeOutcome::Success { segments, .. } => Some(*segments),
            _ => None,
        })
        .collect();
    if let Some(&max) = successes.iter().max() {
        if successes.iter().filter(|s| **s == max).count() >= required {
            return MssVerdict::Success(max);
        }
        if successes.len() >= 2 {
            // Two or more successes that cannot agree on the maximum:
            // the paper's criterion rejects the host ("error marks all
            // other cases").
            return MssVerdict::Error;
        }
    }
    // Lone success or no success: fall back to the strongest lower bound.
    let mut lower: Option<u32> = None;
    let mut any_few = false;
    for o in outcomes {
        match o {
            ProbeOutcome::FewData { lower_bound, .. } => {
                any_few = true;
                lower = Some(lower.map_or(*lower_bound, |l| l.max(*lower_bound)));
            }
            ProbeOutcome::Success { segments, .. } => {
                lower = Some(lower.map_or(*segments, |l| l.max(*segments)));
            }
            _ => {}
        }
    }
    if any_few || successes.len() == 1 {
        return MssVerdict::FewData(lower.unwrap_or(0));
    }
    if outcomes
        .iter()
        .all(|o| matches!(o, ProbeOutcome::Unreachable))
    {
        return MssVerdict::Unreachable;
    }
    MssVerdict::Error
}

/// Cross-MSS classification (§4.2).
pub fn classify_host(verdicts: &[(u16, MssVerdict)]) -> HostVerdict {
    if verdicts.len() < 2 {
        return match verdicts.first() {
            Some((_, MssVerdict::Success(s))) => HostVerdict::SegmentBased(*s),
            _ => HostVerdict::Unclassified,
        };
    }
    let (mss_a, va) = verdicts[0];
    let (mss_b, vb) = verdicts[1];
    match (va, vb) {
        (MssVerdict::Success(a), MssVerdict::Success(b)) => {
            if a == b {
                HostVerdict::SegmentBased(a)
            } else if a == 2 * b && mss_b == 2 * mss_a {
                // Segment count halves as MSS doubles: a byte budget.
                HostVerdict::ByteBased(a * u32::from(mss_a))
            } else {
                HostVerdict::OtherScaling {
                    at_64: a,
                    at_128: b,
                }
            }
        }
        _ => HostVerdict::Unclassified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn success(segments: u32) -> ProbeOutcome {
        ProbeOutcome::Success {
            segments,
            bytes: segments * 64,
            max_seg: 64,
            loss_suspected: false,
            reordered: false,
            redirected: false,
        }
    }

    fn few(lower: u32) -> ProbeOutcome {
        ProbeOutcome::FewData {
            lower_bound: lower,
            bytes: lower * 64,
            max_seg: 64,
            fin_seen: true,
            redirected: false,
        }
    }

    #[test]
    fn vote_unanimous_success() {
        assert_eq!(
            vote(&[success(10), success(10), success(10)]),
            MssVerdict::Success(10)
        );
    }

    #[test]
    fn vote_tail_loss_max_rule() {
        // One probe underestimated (tail loss): two agree on the max.
        assert_eq!(
            vote(&[success(9), success(10), success(10)]),
            MssVerdict::Success(10)
        );
        // Two probes agree on 9 but 10 is the max: NOT a success (the
        // agreeing pair must BE the maximum).
        assert_eq!(
            vote(&[success(9), success(9), success(10)]),
            MssVerdict::Error
        );
    }

    #[test]
    fn vote_all_disagree() {
        assert_eq!(
            vote(&[success(8), success(9), success(10)]),
            MssVerdict::Error
        );
    }

    #[test]
    fn vote_few_data_takes_max_bound() {
        assert_eq!(vote(&[few(7), few(7), few(3)]), MssVerdict::FewData(7));
        assert_eq!(vote(&[few(0), few(0), few(0)]), MssVerdict::FewData(0));
    }

    #[test]
    fn vote_lone_success_degrades_to_bound() {
        assert_eq!(
            vote(&[success(10), few(7), few(7)]),
            MssVerdict::FewData(10)
        );
    }

    #[test]
    fn vote_unreachable() {
        assert_eq!(
            vote(&[ProbeOutcome::Unreachable, ProbeOutcome::Unreachable]),
            MssVerdict::Unreachable
        );
    }

    #[test]
    fn classify_segment_based() {
        let v = vec![
            (64, MssVerdict::Success(10)),
            (128, MssVerdict::Success(10)),
        ];
        assert_eq!(classify_host(&v), HostVerdict::SegmentBased(10));
    }

    #[test]
    fn classify_byte_based_4k() {
        let v = vec![
            (64, MssVerdict::Success(64)),
            (128, MssVerdict::Success(32)),
        ];
        assert_eq!(classify_host(&v), HostVerdict::ByteBased(4096));
    }

    #[test]
    fn classify_mtu_fill() {
        let v = vec![
            (64, MssVerdict::Success(24)),
            (128, MssVerdict::Success(12)),
        ];
        assert_eq!(classify_host(&v), HostVerdict::ByteBased(1536));
    }

    #[test]
    fn classify_other_and_unclassified() {
        let v = vec![(64, MssVerdict::Success(10)), (128, MssVerdict::Success(7))];
        assert_eq!(
            classify_host(&v),
            HostVerdict::OtherScaling {
                at_64: 10,
                at_128: 7
            }
        );
        let v = vec![(64, MssVerdict::Success(10)), (128, MssVerdict::FewData(3))];
        assert_eq!(classify_host(&v), HostVerdict::Unclassified);
    }

    #[test]
    fn sport_allocation_unique() {
        let p = SessionParams::study(Protocol::Http, Ipv4Addr::new(192, 0, 2, 1), 1);
        let mut seen = std::collections::HashSet::new();
        for attempt in 0..4u32 {
            for probe in 0..p.total_probes() {
                for conn in 0..2u8 {
                    assert!(seen.insert(p.sport(probe, conn, attempt)));
                }
            }
        }
        assert_eq!(p.total_probes(), 6);
    }

    fn retry_session(probe_retries: u32) -> HostSession {
        let mut params = SessionParams::study(Protocol::Http, Ipv4Addr::new(192, 0, 2, 9), 7);
        params.probe_retries = probe_retries;
        let ip = Ipv4Addr::new(198, 51, 100, 1);
        HostSession::new(ip, Arc::new(params), None, Instant::ZERO)
    }

    /// Drive the current connection to a handshake timeout by firing the
    /// session timer past the SYN deadline.
    fn time_out_handshake(s: &mut HostSession, now: Instant) -> SessionOutput {
        s.on_timer(now + Duration::from_secs(30))
    }

    #[test]
    fn transient_failure_schedules_backoff_retry() {
        let mut s = retry_session(2);
        let out = time_out_handshake(&mut s, Instant::ZERO);
        // Not recorded: a retry is pending instead.
        assert!(out.result.is_none());
        assert!(out.events.iter().any(|e| matches!(
            e,
            SessionEvent::ProbeRetried {
                probe: 0,
                attempt: 1
            }
        )));
        let at = out.deadline.expect("backoff deadline");
        // Before the backoff expires the timer is a no-op re-arm.
        let just_before = Instant::ZERO + Duration::from_nanos((at - Instant::ZERO).as_nanos() - 1);
        let early = s.on_timer(just_before);
        assert!(early.tx.is_empty());
        assert_eq!(early.deadline, Some(at));
        // At the deadline a fresh SYN goes out on a new source port.
        let retry = s.on_timer(at);
        assert_eq!(retry.tx.len(), 1);
        assert!(retry.tx[0].header.flags.contains(tcp::Flags::SYN));
        let base = s.params.sport(0, 0, 0);
        assert_eq!(retry.tx[0].header.src_port, s.params.sport(0, 0, 1));
        assert_ne!(retry.tx[0].header.src_port, base);
    }

    #[test]
    fn retry_budget_exhaustion_records_error() {
        let mut s = retry_session(1);
        let out = time_out_handshake(&mut s, Instant::ZERO);
        let at = out.deadline.expect("backoff deadline");
        let retry = s.on_timer(at);
        assert_eq!(retry.tx.len(), 1);
        // Second timeout: budget spent, the failure is recorded and the
        // next probe launches immediately (back on attempt 0 ports).
        let out = s.on_timer(at + Duration::from_secs(30));
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SessionEvent::ProbeConcluded { probe: 0, .. })));
        assert_eq!(s.probe_idx, 1);
        assert!(matches!(
            s.outcomes[0],
            ProbeOutcome::Error {
                kind: ErrorKind::HandshakeTimeout
            }
        ));
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].header.src_port, s.params.sport(1, 0, 0));
    }

    #[test]
    fn no_retries_by_default() {
        let mut s = retry_session(0);
        let out = time_out_handshake(&mut s, Instant::ZERO);
        assert_eq!(s.probe_idx, 1);
        assert!(out
            .events
            .iter()
            .all(|e| !matches!(e, SessionEvent::ProbeRetried { .. })));
    }

    #[test]
    fn force_conclude_records_error_for_remaining_probes() {
        let mut s = retry_session(0);
        let out = s.force_conclude(ErrorKind::CollectTimeout);
        let host = out.result.expect("result");
        assert!(s.is_done());
        assert_eq!(out.deadline, None);
        let total: usize = host.runs.iter().map(|(_, o)| o.len()).sum();
        assert_eq!(total, 6);
        assert!(host.runs.iter().all(|(_, o)| o.iter().all(|p| matches!(
            p,
            ProbeOutcome::Error {
                kind: ErrorKind::CollectTimeout
            }
        ))));
        // Idempotent.
        let again = s.force_conclude(ErrorKind::CollectTimeout);
        assert!(again.result.is_none());
    }
}
