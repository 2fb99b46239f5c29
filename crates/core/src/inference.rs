//! The IW-inference connection state machine (§3.1, Figure 1).
//!
//! One instance drives one scanner-side TCP connection:
//!
//! 1. **SYN** with a tiny MSS (default 64 B) and a large window — the IW,
//!    not flow control, must limit the first flight.
//! 2. On SYN-ACK: **ACK + request** in one packet (the probe payload —
//!    an HTTP GET or a TLS ClientHello).
//! 3. **Never acknowledge data.** Track received sequence ranges; when a
//!    segment arrives whose bytes were all seen before, the server's RTO
//!    has fired and retransmitted its first unacknowledged segment: the
//!    initial window is over. Estimate `IW = ⌊distinct bytes / max
//!    observed segment⌋` (the observed maximum matters because stacks
//!    like Windows clamp our 64 B up to 536 B, §3.1).
//! 4. **Verify exhaustion**: acknowledge everything with a window of
//!    2·MSS. A host that was IW-limited releases new segments; a host
//!    that was out of data stays silent or FINs (§3.1/3.2).
//!
//! Sequence holes mark suspected loss; a FIN anywhere marks "out of
//! data" (with `Connection: close`, §3.2's signal). SACK is deliberately
//! never offered so server-side tail-loss probes stay disabled.

use crate::results::ErrorKind;
use iw_netsim::{Duration, Instant};
use iw_wire::http::ResponseHead;
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, Flags};

/// Static parameters of one inference connection.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Target address.
    pub target: Ipv4Addr,
    /// Scanner source address.
    pub source: Ipv4Addr,
    /// Scanner source port.
    pub src_port: u16,
    /// Target port (80/443).
    pub dst_port: u16,
    /// MSS to advertise (64 or 128 in the study).
    pub mss: u16,
    /// Our ISN (the stateless validation cookie).
    pub isn: u32,
    /// Request payload to send once established. Empty = port-scan mode:
    /// report `Open` on SYN-ACK and RST immediately. Never copied, and
    /// kept only until it is sent: the output whose segment carries it
    /// takes the bytes ([`ConnOutput::request`]).
    pub request: Vec<u8>,
    /// What of the response the probe layer reads: the only bytes worth
    /// storing, and only until they are read. Every byte is counted
    /// either way.
    pub reads: Reads,
    /// Give up on the SYN after this long.
    pub syn_timeout: Duration,
    /// Give up waiting for the retransmission signal after this long.
    pub collect_timeout: Duration,
    /// How long to wait for post-ACK data in the verification phase.
    pub verify_timeout: Duration,
    /// Whether to run the exhaustion check at all (ablation knob): when
    /// off, any retransmission immediately becomes a "success" — which
    /// silently misclassifies hosts that simply ran out of data.
    pub verify_exhaustion: bool,
}

impl ConnConfig {
    /// Study defaults (timeouts sized to cover one RTO backoff at the
    /// slowest simulated stacks: 3 s initial RTO doubles once within 8s).
    pub fn new(
        target: Ipv4Addr,
        source: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        mss: u16,
        isn: u32,
        request: Vec<u8>,
    ) -> ConnConfig {
        ConnConfig {
            target,
            source,
            src_port,
            dst_port,
            mss,
            isn,
            request,
            reads: Reads::Nothing,
            syn_timeout: Duration::from_secs(4),
            collect_timeout: Duration::from_secs(10),
            verify_timeout: Duration::from_secs(3),
            verify_exhaustion: true,
        }
    }
}

/// What a probe reads of a connection's response. The paper's method
/// counts response bytes and never reads them (§3.1, §3.3); only the
/// HTTP probe looks at the head of its first connection (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Nothing: the connection stores no payload.
    Nothing,
    /// The HTTP head: the in-order prefix up to and including its first
    /// blank line, if that completes within [`RESPONSE_CAP`] bytes. It is
    /// read into an [`HttpHead`] the moment the prefix holds it, or at
    /// conclusion if it never does.
    HttpHead,
}

/// What the HTTP probe learns of a response head: the status and a
/// redirect's `Location` of a head that parsed, or why
/// [`ResponseHead::parse`] refused it (`Truncated` for a head that never
/// completed within [`RESPONSE_CAP`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpHead {
    /// The status code, or the parse error.
    pub status: Result<u16, iw_wire::Error>,
    /// The `Location` of a redirect: a 3xx head that carried one.
    pub location: Option<Box<str>>,
}

impl HttpHead {
    /// Read the head at the start of `bytes`.
    pub(crate) fn read(bytes: &[u8]) -> HttpHead {
        match ResponseHead::parse(bytes) {
            Ok(head) => HttpHead {
                status: Ok(head.status),
                location: head.redirect_location().map(Box::from),
            },
            Err(e) => HttpHead {
                status: Err(e),
                location: None,
            },
        }
    }
}

/// Raw result of one connection (before probe-level interpretation).
#[derive(Debug, Clone, PartialEq)]
pub enum RawOutcome {
    /// IW filled and exhaustion verified.
    Success {
        /// ⌊bytes / max_seg⌋.
        segments: u32,
        /// Distinct payload bytes at retransmission time.
        bytes: u32,
        /// Largest observed segment.
        max_seg: u32,
        /// Unfilled sequence hole at decision time.
        loss_suspected: bool,
        /// Out-of-order arrivals seen.
        reordered: bool,
    },
    /// Out of data before the IW (or unverifiable).
    FewData {
        /// max(1, ⌊bytes/max_seg⌋) when bytes > 0, else 0.
        lower_bound: u32,
        /// Distinct payload bytes.
        bytes: u32,
        /// Largest observed segment.
        max_seg: u32,
        /// FIN observed.
        fin_seen: bool,
    },
    /// Port open (port-scan mode only).
    Open,
    /// Post-handshake failure.
    Error(ErrorKind),
    /// No handshake.
    Unreachable,
}

/// A finished connection: outcome + what the probe reads of the
/// response ([`ConnConfig::reads`]).
#[derive(Debug, Clone)]
pub struct ConnResult {
    /// The raw outcome.
    pub outcome: RawOutcome,
    /// The head, for [`Reads::HttpHead`]; `None` for [`Reads::Nothing`].
    pub head: Option<HttpHead>,
}

/// Telemetry note: a state transition worth reporting upward. The session
/// layer stamps these with host/time/probe context and forwards them to
/// the scan's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnNote {
    /// The first retransmission was observed: the IW is on the table.
    RetransmitDetected {
        /// Distinct payload bytes in flight at the moment of detection.
        bytes_in_flight: u32,
    },
    /// The 2×MSS verification ACK went out.
    VerifyAckSent,
}

/// One segment to transmit: its header, and whether its payload is the
/// connection's request ([`ConnOutput::request`] of the same output) or
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxSegment {
    /// Everything but the payload.
    pub header: tcp::Segment<'static>,
    /// The payload is the connection's request bytes.
    pub carries_request: bool,
}

/// The segments one event transmits, held inline: never more than two
/// (a teardown RST and the next connection's SYN).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxBatch {
    len: u8,
    segs: [TxSegment; 2],
}

impl TxBatch {
    /// Append a payload-less segment.
    pub(crate) fn push(&mut self, header: tcp::Segment<'static>) {
        self.push_segment(TxSegment {
            header,
            carries_request: false,
        });
    }

    fn push_segment(&mut self, seg: TxSegment) {
        debug_assert!(
            usize::from(self.len) < self.segs.len(),
            "an event transmits at most two segments"
        );
        self.segs[usize::from(self.len)] = seg;
        self.len += 1;
    }

    /// Append everything `other` holds, in order.
    pub(crate) fn extend(&mut self, other: TxBatch) {
        for seg in other.iter() {
            self.push_segment(*seg);
        }
    }
}

impl std::ops::Deref for TxBatch {
    type Target = [TxSegment];

    fn deref(&self) -> &[TxSegment] {
        &self.segs[..usize::from(self.len)]
    }
}

/// Effects of feeding one event into the machine.
#[derive(Debug, Default)]
pub struct ConnOutput {
    /// Segments to transmit.
    pub tx: TxBatch,
    /// The request bytes, in the output whose segment carries them
    /// ([`TxSegment::carries_request`]); empty in every other.
    pub request: Vec<u8>,
    /// Absolute deadline to be woken at (stale wakes are no-ops).
    pub deadline: Option<Instant>,
    /// Present exactly once, when the connection concludes.
    pub result: Option<ConnResult>,
    /// Lifecycle transitions for the scan's telemetry.
    pub notes: Vec<ConnNote>,
    /// Phase changes this event took along an undeclared edge.
    pub undeclared_edges: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SynSent,
    Collecting,
    Verifying,
    Done,
}

/// Every edge the machine may take. SYN sent → collecting the response
/// burst → verifying via the delayed ACK → done, and `Done` straight
/// from every live phase: timeouts, the watchdog, eviction and
/// mid-connection errors must be able to conclude wherever it stands.
/// [`InferenceConn::set_phase`] counts every change it makes along an
/// edge missing here (into [`ConnOutput::undeclared_edges`]).
const TRANSITIONS: &[(Phase, Phase)] = &[
    (Phase::SynSent, Phase::Collecting),
    (Phase::Collecting, Phase::Verifying),
    (Phase::SynSent, Phase::Done),
    (Phase::Collecting, Phase::Done),
    (Phase::Verifying, Phase::Done),
];

/// Cap on stored response bytes: an HTTP head that has not completed
/// within this many bytes is not parsed.
pub const RESPONSE_CAP: usize = 8192;

/// What the store reserves for its first byte: a probe's HTTP head fits,
/// so most stores never grow.
const STORE_FIRST: usize = 512;

/// The inference machine for one connection.
#[derive(Debug)]
pub struct InferenceConn {
    cfg: ConnConfig,
    phase: Phase,
    /// Server's ISS (+1 = first payload byte), set on SYN-ACK.
    data_base: u32,
    /// Length of the request, which outlives its bytes (sequence numbers
    /// after it count it).
    request_len: u32,
    /// Received payload ranges, as [start, end) offsets, sorted, merged.
    ranges: Vec<(u32, u32)>,
    /// The stored bytes: those of `ranges` below `keep`, concatenated in
    /// stream order with no gaps, so the in-order prefix comes first and
    /// a fragment past a hole costs its own length, not the hole's.
    /// Freed once the head is read.
    store: Vec<u8>,
    /// Bytes at or past this offset are counted, not stored: zero when
    /// the probe reads nothing or has read the head; while an HTTP head
    /// is incomplete, the lowest end of a blank line seen in any fragment
    /// (the head ends at or before it) or else [`RESPONSE_CAP`].
    keep: u32,
    /// The head, read the moment the in-order prefix held it.
    head: Option<HttpHead>,
    max_seg: u32,
    fin_seen: bool,
    reordered: bool,
    /// Bytes/segments frozen at retransmission-detection time.
    frozen_bytes: u32,
    frozen_loss: bool,
    deadline: Option<Instant>,
}

impl InferenceConn {
    /// Create the machine and the SYN to transmit.
    pub fn new(cfg: ConnConfig, now: Instant) -> (InferenceConn, ConnOutput) {
        Self::open(cfg, Vec::new(), now)
    }

    /// Start over as a fresh connection for `cfg`, keeping this one's
    /// range list. Returns the SYN to transmit, like [`Self::new`].
    pub fn restart(&mut self, cfg: ConnConfig, now: Instant) -> ConnOutput {
        let ranges = std::mem::take(&mut self.ranges);
        let (conn, first) = Self::open(cfg, ranges, now);
        *self = conn;
        first
    }

    /// A connection in `SynSent` on (emptied) `ranges` storage.
    fn open(
        cfg: ConnConfig,
        mut ranges: Vec<(u32, u32)>,
        now: Instant,
    ) -> (InferenceConn, ConnOutput) {
        ranges.clear();
        let deadline = now + cfg.syn_timeout;
        let keep = match cfg.reads {
            Reads::Nothing => 0,
            Reads::HttpHead => RESPONSE_CAP as u32,
        };
        let conn = InferenceConn {
            request_len: cfg.request.len() as u32,
            cfg,
            phase: Phase::SynSent,
            data_base: 0,
            ranges,
            store: Vec::new(),
            keep,
            head: None,
            max_seg: 0,
            fin_seen: false,
            reordered: false,
            frozen_bytes: 0,
            frozen_loss: false,
            deadline: Some(deadline),
        };
        let mut out = ConnOutput {
            deadline: Some(deadline),
            ..ConnOutput::default()
        };
        out.tx.push(tcp::Segment {
            // A tiny MSS and *no* SACK-permitted (tail-loss probes off).
            mss: Some(conn.cfg.mss),
            ..conn.header(conn.cfg.isn, 0, Flags::SYN, 65535)
        });
        (conn, out)
    }

    /// The one place the phase changes. An edge missing from
    /// `TRANSITIONS` is still taken: returns 1 for one, 0 otherwise.
    fn set_phase(&mut self, to: Phase) -> u32 {
        let undeclared = u32::from(!TRANSITIONS.contains(&(self.phase, to)));
        self.phase = to;
        undeclared
    }

    /// A payload-less segment of this connection.
    fn header(&self, seq: u32, ack: u32, flags: Flags, window: u16) -> tcp::Segment<'static> {
        tcp::Segment::bare(
            self.cfg.src_port,
            self.cfg.dst_port,
            seq,
            ack,
            flags,
            window,
        )
    }

    /// Whether the connection has concluded.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn total_bytes(&self) -> u32 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    fn has_hole(&self) -> bool {
        self.ranges.len() > 1 || self.ranges.first().is_some_and(|(s, _)| *s != 0)
    }

    fn highest_end(&self) -> u32 {
        self.ranges.last().map_or(0, |(_, e)| *e)
    }

    /// Merge [start, end) into the range set; returns true if every byte
    /// was already present (i.e. this segment is a retransmission).
    fn merge_range(&mut self, start: u32, end: u32) -> bool {
        debug_assert!(start < end);
        if self.ranges.iter().any(|(s, e)| *s <= start && end <= *e) {
            return true;
        }
        // Fast paths for segments at or past the frontier — the
        // overwhelmingly common in-order arrivals. Neither opens the
        // reordering case (that needs `end` at or below the frontier),
        // and both leave the set sorted and coalesced, so the general
        // in-place merge below is reserved for hole-filling stragglers.
        match self.ranges.last().copied() {
            None => {
                self.ranges.push((start, end));
                return false;
            }
            Some((ls, le)) => {
                if start > le {
                    // Creates a hole past the frontier.
                    self.ranges.push((start, end));
                    return false;
                }
                if start >= ls && end > le {
                    // Extends the final range in place.
                    if let Some(last) = self.ranges.last_mut() {
                        last.1 = end;
                    }
                    return false;
                }
            }
        }
        // A hole-filling straggler: it starts below the frontier, and
        // unless it also reaches past it, reordering happened. Coalesce
        // it in place with every range it overlaps or touches.
        if end <= self.highest_end() {
            self.reordered = true;
        }
        let first = self.ranges.partition_point(|(_, e)| *e < start);
        let past = first
            + self.ranges[first..]
                .iter()
                .take_while(|(s, _)| *s <= end)
                .count();
        if first == past {
            self.ranges.insert(first, (start, end));
        } else {
            self.ranges[first] = (
                start.min(self.ranges[first].0),
                end.max(self.ranges[past - 1].1),
            );
            self.ranges.drain(first + 1..past);
        }
        false
    }

    /// Note a fragment at `offset`: count it, store what the probe reads
    /// of it. Returns true if every byte was already present (i.e. this
    /// segment is a retransmission).
    fn receive(&mut self, offset: u32, data: &[u8]) -> bool {
        let grown_from = self.prefix_len();
        if offset < self.keep {
            // The head ends at the stream's first blank line, so a blank
            // line anywhere bounds it, in order or not.
            if let Some(len) = iw_wire::http::head_len(data) {
                self.lower_keep(offset + len as u32);
            }
            self.store(offset, data);
        }
        let is_retransmission = self.merge_range(offset, offset + data.len() as u32);
        self.close_head(grown_from);
        is_retransmission
    }

    /// Store the bytes of the fragment `data` at `offset` that lie below
    /// `keep` and are not stored yet, each where it belongs in the
    /// gap-free `store`. Runs before [`Self::merge_range`] notes the
    /// fragment: the holes of the current `ranges` are what is new.
    fn store(&mut self, offset: u32, data: &[u8]) {
        let end = (offset + data.len() as u32).min(self.keep);
        // Stored bytes below the hole under consideration, and the hole's
        // start; every byte stored by this call so far lies below it too.
        let (mut below, mut hole) = (0, 0);
        for i in 0..=self.ranges.len() {
            let (next, next_end) = self.ranges.get(i).copied().unwrap_or((u32::MAX, u32::MAX));
            let (from, to) = (offset.max(hole), end.min(next));
            if from < to {
                let at = below as usize;
                let new = &data[(from - offset) as usize..(to - offset) as usize];
                let old_len = self.store.len();
                // One reservation a head fits in, then doubling: the store
                // is freed once the head is read, so no slack outlives it.
                if self.store.capacity() == 0 {
                    self.store.reserve_exact(STORE_FIRST.max(new.len()));
                } else {
                    self.store.reserve(new.len());
                }
                self.store.resize(old_len + new.len(), 0);
                self.store.copy_within(at..old_len, at + new.len());
                self.store[at..at + new.len()].copy_from_slice(new);
                below += to - from;
            }
            if next >= end {
                break;
            }
            below += next_end.min(self.keep) - next.min(self.keep);
            hole = next_end;
        }
    }

    /// Length of the stored in-order prefix: what `ranges` says is
    /// contiguous from offset zero, below `keep`.
    fn prefix_len(&self) -> usize {
        match self.ranges.first() {
            Some((0, end)) => (*end).min(self.keep) as usize,
            _ => 0,
        }
    }

    /// Read the head once the in-order prefix holds it whole, then store
    /// nothing more and free the store: nothing past its blank line is
    /// read. `grown_from` is the prefix's length before the last
    /// fragment; only what it added is searched.
    fn close_head(&mut self, grown_from: usize) {
        let prefix = self.prefix_len();
        if prefix <= grown_from {
            return;
        }
        let from = grown_from.saturating_sub(3);
        if let Some(len) = iw_wire::http::head_len(&self.store[from..prefix]) {
            self.head = Some(HttpHead::read(&self.store[..from + len]));
            self.keep = 0;
            self.store = Vec::new();
        }
    }

    /// Store nothing at or past `bound` any more, and drop what is stored
    /// there (the tail of the gap-free `store`).
    fn lower_keep(&mut self, bound: u32) {
        if bound >= self.keep {
            return;
        }
        self.keep = bound;
        let below: u32 = self
            .ranges
            .iter()
            .map(|&(s, e)| e.min(bound) - s.min(bound))
            .sum();
        self.store.truncate(below as usize);
    }

    /// Conclude: the output with the result. A head that never completed
    /// is read now, from the in-order prefix.
    fn conclude(&mut self, outcome: RawOutcome) -> ConnOutput {
        let undeclared_edges = self.set_phase(Phase::Done);
        self.deadline = None;
        let prefix = &self.store[..self.prefix_len()];
        let head = (self.cfg.reads == Reads::HttpHead)
            .then(|| self.head.take().unwrap_or_else(|| HttpHead::read(prefix)));
        self.store = Vec::new();
        ConnOutput {
            result: Some(ConnResult { outcome, head }),
            undeclared_edges,
            ..ConnOutput::default()
        }
    }

    fn finish(&mut self, outcome: RawOutcome) -> ConnOutput {
        // End the exchange abortively, like the scanner does (Fig. 1) —
        // unless there is no connection to reset (no handshake completed)
        // or the path itself is dead (ICMP unreachable).
        let reset = !matches!(
            outcome,
            RawOutcome::Unreachable
                | RawOutcome::Error(ErrorKind::HandshakeTimeout)
                | RawOutcome::Error(ErrorKind::IcmpUnreachable)
        );
        let mut out = self.conclude(outcome);
        if reset {
            out.tx.push(self.header(self.snd_nxt(), 0, Flags::RST, 0));
        }
        out
    }

    /// Our sequence number once the request is out.
    fn snd_nxt(&self) -> u32 {
        self.cfg.isn.wrapping_add(1 + self.request_len)
    }

    fn few_data_outcome(&self) -> RawOutcome {
        let bytes = self.total_bytes();
        let lower_bound = if bytes == 0 || self.max_seg == 0 {
            0
        } else {
            (bytes / self.max_seg).max(1)
        };
        RawOutcome::FewData {
            lower_bound,
            bytes,
            max_seg: self.max_seg,
            fin_seen: self.fin_seen,
        }
    }

    /// Feed an inbound segment.
    pub fn on_segment<'a>(&mut self, seg: impl Into<tcp::Segment<'a>>, now: Instant) -> ConnOutput {
        let seg = &seg.into();
        match self.phase {
            Phase::Done => ConnOutput::default(),
            Phase::SynSent => self.on_segment_synsent(seg, now),
            Phase::Collecting => self.on_segment_collecting(seg, now),
            Phase::Verifying => self.on_segment_verifying(seg),
        }
    }

    fn on_segment_synsent(&mut self, seg: &tcp::Segment<'_>, now: Instant) -> ConnOutput {
        if seg.flags.contains(Flags::RST) {
            return self.finish(RawOutcome::Unreachable);
        }
        if !seg.flags.contains(Flags::SYN) || !seg.flags.contains(Flags::ACK) {
            return ConnOutput::default();
        }
        if seg.ack != self.cfg.isn.wrapping_add(1) {
            // Fails the stateless cookie check — not ours.
            return ConnOutput::default();
        }
        self.data_base = seg.seq.wrapping_add(1);

        if self.cfg.request.is_empty() {
            // Port-scan mode: report and abort.
            return self.finish(RawOutcome::Open);
        }

        let undeclared_edges = self.set_phase(Phase::Collecting);
        let deadline = now + self.cfg.collect_timeout;
        self.deadline = Some(deadline);
        let mut out = ConnOutput {
            deadline: Some(deadline),
            request: std::mem::take(&mut self.cfg.request),
            undeclared_edges,
            ..ConnOutput::default()
        };
        out.tx.push_segment(TxSegment {
            header: self.header(
                self.cfg.isn.wrapping_add(1),
                self.data_base,
                Flags::ACK | Flags::PSH,
                65535,
            ),
            carries_request: true,
        });
        out
    }

    fn on_segment_collecting(&mut self, seg: &tcp::Segment<'_>, now: Instant) -> ConnOutput {
        if seg.flags.contains(Flags::RST) {
            return self.finish(RawOutcome::Error(ErrorKind::MidConnectionReset));
        }
        if seg.flags.contains(Flags::FIN) {
            self.fin_seen = true;
        }
        if seg.payload.is_empty() {
            // Pure ACK / bare FIN: no sequence accounting needed — but a
            // bare FIN with everything received means the host is done.
            return ConnOutput {
                deadline: self.deadline,
                ..ConnOutput::default()
            };
        }
        let offset = seg.seq.wrapping_sub(self.data_base);
        if offset > (1 << 24) {
            // Absurd offset (pre-handshake seq or corruption): ignore.
            return ConnOutput {
                deadline: self.deadline,
                ..ConnOutput::default()
            };
        }
        self.max_seg = self.max_seg.max(seg.payload.len() as u32);
        if !self.receive(offset, seg.payload) {
            return ConnOutput {
                deadline: self.deadline,
                ..ConnOutput::default()
            };
        }

        // Retransmission: the initial window is on the table.
        let retransmit_note = ConnNote::RetransmitDetected {
            bytes_in_flight: self.total_bytes(),
        };
        if self.fin_seen {
            // The host closed inside its initial flight: out of data.
            let mut out = self.finish(self.few_data_outcome());
            out.notes.push(retransmit_note);
            return out;
        }
        if !self.cfg.verify_exhaustion {
            // Ablation mode: trust the count without the 2·MSS-window
            // ACK check (this is what misclassifies out-of-data hosts).
            let max_seg = self.max_seg.max(1);
            let outcome = RawOutcome::Success {
                segments: (self.total_bytes() / max_seg).max(1),
                bytes: self.total_bytes(),
                max_seg: self.max_seg,
                loss_suspected: self.has_hole(),
                reordered: self.reordered,
            };
            let mut out = self.finish(outcome);
            out.notes.push(retransmit_note);
            return out;
        }
        // Freeze the estimate and verify exhaustion: ACK everything with
        // a two-segment window (§3.1).
        self.frozen_bytes = self.total_bytes();
        self.frozen_loss = self.has_hole();
        let undeclared_edges = self.set_phase(Phase::Verifying);
        let deadline = now + self.cfg.verify_timeout;
        self.deadline = Some(deadline);
        let mut out = ConnOutput {
            deadline: Some(deadline),
            notes: vec![retransmit_note, ConnNote::VerifyAckSent],
            undeclared_edges,
            ..ConnOutput::default()
        };
        out.tx.push(self.header(
            self.snd_nxt(),
            self.data_base.wrapping_add(self.highest_end()),
            Flags::ACK,
            (2 * self.max_seg).min(65535) as u16,
        ));
        out
    }

    fn on_segment_verifying(&mut self, seg: &tcp::Segment<'_>) -> ConnOutput {
        if seg.flags.contains(Flags::RST) {
            // We already have the data; treat like silence.
            return self.finish(self.few_data_outcome());
        }
        // Check for new data BEFORE interpreting a FIN: a host draining
        // its last bytes FINs on the same segment, and new data proves
        // the IW was genuinely filled.
        if !seg.payload.is_empty() {
            let offset = seg.seq.wrapping_sub(self.data_base);
            let end = offset + seg.payload.len() as u32;
            if end > self.highest_end() {
                // New data released by our ACK: the IW was truly filled.
                let max_seg = self.max_seg.max(1);
                let outcome = RawOutcome::Success {
                    segments: (self.frozen_bytes / max_seg).max(1),
                    bytes: self.frozen_bytes,
                    max_seg: self.max_seg,
                    loss_suspected: self.frozen_loss,
                    reordered: self.reordered,
                };
                return self.finish(outcome);
            }
        }
        if seg.flags.contains(Flags::FIN) {
            self.fin_seen = true;
            return self.finish(self.few_data_outcome());
        }
        ConnOutput {
            deadline: self.deadline,
            ..ConnOutput::default()
        }
    }

    /// Timer wake-up; stale wakes are ignored.
    pub fn on_timer(&mut self, now: Instant) -> ConnOutput {
        let Some(deadline) = self.deadline else {
            return ConnOutput::default();
        };
        if now < deadline {
            return ConnOutput {
                deadline: Some(deadline),
                ..ConnOutput::default()
            };
        }
        match self.phase {
            // A timed-out SYN here is an in-session handshake failure: the
            // stateless scanner only builds this machine after a validated
            // SYN-ACK, so the host completed a handshake moments ago and
            // has now stopped. (A true silent target never reaches a
            // session; RST-to-SYN still maps to Unreachable.)
            Phase::SynSent => self.finish(RawOutcome::Error(ErrorKind::HandshakeTimeout)),
            Phase::Collecting => {
                // No retransmission signal within the window. Whatever we
                // got is a lower bound (zero bytes = the NoData row).
                self.finish(self.few_data_outcome())
            }
            Phase::Verifying => self.finish(self.few_data_outcome()),
            Phase::Done => ConnOutput::default(),
        }
    }

    /// Abort the connection with an error outcome (resilience layer:
    /// watchdog deadline, concurrency-cap eviction, ICMP unreachable).
    /// Returns the terminal [`ConnOutput`]; a no-op when already done.
    pub fn fail(&mut self, kind: ErrorKind) -> ConnOutput {
        if self.phase == Phase::Done {
            return ConnOutput::default();
        }
        if self.phase == Phase::SynSent {
            // No connection exists yet: conclude silently, no RST.
            return self.conclude(RawOutcome::Error(kind));
        }
        self.finish(RawOutcome::Error(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_wire::tcp::TcpOption;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

    fn cfg() -> ConnConfig {
        ConnConfig::new(
            DST,
            SRC,
            40000,
            80,
            64,
            7000,
            b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        )
    }

    fn conn() -> (InferenceConn, ConnOutput) {
        InferenceConn::new(cfg(), Instant::ZERO)
    }

    fn syn_ack() -> tcp::Repr {
        tcp::Repr {
            src_port: 80,
            dst_port: 40000,
            seq: 50_000,
            ack: 7001,
            flags: Flags::SYN | Flags::ACK,
            window: 65535,
            options: vec![TcpOption::Mss(64)],
            payload: vec![],
        }
    }

    fn data(offset: u32, len: usize, fin: bool) -> tcp::Repr {
        let mut flags = Flags::ACK;
        if fin {
            flags |= Flags::FIN;
        }
        tcp::Repr {
            src_port: 80,
            dst_port: 40000,
            seq: 50_001 + offset,
            ack: 7001 + 18,
            flags,
            window: 65535,
            options: vec![],
            payload: vec![0xaa; len],
        }
    }

    fn establish() -> (InferenceConn, Instant) {
        establish_reading(Reads::Nothing)
    }

    /// An established connection that stores what `reads` asks for.
    fn establish_reading(reads: Reads) -> (InferenceConn, Instant) {
        let (mut c, out) = InferenceConn::new(ConnConfig { reads, ..cfg() }, Instant::ZERO);
        assert_eq!(out.tx.len(), 1);
        assert!(out.tx[0].header.flags.contains(Flags::SYN));
        assert_eq!(out.tx[0].header.mss, Some(64));
        assert!(!out.tx[0].header.sack_permitted, "SACK must stay off");
        let now = Instant::ZERO + Duration::from_millis(20);
        let out = c.on_segment(&syn_ack(), now);
        assert_eq!(out.tx.len(), 1, "ACK+request in one packet");
        assert!(out.tx[0].carries_request);
        assert_eq!(
            out.request, b"GET / HTTP/1.1\r\n\r\n",
            "the request leaves with it"
        );
        assert!(c.cfg.request.is_empty());
        assert_eq!(out.tx[0].header.ack, 50_001);
        (c, now)
    }

    #[test]
    fn clean_iw10_success() {
        let (mut c, now) = establish();
        // Ten in-order segments.
        for i in 0..10u32 {
            let out = c.on_segment(&data(i * 64, 64, false), now);
            assert!(out.result.is_none());
            assert!(out.tx.is_empty(), "never ACK during collection");
        }
        // Server RTO: first segment again.
        let out = c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        assert!(out.result.is_none());
        assert_eq!(out.tx.len(), 1, "verification ACK");
        let ack = &out.tx[0].header;
        assert_eq!(ack.ack, 50_001 + 640);
        assert_eq!(ack.window, 128, "2×MSS window");
        // New data released → success.
        let out = c.on_segment(&data(640, 64, false), now + Duration::from_secs(1));
        let result = out.result.expect("done");
        match result.outcome {
            RawOutcome::Success {
                segments,
                bytes,
                max_seg,
                loss_suspected,
                reordered,
            } => {
                assert_eq!(segments, 10);
                assert_eq!(bytes, 640);
                assert_eq!(max_seg, 64);
                assert!(!loss_suspected);
                assert!(!reordered);
            }
            other => panic!("{other:?}"),
        }
        // Connection torn down with RST.
        assert!(out.tx.iter().any(|s| s.header.flags.contains(Flags::RST)));
    }

    #[test]
    fn few_data_with_fin_in_flight() {
        let (mut c, now) = establish();
        for i in 0..3u32 {
            c.on_segment(&data(i * 64, 64, false), now);
        }
        c.on_segment(&data(192, 30, true), now); // 222 bytes total + FIN
        let out = c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        match out.result.expect("done").outcome {
            RawOutcome::FewData {
                lower_bound,
                bytes,
                fin_seen,
                ..
            } => {
                assert_eq!(bytes, 222);
                assert_eq!(lower_bound, 3);
                assert!(fin_seen);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn verification_silence_is_few_data() {
        let (mut c, now) = establish();
        for i in 0..5u32 {
            c.on_segment(&data(i * 64, 64, false), now);
        }
        let out = c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        let deadline = out.deadline.unwrap();
        let out = c.on_timer(deadline);
        match out.result.expect("done").outcome {
            RawOutcome::FewData {
                lower_bound, bytes, ..
            } => {
                assert_eq!(bytes, 320);
                assert_eq!(lower_bound, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mute_host_times_out_as_nodata() {
        let (mut c, now) = establish();
        let deadline = now + cfg().collect_timeout;
        let out = c.on_timer(deadline);
        match out.result.expect("done").outcome {
            RawOutcome::FewData {
                lower_bound,
                bytes,
                fin_seen,
                ..
            } => {
                assert_eq!((lower_bound, bytes), (0, 0));
                assert!(!fin_seen);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn windows_536_divisor() {
        let (mut c, now) = establish();
        // Server ignored our 64 and sends 536-byte segments (IW4).
        for i in 0..4u32 {
            c.on_segment(&data(i * 536, 536, false), now);
        }
        c.on_segment(&data(0, 536, false), now + Duration::from_secs(3));
        let out = c.on_segment(&data(4 * 536, 536, false), now + Duration::from_secs(3));
        match out.result.expect("done").outcome {
            RawOutcome::Success {
                segments, max_seg, ..
            } => {
                assert_eq!(max_seg, 536);
                assert_eq!(segments, 4, "observed-MSS divisor (§3.1)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reordering_is_detected_and_tolerated() {
        let (mut c, now) = establish();
        // Segments 0,2,1,3 — reordered but complete.
        for i in [0u32, 2, 1, 3] {
            c.on_segment(&data(i * 64, 64, false), now);
        }
        c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        let out = c.on_segment(&data(256, 64, false), now + Duration::from_secs(1));
        match out.result.expect("done").outcome {
            RawOutcome::Success {
                segments,
                reordered,
                loss_suspected,
                ..
            } => {
                assert_eq!(segments, 4);
                assert!(reordered);
                assert!(!loss_suspected);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mid_flight_loss_flagged() {
        let (mut c, now) = establish();
        // Segment 1 lost: 0,2,3 received.
        for i in [0u32, 2, 3] {
            c.on_segment(&data(i * 64, 64, false), now);
        }
        c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        let out = c.on_segment(&data(256, 64, false), now + Duration::from_secs(1));
        match out.result.expect("done").outcome {
            RawOutcome::Success {
                segments,
                bytes,
                loss_suspected,
                ..
            } => {
                assert_eq!(bytes, 192, "distinct bytes only");
                assert_eq!(segments, 3, "underestimate, flagged");
                assert!(loss_suspected);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tail_loss_underestimates_silently() {
        // The §3.5 phenomenon: the last segment of the flight is lost —
        // nothing marks the estimate as wrong (multi-probe voting is the
        // only defence).
        let (mut c, now) = establish();
        for i in 0..9u32 {
            c.on_segment(&data(i * 64, 64, false), now);
        }
        // Segment 9 lost; retransmission of 0 arrives.
        c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        let out = c.on_segment(&data(640, 64, false), now + Duration::from_secs(1));
        match out.result.expect("done").outcome {
            RawOutcome::Success {
                segments,
                loss_suspected,
                ..
            } => {
                assert_eq!(segments, 9, "one too low");
                assert!(!loss_suspected, "tail loss is undetectable");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn telemetry_notes_mark_retransmit_and_verify() {
        let (mut c, now) = establish();
        for i in 0..5u32 {
            let out = c.on_segment(&data(i * 64, 64, false), now);
            assert!(out.notes.is_empty(), "no notes during collection");
        }
        let out = c.on_segment(&data(0, 64, false), now + Duration::from_secs(1));
        assert_eq!(
            out.notes,
            vec![
                ConnNote::RetransmitDetected {
                    bytes_in_flight: 320
                },
                ConnNote::VerifyAckSent
            ]
        );
    }

    #[test]
    fn rst_to_syn_is_unreachable() {
        let (mut c, _) = conn();
        let rst = tcp::Repr::bare(80, 40000, 0, 7001, Flags::RST | Flags::ACK, 0);
        let out = c.on_segment(&rst, Instant::ZERO + Duration::from_millis(5));
        assert_eq!(out.result.unwrap().outcome, RawOutcome::Unreachable);
        assert!(out.tx.is_empty(), "never answer a RST");
    }

    #[test]
    fn syn_timeout_is_handshake_timeout() {
        let (mut c, out) = conn();
        let out = c.on_timer(out.deadline.unwrap());
        assert_eq!(
            out.result.unwrap().outcome,
            RawOutcome::Error(ErrorKind::HandshakeTimeout)
        );
        assert!(out.tx.is_empty(), "no RST for a connection that never was");
    }

    #[test]
    fn fail_aborts_collecting_with_rst() {
        let (mut c, now) = establish();
        c.on_segment(&data(0, 64, false), now);
        let out = c.fail(ErrorKind::CollectTimeout);
        assert_eq!(
            out.result.unwrap().outcome,
            RawOutcome::Error(ErrorKind::CollectTimeout)
        );
        assert!(out.tx.iter().any(|s| s.header.flags.contains(Flags::RST)));
        assert!(c.is_done());
        // Failing again is a no-op.
        assert!(c.fail(ErrorKind::CollectTimeout).result.is_none());
    }

    #[test]
    fn fail_in_synsent_is_silent() {
        let (mut c, _) = conn();
        let out = c.fail(ErrorKind::IcmpUnreachable);
        assert_eq!(
            out.result.unwrap().outcome,
            RawOutcome::Error(ErrorKind::IcmpUnreachable)
        );
        assert!(out.tx.is_empty(), "nothing to reset before the handshake");
    }

    #[test]
    fn mid_conn_rst_is_error() {
        let (mut c, now) = establish();
        c.on_segment(&data(0, 64, false), now);
        let rst = tcp::Repr::bare(80, 40000, 50_066, 0, Flags::RST, 0);
        let out = c.on_segment(&rst, now);
        assert_eq!(
            out.result.unwrap().outcome,
            RawOutcome::Error(ErrorKind::MidConnectionReset)
        );
    }

    #[test]
    fn wrong_cookie_ignored() {
        let (mut c, _) = conn();
        let mut bad = syn_ack();
        bad.ack = 9999;
        let out = c.on_segment(&bad, Instant::ZERO);
        assert!(out.result.is_none());
        assert!(out.tx.is_empty());
        assert!(!c.is_done());
    }

    #[test]
    fn port_scan_mode() {
        let mut c = cfg();
        c.request.clear();
        let (mut conn, _) = InferenceConn::new(c, Instant::ZERO);
        let out = conn.on_segment(&syn_ack(), Instant::ZERO);
        assert_eq!(out.result.unwrap().outcome, RawOutcome::Open);
        assert!(out.tx.iter().any(|s| s.header.flags.contains(Flags::RST)));
    }

    #[test]
    fn response_reassembly_handles_reordering() {
        let (mut c, now) = establish_reading(Reads::HttpHead);
        let mk = |offset: u32, body: &[u8]| tcp::Repr {
            src_port: 80,
            dst_port: 40000,
            seq: 50_001 + offset,
            ack: 7019,
            flags: Flags::ACK,
            window: 65535,
            options: vec![],
            payload: body.to_vec(),
        };
        c.on_segment(&mk(5, b"WORLD"), now);
        c.on_segment(&mk(0, b"HELLO"), now);
        assert_eq!(c.store, b"HELLOWORLD");
        // Force conclusion via timeout: no blank line, no head.
        let out = c.on_timer(now + cfg().collect_timeout);
        let head = out.result.unwrap().head.unwrap();
        assert_eq!(head.status, Err(iw_wire::Error::Truncated));
        assert!(c.store.is_empty());
    }

    #[test]
    fn a_fragment_overlapping_the_prefix_still_advances_it() {
        let (mut c, now) = establish_reading(Reads::HttpHead);
        let mk = |offset: u32, body: &[u8]| tcp::Repr {
            payload: body.to_vec(),
            ..tcp::Repr::bare(80, 40000, 50_001 + offset, 7019, Flags::ACK, 65535)
        };
        c.on_segment(&mk(0, b"HELLO"), now);
        // Starts inside what is already in order and reaches past it.
        c.on_segment(&mk(3, b"LOWORLD"), now);
        assert_eq!(c.prefix_len(), 10);
        assert_eq!(c.store, b"HELLOWORLD");
    }

    #[test]
    fn more_out_of_order_fragments_than_any_stash_held_all_land() {
        let (mut c, now) = establish_reading(Reads::HttpHead);
        // 100 one-byte fragments, every other offset first, then the rest
        // downwards: far more pieces in flight than the 64 once kept.
        let offsets = (0..100u32)
            .filter(|o| o % 2 == 1)
            .chain((0..100u32).rev().filter(|o| o % 2 == 0));
        for offset in offsets {
            let byte = [offset as u8];
            let seg = tcp::Segment {
                payload: &byte,
                ..tcp::Segment::bare(80, 40000, 50_001 + offset, 7019, Flags::ACK, 65535)
            };
            assert!(c.on_segment(seg, now).result.is_none());
        }
        let expect: Vec<u8> = (0..100u8).collect();
        assert_eq!(c.store, expect);
    }

    /// The reference the reassembly is checked against: one flag per
    /// stream byte.
    struct ByteMap {
        seen: Vec<bool>,
        reordered: bool,
    }

    impl ByteMap {
        /// Maximal runs of seen bytes, as `[start, end)`.
        fn ranges(&self) -> Vec<(u32, u32)> {
            let mut runs: Vec<(u32, u32)> = Vec::new();
            for (i, _) in self.seen.iter().enumerate().filter(|(_, seen)| **seen) {
                let i = i as u32;
                match runs.last_mut() {
                    Some((_, end)) if *end == i => *end = i + 1,
                    _ => runs.push((i, i + 1)),
                }
            }
            runs
        }

        /// Note `[start, end)`; true if every byte was there already.
        /// `reordered` follows the machine's rule, stated on the map: a
        /// new fragment that neither starts past the frontier nor extends
        /// the last run, and ends at or below the frontier.
        fn note(&mut self, start: u32, end: u32) -> bool {
            let span = start as usize..end as usize;
            if self.seen[span.clone()].iter().all(|seen| *seen) {
                return true;
            }
            if let Some((last_start, frontier)) = self.ranges().last().copied() {
                let appends = start > frontier || (start >= last_start && end > frontier);
                if !appends && end <= frontier {
                    self.reordered = true;
                }
            }
            self.seen[span].fill(true);
            false
        }
    }

    /// A response stream shaped like what HTTP servers send, and unlike
    /// it: a status line (sometimes garbage), headers (a `Location`
    /// sometimes, one long enough to push the head past the cap
    /// sometimes), a blank line (usually), then a body that may hold
    /// blank lines of its own.
    fn http_stream(rng: &mut iw_internet::util::HashStream) -> Vec<u8> {
        let mut out = Vec::new();
        let status = [200u64, 301, 302, 404, 500][rng.next_range(0, 4) as usize];
        if rng.next_range(0, 9) == 0 {
            out.extend_from_slice(b"garbage\r\n");
        } else {
            out.extend_from_slice(format!("HTTP/1.1 {status} Reason\r\n").as_bytes());
        }
        for i in 0..rng.next_range(0, 4) {
            let len = match rng.next_range(0, 7) {
                0 => rng.next_range(2_000, 9_000),
                _ => rng.next_range(0, 80),
            } as usize;
            let name = if i == 0 && rng.next_range(0, 1) == 0 {
                "Location".to_string()
            } else {
                format!("X-H{i}")
            };
            let value: String = (0..len).map(|j| (b'a' + (j % 26) as u8) as char).collect();
            out.extend_from_slice(format!("{name}: http://{value}/p\r\n").as_bytes());
        }
        if rng.next_range(0, 7) != 0 {
            out.extend_from_slice(b"\r\n");
        }
        for _ in 0..rng.next_range(0, 3) {
            let len = rng.next_range(0, 4_000) as usize;
            out.extend((0..len).map(|j| b"body "[j % 5]));
            out.extend_from_slice(b"\r\n\r\n");
        }
        out
    }

    /// What the compact store holds for `ranges`: their bytes below
    /// `keep`, concatenated.
    fn stored(stream: &[u8], ranges: &[(u32, u32)], keep: u32) -> Vec<u8> {
        ranges
            .iter()
            .flat_map(|&(s, e)| {
                stream[s.min(keep) as usize..e.min(keep) as usize]
                    .iter()
                    .copied()
            })
            .collect()
    }

    #[test]
    fn reassembly_matches_a_byte_map_under_reordering_duplication_and_overlap() {
        let mut rng = iw_internet::util::HashStream::new(0x7ea5_5e3b, 0, 0);
        for round in 0..400 {
            // The same fragments into a connection reading the head and
            // one reading nothing.
            let (mut c, _) = establish_reading(Reads::HttpHead);
            let (mut counted, _) = establish_reading(Reads::Nothing);
            // Streams on both sides of the response cap.
            let stream = http_stream(&mut rng);
            let len = stream.len() as u32;
            let mut model = ByteMap {
                seen: vec![false; len as usize],
                reordered: false,
            };
            // An MSS-sized segmentation of the stream, shuffled, some
            // pieces dropped, then arbitrary overlapping spans and exact
            // duplicates mixed in. One round in three cuts the head's
            // blank line in two, so the prefix completes it across pieces.
            let head = iw_wire::http::head_len(&stream).filter(|h| *h < RESPONSE_CAP);
            let mss = match head {
                Some(h) if rng.next_range(0, 2) == 0 => h - rng.next_range(1, 3) as usize,
                _ => [64, 128, 536, 1460][rng.next_range(0, 3) as usize],
            };
            let mut pieces: Vec<(u32, u32)> = (0..len)
                .step_by(mss)
                .map(|s| (s, (s + mss as u32).min(len)))
                .filter(|_| rng.next_range(0, 7) != 0)
                .collect();
            for _ in 0..rng.next_range(0, 11) {
                let start = rng.next_range(0, u64::from(len) - 1) as u32;
                let end = (start + rng.next_range(1, 2_000) as u32).min(len);
                pieces.push((start, end));
            }
            for _ in 0..rng.next_range(0, 3) {
                if let Some(piece) = pieces.get(rng.next_range(0, pieces.len() as u64) as usize) {
                    pieces.push(*piece);
                }
            }
            let swaps = match rng.next_range(0, 2) {
                0 => 0,
                1 => 3.min(pieces.len()),
                _ => pieces.len() * 2,
            };
            for _ in 0..swaps {
                let last = pieces.len() as u64 - 1;
                let (a, b) = (rng.next_range(0, last), rng.next_range(0, last));
                pieces.swap(a as usize, b as usize);
            }
            // The lowest end of a blank line any fragment held.
            let mut bound = RESPONSE_CAP;
            for (start, end) in pieces {
                let data = &stream[start as usize..end as usize];
                if let Some(len) = iw_wire::http::head_len(data) {
                    bound = bound.min(start as usize + len);
                }
                let duplicate = c.receive(start, data);
                assert_eq!(duplicate, model.note(start, end), "round {round}");
                assert_eq!(counted.receive(start, data), duplicate, "round {round}");
                assert_eq!(c.ranges, model.ranges(), "round {round}");
                assert_eq!(counted.ranges, c.ranges, "round {round}");
                assert_eq!(c.reordered, model.reordered, "round {round}");
                // Storing stops at any blank line a fragment held; once the
                // prefix holds the head, it is read and the store freed.
                let prefix = model.seen.iter().take_while(|seen| **seen).count();
                let in_order = &stream[..prefix.min(RESPONSE_CAP)];
                let head = iw_wire::http::head_len(in_order).map(|_| HttpHead::read(in_order));
                let keep = if head.is_some() { 0 } else { bound };
                assert_eq!(c.head, head, "round {round}");
                assert_eq!(c.keep as usize, keep, "round {round}");
                let store = stored(&stream, &c.ranges, c.keep);
                assert_eq!(c.store, store, "round {round}");
                let freed = c.store.capacity() == 0;
                assert!(head.is_none() || freed, "round {round}");
                assert_eq!(counted.store.capacity(), 0, "round {round}");
            }
            let runs = model.ranges();
            let loss_suspected = runs.len() > 1 || runs.first().is_some_and(|(s, _)| *s != 0);
            assert_eq!(c.has_hole(), loss_suspected, "round {round}");
            // Read at completion or at conclusion, the head is what the
            // whole in-order prefix parses to.
            let prefix = model.seen.iter().take_while(|seen| **seen).count();
            let in_order = &stream[..prefix.min(RESPONSE_CAP)];
            let head = c.conclude(RawOutcome::Open).result.unwrap().head;
            assert_eq!(head, Some(HttpHead::read(in_order)), "round {round}");
            assert_eq!(c.store.capacity(), 0, "round {round}");
            let unread = counted.conclude(RawOutcome::Open).result.unwrap();
            assert_eq!(unread.head, None, "round {round}");
        }
    }

    #[test]
    fn alert_sized_response_is_lower_bound_one() {
        let (mut c, now) = establish();
        c.on_segment(&data(0, 7, true), now); // 7-byte TLS alert + FIN
        let out = c.on_segment(&data(0, 7, true), now + Duration::from_secs(1));
        match out.result.expect("done").outcome {
            RawOutcome::FewData {
                lower_bound,
                bytes,
                fin_seen,
                ..
            } => {
                assert_eq!((lower_bound, bytes), (1, 7));
                assert!(fin_seen);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Every variant. The match in the test stops compiling when one is
    /// added; listed here, the test then demands its edges.
    const ALL: [Phase; 4] = [
        Phase::SynSent,
        Phase::Collecting,
        Phase::Verifying,
        Phase::Done,
    ];

    #[test]
    fn phase_transitions_are_closed() {
        let (initial, terminal) = (Phase::SynSent, Phase::Done);
        let reached = proptest::reachable(TRANSITIONS, initial);
        for s in ALL {
            match s {
                Phase::SynSent | Phase::Collecting | Phase::Verifying | Phase::Done => {}
            }
            assert!(
                reached.contains(&s),
                "{s:?} is unreachable from {initial:?}"
            );
            if s == terminal {
                let out = TRANSITIONS.iter().find(|(from, _)| *from == terminal);
                assert_eq!(out, None, "the terminal state is a sink");
            } else {
                // What lets a forced conclusion end it from anywhere.
                let forced = TRANSITIONS.contains(&(s, terminal));
                assert!(forced, "{s:?} has no direct edge to {terminal:?}");
            }
        }
    }

    #[test]
    fn an_undeclared_phase_edge_is_taken_and_counted() {
        let (mut c, _) = conn();
        assert_eq!(c.set_phase(Phase::Verifying), 1);
        assert_eq!(c.phase, Phase::Verifying);
        assert_eq!(c.set_phase(Phase::Done), 0);
    }
}
