//! The server-side TCP connection state machine.
//!
//! This is a deliberately faithful implementation of the behaviours the
//! Padhye–Floyd-style inference depends on:
//!
//! * the initial flight is paced by `min(cwnd, peer window)` with
//!   `cwnd = IW(policy, effective MSS)`;
//! * an unacknowledged first segment is retransmitted after the RTO —
//!   the scanner's "end of IW" signal;
//! * a later cumulative ACK releases *new* data only if the application
//!   supplied more than the IW — the scanner's exhaustion check;
//! * a graceful close queues the FIN *behind* unsent data, so a FIN
//!   observed inside the initial flight proves the host ran out of data
//!   (§3.2's `Connection: close` trick);
//! * slow start grows cwnd on new ACKs (appropriate byte counting).
//!
//! Out-of-order data from the peer is not reassembled (the scanner only
//! ever sends tiny in-order requests); it is acknowledged at `rcv_nxt`
//! like any mainstream stack would (duplicate ACK).
//!
//! Nothing is copied per segment in either direction: an inbound
//! payload is handed to the application where it lies in the packet, and
//! every outbound segment goes to the caller's [`Sink`] as an
//! [`Outgoing`]: a header plus the stretch of the send stream its payload
//! is, which the sink writes straight into the packet. What the stream
//! holds of a response is its stored bytes (a head); the body is written
//! from its description at each emission ([`Body`]).

use crate::app::{App, AppResponse, Body};
use crate::os::OsProfile;
use crate::policy::IwPolicy;
use iw_netsim::{Duration, Instant};
use iw_wire::ipv4::Ipv4Addr;
use iw_wire::tcp::{self, seq, Flags};
use iw_wire::{BufferPool, PooledPacket};
use std::collections::VecDeque;

/// Connection lifecycle states (server side only; no active open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// SYN received, SYN-ACK sent, waiting for the final ACK.
    SynRcvd,
    /// Handshake complete.
    Established,
    /// FIN sent (after data drained), waiting for it to be acknowledged.
    FinWait,
    /// Connection finished or aborted; the TCB can be discarded.
    Closed,
}

/// Every edge the machine may take. Handshake → established → FIN-wait
/// → closed, and `Closed` straight from every live state: a RST, the
/// application's reset and retransmission exhaustion must be able to
/// end the connection wherever it stands. [`Tcb::set_state`] counts
/// every change it makes along an edge missing here.
const TRANSITIONS: &[(State, State)] = &[
    (State::SynRcvd, State::Established),
    (State::Established, State::FinWait),
    (State::FinWait, State::Closed),
    (State::SynRcvd, State::Closed),
    (State::Established, State::Closed),
];

/// Maximum RTO-backoff retransmissions before giving up.
const MAX_RETRIES: u32 = 6;

/// How long after its first SYN-ACK a stack whose initial RTO is `rto`
/// may still retransmit it: `MAX_RETRIES` timeouts, each twice the last.
pub fn synack_retransmit_span(rto: Duration) -> Duration {
    rto.saturating_mul((1 << MAX_RETRIES) - 1)
}

/// A segment in flight, kept for retransmission.
///
/// Payload bytes are not stored here: a segment is a `[start, start+len)`
/// window into the connection's [`SendStream`], so queueing a response,
/// segmentizing it and retransmitting it all read the same description.
/// Its boundaries are kept, not derived from the MSS: a byte-configured
/// window ends in a runt. A segment is at most one MSS (≤ 65 535 bytes),
/// and a probe's response stream is far below 4 GiB.
#[derive(Debug, Clone, Copy)]
struct InflightSeg {
    seq: u32,
    start: u32,
    len: u16,
    fin: bool,
}

const _: () = assert!(
    std::mem::size_of::<InflightSeg>() <= 12,
    "every live connection keeps one InflightSeg per segment of its \
     initial flight: 32-byte entries cost dense_http ~0.8 MB more"
);

impl InflightSeg {
    fn seq_len(&self) -> u32 {
        u32::from(self.len) + u32::from(self.fin)
    }
}

/// Everything the application has queued, in stream order: stored
/// bytes, then a described body.
#[derive(Debug, Default)]
struct SendStream {
    stored: Vec<u8>,
    body: Body,
}

impl SendStream {
    fn len(&self) -> usize {
        self.stored.len() + self.body.len()
    }

    /// Queue `data`, then `body`, behind what is queued. A body already
    /// queued is written out into the stored bytes first, so the stream
    /// stays stored bytes then one body. In a probe exchange that never
    /// happens: a connection answers one request.
    fn push(&mut self, data: Vec<u8>, body: Body) {
        if data.is_empty() && body.is_empty() {
            return;
        }
        if self.len() == 0 {
            // The first response: adopt the application's buffer
            // instead of copying it.
            *self = SendStream { stored: data, body };
            return;
        }
        let queued = std::mem::replace(&mut self.body, body);
        let at = self.stored.len();
        self.stored.resize(at + queued.len(), 0);
        queued.write_at(0, &mut self.stored[at..]);
        self.stored.extend_from_slice(&data);
    }

    /// Write stream bytes `offset..offset + out.len()` into `out`.
    fn write_at(&self, offset: usize, out: &mut [u8]) {
        let split = self.stored.len().saturating_sub(offset).min(out.len());
        let (stored, body) = out.split_at_mut(split);
        if !stored.is_empty() {
            stored.copy_from_slice(&self.stored[offset..offset + split]);
        }
        if !body.is_empty() {
            self.body.write_at(offset + split - self.stored.len(), body);
        }
    }
}

/// One segment a TCB event transmits: its header, and the stretch of the
/// connection's send stream that is its payload.
#[derive(Clone, Copy)]
pub struct Outgoing<'a> {
    /// Everything but the payload.
    pub header: tcp::Segment<'static>,
    stream: &'a SendStream,
    start: usize,
    len: usize,
}

impl Outgoing<'_> {
    /// Write the payload into `out` (exactly `len` long).
    fn write_payload(&self, out: &mut [u8]) {
        self.stream.write_at(self.start, out);
    }

    /// This segment as a pooled IPv4 datagram (see
    /// [`tcp::Segment::datagram`]): the payload is written into the
    /// packet, never into a buffer of its own.
    pub fn datagram(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ident: &mut u16,
        pool: &BufferPool,
    ) -> PooledPacket {
        self.header.datagram_with(
            self.len,
            |out| self.write_payload(out),
            src,
            dst,
            ident,
            pool,
        )
    }
}

impl From<Outgoing<'_>> for tcp::Repr {
    /// The segment with its payload copied out.
    fn from(seg: Outgoing<'_>) -> tcp::Repr {
        let mut payload = vec![0; seg.len];
        seg.write_payload(&mut payload);
        tcp::Repr {
            payload,
            ..tcp::Repr::from(seg.header)
        }
    }
}

/// Where a TCB event hands the segments it transmits, in order. A
/// segment borrows the connection's send stream, so the sink writes it
/// out (the host: straight into a pooled packet) before it returns.
pub type Sink<'s> = dyn FnMut(Outgoing<'_>) + 's;

/// Output of a TCB event besides the segments its [`Sink`] received.
#[derive(Debug, Default)]
pub struct TcbOutput {
    /// Absolute deadline at which `on_timer` should be invoked (the host
    /// arms a simulator timer; stale timers are harmless).
    pub deadline: Option<Instant>,
}

/// The server-side transmission control block.
pub struct Tcb {
    // Immutable connection identity.
    local_addr: Ipv4Addr,
    peer_addr: Ipv4Addr,
    local_port: u16,
    peer_port: u16,

    /// The stack's initial RTO (all that is read of its `OsProfile`
    /// after the handshake): a fresh ACK resets the backoff to it.
    initial_rto: Duration,
    app: Box<dyn App>,

    state: State,
    /// Effective MSS after OS quirk rules.
    mss: u32,

    // Sequence variables (RFC 793 names).
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    peer_wnd: u32,

    // Congestion control.
    cwnd: u32,
    ssthresh: u32,

    // Send machinery: every byte the application has queued, in order.
    // `sent` marks the segmentation frontier; bytes before it are covered
    // by `inflight` windows until acknowledged. The stream is retained
    // whole for the connection's (short) lifetime, so no per-segment
    // copies or shifts ever happen on this path.
    send: SendStream,
    sent: u32,
    inflight: VecDeque<InflightSeg>,
    close_pending: bool,
    fin_sent: bool,

    // Retransmission state: the RTO is `initial_rto` doubled once per
    // retry since the last fresh ACK.
    rto_deadline: Option<Instant>,
    retries: u32,
    /// The deadline the host last armed the connection's timer for. An
    /// arm moves the one pending timer the connection's token names, so
    /// the host arms only when the RTO deadline changed; it cancels the
    /// timer when the connection closes.
    armed: Option<Instant>,

    /// Undeclared state changes not yet taken by the host (a `u8` fits padding).
    pub(crate) undeclared_edges: u8,
}

const _: () = assert!(
    std::mem::size_of::<Tcb>() <= 184,
    "a host keeps one Tcb per live connection, and a responder-dense scan \
     keeps every responder live at once: at 240 B (an OsProfile copy, an \
     RTO field and unread counters) the connection tables cost dense_http \
     ~1 MB more"
);

impl Tcb {
    /// Accept a SYN: build the TCB and send the SYN-ACK.
    ///
    /// `syn` must have the SYN flag; `isn` is the server's initial
    /// sequence number (chosen by the host's RNG).
    #[allow(clippy::too_many_arguments)]
    pub fn accept<'a>(
        local_addr: Ipv4Addr,
        peer_addr: Ipv4Addr,
        local_port: u16,
        peer_port: u16,
        os: &OsProfile,
        iw: IwPolicy,
        app: Box<dyn App>,
        syn: impl Into<tcp::Segment<'a>>,
        isn: u32,
        now: Instant,
        sink: &mut Sink<'_>,
    ) -> (Tcb, TcbOutput) {
        let syn = syn.into();
        debug_assert!(syn.flags.contains(Flags::SYN));
        let mss = os.effective_mss(syn.mss);
        let mut tcb = Tcb {
            local_addr,
            peer_addr,
            local_port,
            peer_port,
            initial_rto: os.initial_rto,
            app,
            state: State::SynRcvd,
            mss,
            iss: isn,
            snd_una: isn,
            snd_nxt: isn.wrapping_add(1),
            rcv_nxt: syn.seq.wrapping_add(1),
            peer_wnd: u32::from(syn.window),
            cwnd: iw.initial_cwnd(mss),
            ssthresh: u32::MAX,
            send: SendStream::default(),
            sent: 0,
            inflight: VecDeque::new(),
            close_pending: false,
            fin_sent: false,
            rto_deadline: None,
            retries: 0,
            armed: None,
            undeclared_edges: 0,
        };
        let mut out = TcbOutput::default();
        sink(tcb.bare(tcb.syn_ack()));
        tcb.arm_rto(now, &mut out);
        (tcb, out)
    }

    /// A payload-less segment of this connection acknowledging `rcv_nxt`.
    fn header(&self, seq: u32, flags: Flags, window: u16) -> tcp::Segment<'static> {
        tcp::Segment::bare(
            self.local_port,
            self.peer_port,
            seq,
            self.rcv_nxt,
            flags,
            window,
        )
    }

    /// A segment that carries no payload.
    fn bare(&self, header: tcp::Segment<'static>) -> Outgoing<'_> {
        self.carrying(header, 0, 0)
    }

    /// A segment whose payload is stream bytes `start..start + len`.
    fn carrying(&self, header: tcp::Segment<'static>, start: u32, len: usize) -> Outgoing<'_> {
        Outgoing {
            header,
            stream: &self.send,
            start: start as usize,
            len,
        }
    }

    fn syn_ack(&self) -> tcp::Segment<'static> {
        tcp::Segment {
            // The server advertises its own MSS; answering with the
            // clamped value is what lets the scanner observe the real
            // segment size early (it still verifies against data).
            mss: Some(self.mss.min(65535) as u16),
            ..self.header(self.iss, Flags::SYN | Flags::ACK, 65535)
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The one place the state changes. An edge missing from
    /// `TRANSITIONS` is still taken, and counted.
    fn set_state(&mut self, to: State) {
        self.undeclared_edges += u8::from(!TRANSITIONS.contains(&(self.state, to)));
        self.state = to;
    }

    /// Whether this TCB can be discarded.
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    /// The effective MSS in use.
    pub fn effective_mss(&self) -> u32 {
        self.mss
    }

    /// Handle an inbound segment.
    pub fn on_segment<'a>(
        &mut self,
        seg: impl Into<tcp::Segment<'a>>,
        now: Instant,
        sink: &mut Sink<'_>,
    ) -> TcbOutput {
        let seg = seg.into();
        let mut out = TcbOutput::default();
        if self.state == State::Closed {
            return out;
        }
        if seg.flags.contains(Flags::RST) {
            self.set_state(State::Closed);
            return out;
        }
        // A retransmitted SYN in SynRcvd: re-send the SYN-ACK.
        if seg.flags.contains(Flags::SYN) {
            if self.state == State::SynRcvd {
                sink(self.bare(self.syn_ack()));
                self.arm_rto(now, &mut out);
            }
            return out;
        }

        // ACK processing.
        if seg.flags.contains(Flags::ACK) {
            self.process_ack(seg.ack, now);
        }
        self.peer_wnd = u32::from(seg.window);

        if self.state == State::SynRcvd && seq::lt(self.iss, seg.ack) {
            self.set_state(State::Established);
        }

        // Data processing: only in-order data is consumed, and the
        // application sees each chunk once (it does its own buffering).
        let mut should_ack = false;
        if !seg.payload.is_empty() {
            if seg.seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                if let Some(resp) = self.app.on_data(seg.payload) {
                    self.apply_app_response(resp, sink);
                }
            }
            should_ack = true;
        }
        // Peer FIN.
        if seg.flags.contains(Flags::FIN)
            && seg.seq.wrapping_add(seg.payload.len() as u32) == self.rcv_nxt
        {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            should_ack = true;
            // Passive close: we FIN back once our data drains.
            self.close_pending = true;
        }

        if self.state == State::Closed {
            return out;
        }

        // Try to transmit whatever the window now admits.
        let sent_any = self.pump_send(sink);

        // Pure ACK if we consumed sequence space but sent no data.
        if should_ack && !sent_any {
            sink(self.bare(self.header(self.snd_nxt, Flags::ACK, 65535)));
        }

        self.update_rto_timer(now, &mut out);
        out
    }

    fn apply_app_response(&mut self, resp: AppResponse, sink: &mut Sink<'_>) {
        if resp.reset {
            sink(self.bare(self.header(self.snd_nxt, Flags::RST | Flags::ACK, 0)));
            self.set_state(State::Closed);
            return;
        }
        // Per-service IW (Akamai-style, §4.3): the edge applies the
        // property's congestion configuration once it knows which
        // service is requested — legal only before any data went out.
        if let Some(policy) = resp.iw_override {
            if self.inflight.is_empty() && self.unsent() == 0 {
                self.cwnd = policy.initial_cwnd(self.mss);
            }
        }
        self.send.push(resp.data, resp.body);
        if resp.close {
            self.close_pending = true;
        }
    }

    fn process_ack(&mut self, ack: u32, _now: Instant) {
        if !seq::lt(self.snd_una, ack) || seq::lt(self.snd_nxt, ack) {
            return; // duplicate or out-of-window ACK
        }
        let mut bytes_acked = seq::dist(self.snd_una, ack);
        // The SYN occupies one sequence unit but is not data: the
        // handshake ACK must not grow cwnd (it would add a runt segment
        // to the initial flight and corrupt the IW under measurement).
        if self.state == State::SynRcvd {
            bytes_acked = bytes_acked.saturating_sub(1);
        }
        self.snd_una = ack;
        // Drop fully acknowledged segments from the retransmit store.
        while let Some(first) = self.inflight.front() {
            let end = first.seq.wrapping_add(first.seq_len());
            if seq::le(end, ack) {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        // Slow start with appropriate byte counting; this connection
        // never reaches congestion avoidance in a probe exchange.
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(bytes_acked);
        }
        // Fresh ACK: reset backoff.
        self.retries = 0;
        if self.inflight.is_empty() {
            self.rto_deadline = None;
            if self.state == State::FinWait && self.fin_sent {
                self.set_state(State::Closed);
            }
        }
    }

    /// Unsent bytes remaining in the send stream.
    #[inline]
    fn unsent(&self) -> usize {
        self.send.len() - self.sent as usize
    }

    /// Transmit as much of the send queue as cwnd and the peer window
    /// allow; attach the FIN to the segment that drains the queue.
    /// Returns true if any segment (data or FIN) was emitted.
    fn pump_send(&mut self, sink: &mut Sink<'_>) -> bool {
        if self.state == State::SynRcvd {
            return false; // wait for the handshake ACK
        }
        let inflight_bytes = seq::dist(self.snd_una, self.snd_nxt);
        let allowance = self.cwnd.min(self.peer_wnd).saturating_sub(inflight_bytes);
        let mss = self.mss as usize;
        debug_assert!(mss > 0, "OsProfile floors the MSS");
        // The whole flight's bookkeeping in one growth step of `inflight`.
        let mut left = self.unsent().min(allowance as usize);
        self.inflight.reserve(left.div_ceil(mss));
        let mut sent_any = false;
        while left > 0 {
            let take = mss.min(left);
            left -= take;
            let start = self.sent;
            self.sent += take as u32;
            let drained = self.unsent() == 0;
            let fin = drained && self.close_pending && !self.fin_sent;
            let mut flags = Flags::ACK;
            if drained {
                flags |= Flags::PSH;
            }
            if fin {
                flags |= Flags::FIN;
                self.fin_sent = true;
                self.set_state(State::FinWait);
            }
            sink(self.carrying(self.header(self.snd_nxt, flags, 65535), start, take));
            self.inflight.push_back(InflightSeg {
                seq: self.snd_nxt,
                start,
                len: take as u16,
                fin,
            });
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32 + u32::from(fin));
            sent_any = true;
        }
        // A FIN with no data left to carry it: bare FIN segment.
        if self.close_pending
            && !self.fin_sent
            && self.unsent() == 0
            && self.state == State::Established
        {
            sink(self.bare(self.header(self.snd_nxt, Flags::FIN | Flags::ACK, 65535)));
            self.inflight.push_back(InflightSeg {
                seq: self.snd_nxt,
                start: self.sent,
                len: 0,
                fin: true,
            });
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            self.set_state(State::FinWait);
            sent_any = true;
        }
        sent_any
    }

    fn arm_rto(&mut self, now: Instant, out: &mut TcbOutput) {
        let rto = self.initial_rto.saturating_mul(1 << self.retries);
        let deadline = now + rto;
        self.rto_deadline = Some(deadline);
        out.deadline = Some(deadline);
    }

    fn update_rto_timer(&mut self, now: Instant, out: &mut TcbOutput) {
        if self.inflight.is_empty() && self.state != State::SynRcvd {
            self.rto_deadline = None;
        } else if self.rto_deadline.is_none() {
            self.arm_rto(now, out);
        } else {
            out.deadline = self.rto_deadline;
        }
    }

    /// Handle a timer event. Stale timers (deadline moved/cleared) no-op.
    pub fn on_timer(&mut self, now: Instant, sink: &mut Sink<'_>) -> TcbOutput {
        let mut out = TcbOutput::default();
        let Some(deadline) = self.rto_deadline else {
            return out;
        };
        if now < deadline || self.state == State::Closed {
            out.deadline = self.rto_deadline.filter(|d| *d > now);
            return out;
        }
        if self.retries >= MAX_RETRIES {
            self.set_state(State::Closed);
            return out;
        }
        self.retries += 1;

        match self.state {
            State::SynRcvd => sink(self.bare(self.syn_ack())),
            State::Established | State::FinWait => {
                if let Some(first) = self.inflight.front().copied() {
                    // RFC 5681 on timeout: collapse to one segment and
                    // re-send the *first* unacknowledged segment — the
                    // retransmission the scanner is waiting for.
                    let flight = seq::dist(self.snd_una, self.snd_nxt);
                    self.ssthresh = (flight / 2).max(2 * self.mss);
                    self.cwnd = self.mss;
                    let mut flags = Flags::ACK;
                    if first.fin {
                        flags |= Flags::FIN;
                    }
                    if first.len > 0 {
                        flags |= Flags::PSH;
                    }
                    let header = self.header(first.seq, flags, 65535);
                    sink(self.carrying(header, first.start, usize::from(first.len)));
                }
            }
            State::Closed => {}
        }
        self.arm_rto(now, &mut out);
        out
    }

    /// Whether a simulator timer must be armed for `deadline`: true the
    /// first time each distinct deadline is reported, false for repeats.
    pub fn should_arm(&mut self, deadline: Instant) -> bool {
        if self.armed == Some(deadline) {
            return false;
        }
        self.armed = Some(deadline);
        true
    }

    /// Connection identity accessors for the host layer.
    pub fn peer(&self) -> (Ipv4Addr, u16) {
        (self.peer_addr, self.peer_port)
    }

    /// Local (host) address and port.
    pub fn local(&self) -> (Ipv4Addr, u16) {
        (self.local_addr, self.local_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SilentApp;
    use iw_wire::tcp::TcpOption;

    const HOST: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const SCAN: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// App serving `n` bytes then closing (HTTP-like) on any request.
    struct FixedApp {
        n: usize,
        close: bool,
    }
    impl App for FixedApp {
        fn on_data(&mut self, _d: &[u8]) -> Option<AppResponse> {
            let resp = vec![0x41; self.n];
            Some(if self.close {
                AppResponse::send_and_close(resp)
            } else {
                AppResponse::send(resp)
            })
        }
    }

    /// What one TCB event transmitted (owned copies) and its deadline.
    struct Sent {
        tx: Vec<tcp::Repr>,
        deadline: Option<Instant>,
    }

    /// Run one TCB event against a collecting sink.
    fn collect<R>(event: impl FnOnce(&mut Sink<'_>) -> R) -> (R, Vec<tcp::Repr>) {
        let mut tx = Vec::new();
        let r = event(&mut |seg| tx.push(tcp::Repr::from(seg)));
        (r, tx)
    }

    fn segment(tcb: &mut Tcb, seg: &tcp::Repr, now: Instant) -> Sent {
        let (out, tx) = collect(|sink| tcb.on_segment(seg, now, sink));
        Sent {
            tx,
            deadline: out.deadline,
        }
    }

    fn timer(tcb: &mut Tcb, now: Instant) -> Sent {
        let (out, tx) = collect(|sink| tcb.on_timer(now, sink));
        Sent {
            tx,
            deadline: out.deadline,
        }
    }

    /// Accept `syn` on `port` with the test addresses.
    fn accept(
        port: u16,
        os: OsProfile,
        iw: IwPolicy,
        app: Box<dyn App>,
        syn: &tcp::Repr,
        isn: u32,
    ) -> (Tcb, Sent) {
        let ((tcb, out), tx) = collect(|sink| {
            Tcb::accept(
                HOST,
                SCAN,
                port,
                40000,
                &os,
                iw,
                app,
                syn,
                isn,
                Instant::ZERO,
                sink,
            )
        });
        let sent = Sent {
            tx,
            deadline: out.deadline,
        };
        (tcb, sent)
    }

    fn syn(mss: u16) -> tcp::Repr {
        tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 1000,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options: vec![TcpOption::Mss(mss)],
            payload: Vec::new(),
        }
    }

    fn establish(n_bytes: usize, close: bool, iw: IwPolicy, mss: u16) -> (Tcb, Sent) {
        let (mut tcb, out) = accept(
            80,
            OsProfile::linux(),
            iw,
            Box::new(FixedApp { n: n_bytes, close }),
            &syn(mss),
            5000,
        );
        assert_eq!(out.tx.len(), 1);
        assert!(out.tx[0].flags.contains(Flags::SYN | Flags::ACK));
        // ACK + request in one packet, like the scanner sends.
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 1001,
            ack: 5001,
            flags: Flags::ACK | Flags::PSH,
            window: 65535,
            options: vec![],
            payload: b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        };
        let out = segment(&mut tcb, &req, Instant::ZERO + Duration::from_millis(20));
        (tcb, out)
    }

    #[test]
    fn handshake_and_initial_flight_respects_iw10() {
        let (tcb, out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        assert_eq!(tcb.state(), State::Established);
        assert_eq!(tcb.effective_mss(), 64);
        // Exactly 10 segments of 64 bytes, no FIN (data remains queued).
        assert_eq!(out.tx.len(), 10);
        assert!(out.tx.iter().all(|s| s.payload.len() == 64));
        assert!(out.tx.iter().all(|s| !s.flags.contains(Flags::FIN)));
    }

    #[test]
    fn windows_mss_floor_blows_up_segment_size() {
        let (mut tcb, o) = accept(
            80,
            OsProfile::windows(),
            IwPolicy::Segments(4),
            Box::new(FixedApp {
                n: 50_000,
                close: true,
            }),
            &syn(64),
            9,
        );
        assert_eq!(o.tx[0].mss(), Some(536));
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 1001,
            ack: 10,
            flags: Flags::ACK,
            window: 65535,
            options: vec![],
            payload: b"x".to_vec(),
        };
        let out = segment(&mut tcb, &req, Instant::ZERO);
        assert_eq!(tcb.effective_mss(), 536);
        assert_eq!(out.tx.len(), 4);
        assert!(out.tx.iter().all(|s| s.payload.len() == 536));
    }

    #[test]
    fn few_data_host_sends_fin_with_last_segment() {
        // 200 bytes at MSS 64 = 3 full + 1 partial segment; FIN on last.
        let (_tcb, out) = establish(200, true, IwPolicy::Segments(10), 64);
        assert_eq!(out.tx.len(), 4);
        assert_eq!(out.tx[3].payload.len(), 200 - 3 * 64);
        assert!(out.tx[3].flags.contains(Flags::FIN));
        assert!(out.tx[..3].iter().all(|s| !s.flags.contains(Flags::FIN)));
    }

    #[test]
    fn exactly_iw_data_still_fins_inside_flight() {
        let (_tcb, out) = establish(640, true, IwPolicy::Segments(10), 64);
        assert_eq!(out.tx.len(), 10);
        assert!(out.tx[9].flags.contains(Flags::FIN));
    }

    #[test]
    fn rto_retransmits_first_segment_only() {
        let (mut tcb, out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let first_seq = out.tx[0].seq;
        let deadline = out.deadline.expect("rto armed");
        let out2 = timer(&mut tcb, deadline);
        assert_eq!(out2.tx.len(), 1, "exactly the first segment again");
        assert_eq!(out2.tx[0].seq, first_seq);
        assert_eq!(out2.tx[0].payload.len(), 64);
        // Backoff doubled.
        assert!(out2.deadline.unwrap() > deadline + Duration::from_millis(1500));
    }

    #[test]
    fn stale_timer_is_noop() {
        let (mut tcb, out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let deadline = out.deadline.unwrap();
        let early = Instant::ZERO + Duration::from_millis(100);
        assert!(early < deadline);
        let out2 = timer(&mut tcb, early);
        assert!(out2.tx.is_empty());
    }

    #[test]
    fn ack_after_retransmit_releases_limited_new_data() {
        let (mut tcb, out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let deadline = out.deadline.unwrap();
        let _ = timer(&mut tcb, deadline);
        // The scanner now ACKs the whole flight with a 2-MSS window.
        let last_seq = out.tx[9].seq.wrapping_add(64);
        let ack = tcp::Repr::bare(40000, 80, 1019, last_seq, Flags::ACK, 128);
        let out3 = segment(&mut tcb, &ack, deadline + Duration::from_millis(20));
        // The host had more data: new segments flow, capped by rwnd=128.
        let new_bytes: usize = out3.tx.iter().map(|s| s.payload.len()).sum();
        assert!(new_bytes > 0, "host was IW-limited; must release more");
        assert!(new_bytes <= 128, "flow control enforced");
    }

    #[test]
    fn ack_when_out_of_data_releases_nothing() {
        let (mut tcb, out) = establish(200, true, IwPolicy::Segments(10), 64);
        let last = &out.tx[3];
        let end = last.seq.wrapping_add(last.seq_len());
        let ack = tcp::Repr::bare(40000, 80, 1019, end, Flags::ACK, 128);
        let out2 = segment(&mut tcb, &ack, Instant::ZERO + Duration::from_millis(50));
        assert!(out2.tx.iter().all(|s| s.payload.is_empty()));
        assert!(tcb.is_closed(), "FIN acked, connection done");
    }

    #[test]
    fn rst_kills_connection() {
        let (mut tcb, _out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let rst = tcp::Repr::bare(40000, 80, 1019, 0, Flags::RST, 0);
        segment(&mut tcb, &rst, Instant::ZERO + Duration::from_millis(30));
        assert!(tcb.is_closed());
    }

    #[test]
    fn byte_policy_counts() {
        let (_tcb, out) = establish(10_000, true, IwPolicy::Bytes(4096), 64);
        assert_eq!(out.tx.len(), 64, "4 kB at MSS 64 = 64 segments");
        let (_tcb, out) = establish(10_000, true, IwPolicy::Bytes(4096), 128);
        assert_eq!(out.tx.len(), 32, "4 kB at MSS 128 = 32 segments");
    }

    #[test]
    fn mute_app_acks_but_sends_nothing() {
        let (mut tcb, out) = accept(
            80,
            OsProfile::linux(),
            IwPolicy::Segments(10),
            Box::new(SilentApp::default()),
            &syn(64),
            77,
        );
        assert_eq!(out.tx.len(), 1);
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 1001,
            ack: 78,
            flags: Flags::ACK | Flags::PSH,
            window: 65535,
            options: vec![],
            payload: b"hello?".to_vec(),
        };
        let out2 = segment(&mut tcb, &req, Instant::ZERO);
        assert_eq!(out2.tx.len(), 1);
        assert!(out2.tx[0].payload.is_empty());
        assert!(out2.tx[0].flags.contains(Flags::ACK));
        assert!(!out2.tx[0].flags.contains(Flags::FIN));
    }

    #[test]
    fn silent_close_sends_bare_fin() {
        let (mut tcb, _) = accept(
            443,
            OsProfile::linux(),
            IwPolicy::Segments(10),
            Box::new(SilentApp {
                close_on_request: true,
            }),
            &syn(64),
            77,
        );
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 443,
            seq: 1001,
            ack: 78,
            flags: Flags::ACK | Flags::PSH,
            window: 65535,
            options: vec![],
            payload: b"\x16\x03\x01".to_vec(),
        };
        let out = segment(&mut tcb, &req, Instant::ZERO);
        assert!(out.tx.iter().any(|s| s.flags.contains(Flags::FIN)));
        assert!(out.tx.iter().all(|s| s.payload.is_empty()));
    }

    #[test]
    fn reset_app_sends_rst() {
        struct RstApp;
        impl App for RstApp {
            fn on_data(&mut self, _d: &[u8]) -> Option<AppResponse> {
                Some(AppResponse::abort())
            }
        }
        let (mut tcb, _) = accept(
            80,
            OsProfile::linux(),
            IwPolicy::Segments(10),
            Box::new(RstApp),
            &syn(64),
            77,
        );
        let req = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 1001,
            ack: 78,
            flags: Flags::ACK,
            window: 65535,
            options: vec![],
            payload: b"x".to_vec(),
        };
        let out = segment(&mut tcb, &req, Instant::ZERO);
        assert!(out.tx.iter().any(|s| s.flags.contains(Flags::RST)));
        assert!(tcb.is_closed());
    }

    #[test]
    fn syn_retransmission_repeats_syn_ack() {
        let (mut tcb, _) = accept(
            80,
            OsProfile::linux(),
            IwPolicy::Segments(2),
            Box::new(SilentApp::default()),
            &syn(64),
            77,
        );
        let out = segment(&mut tcb, &syn(64), Instant::ZERO + Duration::from_millis(5));
        assert_eq!(out.tx.len(), 1);
        assert!(out.tx[0].flags.contains(Flags::SYN | Flags::ACK));
    }

    #[test]
    fn synack_retransmit_span_is_the_last_syn_ack() {
        // The scanner holds a concluded target this long: a stack whose
        // handshake never completes sends its last SYN-ACK exactly here.
        let os = OsProfile::windows();
        let span = synack_retransmit_span(os.initial_rto);
        assert_eq!(span, Duration::from_secs(189));
        let (mut tcb, out) = accept(
            80,
            os,
            IwPolicy::Segments(2),
            Box::new(SilentApp::default()),
            &syn(64),
            77,
        );
        let mut last = Instant::ZERO;
        let mut deadline = out.deadline;
        while let Some(at) = deadline {
            let o = timer(&mut tcb, at);
            if o.tx
                .iter()
                .any(|s| s.flags.contains(Flags::SYN | Flags::ACK))
            {
                last = at;
            }
            deadline = o.deadline;
        }
        assert!(tcb.is_closed());
        assert_eq!(last, Instant::ZERO + span);
    }

    #[test]
    fn gives_up_after_max_retries() {
        let (mut tcb, out) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let mut deadline = out.deadline.unwrap();
        for _ in 0..MAX_RETRIES {
            let o = timer(&mut tcb, deadline);
            deadline = match o.deadline {
                Some(d) => d,
                None => break,
            };
        }
        let final_out = timer(&mut tcb, deadline);
        assert!(final_out.tx.is_empty());
        assert!(tcb.is_closed());
    }

    #[test]
    fn out_of_order_data_triggers_dup_ack_not_consumption() {
        let (mut tcb, _) = establish(10_000, true, IwPolicy::Segments(10), 64);
        let ooo = tcp::Repr {
            src_port: 40000,
            dst_port: 80,
            seq: 5000, // way ahead of rcv_nxt
            ack: 5001,
            flags: Flags::ACK,
            window: 65535,
            options: vec![],
            payload: b"stray".to_vec(),
        };
        let out = segment(&mut tcb, &ooo, Instant::ZERO + Duration::from_millis(40));
        // Dup-ACK at the old rcv_nxt (or piggybacked equivalently).
        assert!(out.tx.iter().any(|s| s.flags.contains(Flags::ACK)));
    }

    /// Every variant. The match in the test stops compiling when one is
    /// added; listed here, the test then demands its edges.
    const ALL: [State; 4] = [
        State::SynRcvd,
        State::Established,
        State::FinWait,
        State::Closed,
    ];

    #[test]
    fn tcb_transitions_are_closed() {
        let (initial, terminal) = (State::SynRcvd, State::Closed);
        let reached = proptest::reachable(TRANSITIONS, initial);
        for s in ALL {
            match s {
                State::SynRcvd | State::Established | State::FinWait | State::Closed => {}
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
    fn an_undeclared_tcb_edge_is_taken_and_counted() {
        let (mut tcb, _) = establish(10_000, true, IwPolicy::Segments(10), 64);
        assert_eq!(tcb.undeclared_edges, 0, "the handshake is declared");
        tcb.set_state(State::SynRcvd);
        assert_eq!(tcb.state(), State::SynRcvd);
        assert_eq!(tcb.undeclared_edges, 1);
    }
}
