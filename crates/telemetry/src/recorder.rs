//! Per-host flight recorder: the scan's one per-host history, and the
//! black boxes of the targets that failed.
//!
//! A **casualty** is a target whose conclusion is a failure worth a black
//! box: an error verdict, an ICMP unreachable, a few-data verdict with no
//! data at all, or a spent SYN budget. During a run the recorder keeps
//! only each casualty's `(time, address, error)`, a [`Casualty`]. It
//! keeps no ring and no per-target state for anyone else: a campaign is a
//! pure function of its config, so a black box is recovered by running
//! the campaign again with the casualties watched (the scan driver's
//! replay), not by recording every target in case it fails.
//!
//! Every address in the recorder's **watch set** keeps every entry,
//! unbounded, whether or not the recorder is enabled: its SYNs, segments
//! and state transitions, in order, from the first SYN on. When a watched
//! address concludes as a casualty, its [`FlightDump`] is frozen from that
//! history: the last [`DEFAULT_RING_CAPACITY`] entries, the older ones
//! counted as `evicted`, and the phase its state entries reached. What
//! happens to the target later (a late answer and its reset) joins the
//! history, not the dump.
//!
//! Casualties and dumps are appended at conclusion and merge across
//! shards by `(conclusion time, address)`, which is population-determined,
//! so a sharded scan lists the same casualties in the same order as a
//! single-threaded one. Histories merge by address, since each host lives
//! in one shard.

use crate::events::SessionEvent;
use crate::json::{push_ip, push_key, push_str_literal, push_u64_field};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The entries a black box keeps: the last this many of its history.
pub const DEFAULT_RING_CAPACITY: usize = 32;

/// The SYN bit of [`FlightEntry::Wire::flags`].
const SYN: u16 = 0x002;

/// TCP flag bits as carried in [`FlightEntry::Wire::flags`] (the low bits
/// of the TCP flags word; matches the wire layout).
const WIRE_FLAGS: [(u16, char); 6] = [
    (SYN, 'S'),
    (0x010, 'A'),
    (0x001, 'F'),
    (0x004, 'R'),
    (0x008, 'P'),
    (0x020, 'U'),
];

/// One history entry: either a state transition or a wire segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEntry {
    /// A session lifecycle event.
    State {
        /// Virtual-time nanoseconds.
        at_nanos: u64,
        /// The transition.
        event: SessionEvent,
    },
    /// A TCP segment seen on the wire for this target.
    Wire {
        /// Virtual-time nanoseconds.
        at_nanos: u64,
        /// True = scanner → host, false = host → scanner.
        tx: bool,
        /// Raw TCP flag bits.
        flags: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Payload length in bytes.
        payload_len: u32,
    },
}

impl FlightEntry {
    /// Virtual time of the entry.
    pub fn at_nanos(&self) -> u64 {
        match self {
            FlightEntry::State { at_nanos, .. } | FlightEntry::Wire { at_nanos, .. } => *at_nanos,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        match self {
            FlightEntry::State { at_nanos, event } => {
                push_u64_field(out, "at_nanos", *at_nanos);
                out.push(',');
                push_key(out, "event");
                push_str_literal(out, event.name());
                let detail = event_detail(event);
                if !detail.is_empty() {
                    out.push(',');
                    push_key(out, "detail");
                    push_str_literal(out, &detail);
                }
            }
            FlightEntry::Wire {
                at_nanos,
                tx,
                flags,
                seq,
                ack,
                payload_len,
            } => {
                push_u64_field(out, "at_nanos", *at_nanos);
                out.push(',');
                push_key(out, "wire");
                push_str_literal(out, if *tx { "tx" } else { "rx" });
                out.push(',');
                push_key(out, "flags");
                push_str_literal(out, &flags_str(*flags));
                out.push(',');
                push_u64_field(out, "seq", u64::from(*seq));
                out.push(',');
                push_u64_field(out, "ack", u64::from(*ack));
                out.push(',');
                push_u64_field(out, "len", u64::from(*payload_len));
            }
        }
        out.push('}');
    }
}

/// Compact flag string, e.g. `"SA"` for SYN|ACK, `"R"` for RST.
fn flags_str(bits: u16) -> String {
    let mut s = String::new();
    for (bit, c) in WIRE_FLAGS {
        if bits & bit != 0 {
            s.push(c);
        }
    }
    s
}

/// The `k=v` argument tail of an event (empty for argument-free events).
fn event_detail(ev: &SessionEvent) -> String {
    let mut s = String::new();
    match ev {
        SessionEvent::ProbeStarted { probe, mss } => {
            let _ = write!(s, "probe={probe} mss={mss}");
        }
        SessionEvent::FollowUpStarted { probe } | SessionEvent::VerifyAckSent { probe } => {
            let _ = write!(s, "probe={probe}");
        }
        SessionEvent::RetransmitDetected {
            probe,
            bytes_in_flight,
        } => {
            let _ = write!(s, "probe={probe} bytes_in_flight={bytes_in_flight}");
        }
        SessionEvent::ProbeConcluded { probe, outcome } => {
            let _ = write!(s, "probe={probe} outcome={}", outcome.name());
        }
        SessionEvent::SessionFinished { outcome } => {
            let _ = write!(s, "outcome={}", outcome.name());
        }
        SessionEvent::SynRetried { attempt } => {
            let _ = write!(s, "attempt={attempt}");
        }
        SessionEvent::ProbeRetried { probe, attempt } => {
            let _ = write!(s, "probe={probe} attempt={attempt}");
        }
        _ => {}
    }
    s
}

/// The lifecycle phase a session is in after `ev` (used to name the
/// phase a dumped session died in).
fn phase_after(ev: &SessionEvent) -> &'static str {
    match ev {
        SessionEvent::SynSent | SessionEvent::SynRetried { .. } => "syn_wait",
        SessionEvent::SynAckValidated | SessionEvent::SessionStarted => "handshake",
        SessionEvent::ProbeStarted { .. }
        | SessionEvent::FollowUpStarted { .. }
        | SessionEvent::RetransmitDetected { .. }
        | SessionEvent::ProbeRetried { .. } => "collecting",
        SessionEvent::VerifyAckSent { .. } => "verifying",
        SessionEvent::ProbeConcluded { .. } => "probe_done",
        SessionEvent::SessionFinished { .. } => "finished",
        SessionEvent::Refused => "refused",
        SessionEvent::WatchdogForced | SessionEvent::SessionEvicted => "collecting",
        SessionEvent::IcmpUnreachable => "unreachable",
    }
}

/// A target whose conclusion dumps a black box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Casualty {
    /// Virtual time the target concluded.
    pub at_nanos: u64,
    /// Target address.
    pub ip: u32,
    /// The name of the failure it concluded with.
    pub error: &'static str,
}

/// The black box of a casualty: its history up to its conclusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Virtual time the session concluded.
    pub at_nanos: u64,
    /// Target address.
    pub ip: u32,
    /// The `ErrorKind` name the session died with.
    pub error: &'static str,
    /// Lifecycle phase at death (from the last state transition).
    pub phase: &'static str,
    /// History entries older than the dump's window.
    pub evicted: u64,
    /// The retained entries, oldest first.
    pub entries: Vec<FlightEntry>,
}

impl FlightDump {
    /// Freeze `casualty`'s black box from its history so far.
    fn freeze(casualty: Casualty, history: &[FlightEntry]) -> FlightDump {
        let kept = &history[history.len().saturating_sub(DEFAULT_RING_CAPACITY)..];
        // `SessionFinished` marks death, not a phase: a dump names the
        // phase the session died *in*.
        let phase = history.iter().fold("created", |phase, entry| match entry {
            FlightEntry::State { event, .. }
                if !matches!(event, SessionEvent::SessionFinished { .. }) =>
            {
                phase_after(event)
            }
            _ => phase,
        });
        FlightDump {
            at_nanos: casualty.at_nanos,
            ip: casualty.ip,
            error: casualty.error,
            phase,
            evicted: (history.len() - kept.len()) as u64,
            entries: kept.to_vec(),
        }
    }

    /// One JSONL line: `{"at_nanos":..,"ip":"..","error":"..","phase":"..",...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_u64_field(&mut out, "at_nanos", self.at_nanos);
        out.push(',');
        push_key(&mut out, "ip");
        push_ip(&mut out, self.ip);
        out.push(',');
        push_key(&mut out, "error");
        push_str_literal(&mut out, self.error);
        out.push(',');
        push_key(&mut out, "phase");
        push_str_literal(&mut out, self.phase);
        out.push(',');
        push_u64_field(&mut out, "evicted", self.evicted);
        out.push(',');
        push_key(&mut out, "entries");
        out.push('[');
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// The per-host flight recorder. See module docs.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    casualties: Vec<Casualty>,
    /// The black boxes of the watched casualties: each casualty and the
    /// length of its history when it concluded.
    boxes: Vec<(Casualty, usize)>,
    /// Every entry of each watched address, by address (see module docs).
    watched: BTreeMap<u32, Vec<FlightEntry>>,
}

impl FlightRecorder {
    /// A recorder that keeps casualties if `enabled`.
    pub fn new(enabled: bool) -> FlightRecorder {
        FlightRecorder {
            enabled,
            ..FlightRecorder::default()
        }
    }

    /// Keep every later entry of these addresses in their histories.
    pub fn watch(&mut self, ips: impl IntoIterator<Item = u32>) {
        for ip in ips {
            self.watched.entry(ip).or_default();
        }
    }

    /// Is any address watched?
    #[inline]
    pub fn is_watching(&self) -> bool {
        !self.watched.is_empty()
    }

    /// The watched addresses' histories, by address.
    pub fn histories(&self) -> &BTreeMap<u32, Vec<FlightEntry>> {
        &self.watched
    }

    /// One watched address's history (empty for an unwatched one).
    pub fn history(&self, ip: u32) -> &[FlightEntry] {
        self.watched.get(&ip).map_or(&[], Vec::as_slice)
    }

    /// Record transmission `attempt` of a SYN with ISN `isn` to the
    /// target: its `SynSent` (attempt 0) or `SynRetried` transition and
    /// the segment, both at `at_nanos`.
    #[inline]
    pub fn note_syn(&mut self, ip: u32, at_nanos: u64, isn: u32, attempt: u8) {
        let event = match attempt {
            0 => SessionEvent::SynSent,
            attempt => SessionEvent::SynRetried { attempt },
        };
        self.note_state(ip, at_nanos, event);
        self.note_wire(ip, at_nanos, true, SYN, isn, 0, 0);
    }

    /// Record a state transition.
    #[inline]
    pub fn note_state(&mut self, ip: u32, at_nanos: u64, event: SessionEvent) {
        self.keep(ip, FlightEntry::State { at_nanos, event });
    }

    /// Record a wire segment.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn note_wire(
        &mut self,
        ip: u32,
        at_nanos: u64,
        tx: bool,
        flags: u16,
        seq: u32,
        ack: u32,
        payload_len: u32,
    ) {
        self.keep(
            ip,
            FlightEntry::Wire {
                at_nanos,
                tx,
                flags,
                seq,
                ack,
                payload_len,
            },
        );
    }

    /// Append to the address's history if it is watched.
    #[inline]
    fn keep(&mut self, ip: u32, entry: FlightEntry) {
        if let Some(history) = self.watched.get_mut(&ip) {
            history.push(entry);
        }
    }

    /// The target concluded with `error`: keep it as a casualty, and
    /// freeze its black box if it is watched. Returns true if the
    /// casualty was kept (the recorder is enabled).
    pub fn conclude(&mut self, ip: u32, at_nanos: u64, error: &'static str) -> bool {
        if !self.enabled {
            return false;
        }
        let casualty = Casualty {
            at_nanos,
            ip,
            error,
        };
        self.casualties.push(casualty);
        if let Some(history) = self.watched.get_mut(&ip) {
            // A casualty's history seldom grows after its conclusion.
            history.shrink_to_fit();
            self.boxes.push((casualty, history.len()));
        }
        true
    }

    /// The casualties, canonical `(time, address)` order after merge.
    pub fn casualties(&self) -> &[Casualty] {
        &self.casualties
    }

    /// The watched casualties' black boxes, in casualty order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.frozen().collect()
    }

    /// Each black box, frozen from its history as it was at its
    /// casualty's conclusion.
    fn frozen(&self) -> impl Iterator<Item = FlightDump> + '_ {
        (self.boxes.iter())
            .map(|&(casualty, len)| FlightDump::freeze(casualty, &self.history(casualty.ip)[..len]))
    }

    /// Merge another shard's casualties, dumps and histories. Their order
    /// is canonical: `(conclusion time, address)`, both
    /// population-determined; a history is its host's shard's.
    pub fn merge(&mut self, other: FlightRecorder) {
        self.enabled |= other.enabled;
        self.casualties.extend(other.casualties);
        self.casualties.sort_by_key(|c| (c.at_nanos, c.ip));
        self.boxes.extend(other.boxes);
        self.boxes.sort_by_key(|(c, _)| (c.at_nanos, c.ip));
        for (ip, history) in other.watched {
            self.watched.entry(ip).or_default().extend(history);
        }
    }

    /// All dumps as JSONL (one line per dumped session, trailing newline
    /// when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for d in self.frozen() {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OutcomeKind;

    /// A recorder that keeps casualties and watches `ips`.
    fn watching(ips: impl IntoIterator<Item = u32>) -> FlightRecorder {
        let mut r = FlightRecorder::new(true);
        r.watch(ips);
        r
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::new(false);
        r.note_syn(2, 9, 77, 0);
        r.note_state(1, 10, SessionEvent::SynSent);
        r.note_wire(1, 11, true, 0x002, 1, 0, 0);
        assert!(!r.conclude(1, 12, "collect_timeout"));
        assert!(r.casualties().is_empty() && r.dumps().is_empty());
        assert!(!r.is_watching() && r.histories().is_empty());
    }

    #[test]
    fn dump_names_the_failing_phase() {
        let mut r = watching([7]);
        r.note_state(7, 1, SessionEvent::SynSent);
        r.note_state(7, 2, SessionEvent::SessionStarted);
        r.note_state(7, 3, SessionEvent::ProbeStarted { probe: 0, mss: 64 });
        let finished = SessionEvent::SessionFinished {
            outcome: OutcomeKind::Error,
        };
        r.note_state(7, 9, finished);
        assert!(r.conclude(7, 9, "collect_timeout"));
        let line = r.to_jsonl();
        assert!(line.contains("\"error\":\"collect_timeout\""), "{line}");
        assert!(line.contains("\"phase\":\"collecting\""), "{line}");
        assert!(line.contains("\"ip\":\"0.0.0.7\""), "{line}");
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn merge_orders_dumps_deterministically() {
        let mk = |ip: u32, at: u64| {
            let mut r = watching([ip]);
            r.note_syn(ip, at - 1, 5, 0);
            r.conclude(ip, at, "handshake_timeout");
            r
        };
        let mut a = mk(2, 100);
        a.merge(mk(1, 100));
        let mut b = mk(1, 100);
        b.merge(mk(2, 100));
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.casualties(), b.casualties());
        assert_eq!((a.dumps()[0].ip, a.casualties()[0].ip), (1, 1));
    }

    #[test]
    fn wire_entries_render_flags() {
        let mut r = watching([1]);
        r.note_state(1, 1, SessionEvent::SynSent);
        r.note_wire(1, 2, false, 0x012, 7, 8, 0);
        r.conclude(1, 3, "malformed");
        let line = r.to_jsonl();
        assert!(
            line.contains("\"wire\":\"rx\",\"flags\":\"SA\",\"seq\":7,\"ack\":8,\"len\":0"),
            "{line}"
        );
    }

    #[test]
    fn dump_records_probe_outcome_detail() {
        let mut r = watching([1]);
        r.note_state(
            1,
            1,
            SessionEvent::ProbeConcluded {
                probe: 2,
                outcome: OutcomeKind::Error,
            },
        );
        r.conclude(1, 2, "inconsistent");
        let line = r.to_jsonl();
        assert!(
            line.contains("\"detail\":\"probe=2 outcome=error\""),
            "{line}"
        );
    }

    #[test]
    fn a_watched_history_is_unbounded_and_its_ring_is_not() {
        // Two targets, 1 watched and 2 not, live the same 41 entries; a
        // disabled recorder keeps the watched one's history all the same.
        for enabled in [true, false] {
            let mut r = FlightRecorder::new(enabled);
            r.watch([1]);
            assert!(r.is_watching());
            for ip in [1, 2] {
                r.note_syn(ip, 0, 7, 0);
                for i in 1..20u64 {
                    r.note_wire(ip, i, false, 0x010, i as u32, 0, 10);
                    r.note_state(ip, i, SessionEvent::VerifyAckSent { probe: 0 });
                }
            }
            r.note_state(1, 100, SessionEvent::Refused);
            assert_eq!(r.history(1).len(), 2 + 38 + 1, "enabled {enabled}");
            assert!(r.history(2).is_empty());
            assert_eq!(r.history(1)[1].at_nanos(), 0);
            assert_eq!(r.histories().keys().collect::<Vec<_>>(), [&1]);
        }
        // Both fail; only the watched one dumps, and its dump is bounded
        // by the window while the history keeps growing past it.
        let mut r = watching([1]);
        for ip in [1, 2] {
            r.note_syn(ip, 0, 7, 0);
            for i in 1..=1000u64 {
                r.note_wire(ip, i, true, 0x010, 1, i as u32, 0);
            }
            assert!(r.conclude(ip, 1000, "malformed"));
        }
        r.note_wire(1, 1001, false, 0x012, 5, 8, 0);
        assert_eq!(r.casualties().len(), 2);
        let dumps = r.dumps();
        let [dump] = dumps.as_slice() else {
            panic!("one dump: {dumps:?}")
        };
        assert_eq!((dump.ip, dump.entries.len()), (1, DEFAULT_RING_CAPACITY));
        assert_eq!(r.history(1).len(), 1003, "the history outlives the dump");
    }

    #[test]
    fn ring_evicts_oldest_and_never_reallocates() {
        // The name is the ring's; what it pins now is the dump's window:
        // the last `DEFAULT_RING_CAPACITY` entries of the history at
        // conclusion, oldest first, the older ones counted as evicted, the
        // phase folded from the state entries, and no later entry in it.
        let mut r = watching([9]);
        r.note_syn(9, 0, 7, 0);
        for i in 1..=1000u64 {
            r.note_wire(9, i, true, 0x010, 1, i as u32, 0);
        }
        assert!(r.conclude(9, 1000, "malformed"));
        assert_eq!(
            r.history(9).len(),
            1002,
            "a SYN's two entries and 1000 segments"
        );
        r.note_wire(9, 1001, false, 0x012, 5, 8, 0);
        let dumps = r.dumps();
        let [dump] = dumps.as_slice() else {
            panic!("one dump: {dumps:?}")
        };
        let window = DEFAULT_RING_CAPACITY as u64;
        assert_eq!(dump.entries.len() as u64, window);
        assert_eq!(dump.evicted, 1002 - window);
        assert_eq!(dump.phase, "syn_wait");
        let first = dump.entries.first().map(FlightEntry::at_nanos);
        let last = dump.entries.last().map(FlightEntry::at_nanos);
        assert_eq!((first, last), (Some(1001 - window), Some(1000)));
        // Freezing again reads the same window.
        assert_eq!(r.dumps(), dumps);
    }

    #[test]
    fn histories_merge_by_address() {
        let shard = |ip: u32| {
            let mut r = FlightRecorder::new(false);
            r.watch([1, 2]);
            r.note_syn(ip, u64::from(ip), ip, 0);
            r
        };
        let (mut a, mut b) = (shard(2), shard(1));
        a.merge(shard(1));
        b.merge(shard(2));
        assert_eq!(a.histories(), b.histories());
        assert_eq!(a.history(1).len(), 2);
        assert_eq!(a.history(2)[0].at_nanos(), 2);
    }

    /// The black box as a ring: every target gets a bounded ring at its
    /// first SYN, in an ordered map, which its conclusion freezes. A ring
    /// is its entries, its eviction count and its phase.
    struct Eager {
        rings: BTreeMap<u32, (std::collections::VecDeque<FlightEntry>, u64, &'static str)>,
        dumps: Vec<FlightDump>,
    }

    impl Eager {
        fn push(&mut self, ip: u32, entry: FlightEntry) {
            if let Some(ring) = self.rings.get_mut(&ip) {
                if ring.0.len() == DEFAULT_RING_CAPACITY {
                    ring.0.pop_front();
                    ring.1 += 1;
                }
                if let FlightEntry::State { event, .. } = entry {
                    if !matches!(event, SessionEvent::SessionFinished { .. }) {
                        ring.2 = phase_after(&event);
                    }
                }
                ring.0.push_back(entry);
            }
        }

        fn conclude(&mut self, ip: u32, at_nanos: u64, error: &'static str) {
            if let Some((entries, evicted, phase)) = self.rings.remove(&ip) {
                self.dumps.push(FlightDump {
                    at_nanos,
                    ip,
                    error,
                    phase,
                    evicted,
                    entries: entries.into(),
                });
            }
        }
    }

    /// SplitMix64: the seeded call sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn recorder_matches_the_eager_model() {
        // Each target's life: a first SYN, then SYN retries, transitions
        // and segments in any order, one conclusion, and segments after
        // it (a late answer). Targets 0..3 are watched: their dumps, frozen
        // from the histories, must be the rings' dumps.
        let events = [
            SessionEvent::SynAckValidated,
            SessionEvent::SessionStarted,
            SessionEvent::ProbeStarted { probe: 1, mss: 64 },
            SessionEvent::RetransmitDetected {
                probe: 1,
                bytes_in_flight: 640,
            },
            SessionEvent::VerifyAckSent { probe: 1 },
            SessionEvent::SessionFinished {
                outcome: OutcomeKind::Error,
            },
            SessionEvent::IcmpUnreachable,
        ];
        // What the sequences must have reached: [a dump that evicted, a
        // segment after a conclusion, an unwatched casualty].
        let mut seen = [0u32; 3];
        for seed in 0..200u64 {
            let mut rng = Rng(seed);
            let mut r = watching(0..3);
            let mut m = Eager {
                rings: BTreeMap::new(),
                dumps: Vec::new(),
            };
            let (mut started, mut concluded) = ([false; 6], [false; 6]);
            let mut t = 0u64;
            for _ in 0..400 {
                let ip = rng.below(6) as u32;
                let i = ip as usize;
                t += rng.below(3);
                let op = if started[i] { rng.below(8) } else { 0 };
                let entries = match op {
                    0 | 1 => {
                        // A first SYN opens the ring; a later one is a retry.
                        let attempt = u8::from(started[i]);
                        if !started[i] {
                            started[i] = true;
                            m.rings.insert(ip, (Default::default(), 0, "created"));
                        }
                        let isn = rng.below(1 << 32) as u32;
                        r.note_syn(ip, t, isn, attempt);
                        let event = match attempt {
                            0 => SessionEvent::SynSent,
                            attempt => SessionEvent::SynRetried { attempt },
                        };
                        let syn = FlightEntry::Wire {
                            at_nanos: t,
                            tx: true,
                            flags: SYN,
                            seq: isn,
                            ack: 0,
                            payload_len: 0,
                        };
                        vec![FlightEntry::State { at_nanos: t, event }, syn]
                    }
                    2 if !concluded[i] => {
                        let error = ["handshake_timeout", "malformed"][rng.below(2) as usize];
                        assert!(r.conclude(ip, t, error));
                        m.conclude(ip, t, error);
                        concluded[i] = true;
                        seen[2] += u32::from(ip >= 3);
                        continue;
                    }
                    3 | 4 => {
                        let event = events[rng.below(events.len() as u64) as usize];
                        r.note_state(ip, t, event);
                        vec![FlightEntry::State { at_nanos: t, event }]
                    }
                    _ => {
                        seen[1] += u32::from(concluded[i] && ip < 3);
                        let (tx, flags) = (rng.below(2) == 0, rng.below(0x40) as u16);
                        let seq = rng.below(1 << 32) as u32;
                        r.note_wire(ip, t, tx, flags, seq, 7, 64);
                        vec![FlightEntry::Wire {
                            at_nanos: t,
                            tx,
                            flags,
                            seq,
                            ack: 7,
                            payload_len: 64,
                        }]
                    }
                };
                for entry in entries {
                    m.push(ip, entry);
                }
            }
            let watched: Vec<&FlightDump> = m.dumps.iter().filter(|d| d.ip < 3).collect();
            assert_eq!(r.dumps().iter().collect::<Vec<_>>(), watched, "seed {seed}");
            let want: Vec<(u64, u32)> = m.dumps.iter().map(|d| (d.at_nanos, d.ip)).collect();
            let kept: Vec<(u64, u32)> = r.casualties().iter().map(|c| (c.at_nanos, c.ip)).collect();
            assert_eq!(kept, want, "seed {seed}");
            seen[0] += r.dumps().iter().filter(|d| d.evicted > 0).count() as u32;
        }
        assert!(seen.iter().all(|&n| n > 0), "unreached cases: {seen:?}");
    }
}
