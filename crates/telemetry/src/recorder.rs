//! Per-session flight recorder: a black box for sessions that crash.
//!
//! For every in-flight target the recorder keeps a small bounded ring of
//! the most recent wire-level segments and state transitions.
//! When the session concludes *cleanly* the ring is dropped — the happy
//! path leaves no residue. When it ends in an `ErrorKind` the ring is
//! frozen into a [`FlightDump`]: the last N things that happened to that
//! host, plus the lifecycle phase it died in, exported as one JSONL line
//! per casualty for offline triage (`iw-cli inspect`).
//!
//! Memory discipline: most targets never answer, and a target whose only
//! history is its first SYN holds no ring. The recorder never sees such a
//! target: its owner keeps one stamp per SYN-ed target for every product
//! that needs the SYN (the scanner's observer), and calls
//! [`FlightRecorder::note_syn`] with the stamp's send time and the ISN it
//! derives from the cookie when the target's second event arrives. The
//! ring — a fixed-capacity `VecDeque` that evicts its oldest entry
//! instead of growing, so a warm ring never reallocates (asserted by
//! tests) — then starts with the two entries the stamp stands for, so a
//! dump cannot tell the difference. Rings live in one hashed map that
//! holds only the targets that answered; those of targets that fall
//! silent without any conclusion are expired by the scanner's periodic
//! sweep. Nothing read from the map in hash order reaches output: dumps
//! are appended at conclusion and merge across shards by `(conclusion
//! time, address)`, which is population-determined, so a sharded scan
//! dumps the same casualties in the same order as a single-threaded one.
//! A run hands over its dumps only ([`FlightRecorder::harvest`]).

use crate::addr::AddrHasher;
use crate::events::SessionEvent;
use crate::json::{push_key, push_str_literal, push_u64_field};
use std::collections::VecDeque;
use std::fmt::Write;
use std::hash::BuildHasherDefault;

/// Default per-session ring capacity (entries).
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

/// One ring entry: either a state transition or a wire segment.
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
    fn at_nanos(&self) -> u64 {
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

/// One bounded ring of recent activity for a live target.
#[derive(Debug, Clone)]
struct Ring {
    entries: VecDeque<FlightEntry>,
    /// Entries displaced by the capacity bound.
    evicted: u64,
    /// Lifecycle phase after the most recent state event.
    phase: &'static str,
    /// Virtual time of the most recent entry (staleness expiry).
    last_at: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            entries: VecDeque::with_capacity(capacity),
            evicted: 0,
            phase: "created",
            last_at: 0,
        }
    }

    /// Push with oldest-first eviction at the capacity bound; the deque
    /// never grows past its initial allocation.
    fn push(&mut self, entry: FlightEntry) {
        if self.entries.len() >= self.entries.capacity() {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.last_at = entry.at_nanos();
        self.entries.push_back(entry);
    }

    /// `SessionFinished` marks death, not a phase: the ring keeps the
    /// phase the session died *in*, which is what a dump should name.
    fn note_state(&mut self, at_nanos: u64, event: SessionEvent) {
        if !matches!(event, SessionEvent::SessionFinished { .. }) {
            self.phase = phase_after(&event);
        }
        self.push(FlightEntry::State { at_nanos, event });
    }

    /// A first SYN: its `SynSent` transition and the segment itself.
    fn note_syn(&mut self, at_nanos: u64, isn: u32) {
        self.note_state(at_nanos, SessionEvent::SynSent);
        self.push(FlightEntry::Wire {
            at_nanos,
            tx: true,
            flags: SYN,
            seq: isn,
            ack: 0,
            payload_len: 0,
        });
    }
}

/// The ring store. No iteration over it reaches output: dumps are
/// appended at conclusion and merged by `(at, ip)`, and the expiry sweep
/// does not depend on the order it visits.
#[expect(
    clippy::disallowed_types,
    reason = "no iteration reaches output, see above"
)]
type AddrMap<V> = std::collections::HashMap<u32, V, BuildHasherDefault<AddrHasher>>;

/// A frozen ring: the black box of a session that ended in an error.
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
    /// Ring entries displaced before the dump (older history lost).
    pub evicted: u64,
    /// The retained entries, oldest first.
    pub entries: Vec<FlightEntry>,
}

impl FlightDump {
    /// One JSONL line: `{"at_nanos":..,"ip":"..","error":"..","phase":"..",...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        push_u64_field(&mut out, "at_nanos", self.at_nanos);
        out.push(',');
        push_key(&mut out, "ip");
        push_str_literal(&mut out, &ip_str(self.ip));
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

/// Dotted-quad rendering of an address.
fn ip_str(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xff,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// The per-session flight recorder. See module docs.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    /// Targets with a history past their first SYN, their rings inline.
    rings: AddrMap<Ring>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A recorder with the given per-session ring capacity (clamped ≥ 1).
    /// Disabled recorders never record or allocate.
    pub fn new(enabled: bool, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            enabled,
            capacity: capacity.max(1),
            rings: AddrMap::default(),
            dumps: Vec::new(),
        }
    }

    /// Is recording on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Does the target have a ring?
    #[inline]
    pub fn has_ring(&self, ip: u32) -> bool {
        self.rings.contains_key(&ip)
    }

    /// Record a SYN to the target: its `SynSent` transition and the SYN
    /// segment with ISN `isn`, both at `at_nanos`; opens the target's
    /// ring. The owner reports a first SYN only when the target's second
    /// event arrives, from the SYN's stamp (see module docs).
    #[inline]
    pub fn note_syn(&mut self, ip: u32, at_nanos: u64, isn: u32) {
        if let Some(ring) = self.ring_mut(ip) {
            ring.note_syn(at_nanos, isn);
        }
    }

    /// Record a state transition; opens the target's ring.
    #[inline]
    pub fn note_state(&mut self, ip: u32, at_nanos: u64, event: SessionEvent) {
        if let Some(ring) = self.ring_mut(ip) {
            ring.note_state(at_nanos, event);
        }
    }

    /// Record a wire segment. No-op unless the target already has a ring
    /// (stray traffic for targets we never probed is not recorded).
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
        if let Some(ring) = self.rings.get_mut(&ip) {
            ring.push(FlightEntry::Wire {
                at_nanos,
                tx,
                flags,
                seq,
                ack,
                payload_len,
            });
        }
    }

    /// Conclude a target: `Some(error)` freezes its ring into a dump,
    /// `None` (clean verdict) drops it. Returns true if a dump was kept.
    pub fn conclude(&mut self, ip: u32, at_nanos: u64, error: Option<&'static str>) -> bool {
        let (Some(ring), Some(error)) = (self.rings.remove(&ip), error) else {
            return false;
        };
        self.dumps.push(FlightDump {
            at_nanos,
            ip,
            error,
            phase: ring.phase,
            evicted: ring.evicted,
            entries: ring.entries.into_iter().collect(),
        });
        true
    }

    /// Drop the rings whose most recent entry predates `cutoff_nanos`,
    /// except targets `keep` vouches for (those still headed for a
    /// conclusion). Bounds memory when targets fall silent without ever
    /// concluding.
    pub fn expire_stale(&mut self, cutoff_nanos: u64, keep: impl Fn(u32) -> bool) {
        self.rings
            .retain(|ip, ring| ring.last_at >= cutoff_nanos || keep(*ip));
    }

    /// Retained dumps, canonical `(time, address)` order after merge.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// Targets with a live ring (diagnostics).
    pub fn live_rings(&self) -> usize {
        self.rings.len()
    }

    /// `(len, deque capacity, evicted)` of a target's ring, for tests
    /// asserting the no-reallocation guarantee.
    pub fn ring_stats(&self, ip: u32) -> Option<(usize, usize, u64)> {
        self.rings
            .get(&ip)
            .map(|r| (r.entries.len(), r.entries.capacity(), r.evicted))
    }

    /// True when no dumps were retained.
    pub fn is_empty(&self) -> bool {
        self.dumps.is_empty()
    }

    /// Hand over the recorder's output: a recorder holding this one's
    /// dumps and nothing else. The live rings stay behind.
    pub fn harvest(&mut self) -> FlightRecorder {
        FlightRecorder {
            dumps: std::mem::take(&mut self.dumps),
            ..FlightRecorder::new(self.enabled, self.capacity)
        }
    }

    /// Merge another shard's dumps. Dump order is canonical:
    /// `(conclusion time, address)`, both population-determined.
    pub fn merge(&mut self, other: &FlightRecorder) {
        self.enabled |= other.enabled;
        self.capacity = self.capacity.max(other.capacity);
        self.dumps.extend(other.dumps.iter().cloned());
        self.dumps.sort_by_key(|d| (d.at_nanos, d.ip));
    }

    /// All dumps as JSONL (one line per dumped session, trailing newline
    /// when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.dumps {
            out.push_str(&d.to_json());
            out.push('\n');
        }
        out
    }

    /// The target's ring, opened if it has none; none when disabled.
    fn ring_mut(&mut self, ip: u32) -> Option<&mut Ring> {
        if !self.enabled {
            return None;
        }
        let capacity = self.capacity;
        Some(self.rings.entry(ip).or_insert_with(|| Ring::new(capacity)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::OutcomeKind;

    fn state(at: u64) -> SessionEvent {
        let _ = at;
        SessionEvent::ProbeStarted { probe: 0, mss: 64 }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::new(false, 8);
        r.note_syn(2, 9, 77);
        r.note_state(1, 10, SessionEvent::SynSent);
        r.note_wire(1, 11, true, 0x002, 1, 0, 0);
        assert!(!r.conclude(1, 12, Some("collect_timeout")));
        assert!(r.is_empty());
        assert_eq!(r.live_rings(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_never_reallocates() {
        let mut r = FlightRecorder::new(true, 4);
        r.note_state(9, 0, SessionEvent::SynSent);
        let (_, warm_cap, _) = r.ring_stats(9).unwrap();
        for i in 1..1000u64 {
            r.note_wire(9, i, false, 0x010, i as u32, 0, 100);
        }
        let (len, cap, evicted) = r.ring_stats(9).unwrap();
        assert_eq!(len, warm_cap, "ring holds exactly its capacity");
        assert_eq!(cap, warm_cap, "no growth after warm-up");
        assert_eq!(evicted, 1000 - warm_cap as u64);
        // The retained entries are the most recent ones, oldest first.
        let ok = r.conclude(9, 1000, Some("collect_timeout"));
        assert!(ok);
        let dump = &r.dumps()[0];
        let first = dump.entries.first().unwrap();
        let last = dump.entries.last().unwrap();
        assert_eq!(last.at_nanos(), 999);
        assert_eq!(first.at_nanos(), 1000 - warm_cap as u64);
    }

    #[test]
    fn clean_conclusion_drops_the_ring() {
        let mut r = FlightRecorder::new(true, 8);
        r.note_state(5, 1, SessionEvent::SynSent);
        assert!(!r.conclude(5, 2, None));
        assert!(r.is_empty());
        assert_eq!(r.live_rings(), 0);
    }

    #[test]
    fn dump_names_the_failing_phase() {
        let mut r = FlightRecorder::new(true, 8);
        r.note_state(7, 1, SessionEvent::SynSent);
        r.note_state(7, 2, SessionEvent::SessionStarted);
        r.note_state(7, 3, state(3));
        assert!(r.conclude(7, 9, Some("collect_timeout")));
        let line = r.to_jsonl();
        assert!(line.contains("\"error\":\"collect_timeout\""), "{line}");
        assert!(line.contains("\"phase\":\"collecting\""), "{line}");
        assert!(line.contains("\"ip\":\"0.0.0.7\""), "{line}");
        assert!(line.ends_with('\n'));
    }

    #[test]
    fn merge_orders_dumps_deterministically() {
        let mk = |ip: u32, at: u64| {
            let mut r = FlightRecorder::new(true, 4);
            r.note_state(ip, at - 1, SessionEvent::SynSent);
            r.conclude(ip, at, Some("handshake_timeout"));
            r
        };
        let mut a = mk(2, 100);
        a.merge(&mk(1, 100));
        let mut b = mk(1, 100);
        b.merge(&mk(2, 100));
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.dumps()[0].ip, 1);
    }

    #[test]
    fn expire_stale_keeps_live_sessions() {
        let mut r = FlightRecorder::new(true, 4);
        r.note_state(1, 10, SessionEvent::SynSent);
        r.note_state(2, 10, SessionEvent::SynSent);
        r.expire_stale(50, |ip| ip == 2);
        assert!(r.ring_stats(1).is_none());
        assert!(r.ring_stats(2).is_some());
    }

    #[test]
    fn wire_entries_render_flags() {
        let mut r = FlightRecorder::new(true, 4);
        r.note_state(1, 1, SessionEvent::SynSent);
        r.note_wire(1, 2, false, 0x012, 7, 8, 0);
        r.conclude(1, 3, Some("malformed"));
        let line = r.to_jsonl();
        assert!(
            line.contains("\"wire\":\"rx\",\"flags\":\"SA\",\"seq\":7,\"ack\":8,\"len\":0"),
            "{line}"
        );
    }

    #[test]
    fn dump_records_probe_outcome_detail() {
        let mut r = FlightRecorder::new(true, 4);
        r.note_state(
            1,
            1,
            SessionEvent::ProbeConcluded {
                probe: 2,
                outcome: OutcomeKind::Error,
            },
        );
        r.conclude(1, 2, Some("inconsistent"));
        let line = r.to_jsonl();
        assert!(
            line.contains("\"detail\":\"probe=2 outcome=error\""),
            "{line}"
        );
    }

    #[test]
    fn a_first_syn_opens_the_ring_with_its_two_entries() {
        let mut r = FlightRecorder::new(true, 32);
        r.note_syn(4, 10, 0xabcd);
        let (len, cap, evicted) = r.ring_stats(4).expect("the SYN opens the ring");
        assert_eq!((len, cap, evicted), (2, 32, 0));
        r.note_wire(4, 12, false, 0x012, 5, 0xabce, 0);
        assert_eq!(r.ring_stats(4).map(|(len, ..)| len), Some(3));
        assert!(r.conclude(4, 13, Some("malformed")));
        assert_eq!(r.live_rings(), 0);
        let entries = &r.dumps()[0].entries;
        assert_eq!(
            entries[0],
            FlightEntry::State {
                at_nanos: 10,
                event: SessionEvent::SynSent
            }
        );
        assert_eq!(
            entries[1],
            FlightEntry::Wire {
                at_nanos: 10,
                tx: true,
                flags: SYN,
                seq: 0xabcd,
                ack: 0,
                payload_len: 0
            }
        );
    }

    #[test]
    fn a_harvest_hands_over_the_dumps_only() {
        let mut r = FlightRecorder::new(true, 4);
        r.note_syn(1, 1, 7);
        r.note_syn(2, 1, 8);
        assert!(r.conclude(1, 2, Some("malformed")));
        let out = r.harvest();
        assert_eq!((out.dumps().len(), out.live_rings()), (1, 0));
        assert!(out.is_enabled());
        assert_eq!((r.dumps().len(), r.live_rings()), (0, 1));
    }

    /// The recorder as a reference model: every target gets a ring at its
    /// first event, in an ordered map. A ring is its entries, its
    /// eviction count and its phase.
    struct Eager {
        capacity: usize,
        rings: std::collections::BTreeMap<u32, (VecDeque<FlightEntry>, u64, &'static str)>,
        dumps: Vec<FlightDump>,
    }

    impl Eager {
        fn push(ring: &mut (VecDeque<FlightEntry>, u64, &'static str), entry: FlightEntry) {
            if ring.0.len() >= ring.0.capacity() {
                ring.0.pop_front();
                ring.1 += 1;
            }
            ring.0.push_back(entry);
        }

        fn note_state(&mut self, ip: u32, at_nanos: u64, event: SessionEvent) {
            let capacity = self.capacity;
            let ring = self
                .rings
                .entry(ip)
                .or_insert_with(|| (VecDeque::with_capacity(capacity), 0, "created"));
            if !matches!(event, SessionEvent::SessionFinished { .. }) {
                ring.2 = phase_after(&event);
            }
            Eager::push(ring, FlightEntry::State { at_nanos, event });
        }

        fn note_wire(&mut self, ip: u32, entry: FlightEntry) {
            if let Some(ring) = self.rings.get_mut(&ip) {
                Eager::push(ring, entry);
            }
        }

        fn conclude(&mut self, ip: u32, at_nanos: u64, error: Option<&'static str>) -> bool {
            let (Some((entries, evicted, phase)), Some(error)) = (self.rings.remove(&ip), error)
            else {
                return false;
            };
            self.dumps.push(FlightDump {
                at_nanos,
                ip,
                error,
                phase,
                evicted,
                entries: entries.into_iter().collect(),
            });
            true
        }

        fn expire_stale(&mut self, cutoff_nanos: u64, keep: impl Fn(u32) -> bool) {
            self.rings.retain(|ip, (entries, ..)| {
                entries.back().map_or(0, FlightEntry::at_nanos) >= cutoff_nanos || keep(*ip)
            });
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
            SessionEvent::Refused,
            SessionEvent::IcmpUnreachable,
        ];
        // What the sequences must have reached, counted on targets with a
        // ring: [a ring expired, a ring dumped, an answer, a SYN retry, an
        // expiry sweep with a target exactly at its cutoff].
        let mut seen = [0u32; 5];
        for seed in 0..400u64 {
            let mut rng = Rng(seed);
            let capacity = [1, 2, 3, 32][seed as usize % 4];
            let mut r = FlightRecorder::new(true, capacity);
            let mut m = Eager {
                capacity,
                rings: Default::default(),
                dumps: Vec::new(),
            };
            let mut t = 0u64;
            for _ in 0..300 {
                let ip = rng.below(6) as u32;
                t += rng.below(3);
                let ringed = r.ring_stats(ip).is_some();
                let syn = |isn: u32| FlightEntry::Wire {
                    at_nanos: t,
                    tx: true,
                    flags: SYN,
                    seq: isn,
                    ack: 0,
                    payload_len: 0,
                };
                match rng.below(10) {
                    0 | 1 => {
                        let isn = rng.below(1 << 32) as u32;
                        r.note_syn(ip, t, isn);
                        m.note_state(ip, t, SessionEvent::SynSent);
                        m.note_wire(ip, syn(isn));
                    }
                    2 => {
                        let event = events[rng.below(events.len() as u64) as usize];
                        r.note_state(ip, t, event);
                        m.note_state(ip, t, event);
                    }
                    3 | 4 => {
                        let tx = rng.below(2) == 0;
                        let (flags, seq) = (rng.below(0x40) as u16, rng.below(1 << 32) as u32);
                        r.note_wire(ip, t, tx, flags, seq, 7, 64);
                        let entry = FlightEntry::Wire {
                            at_nanos: t,
                            tx,
                            flags,
                            seq,
                            ack: 7,
                            payload_len: 64,
                        };
                        m.note_wire(ip, entry);
                        seen[2] += u32::from(ringed && !tx);
                    }
                    5 => {
                        let isn = rng.below(1 << 32) as u32;
                        let retried = SessionEvent::SynRetried { attempt: 1 };
                        r.note_state(ip, t, retried);
                        r.note_wire(ip, t, true, SYN, isn, 0, 0);
                        m.note_state(ip, t, retried);
                        m.note_wire(ip, syn(isn));
                        seen[3] += u32::from(ringed);
                    }
                    6 | 7 => {
                        let error = [None, Some("handshake_timeout")][rng.below(2) as usize];
                        assert_eq!(r.conclude(ip, t, error), m.conclude(ip, t, error));
                        seen[1] += u32::from(ringed && error.is_some());
                    }
                    _ => {
                        let cutoff = t.saturating_sub(rng.below(4));
                        let kept = rng.below(1 << 6);
                        let keep = |ip: u32| kept >> ip & 1 == 1;
                        let at_cutoff = r.rings.values().any(|ring| ring.last_at == cutoff);
                        let before = r.live_rings();
                        r.expire_stale(cutoff, keep);
                        m.expire_stale(cutoff, keep);
                        seen[0] += (before - r.live_rings()) as u32;
                        seen[4] += u32::from(at_cutoff);
                    }
                }
                assert_eq!(r.live_rings(), m.rings.len(), "seed {seed}");
            }
            // Whatever is still held must hold the same history.
            for ip in 0..6 {
                assert_eq!(
                    r.conclude(ip, t, Some("end")),
                    m.conclude(ip, t, Some("end"))
                );
            }
            assert_eq!(r.dumps(), &m.dumps[..], "seed {seed}");
        }
        assert!(seen.iter().all(|&n| n > 0), "unreached cases: {seen:?}");
    }
}
