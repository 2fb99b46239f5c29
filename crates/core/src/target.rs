//! One lifecycle per target address.
//!
//! Every address the scanner holds state for has one [`Target`] entry in
//! one table, changed along an edge of `TRANSITIONS` (any other edge is
//! counted). A silent target is the exception: it holds no entry, only
//! its address in a retry FIFO while a retransmission is owed. A
//! concluded target keeps its entry for a bounded hold, so an answer that
//! arrives after its verdict — a host retransmitting a SYN-ACK whose ACK
//! was lost — finds it concluded and mints nothing. Sessions live in a
//! vector that `Live` entries index, which keeps an entry at 8 bytes.

use crate::retry::RetryQueue;
use crate::session::HostSession;
use iw_netsim::{Duration, Instant};
use iw_telemetry::AddrMap;

/// Where one target stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A measurement session runs at this index.
    Live(u32),
    /// A path-MTU echo of this total length is in flight.
    Mtu {
        /// Datagram length of the echo in flight.
        total: u32,
    },
    /// It has its verdict; until the hold expires a late answer is
    /// counted (a SYN-ACK also reset), never measured.
    Concluded,
}

const _: () = assert!(
    std::mem::size_of::<Target>() <= 8,
    "a Target must fit a 12-byte table bucket: the table holds every \
     responder until its hold expires, and a 24-byte slot once took \
     campaign_2t's peak RSS from 130 to 172 MB"
);

/// A [`Target`] variant without its payload, or no entry at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Untracked,
    Live,
    Mtu,
    Concluded,
}

fn stage(target: Option<Target>) -> Stage {
    match target {
        None => Stage::Untracked,
        Some(Target::Live(_)) => Stage::Live,
        Some(Target::Mtu { .. }) => Stage::Mtu,
        Some(Target::Concluded) => Stage::Concluded,
    }
}

/// Every edge a target may take. A verdict (session result, open port,
/// refusal) and an ICMP fast-fail conclude; a finished MTU probe and a
/// graceful drain drop the entry.
/// `Concluded` leaves only when its hold expires, so nothing reopens a
/// target that has its verdict. [`Targets::set`] counts every change it
/// makes along an edge missing here.
const TRANSITIONS: &[(Stage, Stage)] = &[
    (Stage::Untracked, Stage::Live),
    (Stage::Untracked, Stage::Mtu),
    (Stage::Untracked, Stage::Concluded),
    (Stage::Live, Stage::Concluded),
    (Stage::Mtu, Stage::Mtu),
    (Stage::Mtu, Stage::Untracked),
    (Stage::Concluded, Stage::Untracked),
];

/// 1 if `from -> to` is not declared.
fn undeclared(from: Option<Target>, to: Option<Target>) -> u64 {
    u64::from(!TRANSITIONS.contains(&(stage(from), stage(to))))
}

/// The scanner's one per-address table, the sessions its `Live` entries
/// index, and the hold of its `Concluded` ones.
pub struct Targets {
    map: AddrMap<Target>,
    sessions: Vec<HostSession>,
    /// `Concluded` entries with their expiry, in conclusion order; they
    /// leave whenever another target concludes, so the hold arms no timer.
    hold: RetryQueue,
    hold_for: Duration,
}

impl Targets {
    /// An empty table whose concluded entries last `hold_for`.
    pub fn new(hold_for: Duration) -> Targets {
        Targets {
            map: AddrMap::default(),
            sessions: Vec::new(),
            hold: RetryQueue::default(),
            hold_for,
        }
    }

    /// The state of `ip` (`None`: untracked).
    pub fn get(&self, ip: u32) -> Option<Target> {
        self.map.get(&ip).copied()
    }

    /// Every entry, in no defined order: a caller sorts what it visits.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Target)> + '_ {
        self.map.iter().map(|(&ip, &target)| (ip, target))
    }

    /// Entries, concluded ones included.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Live sessions.
    pub fn live(&self) -> usize {
        self.sessions.len()
    }

    /// The live session of `ip`.
    pub fn session(&self, ip: u32) -> Option<&HostSession> {
        match self.get(ip)? {
            Target::Live(index) => self.sessions.get(index as usize),
            _ => None,
        }
    }

    /// The live session of `ip`, mutably.
    pub fn session_mut(&mut self, ip: u32) -> Option<&mut HostSession> {
        match self.get(ip)? {
            Target::Live(index) => self.sessions.get_mut(index as usize),
            _ => None,
        }
    }

    /// The session a `Live(index)` entry just read names.
    pub fn session_at(&mut self, index: u32) -> Option<&mut HostSession> {
        self.sessions.get_mut(index as usize)
    }

    /// Make `ip` `Live` with `session`; returns as [`Self::set`] does.
    pub fn open(&mut self, ip: u32, session: HostSession, now: Instant) -> u64 {
        self.sessions.push(session);
        self.set(ip, Some(Target::Live(self.sessions.len() as u32 - 1)), now)
    }

    /// Move `ip` to `to` (`None` drops its entry). Leaving `Live` drops
    /// the session (the last one moves into its index); entering
    /// `Concluded` starts the hold, after dropping every concluded entry
    /// whose hold has run out. Returns the changes made along an
    /// undeclared edge (zero in a correct scanner).
    pub fn set(&mut self, ip: u32, to: Option<Target>, now: Instant) -> u64 {
        let from = match to {
            Some(target) => self.map.insert(ip, target),
            None => self.map.remove(&ip),
        };
        let mut undeclared_edges = undeclared(from, to);
        if let Some(Target::Live(index)) = from {
            self.sessions.swap_remove(index as usize);
            // A slab drained to a quarter gives half its capacity
            // back: while sessions conclude, results grow, and the
            // slab's touched tail would otherwise stay resident.
            if self.sessions.len() <= self.sessions.capacity() / 4 {
                self.sessions.shrink_to(self.sessions.capacity() / 2);
            }
            if let Some(moved) = self.sessions.get(index as usize) {
                self.map.insert(moved.ip().to_u32(), Target::Live(index));
            }
        }
        if to == Some(Target::Concluded) {
            while let Some(expired) = self.hold.pop_due(now) {
                undeclared_edges += undeclared(self.map.remove(&expired), None);
            }
            self.hold.push(now + self.hold_for, ip);
        }
        undeclared_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::Protocol;
    use crate::session::SessionParams;
    use iw_wire::ipv4::Ipv4Addr;

    /// Every stage. The match in the test stops compiling when one is
    /// added; listed here, the test then demands its edges.
    const ALL: [Stage; 4] = [Stage::Untracked, Stage::Live, Stage::Mtu, Stage::Concluded];

    /// The stages `from` reaches along declared edges, itself included.
    fn reach(from: Stage) -> Vec<Stage> {
        proptest::reachable(TRANSITIONS, from)
    }

    #[test]
    fn target_transitions_are_closed() {
        let from_untracked = reach(Stage::Untracked);
        for s in ALL {
            match s {
                Stage::Untracked | Stage::Live | Stage::Mtu | Stage::Concluded => {}
            }
            assert!(from_untracked.contains(&s), "{s:?} is unreachable");
            // No state is a trap: every entry can leave the table again.
            assert!(reach(s).contains(&Stage::Untracked), "{s:?} never ends");
        }
        // A verdict is final: the hold's expiry is the only way out, so
        // a late answer can never reopen the target.
        let out: Vec<Stage> = TRANSITIONS
            .iter()
            .filter(|(from, _)| *from == Stage::Concluded)
            .map(|&(_, to)| to)
            .collect();
        assert_eq!(out, [Stage::Untracked]);
    }

    #[test]
    fn an_undeclared_target_edge_is_taken_and_counted() {
        let mut targets = Targets::new(Duration::from_secs(1));
        assert_eq!(targets.set(7, Some(Target::Concluded), Instant::ZERO), 0);
        assert_eq!(targets.set(7, Some(Target::Live(0)), Instant::ZERO), 1);
        assert_eq!(targets.get(7), Some(Target::Live(0)));
    }

    #[test]
    fn concluded_entries_leave_after_the_hold() {
        let at = |s: u64| Instant::ZERO + Duration::from_secs(s);
        let mut targets = Targets::new(Duration::from_secs(10));
        targets.set(1, Some(Target::Concluded), at(0));
        targets.set(2, Some(Target::Concluded), at(9));
        assert_eq!(targets.get(1), Some(Target::Concluded), "inside the hold");
        targets.set(3, Some(Target::Concluded), at(10));
        assert_eq!(targets.get(1), None, "expired on the next conclusion");
        assert_eq!(targets.get(2), Some(Target::Concluded));
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn a_concluding_session_hands_its_index_to_the_last_one() {
        let params = SessionParams::study(Protocol::Http, Ipv4Addr::new(192, 0, 2, 1), 7);
        let params = std::sync::Arc::new(params);
        let session =
            |ip: u32| HostSession::new(Ipv4Addr::from_u32(ip), params.clone(), None, Instant::ZERO);
        let mut targets = Targets::new(Duration::from_secs(1));
        for ip in [10, 11, 12] {
            targets.open(ip, session(ip), Instant::ZERO);
        }
        targets.set(10, Some(Target::Concluded), Instant::ZERO);
        assert_eq!(targets.live(), 2);
        assert_eq!(targets.get(12), Some(Target::Live(0)), "moved into the gap");
        for ip in [11, 12] {
            let live = targets.session(ip).map(|s| s.ip().to_u32());
            assert_eq!(live, Some(ip));
        }
        assert!(targets.session(10).is_none());
    }
}
