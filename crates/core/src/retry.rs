//! Retransmission FIFOs: the scanner's SYN and discovery retries, off
//! the timer wheel.
//!
//! Every retransmission at backoff level `k` waits the same constant
//! delay (`syn_backoff << k`) and is queued at a monotonic `now`, so a
//! level's due times arrive already sorted. A plain FIFO per level plus
//! **one** wheel timer per level (armed at the head's due time) does the
//! work of one wheel timer per target: the wheel holds O(levels) retry
//! timers and an entry costs 16 bytes for the length of its backoff
//! window.
//!
//! The queue never touches [`iw_netsim::Effects`] itself — `push` and
//! `rearm` tell the caller when, and for how long, to arm the level's
//! timer, so the `armed` flag is the single guard against arming twice.

use iw_netsim::{Duration, Instant};
use std::collections::VecDeque;

/// One backoff level's pending retransmissions, oldest first.
#[derive(Debug, Default)]
pub struct RetryQueue {
    entries: VecDeque<(Instant, u32)>,
    /// A drain timer for this level is outstanding on the wheel.
    armed: bool,
}

impl RetryQueue {
    /// Queue a retransmission to `ip` at `due`. Returns `true` when the
    /// caller must arm the level's drain timer for `due` (none is
    /// outstanding); `false` when an earlier entry's timer covers it.
    pub fn push(&mut self, due: Instant, ip: u32) -> bool {
        debug_assert!(
            self.entries.back().is_none_or(|&(last, _)| last <= due),
            "constant delay + monotonic now keeps a level FIFO-ordered"
        );
        // amortised ring growth, 16 B per in-flight target
        self.entries.push_back((due, ip));
        !std::mem::replace(&mut self.armed, true)
    }

    /// Pop the oldest entry if it is due at `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<u32> {
        match self.entries.front() {
            Some(&(due, ip)) if due <= now => {
                self.entries.pop_front();
                Some(ip)
            }
            _ => None,
        }
    }

    /// The level's drain timer fired and every due entry was popped:
    /// the delay to re-arm it at the new head, or `None` (and disarmed)
    /// when the level is empty.
    pub fn rearm(&mut self, now: Instant) -> Option<Duration> {
        let delay = self
            .entries
            .front()
            .map(|&(due, _)| due.duration_since(now));
        self.armed = delay.is_some();
        delay
    }

    /// Entries waiting for their backoff to elapse.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no retransmission is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every queued retransmission (graceful drain), returning how
    /// many were cut short. An outstanding drain timer stays `armed`: it
    /// fires once more, finds nothing due and disarms through `rearm`.
    pub fn clear(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Instant {
        Instant::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn entries_leave_in_fifo_order() {
        let mut q = RetryQueue::default();
        for (k, ip) in [7u32, 3, 9, 1].into_iter().enumerate() {
            q.push(at(1000 + k as u64), ip);
        }
        assert_eq!(q.len(), 4);
        let mut out = Vec::new();
        while let Some(ip) = q.pop_due(at(2000)) {
            out.push(ip);
        }
        assert_eq!(out, vec![7, 3, 9, 1], "push order, not address order");
        assert!(q.is_empty());
    }

    #[test]
    fn armed_never_double_arms() {
        let mut q = RetryQueue::default();
        assert!(q.push(at(1000), 1), "idle level: the caller arms");
        assert!(!q.push(at(1000), 2), "timer outstanding: covered");
        assert!(!q.push(at(1005), 3));
        // The timer fires; pushes that land mid-drain (a fire queueing the
        // next batch) still see it as outstanding.
        assert_eq!(q.pop_due(at(1000)), Some(1));
        assert!(!q.push(at(2000), 4));
        assert_eq!(q.pop_due(at(1000)), Some(2));
        assert_eq!(q.pop_due(at(1000)), None);
        assert_eq!(q.rearm(at(1000)), Some(Duration::from_millis(5)));
        assert!(!q.push(at(2001), 5), "re-armed at the head: still covered");
        // Clearing keeps the outstanding timer accounted for…
        assert_eq!(q.clear(), 3);
        assert!(!q.push(at(3000), 6));
        // …until it fires into an empty level and disarms.
        assert_eq!(q.clear(), 1);
        assert_eq!(q.rearm(at(1005)), None);
        assert!(q.push(at(3000), 7), "disarmed: the caller arms again");
    }

    #[test]
    fn drain_pops_exactly_the_due_entries_and_rearms_at_the_head() {
        let mut q = RetryQueue::default();
        q.push(at(1000), 10);
        q.push(at(1000), 11);
        q.push(at(1005), 12);
        q.push(at(1010), 13);
        assert_eq!(q.pop_due(at(999)), None, "nothing due yet");
        let mut out = Vec::new();
        while let Some(ip) = q.pop_due(at(1005)) {
            out.push(ip);
        }
        assert_eq!(out, vec![10, 11, 12], "due <= now, inclusive");
        assert_eq!(q.len(), 1);
        assert_eq!(q.rearm(at(1005)), Some(Duration::from_millis(5)));
        assert_eq!(q.pop_due(at(1010)), Some(13));
        assert_eq!(q.rearm(at(1010)), None, "empty level disarms");
    }
}
