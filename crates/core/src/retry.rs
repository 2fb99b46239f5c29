//! Retransmission FIFOs: the scanner's SYN retries, off the timer wheel.
//!
//! Every retransmission at backoff level `k` waits the same constant
//! delay (`SYN_BACKOFF << k`) and is queued at a monotonic `now`, so a
//! level's due times arrive already sorted. A plain FIFO per level plus
//! **one** wheel timer per level (armed at the head's due time) does the
//! work of one wheel timer per target: the wheel holds O(levels) retry
//! timers.
//!
//! The due times are stored run-length: every SYN of one pacing tick,
//! and every retry one drain re-queues, is pushed at the same `now`, so
//! one `(due, count)` run covers the whole batch (~375 entries at
//! 150 kpps over two shards). The addresses sit in fixed-size blocks,
//! and a drained block is freed at once: a drain hands its targets on
//! to the next level while this one shrinks, where a ring per level
//! would keep its high-water capacity. A queued target costs its bare
//! 4-byte address for the length of its backoff window.
//!
//! [`RetryQueue`] never touches [`iw_netsim::Effects`] itself — `push`
//! and `rearm` tell the caller when, and for how long, to arm the level's
//! timer, so the `armed` flag is the single guard against arming twice.
//! [`RetryLevels`] is one retry path's stack of levels and does the
//! arming with the drain-timer token its owner names per level; the SYN
//! retry path holds one.

use crate::config::SYN_BACKOFF;
use iw_netsim::{Duration, Effects, Instant, TimerToken};
use std::collections::VecDeque;

/// Addresses per block (32 KiB).
const BLOCK: usize = 8192;

/// One backoff level's pending retransmissions, oldest first.
#[derive(Debug, Default)]
pub struct RetryQueue {
    /// Queued addresses, oldest first. Every block but the last is full;
    /// the first is consumed from `head`.
    blocks: VecDeque<Vec<u32>>,
    /// Entries of the first block already popped.
    head: usize,
    /// `(due, count)`: the next `count` queued addresses are due at
    /// `due`. Counts are never zero.
    runs: VecDeque<(Instant, u32)>,
    /// A drain timer for this level is outstanding on the wheel.
    armed: bool,
}

impl RetryQueue {
    /// Queue a retransmission to `ip` at `due`. Returns `true` when the
    /// caller must arm the level's drain timer for `due` (none is
    /// outstanding); `false` when an earlier entry's timer covers it.
    pub fn push(&mut self, due: Instant, ip: u32) -> bool {
        debug_assert!(
            self.runs.back().is_none_or(|&(last, _)| last <= due),
            "constant delay + monotonic now keeps a level FIFO-ordered"
        );
        match self.blocks.back_mut() {
            Some(block) if block.len() < BLOCK => block.push(ip),
            _ => {
                // one allocation per BLOCK targets
                let mut block = Vec::with_capacity(BLOCK);
                block.push(ip);
                self.blocks.push_back(block);
            }
        }
        match self.runs.back_mut() {
            Some((last, count)) if *last == due => *count += 1,
            _ => self.runs.push_back((due, 1)),
        }
        !std::mem::replace(&mut self.armed, true)
    }

    /// Pop the oldest entry if it is due at `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<u32> {
        let (due, count) = self.runs.front_mut()?;
        if *due > now {
            return None;
        }
        *count -= 1;
        if *count == 0 {
            self.runs.pop_front();
        }
        // A run counts queued addresses, so the block is there.
        let block = self.blocks.front()?;
        let ip = block[self.head];
        self.head += 1;
        if self.head == BLOCK {
            self.blocks.pop_front();
            self.head = 0;
        }
        Some(ip)
    }

    /// The level's drain timer fired and every due entry was popped:
    /// the delay to re-arm it at the new head, or `None` (and disarmed)
    /// when the level is empty.
    pub fn rearm(&mut self, now: Instant) -> Option<Duration> {
        let delay = self.runs.front().map(|&(due, _)| due.duration_since(now));
        self.armed = delay.is_some();
        delay
    }

    /// Entries waiting for their backoff to elapse.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>() - self.head
    }

    /// The queued addresses, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().flatten().skip(self.head).copied()
    }

    /// Drop every queued retransmission (graceful drain), returning how
    /// many were cut short. An outstanding drain timer stays `armed`: it
    /// fires once more, finds nothing due and disarms through `rearm`.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.blocks.clear();
        self.head = 0;
        self.runs.clear();
        dropped
    }
}

/// One retry path's FIFOs, one [`RetryQueue`] per backoff level: level
/// `k` holds the targets that have spent `k` retries, each due
/// [`SYN_BACKOFF`]` << k` after it was queued. Levels are grown on first
/// use, so a scan without retries holds none.
pub struct RetryLevels {
    levels: Vec<RetryQueue>,
    /// The drain timer of a level.
    timer: fn(usize) -> TimerToken,
}

impl RetryLevels {
    /// No levels yet; level `k` drains on timer `timer(k)`.
    pub fn new(timer: fn(usize) -> TimerToken) -> RetryLevels {
        RetryLevels {
            levels: Vec::new(),
            timer,
        }
    }

    /// Queue `ip` at backoff `level`, arming the level's drain timer if
    /// none is outstanding.
    pub fn push(&mut self, level: usize, ip: u32, now: Instant, fx: &mut Effects) {
        let delay = Duration::from_nanos(SYN_BACKOFF.as_nanos() << level);
        self.push_after(delay, level, ip, now, fx);
    }

    /// Queue `ip` at `level` to wait `delay` instead of the level's
    /// backoff. A level stays FIFO-ordered only while all its entries
    /// wait the same delay, so an owner queues a level one way only.
    pub fn push_after(
        &mut self,
        delay: Duration,
        level: usize,
        ip: u32,
        now: Instant,
        fx: &mut Effects,
    ) {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, RetryQueue::default);
        }
        if self.levels[level].push(now + delay, ip) {
            fx.arm(delay, (self.timer)(level));
        }
    }

    /// Pop the oldest entry of `level` if it is due at `now`.
    pub fn pop_due(&mut self, level: usize, now: Instant) -> Option<u32> {
        self.levels.get_mut(level)?.pop_due(now)
    }

    /// Every due entry of `level` was popped: re-arm its drain timer at
    /// the new head, or leave the level disarmed when it is empty.
    pub fn rearm(&mut self, level: usize, now: Instant, fx: &mut Effects) {
        if let Some(delay) = self.levels.get_mut(level).and_then(|q| q.rearm(now)) {
            fx.arm(delay, (self.timer)(level));
        }
    }

    /// Entries waiting for their backoff, over every level.
    pub fn len(&self) -> usize {
        self.levels.iter().map(RetryQueue::len).sum()
    }

    /// Every queued `(level, ip)`, level by level, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let levels = self.levels.iter().enumerate();
        levels.flat_map(|(level, q)| q.iter().map(move |ip| (level, ip)))
    }

    /// Drop every queued retransmission (graceful drain), returning how
    /// many were cut short.
    pub fn clear(&mut self) -> usize {
        self.levels.iter_mut().map(RetryQueue::clear).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iw_internet::util::mix;

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
        assert_eq!(q.len(), 0);
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

    #[test]
    fn a_batch_pushed_at_one_instant_is_one_run() {
        let mut q = RetryQueue::default();
        for ip in 0..375 {
            q.push(at(1000), ip);
        }
        q.push(at(1005), 375);
        assert_eq!((q.len(), q.runs.len()), (376, 2));
        assert!(q.iter().eq(0..376), "iteration is queue order");
    }

    /// The queue this one replaced: one `(due, ip)` per entry.
    #[derive(Default)]
    struct Model {
        entries: VecDeque<(Instant, u32)>,
        armed: bool,
    }

    impl Model {
        fn push(&mut self, due: Instant, ip: u32) -> bool {
            self.entries.push_back((due, ip));
            !std::mem::replace(&mut self.armed, true)
        }

        fn pop_due(&mut self, now: Instant) -> Option<u32> {
            match self.entries.front() {
                Some(&(due, ip)) if due <= now => {
                    self.entries.pop_front();
                    Some(ip)
                }
                _ => None,
            }
        }

        fn rearm(&mut self, now: Instant) -> Option<Duration> {
            let delay = self
                .entries
                .front()
                .map(|&(due, _)| due.duration_since(now));
            self.armed = delay.is_some();
            delay
        }

        fn clear(&mut self) -> usize {
            let dropped = self.entries.len();
            self.entries.clear();
            dropped
        }
    }

    #[test]
    fn run_length_queue_matches_the_per_entry_model() {
        for seed in 0..48u64 {
            let (mut q, mut model) = (RetryQueue::default(), Model::default());
            // `due` only moves forward (the FIFO invariant) and often
            // stays put, so runs of equal and of distinct due times mix;
            // batches of thousands cross block boundaries.
            let (mut now, mut due) = (0u64, 0u64);
            let (mut cleared_armed, mut blocks) = (false, 0);
            for step in 0..300u64 {
                let r = mix(&[seed, step]);
                let ctx = format!("seed {seed} step {step}");
                let pick = |shift: u32, of: &[u64]| of[(r >> shift) as usize % of.len()];
                match r % 16 {
                    0..=7 => {
                        for k in 0..pick(4, &[1, 1, 3, 500, 9000]) {
                            due =
                                (due + pick(12, &[0, 0, 0, 1, 5]) * u64::from(k % 7 == 0)).max(now);
                            let ip = mix(&[r, k]) as u32;
                            assert_eq!(q.push(at(due), ip), model.push(at(due), ip), "{ctx}");
                        }
                    }
                    8..=12 => {
                        now += pick(8, &[0, 1, 2, 5]);
                        for _ in 0..pick(16, &[1, 10, 3000, u64::MAX]) {
                            let popped = q.pop_due(at(now));
                            assert_eq!(popped, model.pop_due(at(now)), "{ctx}");
                            if popped.is_none() {
                                break;
                            }
                        }
                    }
                    13 | 14 => assert_eq!(q.rearm(at(now)), model.rearm(at(now)), "{ctx}"),
                    _ => {
                        cleared_armed |= model.armed && !model.entries.is_empty();
                        assert_eq!(q.clear(), model.clear(), "{ctx}");
                    }
                }
                assert_eq!(q.len(), model.entries.len(), "{ctx}");
                assert_eq!(q.runs.is_empty(), model.entries.is_empty(), "{ctx}");
                assert_eq!(q.armed, model.armed, "{ctx}");
                blocks = blocks.max(q.blocks.len());
                if step % 16 == 0 {
                    assert!(
                        q.iter().eq(model.entries.iter().map(|&(_, ip)| ip)),
                        "{ctx}"
                    );
                }
            }
            assert!(cleared_armed, "seed {seed}: no clear while armed");
            assert!(blocks > 1, "seed {seed}: never crossed a block");
        }
    }
    #[test]
    fn levels_wait_doubling_backoffs_and_arm_their_own_timer() {
        let mut levels = RetryLevels::new(|level| 100 + level as u64);
        let mut fx = Effects::default();
        levels.push(0, 7, at(0), &mut fx);
        levels.push(2, 8, at(0), &mut fx);
        levels.push(2, 9, at(10), &mut fx);
        // One timer per level, at SYN_BACKOFF << level.
        assert_eq!(
            fx.timers,
            [(Duration::from_secs(1), 100), (Duration::from_secs(4), 102)]
        );
        assert_eq!(levels.len(), 3);
        assert!(levels.iter().eq([(0, 7), (2, 8), (2, 9)]));
        assert_eq!(levels.pop_due(1, at(1_000_000)), None, "no such level");
        assert_eq!(levels.pop_due(2, at(4000)), Some(8));
        assert_eq!(levels.pop_due(2, at(4000)), None);
        let mut fx = Effects::default();
        levels.rearm(2, at(4000), &mut fx);
        assert_eq!(fx.timers, [(Duration::from_millis(10), 102)]);
        assert_eq!(levels.clear(), 2);
        assert_eq!(levels.len(), 0);
    }
}
