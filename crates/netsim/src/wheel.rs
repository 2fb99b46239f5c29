//! Hierarchical timer wheel: the simulator's event queue.
//!
//! The kernel used to keep every future event in one `BinaryHeap`, paying
//! O(log n) per schedule and per pop with n in the tens of thousands once
//! a scan is pacing millions of packets per virtual second. The wheel
//! replaces that with O(1) amortized scheduling: virtual time is split
//! into ticks of 2^[`TICK_SHIFT`] ns (~0.52 ms), and a pending event is
//! filed into one of [`LEVELS`] × [`SLOTS`] buckets addressed by the
//! highest tick bit in which its deadline differs from the current tick
//! (the classic hashed hierarchical wheel of Varghese & Lauck, also used
//! by the rtcp userspace stack this engine follows).
//!
//! Ordering contract — identical to the heap it replaces: events pop in
//! `(at, seq)` order, where `seq` is the caller's monotonically
//! increasing insertion sequence. The wheel guarantees this by
//! construction:
//!
//! * slots partition time, and slots are drained in tick order, so two
//!   events in different ticks never reorder;
//! * every event whose tick has been reached sits in the `due` heap,
//!   which is ordered by exact `(at, seq)` — so events inside one tick
//!   (and late insertions into the current tick) fire in heap order, and
//!   every event still out on the wheel has a strictly larger deadline
//!   than anything in `due` (its tick, hence its `at`, is larger).
//!
//! Every pending entry lives in one node slab: its deadline, sequence,
//! generation, position and payload. A bucket holds 4-byte node
//! indices, and `due` holds `(at, seq, index)` keys, so filing an entry
//! and cascading a bucket move four bytes, not the entry, and a bucket
//! that a burst grew costs a tenth of what it did. Nodes are reused
//! through a free list threaded through [`Node::pos`].
//!
//! Cancellation is O(1). [`TimerWheel::push_cancellable`] returns a
//! generation-tagged [`TimerId`] naming the entry's node; the node
//! records its position in its bucket, and where the bucket is follows
//! from the deadline and the cursor (see [`bucket_of`]), so
//! [`TimerWheel::cancel`] of an entry out on the wheel is a
//! swap-remove. An entry already in `due` drops its payload at once and
//! leaves its key for `pop` to skip. A node is reused only after its key
//! has left every structure, and its generation moves on each release,
//! so a stale `TimerId` cancels nothing. [`TimerWheel::push`] files an
//! entry nobody will cancel (a packet in flight) the same way and hands
//! out no id.
//!
//! The slab and `due` keep their capacity; a drained bucket keeps its
//! buffer up to [`KEPT_BUCKET_INDICES`], so steady-state filing
//! allocates nothing and a burst does not pin its peak.

use crate::time::Instant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the tick length in nanoseconds (2^19 ns ≈ 0.52 ms — finer
/// than every RTO/pacing interval the scanner arms, so same-tick
/// collisions stay rare).
const TICK_SHIFT: u32 = 19;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. A tick index has at most 64 − [`TICK_SHIFT`] = 45
/// significant bits, and 8 levels × 6 bits = 48 bits cover all of them:
/// every representable deadline has a home bucket, so there is no
/// overflow path to get wrong.
const LEVELS: usize = 8;
/// The most indices a drained bucket keeps room for on its next lap.
/// Larger buffers are freed, so one burst does not pin its peak in all
/// 512 buckets.
const KEPT_BUCKET_INDICES: usize = 1 << 10;
/// Drained entries whose deadlines a cascade reads before re-filing any.
const CASCADE_CHUNK: usize = 32;

/// End of the free list.
const NIL: u32 = u32::MAX;
/// [`Node::pos`] of an entry whose key is in `due`.
const DUE: u32 = u32::MAX - 1;
/// [`Node::pos`] of an entry cancelled while its key waits in `due`.
const CANCELLED: u32 = u32::MAX - 2;

/// Names one entry pushed with [`TimerWheel::push_cancellable`]: a node
/// index and the generation it was issued under. Once the entry fires or
/// is cancelled the id is stale, and every operation given it is a
/// no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    index: u32,
    gen: u32,
}

/// One slab node: a pending entry, or a free one (`item` is `None`).
#[derive(Debug)]
struct Node<T> {
    at: Instant,
    /// The caller's insertion sequence, which breaks deadline ties.
    seq: u64,
    /// Moves every time the node is released or its entry cancelled.
    gen: u32,
    /// The entry's index in its bucket while on the wheel, [`DUE`],
    /// [`CANCELLED`], or the next free node while free.
    pos: u32,
    item: Option<T>,
}

/// Bytes of one node holding a `T`, for the size gates of the wheel's
/// users.
pub(crate) const fn node_bytes<T>() -> usize {
    std::mem::size_of::<Node<T>>()
}

/// A `due` key: pop order is `(at, seq)`; the index finds the node.
type DueKey = Reverse<(Instant, u64, u32)>;

/// One wheel level: 64 buckets of node indices plus an occupancy bitmap
/// so the next non-empty bucket is a `trailing_zeros`, not a scan.
#[derive(Debug)]
struct Level {
    slots: [Vec<u32>; SLOTS],
    occupied: u64,
}

impl Level {
    fn new() -> Level {
        Level {
            slots: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

/// Hierarchical timer wheel ordered by `(at, seq)`.
///
/// `seq` values must be supplied in increasing order by the caller (the
/// kernel's global event sequence); `at` may be anything at or after the
/// deadline of the most recently popped entry.
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: [Level; LEVELS],
    /// Every pending entry, and the free nodes between them.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through [`Node::pos`].
    free: u32,
    /// Keys of the entries whose tick the cursor has reached, in exact
    /// pop order (cancelled ones included until they surface).
    due: BinaryHeap<DueKey>,
    /// Cancelled entries still in `due`.
    due_cancelled: usize,
    /// The cursor: every entry on the wheel has `tick(at) > cur_tick`.
    cur_tick: u64,
    /// Pending entries (cancelled ones excluded).
    len: usize,
}

const fn tick_of(at: Instant) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// The `(level, slot)` of the bucket an entry due at `tick` is filed in
/// when the cursor is at `cur_tick < tick`: the level is chosen by the
/// highest bit in which the two differ, so the entry's slot within that
/// level is always ahead of the cursor's. An entry stays in that bucket
/// until it drains: the cursor only moves by draining the earliest
/// occupied bucket, and never past an entry's bucket without draining it,
/// so this is also where a pending entry *is*.
fn bucket_of(tick: u64, cur_tick: u64) -> (usize, usize) {
    let differing = tick ^ cur_tick;
    let top_bit = 63 - differing.leading_zeros();
    let level = (top_bit / SLOT_BITS) as usize;
    let slot = (tick >> (level as u32 * SLOT_BITS)) as usize & (SLOTS - 1);
    (level, slot)
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with the cursor at virtual time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            levels: std::array::from_fn(|_| Level::new()),
            nodes: Vec::new(),
            free: NIL,
            due: BinaryHeap::new(),
            due_cancelled: 0,
            cur_tick: 0,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` for `at`, with tie-break sequence `seq`. It cannot
    /// be cancelled.
    pub fn push(&mut self, at: Instant, seq: u64, item: T) {
        self.push_cancellable(at, seq, item);
    }

    /// As [`Self::push`], returning the id that cancels the entry.
    pub fn push_cancellable(&mut self, at: Instant, seq: u64, item: T) -> TimerId {
        let (index, gen) = if self.free == NIL {
            self.nodes.push(Node {
                at,
                seq,
                gen: 0,
                pos: 0,
                item: Some(item),
            });
            ((self.nodes.len() - 1) as u32, 0)
        } else {
            let index = self.free;
            let node = &mut self.nodes[index as usize];
            self.free = node.pos;
            node.at = at;
            node.seq = seq;
            node.item = Some(item);
            (index, node.gen)
        };
        self.len += 1;
        let tick = tick_of(at);
        if tick <= self.cur_tick {
            self.enqueue_due(index);
        } else {
            self.file(index, tick);
        }
        TimerId { index, gen }
    }

    /// The deadline of the pending entry `id` names, `None` once it fired
    /// or was cancelled.
    pub fn deadline(&self, id: TimerId) -> Option<Instant> {
        self.live(id).map(|node| node.at)
    }

    /// Remove the pending entry `id` names; it will never pop. False (and
    /// nothing happens) when it already fired or was cancelled, even if
    /// its node now holds another entry.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let Some(&Node { at, pos, .. }) = self.live(id) else {
            return false;
        };
        self.len -= 1;
        let index = id.index as usize;
        if pos == DUE {
            // A heap has no cheap removal: drop the payload now and
            // leave the key for `advance_to_due` to skip.
            let node = &mut self.nodes[index];
            node.gen = node.gen.wrapping_add(1);
            node.pos = CANCELLED;
            node.item = None;
            self.due_cancelled += 1;
            return true;
        }
        let (level, bucket) = bucket_of(tick_of(at), self.cur_tick);
        let l = &mut self.levels[level];
        let entries = &mut l.slots[bucket];
        let pos = pos as usize;
        entries.swap_remove(pos);
        match entries.get(pos) {
            Some(&moved) => self.nodes[moved as usize].pos = pos as u32,
            None if entries.is_empty() => l.occupied &= !(1 << bucket),
            None => {}
        }
        self.release(index);
        true
    }

    /// The node `id` names, if its entry is still pending. A node's
    /// generation moves when its entry is cancelled and when it is
    /// released, so it matches only while the entry `id` named is live.
    fn live(&self, id: TimerId) -> Option<&Node<T>> {
        self.nodes
            .get(id.index as usize)
            .filter(|node| node.gen == id.gen)
    }

    /// Put a node whose key left every structure on the free list,
    /// returning its payload.
    fn release(&mut self, index: usize) -> Option<T> {
        let node = &mut self.nodes[index];
        node.gen = node.gen.wrapping_add(1);
        node.pos = self.free;
        self.free = index as u32;
        node.item.take()
    }

    /// Queue node `index`, whose tick the cursor has reached, for `pop`.
    fn enqueue_due(&mut self, index: u32) {
        let node = &mut self.nodes[index as usize];
        node.pos = DUE;
        self.due.push(Reverse((node.at, node.seq, index)));
    }

    /// File node `index`, whose tick is strictly beyond the cursor, on
    /// the wheel.
    fn file(&mut self, index: u32, tick: u64) {
        let (level, bucket) = bucket_of(tick, self.cur_tick);
        let l = &mut self.levels[level];
        self.nodes[index as usize].pos = l.slots[bucket].len() as u32;
        l.slots[bucket].push(index);
        l.occupied |= 1 << bucket;
    }

    /// The deadline of the next entry, advancing the cursor as needed.
    pub fn peek_at(&mut self) -> Option<Instant> {
        self.advance_to_due();
        self.due.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Remove and return the next entry in `(at, seq)` order.
    pub fn pop(&mut self) -> Option<(Instant, T)> {
        self.advance_to_due();
        let Reverse((at, _, index)) = self.due.pop()?;
        self.len -= 1;
        let item = self.release(index as usize)?;
        Some((at, item))
    }

    /// Advance the cursor until the head of `due` is a pending entry (or
    /// nothing is pending). Cancelled entries at the head are dropped;
    /// each iteration otherwise drains the earliest occupied bucket.
    fn advance_to_due(&mut self) {
        loop {
            while self.due_cancelled > 0 {
                match self.due.peek() {
                    Some(Reverse((_, _, index)))
                        if self.nodes[*index as usize].pos == CANCELLED =>
                    {
                        let index = *index as usize;
                        self.due.pop();
                        self.due_cancelled -= 1;
                        self.release(index);
                    }
                    _ => break,
                }
            }
            if !self.due.is_empty() || self.len == 0 {
                return;
            }
            let Some((level, bucket)) = self.next_occupied() else {
                debug_assert!(false, "wheel accounting broken: len > 0, no bucket");
                return;
            };
            let l = &mut self.levels[level];
            let mut entries = std::mem::take(&mut l.slots[bucket]);
            l.occupied &= !(1 << bucket);
            // Move the cursor to the bucket's base tick. Every drained
            // entry lands at or beyond it, and every other pending entry
            // is in a strictly later bucket.
            let span = level as u32 * SLOT_BITS;
            let mut base = self.cur_tick;
            base &= !(((1u64 << SLOT_BITS) - 1) << span); // clear slot field
            base |= (bucket as u64) << span; // set to drained slot
            base &= !((1u64 << span) - 1); // clear all lower fields
            self.cur_tick = base;
            // Read a chunk's deadlines before re-filing any of it: the
            // node reads are independent, so their cache misses overlap
            // instead of each stalling the re-filing that needs it.
            for chunk in entries.chunks(CASCADE_CHUNK) {
                let mut ticks = [0; CASCADE_CHUNK];
                for (tick, &index) in ticks.iter_mut().zip(chunk) {
                    *tick = tick_of(self.nodes[index as usize].at);
                }
                for (&tick, &index) in ticks.iter().zip(chunk) {
                    if tick <= self.cur_tick {
                        self.enqueue_due(index);
                    } else {
                        self.file(index, tick); // re-files into a lower level
                    }
                }
            }
            entries.clear();
            // Re-filing only reaches lower levels, so the bucket is still
            // empty: hand it back its buffer unless a burst grew it.
            if entries.capacity() <= KEPT_BUCKET_INDICES {
                self.levels[level].slots[bucket] = entries;
            }
        }
    }

    /// Locate the earliest occupied bucket at or after the cursor.
    ///
    /// Levels are searched bottom-up: a level-0 bucket in the cursor's
    /// window always expires before any occupied bucket of a higher
    /// level, because an entry sharing the cursor's upper tick bits is
    /// always filed at the lowest level that distinguishes it. Within a
    /// level, buckets below the cursor's slot belong to an earlier lap
    /// and are necessarily empty ([`Self::file`] only ever places
    /// entries ahead of the cursor).
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cur_slot = (self.cur_tick >> (level as u32 * SLOT_BITS)) & (SLOTS - 1) as u64;
            let ahead = self.levels[level].occupied & (!0u64 << cur_slot);
            if ahead != 0 {
                return Some((level, ahead.trailing_zeros() as usize));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use std::collections::BTreeMap;

    /// Deterministic xorshift PRNG — no external dependencies, fully
    /// reproducible property runs.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Reference model: an ordered map standing in for the heap the wheel
    /// replaced, so an entry can also be removed by key.
    #[derive(Default)]
    struct Model {
        pending: BTreeMap<(Instant, u64), u64>,
    }
    impl Model {
        fn push(&mut self, at: Instant, seq: u64, item: u64) {
            self.pending.insert((at, seq), item);
        }
        fn pop(&mut self) -> Option<(Instant, u64)> {
            self.pending.pop_first().map(|((at, _), item)| (at, item))
        }
    }

    /// A deadline at or after `now`: same tick, a few ticks, level-1/2
    /// territory, deep in the wheel, or in its top levels.
    fn deadline(rng: &mut Rng, now: u64) -> Instant {
        let horizon = match rng.next() % 5 {
            0 => 1 << 10,
            1 => 1 << 22,
            2 => 1 << 28,
            3 => 1 << 36,
            _ => 1 << 54,
        };
        Instant::from_nanos(now + rng.next() % horizon)
    }

    #[test]
    fn fires_in_at_seq_order() {
        let mut w = TimerWheel::new();
        w.push(Instant::from_nanos(500), 1, "b");
        w.push(Instant::from_nanos(100), 2, "a");
        w.push(Instant::from_nanos(500), 0, "first-at-500");
        assert_eq!(w.pop(), Some((Instant::from_nanos(100), "a")));
        assert_eq!(w.pop(), Some((Instant::from_nanos(500), "first-at-500")));
        assert_eq!(w.pop(), Some((Instant::from_nanos(500), "b")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn same_order_as_heap_under_random_schedules() {
        // Property: for arbitrary interleavings of schedules and pops —
        // including schedules issued *while* draining, at or after the
        // last popped deadline, exactly like the kernel rearming timers
        // from an event handler — the wheel pops the same sequence as
        // the ordered heap.
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut wheel = TimerWheel::new();
            let mut model = Model::default();
            let mut seq = 0u64;
            let mut now = 0u64; // last popped deadline: schedule floor
            let mut pending = 0i64;
            for _ in 0..5_000 {
                let spawn = pending == 0 || rng.next() % 100 < 55;
                if spawn {
                    let at = deadline(&mut rng, now);
                    wheel.push(at, seq, seq);
                    model.push(at, seq, seq);
                    seq += 1;
                    pending += 1;
                } else {
                    let got = wheel.pop();
                    let want = model.pop();
                    assert_eq!(got, want, "seed {seed}");
                    now = got.unwrap().0.as_nanos();
                    pending -= 1;
                }
            }
            loop {
                let got = wheel.pop();
                let want = model.pop();
                assert_eq!(got, want, "seed {seed} (drain)");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn cancels_and_rearms_match_the_heap_model() {
        // Property: under random pushes, pops, cancels and re-arms (a
        // cancel plus a push with a fresh sequence, as the kernel moves a
        // keyed timer), cancelled entries never pop, the rest pop in
        // `(at, seq)` order, and `len` stays exact after every step.
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03) | 1);
            let mut wheel = TimerWheel::new();
            let mut model = Model::default();
            // Ids of pending entries, with their model keys.
            let mut live: Vec<(TimerId, Instant, u64)> = Vec::new();
            // Ids that fired or were cancelled.
            let mut stale: Vec<TimerId> = Vec::new();
            // Sequences of the entries pushed without an id.
            let mut plain: Vec<u64> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            for _ in 0..6_000 {
                match rng.next() % 100 {
                    0..=34 => {
                        let at = deadline(&mut rng, now);
                        live.push((wheel.push_cancellable(at, seq, seq), at, seq));
                        model.push(at, seq, seq);
                        seq += 1;
                    }
                    35..=39 => {
                        // Entries nobody can cancel share the buckets.
                        let at = deadline(&mut rng, now);
                        wheel.push(at, seq, seq);
                        model.push(at, seq, seq);
                        plain.push(seq);
                        seq += 1;
                    }
                    40..=64 if !live.is_empty() => {
                        let (id, at, s) = live.swap_remove(rng.next() as usize % live.len());
                        assert!(wheel.cancel(id), "seed {seed}: a pending id cancels");
                        assert!(model.pending.remove(&(at, s)).is_some());
                        stale.push(id);
                    }
                    65..=79 if !live.is_empty() => {
                        let k = rng.next() as usize % live.len();
                        let (id, at, s) = live[k];
                        assert_eq!(wheel.deadline(id), Some(at));
                        assert!(wheel.cancel(id));
                        model.pending.remove(&(at, s));
                        let at = deadline(&mut rng, now);
                        live[k] = (wheel.push_cancellable(at, seq, seq), at, seq);
                        model.push(at, seq, seq);
                        seq += 1;
                        stale.push(id);
                    }
                    80..=84 if !stale.is_empty() => {
                        let id = stale[rng.next() as usize % stale.len()];
                        assert!(!wheel.cancel(id), "seed {seed}: a stale id cancels nothing");
                        assert_eq!(wheel.deadline(id), None);
                    }
                    _ => {
                        let got = wheel.pop();
                        assert_eq!(got, model.pop(), "seed {seed}");
                        if let Some((at, item)) = got {
                            now = at.as_nanos();
                            match live.iter().position(|e| e.2 == item) {
                                Some(k) => stale.push(live.swap_remove(k).0),
                                None => plain.retain(|s| *s != item),
                            }
                        }
                    }
                }
                assert_eq!(wheel.len(), model.pending.len(), "seed {seed}");
                assert_eq!(wheel.len(), live.len() + plain.len());
            }
            loop {
                let got = wheel.pop();
                assert_eq!(got, model.pop(), "seed {seed} (drain)");
                if got.is_none() {
                    break;
                }
            }
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn a_stale_id_cannot_cancel_the_entry_that_reused_its_slot() {
        let mut w = TimerWheel::new();
        let at = Instant::from_nanos(1 << 30);
        let old = w.push_cancellable(at, 0, "old");
        assert!(w.cancel(old));
        let new = w.push_cancellable(at, 1, "new");
        assert_eq!(new.index, old.index, "the freed node is reused");
        assert!(!w.cancel(old), "the stale generation cancels nothing");
        assert_eq!(w.deadline(new), Some(at));
        assert_eq!(w.pop(), Some((at, "new")));
        assert!(!w.cancel(new), "a fired entry cancels nothing");
        // The same holds for an entry cancelled while already due.
        let due = w.push_cancellable(at, 2, "due");
        assert_eq!(w.peek_at(), Some(at));
        assert!(w.cancel(due));
        assert!(!w.cancel(due));
        assert_eq!(w.len(), 0);
        assert_eq!(w.pop(), None);
        let after = w.push_cancellable(at, 3, "after");
        assert!(!w.cancel(due));
        assert_eq!(w.pop(), Some((at, "after")));
        assert!(!w.cancel(after));
    }

    #[test]
    fn a_cancelled_entry_drops_its_payload_at_once() {
        let payload = std::rc::Rc::new(());
        let mut w = TimerWheel::new();
        let at = Instant::from_nanos(1 << 30);
        let out = w.push_cancellable(at, 0, std::rc::Rc::clone(&payload));
        let due = w.push_cancellable(at, 1, std::rc::Rc::clone(&payload));
        assert!(w.cancel(out), "out on the wheel");
        assert_eq!(w.peek_at(), Some(at));
        assert!(w.cancel(due), "already due");
        assert_eq!(std::rc::Rc::strong_count(&payload), 1);
        assert_eq!(w.pop(), None);
        assert_eq!(w.nodes.len(), 2, "both nodes are free for reuse");
    }

    #[test]
    fn tick_boundary_wraparound() {
        // Entries straddling every level's wrap boundary: one just below
        // and one just above each power-of-two tick boundary, plus the
        // slot-wrap lap where the level-0 window turns over.
        let mut w = TimerWheel::new();
        let mut model = Model::default();
        let mut seq = 0;
        for level in 0..LEVELS as u32 {
            let bits = TICK_SHIFT + level * SLOT_BITS + SLOT_BITS - 1;
            if bits > 62 {
                break; // beyond the u64 nanosecond range
            }
            let boundary = 1u64 << bits;
            for at in [boundary - 1, boundary, boundary + 1] {
                let at = Instant::from_nanos(at);
                w.push(at, seq, seq);
                model.push(at, seq, seq);
                seq += 1;
            }
        }
        // A full level-0 lap: 2 × SLOTS consecutive ticks.
        for i in 0..(2 * SLOTS as u64) {
            let at = Instant::from_nanos(i << TICK_SHIFT | 7);
            w.push(at, seq, seq);
            model.push(at, seq, seq);
            seq += 1;
        }
        loop {
            let got = w.pop();
            assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_cascade_longer_than_a_chunk_keeps_the_order() {
        // 3 × CASCADE_CHUNK + 5 entries in one level-1 bucket, spread over
        // its 64 ticks and pushed out of order, some sharing a deadline.
        let mut w = TimerWheel::new();
        let mut model = Model::default();
        let n = 3 * CASCADE_CHUNK as u64 + 5;
        for seq in 0..n {
            let tick = 64 + (seq * 37) % 64;
            let at = Instant::from_nanos(tick << TICK_SHIFT | (seq % 3));
            w.push(at, seq, seq);
            model.push(at, seq, seq);
        }
        assert_eq!(w.levels[1].occupied, 1 << 1, "one level-1 bucket");
        loop {
            let got = w.pop();
            assert_eq!(got, model.pop());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn extreme_deadlines_fire_in_order() {
        // Deadlines near the top of the 64-bit nanosecond range land in
        // the highest levels and must still come out in order.
        let mut w = TimerWheel::new();
        let near = Instant::from_nanos(1 << 20);
        let huge = Instant::from_nanos(u64::MAX >> 2);
        let far = Instant::from_nanos(1 << 60);
        w.push(huge, 0, "huge");
        w.push(near, 1, "near");
        w.push(far, 2, "far");
        assert_eq!(w.pop(), Some((near, "near")));
        assert_eq!(w.pop(), Some((far, "far")));
        assert_eq!(w.pop(), Some((huge, "huge")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn peek_matches_pop_and_rearms_during_drain() {
        let mut w = TimerWheel::new();
        w.push(Instant::ZERO + Duration::from_millis(5), 0, 0u64);
        assert_eq!(w.peek_at(), Some(Instant::ZERO + Duration::from_millis(5)));
        let (at, _) = w.pop().unwrap();
        // Rearm relative to the popped deadline (the kernel's pattern).
        w.push(at + Duration::from_millis(1), 1, 1u64);
        w.push(at + Duration::from_nanos(1), 2, 2u64);
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.pop().unwrap().1, 1);
    }

    #[test]
    fn a_drained_bucket_keeps_a_bounded_buffer() {
        let mut w = TimerWheel::new();
        let at = |i: u64| Instant::from_nanos((5 << TICK_SHIFT) + i);
        for i in 0..8 {
            w.push(at(i), i, i);
        }
        while w.pop().is_some() {}
        assert_eq!(w.levels[0].slots[5].capacity(), 8, "a small buffer stays");
        let burst = KEPT_BUCKET_INDICES as u64 + 1;
        let late = |i: u64| Instant::from_nanos((70 << TICK_SHIFT) + i);
        for i in 0..burst {
            w.push(late(i), 8 + i, i);
        }
        while w.pop().is_some() {}
        assert_eq!(w.levels[0].slots[6].capacity(), 0, "a burst's is freed");
    }

    #[test]
    fn cancellable_and_plain_entries_share_one_order() {
        // A cancel swap-removes inside a bucket that also holds entries
        // without an id; the moved entry keeps its place in the order.
        let mut w = TimerWheel::new();
        let at = |ms: u64| Instant::ZERO + Duration::from_millis(ms);
        let a = w.push_cancellable(at(40), 0, "a");
        w.push(at(41), 1, "plain");
        let b = w.push_cancellable(at(42), 2, "b");
        w.push(at(43), 3, "plain too");
        assert!(w.cancel(a));
        assert_eq!(w.deadline(b), Some(at(42)));
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some((at(41), "plain")));
        assert!(w.cancel(b));
        assert_eq!(w.pop(), Some((at(43), "plain too")));
        assert_eq!(w.pop(), None);
    }
}
