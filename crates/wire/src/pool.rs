//! Pooled packet buffers: a slab arena with free-list recycling.
//!
//! Every packet the scanner or a simulated host emits used to be a fresh
//! `Vec<u8>`, and every link-level duplicate a deep clone — between two
//! and three heap allocations per packet on the hot path. The pool turns
//! that into zero once warm: a buffer is a fixed-capacity slab *inside
//! its reference-count shell* (`Rc<Slab>`), drawn from a free list,
//! writable while uniquely owned ([`PacketBuf`]), then frozen into a
//! cheaply clonable, immutable [`Packet`] for routing (a clone is a
//! reference-count bump, which is what link fan-out and duplication
//! want). Freezing is a move, not an allocation: the shell travels with
//! the slab. When the last reference drops, shell and slab return to the
//! free list of the pool they came from; if that pool is already gone
//! they are simply freed.
//!
//! Slabs come in three classes, each with its own free list:
//! [`TINY_SLAB_CAPACITY`] bytes for the SYNs, ACKs, RSTs and 64-byte
//! data segments that make up nearly every datagram of a scan,
//! [`SMALL_SLAB_CAPACITY`] bytes for requests, ClientHellos and 128-byte
//! segments, and [`SLAB_CAPACITY`] bytes for the few that are larger. A checkout
//! names the length it is about to write ([`BufferPool::take_for`]) and
//! gets the smallest class that holds it; a dropped slab goes back to
//! the list of the class it holds without growing. So a warm pool still
//! neither allocates nor reallocates, and the packets in flight at a
//! scan's peak cost what they carry rather than 2 KB each.
//!
//! The pool is deliberately single-threaded (`Rc`/`RefCell`): a
//! simulation shard — scanner, hosts, links, queue — lives entirely on
//! one thread, and sharded scans give each shard its own pool. Nothing
//! here reads a clock, and there is no `unsafe`; clippy's
//! `disallowed_methods` and rustc's `unsafe_code` enforce both.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};

/// The tiny class: datagrams up to 128 bytes, which is nearly all of a
/// scan (44-byte SYNs, ACKs and RSTs, 104-byte data segments at the
/// probed MSS of 64).
pub const TINY_SLAB_CAPACITY: usize = 128;

/// The small class: datagrams up to 256 bytes (the GET, the 217-byte TLS
/// ClientHello, data segments at MSS 128), and what an unsized
/// [`BufferPool::take`] hands out.
pub const SMALL_SLAB_CAPACITY: usize = 256;

/// The large class: one MTU-sized packet plus headroom, for the few
/// larger datagrams (the 1 562-byte bloat-URI GET, segments at a larger
/// MSS, the MTU prober's echoes), so no scan packet ever forces a
/// mid-build reallocation.
pub const SLAB_CAPACITY: usize = 2048;

/// Slab capacity per class, smallest first; a class is an index here
/// and into [`PoolInner::free`].
const CLASSES: [usize; 3] = [TINY_SLAB_CAPACITY, SMALL_SLAB_CAPACITY, SLAB_CAPACITY];

/// The class a checkout for a `len`-byte datagram draws from: the
/// smallest that holds it (the large one for anything longer).
fn class_for(len: usize) -> usize {
    CLASSES
        .iter()
        .position(|&capacity| len <= capacity)
        .unwrap_or(CLASSES.len() - 1)
}

/// The class a slab of `capacity` bytes goes home to: the largest whose
/// checkouts it holds without growing. A slab written past its class
/// (an unsized [`BufferPool::take`]) joins a larger list once it has
/// grown that far, and is never handed out to a length it lacks.
fn home_class(capacity: usize) -> usize {
    CLASSES
        .iter()
        .rposition(|&class| capacity >= class)
        .unwrap_or(0)
}

/// Allocation counters for one pool (monotonic except `outstanding`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Slabs created fresh from the allocator (free-list misses).
    pub allocated: u64,
    /// Buffers served from the free list (free-list hits).
    pub recycled: u64,
    /// Buffers currently checked out (building or in flight).
    pub outstanding: u64,
    /// Highest `outstanding` ever observed.
    pub high_water: u64,
}

/// One buffer and the way home: `inner` is the owning pool's
/// [`BufferPool::inner`] (dangling for an unpooled buffer), held weakly
/// so that parked slabs do not keep their own pool alive and a pool may
/// die before its packets.
#[derive(Debug)]
struct Slab {
    data: Vec<u8>,
    inner: Weak<RefCell<PoolInner>>,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Parked buffers per class, each the sole owner of its slab.
    free: [Vec<Rc<Slab>>; CLASSES.len()],
    stats: PoolStats,
}

/// A free-list arena of packet buffers. Cloning is cheap and yields a
/// handle to the same pool.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BufferPool {
    /// A new, empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Check out a writable, empty small-class buffer, for a writer that
    /// does not name its length; it grows if written past
    /// [`SMALL_SLAB_CAPACITY`].
    pub fn take(&self) -> PacketBuf {
        self.take_for(SMALL_SLAB_CAPACITY)
    }

    /// Check out a writable, empty buffer of the smallest class that
    /// holds `len` bytes (recycled when possible). The datagram builders
    /// (`tcp::Segment::datagram`, `SynTemplate::datagram`,
    /// `icmp::Message::datagram`) call this with their length.
    pub(crate) fn take_for(&self, len: usize) -> PacketBuf {
        let class = class_for(len);
        // single-threaded borrow, released before return
        let mut inner = self.inner.borrow_mut();
        let mut shared = match inner.free[class].pop() {
            Some(shared) => {
                inner.stats.recycled += 1;
                shared
            }
            None => {
                inner.stats.allocated += 1;
                // the only allocations a pooled packet ever costs (slab and
                // shell, once); a warm pool recycles and never reaches this arm
                Rc::new(Slab {
                    data: Vec::with_capacity(CLASSES[class]),
                    inner: Rc::downgrade(&self.inner),
                })
            }
        };
        inner.stats.outstanding += 1;
        inner.stats.high_water = inner.stats.high_water.max(inner.stats.outstanding);
        drop(inner);
        unique(&mut shared).clear();
        PacketBuf {
            packet: Packet { shared },
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }
}

/// The bytes of a slab nothing else references: fresh, just popped off
/// the free list, or still being built.
#[expect(
    clippy::expect_used,
    reason = "the free list and `PacketBuf` each hold the only handle"
)]
fn unique(shared: &mut Rc<Slab>) -> &mut Vec<u8> {
    &mut Rc::get_mut(shared).expect("slab has one owner").data
}

/// A writable packet buffer checked out of a [`BufferPool`] (or
/// standalone, for callers without a pool). Derefs to `Vec<u8>` so the
/// usual emit paths work unchanged; freeze it into a [`Packet`] to send.
#[derive(Debug)]
pub struct PacketBuf {
    /// Not yet shared: this is the only handle until [`Self::freeze`].
    packet: Packet,
}

impl PacketBuf {
    /// A pool-less buffer (dropped, not recycled).
    pub fn from_vec(data: Vec<u8>) -> PacketBuf {
        let inner = Weak::new();
        PacketBuf {
            packet: Packet {
                shared: Rc::new(Slab { data, inner }),
            },
        }
    }

    /// Grow to `len` bytes, zero-filling — the emit-into idiom.
    pub fn resize_zeroed(&mut self, len: usize) {
        self.resize(len, 0);
    }

    /// Freeze into an immutable, cheaply clonable packet. Allocates
    /// nothing: the buffer already lives inside its shared shell.
    pub fn freeze(self) -> Packet {
        self.packet
    }
}

impl Deref for PacketBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.packet.shared.data
    }
}

impl DerefMut for PacketBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        unique(&mut self.packet.shared)
    }
}

/// An immutable packet on the (virtual) wire. `Clone` bumps a reference
/// count — link duplication and fan-out share one buffer — and the slab
/// returns to its pool when the last reference drops.
#[derive(Debug, Clone)]
pub struct Packet {
    shared: Rc<Slab>,
}

impl Packet {
    /// Wrap an unpooled byte vector (compatibility path for tests and
    /// cold paths; the buffer is freed, not recycled).
    pub fn from_vec(data: Vec<u8>) -> Packet {
        PacketBuf::from_vec(data).freeze()
    }

    /// The packet bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.shared.data
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        // Only the last handle sends the slab home, and only if home still
        // exists. The free list takes a second handle here; ours is
        // released right after this body, leaving the parked one unique.
        if Rc::strong_count(&self.shared) == 1 {
            if let Some(inner) = self.shared.inner.upgrade() {
                let mut pool = inner.borrow_mut();
                pool.stats.outstanding -= 1;
                let class = home_class(self.shared.data.capacity());
                pool.free[class].push(Rc::clone(&self.shared));
            }
        }
    }
}

impl Deref for Packet {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.shared.data
    }
}

impl From<Vec<u8>> for Packet {
    fn from(data: Vec<u8>) -> Packet {
        Packet::from_vec(data)
    }
}

impl AsRef<[u8]> for Packet {
    fn as_ref(&self) -> &[u8] {
        &self.shared.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_through_the_free_list() {
        let pool = BufferPool::new();
        let a = pool.take();
        assert_eq!(
            pool.stats(),
            PoolStats {
                allocated: 1,
                recycled: 0,
                outstanding: 1,
                high_water: 1
            }
        );
        drop(a);
        assert_eq!(pool.stats().outstanding, 0);
        let b = pool.take();
        assert_eq!(pool.stats().recycled, 1, "free-list hit");
        assert_eq!(pool.stats().allocated, 1, "no second slab");
        assert_eq!(
            b.capacity(),
            SMALL_SLAB_CAPACITY,
            "an unsized take is small"
        );
    }

    #[test]
    fn a_checkout_gets_the_smallest_class_that_holds_it() {
        let pool = BufferPool::new();
        for (len, capacity) in [
            (0, TINY_SLAB_CAPACITY),
            (40, TINY_SLAB_CAPACITY),
            (104, TINY_SLAB_CAPACITY),
            (128, TINY_SLAB_CAPACITY),
            (129, SMALL_SLAB_CAPACITY),
            (217, SMALL_SLAB_CAPACITY),
            (256, SMALL_SLAB_CAPACITY),
            (257, SLAB_CAPACITY),
            (1_562, SLAB_CAPACITY),
            (2_048, SLAB_CAPACITY),
        ] {
            let mut buf = pool.take_for(len);
            assert_eq!(buf.capacity(), capacity, "{len} bytes");
            buf.resize_zeroed(len);
            assert_eq!(buf.capacity(), capacity, "{len} bytes fit without growing");
        }
    }

    #[test]
    fn a_dropped_slab_serves_only_its_own_class() {
        let pool = BufferPool::new();
        drop(pool.take_for(40));
        let small = pool.take_for(217);
        let large = pool.take_for(1_562);
        assert_eq!(
            pool.stats().allocated,
            3,
            "a parked tiny slab is no small or large one"
        );
        drop((small, large));
        let parked = |class: usize| pool.inner.borrow().free[class].len();
        assert_eq!((parked(0), parked(1), parked(2)), (1, 1, 1));
        let tiny = pool.take_for(100);
        assert_eq!(tiny.capacity(), TINY_SLAB_CAPACITY);
        let small = pool.take();
        assert_eq!(
            small.capacity(),
            SMALL_SLAB_CAPACITY,
            "an unsized take is small"
        );
        let large = pool.take_for(300);
        assert_eq!(large.capacity(), SLAB_CAPACITY);
        assert_eq!(pool.stats().allocated, 3);
        assert_eq!(pool.stats().recycled, 3);
    }

    #[test]
    fn a_warm_pool_of_mixed_lengths_allocates_no_slab() {
        let pool = BufferPool::new();
        let lengths = [40, 1_562, 60, 217, 300, 104, 2_048, 0];
        let cycle = || {
            let held: Vec<Packet> = lengths
                .iter()
                .map(|&len| {
                    let mut buf = pool.take_for(len);
                    buf.resize_zeroed(len);
                    buf.freeze()
                })
                .collect();
            for (pkt, &len) in held.iter().zip(&lengths) {
                assert_eq!(pkt.shared.data.capacity(), CLASSES[class_for(len)]);
            }
        };
        cycle();
        let warm = pool.stats().allocated;
        assert_eq!(warm, lengths.len() as u64);
        for _ in 0..1_000 {
            cycle();
        }
        let s = pool.stats();
        assert_eq!(s.allocated, warm, "a warm pool allocates no slab");
        assert_eq!(s.outstanding, 0);
    }

    #[test]
    fn a_small_slab_grown_past_its_class_moves_up() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.resize_zeroed(SLAB_CAPACITY);
        let mut tiny = pool.take_for(40);
        tiny.resize_zeroed(200);
        drop((buf, tiny));
        let parked = |class: usize| pool.inner.borrow().free[class].len();
        assert_eq!((parked(0), parked(1), parked(2)), (0, 1, 1));
        assert!(pool.take_for(1_562).capacity() >= SLAB_CAPACITY);
        assert!(pool.take_for(217).capacity() >= SMALL_SLAB_CAPACITY);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn freeze_shares_and_returns_on_last_drop() {
        let pool = BufferPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(b"hello");
        let p = buf.freeze();
        let q = p.clone();
        assert_eq!(&*p, b"hello");
        assert_eq!(&*q, b"hello");
        assert_eq!(pool.stats().outstanding, 1, "clones share one slab");
        drop(p);
        assert_eq!(pool.stats().outstanding, 1, "still referenced");
        drop(q);
        assert_eq!(pool.stats().outstanding, 0, "slab returned");
        let again = pool.take();
        assert!(again.is_empty(), "recycled slab comes back cleared");
    }

    #[test]
    fn high_water_tracks_peak() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        let s = pool.stats();
        assert_eq!(s.high_water, 5);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.allocated, 5);
    }

    #[test]
    fn unpooled_buffers_work_without_a_pool() {
        let p = Packet::from_vec(vec![1, 2, 3]);
        assert_eq!(p.bytes(), &[1, 2, 3]);
        let mut buf = PacketBuf::from_vec(Vec::new());
        buf.resize_zeroed(4);
        assert_eq!(&*buf.freeze(), &[0, 0, 0, 0]);
    }

    #[test]
    fn freeze_and_clone_cost_no_slab_once_warm() {
        let pool = BufferPool::new();
        for i in 0..100_000u32 {
            let mut buf = pool.take();
            buf.extend_from_slice(&i.to_be_bytes());
            let p = buf.freeze();
            let q = p.clone();
            assert_eq!(&*q, &i.to_be_bytes());
            drop(p);
            drop(q);
        }
        let s = pool.stats();
        assert_eq!(s.allocated, 1, "one slab serves every cycle");
        assert_eq!(s.recycled, 99_999);
        assert_eq!((s.outstanding, s.high_water), (0, 1));
    }

    #[test]
    fn only_the_last_clone_parks_the_slab() {
        let pool = BufferPool::new();
        let p = pool.take().freeze();
        let q = p.clone();
        drop(p);
        // Were the slab parked already, this checkout would recycle it
        // from under `q`.
        let other = pool.take();
        assert_eq!(pool.stats().allocated, 2, "first drop parked nothing");
        drop(q);
        assert_eq!(pool.stats().outstanding, 1, "last drop did");
        drop(other);
        assert_eq!(pool.inner.borrow().free[1].len(), 2);
    }

    #[test]
    fn pool_dropped_before_its_packets_frees_them() {
        let pool = BufferPool::new();
        let in_flight: Vec<(Packet, Packet)> = [40, 217, 1_562]
            .into_iter()
            .map(|len| {
                let mut buf = pool.take_for(len);
                buf.extend_from_slice(b"orphan");
                let p = buf.freeze();
                (p.clone(), p)
            })
            .collect();
        // One parked slab per class; nothing checks them out again (a
        // checkout needs the slab's only handle, weak ones included).
        let parked = [pool.take_for(40), pool.take_for(217), pool.take_for(1_562)];
        let parked_slabs = parked
            .each_ref()
            .map(|buf| Rc::downgrade(&buf.packet.shared));
        drop(parked);
        let pool_state = Rc::downgrade(&pool.inner);
        drop(pool);
        assert!(
            pool_state.upgrade().is_none(),
            "neither parked nor in-flight slabs keep the pool alive"
        );
        assert!(
            parked_slabs.iter().all(|slab| slab.upgrade().is_none()),
            "every class's parked slabs are freed with the pool"
        );
        for (p, q) in in_flight {
            assert_eq!(&*q, b"orphan", "bytes outlive the pool");
            let slab = Rc::downgrade(&q.shared);
            drop(p);
            drop(q);
            assert!(slab.upgrade().is_none(), "homeless slab is freed");
        }
    }

    #[test]
    fn resize_zeroed_clears_recycled_contents() {
        let pool = BufferPool::new();
        let mut a = pool.take();
        a.extend_from_slice(&[0xff; 64]);
        drop(a);
        let mut b = pool.take();
        b.resize_zeroed(32);
        assert!(b.iter().all(|&x| x == 0), "no stale bytes leak through");
    }
}
