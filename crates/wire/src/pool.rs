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
//! The pool is deliberately single-threaded (`Rc`/`RefCell`): a
//! simulation shard — scanner, hosts, links, queue — lives entirely on
//! one thread, and sharded scans give each shard its own pool. Nothing
//! here reads a clock, and there is no `unsafe`; both properties are
//! enforced by `iw-lint`.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};

/// Default slab capacity: one MTU-sized packet plus headroom, so no scan
/// packet ever forces a mid-build reallocation.
pub const SLAB_CAPACITY: usize = 2048;

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
    /// Parked buffers, each the sole owner of its slab.
    free: Vec<Rc<Slab>>,
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

    /// Check out a writable, empty buffer (recycled when possible).
    pub fn take(&self) -> PacketBuf {
        // single-threaded borrow, released before return
        let mut inner = self.inner.borrow_mut();
        let mut shared = match inner.free.pop() {
            Some(shared) => {
                inner.stats.recycled += 1;
                shared
            }
            None => {
                inner.stats.allocated += 1;
                // the only allocations a pooled packet ever costs (slab and
                // shell, once); a warm pool recycles and never reaches this arm
                Rc::new(Slab {
                    data: Vec::with_capacity(SLAB_CAPACITY),
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
fn unique(shared: &mut Rc<Slab>) -> &mut Vec<u8> {
    // iw-lint: allow(panic-budget): the free list and `PacketBuf` each hold the only handle
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
                pool.free.push(Rc::clone(&self.shared));
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
        assert_eq!(b.capacity(), SLAB_CAPACITY);
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
        assert_eq!(pool.inner.borrow().free.len(), 2);
    }

    #[test]
    fn pool_dropped_before_its_packets_frees_them() {
        let pool = BufferPool::new();
        let parked = pool.take();
        let mut buf = pool.take();
        drop(parked);
        buf.extend_from_slice(b"orphan");
        let p = buf.freeze();
        let q = p.clone();
        let pool_state = Rc::downgrade(&pool.inner);
        drop(pool);
        assert!(
            pool_state.upgrade().is_none(),
            "neither parked nor in-flight slabs keep the pool alive"
        );
        assert_eq!(&*q, b"orphan", "bytes outlive the pool");
        let slab = Rc::downgrade(&q.shared);
        drop(p);
        drop(q);
        assert!(slab.upgrade().is_none(), "homeless slab is freed");
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
