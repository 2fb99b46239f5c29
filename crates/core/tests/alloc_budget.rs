//! The allocation budget of the transmit path, counted at the allocator.
//!
//! `wire.pool_allocs_per_packet` counts slab misses, which is how the
//! pool could call itself "amortized zero" while `freeze` made one
//! `Rc::new` per packet. This target counts what the allocator is
//! actually asked for: a silent address must cost one templated,
//! pooled SYN per transmission and no heap traffic at all.

use iw_core::{Protocol, ResilienceConfig, ScanConfig, ScanRunner, Scanner};
use iw_internet::{Population, PopulationConfig};
use iw_netsim::{Sim, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocator calls made by this thread (each test runs on its own).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread call count. `realloc` and
/// `alloc_zeroed` keep their default bodies, which go through `alloc`.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing to count.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn silent_sweep_allocates_nothing_per_syn() {
    // 2^16 addresses, none of them routed, stateless-first + hardened at
    // the study's 150 kpps: three SYNs per target through the template,
    // the pool, the retry FIFOs and the kernel's fan-out.
    let space = 1u32 << 16;
    let mut cfg = ScanConfig::study(Protocol::Http, space, 0x51e7);
    cfg.stateless_first = true;
    cfg.resilience = ResilienceConfig::hardened();
    let sim_config = SimConfig {
        seed: cfg.seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(Scanner::new(cfg), |_ip: u32| None, sim_config);
    sim.kick_scanner(|s, now, fx| s.start(now, fx));
    // The first tick that sends warms the pool (one slab per SYN of the
    // batch) and sizes the kernel's scratch; everything after is steady
    // state.
    while sim.stats().scanner_tx == 0 {
        assert!(sim.step(), "the scan must send before it ends");
    }
    let warm = sim.stats().scanner_tx;

    let before = allocs();
    sim.run_to_completion();
    let spent = allocs() - before;

    let syns = sim.stats().scanner_tx - warm;
    assert_eq!(sim.stats().scanner_tx, 3 * u64::from(space));
    assert_eq!(sim.stats().pool_outstanding, 0);
    println!("alloc_budget: silent sweep: {spent} allocations for {syns} SYNs after warm-up");
    // What is left follows the ~260 events, not the SYNs: a timer filed
    // into a wheel bucket the cursor has emptied allocates that bucket
    // again (one per event, ~300), and the retry FIFOs double up to a
    // backoff window (~20). One more allocation per event would not fit.
    assert!(
        spent <= 512,
        "{spent} allocations for {syns} SYNs: the transmit path allocates per packet again"
    );
}

#[test]
fn http_scan_allocation_count_is_recorded() {
    // The session side is the next per-packet target (ROADMAP item 4);
    // this prints its census so a change can quote it. Not gated yet.
    let pop = Arc::new(Population::new(PopulationConfig {
        seed: 0xabc,
        space_size: 1 << 14,
        target_responsive: 256,
        loss_scale: 0.0,
    }));
    let config = ScanConfig::study(Protocol::Http, pop.space_size(), 0xabc);
    let before = allocs();
    let out = ScanRunner::new(&pop).config(config).run();
    let spent = allocs() - before;
    let reachable = out.summary.reachable;
    assert!(reachable > 100, "reachable {reachable}");
    println!(
        "alloc_budget: http scan: {spent} allocations for {reachable} responders \
         ({} per responder, {} events)",
        spent / reachable,
        out.sim_stats.events
    );
}
