//! Proof that the steady-state simulation loop does not touch the heap.
//!
//! The dense line-state overhaul (interned `LineId`s, slab-pooled
//! directory state, recycled message payloads, scratch-buffer drain
//! loops) exists so that a warmed-up simulation allocates nothing per
//! cycle. This test pins that property with a counting global allocator:
//! after a warm-up phase that lets every pool, slab, map, and scratch
//! buffer reach its plateau, a 10 000-cycle measurement window must
//! perform **zero** heap allocations.
//!
//! The same allocator also counts requested bytes, which pins what
//! building a machine costs: the shared L3 gets a set's storage on the
//! set's first fill, so a full-size machine must not request memory in
//! proportion to its 64 MiB L3.
//!
//! The file is its own test binary (one `#[test]`) because the counting
//! allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use tus::System;
use tus_cpu::trace::FnTrace;
use tus_cpu::{TraceInst, TraceSource};
use tus_sim::{Addr, PolicyKind, SimConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by allocations and by the new sizes of reallocations.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bytes_requested() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// An endless store-heavy workload cycling over a bounded line set, so
/// every per-line structure (interner, directory slab, cache sets, WCB
/// groups) reaches a plateau while stores keep flowing through the full
/// TUS path: SB → WCB → unauthorized L1D write → WOQ → visibility flip,
/// with evictions and DRAM traffic (the footprint exceeds the scaled
/// caches).
fn cyclic_store_trace() -> impl TraceSource {
    const LINES: u64 = 256;
    let mut n: u64 = 0;
    FnTrace(move || {
        n += 1;
        let i = n / 4;
        Some(match n % 4 {
            0 => {
                let line = (i * 7) % LINES; // stride walks the whole set
                let offset = (i % 8) * 8;
                TraceInst::store(Addr::new(line * 64 + offset), 8, n)
            }
            _ => TraceInst::alu(),
        })
    })
}

const WARMUP_CYCLES: u64 = 50_000;
const WINDOW_CYCLES: u64 = 10_000;

/// Regression ceiling on total allocations for construction plus
/// warm-up. Construction dominates (~67k: cache line boxes, queues,
/// pools growing to their plateaus); the warmed loop contributes ~0 per
/// 10k cycles. A reintroduced per-store or per-cycle allocation adds
/// 50k+ over the warm-up and trips this bound.
const TOTAL_ALLOC_BUDGET: u64 = 100_000;

/// Ceiling on the bytes `System::new` requests for a full-size
/// single-core machine. It requests about 2 MiB, mostly the private L2;
/// the 64 MiB L3 adds only a `u32` per set until sets are filled. An L3
/// that is allocated up front requests over 80 MiB.
const FULL_SIZE_BUILD_BYTES: u64 = 8 << 20;

#[test]
fn steady_state_tus_run_allocates_nothing() {
    // ---- construction cost: no storage in proportion to the L3 ----
    let full = SimConfig::builder().policy(PolicyKind::Tus).build();
    let before = bytes_requested();
    let sys = System::new(&full, vec![Box::new(cyclic_store_trace())], 42);
    let built = bytes_requested() - before;
    drop(sys);
    assert!(
        built < FULL_SIZE_BUILD_BYTES,
        "building a full-size single-core machine requested {:.1} MiB \
         (ceiling {} MiB): some structure is allocated in proportion to \
         cache capacity instead of on first use",
        built as f64 / (1 << 20) as f64,
        FULL_SIZE_BUILD_BYTES >> 20
    );

    let cfg = SimConfig::builder()
        .policy(PolicyKind::Tus)
        .sb_entries(56)
        .scale_caches_down(16)
        .build();
    let before_build = allocations();
    let mut sys = System::new(&cfg, vec![Box::new(cyclic_store_trace())], 42);
    for _ in 0..WARMUP_CYCLES {
        sys.tick();
    }
    let after_warmup = allocations();
    let warmup_allocs = after_warmup - before_build;
    assert!(
        warmup_allocs < TOTAL_ALLOC_BUDGET,
        "construction + {WARMUP_CYCLES}-cycle warm-up made {warmup_allocs} \
         allocations (budget {TOTAL_ALLOC_BUDGET}): a per-cycle or per-store \
         allocation crept back into the hot path"
    );
    // ---- the actual claim: a warmed-up run never touches the heap ----
    let start = allocations();
    for _ in 0..WINDOW_CYCLES {
        sys.tick();
    }
    let in_window = allocations() - start;
    assert_eq!(
        in_window, 0,
        "steady-state window of {WINDOW_CYCLES} cycles performed {in_window} \
         heap allocations; the hot path must draw from pools and scratch \
         buffers only"
    );
    // The machine must actually have been doing store work the whole
    // time, or the zero-allocation claim is vacuous.
    let stats = sys.export_stats();
    assert!(
        stats.get("core0.policy.visibility_flips") > 100.0,
        "workload failed to exercise the TUS store path: {stats}"
    );
}
