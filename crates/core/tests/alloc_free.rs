//! The steady-state link encode paths allocate nothing.
//!
//! A counting global allocator tallies heap allocations per thread. After
//! a warm-up, 10k dealII accesses through `request_batch` must not
//! allocate once, on two links:
//!
//! - `CableLink` (CABLE+LBE, reliable link, telemetry off,
//!   `verify_decompression` on): the link reuses its search scratch and
//!   its three codec writers (unseeded, DIFF, frame), the payload codec
//!   parses frames in place, and LBE builds its seeded window on the
//!   stack;
//! - an Uncompressed `BaselineLink`: a raw payload is read straight from
//!   the line's bytes for length and toggle accounting.
//!
//! The workload generator allocates, so the measured batches are built
//! before counting starts.
//!
//! One site still allocates during warm-up, by design: the search scratch
//! (`SearchScratch`) grows its candidate and bucket buffers on demand to
//! the high-water mark the workload reaches, rather than to their bounds
//! up front, because a 71-chip mesh builds about 5,000 links and most
//! never need the bound. On dealII a candidate-heavy line still grows one
//! of them once after 30k accesses, so the warm-up is 60k accesses, the
//! same as the `encode` benchmark's.
//!
//! Known allocators, not covered here: the compressing baselines. BDI,
//! CPACK, LZSS ("gzip") and streaming LBE implement `Compressor::compress`,
//! which returns an owned `Encoded`, so every `BaselineLink` fill under
//! them allocates its payload.

use cable_cache::CacheGeometry;
use cable_common::LineData;
use cable_core::{
    BaselineKind, BaselineLink, BatchAccess, CableConfig, CableLink, LinkStats, Transfer,
};
use cable_trace::WorkloadGen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting every allocation and reallocation made
/// by the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown (after the slot
    // is gone) is simply not counted instead of panicking in the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`. The only
// addition is bumping a const-initialised thread-local `Cell<u64>`, which
// neither allocates (no recursion into the allocator) nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BATCH: usize = 64;

fn batches(gen: &mut WorkloadGen, accesses: usize) -> Vec<Vec<BatchAccess>> {
    let mut out = Vec::new();
    let mut left = accesses;
    while left > 0 {
        let n = left.min(BATCH);
        let batch = (0..n)
            .map(|_| {
                let a = gen.next_access();
                let memory: LineData = gen.content(a.addr);
                if a.is_write {
                    BatchAccess::write(a.addr, memory, gen.store_data(a.addr))
                } else {
                    BatchAccess::read(a.addr, memory)
                }
            })
            .collect();
        out.push(batch);
        left -= n;
    }
    out
}

/// Feeds every batch to `request_batch`, reusing one transfer buffer.
fn drive(
    mut request_batch: impl FnMut(&[BatchAccess], &mut Vec<Transfer>),
    batches: &[Vec<BatchAccess>],
    xfers: &mut Vec<Transfer>,
) {
    for batch in batches {
        xfers.clear();
        request_batch(batch, xfers);
    }
}

#[test]
fn steady_state_request_batch_does_not_allocate() {
    let profile = cable_trace::by_name("dealII").expect("dealII is a built-in profile");
    let mut gen = WorkloadGen::new(profile, 0);
    let mut link = CableLink::new(CableConfig::memory_link_default());
    assert!(link.config().verify_decompression);
    assert!(!link.telemetry().is_enabled());
    let mut xfers = Vec::with_capacity(BATCH);

    let warm = batches(&mut gen, 60_000);
    drive(|b, x| link.request_batch(b, x), &warm, &mut xfers);
    let measured = batches(&mut gen, 10_000);
    let before: LinkStats = *link.stats();

    let start = allocations();
    drive(|b, x| link.request_batch(b, x), &measured, &mut xfers);
    let allocated = allocations() - start;

    let after = link.stats();
    // The window covers every encode outcome and both directions.
    assert!(after.fills > before.fills, "no fills measured");
    assert!(
        after.diff_transfers > before.diff_transfers,
        "no DIFF transfers measured"
    );
    assert!(
        after.unseeded_transfers > before.unseeded_transfers,
        "no unseeded transfers measured"
    );
    assert!(
        after.writebacks > before.writebacks,
        "no write-backs measured"
    );
    assert_eq!(
        allocated, 0,
        "steady-state request_batch allocated {allocated} times"
    );
}

#[test]
fn steady_state_uncompressed_baseline_does_not_allocate() {
    let profile = cable_trace::by_name("dealII").expect("dealII is a built-in profile");
    let mut gen = WorkloadGen::new(profile, 0);
    let mut link = BaselineLink::new(
        BaselineKind::Uncompressed,
        CacheGeometry::new(4 << 20, 16),
        CacheGeometry::new(1 << 20, 8),
        16,
    );
    assert!(!link.telemetry().is_enabled());
    let mut xfers = Vec::with_capacity(BATCH);

    let warm = batches(&mut gen, 20_000);
    drive(|b, x| link.request_batch(b, x), &warm, &mut xfers);
    let measured = batches(&mut gen, 10_000);
    let before: LinkStats = *link.stats();

    let start = allocations();
    drive(|b, x| link.request_batch(b, x), &measured, &mut xfers);
    let allocated = allocations() - start;

    let after = link.stats();
    // The window covers raw fills in both directions.
    assert!(after.fills > before.fills, "no fills measured");
    assert!(
        after.raw_transfers > before.raw_transfers,
        "no raw transfers measured"
    );
    assert!(
        after.writebacks > before.writebacks,
        "no write-backs measured"
    );
    assert_eq!(
        allocated, 0,
        "steady-state Uncompressed request_batch allocated {allocated} times"
    );
}
