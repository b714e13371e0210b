//! Per-link heap footprint of the mesh.
//!
//! A 71-chip fabric builds 5,041 coherence pipelines, each its own CABLE
//! link, so bytes per link bound the size of mesh that fits in memory. A
//! counting global allocator tallies the calling thread's heap traffic
//! and checks two budgets at the mesh geometry (16 KiB 8-way home slice,
//! 8 KiB 4-way remote slice):
//!
//! - a link built next to a live one allocates at most 37 KiB and builds
//!   no H3 table set (links with one signature seed share it);
//! - an 8-chip `FabricSim::with_config` holds at most 39 KiB of heap per
//!   pipeline, everything else on the chips included.
//!
//! Both sit about 2% above the measured 36,984 B per link and 39,217 B
//! per pipeline.
//!
//! A new per-link allocation (a table sized to the cache, a buffer
//! grown up front) shows here before it shows in a mesh's peak RSS.

use cable_cache::CacheGeometry;
use cable_compress::EngineKind;
use cable_sim::{CompressedLink, FabricSim, Scheme, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], tallying the calling thread's allocated bytes
/// and its live (allocated minus freed) bytes.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(allocated: usize, freed: usize) {
    // `try_with` so an allocation during thread teardown (after the slots
    // are gone) is simply not counted instead of panicking in the allocator.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + allocated as u64));
    let _ = LIVE.try_with(|n| n.set(n.get() + allocated as i64 - freed as i64));
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`. The only
// addition is updating const-initialised thread-local `Cell`s, which
// neither allocates (no recursion into the allocator) nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), 0);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size, layout.size());
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, layout.size());
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The heap budget of one mesh link.
const LINK_BUDGET_BYTES: u64 = 37 << 10;

/// The heap budget per pipeline of a whole fabric.
const PIPELINE_BUDGET_BYTES: u64 = 39 << 10;

/// Per-chip geometry of the 10k-endpoint mesh: caches scaled far below
/// Table IV so that 71 x 71 pipelines fit in memory.
fn mesh_config() -> SystemConfig {
    SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 8 << 10,
        l2_ways: 4,
        llc_bytes: 8 << 10,
        llc_ways: 4,
        l4_bytes: 16 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    }
}

fn mesh_link(config: &SystemConfig) -> CompressedLink {
    CompressedLink::build(
        Scheme::Cable(EngineKind::Lbe),
        CacheGeometry::new(config.l4_bytes, config.l4_ways),
        CacheGeometry::new(config.llc_bytes, config.llc_ways),
        config.link_width_bits,
    )
}

#[test]
fn a_mesh_link_fits_its_budget_and_shares_h3() {
    let config = mesh_config();
    let first = mesh_link(&config);
    let tables = cable_core::h3::tables_built();
    let before = allocated();
    let second = mesh_link(&config);
    let bytes = allocated() - before;
    assert_eq!(
        cable_core::h3::tables_built(),
        tables,
        "a link built next to a live one with the same seed built its own H3 tables"
    );
    assert!(
        bytes <= LINK_BUDGET_BYTES,
        "a mesh link allocated {bytes} B, over the {LINK_BUDGET_BYTES} B budget"
    );
    drop((first, second));
}

#[test]
fn an_eight_chip_mesh_holds_at_most_the_budget_per_pipeline() {
    const CHIPS: usize = 8;
    let profile = cable_trace::by_name("mcf").expect("mcf is a built-in profile");
    let before = live();
    let sim = FabricSim::with_config(
        profile,
        Scheme::Cable(EngineKind::Lbe),
        CHIPS,
        19.2e9,
        &mesh_config(),
    );
    let held = (live() - before) as u64;
    let pipelines = (CHIPS * CHIPS) as u64;
    assert!(
        held <= pipelines * PIPELINE_BUDGET_BYTES,
        "{CHIPS}-chip fabric holds {held} B ({} B per pipeline), over the {PIPELINE_BUDGET_BYTES} B budget",
        held / pipelines
    );
    drop(sim);
}
