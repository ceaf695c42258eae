//! A droop map's memory does not grow with the length of its run. The map
//! folds each tile's minimum while the transient steps and records no
//! waveform, so a run twice as long, at the same step cap, allocates as
//! often and holds as much at its peak.
//!
//! A counting global allocator tracks allocation calls and live bytes. The
//! file holds one test function, so no sibling test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use sfet_pdn::PdnGrid;
use sfet_sim::SimOptions;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; the bookkeeping only updates
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The allocation calls `f` makes, and the most bytes live at once while
/// it runs, above those live when it starts.
fn measure<T>(f: impl FnOnce() -> T) -> (u64, usize, T) {
    let calls = ALLOCATIONS.load(Ordering::SeqCst);
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    let calls = ALLOCATIONS.load(Ordering::SeqCst) - calls;
    (calls, PEAK.load(Ordering::SeqCst) - base, out)
}

#[test]
fn droop_map_memory_does_not_grow_with_run_length() {
    let grid = PdnGrid::chip(6, 6);
    let t = grid.t_stop;
    let twice = PdnGrid {
        t_stop: 2.0 * t,
        ..grid.clone()
    };
    // One step cap, `t / 400`, for both runs.
    let opts = SimOptions::for_duration(t, 400);
    // A first map takes whatever the process sets up only once.
    grid.droop_map_with(&opts).unwrap();

    let (calls, peak, map) = measure(|| grid.droop_map_with(&opts).unwrap());
    let (calls2, peak2, map2) = measure(|| twice.droop_map_with(&opts).unwrap());
    let (steps, steps2) = (map.stats.steps_accepted, map2.stats.steps_accepted);
    assert!(
        10 * steps2 > 18 * steps,
        "the longer run takes about twice the steps: {steps} and {steps2}"
    );
    assert_eq!(calls, calls2, "allocations over {steps} and {steps2} steps");
    assert_eq!(
        peak, peak2,
        "peak live bytes over {steps} and {steps2} steps"
    );
}
