//! A pass-through global allocator that counts allocations while the
//! traced run asks it to. Untraced runs pay one relaxed load per
//! allocation, never an atomic add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator; counts `alloc`, `alloc_zeroed` and
/// `realloc` calls while counting is on.
pub struct CountingAlloc;

fn note() {
    // Relaxed: the count is a statistic read on the thread that switched
    // counting on; it publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// The counter update never touches the memory involved, so `System`'s
// `GlobalAlloc` guarantees (alignment, uniqueness, live-pointer rules)
// hold for this allocator too.
// SAFETY: every method forwards its arguments unchanged to `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every allocation of this allocator came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller guarantees `ptr`/`layout` describe a live
    // allocation of this allocator and that `new_size` is valid.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the allocation came from `System`; all three arguments
        // are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
