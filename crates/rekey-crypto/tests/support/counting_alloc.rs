//! A counting `#[global_allocator]`: every `alloc` and `realloc` bumps a
//! counter of the calling thread. Included by path from the
//! allocation-regression tests; the test harness runs each `#[test]` on a
//! thread of its own, so sibling tests cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so counting never
    // allocates or registers anything itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) the calling thread made so far.
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
