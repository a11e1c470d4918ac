//! Counting global allocator for steady-state allocation regression tests.
//!
//! Compiled into the test binary only (`#[cfg(test)]` at the declaration
//! site), so release builds keep the system allocator untouched. Counts
//! are **per thread** — `cargo test` runs tests concurrently, and a global
//! counter would let one test's allocations pollute another's delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts `alloc`/`realloc` calls.
pub struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of allocation events (allocs + reallocs) on this thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn bump() {
    THREAD_ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// plain thread-local `Cell` touched outside the delegated call, so no
// allocator re-entrancy is possible.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`, and
        // `System` is handed the same `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for
        // `layout`, and `System` is handed the same `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as `dealloc`'s caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sees_allocations() {
        let before = thread_allocations();
        let v: Vec<u64> = Vec::with_capacity(32);
        let after = thread_allocations();
        assert!(after > before, "an allocation must be counted");
        drop(v);
        let freed = thread_allocations();
        assert_eq!(freed, after, "deallocation is not an allocation event");
    }
}
