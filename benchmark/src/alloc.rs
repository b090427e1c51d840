//! A counting global allocator: allocation events and live heap bytes,
//! process-wide (every engine thread allocates through it), with a
//! resettable high-water mark.
//!
//! Memory is reported from here rather than from RSS: the allocator sees
//! exactly the bytes the program asked for, while RSS moves with page
//! reuse, allocator arenas and whatever the kernel last reclaimed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

pub struct CountingAlloc;

// Statistics only: each counter publishes no other data, so `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one ours states; the bookkeeping around the
// calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Count the bytes free before they can be handed out again, so a
        // racing allocation never sees them twice in the peak.
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        System.dealloc(ptr, layout);
    }

    /// A reallocation counts as one allocation event.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract
        // on `new_size`.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// What the heap did between [`Window::open`] and [`Window::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapUse {
    /// Allocation events (alloc, alloc_zeroed, realloc).
    pub allocations: u64,
    /// Peak live bytes above the live bytes at `open`.
    pub peak_above_base: usize,
}

/// A measuring window. Open it while no other thread of the benchmark is
/// running: opening resets the high-water mark to the current live bytes.
pub struct Window {
    allocations: u64,
    base: usize,
}

impl Window {
    pub fn open() -> Window {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        Window {
            allocations: ALLOCATIONS.load(Relaxed),
            base,
        }
    }

    pub fn close(&self) -> HeapUse {
        HeapUse {
            allocations: ALLOCATIONS.load(Relaxed) - self.allocations,
            peak_above_base: PEAK.load(Relaxed).saturating_sub(self.base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sees_a_large_allocation_and_its_peak() {
        let w = Window::open();
        let v: Vec<u8> = Vec::with_capacity(8 << 20);
        drop(v);
        let used = w.close();
        assert!(used.allocations >= 1);
        // Sibling test threads may add to the peak, never take from it.
        assert!(used.peak_above_base >= 8 << 20);
    }
}
