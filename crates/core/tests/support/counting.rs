//! A global allocator that counts: allocator calls, the bytes live now
//! and the most bytes live at once since the last reset. It hands every
//! call to [`System`] unchanged. A test binary that includes this file
//! (`#[path]` from another crate's tests) counts its own process, so
//! such a binary holds one test: nothing else may allocate while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) since start-up.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes handed out and not yet handed back, as the layouts ask for
/// them (the system allocator's own headers are not counted). A
/// `realloc` moves a block's bytes from its old size to its new one.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The highest [`LIVE`] since start-up or since a test stored `LIVE`'s
/// value here.
pub static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

/// Counts one allocator call that moved the live bytes from `old` to
/// `new`, if `System` answered it (`ptr` is not null).
fn counted(ptr: *mut u8, old: usize, new: usize) -> *mut u8 {
    ALLOCATIONS.fetch_add(1, Relaxed);
    if !ptr.is_null() {
        let live = if new >= old {
            LIVE.fetch_add(new - old, Relaxed) + (new - old)
        } else {
            LIVE.fetch_sub(old - new, Relaxed) - (old - new)
        };
        PEAK.fetch_max(live, Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns what `System` returned; the counters touch no memory it hands
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc(layout), 0, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(System.alloc_zeroed(layout), 0, layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(
            System.realloc(ptr, layout, new_size),
            layout.size(),
            new_size,
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;
