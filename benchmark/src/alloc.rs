//! Counting global allocator: how many times, and for how many bytes, the
//! process asked the system allocator for memory. Promoted from
//! `tests/stream_memory.rs`; here it counts calls instead of live bytes,
//! because a count repeats exactly from run to run and a high-water mark
//! is already reported as `peak_rss_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] with call and byte counters in front.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer asks for the difference; a shrinking one for
        // nothing. Either way it is one call.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this layout, and the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls and bytes requested since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub calls: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Self {
        Snapshot {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was requested between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
