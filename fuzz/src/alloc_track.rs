//! A counting global allocator: every fuzz run asserts its allocations
//! stay bounded, so a hostile length prefix that *would* reserve
//! gigabytes fails the run even when the decode "merely" errors slowly.
//! The same counters price a data structure: live bytes and live
//! allocations before and after building it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes one fuzz input may allocate above its starting baseline. The
/// parsers' own ceilings (16 MiB frames, 32 MiB decoded click strings,
/// 64 MiB WAL records) all sit far below this; anything above it means
/// a length field reached an allocator unchecked.
pub const ALLOC_BOUND: usize = 256 * 1024 * 1024;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Pass-through [`System`] allocator that tracks live and peak bytes and
/// the number of live allocations.
pub struct TrackingAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: defers every allocation to `System` unchanged; only counters
// are updated around the calls.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
            LIVE_ALLOCATIONS.fetch_add(1, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            on_alloc(new_size);
        }
        new
    }
}

#[global_allocator]
static TRACKER: TrackingAlloc = TrackingAlloc;

/// Bytes currently allocated process-wide.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Allocations currently live process-wide (a `realloc` moves one, it
/// does not add one).
pub fn live_allocations() -> usize {
    LIVE_ALLOCATIONS.load(Relaxed)
}

/// Run `f` and panic if it allocates more than [`ALLOC_BOUND`] bytes
/// above the current baseline.
pub fn bounded<R>(label: &str, f: impl FnOnce() -> R) -> R {
    bounded_by(label, ALLOC_BOUND, f)
}

/// Run `f` and panic if it allocates more than `bound` bytes above the
/// current baseline. Peak is measured, not final: a huge buffer that is
/// allocated and immediately dropped still counts.
pub fn bounded_by<R>(label: &str, bound: usize, f: impl FnOnce() -> R) -> R {
    let base = live();
    PEAK.store(base, Relaxed);
    let out = f();
    let grew = PEAK.load(Relaxed).saturating_sub(base);
    assert!(
        grew <= bound,
        "{label}: peak allocation {grew} bytes above baseline, bound {bound}"
    );
    out
}
