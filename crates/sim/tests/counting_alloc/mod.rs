//! A counting global allocator for the heap-budget tests: it counts
//! allocations, live bytes and the live-byte high-water mark per
//! thread, because the harness runs tests in parallel and their
//! allocations must not leak into the count.
//!
//! A test binary installs it by declaring `mod counting_alloc;`, and
//! its crate root carries the `disallowed_macros` expectation for the
//! module's `thread_local!`.
// Each integration-test binary compiles this module separately and uses
// a different slice of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

thread_local! {
    static ALLOCATIONS: AtomicU64 = const { AtomicU64::new(0) };
    /// Bytes this thread allocated minus bytes it freed. Signed: a
    /// thread may free a block another thread allocated.
    static LIVE_BYTES: AtomicI64 = const { AtomicI64::new(0) };
    /// High-water mark of [`LIVE_BYTES`] since the last [`reset_peak`].
    static PEAK_BYTES: AtomicI64 = const { AtomicI64::new(0) };
}

/// Counts every allocation of the calling thread and tracks its live
/// bytes. The trait's default `alloc_zeroed` and `realloc` go through
/// `alloc` and `dealloc`, so they count too.
struct Counting;

fn on_alloc(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.fetch_add(1, Ordering::Relaxed));
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        let _ = PEAK_BYTES.try_with(|peak| peak.fetch_max(now, Ordering::Relaxed));
    });
}

fn on_dealloc(size: usize) {
    let _ = LIVE_BYTES.try_with(|live| live.fetch_sub(size as i64, Ordering::Relaxed));
}

// SAFETY: `alloc` and `dealloc` forward to `System` with the caller's
// arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.load(Ordering::Relaxed))
}

/// The calling thread's live heap bytes.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(|n| n.load(Ordering::Relaxed))
}

/// Restarts the high-water mark at the current live bytes.
pub fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.store(live_bytes(), Ordering::Relaxed));
}

/// The calling thread's live-byte high-water mark since [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.with(|n| n.load(Ordering::Relaxed))
}
