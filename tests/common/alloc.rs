//! A counting global allocator: allocation calls and live/peak heap
//! bytes, per thread, switched on and off at run time. A test binary
//! installs it with `#[global_allocator] static GLOBAL: CountingAlloc`.
//!
//! The counters are thread-local, so parallel test threads do not see
//! each other. The counts are exact and repeat run for run, in debug and
//! release builds alike.

#![allow(dead_code)] // each test binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

/// What the counters read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    on: bool,
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since [`start`].
    pub allocs: u64,
    /// Heap bytes live now minus heap bytes live at [`start`].
    pub live: i64,
    /// The largest `live` since [`start`] or the last [`reset_peak`].
    pub peak: i64,
}

thread_local! {
    // `const` initialiser and no `Drop`: reading it never allocates.
    static COUNTERS: Cell<Snapshot> = const {
        Cell::new(Snapshot { on: false, allocs: 0, live: 0, peak: 0 })
    };
}

fn update(allocs: u64, delta: i64) {
    // `try_with`: a thread being torn down simply stops counting.
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        if v.on {
            v.allocs += allocs;
            v.live += delta;
            v.peak = v.peak.max(v.live);
            c.set(v);
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        update(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        update(1, layout.size() as i64);
        // SAFETY: as above, for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        update(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as above, for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(0, -(layout.size() as i64));
        // SAFETY: as above, for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zeroes this thread's counters and switches counting on.
pub fn start() {
    COUNTERS.with(|c| {
        c.set(Snapshot {
            on: true,
            ..Snapshot::default()
        })
    });
}

/// The counters now.
pub fn snapshot() -> Snapshot {
    COUNTERS.with(Cell::get)
}

/// Restarts the peak from the bytes live now.
pub fn reset_peak() {
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.peak = v.live;
        c.set(v);
    });
}

/// Switches counting off; returns the final counters.
pub fn stop() -> Snapshot {
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.on = false;
        c.set(v);
        v
    })
}

/// Runs `f` with counting on; returns its result and the allocation calls.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    start();
    let out = f();
    (out, stop().allocs)
}

/// Runs `f` with counting on; returns its result and the heap bytes it
/// left live (what the result holds).
pub fn live_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    peak_bytes(f).0
}

/// [`live_bytes`], plus the most heap `f` held live at any one time.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> ((T, i64), i64) {
    start();
    let out = f();
    let s = stop();
    ((out, s.live), s.peak)
}
