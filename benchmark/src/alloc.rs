//! A counting global allocator: allocation calls and live/peak heap
//! bytes, per thread, switchable at run time.
//!
//! The counters are thread-local so that the single-threaded harness
//! reads exactly its own allocations and parallel `cargo test` threads
//! do not disturb each other. While counting is off the allocator is a
//! pass-through to [`System`] plus one thread-local load per call; timed
//! repetitions run that way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

#[derive(Clone, Copy)]
struct Counters {
    on: bool,
    allocs: u64,
    /// Live bytes relative to the moment counting was switched on (a
    /// block allocated before that and freed after it drives this
    /// negative, which keeps `peak` meaning "growth since [`start`]").
    live: i64,
    peak: i64,
}

thread_local! {
    // `const` initialiser and no `Drop`: reading it never allocates and
    // never runs a TLS destructor, so the allocator may touch it at any
    // point of a thread's life.
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { on: false, allocs: 0, live: 0, peak: 0 })
    };
}

/// What the counters read at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since [`start`].
    pub allocs: u64,
    /// Heap bytes live now minus heap bytes live at [`start`].
    pub live: i64,
    /// Largest `live` seen since [`start`] or the last [`reset_peak`].
    pub peak: i64,
}

fn update(f: impl FnOnce(&mut Counters)) {
    // `try_with`: a thread that is being torn down simply stops counting.
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        if v.on {
            f(&mut v);
            c.set(v);
        }
    });
}

fn grow(v: &mut Counters, bytes: usize) {
    v.allocs += 1;
    v.live += bytes as i64;
    v.peak = v.peak.max(v.live);
}

/// Zeroes the counters and switches counting on for this thread.
pub fn start() {
    COUNTERS.with(|c| {
        c.set(Counters {
            on: true,
            allocs: 0,
            live: 0,
            peak: 0,
        })
    });
}

/// Switches counting off for this thread; the counters keep their values.
pub fn stop() {
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.on = false;
        c.set(v);
    });
}

/// Restarts peak tracking from the current live figure.
pub fn reset_peak() {
    update(|v| v.peak = v.live);
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    let v = COUNTERS.with(Cell::get);
    Snapshot {
        allocs: v.allocs,
        live: v.live,
        peak: v.peak,
    }
}

/// Allocation calls so far (the per-call sampler of `Timed`).
#[inline]
pub fn allocs() -> u64 {
    COUNTERS.with(|c| c.get().allocs)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns `System`'s
// result unchanged. The bookkeeping around the call touches only a
// `Cell` of plain integers in const-initialised, destructor-free
// thread-local storage: it cannot allocate (no re-entrancy into this
// allocator), cannot unwind, and is never shared between threads.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        update(|v| grow(v, layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        update(|v| grow(v, layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|v| v.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        update(|v| {
            v.live -= layout.size() as i64;
            grow(v, new_size);
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_pattern_exactly() {
        start();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let b: Box<[u64; 16]> = Box::new([0; 16]);
        let after_two = snapshot();
        drop(a);
        let mut c: Vec<u8> = Vec::with_capacity(10);
        c.reserve_exact(90); // one realloc: 10 -> 90 bytes (the vector is empty)
        let end = snapshot();
        stop();
        assert_eq!(after_two.allocs, 2);
        assert_eq!(after_two.live, 1000 + 128);
        assert_eq!(after_two.peak, 1128);
        assert_eq!(end.allocs, 4, "with_capacity + realloc");
        assert_eq!(end.live, 128 + 90);
        assert_eq!(end.peak, 1128, "peak is not lowered by frees");
        drop((b, c));
    }

    #[test]
    fn inert_when_switched_off() {
        start();
        stop();
        let before = snapshot();
        let v: Vec<u64> = (0..4096).collect();
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(snapshot(), before);
    }

    #[test]
    fn reset_peak_restarts_from_live() {
        start();
        let big: Vec<u8> = Vec::with_capacity(1 << 20);
        drop(big);
        let keep: Vec<u8> = Vec::with_capacity(64);
        reset_peak();
        let s = snapshot();
        stop();
        assert_eq!(s.peak, 64);
        drop(keep);
    }
}
