//! A counting global allocator: allocation calls and live/peak heap
//! bytes, per thread, switched on and off at run time. A test binary
//! installs it with `#[global_allocator] static GLOBAL: CountingAlloc`.
//!
//! The counters are thread-local, so parallel test threads do not see
//! each other. The counts are exact and repeat run for run, in debug and
//! release builds alike.
//!
//! Site mode ([`start_sites`]) also names where the allocations come
//! from: every counted call captures a backtrace and books itself to its
//! *site*, the first three frames inside a workspace crate, and every
//! block of at least [`BIG_BLOCK`] bytes keeps its site while live, so
//! the blocks live at the peak can be listed. A thread-local guard
//! keeps the capture's own allocations out of every count.

#![allow(dead_code)] // each test binary uses its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

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

/// Blocks at least this large are listed when live at the peak.
pub const BIG_BLOCK: usize = 256 * 1024;

/// What site mode found.
#[derive(Debug, Clone, Default)]
pub struct Sites {
    /// Allocation calls per site since [`start_sites`] or the last
    /// [`clear_site_counts`].
    pub counts: BTreeMap<String, u64>,
    /// Live blocks of at least [`BIG_BLOCK`] bytes: address → (bytes, site).
    big: BTreeMap<usize, (usize, String)>,
    /// The big blocks live when `peak` was last reached, as (bytes, site).
    pub big_at_peak: Vec<(usize, String)>,
}

thread_local! {
    // `const` initialiser and no `Drop`: reading it never allocates.
    static COUNTERS: Cell<Snapshot> = const {
        Cell::new(Snapshot { on: false, allocs: 0, live: 0, peak: 0 })
    };
    /// Set while site mode captures: the capture's allocations, and the
    /// bookkeeping's, pass through uncounted.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Option<Sites>> = const { RefCell::new(None) };
}

/// Counts one call; returns whether it reached a new peak, or `None` if
/// it was not counted.
fn update(allocs: u64, delta: i64) -> Option<bool> {
    if CAPTURING.try_with(Cell::get).unwrap_or(true) {
        return None;
    }
    // `try_with`: a thread being torn down simply stops counting.
    COUNTERS
        .try_with(|c| {
            let mut v = c.get();
            if !v.on {
                return None;
            }
            v.allocs += allocs;
            v.live += delta;
            let new_peak = v.live > v.peak;
            v.peak = v.peak.max(v.live);
            c.set(v);
            Some(new_peak)
        })
        .ok()
        .flatten()
}

/// Runs `f` on the site tables, if site mode is on, with counting
/// suspended.
fn with_sites(f: impl FnOnce(&mut Sites)) {
    let _ = CAPTURING.try_with(|guard| {
        guard.set(true);
        let _ = SITES.try_with(|s| {
            if let Some(sites) = s.borrow_mut().as_mut() {
                f(sites);
            }
        });
        guard.set(false);
    });
}

/// The first three workspace frames of the calling stack, innermost
/// first: a frame is in the workspace if its symbol names an `s4d` crate.
fn site() -> String {
    let trace = Backtrace::force_capture().to_string();
    let frames = trace.lines().filter_map(|line| {
        let (index, symbol) = line.trim_start().split_once(": ")?;
        index.bytes().all(|b| b.is_ascii_digit()).then_some(symbol)
    });
    let inside: Vec<&str> = frames
        .filter(|s| s.trim_start_matches('<').starts_with("s4d"))
        .take(3)
        .collect();
    if inside.is_empty() {
        "(outside the workspace)".into()
    } else {
        inside.join(" < ")
    }
}

/// Books a counted allocation of `size` bytes at `ptr` to its site. A
/// panicking thread is not booked: the panic hook allocates while it
/// holds the lock a backtrace capture takes.
fn book(ptr: *mut u8, size: usize, new_peak: bool) {
    if std::thread::panicking() {
        return;
    }
    with_sites(|sites| {
        let site = site();
        if size >= BIG_BLOCK {
            sites.big.insert(ptr as usize, (size, site.clone()));
        }
        *sites.counts.entry(site).or_default() += 1;
        if new_peak {
            sites.big_at_peak = sites.big.values().cloned().collect();
        }
    });
}

/// Forgets the big block at `ptr`, freed or moved.
fn unbook(ptr: *mut u8, size: usize) {
    if size >= BIG_BLOCK {
        with_sites(|sites| {
            sites.big.remove(&(ptr as usize));
        });
    }
}

// SAFETY: every method forwards to `System` unchanged; the additions are
// thread-local counter updates that neither allocate nor unwind, and in
// site mode a backtrace capture whose own allocations re-enter this
// allocator behind the `CAPTURING` guard, which forwards them uncounted.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if let Some(new_peak) = update(1, layout.size() as i64) {
            book(ptr, layout.size(), new_peak);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above, for `alloc_zeroed`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if let Some(new_peak) = update(1, layout.size() as i64) {
            book(ptr, layout.size(), new_peak);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above, for `realloc`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if let Some(new_peak) = update(1, new_size as i64 - layout.size() as i64) {
            unbook(ptr, layout.size());
            book(moved, new_size, new_peak);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if update(0, -(layout.size() as i64)).is_some() {
            unbook(ptr, layout.size());
        }
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

/// [`start`], in site mode: until [`stop_sites`], every counted call is
/// booked to its site. Slow: one backtrace per call.
pub fn start_sites() {
    SITES.with(|s| *s.borrow_mut() = Some(Sites::default()));
    start();
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
    with_sites(|sites| sites.big_at_peak = sites.big.values().cloned().collect());
}

/// Zeroes the per-site calls of site mode; the counters go on.
pub fn clear_site_counts() {
    with_sites(|sites| sites.counts.clear());
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

/// [`stop`], and leaves site mode; returns what it found.
pub fn stop_sites() -> (Snapshot, Sites) {
    let counters = stop();
    let sites = SITES.with(|s| s.borrow_mut().take()).unwrap_or_default();
    (counters, sites)
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
