//! Counting global allocator and process memory accounting.
//!
//! [`CountingAlloc`] wraps the system allocator with relaxed atomic
//! counters (allocations, frees, bytes in/out, live-byte peak) plus
//! per-thread totals, so a worker thread can bill one run's allocator
//! traffic via an [`AllocScope`] without being charged for neighbours.
//! Every binary that links `foxq_obs` gets the wrapper installed as
//! `#[global_allocator]`; the accounting fast path is a handful of
//! relaxed atomic adds, cheap enough to leave on unconditionally.
//!
//! [`read_rss_bytes`] reads the resident-set size from
//! `/proc/self/statm` (Linux; `None` elsewhere), for the
//! `foxq_process_rss_bytes` gauge.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The process-wide counting allocator, installed below.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized so reading them never allocates (the allocator
    // itself runs this code). `try_with` below tolerates TLS teardown.
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_FREED_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_alloc(size: usize) {
    let size = size as u64;
    ALLOCATIONS.fetch_add(1, Relaxed);
    let allocated = ALLOCATED_BYTES.fetch_add(size, Relaxed) + size;
    // Peak is a best-effort CAS-max over the (racy) live estimate; it
    // can only ever under-count a peak by a concurrent free, never
    // decrease.
    let live = allocated.saturating_sub(FREED_BYTES.load(Relaxed));
    let mut peak = PEAK_LIVE_BYTES.load(Relaxed);
    while live > peak {
        match PEAK_LIVE_BYTES.compare_exchange_weak(peak, live, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(seen) => peak = seen,
        }
    }
    let _ = TL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_ALLOCATED_BYTES.try_with(|c| c.set(c.get() + size));
}

#[inline]
fn note_free(size: usize) {
    DEALLOCATIONS.fetch_add(1, Relaxed);
    FREED_BYTES.fetch_add(size as u64, Relaxed);
    let _ = TL_FREED_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned;
// the caller's obligations (valid layout, pointer from this allocator) are
// passed straight through. The counting on the side only touches atomics
// and const-initialized thread-locals, so it neither allocates (no
// re-entry) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            note_alloc(new_size);
            note_free(layout.size());
        }
        new_ptr
    }
}

/// Point-in-time totals from the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations since process start (allocs + zeroed + reallocs).
    pub allocations: u64,
    /// Deallocations since process start.
    pub deallocations: u64,
    /// Total bytes handed out since process start.
    pub allocated_bytes: u64,
    /// Total bytes returned since process start.
    pub freed_bytes: u64,
    /// Bytes currently live (allocated − freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
}

/// Read the process-wide allocator counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    let allocated_bytes = ALLOCATED_BYTES.load(Relaxed);
    let freed_bytes = FREED_BYTES.load(Relaxed);
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Relaxed),
        deallocations: DEALLOCATIONS.load(Relaxed),
        allocated_bytes,
        freed_bytes,
        live_bytes: allocated_bytes.saturating_sub(freed_bytes),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed),
    }
}

/// Allocator traffic attributed to one thread between two points —
/// what an [`AllocScope`] hands back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations performed by this thread inside the scope.
    pub allocations: u64,
    /// Bytes allocated by this thread inside the scope.
    pub allocated_bytes: u64,
    /// Bytes freed by this thread inside the scope.
    pub freed_bytes: u64,
}

/// Thread-scoped allocator meter: captures the current thread's
/// counters at [`AllocScope::begin`], and [`AllocScope::delta`] reports
/// what this thread allocated/freed since. Because the counters are
/// thread-local, concurrent scopes on other threads never cross-bill.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    allocations: u64,
    allocated_bytes: u64,
    freed_bytes: u64,
}

impl AllocScope {
    /// Start metering the current thread's allocator traffic.
    pub fn begin() -> AllocScope {
        AllocScope {
            allocations: TL_ALLOCATIONS.with(Cell::get),
            allocated_bytes: TL_ALLOCATED_BYTES.with(Cell::get),
            freed_bytes: TL_FREED_BYTES.with(Cell::get),
        }
    }

    /// This thread's allocator traffic since [`AllocScope::begin`].
    pub fn delta(&self) -> AllocDelta {
        AllocDelta {
            allocations: TL_ALLOCATIONS
                .with(Cell::get)
                .wrapping_sub(self.allocations),
            allocated_bytes: TL_ALLOCATED_BYTES
                .with(Cell::get)
                .wrapping_sub(self.allocated_bytes),
            freed_bytes: TL_FREED_BYTES
                .with(Cell::get)
                .wrapping_sub(self.freed_bytes),
        }
    }
}

/// Resident-set size of this process in bytes, from
/// `/proc/self/statm` field 2 (resident pages) times the page size.
/// `None` where procfs is unavailable (non-Linux).
pub fn read_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages.saturating_mul(page_size_bytes()))
}

/// The system page size via `sysconf(_SC_PAGESIZE)` (4096 fallback).
fn page_size_bytes() -> u64 {
    #[cfg(unix)]
    {
        extern "C" {
            fn sysconf(name: i32) -> isize;
        }
        // _SC_PAGESIZE is 30 on Linux and the BSDs we care about.
        const SC_PAGESIZE: i32 = 30;
        // SAFETY: takes no pointers; an unknown name returns -1, which
        // falls through to the default below.
        let n = unsafe { sysconf(SC_PAGESIZE) };
        if n > 0 {
            return n as u64;
        }
    }
    4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_delta_matches_a_known_allocation() {
        let scope = AllocScope::begin();
        let buf = vec![0u8; 1 << 16];
        let after_alloc = scope.delta();
        assert!(after_alloc.allocations >= 1);
        assert!(
            after_alloc.allocated_bytes >= 1 << 16,
            "64 KiB allocation not billed: {after_alloc:?}"
        );
        drop(buf);
        let after_free = scope.delta();
        assert!(
            after_free.freed_bytes >= after_alloc.freed_bytes + (1 << 16),
            "64 KiB free not billed: {after_free:?}"
        );
    }

    #[test]
    fn global_snapshot_moves_and_peak_is_monotone() {
        let before = alloc_snapshot();
        let buf = vec![0u8; 1 << 16];
        let during = alloc_snapshot();
        assert!(during.allocations > before.allocations);
        assert!(during.allocated_bytes >= before.allocated_bytes + (1 << 16));
        assert!(during.peak_live_bytes >= before.peak_live_bytes);
        assert!(during.peak_live_bytes >= during.live_bytes.saturating_sub(1 << 20));
        drop(buf);
        let after = alloc_snapshot();
        // Peak never decreases, even after everything is freed.
        assert!(after.peak_live_bytes >= during.peak_live_bytes);
        assert!(after.freed_bytes >= during.freed_bytes + (1 << 16));
    }

    #[test]
    fn concurrent_scopes_do_not_cross_bill() {
        // A thread allocating 1 MiB must not show up in this thread's
        // scope; the barrier orders "their allocation" strictly inside
        // our scope's window.
        let scope = AllocScope::begin();
        let handle = std::thread::spawn(|| {
            let big = vec![7u8; 1 << 20];
            std::hint::black_box(&big);
            big.len()
        });
        assert_eq!(handle.join().unwrap(), 1 << 20);
        let delta = scope.delta();
        assert!(
            delta.allocated_bytes < 1 << 20,
            "another thread's 1 MiB billed to this scope: {delta:?}"
        );
    }

    #[test]
    fn rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = read_rss_bytes().expect("statm readable on linux");
            assert!(rss > 0);
        }
    }
}
