//! Allocation pins for the analyses over one recorded stream: the OC
//! k=7 48-core 96-CL broadcast `chrome_golden.rs` pins. For each
//! analysis, the exact number of heap allocations it makes, the bytes
//! they request and the most bytes live at once above what was live
//! when it started. A count is a property of the code, not of the host,
//! so it is pinned exactly, the same in debug and release.
//!
//! THE CONSTANTS BELOW MAY ONLY GO DOWN. A change that lowers one
//! lowers it in the same diff; one that raises one is a regression, not
//! a constant to update.
//!
//! Counted: calls to `alloc`, `alloc_zeroed` and `realloc` made by the
//! measuring thread, and the size each asks for (a `realloc`'s new
//! size); live bytes follow every call's size, `dealloc` included.

use oc_bcast::Algorithm;
use scc_bench::{record_run, Scenario};
use scc_obs::{audit, AuditSpec};
use scc_sim::SimParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// What this thread has allocated so far. Const-initialised and
    /// free of drop glue, so touching it never allocates.
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { count: 0, bytes: 0, live: 0, peak: 0 }) };
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Allocs {
    count: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

struct Counting;

/// Record one call: `requested` bytes asked for (0 for `dealloc`) and
/// `delta` the change in live bytes.
fn count(requested: usize, delta: i64) {
    let _ = ALLOCS.try_with(|n| {
        let a = n.get();
        let (live, calls) = (a.live + delta, (requested > 0) as u64);
        n.set(Allocs {
            count: a.count + calls,
            bytes: a.bytes + requested as u64,
            live,
            peak: a.peak.max(live),
        });
    });
}

// SAFETY: every method forwards to `System` unchanged after bumping a
// thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates on this thread: `[count, bytes, peak live]`.
fn measure<R>(f: impl FnOnce() -> R) -> [u64; 3] {
    let before = ALLOCS.get();
    ALLOCS.set(Allocs { peak: before.live, ..before });
    drop(f());
    let after = ALLOCS.get();
    [after.count - before.count, after.bytes - before.bytes, (after.peak - before.live) as u64]
}

#[test]
fn audit_allocations_are_pinned() {
    let sc = Scenario::new(Algorithm::oc_with_k(7), 48, 96);
    let (events, _) = record_run(&sc, SimParams::default()).expect("run");
    assert_eq!(events.len(), 101_028);
    let got = measure(|| audit(&events, &AuditSpec::plain()));
    // Before bookings became chains: [823, 10_645_340, 7_120_064].
    assert_eq!(got, [307, 583_836, 549_060], "[count, bytes, peak live bytes]");
}
