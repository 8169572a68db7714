//! Allocation ratchet: the exact number of heap allocations a *warm*
//! run makes — the third of three identical runs on a fresh host
//! thread — and the bytes they request, for three broadcast shapes,
//! beside the engine work of that run (events, queue pushes, coalesced
//! steps). A count is a property of the code, not of the host, so it is
//! pinned exactly.
//!
//! The engine counts are simulated behaviour and may not move at all.
//! THE ALLOCATION CONSTANTS BELOW MAY ONLY GO DOWN. A change that
//! lowers a count lowers its constant in the same diff; one that raises
//! a count is a regression of the short-run path, not a constant to
//! update.
//!
//! Counted: calls to `alloc`, `alloc_zeroed` and `realloc` made by the
//! measuring thread, so parallel tests do not perturb each other, and
//! the size each asks for (a `realloc`'s new size).

use oc_bcast::{Algorithm, Broadcaster};
use scc_hal::{CoreId, MemRange, Rma, RmaExt, RmaResult};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, SimConfig, SimStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread and the bytes they asked for.
    /// Const-initialised and free of drop glue, so touching it never
    /// allocates.
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { count: 0, bytes: 0 }) };
}

/// What a thread has allocated so far.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Allocs {
    count: u64,
    bytes: u64,
}

struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| {
        let Allocs { count, bytes: total } = n.get();
        n.set(Allocs { count: count + 1, bytes: total + bytes as u64 });
    });
}

// SAFETY: every method forwards to `System` unchanged after bumping a
// thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark closure's shape — `MpbAllocator::new`,
/// `Broadcaster::new`, the root's `mem_write`, `calls` broadcasts of
/// `lines` cache lines, `mem_to_vec` — run three times on a fresh host
/// thread; returns what the third run allocated and its engine counts
/// `[events, heap_pushes, coalesced_steps]`. Two runs bring every
/// growable store to its steady size: the second still finds the odd
/// calendar full at a different moment than the first did, the third no
/// longer.
fn warm_run(num_cores: usize, alg: Algorithm, calls: usize, lines: usize) -> (Allocs, [u64; 3]) {
    let measure = move || {
        let cfg = SimConfig { num_cores, mem_bytes: 1 << 18, ..SimConfig::default() };
        let (root, payload) = (CoreId(num_cores as u8 / 2), [0x5Au8; 96 * 32]);
        let payload = &payload[..lines * 32];
        let range = MemRange::new(0, payload.len());
        let run = || {
            let rep = run_spmd(&cfg, |c| -> RmaResult<bool> {
                let mut alloc = MpbAllocator::new();
                let mut b = Broadcaster::new(&mut alloc, alg, num_cores).expect("fits");
                if c.core() == root {
                    c.mem_write(0, payload)?;
                }
                for _ in 0..calls {
                    b.bcast(c, root, range)?;
                }
                Ok(c.mem_to_vec(range)? == payload)
            })
            .expect("the run completes");
            assert!(rep.results.iter().all(|r| r == &Ok(true)), "{:?}", rep.results);
            let SimStats { events, heap_pushes, coalesced_steps, .. } = rep.stats;
            [events, heap_pushes, coalesced_steps]
        };
        run();
        run();
        let before = ALLOCS.get();
        let engine = run();
        let after = ALLOCS.get();
        (Allocs { count: after.count - before.count, bytes: after.bytes - before.bytes }, engine)
    };
    std::thread::spawn(measure).join().expect("the measuring thread returns")
}

#[test]
fn warm_run_allocations_are_pinned() {
    let got = [
        warm_run(48, Algorithm::oc_with_k(7), 1, 1),
        warm_run(48, Algorithm::Binomial, 1, 1),
        warm_run(6, Algorithm::oc_with_k(2), 1, 1),
    ];
    // 48-core OC k=7, 48-core binomial, 6-core OC k=2 (1 CL each).
    assert_eq!(got.map(|(a, _)| a.count), [115, 140, 32]);
    assert_eq!(got.map(|(a, _)| a.bytes), [22_464, 23_296, 7_088]);
    assert_eq!(got.map(|(_, e)| e), [[788, 786, 2], [944, 936, 8], [95, 91, 4]]);
}

#[test]
fn warm_throughput_run_allocations_are_pinned() {
    // 48-core OC k=7 and binomial at 96 CL: as many allocations as at
    // 1 CL, so the lines themselves allocate nothing; the extra bytes are
    // each core's `mem_to_vec` of the larger payload.
    let got =
        [warm_run(48, Algorithm::oc_with_k(7), 1, 96), warm_run(48, Algorithm::Binomial, 1, 96)];
    assert_eq!(got.map(|(a, _)| a.count), [115, 140]);
    assert_eq!(got.map(|(a, _)| a.bytes), [168_384, 169_216]);
    assert_eq!(got.map(|(_, e)| e), [[9_786, 9_689, 97], [9_874, 9_539, 335]]);
}

#[test]
fn oc_bcast_calls_allocate_nothing() {
    // The id-based tree is arithmetic and a warm chip keeps its
    // storage: three broadcasts on one context allocate exactly what
    // one does, engine included, on any chip size.
    for (p, k) in [(48, 7), (48, 47), (6, 2)] {
        let alg = Algorithm::oc_with_k(k);
        assert_eq!(warm_run(p, alg, 3, 1).0, warm_run(p, alg, 1, 1).0, "P={p} k={k}");
    }
}
