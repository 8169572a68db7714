//! Teardown of a run whose cores are coroutines: however a run ends —
//! a panic, a deadlock, timeouts — every closure returns or unwinds on
//! its own stack, so its locals are dropped, and the caller sees the
//! original panic or a typed error. Plus the two things only a
//! coroutine engine has to prove: a closure gets a real stack, and a
//! run started from inside a core does not disturb the run around it.

use scc_hal::{CoreId, FlagValue, MpbAddr, Rma, RmaError, RmaExt, RmaResult, Time, NUM_CORES};
use scc_sim::{coro, run_spmd, SimConfig, SimCore, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts its drops: each closure holds one across its Rma calls.
struct Guard<'a>(&'a AtomicUsize);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn full_chip() -> SimConfig {
    SimConfig { mem_bytes: 4096, ..SimConfig::default() }
}

#[test]
fn panic_with_47_cores_suspended_drops_every_closures_locals() {
    let (drops, aborted, inert) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_spmd(&full_chip(), |c| {
            let _guard = Guard(&drops);
            let me = c.core().index();
            let r = match me {
                // Runs last at t=0, after the others suspended; by 1 µs
                // they are 1 µs into a 200-line put, or parked.
                47 => {
                    c.compute(Time::US);
                    panic!("core 47 exploded");
                }
                _ if me % 2 == 0 => c.put_from_mpb(0, MpbAddr::new(CoreId(me as u8 + 1), 0), 200),
                _ => c.flag_wait_eq(250, FlagValue(9)).map(drop),
            };
            if matches!(r, Err(RmaError::Engine(_))) {
                aborted.fetch_add(1, Ordering::Relaxed);
            }
            // The run is being torn down: every further call fails
            // typed, moves no byte and suspends nobody. (Counted, not
            // asserted: a second panic in here would be swallowed.)
            let mut buf = [0xA5u8; 8];
            let after = [
                c.mem_write(0, &[1u8; 8]),
                c.mem_read(0, &mut buf),
                c.flag_put(MpbAddr::new(CoreId(0), 1), FlagValue(1)),
            ];
            c.compute(Time::US);
            if after.iter().all(|r| matches!(r, Err(RmaError::Engine(_)))) && buf == [0xA5u8; 8] {
                inert.fetch_add(1, Ordering::Relaxed);
            }
        })
        .map(drop)
    }));
    let payload = outcome.expect_err("the panic must reach run_spmd's caller");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("core 47 exploded"));
    assert_eq!(drops.load(Ordering::Relaxed), NUM_CORES, "a suspended closure's locals leaked");
    assert_eq!(aborted.load(Ordering::Relaxed), NUM_CORES - 1, "pending calls fail typed");
    assert_eq!(
        inert.load(Ordering::Relaxed),
        NUM_CORES - 1,
        "later calls fail typed, buffers intact"
    );
}

#[test]
fn deadlock_and_timeout_are_typed_and_every_closure_returns() {
    let drops = AtomicUsize::new(0);
    let deadline = Time::from_us_f64(5.0);
    let wait = |c: &mut SimCore, timed: bool| -> RmaResult<()> {
        let _guard = Guard(&drops);
        // Nobody writes line 250.
        if timed {
            c.flag_wait_local_until(250, &mut |v| v == FlagValue(1), deadline).map(drop)
        } else {
            c.flag_wait_eq(250, FlagValue(1))
        }
    };

    let err = run_spmd(&full_chip(), |c| {
        let r = wait(c, false);
        assert!(matches!(r, Err(RmaError::Deadlock { line: 250, .. })), "got {r:?}");
    })
    .unwrap_err();
    match err {
        SimError::Deadlock { parked } => assert_eq!(parked.len(), NUM_CORES),
        other => panic!("expected a deadlock, got {other}"),
    }
    assert_eq!(drops.swap(0, Ordering::Relaxed), NUM_CORES);

    let rep = run_spmd(&full_chip(), |c| wait(c, true)).expect("timeouts are not run failures");
    for (i, r) in rep.results.iter().enumerate() {
        let core = CoreId(i as u8);
        assert!(
            matches!(r, Err(RmaError::Timeout { core: c, line: 250, deadline: d }) if *c == core && *d == deadline),
            "core {i} got {r:?}"
        );
    }
    assert_eq!(drops.load(Ordering::Relaxed), NUM_CORES);
}

#[test]
fn closure_with_a_quarter_of_the_stack_in_one_frame_runs() {
    const FRAME: usize = coro::STACK_BYTES / 4;
    const { assert!(FRAME >= 256 << 10) };
    let cfg = SimConfig { num_cores: 4, mem_bytes: 4096, ..SimConfig::default() };
    let rep = run_spmd(&cfg, |c| {
        let me = c.core().index();
        let mut frame = [0u8; FRAME];
        for (i, b) in frame.iter_mut().enumerate() {
            *b = (i + me) as u8;
        }
        std::hint::black_box(&mut frame);
        // Suspend with the frame live: the other cores' frames sit on
        // their own stacks and must not touch this one.
        let right = CoreId(((me + 1) % 4) as u8);
        c.flag_put(MpbAddr::new(right, 0), FlagValue(1)).unwrap();
        c.flag_wait_eq(0, FlagValue(1)).unwrap();
        frame.iter().enumerate().all(|(i, &b)| b == (i + me) as u8)
    })
    .unwrap();
    assert_eq!(rep.results, vec![true; 4]);
}

/// A flag ring: every core signals its right neighbour, then waits.
fn ring(c: &mut SimCore, rounds: u32) -> Time {
    let right = CoreId(((c.core().index() + 1) % c.num_cores()) as u8);
    for round in 1..=rounds {
        c.flag_put(MpbAddr::new(right, 1), FlagValue(round)).unwrap();
        c.flag_wait_ge(1, FlagValue(round)).unwrap();
    }
    c.now()
}

#[test]
fn nested_run_leaves_the_outer_run_untouched() {
    let outer_cfg = SimConfig { num_cores: 6, mem_bytes: 4096, ..SimConfig::default() };
    let inner = || run_spmd(&full_chip(), |c| ring(c, 3)).unwrap();
    let outer = |nest: bool| {
        run_spmd(&outer_cfg, |c| {
            ring(c, 2);
            // Mid-run, with the other five cores suspended in the ring:
            // a full-chip run on this core's stack, 54 stacks leased.
            let nested = (nest && c.core().index() == 3).then(inner);
            (ring(c, 4), nested.map(|r| (r.results, r.stats)))
        })
        .unwrap()
    };
    let alone = inner();
    let plain = outer(false);
    let nesting = outer(true);
    assert_eq!(nesting.end_times, plain.end_times);
    assert_eq!(nesting.stats, plain.stats);
    for (i, ((t, nested), (plain_t, _))) in nesting.results.iter().zip(&plain.results).enumerate() {
        assert_eq!(t, plain_t);
        match nested {
            Some((results, stats)) => {
                assert_eq!(i, 3);
                assert_eq!((results, stats), (&alone.results, &alone.stats));
            }
            None => assert_ne!(i, 3),
        }
    }
}
