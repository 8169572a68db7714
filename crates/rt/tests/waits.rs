//! Flag waits on real threads: the deadline form and the plain form are
//! one loop, so both time out only when asked to, both notice a dead
//! peer, and both yield while cores outnumber hardware threads.

use scc_hal::{CoreId, FlagValue, MpbAddr, Rma, RmaError, RmaResult, Time};
use scc_rt::{run_spmd, RtConfig, RtCore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

fn cfg(num_cores: usize) -> RtConfig {
    RtConfig { num_cores, mem_bytes: 4096 }
}

#[test]
fn an_unwritten_line_times_out_with_the_callers_values() {
    let rep = run_spmd(&cfg(2), |c| {
        let deadline = c.now() + Time::from_us_f64(2_000.0);
        (deadline, c.flag_wait_local_until(7, &mut |v| v == FlagValue(1), deadline), c.now())
    })
    .unwrap();
    for (i, (deadline, got, after)) in rep.results.into_iter().enumerate() {
        assert_eq!(got, Err(RmaError::Timeout { core: CoreId(i as u8), line: 7, deadline }));
        assert!(after >= deadline, "core {i} gave up at {after}, before {deadline}");
    }
}

/// Core 1 panics while core 0 waits, through `wait`, on a line nobody
/// writes: the wait must name the dead peer — a `Timeout` would mean it
/// sat out its deadline instead — and `run_spmd` re-raise the panic.
fn wait_beside_a_dead_peer(wait: impl Fn(&mut RtCore) -> RmaResult<FlagValue> + Send + Sync) {
    let seen = Mutex::new(None);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_spmd(&cfg(2), |c| {
            if c.core().index() == 1 {
                panic!("core 1 exploded");
            }
            *seen.lock().unwrap() = Some(wait(c));
        })
        .map(drop)
    }));
    let payload = outcome.expect_err("run_spmd re-raises the panic");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("core 1 exploded"));
    let said = seen.into_inner().unwrap().expect("core 0's wait returned");
    assert!(matches!(said, Err(RmaError::Engine(_))), "the wait said {said:?}");
}

#[test]
fn a_dead_peer_ends_both_wait_forms_with_an_engine_error() {
    wait_beside_a_dead_peer(|c| {
        let deadline = c.now() + Time::from_us_f64(10e6);
        c.flag_wait_local_until(9, &mut |v| v == FlagValue(1), deadline)
    });
    wait_beside_a_dead_peer(|c| c.flag_wait_local(9, &mut |v| v == FlagValue(1)));
}

#[test]
fn far_deadline_waits_make_progress_with_24_threads_on_few_cpus() {
    const ROUNDS: u32 = 50;
    let rep = run_spmd(&cfg(24), |c| -> RmaResult<u32> {
        let right = CoreId(((c.core().index() + 1) % c.num_cores()) as u8);
        let mut seen = 0;
        for round in 1..=ROUNDS {
            c.flag_put(MpbAddr::new(right, 1), FlagValue(round))?;
            let deadline = c.now() + Time::from_us_f64(60e6);
            seen = c.flag_wait_local_until(1, &mut |v| v.0 >= round, deadline)?.0;
        }
        Ok(seen)
    })
    .unwrap();
    for (i, r) in rep.results.iter().enumerate() {
        assert!(matches!(r, Ok(v) if *v >= ROUNDS), "core {i}: {r:?}");
    }
}
