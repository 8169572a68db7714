//! Integration tests for the fault-injection layer: the empty plan is
//! a strict identity, injected faults are counted, attributed to the
//! event stream, and fully deterministic, and deadline parks surface
//! typed timeouts without perturbing failure-free runs.

use oc_bcast::{OcBcast, OcConfig, RelStats, Reliability, ReliableBinomial};
use scc_hal::{CoreId, MemRange, Rma, RmaError, RmaExt, RmaResult, Time};
use scc_obs::{JourneyBook, ObsEvent};
use scc_rcce::MpbAllocator;
use scc_sim::{run_spmd, FaultPlan, SimConfig, SimStats, SlowWindow};

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(131).wrapping_add(seed)).collect()
}

/// The broadcast workload all tests share.
fn bcast_workload(cfg: &SimConfig, len: usize) -> scc_sim::SimReport<RmaResult<Vec<u8>>> {
    let msg = pattern(len, 5);
    run_spmd(cfg, move |c| -> RmaResult<Vec<u8>> {
        let mut alloc = MpbAllocator::new();
        let mut bc = OcBcast::new(&mut alloc, OcConfig::default()).unwrap();
        let r = MemRange::new(0, msg.len());
        if c.core().index() == 0 {
            c.mem_write(0, &msg)?;
        }
        bc.bcast(c, CoreId(0), r)?;
        c.mem_to_vec(r)
    })
    .unwrap()
}

fn strip<R>(rep: scc_sim::SimReport<RmaResult<R>>) -> (Vec<R>, Vec<Time>, Time, SimStats) {
    let results = rep.results.into_iter().map(|r| r.unwrap()).collect();
    (results, rep.end_times, rep.makespan, rep.stats)
}

/// Referenced from the `SimConfig::faults` docs: a config whose fault
/// plan is empty (whatever its seed) must produce *exactly* the run a
/// default config produces — same results, same per-core end times,
/// same engine counters.
#[test]
fn fault_plan_empty_is_identity() {
    let len = 3 * 96 * 32 + 17;
    let base = SimConfig { num_cores: 24, mem_bytes: 1 << 20, ..SimConfig::default() };
    let with_empty_plan = SimConfig {
        faults: FaultPlan { seed: 0xdead_beef, ..FaultPlan::default() },
        ..base.clone()
    };
    let a = strip(bcast_workload(&base, len));
    let b = strip(bcast_workload(&with_empty_plan, len));
    assert_eq!(a, b);
    assert_eq!(a.3.faults, 0);
    assert_eq!(a.3.fault_lost, Time::ZERO);
}

#[test]
fn link_delays_are_counted_and_slow_the_run() {
    let len = 4 * 96 * 32;
    let base = SimConfig { num_cores: 12, mem_bytes: 1 << 20, ..SimConfig::default() };
    let faulty = SimConfig {
        faults: FaultPlan {
            delay_ppm: 200_000,
            delay: Time::from_us_f64(25.0),
            ..FaultPlan::default()
        },
        ..base.clone()
    };
    let clean = bcast_workload(&base, len);
    let hit = bcast_workload(&faulty, len);
    for r in &hit.results {
        assert_eq!(r.as_ref().unwrap(), &pattern(len, 5));
    }
    assert!(hit.stats.faults > 0, "delay plan must fire");
    assert!(hit.stats.fault_lost > Time::ZERO);
    assert!(hit.makespan > clean.makespan, "{} !> {}", hit.makespan, clean.makespan);
}

#[test]
fn slow_windows_are_deterministic_and_attributed() {
    let cfg = SimConfig {
        num_cores: 8,
        mem_bytes: 1 << 20,
        record: true,
        faults: FaultPlan {
            slow: vec![SlowWindow {
                core: CoreId(2),
                from: Time::ZERO,
                until: Time::from_us_f64(100_000.0),
                extra: Time::from_us_f64(2.0),
            }],
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let a = bcast_workload(&cfg, 2000);
    let b = bcast_workload(&cfg, 2000);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.makespan, b.makespan);
    assert!(a.stats.faults > 0);
    // Every recorded fault is on the slowed core, and the recorded
    // lost time sums exactly to the engine counter.
    let events = a.events.expect("recording on");
    let mut lost = Time::ZERO;
    let mut n = 0u64;
    for ev in &events {
        if let ObsEvent::Fault { core, lost: l, .. } = ev {
            assert_eq!(*core, CoreId(2));
            lost += *l;
            n += 1;
        }
    }
    assert_eq!(n, a.stats.faults);
    assert_eq!(lost, a.stats.fault_lost);
}

#[test]
fn dropped_notifications_are_deterministic_across_runs() {
    let cfg = SimConfig {
        num_cores: 24,
        mem_bytes: 1 << 20,
        faults: FaultPlan { drop_notification_ppm: 60_000, ..FaultPlan::default() },
        ..SimConfig::default()
    };
    let msg = pattern(3000, 9);
    let run = || {
        let msg = msg.clone();
        run_spmd(&cfg, move |c| -> RmaResult<(Vec<u8>, RelStats)> {
            let mut alloc = MpbAllocator::new();
            let mut bc =
                ReliableBinomial::new(&mut alloc, c.num_cores(), Reliability::standard()).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
            }
            bc.bcast(c, CoreId(0), r)?;
            Ok((c.mem_to_vec(r)?, bc.stats()))
        })
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.makespan, b.makespan);
    assert!(a.stats.faults > 0, "drop plan must fire");
    for (ra, rb) in a.results.iter().zip(&b.results) {
        let (bytes_a, stats_a) = ra.as_ref().unwrap();
        let (bytes_b, stats_b) = rb.as_ref().unwrap();
        assert_eq!(bytes_a, &msg);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(stats_a, stats_b);
    }
}

/// Conservation under faults: fault-attributed time is *inside* the
/// ops and waits the journeys already account, so the per-leg tiling
/// stays exact — no journey leaks or double-counts the injected time.
#[test]
fn fault_time_tiles_into_journey_legs() {
    let cfg = SimConfig {
        num_cores: 16,
        mem_bytes: 1 << 20,
        record: true,
        faults: FaultPlan {
            drop_notification_ppm: 40_000,
            delay_ppm: 50_000,
            delay: Time::from_us_f64(10.0),
            ..FaultPlan::default()
        },
        ..SimConfig::default()
    };
    let msg = pattern(4 * 96 * 32, 3);
    let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
        let mut alloc = MpbAllocator::new();
        let mut bc =
            OcBcast::new_reliable(&mut alloc, OcConfig::default(), Reliability::standard())
                .unwrap();
        let r = MemRange::new(0, msg.len());
        if c.core().index() == 0 {
            c.mem_write(0, &msg)?;
        }
        bc.bcast(c, CoreId(0), r)
    })
    .unwrap();
    for r in rep.results {
        r.unwrap();
    }
    assert!(rep.stats.faults > 0, "fault plan must fire");
    let events = rep.events.expect("recording on");
    let book = JourneyBook::from_events(&events);
    assert!(!book.journeys.is_empty());
    for j in &book.journeys {
        assert_eq!(
            j.legs_total(),
            j.end - j.begin,
            "legs must tile the window exactly on core {} under faults",
            j.core
        );
    }
}

/// A deadline park on a line nobody writes surfaces a typed timeout at
/// the deadline instead of tripping the deadlock detector or spinning
/// forever.
#[test]
fn deadline_park_times_out_with_typed_error() {
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
    let rep = run_spmd(&cfg, |c| -> RmaResult<(bool, Time)> {
        if c.core().index() == 0 {
            let deadline = c.now() + Time::from_us_f64(80.0);
            let got = c.flag_wait_local_until(7, &mut |v| v.0 >= 1, deadline);
            let timed_out = matches!(got, Err(RmaError::Timeout { line: 7, .. }));
            Ok((timed_out, c.now()))
        } else {
            // Keep the other core busy past the deadline so the run
            // exercises the timer while events are still in flight.
            c.compute(Time::from_us_f64(200.0));
            Ok((true, c.now()))
        }
    })
    .unwrap();
    let (timed_out, at) = rep.results[0].as_ref().unwrap();
    assert!(timed_out, "wait must surface RmaError::Timeout");
    assert!(*at >= Time::from_us_f64(80.0), "woke before the deadline: {at}");
}

/// A deadline wait whose flag arrives in time behaves exactly like the
/// plain wait (no timer residue, same value observed).
#[test]
fn deadline_wait_satisfied_in_time_is_transparent() {
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
    let rep = run_spmd(&cfg, |c| -> RmaResult<u32> {
        if c.core().index() == 0 {
            let deadline = c.now() + Time::from_us_f64(10_000.0);
            let v = c.flag_wait_local_until(3, &mut |v| v.0 >= 42, deadline)?;
            Ok(v.0)
        } else {
            c.compute(Time::from_us_f64(30.0));
            c.flag_put(scc_hal::MpbAddr::new(CoreId(0), 3), scc_hal::FlagValue(42))?;
            Ok(0)
        }
    })
    .unwrap();
    assert_eq!(rep.results[0].as_ref().unwrap(), &42);
}
