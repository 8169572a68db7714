//! Runs are independent of each other. The engine keeps all run state
//! in a per-run `Shared` and all stacks in a per-host-thread free list,
//! so runs may only interact through the telemetry counters — this
//! test pins down that nothing leaks between them:
//!
//! * many simultaneous `run_spmd`s from many host threads each produce
//!   the virtual end times, makespan and `SimStats` of their isolated
//!   sequential baseline;
//! * the thread-local telemetry scope charges each host thread with
//!   exactly its own runs' counters;
//! * back-to-back runs on one host thread reuse their coroutine stacks:
//!   nothing is mapped after the first run.

use scc_hal::{CoreId, FlagValue, MemRange, MpbAddr, Rma, RmaExt, RmaResult, Time};
use scc_sim::engine::SimCore;
use scc_sim::{coro, run_spmd, telemetry, SimConfig, SimStats};

/// One scenario = a distinct (P, payload-stride, fan-in) workload so
/// concurrent runs are genuinely different programs, not copies.
#[derive(Clone, Copy)]
struct Scenario {
    cores: usize,
    stride: usize,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario { cores: 2, stride: 16 },
    Scenario { cores: 5, stride: 48 },
    Scenario { cores: 8, stride: 24 },
    Scenario { cores: 12, stride: 64 },
    Scenario { cores: 17, stride: 32 },
    Scenario { cores: 24, stride: 40 },
];

fn workload(s: Scenario) -> impl Fn(&mut SimCore) -> RmaResult<Time> + Send + Sync {
    move |c: &mut SimCore| {
        let me = c.core().index();
        let n = c.num_cores();
        let right = CoreId(((me + 1) % n) as u8);
        let payload = vec![(me * 7) as u8; s.stride + 8 * (me % 3)];
        c.mem_write(0, &payload)?;
        if me != 0 {
            // Fan-in on core 0's MPB port: contention that the engine
            // must serialize identically however the host schedules it.
            c.put_from_mem(MemRange::new(0, payload.len()), MpbAddr::new(CoreId(0), 2 + me % 4))?;
        }
        c.put_from_mem_cached(MemRange::new(0, payload.len()), MpbAddr::new(right, 8))?;
        c.flag_put(MpbAddr::new(right, 0), FlagValue(1))?;
        c.flag_wait_eq(0, FlagValue(1))?;
        c.compute(Time::from_ns(61 * (1 + me as u64 % 5)));
        c.get_to_mem(MpbAddr::new(right, 8), MemRange::new(256, 16))?;
        Ok(c.now())
    }
}

struct Baseline {
    end_times: Vec<Time>,
    makespan: Time,
    stats: SimStats,
    finish: Vec<Time>,
}

fn run_once(s: Scenario) -> Baseline {
    let cfg = SimConfig { num_cores: s.cores, mem_bytes: 4096, ..SimConfig::default() };
    let rep = run_spmd(&cfg, workload(s)).expect("workload must complete");
    Baseline {
        end_times: rep.end_times,
        makespan: rep.makespan,
        stats: rep.stats,
        finish: rep.results.into_iter().map(|r| r.unwrap()).collect(),
    }
}

#[test]
fn concurrent_runs_match_isolated_baselines() {
    // Isolated sequential baselines first, on this thread alone.
    let baselines: Vec<Baseline> = SCENARIOS.iter().map(|&s| run_once(s)).collect();

    // Now the storm: each of 8 host threads re-runs every scenario
    // several times, all overlapping.
    const HOST_THREADS: usize = 8;
    const ROUNDS: usize = 3;
    telemetry::reset_peak_in_flight();
    std::thread::scope(|scope| {
        let baselines = &baselines;
        for t in 0..HOST_THREADS {
            scope.spawn(move || {
                let _ = telemetry::take_thread();
                let mut expected = telemetry::EngineTotals::ZERO;
                for round in 0..ROUNDS {
                    for slot in 0..SCENARIOS.len() {
                        // Stagger the order per thread so runs of
                        // different widths overlap.
                        let i = (slot + t + round) % SCENARIOS.len();
                        let s = SCENARIOS[i];
                        let b = &baselines[i];
                        let got = run_once(s);
                        assert_eq!(
                            got.end_times, b.end_times,
                            "end_times diverged under concurrency (thread {t}, scenario {i})"
                        );
                        assert_eq!(got.makespan, b.makespan);
                        assert_eq!(
                            got.stats, b.stats,
                            "SimStats diverged under concurrency (thread {t}, scenario {i})"
                        );
                        assert_eq!(got.finish, b.finish);
                        expected = expected.plus(&telemetry::EngineTotals {
                            runs: 1,
                            events: b.stats.events,
                            ops: b.stats.ops,
                            heap_pushes: b.stats.heap_pushes,
                            coalesced_steps: b.stats.coalesced_steps,
                            handoffs: b.stats.handoffs,
                        });
                    }
                }
                // The thread-local scope must have charged this thread
                // with exactly its own runs, untouched by the other 7.
                let mine = telemetry::take_thread();
                assert_eq!(
                    mine, expected,
                    "thread-local telemetry misattributed work (thread {t})"
                );
            });
        }
    });

    assert!(
        telemetry::peak_in_flight() >= 2,
        "stress test never actually overlapped two sims (peak {})",
        telemetry::peak_in_flight()
    );
}

#[test]
fn back_to_back_runs_reuse_their_stacks() {
    // Widest scenario first: it maps every stack this thread will need.
    let widest = *SCENARIOS.last().unwrap();
    let first = run_once(widest);
    let mapped = coro::stacks_mapped();
    assert!(mapped >= widest.cores as u64, "cores run on mapped stacks");
    for &s in SCENARIOS.iter().cycle().take(3 * SCENARIOS.len()) {
        run_once(s);
    }
    let again = run_once(widest);
    assert_eq!(coro::stacks_mapped(), mapped, "a later run mapped a stack instead of reusing one");
    assert_eq!(again.end_times, first.end_times);
    assert_eq!(again.stats, first.stats);
}
