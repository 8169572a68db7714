//! Regression guard for the engine's coalesced fast path: a run with
//! `coalesce: true` must be observationally identical to one with
//! `coalesce: false` — same per-core end times, same event count, same
//! recorded event stream entry by entry. Only `heap_pushes` and
//! `coalesced_steps` may differ, since they record *how* the event
//! order was produced, not what it was.

use scc_hal::{CoreId, FlagValue, MemRange, MpbAddr, Rma, RmaExt, RmaResult, Time};
use scc_sim::engine::SimCore;
use scc_sim::{run_spmd, SimConfig, SimReport};

/// A deliberately messy SPMD program: bulk puts of different sizes,
/// cached and uncached, port contention on a shared target, flag
/// ping-pong with parking, gets back to private memory, and compute
/// phases — every code path the coalescer can interact with.
fn workload(c: &mut SimCore) -> RmaResult<Time> {
    let me = c.core().index();
    let n = c.num_cores();
    let right = CoreId(((me + 1) % n) as u8);
    let payload = vec![me as u8 ^ 0x5A; 24 + 32 * (me % 5)];

    c.mem_write(0, &payload)?;
    // Everyone hammers core 0's MPB port first (contention), then a
    // neighbour put (mostly uncontended, coalescible).
    if me != 0 {
        c.put_from_mem(MemRange::new(0, payload.len()), MpbAddr::new(CoreId(0), 2 + (me % 4)))?;
    }
    c.put_from_mem_cached(MemRange::new(0, payload.len()), MpbAddr::new(right, 8))?;
    c.flag_put(MpbAddr::new(right, 0), FlagValue(1))?;
    c.flag_wait_eq(0, FlagValue(1))?;
    c.get_to_mpb(MpbAddr::new(right, 8), 16, 1 + me % 3)?;
    c.compute(Time::from_ns(137 * (1 + me as u64 % 7)));
    c.get_to_mem(MpbAddr::new(right, 8), MemRange::new(512, payload.len()))?;
    // Second round of flags so wake-on-write interleaves with steps.
    c.flag_put(MpbAddr::new(right, 1), FlagValue(2))?;
    c.flag_wait_ge(1, FlagValue(2))?;
    Ok(c.now())
}

fn run(coalesce: bool, cores: usize) -> SimReport<RmaResult<Time>> {
    let cfg = SimConfig {
        num_cores: cores,
        mem_bytes: 4096,
        record: true,
        coalesce,
        ..SimConfig::default()
    };
    run_spmd(&cfg, workload).expect("workload must complete")
}

#[test]
fn coalesced_run_is_observationally_identical() {
    for cores in [2, 7, 24] {
        let fast = run(true, cores);
        let slow = run(false, cores);

        assert_eq!(fast.end_times, slow.end_times, "end_times diverged at P={cores}");
        assert_eq!(fast.makespan, slow.makespan, "makespan diverged at P={cores}");
        assert_eq!(
            fast.stats.events, slow.stats.events,
            "event count diverged at P={cores}: {:?} vs {:?}",
            fast.stats, slow.stats
        );
        assert_eq!(fast.stats.ops, slow.stats.ops);
        assert_eq!(fast.stats.lines_moved, slow.stats.lines_moved);
        assert_eq!(fast.stats.parks, slow.stats.parks);
        assert_eq!(fast.stats.port_wait, slow.stats.port_wait);
        assert_eq!(fast.stats.router_wait, slow.stats.router_wait);
        assert_eq!(fast.stats.mc_wait, slow.stats.mc_wait);

        for (i, r) in fast.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap(),
                slow.results[i].as_ref().unwrap(),
                "core {i} finished at a different virtual time at P={cores}"
            );
        }

        // The whole recorded stream is equal — every op, and every
        // booking, park, wake and handoff around it — not only its
        // `Op` projection.
        let ft = fast.events.expect("recording enabled");
        let st = slow.events.expect("recording enabled");
        assert_eq!(ft.len(), st.len(), "stream length diverged at P={cores}");
        for (a, b) in ft.iter().zip(&st) {
            assert_eq!(a, b, "stream entry diverged at P={cores}");
        }

        // The fast path must actually have fired (otherwise this test
        // guards nothing), and the slow path must never coalesce.
        assert!(fast.stats.coalesced_steps > 0, "coalescing never engaged at P={cores}");
        assert_eq!(slow.stats.coalesced_steps, 0);
        assert_eq!(
            fast.stats.events,
            fast.stats.heap_pushes + fast.stats.coalesced_steps,
            "event accounting broken at P={cores}"
        );
    }
}

#[test]
fn deadlock_reporting_is_identical_without_coalescing() {
    let prog = |c: &mut SimCore| -> RmaResult<()> {
        if c.core().index() == 1 {
            c.put_from_mpb(0, MpbAddr::new(CoreId(0), 4), 12)?;
            c.flag_wait_eq(5, FlagValue(9))?; // nobody writes this
        }
        Ok(())
    };
    let mk =
        |coalesce| SimConfig { num_cores: 3, mem_bytes: 4096, coalesce, ..SimConfig::default() };
    let fast = run_spmd(&mk(true), prog).unwrap_err();
    let slow = run_spmd(&mk(false), prog).unwrap_err();
    assert_eq!(format!("{fast}"), format!("{slow}"));
}
