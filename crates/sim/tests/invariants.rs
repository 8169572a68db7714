//! Engine invariants under randomized programs.

use proptest::prelude::*;
use scc_hal::{CoreId, MemRange, MpbAddr, Rma, RmaResult, Time, CACHE_LINE_BYTES};
use scc_obs::{summarize, ObsEvent};
use scc_sim::{run_spmd, SimConfig};

fn cfg(n: usize, record: bool) -> SimConfig {
    SimConfig { num_cores: n, mem_bytes: 1 << 16, record, ..SimConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// The recorded stream's `Op` events account for every timed op,
    /// busy intervals are well-formed and bounded by the makespan, and
    /// the lines-moved counter matches them.
    #[test]
    fn trace_is_consistent(ops in proptest::collection::vec((0u8..4, 1usize..20), 1..30)) {
        let program = ops.clone();
        let rep = run_spmd(&cfg(2, true), move |c| -> RmaResult<()> {
            if c.core().index() != 0 {
                return Ok(());
            }
            for (kind, lines) in &program {
                let lines = *lines;
                match kind {
                    0 => c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), lines)?,
                    1 => c.get_to_mpb(MpbAddr::new(CoreId(1), 0), 0, lines)?,
                    2 => c.put_from_mem(
                        MemRange::new(0, lines * CACHE_LINE_BYTES),
                        MpbAddr::new(CoreId(1), 0),
                    )?,
                    _ => c.get_to_mem(
                        MpbAddr::new(CoreId(1), 0),
                        MemRange::new(0, lines * CACHE_LINE_BYTES),
                    )?,
                }
            }
            Ok(())
        }).unwrap();
        let events = rep.events.as_deref().unwrap();
        // `(core, lines, start, end)` of every op, in stream order.
        let trace: Vec<_> = events
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::Op { core, lines, start, end, .. } => Some((core, lines, start, end)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(trace.len() as u64, rep.stats.ops);
        prop_assert_eq!(trace.len(), ops.len());
        let total_lines: usize = trace.iter().map(|&(_, lines, ..)| lines).sum();
        prop_assert_eq!(total_lines as u64, rep.stats.lines_moved);
        for &(_, _, start, end) in &trace {
            prop_assert!(start <= end);
            prop_assert!(end <= rep.makespan);
        }
        // Ops of one core never overlap (single outstanding transaction).
        let mut last_end = Time::ZERO;
        for &(_, _, start, end) in trace.iter().filter(|t| t.0 == CoreId(0)) {
            prop_assert!(start >= last_end, "ops overlap");
            last_end = end;
        }
        prop_assert!(summarize(events, 2)[0].busy <= rep.makespan);
    }

    /// Virtual time equals the sum of contention-free op costs for a
    /// single active core (no hidden charges anywhere in the engine).
    #[test]
    fn single_core_time_is_sum_of_op_costs(lines in proptest::collection::vec(1usize..30, 1..10)) {
        let program = lines.clone();
        let rep = run_spmd(&cfg(2, false), move |c| -> RmaResult<Time> {
            if c.core().index() != 0 {
                return Ok(Time::ZERO);
            }
            for &l in &program {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), l)?;
            }
            Ok(c.now())
        }).unwrap();
        // C_put_mpb(m, 1) = o_put + m (C_r(1) + C_w(1)) with Table-1 values.
        let expect_ns: u64 = lines.iter().map(|&m| 69 + m as u64 * (136 + 136)).sum();
        prop_assert_eq!(*rep.results[0].as_ref().unwrap(), Time::from_ns(expect_ns));
    }
}
