//! Differential critical paths: explain a makespan change by phase and
//! resource.
//!
//! A [`PhaseProfile`] projects a run's critical path onto a
//! (protocol phase × resource dimension) grid: every segment's service
//! time lands in the dimension of its kind (op service / compute /
//! idle) and its recorded queue waits land in port/router/mc-wait, all
//! under the innermost protocol span open on the segment's core when
//! the segment starts. Because critical-path segments partition
//! `[0, makespan]` in exact integer picoseconds and every picosecond of
//! a segment goes to exactly one cell, **the cells partition the
//! makespan** — and therefore the cell-wise difference of two profiles
//! sums *exactly* to the makespan difference. That conservation law is
//! what makes the diff trustworthy: nothing is smoothed, dropped, or
//! double-counted, and `tests/observability.rs` asserts it on real
//! contended runs.

use crate::critpath::{critical_path, CritPathError, SegmentKind};
use crate::event::ObsEvent;
use crate::lanes::Lanes;
use crate::percore::PerCore;
use scc_hal::{CoreId, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Resource dimensions of the grid, in rendering order.
pub const DIMENSIONS: [&str; 6] =
    ["op-service", "port-wait", "router-wait", "mc-wait", "compute", "idle"];

/// Phase key used for critical-path time outside any protocol span
/// (setup before the first span, tails after the last).
pub const OUTSIDE_PHASE: &str = "(outside)";

/// A run's critical path projected onto (phase × resource) cells.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// `(phase name, dimension) → picoseconds`. Sparse: only non-zero
    /// cells are stored. Keys are the stable strings of
    /// [`scc_hal::Phase::name`] plus [`OUTSIDE_PHASE`], and
    /// [`DIMENSIONS`].
    pub cells: BTreeMap<(&'static str, &'static str), u64>,
    /// End-to-end latency; always the exact sum of `cells`.
    pub makespan: Time,
}

impl PhaseProfile {
    /// Build from a recorded event stream (extracts the critical path
    /// internally). Fails exactly when [`critical_path`] does.
    pub fn build(events: &[ObsEvent]) -> Result<PhaseProfile, CritPathError> {
        let cp = critical_path(events)?;

        // Per-core phase timelines: breakpoints (time, innermost phase)
        // from the span edges, in stream order (nondecreasing per core).
        let mut breakpoints: PerCore<Vec<(Time, Option<&'static str>)>> = PerCore::new();
        let mut lanes = Lanes::default();
        for ev in events {
            if let ObsEvent::SpanBegin { core, at, .. } | ObsEvent::SpanEnd { core, at, .. } = *ev {
                lanes.step(ev);
                let innermost = lanes.open_spans(core).last().map(|(span, _)| span.phase.name());
                breakpoints.at(core).push((at, innermost));
            }
        }

        let phase_at = |core: CoreId, t: Time| -> &'static str {
            let Some(bps) = breakpoints.get(core) else { return OUTSIDE_PHASE };
            let i = bps.partition_point(|&(at, _)| at <= t);
            i.checked_sub(1).and_then(|i| bps[i].1).unwrap_or(OUTSIDE_PHASE)
        };

        let mut cells: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
        let mut add = |phase: &'static str, dim: &'static str, t: Time| {
            if t > Time::ZERO {
                *cells.entry((phase, dim)).or_insert(0) += t.as_ps();
            }
        };
        for s in &cp.segments {
            // The whole segment is attributed to the innermost phase
            // open at its start — segments are short (one op), and a
            // whole-segment attribution keeps the partition exact.
            let phase = phase_at(s.core, s.start);
            let dim = match s.kind {
                SegmentKind::Op(_) => "op-service",
                SegmentKind::Compute => "compute",
                SegmentKind::Idle => "idle",
            };
            add(phase, dim, s.service());
            add(phase, "port-wait", s.port_wait);
            add(phase, "router-wait", s.router_wait);
            add(phase, "mc-wait", s.mc_wait);
        }
        Ok(PhaseProfile { cells, makespan: cp.total() })
    }
}

/// One cell of the differential table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiffCell {
    pub phase: &'static str,
    pub dimension: &'static str,
    pub base_ps: u64,
    pub cand_ps: u64,
}

impl DiffCell {
    pub fn delta_ps(&self) -> i64 {
        self.cand_ps as i64 - self.base_ps as i64
    }
}

/// The differential critical path between a base run and a candidate
/// run of the same experiment.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Every cell present in either profile, sorted by descending
    /// `|delta|` (ties by key, so rendering is deterministic).
    pub cells: Vec<DiffCell>,
    pub base_makespan: Time,
    pub cand_makespan: Time,
}

impl DiffReport {
    pub fn between(base: &PhaseProfile, cand: &PhaseProfile) -> DiffReport {
        let keys: std::collections::BTreeSet<_> =
            base.cells.keys().chain(cand.cells.keys()).copied().collect();
        let mut cells: Vec<DiffCell> = keys
            .into_iter()
            .map(|(phase, dimension)| DiffCell {
                phase,
                dimension,
                base_ps: base.cells.get(&(phase, dimension)).copied().unwrap_or(0),
                cand_ps: cand.cells.get(&(phase, dimension)).copied().unwrap_or(0),
            })
            .collect();
        cells.sort_by_key(|c| {
            (std::cmp::Reverse(c.delta_ps().unsigned_abs()), c.phase, c.dimension)
        });
        DiffReport { cells, base_makespan: base.makespan, cand_makespan: cand.makespan }
    }

    /// Candidate minus base makespan, signed picoseconds.
    pub fn delta_makespan_ps(&self) -> i64 {
        self.cand_makespan.as_ps() as i64 - self.base_makespan.as_ps() as i64
    }

    /// Sum of all cell deltas. The conservation law: this equals
    /// [`DiffReport::delta_makespan_ps`] *exactly*, because each
    /// profile's cells partition its makespan.
    pub fn cell_delta_sum_ps(&self) -> i64 {
        self.cells.iter().map(|c| c.delta_ps()).sum()
    }

    /// Markdown: header with the makespan movement, then the table of
    /// cells with non-zero delta (largest movers first), then the
    /// conservation line.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let d = self.delta_makespan_ps();
        let _ = writeln!(
            out,
            "makespan: {} -> {} ({}{:.3}us, {:+.2}%)",
            self.base_makespan,
            self.cand_makespan,
            if d >= 0 { "+" } else { "-" },
            d.unsigned_abs() as f64 / 1e6,
            if self.base_makespan == Time::ZERO {
                0.0
            } else {
                100.0 * d as f64 / self.base_makespan.as_ps() as f64
            },
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| phase | resource | base | candidate | delta | share |");
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
        for c in self.cells.iter().filter(|c| c.delta_ps() != 0) {
            let share = if d == 0 { 0.0 } else { 100.0 * c.delta_ps() as f64 / d as f64 };
            let _ = writeln!(
                out,
                "| {} | {} | {:.3}us | {:.3}us | {:+.3}us | {share:.1}% |",
                c.phase,
                c.dimension,
                c.base_ps as f64 / 1e6,
                c.cand_ps as f64 / 1e6,
                c.delta_ps() as f64 / 1e6,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "cell deltas sum to {:+.3}us == makespan delta {:+.3}us (conservative attribution)",
            self.cell_delta_sum_ps() as f64 / 1e6,
            d as f64 / 1e6,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use scc_hal::{CoreId, Phase, Span};

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    fn op(core: u8, kind: OpKind, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Op {
            core: CoreId(core),
            kind,
            lines: 1,
            start: ns(start),
            end: ns(end),
            msg: None,
        }
    }

    /// One core, one span around the op: the op's service lands in the
    /// span's phase, pre-span idle lands outside.
    fn sample_events(op_end: u64) -> Vec<ObsEvent> {
        vec![
            ObsEvent::SpanBegin {
                core: CoreId(0),
                span: Span::of(Phase::Dissemination),
                at: ns(10),
            },
            op(0, OpKind::PutFromMem, 10, op_end),
            ObsEvent::SpanEnd {
                core: CoreId(0),
                span: Span::of(Phase::Dissemination),
                at: ns(op_end),
            },
            ObsEvent::Finish { core: CoreId(0), at: ns(op_end) },
        ]
    }

    #[test]
    fn cells_partition_the_makespan() {
        let p = PhaseProfile::build(&sample_events(100)).unwrap();
        assert_eq!(p.makespan, ns(100));
        assert_eq!(p.cells.values().sum::<u64>(), p.makespan.as_ps());
        assert_eq!(p.cells[&("disseminate", "op-service")], ns(90).as_ps());
        assert_eq!(p.cells[&(OUTSIDE_PHASE, "idle")], ns(10).as_ps());
    }

    #[test]
    fn waits_split_out_of_service_under_the_same_phase() {
        let mut events = sample_events(100);
        events.push(ObsEvent::Wait {
            core: CoreId(0),
            resource: crate::ResourceId::Port(0),
            arrival: ns(20),
            start: ns(35),
            end: ns(40),
            link: None,
        });
        let p = PhaseProfile::build(&events).unwrap();
        assert_eq!(p.cells[&("disseminate", "op-service")], ns(75).as_ps());
        assert_eq!(p.cells[&("disseminate", "port-wait")], ns(15).as_ps());
        assert_eq!(p.cells.values().sum::<u64>(), p.makespan.as_ps());
    }

    #[test]
    fn diff_conserves_the_makespan_delta() {
        let base = PhaseProfile::build(&sample_events(100)).unwrap();
        let cand = PhaseProfile::build(&sample_events(140)).unwrap();
        let diff = DiffReport::between(&base, &cand);
        assert_eq!(diff.delta_makespan_ps(), ns(40).as_ps() as i64);
        assert_eq!(diff.cell_delta_sum_ps(), diff.delta_makespan_ps());
        let dom = &diff.cells[0];
        assert_eq!((dom.phase, dom.dimension), ("disseminate", "op-service"));
        let md = diff.render_markdown();
        assert!(md.contains("conservative attribution"), "{md}");
        assert!(md.contains("| disseminate | op-service |"), "{md}");
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let p = PhaseProfile::build(&sample_events(100)).unwrap();
        let diff = DiffReport::between(&p, &p);
        assert_eq!(diff.delta_makespan_ps(), 0);
        assert_eq!(diff.cell_delta_sum_ps(), 0);
        assert!(diff.cells.iter().all(|c| c.delta_ps() == 0));
    }

    #[test]
    fn degenerate_streams_propagate_typed_errors() {
        assert_eq!(PhaseProfile::build(&[]).unwrap_err(), CritPathError::EmptyStream);
    }
}
