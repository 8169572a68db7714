//! The quick look at a recorded stream: a text Gantt and a per-core
//! summary of its [`ObsEvent::Op`] events — what the `trace` binary
//! prints before the structured exporters run. Every other event kind
//! is skipped.

use crate::event::{ObsEvent, OpKind};
use scc_hal::Time;

/// One core's totals over the ops it issued.
#[derive(Clone, Debug, Default)]
pub struct CoreSummary {
    pub ops: usize,
    pub lines: usize,
    pub busy: Time,
    /// The part of `busy` spent in flag reads.
    pub polling: Time,
}

/// Per-core op totals, indexed by core.
pub fn summarize(events: &[ObsEvent], num_cores: usize) -> Vec<CoreSummary> {
    let mut per_core = vec![CoreSummary::default(); num_cores];
    for ev in events {
        let ObsEvent::Op { core, kind, lines, start, end, .. } = *ev else { continue };
        let s = &mut per_core[core.index()];
        s.ops += 1;
        s.lines += lines;
        s.busy += end - start;
        if kind == OpKind::FlagRead {
            s.polling += end - start;
        }
    }
    per_core
}

/// The glyph legend, generated from [`OpKind::ALL`] so it cannot drift
/// from the renderer when op kinds are added (`FlagRead` renders as
/// idle and is left out).
fn legend() -> String {
    let work = OpKind::ALL.iter().filter(|k| k.glyph() != b'.');
    work.map(|k| format!("{}={}", k.glyph() as char, k.short())).collect::<Vec<_>>().join(", ")
}

/// Render a fixed-width text Gantt chart of the ops: one row per core,
/// `width >= 10` character cells spanning `[0, horizon]` (the last op
/// completion), each cell showing the op that was active
/// (last-writer-wins within a cell).
///
/// A stream containing only polls (or only zero-length ops) renders as
/// all-idle rows, not as "(empty trace)": the run *did* something — it
/// waited — and the timeline should say so.
pub fn render_gantt(events: &[ObsEvent], num_cores: usize, width: usize) -> String {
    assert!(width >= 10);
    let is_op = |ev: &&ObsEvent| matches!(ev, ObsEvent::Op { .. });
    let Some(horizon) = events.iter().filter(is_op).map(ObsEvent::at).max() else {
        return String::from("(empty trace)\n");
    };
    let mut rows = vec![vec![b'.'; width]; num_cores];
    for ev in events {
        let ObsEvent::Op { core, kind, start, end, .. } = *ev else { continue };
        let glyph = kind.glyph();
        if glyph == b'.' || horizon == Time::ZERO {
            continue;
        }
        // Cell of an instant: floor(t * width / horizon). An op ending
        // exactly at the horizon maps to the exclusive bound `width`,
        // so both ends are clamped before indexing, and every op paints
        // at least the cell it starts in.
        let cell = |x: Time| (x.as_ps() as u128 * width as u128 / horizon.as_ps() as u128) as usize;
        let a = cell(start).min(width - 1);
        let b = cell(end).max(a + 1).min(width);
        rows[core.index()][a..b].fill(glyph);
    }
    let mut out = format!("time 0 .. {horizon}  ({})\n", legend());
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("C{i:<2} |{}|\n", String::from_utf8_lossy(row)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::CoreId;

    fn t(core: u8, kind: OpKind, start: u64, end: u64) -> ObsEvent {
        ObsEvent::Op {
            core: CoreId(core),
            kind,
            lines: 1,
            start: Time::from_ns(start),
            end: Time::from_ns(end),
            msg: None,
        }
    }

    #[test]
    fn summary_totals() {
        let trace = vec![
            t(0, OpKind::PutFromMem, 0, 100),
            t(0, OpKind::FlagPut, 100, 120),
            // Not an op: neither counted nor timed.
            ObsEvent::Compute {
                core: CoreId(0),
                start: Time::from_ns(120),
                end: Time::from_ns(900),
            },
            t(1, OpKind::FlagRead, 0, 50),
            t(1, OpKind::GetToMpb, 50, 200),
        ];
        let s = summarize(&trace, 2);
        assert_eq!(s[0].ops, 2);
        assert_eq!(s[0].busy, Time::from_ns(120));
        assert_eq!(s[0].polling, Time::ZERO);
        assert_eq!(s[1].polling, Time::from_ns(50));
    }

    #[test]
    fn gantt_renders_rows_and_glyphs() {
        let trace = vec![t(0, OpKind::PutFromMem, 0, 500), t(1, OpKind::GetToMpb, 500, 1000)];
        let g = render_gantt(&trace, 2, 20);
        assert!(g.contains('P'), "{g}");
        assert!(g.contains('g'), "{g}");
        // Core 0 is busy in the first half only.
        let c0 = g.lines().find(|l| l.starts_with("C0")).unwrap();
        let cells = &c0[c0.find('|').unwrap() + 1..c0.rfind('|').unwrap()];
        assert_eq!(cells.len(), 20, "{g}");
        assert!(cells[..10].contains('P') && !cells[10..].contains('P'), "{g}");
    }

    /// No op in the stream is an empty trace, whatever else it holds.
    #[test]
    fn empty_trace() {
        assert_eq!(render_gantt(&[], 4, 20), "(empty trace)\n");
        let finish = ObsEvent::Finish { core: CoreId(0), at: Time::from_ns(5) };
        assert_eq!(render_gantt(&[finish], 4, 20), "(empty trace)\n");
    }

    /// An op ending exactly at the horizon maps to the exclusive cell
    /// bound `width`; the renderer must clamp, not index out of range,
    /// and the final cell must be painted.
    #[test]
    fn op_ending_at_horizon_paints_last_cell() {
        let trace = vec![
            t(0, OpKind::PutFromMem, 0, 1000),
            t(1, OpKind::FlagPut, 900, 1000), // starts in the last cell
        ];
        let g = render_gantt(&trace, 2, 10);
        let c0 = g.lines().find(|l| l.starts_with("C0")).unwrap();
        assert_eq!(&c0[c0.find('|').unwrap() + 1..c0.rfind('|').unwrap()], "PPPPPPPPPP", "{g}");
        let c1 = g.lines().find(|l| l.starts_with("C1")).unwrap();
        assert!(c1.ends_with("f|"), "{g}");
    }

    /// A poll-only trace is a real (if idle) timeline, not an empty one.
    #[test]
    fn flag_read_only_trace_renders_idle_rows() {
        let trace = vec![t(0, OpKind::FlagRead, 0, 700), t(1, OpKind::FlagRead, 0, 400)];
        let g = render_gantt(&trace, 2, 12);
        assert!(!g.contains("(empty trace)"), "{g}");
        assert!(g.contains("C0  |............|"), "{g}");
        assert!(g.contains("C1  |............|"), "{g}");
    }

    /// Degenerate but legal: every op instantaneous at t=0. No division
    /// by zero, all rows idle.
    #[test]
    fn zero_horizon_nonempty_trace() {
        let trace = vec![t(0, OpKind::FlagPut, 0, 0)];
        let g = render_gantt(&trace, 1, 10);
        assert!(g.contains("C0  |..........|"), "{g}");
    }

    /// The legend is generated from `OpKind::ALL`: every kind with a
    /// non-idle glyph appears.
    #[test]
    fn legend_tracks_op_kinds() {
        let g = render_gantt(&[t(0, OpKind::PutFromMem, 0, 10)], 1, 10);
        for k in OpKind::ALL {
            if k.glyph() != b'.' {
                let entry = format!("{}={}", k.glyph() as char, k.short());
                assert!(g.contains(&entry), "legend missing {entry}: {g}");
            }
        }
    }
}
