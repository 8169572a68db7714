//! Collapsed-stack flamegraph export.
//!
//! Folds a recorded run into the `semicolon;separated;stack count`
//! format consumed by inferno, speedscope and Brendan Gregg's
//! `flamegraph.pl`. The synthetic stack is `root ; core N ; phase …`
//! with one frame per open protocol span, so the rendered graph answers
//! "where did wall-clock go, per core, per phase nest" at a glance —
//! e.g. `bcast;core 0;disseminate;round` wide and `…;buffer-wait`
//! narrow means payload movement dominates the double-buffer gate.
//!
//! Counts are virtual **nanoseconds** of exclusive time (time while
//! exactly that stack was open). Zero-weight stacks are omitted, and
//! output lines are sorted so the export is byte-deterministic.

use crate::event::ObsEvent;
use crate::percore::PerCore;
use scc_hal::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fold `events` into collapsed-stack lines with `root` as the common
/// bottom frame (conventionally the collective's name).
///
/// Each core's timeline is walked once; the span between consecutive
/// span-boundary instants is charged to the stack open during it. Time
/// before a core's first event or outside any span is charged to the
/// `root;core N` frame, so per-core totals equal each core's observed
/// lifetime and the graph never under-reports.
pub fn flamegraph_collapsed(events: &[ObsEvent], root: &str) -> String {
    // Per-core boundary instants: (time, open phase-name or None=close).
    #[derive(Clone, Copy)]
    enum Edge {
        Open(&'static str),
        Close(&'static str),
    }
    let mut edges: PerCore<Vec<(Time, Edge)>> = PerCore::new();
    let mut last_seen: PerCore<Option<Time>> = PerCore::new();
    for ev in events {
        match *ev {
            ObsEvent::SpanBegin { core, span, at } => {
                edges.at(core).push((at, Edge::Open(span.phase.name())));
            }
            ObsEvent::SpanEnd { core, span, at } => {
                edges.at(core).push((at, Edge::Close(span.phase.name())));
            }
            _ => {}
        }
        // Track each core's last observed instant so trailing tail time
        // (after the last span closes, up to Finish) is still charged.
        let (actor, other) = ev.cores();
        for c in std::iter::once(actor).chain(other) {
            let seen = last_seen.at(c);
            *seen = (*seen).max(Some(ev.at()));
        }
    }

    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for (core, core_edges) in edges.iter().filter(|(_, e)| !e.is_empty()) {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut cursor = Time::ZERO;
        let mut charge = |stack: &[&'static str], from: Time, to: Time| {
            if to <= from {
                return;
            }
            let mut key = format!("{root};core {}", core.index());
            for frame in stack {
                key.push(';');
                key.push_str(frame);
            }
            *weights.entry(key).or_insert(0) += (to - from).as_ps();
        };
        for &(at, edge) in core_edges {
            charge(&stack, cursor, at);
            cursor = cursor.max(at);
            match edge {
                Edge::Open(name) => stack.push(name),
                Edge::Close(name) => {
                    // Pop to the matching open; error-path unwinds may
                    // close an outer span with inner frames still open.
                    if let Some(pos) = stack.iter().rposition(|f| *f == name) {
                        stack.truncate(pos);
                    }
                }
            }
        }
        // Tail: time after the last span edge up to the core's last
        // observed instant (Finish, last op completion, …).
        if let Some(&Some(end)) = last_seen.get(core) {
            charge(&stack, cursor, end);
        }
    }
    // Cores with activity but no spans still get their lifetime charged
    // to the root frame, so a span-free trace is a flat (not empty)
    // graph.
    for (core, end) in last_seen.iter() {
        if let Some(end) = end.filter(|_| edges.at(core).is_empty()) {
            let key = format!("{root};core {}", core.index());
            *weights.entry(key).or_insert(0) += end.as_ps();
        }
    }

    let mut out = String::new();
    for (stack, ps) in &weights {
        // Nanosecond counts: ps-exact runs render identically across
        // tools that assume small sample counts; sub-ns slivers round
        // up so no open stack vanishes from the graph entirely.
        let ns = ps.div_ceil(1_000);
        if ns > 0 {
            let _ = writeln!(out, "{stack} {ns}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::{CoreId, Phase, Span, Time};

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    #[test]
    fn nested_spans_fold_exclusively() {
        let d = Span::of(Phase::Dissemination);
        let r = Span::of(Phase::Round);
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(0), span: d, at: ns(0) },
            ObsEvent::SpanBegin { core: CoreId(0), span: r, at: ns(10) },
            ObsEvent::SpanEnd { core: CoreId(0), span: r, at: ns(30) },
            ObsEvent::SpanEnd { core: CoreId(0), span: d, at: ns(100) },
            ObsEvent::Finish { core: CoreId(0), at: ns(120) },
        ];
        let folded = flamegraph_collapsed(&events, "bcast");
        let lines: Vec<&str> = folded.lines().collect();
        // Exclusive: disseminate has 100-20(inner)=80, inner round 20,
        // tail after spans 20.
        assert!(lines.contains(&"bcast;core 0;disseminate 80"), "{folded}");
        assert!(lines.contains(&"bcast;core 0;disseminate;round 20"), "{folded}");
        assert!(lines.contains(&"bcast;core 0 20"), "{folded}");
        // Total equals the core's observed lifetime.
        let total: u64 =
            lines.iter().map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn span_free_cores_fold_flat() {
        let events = vec![
            ObsEvent::Op {
                core: CoreId(1),
                kind: crate::OpKind::PutFromMem,
                lines: 1,
                start: ns(0),
                end: ns(50),
                msg: None,
            },
            ObsEvent::Finish { core: CoreId(1), at: ns(50) },
        ];
        let folded = flamegraph_collapsed(&events, "x");
        assert_eq!(folded.trim(), "x;core 1 50");
    }

    #[test]
    fn empty_stream_folds_to_nothing() {
        assert!(flamegraph_collapsed(&[], "x").is_empty());
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let d = Span::of(Phase::Dissemination);
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(2), span: d, at: ns(0) },
            ObsEvent::SpanEnd { core: CoreId(2), span: d, at: ns(10) },
            ObsEvent::SpanBegin { core: CoreId(0), span: d, at: ns(0) },
            ObsEvent::SpanEnd { core: CoreId(0), span: d, at: ns(10) },
        ];
        let a = flamegraph_collapsed(&events, "x");
        let b = flamegraph_collapsed(&events, "x");
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
