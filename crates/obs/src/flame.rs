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
use crate::lanes::Lanes;
use crate::percore::PerCore;
use scc_hal::{CoreId, Span, Time};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fold `events` into collapsed-stack lines with `root` as the common
/// bottom frame (conventionally the collective's name).
///
/// The stream is walked once; on each core the time between
/// consecutive span-boundary instants is charged to the stack open
/// during it. Time before a core's first event or outside any span is
/// charged to the `root;core N` frame, so per-core totals equal each
/// core's observed lifetime and the graph never under-reports.
pub fn flamegraph_collapsed(events: &[ObsEvent], root: &str) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    let mut charge = |core: CoreId, stack: &[(Span, Time)], from: Time, to: Time| {
        if to <= from {
            return;
        }
        let mut key = format!("{root};core {}", core.index());
        for (span, _) in stack {
            key.push(';');
            key.push_str(span.phase.name());
        }
        *weights.entry(key).or_insert(0) += (to - from).as_ps();
    };

    let mut lanes = Lanes::default();
    // Per core: the instant charged up to, and the last instant seen.
    let mut clock: PerCore<(Time, Option<Time>)> = PerCore::new();
    for ev in events {
        if let ObsEvent::SpanBegin { core, at, .. } | ObsEvent::SpanEnd { core, at, .. } = *ev {
            let upto = &mut clock.at(core).0;
            charge(core, lanes.open_spans(core), *upto, at);
            *upto = (*upto).max(at);
            lanes.step(ev);
        }
        // Track each core's last observed instant so trailing tail time
        // (after the last span closes, up to Finish) is still charged.
        let (actor, other) = ev.cores();
        for c in std::iter::once(actor).chain(other) {
            let seen = &mut clock.at(c).1;
            *seen = (*seen).max(Some(ev.at()));
        }
    }
    // Tail: time after a core's last span edge up to its last observed
    // instant (Finish, last op completion, …). A core with activity but
    // no spans is charged its whole lifetime here, so a span-free trace
    // is a flat (not empty) graph.
    for (core, &(upto, seen)) in clock.iter() {
        if let Some(end) = seen {
            charge(core, lanes.open_spans(core), upto, end);
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
