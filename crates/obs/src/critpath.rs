//! Critical-path extraction: walk the event dependency graph backwards
//! from the last core to finish, and attribute every picosecond of the
//! end-to-end latency to op service, queueing (per resource class),
//! computation, or idling.
//!
//! The walk exploits two structural facts about the engine's event
//! stream:
//!
//! 1. A core's timeline is an alternating sequence of activities (ops,
//!    computes) and gaps; a gap exists only because the core was parked
//!    on a flag (or had genuinely finished earlier work and was waiting
//!    to be scheduled, which the engine never does — a core runs the
//!    moment its grant time arrives).
//! 2. A [`ObsEvent::Wake`] is recorded at the *completion time of the
//!    writer's op*. So when the backward walk hits a gap on core `c`
//!    ending at time `t`, the latest `Wake { core: c, at <= t }` names
//!    the op — on the writer core — whose completion the gap was waiting
//!    for, and the walk continues on that core at `at` with no hole in
//!    coverage.
//!
//! Spurious wakes (a write to a watched line that does not satisfy the
//! waiting predicate re-parks the core after one re-poll) are handled
//! naturally: the re-poll is an op on the waiter's own timeline, and
//! only the last wake before the successful re-poll is followed.

use crate::event::{ObsEvent, OpKind, ResourceId};
use scc_hal::{CoreId, Time};
use std::fmt;
use std::fmt::Write as _;

/// Why no critical path could be extracted. Degenerate streams are a
/// normal consequence of partial recordings (a crashed run, a
/// span-only annotation pass), so they are typed errors rather than
/// panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CritPathError {
    /// The stream had no events at all.
    EmptyStream,
    /// The stream had events (spans, parks, handoffs…) but no timed
    /// activity and no `Finish` — there is no instant to walk back
    /// from.
    NoTimedActivity,
}

impl fmt::Display for CritPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CritPathError::EmptyStream => write!(f, "event stream is empty"),
            CritPathError::NoTimedActivity => {
                write!(f, "event stream has no timed activity (no op, compute, or finish)")
            }
        }
    }
}

impl std::error::Error for CritPathError {}

/// What a path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// A timed RMA operation (service + any queueing inside it).
    Op(OpKind),
    /// Pure local computation.
    Compute,
    /// The core was on the path but doing nothing attributable — the
    /// defensive fallback when a gap has no recorded wake. Zero on
    /// deadlock-free runs.
    Idle,
}

/// One contiguous piece of the critical path, on a single core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSegment {
    pub core: CoreId,
    pub kind: SegmentKind,
    pub start: Time,
    pub end: Time,
    /// Queueing time at MPB ports inside `[start, end]`.
    pub port_wait: Time,
    /// Queueing time inside mesh routers.
    pub router_wait: Time,
    /// Queueing time at memory controllers.
    pub mc_wait: Time,
}

impl PathSegment {
    pub fn duration(&self) -> Time {
        self.end - self.start
    }

    /// Time actually spent being served (duration minus queueing).
    pub fn service(&self) -> Time {
        self.duration()
            .saturating_sub(self.port_wait)
            .saturating_sub(self.router_wait)
            .saturating_sub(self.mc_wait)
    }
}

/// Where the end-to-end latency went, summed over the path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub op_service: Time,
    pub port_wait: Time,
    pub router_wait: Time,
    pub mc_wait: Time,
    pub compute: Time,
    pub idle: Time,
}

impl Breakdown {
    pub fn total(&self) -> Time {
        self.op_service
            + self.port_wait
            + self.router_wait
            + self.mc_wait
            + self.compute
            + self.idle
    }
}

/// The extracted path: segments in chronological order, contiguous and
/// non-overlapping, covering `[start, end]` exactly.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    pub segments: Vec<PathSegment>,
    pub start: Time,
    pub end: Time,
}

impl CriticalPath {
    pub fn total(&self) -> Time {
        self.end - self.start
    }

    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for s in &self.segments {
            b.port_wait += s.port_wait;
            b.router_wait += s.router_wait;
            b.mc_wait += s.mc_wait;
            match s.kind {
                SegmentKind::Op(_) => b.op_service += s.service(),
                SegmentKind::Compute => b.compute += s.service(),
                SegmentKind::Idle => b.idle += s.service(),
            }
        }
        b
    }

    /// Human-readable report: the breakdown followed by the segment
    /// chain (merging runs of consecutive same-kind segments on the
    /// same core so long pipelines stay readable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let b = self.breakdown();
        let total = self.total();
        let pct = |t: Time| {
            if total == Time::ZERO {
                0.0
            } else {
                100.0 * t.as_ps() as f64 / total.as_ps() as f64
            }
        };
        let _ = writeln!(out, "critical path: {} over {} segments", total, self.segments.len());
        for (label, t) in [
            ("op service", b.op_service),
            ("port wait", b.port_wait),
            ("router wait", b.router_wait),
            ("mc wait", b.mc_wait),
            ("compute", b.compute),
            ("idle", b.idle),
        ] {
            let _ = writeln!(out, "  {label:<12} {:>12}  {:5.1}%", format!("{t}"), pct(t));
        }
        let _ = writeln!(out, "segments (chronological):");
        let mut i = 0;
        while i < self.segments.len() {
            let s = self.segments[i];
            // Merge a run of equal-kind segments on the same core.
            let mut j = i + 1;
            let (mut end, mut pw, mut rw, mut mw) = (s.end, s.port_wait, s.router_wait, s.mc_wait);
            while j < self.segments.len() {
                let n = self.segments[j];
                if n.core != s.core || n.kind != s.kind {
                    break;
                }
                end = n.end;
                pw += n.port_wait;
                rw += n.router_wait;
                mw += n.mc_wait;
                j += 1;
            }
            let kind = match s.kind {
                SegmentKind::Op(k) => k.short(),
                SegmentKind::Compute => "COMP",
                SegmentKind::Idle => "IDLE",
            };
            let count = j - i;
            let _ = writeln!(
                out,
                "  {} {kind:<4} x{count:<4} [{} .. {}]  dur {}  waits p={pw} r={rw} m={mw}",
                s.core,
                s.start,
                end,
                end - s.start
            );
            i = j;
        }
        out
    }
}

/// Per-core activity used by the walk.
#[derive(Clone, Copy, Debug)]
struct Activity {
    kind: SegmentKind,
    start: Time,
    end: Time,
    port_wait: Time,
    router_wait: Time,
    mc_wait: Time,
}

/// Extract the critical path from a recorded event stream.
///
/// Degenerate streams come back as a typed [`CritPathError`]: empty
/// streams, and streams with no timed activity to anchor the walk
/// (span-only traces without a `Finish`). A stream that *does* end in
/// a known instant but has no op coverage (e.g. spans + `Finish` only)
/// yields a pure-idle path rather than an error — coverage of
/// `[0, end]` is still exact.
pub fn critical_path(events: &[ObsEvent]) -> Result<CriticalPath, CritPathError> {
    let num_cores = events
        .iter()
        .map(|e| {
            let (actor, other) = e.cores();
            // A wake's `writer` is a core the walk may jump to, so it
            // must size the tables even if the writer logged nothing
            // else (malformed or truncated streams must not panic).
            let other = match *e {
                ObsEvent::Wake { writer, .. } => Some(writer),
                _ => other,
            };
            actor.index().max(other.map_or(0, CoreId::index)) + 1
        })
        .max()
        .ok_or(CritPathError::EmptyStream)?;

    let mut acts: Vec<Vec<Activity>> = vec![Vec::new(); num_cores];
    let mut waits: Vec<Vec<(Time, ResourceId, Time)>> = vec![Vec::new(); num_cores];
    let mut wakes: Vec<Vec<(Time, CoreId)>> = vec![Vec::new(); num_cores];
    let mut path_end = Time::ZERO;
    let mut end_core: Option<CoreId> = None;

    for ev in events {
        match *ev {
            ObsEvent::Op { core, kind, start, end, .. } => {
                acts[core.index()].push(Activity {
                    kind: SegmentKind::Op(kind),
                    start,
                    end,
                    port_wait: Time::ZERO,
                    router_wait: Time::ZERO,
                    mc_wait: Time::ZERO,
                });
            }
            ObsEvent::Compute { core, start, end } => {
                acts[core.index()].push(Activity {
                    kind: SegmentKind::Compute,
                    start,
                    end,
                    port_wait: Time::ZERO,
                    router_wait: Time::ZERO,
                    mc_wait: Time::ZERO,
                });
            }
            ObsEvent::Wait { core, resource, arrival, start, .. } if start > arrival => {
                waits[core.index()].push((arrival, resource, start - arrival));
            }
            ObsEvent::Wake { core, at, writer, .. } => {
                wakes[core.index()].push((at, writer));
            }
            ObsEvent::Finish { core, at } if at >= path_end => {
                path_end = at;
                end_core = Some(core);
            }
            _ => {}
        }
    }

    // Runs without Finish events (partial streams): fall back to the
    // last op/compute completion.
    if end_core.is_none() {
        for (c, a) in acts.iter().enumerate() {
            if let Some(last) = a.last() {
                if last.end >= path_end {
                    path_end = last.end;
                    end_core = Some(CoreId(c as u8));
                }
            }
        }
    }
    let mut core = end_core.ok_or(CritPathError::NoTimedActivity)?;

    // Per-core activities arrive in completion order, which on a single
    // core is also start order; sort defensively anyway, then fold each
    // recorded queue wait into the activity whose interval contains its
    // arrival (waits are recorded while their op is being simulated, so
    // containment is exact).
    for c in 0..num_cores {
        acts[c].sort_by_key(|a| (a.start, a.end));
        waits[c].sort_by_key(|w| w.0);
        let mut ai = 0;
        for &(arrival, resource, wait) in &waits[c] {
            while ai < acts[c].len() && acts[c][ai].end <= arrival {
                ai += 1;
            }
            if let Some(a) = acts[c].get_mut(ai) {
                if a.start <= arrival {
                    match resource {
                        ResourceId::Port(_) => a.port_wait += wait,
                        ResourceId::Router(_) => a.router_wait += wait,
                        ResourceId::Mc(_) => a.mc_wait += wait,
                    }
                }
            }
        }
        wakes[c].sort_by_key(|w| w.0);
    }

    let mut segments: Vec<PathSegment> = Vec::new();
    let mut t = path_end;
    // Each iteration either lowers `t` or switches core at a wake whose
    // chain is finite, so the walk terminates; the cap is a backstop
    // against malformed streams.
    let mut fuel = events.len() * 4 + 16;

    while t > Time::ZERO {
        fuel -= 1;
        if fuel == 0 {
            break;
        }
        let ca = &acts[core.index()];
        // Last activity ending at or before `t`.
        let idx = ca.partition_point(|a| a.end <= t);
        let prev = idx.checked_sub(1).map(|i| ca[i]);
        match prev {
            Some(a) if a.end == t => {
                segments.push(PathSegment {
                    core,
                    kind: a.kind,
                    start: a.start,
                    end: a.end,
                    port_wait: a.port_wait,
                    router_wait: a.router_wait,
                    mc_wait: a.mc_wait,
                });
                t = a.start;
            }
            _ => {
                // Gap: `t` is past the end of the previous activity (or
                // before any activity). Look for the wake that ended it.
                let gap_floor = prev.map_or(Time::ZERO, |a| a.end);
                let wk = &wakes[core.index()];
                let wi = wk.partition_point(|w| w.0 <= t);
                let wake = wi.checked_sub(1).map(|i| wk[i]).filter(|w| w.0 > gap_floor);
                match wake {
                    Some((at, writer)) => {
                        if at < t {
                            // The waiter sat runnable between the wake
                            // and `t` — the engine never schedules that
                            // way, but account for it rather than
                            // losing coverage.
                            segments.push(idle(core, at, t));
                        }
                        core = writer;
                        t = at;
                    }
                    None => {
                        segments.push(idle(core, gap_floor, t));
                        t = gap_floor;
                    }
                }
            }
        }
    }

    segments.reverse();
    let start = segments.first().map_or(path_end, |s| s.start);
    Ok(CriticalPath { segments, start, end: path_end })
}

fn idle(core: CoreId, start: Time, end: Time) -> PathSegment {
    PathSegment {
        core,
        kind: SegmentKind::Idle,
        start,
        end,
        port_wait: Time::ZERO,
        router_wait: Time::ZERO,
        mc_wait: Time::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Core 0: put [0,100], flag [100,130]. Core 1: poll [0,10], parks,
    /// woken at 130, re-poll [130,140], finish. Path must chain through
    /// the wake onto core 0 and cover [0,140] exactly.
    #[test]
    fn two_core_chain_is_contiguous() {
        let events = vec![
            op(1, OpKind::FlagRead, 0, 10),
            ObsEvent::Park { core: CoreId(1), line: 0, at: ns(10) },
            op(0, OpKind::PutFromMem, 0, 100),
            op(0, OpKind::FlagPut, 100, 130),
            ObsEvent::Wake { core: CoreId(1), line: 0, at: ns(130), writer: CoreId(0) },
            op(1, OpKind::FlagRead, 130, 140),
            ObsEvent::Finish { core: CoreId(0), at: ns(130) },
            ObsEvent::Finish { core: CoreId(1), at: ns(140) },
        ];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.start, Time::ZERO);
        assert_eq!(cp.end, ns(140));
        // Contiguous, non-overlapping coverage.
        let mut cursor = cp.start;
        for s in &cp.segments {
            assert_eq!(s.start, cursor, "{cp:?}");
            assert!(s.end > s.start);
            cursor = s.end;
        }
        assert_eq!(cursor, cp.end);
        // The chain is: C0 put, C0 flag, C1 re-poll. C1's initial poll
        // is NOT on the path (it is covered by C0's put).
        let kinds: Vec<(u8, SegmentKind)> =
            cp.segments.iter().map(|s| (s.core.0, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (0, SegmentKind::Op(OpKind::PutFromMem)),
                (0, SegmentKind::Op(OpKind::FlagPut)),
                (1, SegmentKind::Op(OpKind::FlagRead)),
            ]
        );
        assert_eq!(cp.breakdown().total(), cp.total());
        assert_eq!(cp.breakdown().idle, Time::ZERO);
    }

    /// Queue waits recorded inside an op's interval are attributed to
    /// that op's segment.
    #[test]
    fn waits_attributed_by_containment() {
        let events = vec![
            op(0, OpKind::PutFromMpb, 0, 100),
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Port(3),
                arrival: ns(20),
                start: ns(45),
                end: ns(55),
                link: None,
            },
            ObsEvent::Wait {
                core: CoreId(0),
                resource: ResourceId::Router(1),
                arrival: ns(60),
                start: ns(62),
                end: ns(63),
                link: None,
            },
            ObsEvent::Finish { core: CoreId(0), at: ns(100) },
        ];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.segments.len(), 1);
        let s = cp.segments[0];
        assert_eq!(s.port_wait, ns(25));
        assert_eq!(s.router_wait, ns(2));
        assert_eq!(s.service(), ns(100 - 25 - 2));
        let b = cp.breakdown();
        assert_eq!(b.port_wait, ns(25));
        assert_eq!(b.op_service + b.port_wait + b.router_wait, cp.total());
    }

    /// A gap with no wake (e.g. a core that idles before its first op)
    /// becomes an explicit Idle segment — coverage never has holes.
    #[test]
    fn unexplained_gap_becomes_idle() {
        let events =
            vec![op(0, OpKind::GetToMem, 50, 90), ObsEvent::Finish { core: CoreId(0), at: ns(90) }];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.segments.len(), 2);
        assert_eq!(cp.segments[0].kind, SegmentKind::Idle);
        assert_eq!(cp.segments[0].start, Time::ZERO);
        assert_eq!(cp.segments[0].end, ns(50));
        assert_eq!(cp.breakdown().idle, ns(50));
        assert_eq!(cp.total(), ns(90));
    }

    /// Spurious wake: the waiter re-polls, re-parks, and only the final
    /// wake leads anywhere. The walk must follow the last wake before
    /// the successful re-poll.
    #[test]
    fn spurious_wakes_follow_last_wake() {
        let events = vec![
            op(1, OpKind::FlagRead, 0, 10),
            ObsEvent::Park { core: CoreId(1), line: 0, at: ns(10) },
            op(0, OpKind::FlagPut, 10, 40),
            ObsEvent::Wake { core: CoreId(1), line: 0, at: ns(40), writer: CoreId(0) },
            op(1, OpKind::FlagRead, 40, 50), // value not satisfying: re-park
            ObsEvent::Park { core: CoreId(1), line: 0, at: ns(50) },
            op(2, OpKind::FlagPut, 30, 80),
            ObsEvent::Wake { core: CoreId(1), line: 0, at: ns(80), writer: CoreId(2) },
            op(1, OpKind::FlagRead, 80, 90),
            ObsEvent::Finish { core: CoreId(1), at: ns(90) },
        ];
        let cp = critical_path(&events).unwrap();
        // Path tail: C2's flag put [30,80] then C1 re-poll [80,90].
        let tail: Vec<(u8, Time)> = cp.segments.iter().map(|s| (s.core.0, s.end)).collect();
        assert!(tail.contains(&(2, ns(80))), "{cp:?}");
        assert_eq!(cp.segments.last().unwrap().core, CoreId(1));
        let mut cursor = cp.start;
        for s in &cp.segments {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, ns(90));
    }

    #[test]
    fn empty_stream_is_a_typed_error() {
        assert_eq!(critical_path(&[]).unwrap_err(), CritPathError::EmptyStream);
    }

    /// Span-only stream with no `Finish`: there is no instant to walk
    /// back from, so the extractor reports `NoTimedActivity` instead of
    /// fabricating a path (or panicking).
    #[test]
    fn span_only_stream_without_finish_is_a_typed_error() {
        use scc_hal::{Phase, Span};
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(0), span: Span::of(Phase::Round), at: ns(5) },
            ObsEvent::SpanEnd { core: CoreId(0), span: Span::of(Phase::Round), at: ns(50) },
            ObsEvent::Park { core: CoreId(1), line: 0, at: ns(10) },
        ];
        assert_eq!(critical_path(&events).unwrap_err(), CritPathError::NoTimedActivity);
    }

    /// Span-only stream *with* a `Finish` anchor: the walk has an end
    /// instant but no op coverage, so the whole path is explicit idle —
    /// still contiguous over `[0, finish]`.
    #[test]
    fn span_only_stream_with_finish_yields_pure_idle_path() {
        use scc_hal::{Phase, Span};
        let events = vec![
            ObsEvent::SpanBegin { core: CoreId(0), span: Span::of(Phase::Barrier), at: ns(0) },
            ObsEvent::SpanEnd { core: CoreId(0), span: Span::of(Phase::Barrier), at: ns(70) },
            ObsEvent::Finish { core: CoreId(0), at: ns(70) },
        ];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.total(), ns(70));
        assert_eq!(cp.segments.len(), 1);
        assert_eq!(cp.segments[0].kind, SegmentKind::Idle);
        assert_eq!(cp.breakdown().idle, ns(70));
    }

    /// A stream whose last event is an instant (a wake past every op's
    /// completion, naming a writer that logged nothing else) must not
    /// panic — the walk sizes its tables by the writer too and falls
    /// back to idle when the writer has no activities.
    #[test]
    fn trailing_instant_with_unknown_writer_does_not_panic() {
        let events = vec![
            op(0, OpKind::PutFromMpb, 0, 10),
            // Malformed tail: a wake resolving the gap before Finish,
            // whose writer core 9 never logged anything. The old walk
            // sized its tables without `writer` and indexed out of
            // bounds when jumping to core 9 here.
            ObsEvent::Wake { core: CoreId(0), line: 0, at: ns(35), writer: CoreId(9) },
            ObsEvent::Finish { core: CoreId(0), at: ns(40) },
        ];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.total(), ns(40));
        let mut cursor = cp.start;
        for s in &cp.segments {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        assert_eq!(cursor, cp.end);
    }
}
