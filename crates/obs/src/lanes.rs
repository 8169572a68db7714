//! The one stepper under the span/park walkers: which `SpanEnd` closes
//! which `SpanBegin`, and which `Wake` ends which `Park`, is decided
//! here and nowhere else. The rule is tolerant, so a truncated stream
//! (a flight window's suffix) degrades instead of panicking:
//!
//! * a `SpanEnd` closes the innermost open span of its phase on its
//!   core and discards the frames above it; with none open it closes
//!   nothing;
//! * a `Wake` (a timeout's self-wake included) ends its core's open
//!   park; with none open it ends nothing.
//!
//! `spanned` closes on the error path too, so on every recorded stream
//! and every suffix of one the span closed *is* the top of the stack —
//! the claim [`mod@crate::audit`] checks with its own exact-match stack.

use crate::event::ObsEvent;
use crate::percore::PerCore;
use scc_hal::{CoreId, Span, Time};

/// What one event (or the end of the stream) closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Closed {
    /// `span` was open on `core` over `[begin, end]` with `depth` spans
    /// open beneath it.
    Span { core: CoreId, span: Span, begin: Time, end: Time, depth: usize },
    /// `core` was parked over `[begin, end]`; `wake` is the
    /// `(line, writer)` of the wake that ended it, `None` when the
    /// stream ended first.
    Park { core: CoreId, begin: Time, end: Time, wake: Option<(usize, CoreId)> },
}

/// What is open on every core — a small stack and one instant each,
/// never a copy of the stream.
#[derive(Default)]
pub struct Lanes {
    spans: PerCore<Vec<(Span, Time)>>,
    parks: PerCore<Option<Time>>,
}

impl Lanes {
    /// Advance over `ev`; `Some` when it closed a span or ended a park.
    #[inline]
    pub fn step(&mut self, ev: &ObsEvent) -> Option<Closed> {
        match *ev {
            ObsEvent::SpanBegin { core, span, at } => {
                self.spans.at(core).push((span, at));
                None
            }
            ObsEvent::SpanEnd { core, span, at } => {
                let stack = self.spans.at(core);
                let depth = stack.iter().rposition(|(open, _)| open.phase == span.phase)?;
                let (span, begin) = stack[depth];
                stack.truncate(depth);
                Some(Closed::Span { core, span, begin, end: at, depth })
            }
            ObsEvent::Park { core, at, .. } => {
                *self.parks.at(core) = Some(at);
                None
            }
            ObsEvent::Wake { core, line, at, writer } => {
                let begin = self.parks.take(core)?;
                Some(Closed::Park { core, begin, end: at, wake: Some((line, writer)) })
            }
            _ => None,
        }
    }

    /// The spans open on `core` right now, outermost first, each with
    /// its begin instant.
    pub fn open_spans(&self, core: CoreId) -> &[(Span, Time)] {
        self.spans.get(core).map_or(&[], Vec::as_slice)
    }

    /// What the stream left open, closed at `horizon`: the parks in
    /// core order, then each core's spans innermost first.
    pub fn finish(&self, horizon: Time) -> impl Iterator<Item = Closed> + '_ {
        let parks = self.parks.iter().filter_map(move |(core, park)| {
            Some(Closed::Park { core, begin: (*park)?, end: horizon, wake: None })
        });
        let spans = self.spans.iter().flat_map(move |(core, stack)| {
            let close = move |(depth, &(span, begin))| Closed::Span {
                core,
                span,
                begin,
                end: horizon,
                depth,
            };
            stack.iter().enumerate().rev().map(close)
        });
        parks.chain(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::Phase;

    const C: CoreId = CoreId(3);

    fn ns(v: u64) -> Time {
        Time::from_ns(v)
    }

    fn begin(phase: Phase, arg: u32, at: u64) -> ObsEvent {
        ObsEvent::SpanBegin { core: C, span: Span::new(phase, arg), at: ns(at) }
    }

    fn end(phase: Phase, at: u64) -> ObsEvent {
        ObsEvent::SpanEnd { core: C, span: Span::of(phase), at: ns(at) }
    }

    fn span(phase: Phase, arg: u32, b: u64, e: u64, depth: usize) -> Option<Closed> {
        Some(Closed::Span { core: C, span: Span::new(phase, arg), begin: ns(b), end: ns(e), depth })
    }

    #[test]
    fn nested_spans_close_innermost_first() {
        let mut l = Lanes::default();
        assert_eq!(l.step(&begin(Phase::Dissemination, 1, 0)), None);
        assert_eq!(l.step(&begin(Phase::Round, 2, 10)), None);
        assert_eq!(
            l.open_spans(C),
            [(Span::new(Phase::Dissemination, 1), ns(0)), (Span::new(Phase::Round, 2), ns(10))]
        );
        // The close carries the *begin*'s span (arg included), and the
        // depth is the number of spans still open beneath it.
        assert_eq!(l.step(&end(Phase::Round, 30)), span(Phase::Round, 2, 10, 30, 1));
        assert_eq!(
            l.step(&end(Phase::Dissemination, 100)),
            span(Phase::Dissemination, 1, 0, 100, 0)
        );
        assert!(l.open_spans(C).is_empty());
        assert!(l.open_spans(CoreId(40)).is_empty(), "an untouched core has nothing open");
    }

    #[test]
    fn closing_an_outer_span_discards_the_inner_frames() {
        let mut l = Lanes::default();
        l.step(&begin(Phase::Drain, 0, 0));
        l.step(&begin(Phase::NotifyWait, 0, 5));
        l.step(&begin(Phase::Round, 0, 7));
        assert_eq!(l.step(&end(Phase::Drain, 50)), span(Phase::Drain, 0, 0, 50, 0));
        assert!(l.open_spans(C).is_empty());
        // The discarded frames are gone, not deferred: their ends now
        // match nothing.
        assert_eq!(l.step(&end(Phase::Round, 60)), None);
        assert_eq!(l.finish(ns(99)).count(), 0);
    }

    /// A flight window's prefix: the opens were evicted.
    #[test]
    fn ends_and_wakes_with_nothing_open_are_ignored() {
        let mut l = Lanes::default();
        assert_eq!(l.step(&end(Phase::Ack, 10)), None);
        assert_eq!(
            l.step(&ObsEvent::Wake { core: C, line: 2, at: ns(11), writer: CoreId(0) }),
            None
        );
        // An open span of another phase is not what the end names.
        l.step(&begin(Phase::Round, 0, 12));
        assert_eq!(l.step(&end(Phase::Ack, 13)), None);
        assert_eq!(l.open_spans(C).len(), 1);
    }

    #[test]
    fn what_stays_open_comes_back_closed_at_the_horizon() {
        let mut l = Lanes::default();
        l.step(&begin(Phase::Drain, 4, 10));
        l.step(&begin(Phase::Round, 5, 15));
        l.step(&ObsEvent::Park { core: C, line: 3, at: ns(20) });
        l.step(&ObsEvent::Park { core: CoreId(1), line: 0, at: ns(25) });
        let left: Vec<Closed> = l.finish(ns(100)).collect();
        assert_eq!(
            left,
            [
                Closed::Park { core: CoreId(1), begin: ns(25), end: ns(100), wake: None },
                Closed::Park { core: C, begin: ns(20), end: ns(100), wake: None },
                span(Phase::Round, 5, 15, 100, 1).unwrap(),
                span(Phase::Drain, 4, 10, 100, 0).unwrap(),
            ]
        );
    }

    #[test]
    fn a_timeout_self_wake_pairs_like_any_wake() {
        let mut l = Lanes::default();
        l.step(&ObsEvent::Park { core: C, line: 6, at: ns(40) });
        assert_eq!(
            l.step(&ObsEvent::Wake { core: C, line: 6, at: ns(90), writer: C }),
            Some(Closed::Park { core: C, begin: ns(40), end: ns(90), wake: Some((6, C)) })
        );
        // One wake per park: a second finds nothing to end.
        assert_eq!(l.step(&ObsEvent::Wake { core: C, line: 6, at: ns(95), writer: C }), None);
        assert_eq!(l.finish(ns(100)).count(), 0);
    }
}
