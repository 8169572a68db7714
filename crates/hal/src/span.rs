//! Protocol-phase vocabulary for observability.
//!
//! Collectives annotate their own structure — "waiting for the parent's
//! notification", "pulling a chunk", "round 3 of the ring" — through
//! [`crate::Rma::span_begin`] / [`crate::Rma::span_end`], so a recorded
//! trace is readable at the algorithm level and not just as a soup of
//! RMA operations. Engines that do not record (the thread backend, or
//! the simulator with recording disabled) inherit the default no-op
//! implementations, so annotations cost nothing there.

use crate::rma::{Rma, RmaResult};
use std::fmt;

/// The phase taxonomy shared by every collective in the suite.
///
/// The names follow the paper's step structure: OC-Bcast's per-chunk
/// steps (Section 4.1) map onto `NotifyWait` (step 0), `NotifyForward`
/// (steps i/iv), `BufferWait` (the double-buffer gate of Section 4.2),
/// `Dissemination` (the payload `put`/`get`s) and `Ack` (the done
/// flag); the two-sided baselines use `Scatter`/`Allgather`/`Round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Polling the local notification flag for a chunk announcement.
    NotifyWait,
    /// Forwarding a notification down a notification tree.
    NotifyForward,
    /// Double-buffer gate: waiting for children's done flags before a
    /// buffer may be overwritten.
    BufferWait,
    /// Payload movement: the `put`/`get` of a chunk or slice.
    Dissemination,
    /// Releasing a parent's buffer (the done-flag put).
    Ack,
    /// Final drain: waiting for children to consume the last chunks.
    Drain,
    /// One round of a round-structured exchange (binomial tree level,
    /// ring step).
    Round,
    /// The scatter half of scatter-allgather.
    Scatter,
    /// The allgather half of scatter-allgather.
    Allgather,
    /// Barrier synchronization.
    Barrier,
}

impl Phase {
    /// Every phase, in protocol order. Exporters key tables and
    /// flamegraph frame palettes off this list so a new phase cannot
    /// silently fall out of a rendering.
    pub const ALL: [Phase; 10] = [
        Phase::NotifyWait,
        Phase::NotifyForward,
        Phase::BufferWait,
        Phase::Dissemination,
        Phase::Ack,
        Phase::Drain,
        Phase::Round,
        Phase::Scatter,
        Phase::Allgather,
        Phase::Barrier,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Phase::NotifyWait => "notify-wait",
            Phase::NotifyForward => "notify-fwd",
            Phase::BufferWait => "buffer-wait",
            Phase::Dissemination => "disseminate",
            Phase::Ack => "ack",
            Phase::Drain => "drain",
            Phase::Round => "round",
            Phase::Scatter => "scatter",
            Phase::Allgather => "allgather",
            Phase::Barrier => "barrier",
        }
    }
}

/// One protocol-phase annotation: a phase plus a free argument (chunk
/// index, round number) distinguishing repeated instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    pub phase: Phase,
    pub arg: u32,
}

impl Span {
    pub const fn new(phase: Phase, arg: u32) -> Span {
        Span { phase, arg }
    }

    /// A span with no distinguishing argument.
    pub const fn of(phase: Phase) -> Span {
        Span { phase, arg: 0 }
    }
}

/// Run `f` bracketed by [`Rma::span_begin`] / [`Rma::span_end`]. The
/// span is closed on the error path too, so recorded traces stay
/// balanced even when a collective aborts mid-phase.
pub fn spanned<R: Rma + ?Sized, T>(
    c: &mut R,
    span: Span,
    f: impl FnOnce(&mut R) -> RmaResult<T>,
) -> RmaResult<T> {
    c.span_begin(span);
    let out = f(c);
    c.span_end(span);
    out
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.phase.name(), self.arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_display() {
        assert_eq!(Phase::Dissemination.name(), "disseminate");
        assert_eq!(format!("{}", Span::new(Phase::Round, 3)), "round 3");
        assert_eq!(Span::of(Phase::Drain).arg, 0);
    }

    #[test]
    fn all_names_are_unique_and_round_trip() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
    }
}
