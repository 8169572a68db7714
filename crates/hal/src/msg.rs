//! Message identity for per-destination delivery tracing.
//!
//! A collective moves one logical payload, but on the wire that payload
//! is many transfers: staged puts, notification flags, remote gets,
//! done-flag acks. [`MsgId`] names the logical fragment each transfer
//! carries — which collective invocation (`epoch`), whose data
//! (`source`), for whom (`dest`), and which slice of the message
//! (`line`, the first cache-line index of the fragment within the
//! payload) — so an observer can reassemble every destination's
//! *journey* from a recorded event stream.
//!
//! Collectives annotate through two [`crate::Rma`] hooks, both untimed
//! and free when recording is off:
//!
//! * [`tagged`] brackets data-movement calls with
//!   [`crate::Rma::msg_tag`], stamping every timed operation issued
//!   inside with the given [`MsgId`];
//! * [`delivering`] brackets one core's participation in one collective
//!   epoch with [`crate::Rma::delivery_begin`] /
//!   [`crate::Rma::delivery_end`] — the window from entering the
//!   collective to holding the full payload locally. The last core's
//!   window end *is* the broadcast makespan.

use crate::rma::{Rma, RmaResult};
use crate::topology::CoreId;
use std::fmt;

/// Identity of one logical message fragment moving through a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsgId {
    /// Which invocation of the collective (an instance-local counter;
    /// free-function collectives without per-instance state use 0).
    pub epoch: u32,
    /// Core whose buffer the fragment is read from.
    pub source: CoreId,
    /// Core the fragment is destined for (the consumer).
    pub dest: CoreId,
    /// First cache-line index of the fragment within the whole message.
    pub line: u32,
}

impl MsgId {
    pub const fn new(epoch: u32, source: CoreId, dest: CoreId, line: u32) -> MsgId {
        MsgId { epoch, source, dest, line }
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}:{}→{}@{}", self.epoch, self.source, self.dest, self.line)
    }
}

/// Run `f` with every timed operation tagged as carrying `msg` (`None`:
/// untagged). The tag is cleared on the way out — on the error path too
/// — so operations outside the bracket never inherit a stale identity.
pub fn tagged<R: Rma + ?Sized, T>(
    c: &mut R,
    msg: impl Into<Option<MsgId>>,
    f: impl FnOnce(&mut R) -> RmaResult<T>,
) -> RmaResult<T> {
    c.msg_tag(msg.into());
    let out = f(c);
    c.msg_tag(None);
    out
}

/// Run `f` bracketed by [`Rma::delivery_begin`] / [`Rma::delivery_end`]
/// for collective invocation `epoch`. Closed on the error path so
/// recorded streams stay balanced even when a collective aborts.
pub fn delivering<R: Rma + ?Sized, T>(
    c: &mut R,
    epoch: u32,
    f: impl FnOnce(&mut R) -> RmaResult<T>,
) -> RmaResult<T> {
    c.delivery_begin(epoch);
    let out = f(c);
    c.delivery_end(epoch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_journey() {
        let m = MsgId::new(3, CoreId(0), CoreId(17), 96);
        assert_eq!(format!("{m}"), "e3:C0→C17@96");
    }

    #[test]
    fn msg_ids_are_value_types() {
        let a = MsgId::new(1, CoreId(2), CoreId(3), 4);
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, MsgId::new(1, CoreId(2), CoreId(3), 5));
    }
}
