//! The one-sided RMA interface (RCCE-style `put`/`get`, Section 2.2 of
//! the paper) that every collective in this suite is written against.
//!
//! Semantics mirror the SCC primitives exactly:
//!
//! * **put** — the calling core *reads* data from its own MPB or its own
//!   private off-chip memory and *writes* it to some (usually remote)
//!   MPB. Copying is performed by the issuing core, one cache line at a
//!   time; the P54C executes a single memory transaction at a time.
//! * **get** — the calling core reads from some MPB and writes to its
//!   own MPB or its private off-chip memory.
//! * **flags** — one cache line each; written remotely with a 1-line
//!   put, polled locally. Cache-line write atomicity makes them safe
//!   without locks.
//!
//! Both engines implement this trait: `scc-sim` charges virtual time
//! according to its mesh/port/controller model, `scc-rt` performs real
//! shared-memory copies with acquire/release ordering.

use crate::addr::{MemRange, MpbAddr};
use crate::flags::FlagValue;
use crate::msg::MsgId;
use crate::span::Span;
use crate::topology::CoreId;
use crate::units::Time;
use std::fmt;

/// Errors surfaced by the RMA layer.
///
/// These indicate *programming* errors (bad addresses, protocol misuse)
/// or a wedged system (deadlock in the simulator); they are never used
/// for flow control.
#[derive(Clone, PartialEq, Eq)]
pub enum RmaError {
    /// An MPB access fell outside the 256-line region.
    MpbOutOfRange { addr: MpbAddr, lines: usize },
    /// A private-memory access fell outside the configured memory size.
    MemOutOfRange { offset: usize, len: usize, mem_len: usize },
    /// A transfer of zero cache lines was requested where the protocol
    /// requires at least one.
    EmptyTransfer,
    /// The simulator detected that every live core is blocked on a flag
    /// that nobody can ever write — a protocol bug in a collective.
    Deadlock { core: CoreId, line: usize },
    /// A deadline-aware flag wait ([`Rma::flag_wait_local_until`])
    /// reached its deadline before the predicate held. Unlike the other
    /// variants this one *is* used for flow control: reliable
    /// collectives catch it and run their recovery path.
    Timeout { core: CoreId, line: usize, deadline: Time },
    /// Engine-specific failure (e.g. a peer core panicked and the run
    /// is being torn down).
    Engine(String),
}

impl fmt::Debug for RmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmaError::MpbOutOfRange { addr, lines } => {
                write!(f, "MPB access out of range: {lines} lines at {addr:?}")
            }
            RmaError::MemOutOfRange { offset, len, mem_len } => write!(
                f,
                "private memory access out of range: [{offset}..{}) but memory is {mem_len} bytes",
                offset + len
            ),
            RmaError::EmptyTransfer => write!(f, "zero-length RMA transfer"),
            RmaError::Deadlock { core, line } => {
                write!(f, "deadlock: {core} waits forever on its MPB flag line {line}")
            }
            RmaError::Timeout { core, line, deadline } => {
                write!(f, "timeout: {core} gave up waiting on MPB flag line {line} at {deadline}")
            }
            RmaError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl fmt::Display for RmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::error::Error for RmaError {}

pub type RmaResult<T> = Result<T, RmaError>;

/// One-sided communication interface of a single core, as seen by the
/// SPMD code running on that core.
///
/// Methods taking `&mut self` may block (and, on the simulator, advance
/// virtual time). All sizes are in cache lines unless a [`MemRange`]
/// carries a byte length; a partial final line is transferred as a full
/// line on the wire, exactly as on the SCC.
pub trait Rma {
    /// This core's id.
    fn core(&self) -> CoreId;

    /// Number of cores participating in the run (`P` in the paper).
    fn num_cores(&self) -> usize;

    /// Globally comparable timestamp (the SCC exposes global counters
    /// readable by all cores; the simulator's virtual clock plays the
    /// same role).
    fn now(&self) -> Time;

    // ---- one-sided data movement -----------------------------------

    /// `put`: copy `src.lines()` cache lines from this core's private
    /// memory into the MPB at `dst` (Formulas 8/10 of the model).
    fn put_from_mem(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()>;

    /// `put`: copy `lines` cache lines from this core's own MPB
    /// (starting at `src_line`) into the MPB at `dst` (Formulas 7/9).
    fn put_from_mpb(&mut self, src_line: usize, dst: MpbAddr, lines: usize) -> RmaResult<()>;

    /// Like [`Rma::put_from_mem`], but the source is known to be hot in
    /// the L1 cache (e.g. a message that was just received and is being
    /// forwarded). The paper's Section 5.2.2 approximates this read as
    /// free; the simulator honours that, while the thread backend simply
    /// relies on the real cache and forwards to `put_from_mem`.
    fn put_from_mem_cached(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.put_from_mem(src, dst)
    }

    /// `get`: copy `dst.lines()` cache lines from the MPB at `src` into
    /// this core's private memory (Formula 12).
    fn get_to_mem(&mut self, src: MpbAddr, dst: MemRange) -> RmaResult<()>;

    /// `get`: copy `lines` cache lines from the MPB at `src` into this
    /// core's own MPB starting at `dst_line` (Formula 11).
    fn get_to_mpb(&mut self, src: MpbAddr, dst_line: usize, lines: usize) -> RmaResult<()>;

    // ---- flags ------------------------------------------------------

    /// Write `value` into the flag line at `dst` (a 1-line put; the
    /// usual way to notify a remote core).
    fn flag_put(&mut self, dst: MpbAddr, value: FlagValue) -> RmaResult<()>;

    /// Read a flag line in this core's **own** MPB (one local MPB read;
    /// this is the polling primitive and is charged as such).
    fn flag_read_local(&mut self, line: usize) -> RmaResult<FlagValue>;

    /// Poll the local flag `line` until `pred` holds; returns the value
    /// that satisfied it. Every poll iteration costs one local MPB read.
    fn flag_wait_local(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
    ) -> RmaResult<FlagValue>;

    /// Deadline-aware variant of [`Rma::flag_wait_local`]: poll until
    /// `pred` holds *or* the core's clock reaches `deadline`, in which
    /// case [`RmaError::Timeout`] is returned. This is what keeps a
    /// lost doorbell from hanging a run forever: reliable collectives
    /// catch the timeout and probe/retry instead of spinning.
    ///
    /// There is no default: a backend waits in one loop that serves
    /// this and [`Rma::flag_wait_local`] alike, so both forms yield,
    /// park and notice a dead peer the same way.
    fn flag_wait_local_until(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Time,
    ) -> RmaResult<FlagValue>;

    // ---- private memory host access (untimed; setup & verification) --

    /// Write application data into private memory. This models the data
    /// simply *being there* (e.g. produced by earlier computation) and
    /// costs no communication time.
    fn mem_write(&mut self, offset: usize, data: &[u8]) -> RmaResult<()>;

    /// Read application data back from private memory (untimed).
    fn mem_read(&self, offset: usize, buf: &mut [u8]) -> RmaResult<()>;

    // ---- local work --------------------------------------------------

    /// Spend `t` of pure local computation (no communication). The
    /// simulator advances the core's clock; the thread backend spins.
    fn compute(&mut self, t: Time);

    // ---- observability (untimed; default no-op) ----------------------

    /// Mark the beginning of a protocol phase. Costs no virtual time;
    /// engines without an event recorder ignore it entirely.
    fn span_begin(&mut self, _span: Span) {}

    /// Mark the end of the innermost open protocol phase. Spans must
    /// nest properly per core (LIFO); `span` repeats the phase for
    /// readability and sanity checks, it is not used for matching.
    fn span_end(&mut self, _span: Span) {}

    /// Tag every subsequent timed operation as carrying `msg` (or clear
    /// the tag with `None`). Prefer the [`crate::msg::tagged`] bracket,
    /// which clears on the error path too.
    fn msg_tag(&mut self, _msg: Option<MsgId>) {}

    /// Mark the start of this core's participation in collective
    /// invocation `epoch` — the opening of its delivery window.
    fn delivery_begin(&mut self, _epoch: u32) {}

    /// Mark this core as holding the full payload for `epoch` — the
    /// close of its delivery window.
    fn delivery_end(&mut self, _epoch: u32) {}
}

/// Convenience helpers shared by every `Rma` implementation.
pub trait RmaExt: Rma {
    /// Wait until the local flag `line` holds exactly `value`.
    fn flag_wait_eq(&mut self, line: usize, value: FlagValue) -> RmaResult<()> {
        self.flag_wait_local(line, &mut |v| v == value)?;
        Ok(())
    }

    /// Wait until the local flag `line` is at least `value` (sequence
    /// flags are monotone, so `>=` tolerates a waiter that observed a
    /// later chunk's notification first).
    fn flag_wait_ge(&mut self, line: usize, value: FlagValue) -> RmaResult<FlagValue> {
        self.flag_wait_local(line, &mut |v| v >= value)
    }

    /// Read a whole message back out of private memory (untimed), for
    /// verification in tests and examples.
    fn mem_to_vec(&self, range: MemRange) -> RmaResult<Vec<u8>> {
        let mut buf = vec![0u8; range.len];
        self.mem_read(range.offset, &mut buf)?;
        Ok(buf)
    }
}

impl<T: Rma + ?Sized> RmaExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_usefully() {
        let e = RmaError::MpbOutOfRange { addr: MpbAddr::new(CoreId(2), 250), lines: 10 };
        let s = format!("{e}");
        assert!(s.contains("10 lines"), "{s}");
        assert!(s.contains("mpb[C2:250]"), "{s}");

        let e = RmaError::Deadlock { core: CoreId(5), line: 3 };
        assert!(format!("{e}").contains("C5"));

        let e = RmaError::MemOutOfRange { offset: 96, len: 64, mem_len: 128 };
        assert!(format!("{e}").contains("[96..160)"));
    }
}
