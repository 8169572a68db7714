//! Addressing of the two memory spaces the RMA primitives move data
//! between: on-chip MPBs (cache-line addressed, remotely accessible) and
//! per-core private off-chip memory (byte addressed, only accessible by
//! the owning core — Section 2.1).

use crate::rma::{RmaError, RmaResult};
use crate::topology::CoreId;
use crate::units::{CACHE_LINE_BYTES, MPB_LINES_PER_CORE};
use std::fmt;

/// A cache-line address inside some core's MPB.
///
/// Every core can read and write every MPB (that is what makes the
/// primitives *remote* memory accesses), so the address carries the
/// owning core explicitly.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpbAddr {
    /// Core owning the MPB half in which the line lives.
    pub core: CoreId,
    /// Cache-line offset within that core's 256-line MPB region.
    pub line: u16,
}

impl MpbAddr {
    #[inline]
    pub fn new(core: CoreId, line: usize) -> MpbAddr {
        assert!(
            line < MPB_LINES_PER_CORE,
            "MPB line {line} out of range (core has {MPB_LINES_PER_CORE} lines)"
        );
        MpbAddr { core, line: line as u16 }
    }

    #[inline]
    pub fn line(self) -> usize {
        self.line as usize
    }

    /// The address `lines` cache lines further into the same MPB.
    #[inline]
    pub fn offset(self, lines: usize) -> MpbAddr {
        MpbAddr::new(self.core, self.line() + lines)
    }

    /// True if `[self, self+lines)` stays inside the MPB.
    #[inline]
    pub fn fits(self, lines: usize) -> bool {
        self.line() + lines <= MPB_LINES_PER_CORE
    }

    /// Accept a transfer of `lines` lines at this address in a run of
    /// `num_cores` cores: nonempty, inside the MPB, owned by a core of
    /// the run.
    pub fn check(self, lines: usize, num_cores: usize) -> RmaResult<()> {
        if lines == 0 {
            return Err(RmaError::EmptyTransfer);
        }
        if !self.fits(lines) {
            return Err(RmaError::MpbOutOfRange { addr: self, lines });
        }
        if self.core.index() >= num_cores {
            let core = self.core;
            return Err(RmaError::Engine(format!(
                "{core} is not part of this {num_cores}-core run"
            )));
        }
        Ok(())
    }

    /// Byte offset of this line within the owning core's MPB region.
    #[inline]
    pub fn byte_offset(self) -> usize {
        self.line() * CACHE_LINE_BYTES
    }
}

impl fmt::Debug for MpbAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mpb[{}:{}]", self.core, self.line)
    }
}

/// A byte range in the calling core's private off-chip memory.
///
/// RMA transfers operate at cache-line granularity, so ranges used as
/// put sources / get destinations must be line-aligned; `MemRange`
/// enforces this at construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    pub offset: usize,
    pub len: usize,
}

impl MemRange {
    /// A line-aligned range. Panics if `offset` is not a multiple of the
    /// cache-line size (`len` may be arbitrary; the final line is
    /// partially transferred, padded to a full line on the wire exactly
    /// like the hardware does). Zero-length ranges may sit at any
    /// offset — they never reach the wire.
    #[inline]
    pub fn new(offset: usize, len: usize) -> MemRange {
        assert!(
            len == 0 || offset.is_multiple_of(CACHE_LINE_BYTES),
            "private-memory RMA offset {offset} must be 32-byte aligned"
        );
        MemRange { offset, len }
    }

    /// One past the last byte. Only meaningful for a range that
    /// [`fits`](Self::fits) its memory: bounds checks must not call it,
    /// since `offset + len` of an unchecked range can overflow.
    #[inline]
    pub fn end(self) -> usize {
        self.offset + self.len
    }

    /// Whether the range lies inside a memory of `mem_len` bytes.
    #[inline]
    pub fn fits(self, mem_len: usize) -> bool {
        MemRange::check_bytes(self.offset, self.len, mem_len).is_ok()
    }

    /// Accept a transfer of this range in a memory of `mem_len` bytes:
    /// nonempty and inside it.
    pub fn check(self, mem_len: usize) -> RmaResult<()> {
        if self.len == 0 {
            return Err(RmaError::EmptyTransfer);
        }
        MemRange::check_bytes(self.offset, self.len, mem_len)
    }

    /// Accept an access of `len` bytes at `offset` (any alignment) in a
    /// memory of `mem_len` bytes: inside it, where an end that overflows
    /// `usize` is not.
    #[inline]
    pub fn check_bytes(offset: usize, len: usize, mem_len: usize) -> RmaResult<()> {
        match offset.checked_add(len) {
            Some(end) if end <= mem_len => Ok(()),
            _ => Err(RmaError::MemOutOfRange { offset, len, mem_len }),
        }
    }

    /// Number of cache lines the transfer of this range occupies.
    #[inline]
    pub fn lines(self) -> usize {
        crate::units::bytes_to_lines(self.len)
    }

    /// Split into the sub-range starting at byte `at` (relative), keeping
    /// alignment. Used by chunking loops.
    #[inline]
    pub fn slice(self, at: usize, len: usize) -> MemRange {
        assert!(at + len <= self.len, "slice outside range");
        MemRange::new(self.offset + at, len)
    }
}

impl fmt::Debug for MemRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem[{}..{}]", self.offset, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpb_addr_arithmetic() {
        let a = MpbAddr::new(CoreId(3), 10);
        assert_eq!(a.offset(5).line(), 15);
        assert_eq!(a.byte_offset(), 320);
        assert!(a.fits(246));
        assert!(!a.fits(247));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mpb_addr_bounds() {
        let _ = MpbAddr::new(CoreId(0), 256);
    }

    #[test]
    fn mem_range_lines() {
        assert_eq!(MemRange::new(0, 0).lines(), 0);
        assert_eq!(MemRange::new(32, 1).lines(), 1);
        assert_eq!(MemRange::new(64, 33).lines(), 2);
        let r = MemRange::new(0, 128);
        let s = r.slice(32, 64);
        assert_eq!((s.offset, s.len), (32, 64));
    }

    #[test]
    fn mem_range_fits_without_overflow() {
        assert!(MemRange::new(64, 64).fits(128));
        assert!(!MemRange::new(64, 65).fits(128));
        assert!(MemRange::new(128, 0).fits(128));
        // An end past `usize::MAX` fits nowhere (and must not wrap to 32).
        assert!(!MemRange::new(usize::MAX - 31, 64).fits(usize::MAX));
        assert!(MemRange::check_bytes(usize::MAX, 2, usize::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mem_range_alignment_enforced() {
        let _ = MemRange::new(31, 10);
    }
}
