//! iRCCE-style pipelined point-to-point transfer (Clauss et al., the
//! library the paper credits for the double-buffering idea,
//! Section 4.2).
//!
//! A [`Pipe`] is a dedicated channel between **two fixed cores**. Its
//! payload area is split into two halves; the sender fills half
//! `i mod 2` with chunk `i` while the receiver drains chunk `i − 1`
//! from the other half, so for large messages the `put` and `get`
//! overlap and the transfer time approaches `max(put, get)` per chunk
//! instead of their sum.
//!
//! Flags carry absolute sequence numbers (like OC-Bcast), so repeated
//! messages through the same pipe need no resets; the fixed-pair
//! binding is what makes the sequence arithmetic sound (both ends
//! advance the same counter).

use crate::alloc::{MpbAllocator, MpbExhausted, MpbRegion};
use scc_hal::{
    bytes_to_lines, CoreId, FlagValue, MemRange, MpbAddr, Rma, RmaResult, CACHE_LINE_BYTES,
};

/// A dedicated, pipelined channel between cores `a` and `b`.
///
/// Like all MPB contexts it must be constructed symmetrically on every
/// core, but only the two endpoints may call [`Pipe::send`] /
/// [`Pipe::recv`].
#[derive(Clone, Copy, Debug)]
pub struct Pipe {
    a: CoreId,
    b: CoreId,
    /// Two payload halves (in the *receiver's* MPB region; both ends
    /// reserve the same lines, each uses its own copy when receiving).
    halves: [MpbRegion; 2],
    /// Per-half "chunk available" flags, polled by the receiver.
    sent: [usize; 2],
    /// Per-half "chunk consumed" flags, polled by the sender.
    ready: [usize; 2],
    /// Sequence of the last chunk of the previous message.
    seq: u32,
}

impl Pipe {
    /// Reserve `2 × half_lines` payload lines plus four flag lines.
    pub fn between(
        alloc: &mut MpbAllocator,
        a: CoreId,
        b: CoreId,
        half_lines: usize,
    ) -> Result<Pipe, MpbExhausted> {
        assert!(a != b, "a pipe needs two distinct endpoints");
        assert!(half_lines >= 1);
        let flags = alloc.alloc(4)?;
        let h0 = alloc.alloc(half_lines)?;
        let h1 = alloc.alloc(half_lines)?;
        Ok(Pipe {
            a,
            b,
            halves: [h0, h1],
            sent: [flags.line(0), flags.line(1)],
            ready: [flags.line(2), flags.line(3)],
            seq: 0,
        })
    }

    /// Release the pipe's MPB lines.
    pub fn release(self, alloc: &mut MpbAllocator) {
        alloc.free(MpbRegion { first_line: self.sent[0], lines: 4 });
        alloc.free(self.halves[0]);
        alloc.free(self.halves[1]);
    }

    /// Bytes carried per pipeline chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.halves[0].lines * CACHE_LINE_BYTES
    }

    fn other(&self, me: CoreId) -> CoreId {
        assert!(me == self.a || me == self.b, "{me} is not an endpoint of this pipe");
        if me == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Pipelined blocking send of `src` to the other endpoint; must be
    /// matched by exactly one [`Pipe::recv`] there with the same length.
    pub fn send<R: Rma>(&mut self, c: &mut R, src: MemRange) -> RmaResult<()> {
        let me = c.core();
        let peer = self.other(me);
        let chunk_bytes = self.chunk_bytes();
        let n = bytes_to_lines(src.len).div_ceil(self.halves[0].lines).max(1);
        let base = self.seq;
        self.seq += n as u32;
        let mut off = 0usize;
        for i in 0..n {
            let seq = base + i as u32 + 1;
            let h = i % 2;
            // Double buffering: half `h` may be refilled once the chunk
            // that previously occupied it (i − 2) was consumed.
            if i >= 2 {
                c.flag_wait_local(self.ready[h], &mut |v| v.0 >= seq - 2)?;
            }
            let len = (src.len - off).min(chunk_bytes);
            if len > 0 {
                c.put_from_mem(src.slice(off, len), MpbAddr::new(peer, self.halves[h].first_line))?;
            }
            c.flag_put(MpbAddr::new(peer, self.sent[h]), FlagValue(seq))?;
            off += len;
        }
        Ok(())
    }

    /// Pipelined blocking receive into `dst` from the other endpoint.
    pub fn recv<R: Rma>(&mut self, c: &mut R, dst: MemRange) -> RmaResult<()> {
        let me = c.core();
        let peer = self.other(me);
        let chunk_bytes = self.chunk_bytes();
        let n = bytes_to_lines(dst.len).div_ceil(self.halves[0].lines).max(1);
        let base = self.seq;
        self.seq += n as u32;
        let mut off = 0usize;
        for i in 0..n {
            let seq = base + i as u32 + 1;
            let h = i % 2;
            c.flag_wait_local(self.sent[h], &mut |v| v.0 >= seq)?;
            let len = (dst.len - off).min(chunk_bytes);
            if len > 0 {
                c.get_to_mem(MpbAddr::new(me, self.halves[h].first_line), dst.slice(off, len))?;
            }
            c.flag_put(MpbAddr::new(peer, self.ready[h]), FlagValue(seq))?;
            off += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sendrecv::RcceComm;
    use scc_hal::{RmaExt, Time};
    use scc_sim::{run_spmd, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 1 << 20, ..SimConfig::default() }
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(59).wrapping_add(11)).collect()
    }

    fn round_trip(len: usize, half_lines: usize) {
        let msg = payload(len);
        let expect = msg.clone();
        let rep = run_spmd(&cfg(2), move |c| -> RmaResult<Option<Vec<u8>>> {
            let mut alloc = MpbAllocator::new();
            let mut pipe = Pipe::between(&mut alloc, CoreId(0), CoreId(1), half_lines).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                pipe.send(c, r)?;
                Ok(None)
            } else {
                pipe.recv(c, r)?;
                Ok(Some(c.mem_to_vec(r)?))
            }
        })
        .unwrap();
        assert_eq!(rep.results[1].as_ref().unwrap().as_ref().unwrap(), &expect);
    }

    #[test]
    fn small_and_odd_sizes() {
        round_trip(1, 96);
        round_trip(96 * 32, 96);
        round_trip(96 * 32 + 1, 96);
        round_trip(10_000, 96);
        round_trip(777, 3);
    }

    #[test]
    fn repeated_messages_share_the_pipe() {
        let rep = run_spmd(&cfg(2), |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut pipe = Pipe::between(&mut alloc, CoreId(0), CoreId(1), 16).unwrap();
            let mut ok = true;
            for round in 0..6u8 {
                let len = 100 + round as usize * 997;
                let msg: Vec<u8> = (0..len).map(|i| (i as u8) ^ round).collect();
                let r = MemRange::new(0, len);
                if c.core().index() == round as usize % 2 {
                    c.mem_write(0, &msg)?;
                    pipe.send(c, r)?;
                } else {
                    pipe.recv(c, r)?;
                    ok &= c.mem_to_vec(r)? == msg;
                }
            }
            Ok(ok)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }

    /// The point of the pipe: for large transfers it clearly beats the
    /// blocking RCCE send/receive because put and get overlap.
    #[test]
    fn pipelining_beats_blocking_sendrecv() {
        let len = 40 * 96 * 32;
        let time_with = |pipelined: bool| -> Time {
            let rep = run_spmd(&cfg(2), move |c| -> RmaResult<()> {
                let mut alloc = MpbAllocator::new();
                let r = MemRange::new(0, len);
                if pipelined {
                    let mut pipe = Pipe::between(&mut alloc, CoreId(0), CoreId(1), 96).unwrap();
                    if c.core().index() == 0 {
                        c.mem_write(0, &payload(len))?;
                        pipe.send(c, r)?;
                    } else {
                        pipe.recv(c, r)?;
                    }
                } else {
                    let comm = RcceComm::new(&mut alloc, 2).unwrap();
                    if c.core().index() == 0 {
                        c.mem_write(0, &payload(len))?;
                        comm.send(c, CoreId(1), r)?;
                    } else {
                        comm.recv(c, CoreId(0), r)?;
                    }
                }
                Ok(())
            })
            .unwrap();
            rep.makespan
        };
        let piped = time_with(true);
        let blocking = time_with(false);
        assert!(
            piped.as_ns_f64() < 0.75 * blocking.as_ns_f64(),
            "pipelined {piped} must clearly beat blocking {blocking}"
        );
    }

    #[test]
    fn endpoints_are_enforced() {
        let rep = run_spmd(&cfg(3), |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut pipe = Pipe::between(&mut alloc, CoreId(0), CoreId(1), 8).unwrap();
            if c.core().index() == 2 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = pipe.send(c, MemRange::new(0, 8));
                }));
                return Ok(r.is_err());
            }
            Ok(true)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }
}
