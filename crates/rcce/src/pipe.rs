//! The double-buffered RMA window of the one-sided scatter-allgather
//! (`oc_bcast::RmaSag`) — iRCCE's pipelining (Clauss et al., the library
//! the paper credits for the double-buffering idea, Section 4.2) as
//! one reusable protocol instead of one copy per collective.
//!
//! A [`Pipe`] reserves, at the same lines on every core, two payload
//! halves and two sequence flags per half. A producer `put`s chunk `i`
//! of a transfer into half `i mod 2` of the *consumer's* MPB and raises
//! the consumer's `sent` flag for that half; the consumer `get`s the
//! chunk to off-chip memory and raises the producer's `ready` flag. The
//! producer refills a half only once the chunk it last put there is
//! known consumed, so its `put` of chunk `i + 1` overlaps the
//! consumer's `get` of chunk `i` and a large transfer approaches
//! `max(put, get)` per chunk instead of their sum.
//!
//! Flags carry absolute sequence numbers (like OC-Bcast), so nothing is
//! ever reset. The *caller* owns the numbering: chunk `i` of a transfer
//! is sequence `seq_base + i + 1`, both ends pass the same `seq_base`,
//! and a core's successive transfers use increasing, disjoint ranges
//! ([`Pipe::chunks_of`] says how many a transfer takes). The pipe owns
//! the occupancy: which sequence it last put into each half and has not
//! yet seen consumed. That state carries across transfers, so a second
//! [`Pipe::push`] to a consumer that has not caught up waits instead of
//! overwriting. Who talks to whom is the caller's protocol too, with
//! two rules: only one producer may target a core's halves at a time,
//! and before the *consumer* of this core's pushes changes, the
//! producer must [`Pipe::drain`] — or pass a barrier that proves
//! consumption and call [`Pipe::quiesced`] — because `ready` lines have
//! one writer at a time.

use crate::alloc::{MpbAllocator, MpbExhausted, MpbRegion};
use crate::flags::SeqFlag;
use scc_hal::{
    bytes_to_lines, tagged, CoreId, MemRange, MpbAddr, MsgId, Rma, RmaResult, CACHE_LINE_BYTES,
};

/// Journey annotation of a transfer: `(epoch, first_line)`, the
/// collective invocation and the transfer's first cache line within the
/// whole message. Chunk `i` is recorded as the [`MsgId`] of that epoch
/// at line `first_line + i × half_lines`; `None` records no tags.
pub type Tag = Option<(u32, u32)>;

/// One side of a transfer: the peer core, this core's private-memory
/// range, and the transfer's [`Tag`].
pub type Leg = (CoreId, MemRange, Tag);

/// A double-buffered one-sided window (symmetric allocation).
#[derive(Clone, Debug)]
pub struct Pipe {
    /// `sent` for halves 0 and 1 (polled by the consumer), then `ready`
    /// for halves 0 and 1 (polled by the producer).
    flags: MpbRegion,
    halves: [MpbRegion; 2],
    /// Per half: the sequence this core last put there (in a peer's
    /// MPB) and does not yet know consumed; 0 when the half is free.
    unconsumed: [u32; 2],
}

impl Pipe {
    /// Reserve four flag lines plus `2 × half_lines` payload lines.
    pub fn new(alloc: &mut MpbAllocator, half_lines: usize) -> Result<Pipe, MpbExhausted> {
        assert!(half_lines >= 1);
        let flags = alloc.alloc(4)?;
        let halves = [alloc.alloc(half_lines)?, alloc.alloc(half_lines)?];
        Ok(Pipe { flags, halves, unconsumed: [0; 2] })
    }

    /// Release the pipe's MPB lines.
    pub fn release(self, alloc: &mut MpbAllocator) {
        alloc.free(self.flags);
        alloc.free(self.halves[0]);
        alloc.free(self.halves[1]);
    }

    /// Bytes carried per pipeline chunk.
    pub fn chunk_bytes(&self) -> usize {
        self.halves[0].lines * CACHE_LINE_BYTES
    }

    /// Chunks (and sequence numbers) a transfer of `bytes` takes; an
    /// empty transfer takes none and moves nothing.
    pub fn chunks_of(&self, bytes: usize) -> usize {
        bytes_to_lines(bytes).div_ceil(self.halves[0].lines)
    }

    fn sent(&self, h: usize) -> SeqFlag {
        SeqFlag { line: self.flags.line(h) }
    }

    fn ready(&self, h: usize) -> SeqFlag {
        SeqFlag { line: self.flags.line(2 + h) }
    }

    /// Chunk `i` of the transfer `r`.
    fn chunk(&self, r: MemRange, i: usize) -> MemRange {
        let off = i * self.chunk_bytes();
        r.slice(off, (r.len - off).min(self.chunk_bytes()))
    }

    fn msg(&self, tag: Tag, from: CoreId, to: CoreId, i: usize) -> Option<MsgId> {
        tag.map(|(epoch, first)| {
            MsgId::new(epoch, from, to, first + (i * self.halves[0].lines) as u32)
        })
    }

    /// Block until the chunk last put into half `h` has been consumed.
    fn wait_consumed<R: Rma>(&self, c: &mut R, h: usize) -> RmaResult<()> {
        if self.unconsumed[h] > 0 {
            self.ready(h).wait_ge(c, self.unconsumed[h])?;
        }
        Ok(())
    }

    /// Producer step: put chunk `i` and raise its `sent` flag.
    fn put_chunk<R: Rma>(
        &mut self,
        c: &mut R,
        (dst, src, tag): Leg,
        i: usize,
        seq_base: u32,
        cached: bool,
    ) -> RmaResult<()> {
        let (h, seq, me) = (i % 2, seq_base + i as u32 + 1, c.core());
        self.wait_consumed(c, h)?;
        let (part, to) = (self.chunk(src, i), MpbAddr::new(dst, self.halves[h].first_line));
        tagged(c, self.msg(tag, me, dst, i), |c| {
            if cached {
                c.put_from_mem_cached(part, to)?;
            } else {
                c.put_from_mem(part, to)?;
            }
            self.sent(h).signal(c, dst, seq)
        })?;
        self.unconsumed[h] = seq;
        Ok(())
    }

    /// Consumer step: await chunk `i`, get it, raise its `ready` flag.
    fn get_chunk<R: Rma>(
        &self,
        c: &mut R,
        (src, dst, tag): Leg,
        i: usize,
        seq_base: u32,
    ) -> RmaResult<()> {
        let (h, seq, me) = (i % 2, seq_base + i as u32 + 1, c.core());
        self.sent(h).wait_ge(c, seq)?;
        let from = MpbAddr::new(me, self.halves[h].first_line);
        tagged(c, self.msg(tag, src, me, i), |c| c.get_to_mem(from, self.chunk(dst, i)))?;
        tagged(c, self.msg(tag, me, src, i), |c| self.ready(h).signal(c, src, seq))
    }

    /// Producer side of one transfer: put `src` into `dst`'s halves
    /// chunk by chunk; must be matched by one [`Pipe::pull`] of the same
    /// length and `seq_base` there. Returns once the last chunk is put,
    /// not consumed. `cached` reads `src` through the L1
    /// ([`Rma::put_from_mem_cached`]: it was just written by a `get`).
    pub fn push<R: Rma>(
        &mut self,
        c: &mut R,
        dst: CoreId,
        src: MemRange,
        seq_base: u32,
        cached: bool,
        tag: Tag,
    ) -> RmaResult<()> {
        (0..self.chunks_of(src.len))
            .try_for_each(|i| self.put_chunk(c, (dst, src, tag), i, seq_base, cached))
    }

    /// Consumer side of one transfer: receive `dst.len` bytes pushed by
    /// `src` into this core's halves.
    pub fn pull<R: Rma>(
        &self,
        c: &mut R,
        src: CoreId,
        dst: MemRange,
        seq_base: u32,
        tag: Tag,
    ) -> RmaResult<()> {
        (0..self.chunks_of(dst.len))
            .try_for_each(|i| self.get_chunk(c, (src, dst, tag), i, seq_base))
    }

    /// One step of a ring or shift: push `out` while pulling `inc`, for
    /// rounds in which *every* core does both. The pulls lag the pushes
    /// by one chunk — put 0, put 1, get 0, put 2, get 1, … — so each
    /// wait is for something its peer does strictly earlier in its own
    /// schedule, and a cycle of exchanging cores cannot wedge however
    /// many chunks a slice takes (push-everything-then-pull does, past
    /// the two chunks the halves hold). Up to two chunks this *is*
    /// "push, then pull".
    pub fn exchange<R: Rma>(
        &mut self,
        c: &mut R,
        out: Leg,
        inc: Leg,
        seq_base: u32,
        cached: bool,
    ) -> RmaResult<()> {
        let (n_out, n_in) = (self.chunks_of(out.1.len), self.chunks_of(inc.1.len));
        for i in 0..n_out.max(n_in + 1) {
            if i < n_out {
                self.put_chunk(c, out, i, seq_base, cached)?;
            }
            if (1..=n_in).contains(&i) {
                self.get_chunk(c, inc, i - 1, seq_base)?;
            }
        }
        Ok(())
    }

    /// Wait until everything this core pushed has been consumed.
    pub fn drain<R: Rma>(&mut self, c: &mut R) -> RmaResult<()> {
        self.wait_consumed(c, 0)?;
        self.wait_consumed(c, 1)?;
        self.quiesced();
        Ok(())
    }

    /// Note that everything this core pushed has been consumed, because
    /// a barrier the caller just passed already proved it.
    pub fn quiesced(&mut self) {
        self.unconsumed = [0; 2];
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
            let mut pipe = Pipe::new(&mut alloc, half_lines).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                pipe.push(c, CoreId(1), r, 0, false, None)?;
                Ok(None)
            } else {
                pipe.pull(c, CoreId(0), r, 0, None)?;
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
            let mut pipe = Pipe::new(&mut alloc, 16).unwrap();
            let peer = CoreId(1 - c.core().0);
            let (mut ok, mut seq) = (true, 0u32);
            for round in 0..6u8 {
                let len = 100 + round as usize * 997;
                let msg: Vec<u8> = (0..len).map(|i| (i as u8) ^ round).collect();
                let r = MemRange::new(0, len);
                if c.core().index() == round as usize % 2 {
                    c.mem_write(0, &msg)?;
                    pipe.push(c, peer, r, seq, false, None)?;
                } else {
                    pipe.pull(c, peer, r, seq, None)?;
                    ok &= c.mem_to_vec(r)? == msg;
                }
                seq += pipe.chunks_of(len) as u32;
            }
            Ok(ok)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }

    /// A half is reused only once the chunk last put there — by *any*
    /// earlier transfer, not just this one — was consumed; gating reuse
    /// per transfer delivers `0xBB…` twice here.
    #[test]
    fn back_to_back_pushes_wait_for_a_slow_consumer() {
        let rep = run_spmd(&cfg(2), |c| -> RmaResult<Vec<Vec<u8>>> {
            let mut alloc = MpbAllocator::new();
            let mut pipe = Pipe::new(&mut alloc, 8).unwrap();
            let (a, b) = (MemRange::new(0, 64), MemRange::new(64, 64));
            if c.core().index() == 0 {
                c.mem_write(a.offset, &[0xAA; 64])?;
                c.mem_write(b.offset, &[0xBB; 64])?;
                pipe.push(c, CoreId(1), a, 0, false, None)?;
                pipe.push(c, CoreId(1), b, 1, false, None)?;
                Ok(vec![])
            } else {
                c.compute(Time::from_us_f64(50.0));
                pipe.pull(c, CoreId(0), a, 0, None)?;
                pipe.pull(c, CoreId(0), b, 1, None)?;
                Ok(vec![c.mem_to_vec(a)?, c.mem_to_vec(b)?])
            }
        })
        .unwrap();
        assert_eq!(rep.results[1].as_ref().unwrap(), &[vec![0xAA; 64], vec![0xBB; 64]]);
    }

    /// A ring of cores all exchanging slices longer than the two
    /// halves: the lagged schedule delivers where push-then-pull would
    /// leave every core waiting on its consumer.
    #[test]
    fn exchange_ring_with_slices_longer_than_the_window() {
        for (p, chunks) in [(2usize, 3usize), (3, 5), (5, 4)] {
            let len = chunks * 4 * 32 - 7;
            let rep = run_spmd(&cfg(p), move |c| -> RmaResult<bool> {
                let mut alloc = MpbAllocator::new();
                let mut pipe = Pipe::new(&mut alloc, 4).unwrap();
                let me = c.core().index();
                let (to, from) = (CoreId(((me + 1) % p) as u8), CoreId(((me + p - 1) % p) as u8));
                let (out, inc) = (MemRange::new(0, len), MemRange::new(1 << 16, len));
                let mut ok = true;
                for round in 0..3u32 {
                    let fill = |who: usize| -> Vec<u8> {
                        (0..len).map(|i| (i as u8) ^ (who as u8 * 37 + round as u8)).collect()
                    };
                    c.mem_write(out.offset, &fill(me))?;
                    let seq = round * chunks as u32;
                    pipe.exchange(c, (to, out, None), (from, inc, None), seq, false)?;
                    ok &= c.mem_to_vec(inc)? == fill(from.index());
                }
                pipe.drain(c)?;
                Ok(ok)
            })
            .unwrap_or_else(|e| panic!("p={p} chunks={chunks}: {e}"));
            assert!(rep.results.into_iter().all(|r| r.unwrap()), "p={p} chunks={chunks}");
        }
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
                    let mut pipe = Pipe::new(&mut alloc, 96).unwrap();
                    if c.core().index() == 0 {
                        c.mem_write(0, &payload(len))?;
                        pipe.push(c, CoreId(1), r, 0, false, None)?;
                    } else {
                        pipe.pull(c, CoreId(0), r, 0, None)?;
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
}
