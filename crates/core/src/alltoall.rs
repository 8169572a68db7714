//! Personalized one-sided collectives: scatter, gather and all-to-all.
//!
//! These round out the collective family the paper's Section 7 aims at
//! (and that RCKMPI would need), built from the same ingredients as
//! OC-Bcast and over the same window as the one-sided
//! scatter-allgather: every transfer is a [`Pipe`] push into the
//! consumer's double-buffered MPB halves and a pull to off-chip memory.
//!
//! Communication structure:
//!
//! * [`OnesidedGroup::scatter`] — the root pushes slice `j` of its
//!   buffer directly to core `j`, pipelined per destination. The root
//!   moves each byte exactly once (the same aggregate as a tree
//!   scatter, without intermediate copies).
//! * [`OnesidedGroup::gather`] — the mirror image: every core pushes
//!   its slice to the root, which drains them in rank order, granting
//!   each producer its turn through a flag of the group's own.
//! * [`OnesidedGroup::alltoall`] — `P − 1` shift rounds; in round `r`
//!   core `i` exchanges ([`Pipe::exchange`]) its slice for core `i + r`
//!   against the one from core `i − r`. Rounds are barrier-separated:
//!   with changing partners, unsolicited one-sided writes would
//!   otherwise race ahead into buffers a slower core is still using
//!   (the same hazard the one-sided scatter-allgather's phase barrier
//!   handles; see `rma_sag`).
//!
//! Slices are the deterministic line-aligned partition of
//! [`crate::scatter_allgather::slice_range`]; `alltoall` interprets the
//! send buffer as `P` such slices and writes the receive buffer in the
//! same layout.

use crate::scatter_allgather::slice_range;
use scc_hal::{CoreId, MemRange, Rma, RmaResult};
use scc_rcce::{Barrier, MpbAllocator, MpbExhausted, MpbRegion, Pipe, SeqFlag};

/// Context for the personalized collectives (symmetric allocation).
#[derive(Clone, Debug)]
pub struct OnesidedGroup {
    pipe: Pipe,
    barrier: Barrier,
    /// One line: the gather root's "your turn" grant to a producer.
    turn: MpbRegion,
    seq: u32,
}

impl OnesidedGroup {
    pub fn new(
        alloc: &mut MpbAllocator,
        num_cores: usize,
        half_lines: usize,
    ) -> Result<OnesidedGroup, MpbExhausted> {
        let pipe = Pipe::new(alloc, half_lines)?;
        let barrier = Barrier::new(alloc, num_cores)?;
        Ok(OnesidedGroup { pipe, barrier, turn: alloc.alloc(1)?, seq: 0 })
    }

    pub fn with_defaults(
        alloc: &mut MpbAllocator,
        num_cores: usize,
    ) -> Result<OnesidedGroup, MpbExhausted> {
        Self::new(alloc, num_cores, 96)
    }

    pub fn release(self, alloc: &mut MpbAllocator) {
        self.pipe.release(alloc);
        self.barrier.release(alloc);
        alloc.free(self.turn);
    }

    /// Reserve one sequence range per core for a rooted collective over
    /// `msg`; the result maps `j` to core `j`, its slice and the base
    /// of its range.
    fn slices(&mut self, msg: MemRange, p: usize) -> impl Fn(usize) -> (CoreId, MemRange, u32) {
        let stride = self.pipe.chunks_of(slice_range(msg, p, 0).len.max(1)) as u32;
        let base = self.seq;
        self.seq += p as u32 * stride;
        move |j| (CoreId(j as u8), slice_range(msg, p, j), base + j as u32 * stride)
    }

    /// Scatter: the `root`'s `msg` buffer is cut into `P` slices; core
    /// `j` receives slice `j` into the same sub-range of its own
    /// buffer. (Slice `root` stays in place.)
    pub fn scatter<R: Rma>(&mut self, c: &mut R, root: CoreId, msg: MemRange) -> RmaResult<()> {
        let p = c.num_cores();
        if msg.len == 0 || p <= 1 {
            return Ok(());
        }
        let slice_of = self.slices(msg, p);
        if c.core() == root {
            for j in (0..p).filter(|&j| j != root.index()) {
                let (to, slice, seq_base) = slice_of(j);
                self.pipe.push(c, to, slice, seq_base, false, None)?;
                // Changing receiver: drain.
                self.pipe.drain(c)?;
            }
        } else {
            let (_, slice, seq_base) = slice_of(c.core().index());
            self.pipe.pull(c, root, slice, seq_base, None)?;
        }
        // Collective boundary (next collective may have different pairs).
        self.barrier.wait(c)
    }

    /// Gather: core `j`'s slice `j` lands in the root's buffer; the
    /// mirror image of [`OnesidedGroup::scatter`].
    pub fn gather<R: Rma>(&mut self, c: &mut R, root: CoreId, msg: MemRange) -> RmaResult<()> {
        let p = c.num_cores();
        if msg.len == 0 || p <= 1 {
            return Ok(());
        }
        let slice_of = self.slices(msg, p);
        // The root's two MPB halves are the shared resource: producers
        // must take turns, or their chunks and sequence flags clobber
        // each other. The root grants producer `j` its turn (the first
        // sequence of `j`'s range, in `j`'s own MPB) right before
        // pulling from it.
        let turn = SeqFlag { line: self.turn.first_line };
        if c.core() == root {
            for j in (0..p).filter(|&j| j != root.index()) {
                let (from, slice, seq_base) = slice_of(j);
                if slice.len > 0 {
                    turn.signal(c, from, seq_base + 1)?;
                    self.pipe.pull(c, from, slice, seq_base, None)?;
                }
            }
        } else {
            let (_, slice, seq_base) = slice_of(c.core().index());
            if slice.len > 0 {
                turn.wait_ge(c, seq_base + 1)?;
                self.pipe.push(c, root, slice, seq_base, false, None)?;
                self.pipe.drain(c)?;
            }
        }
        self.barrier.wait(c)
    }

    /// Personalized all-to-all: `send` holds `P` slices (slice `j` is
    /// this core's message for core `j`); afterwards `recv` holds `P`
    /// slices where slice `j` is the message *from* core `j`. `send`
    /// and `recv` must not overlap. Own slice is copied locally.
    pub fn alltoall<R: Rma>(&mut self, c: &mut R, send: MemRange, recv: MemRange) -> RmaResult<()> {
        assert!(
            send.end() <= recv.offset || recv.end() <= send.offset,
            "send and recv buffers must not overlap"
        );
        assert_eq!(send.len, recv.len, "send and recv must have identical layout");
        let p = c.num_cores();
        if send.len == 0 {
            return Ok(());
        }
        let me = c.core().index();

        // Own slice: plain local copy (untimed host move would be
        // cheating; go through the MPB like everyone else? The SCC
        // would memcpy within private memory — model as a get-free
        // host copy).
        let mine_src = slice_range(send, p, me);
        let mine_dst = slice_range(recv, p, me);
        if mine_src.len > 0 {
            let mut buf = vec![0u8; mine_src.len];
            c.mem_read(mine_src.offset, &mut buf)?;
            c.mem_write(mine_dst.offset, &buf)?;
        }

        let max_chunks = self.pipe.chunks_of(slice_range(send, p, 0).len.max(1)) as u32;
        for r in 1..p {
            let to = (me + r) % p;
            let from = (me + p - r) % p;
            let out = (CoreId(to as u8), slice_range(send, p, to), None);
            let inc = (CoreId(from as u8), slice_range(recv, p, from), None);
            // Each round is a permutation (shift by r) whose cycles all
            // push and pull at once: the lagged exchange keeps them
            // from wedging. The barrier separates rounds because
            // partners change — and proves the window empty.
            self.pipe.exchange(c, out, inc, self.seq, false)?;
            self.seq += max_chunks;
            self.barrier.wait(c)?;
            self.pipe.quiesced();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;
    use scc_sim::{run_spmd, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 1 << 21, ..SimConfig::default() }
    }

    #[test]
    fn scatter_distributes_slices() {
        let p = 8;
        let len = 4000;
        let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let expect = msg.clone();
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<Vec<u8>> {
            let mut alloc = MpbAllocator::new();
            let mut g = OnesidedGroup::with_defaults(&mut alloc, p).unwrap();
            let r = MemRange::new(0, len);
            if c.core().index() == 2 {
                c.mem_write(0, &msg)?;
            }
            g.scatter(c, CoreId(2), r)?;
            let mine = slice_range(r, p, c.core().index());
            c.mem_to_vec(mine)
        })
        .unwrap();
        let r = MemRange::new(0, len);
        for (i, res) in rep.results.iter().enumerate() {
            let s = slice_range(r, p, i);
            assert_eq!(res.as_ref().unwrap(), &expect[s.offset..s.end()], "core {i}");
        }
    }

    #[test]
    fn gather_collects_slices() {
        let p = 8;
        let len = 6000;
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<Vec<u8>> {
            let mut alloc = MpbAllocator::new();
            let mut g = OnesidedGroup::with_defaults(&mut alloc, p).unwrap();
            let r = MemRange::new(0, len);
            let me = c.core().index();
            let mine = slice_range(r, p, me);
            let fill: Vec<u8> = (0..mine.len).map(|i| (i as u8) ^ (me as u8 * 11)).collect();
            c.mem_write(mine.offset, &fill)?;
            g.gather(c, CoreId(0), r)?;
            c.mem_to_vec(r)
        })
        .unwrap();
        let r = MemRange::new(0, len);
        let got = rep.results[0].as_ref().unwrap();
        for j in 0..p {
            let s = slice_range(r, p, j);
            for i in 0..s.len {
                assert_eq!(got[s.offset + i], (i as u8) ^ (j as u8 * 11), "slice {j}");
            }
        }
    }

    #[test]
    fn alltoall_transposes() {
        let p = 6;
        let len = 6 * 96; // one-and-a-half lines per slice
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<Vec<u8>> {
            let mut alloc = MpbAllocator::new();
            let mut g = OnesidedGroup::with_defaults(&mut alloc, p).unwrap();
            let send = MemRange::new(0, len);
            let recv = MemRange::new(8192, len);
            let me = c.core().index() as u8;
            // Slice j carries the pair (me, j) pattern.
            for j in 0..p {
                let s = slice_range(send, p, j);
                let fill: Vec<u8> =
                    (0..s.len).map(|i| me * 16 + j as u8 + (i as u8 & 0xC0)).collect();
                c.mem_write(s.offset, &fill)?;
            }
            g.alltoall(c, send, recv)?;
            c.mem_to_vec(recv)
        })
        .unwrap();
        let recv = MemRange::new(8192, len);
        for (i, res) in rep.results.iter().enumerate() {
            let got = res.as_ref().unwrap();
            for j in 0..p {
                // recv slice j at core i must be (from=j, to=i).
                let s = slice_range(MemRange::new(0, len), p, j);
                for b in 0..s.len {
                    let expect = (j as u8) * 16 + i as u8 + (b as u8 & 0xC0);
                    assert_eq!(got[s.offset + b], expect, "core {i} recv slice {j} byte {b}");
                }
            }
        }
        let _ = recv;
    }

    /// `rounds` all-to-alls of `slice_bytes` per pair on one context
    /// with `half_lines`-line halves; every received byte is checked
    /// against its (from, to, round) pattern.
    fn transposes(p: usize, half_lines: usize, slice_bytes: usize, rounds: u8) {
        let len = p * slice_bytes;
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut g = OnesidedGroup::new(&mut alloc, p, half_lines).unwrap();
            let send = MemRange::new(0, len);
            let recv = MemRange::new((len + 64).next_multiple_of(32), len);
            let me = c.core().index() as u8;
            let fill = |from: u8, to: u8, round: u8, i: usize| {
                (i as u8).wrapping_mul(7) ^ (from * 13 + to + round * 101)
            };
            let mut ok = true;
            for round in 0..rounds {
                for j in 0..p {
                    let s = slice_range(send, p, j);
                    let out: Vec<u8> = (0..s.len).map(|i| fill(me, j as u8, round, i)).collect();
                    c.mem_write(s.offset, &out)?;
                }
                g.alltoall(c, send, recv)?;
                for j in 0..p {
                    let got = c.mem_to_vec(slice_range(recv, p, j))?;
                    ok &= got.iter().enumerate().all(|(i, &b)| b == fill(j as u8, me, round, i));
                }
            }
            Ok(ok)
        })
        .unwrap_or_else(|e| panic!("p={p} half={half_lines} slice={slice_bytes}: {e}"));
        assert!(rep.results.into_iter().all(|r| r.unwrap()), "p={p} half={half_lines}");
    }

    #[test]
    fn alltoall_large_slices_and_odd_p() {
        transposes(5, 96, 3 * 96 * 32, 1); // 3 chunks per slice
    }

    /// Slices longer than the window, shifts with one cycle and with
    /// several (even and odd), and a context that is used again: every
    /// member of a shift cycle pushes and pulls at once, so only the
    /// interleaving of the two keeps a round from wedging.
    #[test]
    fn alltoall_three_chunk_slices_on_a_reused_context() {
        for p in [4, 6, 7] {
            transposes(p, 8, 3 * 8 * 32 - 5, 2);
        }
    }

    #[test]
    fn repeated_collectives_share_the_context() {
        let p = 4;
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut g = OnesidedGroup::with_defaults(&mut alloc, p).unwrap();
            let len = 2000;
            let r = MemRange::new(0, len);
            let mut ok = true;
            for round in 0..3u8 {
                let msg: Vec<u8> = (0..len).map(|i| (i as u8) ^ round).collect();
                if c.core().index() == round as usize % p {
                    c.mem_write(0, &msg)?;
                }
                g.scatter(c, CoreId(round % p as u8), r)?;
                g.gather(c, CoreId(round % p as u8), r)?;
                if c.core().index() == round as usize % p {
                    ok &= c.mem_to_vec(r)? == msg;
                }
            }
            Ok(ok)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }
}
