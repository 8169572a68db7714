//! One-sided scatter-allgather broadcast — the alternative design the
//! paper sketches in Section 5.4: "a good example of another possible
//! broadcast implementation is adapting the two-sided scatter-allgather
//! algorithm to use the one-sided primitives available on the SCC."
//!
//! Same communication structure as the RCCE_comm baseline (binomial
//! scatter of `P` slices, then `P − 1` ring rounds), but each hop is a
//! direct RMA pipeline through one [`Pipe`] instead of a rendezvous
//! send/receive: the producer `put`s chunks straight into the
//! consumer's double-buffered MPB halves, the consumer `get`s them to
//! off-chip memory, and the window's sequence flags alone pace the
//! two — no ready/sent handshake, no waiting for the partner to arrive.
//!
//! Protocol soundness notes (the subtle parts):
//!
//! * **Scatter** pairs change from step to step, so a sender drains
//!   each transfer ([`Pipe::drain`]) before starting the next one —
//!   otherwise a slow previous receiver's late `ready` write could
//!   clobber the current receiver's and wedge the sender. The scatter
//!   tree has no cycles, so draining cannot deadlock.
//! * **Allgather** pairs are fixed (always send to the left
//!   neighbour), so `ready` lines have a single writer each and rounds
//!   pipeline through the two halves with no drain. Every core both
//!   pushes and pulls in every round, which is a circular wait unless
//!   the two are interleaved: a round is one [`Pipe::exchange`], whose
//!   pulls lag its pushes by one chunk. (Pushing a whole slice before
//!   pulling deadlocks as soon as a slice outgrows the two halves —
//!   every core then waits on its consumer before serving its
//!   producer.)
//! * A trailing dissemination barrier separates consecutive
//!   collectives: the first puts of a new collective have no
//!   buffer-occupancy information about forsaken pairs from the
//!   previous one. Its ~6 flag rounds are noise against the large
//!   messages this algorithm targets.

use crate::scatter_allgather::slice_range;
use scc_hal::{
    delivering, spanned, CoreId, MemRange, Phase, Rma, RmaResult, Span, CACHE_LINE_BYTES,
};
use scc_rcce::{Barrier, MpbAllocator, MpbExhausted, Pipe};

/// Lines per buffer half, mirroring OC-Bcast's chunking.
const HALF_LINES: usize = 96;

/// One-sided scatter-allgather context (symmetric allocation).
#[derive(Clone, Debug)]
pub struct RmaSag {
    pipe: Pipe,
    barrier: Barrier,
    seq: u32,
    /// Invocation counter for journey annotations (see [`scc_hal::MsgId`]).
    epoch: u32,
}

impl RmaSag {
    /// Reserve the window (two 96-line halves plus four flag lines) and
    /// the barrier's lines.
    pub fn new(alloc: &mut MpbAllocator, num_cores: usize) -> Result<RmaSag, MpbExhausted> {
        let pipe = Pipe::new(alloc, HALF_LINES)?;
        let barrier = Barrier::new(alloc, num_cores)?;
        Ok(RmaSag { pipe, barrier, seq: 0, epoch: 0 })
    }

    pub fn release(self, alloc: &mut MpbAllocator) {
        self.pipe.release(alloc);
        self.barrier.release(alloc);
    }

    /// Collective broadcast with the one-sided scatter-allgather
    /// structure. All cores call with identical `root` and `msg`.
    pub fn bcast<R: Rma>(&mut self, c: &mut R, root: CoreId, msg: MemRange) -> RmaResult<()> {
        let p = c.num_cores();
        if msg.len == 0 || p <= 1 {
            return Ok(());
        }
        let me = c.core();
        let rr = (me.index() + p - root.index()) % p;
        let abs = |rel: usize| CoreId(((root.index() + rel) % p) as u8);
        let slices = |lo: usize, hi: usize| -> MemRange {
            let first = slice_range(msg, p, lo);
            let last = slice_range(msg, p, hi - 1);
            msg.slice(first.offset - msg.offset, last.end() - first.offset)
        };
        let epoch = self.epoch;
        self.epoch += 1;
        // Journey tags name absolute message lines: a fragment's tag is
        // its first cache line within the whole message.
        let tag = |r: MemRange| Some((epoch, ((r.offset - msg.offset) / CACHE_LINE_BYTES) as u32));

        // Deterministic sequence budget: scatter steps are numbered by
        // halving depth, allgather rounds after them; every transfer
        // gets a disjoint, globally agreed seq range.
        let max_group_chunks = self.pipe.chunks_of(msg.len) as u32 + 1;
        let scatter_steps = (p as f64).log2().ceil() as u32;
        let base = self.seq;
        let ag_base = base + scatter_steps * max_group_chunks;
        let slice_chunks = self.pipe.chunks_of(slice_range(msg, p, 0).len.max(1)) as u32;
        self.seq = ag_base + (p as u32 - 1) * slice_chunks;

        // ---- one-sided scatter (recursive halving) --------------------
        delivering(c, epoch, |c| {
            spanned(c, Span::of(Phase::Scatter), |c| {
                let mut lo = 0usize;
                let mut hi = p;
                let mut step = 0u32;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo).div_ceil(2);
                    let group = slices(mid, hi);
                    let seq_base = base + step * max_group_chunks;
                    if rr == lo {
                        // Changing receiver next step: drain.
                        self.pipe.push(c, abs(mid), group, seq_base, true, tag(group))?;
                        self.pipe.drain(c)?;
                    } else if rr == mid {
                        self.pipe.pull(c, abs(lo), group, seq_base, tag(group))?;
                    }
                    if rr < mid {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                    step += 1;
                }
                Ok(())
            })?;

            // Phase boundary. One-sided writes are unsolicited: a core that
            // finished its (short) scatter role would otherwise start
            // pushing allgather chunks into a neighbour still waiting for
            // its scatter reception, clobbering the shared buffer halves.
            // The two-sided baseline is immune because its rendezvous
            // matching orders the phases per pair; here a barrier does it.
            spanned(c, Span::new(Phase::Barrier, 0), |c| self.barrier.wait(c))?;

            // ---- one-sided ring allgather ---------------------------------
            let left = abs((rr + p - 1) % p);
            let right = abs((rr + 1) % p);
            spanned(c, Span::of(Phase::Allgather), |c| {
                for r in 0..p - 1 {
                    let out = slice_range(msg, p, (rr + r) % p);
                    let inc = slice_range(msg, p, (rr + r + 1) % p);
                    let seq_base = ag_base + r as u32 * slice_chunks;
                    spanned(c, Span::new(Phase::Round, r as u32), |c| {
                        let (out, inc) = ((left, out, tag(out)), (right, inc, tag(inc)));
                        self.pipe.exchange(c, out, inc, seq_base, true)
                    })?;
                }
                Ok(())
            })?;

            // Collective boundary: nobody may reuse buffers/flags until
            // every core has consumed its final chunks — after which
            // the window is known empty.
            spanned(c, Span::new(Phase::Barrier, 1), |c| self.barrier.wait(c))?;
            self.pipe.quiesced();
            Ok(())
        })
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

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed)).collect()
    }

    fn check(p: usize, root: u8, len: usize) {
        check_rounds(p, &[root], len);
    }

    /// One broadcast per root, back to back on one context, the payload
    /// (seeded by the root) verified at every core after each.
    fn check_rounds(p: usize, roots: &[u8], len: usize) {
        let rounds = roots.to_vec();
        let rep = run_spmd(&cfg(p), move |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut sag = RmaSag::new(&mut alloc, c.num_cores()).unwrap();
            let r = MemRange::new(0, len);
            let mut ok = true;
            for &root in &rounds {
                let msg = pattern(len, root);
                if c.core() == CoreId(root) {
                    c.mem_write(0, &msg)?;
                }
                sag.bcast(c, CoreId(root), r)?;
                ok &= c.mem_to_vec(r)? == msg;
            }
            Ok(ok)
        })
        .unwrap_or_else(|e| panic!("p={p} roots={roots:?} len={len}: {e}"));
        for (i, r) in rep.results.iter().enumerate() {
            assert!(*r.as_ref().unwrap(), "core {i} (p={p}, roots={roots:?}, len={len})");
        }
    }

    #[test]
    fn small_and_medium() {
        check(4, 0, 333);
        check(8, 0, 4 * 96 * 32);
        check(12, 3, 7000);
    }

    #[test]
    fn full_chip_throughput_message() {
        check(48, 0, 48 * 96 * 32);
    }

    #[test]
    fn odd_core_counts_and_short_messages() {
        check(3, 0, 100);
        check(7, 2, 5000);
        check(47, 1, 47 * 32);
        check(48, 0, 100); // empty slices
    }

    /// More than two chunks per slice (> 192 CL): a ring round no
    /// longer fits the window, and pushing a whole slice before pulling
    /// parks every core on its `ready` flag (`SimError::Deadlock`).
    #[test]
    fn slices_longer_than_the_window() {
        for (p, lines) in [(4usize, 193usize), (8, 300), (48, 193)] {
            check(p, 0, p * lines * 32);
        }
        check_rounds(24, &[0, 5, 10], 24 * 200 * 32);
    }

    #[test]
    fn repeated_collectives() {
        let rep = run_spmd(&cfg(8), |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut sag = RmaSag::new(&mut alloc, 8).unwrap();
            let mut ok = true;
            for round in 0..4u8 {
                let len = 1000 + round as usize * 3777;
                let msg = pattern(len, round);
                let root = CoreId(round % 8);
                let r = MemRange::new(0, len);
                if c.core() == root {
                    c.mem_write(0, &msg)?;
                }
                sag.bcast(c, root, r)?;
                ok &= c.mem_to_vec(r)? == msg;
            }
            Ok(ok)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }

    /// The Section 5.4 claim this extension exists to check: going
    /// one-sided roughly doubles scatter-allgather throughput, but
    /// OC-Bcast still wins — RMA alone is not enough, the algorithm
    /// shape (no per-hop off-chip round trips on the critical path)
    /// is what buys the rest.
    #[test]
    fn one_sided_beats_two_sided_but_loses_to_oc() {
        use crate::bcast::{Algorithm, Broadcaster};
        let bytes = 24 * 96 * 32;
        let time = |which: u8| -> f64 {
            let rep = run_spmd(&cfg(24), move |c| -> RmaResult<()> {
                let mut alloc = MpbAllocator::new();
                let r = MemRange::new(0, bytes);
                if c.core().index() == 0 {
                    c.mem_write(0, &pattern(bytes, 1))?;
                }
                match which {
                    0 => {
                        let mut sag = RmaSag::new(&mut alloc, 24).unwrap();
                        sag.bcast(c, CoreId(0), r)
                    }
                    1 => {
                        let mut b =
                            Broadcaster::new(&mut alloc, Algorithm::ScatterAllgather, 24).unwrap();
                        b.bcast(c, CoreId(0), r)
                    }
                    _ => {
                        let mut b =
                            Broadcaster::new(&mut alloc, Algorithm::oc_default(), 24).unwrap();
                        b.bcast(c, CoreId(0), r)
                    }
                }
            })
            .unwrap();
            rep.makespan.as_us_f64()
        };
        let one_sided = time(0);
        let two_sided = time(1);
        let oc = time(2);
        assert!(
            one_sided < 0.75 * two_sided,
            "one-sided s-ag must clearly beat two-sided: {one_sided:.0} vs {two_sided:.0} µs"
        );
        assert!(oc < one_sided, "OC-Bcast must still win: {oc:.0} vs {one_sided:.0} µs");
    }
}
