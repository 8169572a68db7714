//! Two-sided send/receive built on one-sided RMA, following the RCCE
//! protocol the paper's baselines use (Section 1.1: "The RCCE library
//! provides efficient one-sided put/get operations and uses them to
//! implement two-sided send/receive communication").
//!
//! Layout per core: `P` per-peer `ready` flags (one line each — line
//! granularity keeps every flag write atomic on the SCC, where only
//! whole-cache-line writes are atomic), a single `sent` flag, and a
//! payload buffer filling the rest of the MPB. Real RCCE packs its
//! per-peer flags as bits to leave 251 payload lines (`M_rcce` in the
//! paper); bit flags need read-modify-write cycles that are unsafe
//! under concurrent line-granularity writers, so we spend the lines and
//! keep a 207-line payload for 48 cores — the difference is one extra
//! handshake per ~6.6 KB, negligible against a 150 µs payload copy
//! (recorded as a deviation in DESIGN.md).
//!
//! Per chunk:
//!
//! ```text
//! receiver: set sender's READY[me] ─┐     ┌─ wait own SENT, reset it
//! sender:   wait own READY[dst], reset it, put chunk into receiver's
//!           MPB, set receiver's SENT ─────┘ receiver: get chunk to mem
//! ```
//!
//! Per-peer `ready` makes arbitrary concurrent matchings safe: a
//! receiver's pre-posted ready can never be swallowed by another
//! receiver's, and `sent` has exactly one matched writer at a time.
//!
//! The sender's `put` reads application data from off-chip memory
//! (`C^mem_put`) — or from L1 for a message that was just received and
//! is being forwarded (`send_cached`, the Section 5.2.2 assumption) —
//! and the receiver's `get` lands in off-chip memory (`C^mem_get`):
//! exactly the per-pair critical path that Formulas (14) and (16)
//! charge.

use crate::alloc::{MpbAllocator, MpbExhausted, MpbRegion};
use crate::flags::BinFlag;
use scc_hal::{CoreId, MemRange, MpbAddr, Rma, RmaResult, CACHE_LINE_BYTES};

/// The payload lines RCCE proper would have (bit-packed flags); kept as
/// the reference constant for the analytical model.
pub const M_RCCE_PAPER: usize = 251;

/// Symmetric two-sided communication context.
#[derive(Clone, Copy, Debug)]
pub struct RcceComm {
    /// `ready.line(peer)` — "peer is ready to receive from me".
    ready: MpbRegion,
    sent: BinFlag,
    payload: MpbRegion,
    num_cores: usize,
}

impl RcceComm {
    /// Reserve the context's MPB lines (identically on every core of a
    /// `num_cores` run). Grabs all remaining lines for the payload.
    pub fn new(alloc: &mut MpbAllocator, num_cores: usize) -> Result<RcceComm, MpbExhausted> {
        let ready = alloc.alloc(num_cores)?;
        let sent_region = alloc.alloc(1)?;
        let payload_lines = alloc.lines_free();
        let payload = alloc.alloc(payload_lines.max(1))?;
        Ok(RcceComm { ready, sent: BinFlag { line: sent_region.first_line }, payload, num_cores })
    }

    /// Like [`RcceComm::new`] but with an explicit payload size, so the
    /// context can share the MPB with other protocol contexts (e.g. an
    /// OC-Bcast context plus a small send/receive channel for
    /// point-to-point traffic). Smaller payload ⇒ more handshake
    /// chunks per message; semantics are unchanged.
    pub fn with_payload_lines(
        alloc: &mut MpbAllocator,
        num_cores: usize,
        payload_lines: usize,
    ) -> Result<RcceComm, MpbExhausted> {
        assert!(payload_lines >= 1);
        let ready = alloc.alloc(num_cores)?;
        let sent_region = alloc.alloc(1)?;
        let payload = alloc.alloc(payload_lines)?;
        Ok(RcceComm { ready, sent: BinFlag { line: sent_region.first_line }, payload, num_cores })
    }

    /// Release the context's lines.
    pub fn release(self, alloc: &mut MpbAllocator) {
        alloc.free(self.ready);
        alloc.free(MpbRegion { first_line: self.sent.line, lines: 1 });
        alloc.free(self.payload);
    }

    /// Blocking send of `src` (from private memory) to core `dst`.
    /// Must be matched by a [`RcceComm::recv`] on `dst`.
    pub fn send<R: Rma>(&self, c: &mut R, dst: CoreId, src: MemRange) -> RmaResult<()> {
        self.send_impl(c, dst, src, false)
    }

    /// Like [`RcceComm::send`], but the message is known to be hot in
    /// the sender's cache (a just-received message being forwarded, as
    /// in every non-root level of the baselines' trees).
    pub fn send_cached<R: Rma>(&self, c: &mut R, dst: CoreId, src: MemRange) -> RmaResult<()> {
        self.send_impl(c, dst, src, true)
    }

    fn send_impl<R: Rma>(
        &self,
        c: &mut R,
        dst: CoreId,
        src: MemRange,
        cached: bool,
    ) -> RmaResult<()> {
        assert!(dst.index() < self.num_cores && dst != c.core(), "bad send target {dst}");
        let ready_line = self.ready.line(dst.index());
        let me = c.core();
        let mut sent_bytes = 0usize;
        loop {
            let chunk = (src.len - sent_bytes).min(self.payload.lines * CACHE_LINE_BYTES);
            c.flag_wait_local(ready_line, &mut |v| v == BinFlag::SET)?;
            c.flag_put(MpbAddr::new(me, ready_line), BinFlag::UNSET)?;
            if chunk > 0 {
                let part = src.slice(sent_bytes, chunk);
                let dst_addr = MpbAddr::new(dst, self.payload.first_line);
                if cached {
                    c.put_from_mem_cached(part, dst_addr)?;
                } else {
                    c.put_from_mem(part, dst_addr)?;
                }
            }
            self.sent.set(c, dst)?;
            sent_bytes += chunk;
            if sent_bytes >= src.len {
                return Ok(());
            }
        }
    }

    /// Blocking receive from core `src` into `dst` (private memory).
    pub fn recv<R: Rma>(&self, c: &mut R, src: CoreId, dst: MemRange) -> RmaResult<()> {
        assert!(src.index() < self.num_cores && src != c.core(), "bad recv source {src}");
        let me = c.core();
        let my_ready_on_sender = self.ready.line(me.index());
        let mut recv_bytes = 0usize;
        loop {
            let chunk = (dst.len - recv_bytes).min(self.payload.lines * CACHE_LINE_BYTES);
            c.flag_put(MpbAddr::new(src, my_ready_on_sender), BinFlag::SET)?;
            self.sent.wait_set(c)?;
            self.sent.reset_local(c)?;
            if chunk > 0 {
                c.get_to_mem(
                    MpbAddr::new(me, self.payload.first_line),
                    dst.slice(recv_bytes, chunk),
                )?;
            }
            recv_bytes += chunk;
            if recv_bytes >= dst.len {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;
    use scc_sim::{run_spmd, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 256 * 1024, ..SimConfig::default() }
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    /// The default context: the payload takes every line left.
    fn whole_mpb(alloc: &mut MpbAllocator, num_cores: usize) -> RcceComm {
        RcceComm::new(alloc, num_cores).unwrap()
    }

    /// A 4-line payload allocated after another protocol's region, the
    /// way a context shares the MPB: many handshake chunks, none of its
    /// lines at the start of the MPB.
    fn four_lines_after_another(alloc: &mut MpbAllocator, num_cores: usize) -> RcceComm {
        alloc.alloc(8).unwrap();
        RcceComm::with_payload_lines(alloc, num_cores, 4).unwrap()
    }

    fn comm_for<R: Rma>(c: &R) -> RcceComm {
        whole_mpb(&mut MpbAllocator::new(), c.num_cores())
    }

    fn round_trip(ctx: fn(&mut MpbAllocator, usize) -> RcceComm, len: usize) {
        let msg = payload(len, 7);
        let expect = msg.clone();
        let rep = run_spmd(&cfg(2), move |c| -> RmaResult<Option<Vec<u8>>> {
            let comm = ctx(&mut MpbAllocator::new(), c.num_cores());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                comm.send(c, CoreId(1), MemRange::new(0, msg.len()))?;
                Ok(None)
            } else {
                comm.recv(c, CoreId(0), MemRange::new(0, msg.len()))?;
                Ok(Some(c.mem_to_vec(MemRange::new(0, msg.len()))?))
            }
        })
        .unwrap();
        let got = rep.results[1].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(got, &expect, "len {len}");
    }

    #[test]
    fn small_message() {
        round_trip(whole_mpb, 1);
        round_trip(whole_mpb, 32);
        round_trip(whole_mpb, 100);
    }

    #[test]
    fn exactly_one_chunk_and_multi_chunk() {
        // chunk size for a 2-core run: 256 - 2 - 1 = 253 lines.
        round_trip(whole_mpb, 253 * CACHE_LINE_BYTES);
        round_trip(whole_mpb, 253 * CACHE_LINE_BYTES + 1);
        round_trip(whole_mpb, 3 * 253 * CACHE_LINE_BYTES + 77);
        // A 4-line context: one chunk, two chunks, and 80 chunks.
        round_trip(four_lines_after_another, 128);
        round_trip(four_lines_after_another, 129);
        round_trip(four_lines_after_another, 10 * 1024);
    }

    #[test]
    fn chunk_count() {
        let mut alloc = MpbAllocator::new();
        let comm = RcceComm::new(&mut alloc, 48).unwrap();
        // The payload chunk takes every line the flags leave free.
        assert_eq!(comm.payload.lines, 256 - 48 - 1);
        let small = four_lines_after_another(&mut MpbAllocator::new(), 48);
        assert_eq!(small.payload.lines, 4);
    }

    #[test]
    fn relay_through_middle_core() {
        // 0 -> 1 -> 2, with core 1 forwarding from cache: the pattern of
        // every internal node of the binomial tree.
        let msg = payload(5000, 3);
        let expect = msg.clone();
        let rep = run_spmd(&cfg(3), move |c| -> RmaResult<Option<Vec<u8>>> {
            let comm = comm_for(c);
            let r = MemRange::new(0, msg.len());
            match c.core().index() {
                0 => {
                    c.mem_write(0, &msg)?;
                    comm.send(c, CoreId(1), r)?;
                    Ok(None)
                }
                1 => {
                    comm.recv(c, CoreId(0), r)?;
                    comm.send_cached(c, CoreId(2), r)?;
                    Ok(None)
                }
                _ => {
                    comm.recv(c, CoreId(1), r)?;
                    Ok(Some(c.mem_to_vec(r)?))
                }
            }
        })
        .unwrap();
        assert_eq!(rep.results[2].as_ref().unwrap().as_ref().unwrap(), &expect);
    }

    #[test]
    fn two_receivers_preposting_to_one_sender_do_not_deadlock() {
        // The hazard that forces per-peer ready flags: cores 1 and 2
        // both pre-post their recv before core 0's first send.
        let msg = payload(600, 9);
        let expect = msg.clone();
        let rep = run_spmd(&cfg(3), move |c| -> RmaResult<Option<Vec<u8>>> {
            let comm = comm_for(c);
            let r = MemRange::new(0, msg.len());
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
                // Give both receivers time to pre-post their ready flags.
                c.compute(scc_hal::Time::from_us_f64(50.0));
                comm.send(c, CoreId(1), r)?;
                comm.send(c, CoreId(2), r)?;
                Ok(None)
            } else {
                comm.recv(c, CoreId(0), r)?;
                Ok(Some(c.mem_to_vec(r)?))
            }
        })
        .unwrap();
        for i in [1usize, 2] {
            assert_eq!(rep.results[i].as_ref().unwrap().as_ref().unwrap(), &expect);
        }
    }

    #[test]
    fn cached_send_is_faster_on_the_simulator() {
        let msg = payload(8000, 1);
        let run = |cached: bool| -> scc_hal::Time {
            let msg = msg.clone();
            let rep = run_spmd(&cfg(2), move |c| -> RmaResult<()> {
                let comm = comm_for(c);
                let r = MemRange::new(0, msg.len());
                if c.core().index() == 0 {
                    c.mem_write(0, &msg)?;
                    if cached {
                        comm.send_cached(c, CoreId(1), r)?;
                    } else {
                        comm.send(c, CoreId(1), r)?;
                    }
                } else {
                    comm.recv(c, CoreId(0), r)?;
                }
                Ok(())
            })
            .unwrap();
            rep.makespan
        };
        let hot = run(true);
        let cold = run(false);
        assert!(hot < cold, "cached send must be faster: {hot} vs {cold}");
    }

    #[test]
    fn zero_length_message_still_synchronizes() {
        let rep = run_spmd(&cfg(2), |c| -> RmaResult<scc_hal::Time> {
            let comm = comm_for(c);
            if c.core().index() == 0 {
                comm.send(c, CoreId(1), MemRange::new(0, 0))?;
            } else {
                comm.recv(c, CoreId(0), MemRange::new(0, 0))?;
            }
            Ok(c.now())
        })
        .unwrap();
        // Both sides went through the flag handshake: time advanced.
        assert!(rep.results[1].as_ref().unwrap().as_ps() > 0);
    }

    #[test]
    fn release_returns_all_lines() {
        let mut alloc = MpbAllocator::new();
        let comm = RcceComm::new(&mut alloc, 48).unwrap();
        assert_eq!(alloc.lines_free(), 0);
        comm.release(&mut alloc);
        assert_eq!(alloc.lines_free(), 256);
        let small = four_lines_after_another(&mut alloc, 48);
        assert_eq!(alloc.lines_free(), 256 - 8 - 48 - 1 - 4);
        small.release(&mut alloc);
        assert_eq!(alloc.lines_free(), 256 - 8);
    }
}
