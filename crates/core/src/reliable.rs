//! Reliability layer: timeout + bounded-backoff retry and ack-verified
//! delivery for the collectives, tolerating the fault classes the
//! simulator can inject (`scc_sim::FaultPlan`): lost doorbell
//! notifications, delayed line transfers and slowed cores.
//!
//! # The recovery principle: local mirrors + remote probes
//!
//! The simulator's fault model (mirroring what can actually go wrong
//! on the SCC's doorbell-free MPB protocol) only ever *drops* remote
//! flag puts — payload transfers and local flag writes always land,
//! at worst late. The reliable protocols exploit this asymmetry:
//! every remote flag put that matters is mirrored by a **local**
//! progress publish into the writer's own MPB (which cannot be lost),
//! and every wait on a remote-writable flag carries a deadline. When
//! the deadline fires, the waiter **probes** the peer's progress
//! mirror with a one-line `get` (gets are never dropped): if the
//! mirror shows the awaited event already happened, only the
//! notification was lost and the waiter proceeds as if it had
//! arrived; otherwise the peer is merely slow, and the waiter backs
//! off exponentially and re-waits. Because both ends of every
//! handshake recover independently this way, a dropped flag in either
//! direction stalls neither side for longer than a few probe rounds.
//!
//! A [`Reliability`] policy only sets the deadlines and the retry
//! budget. *Whether* a broadcast is reliable is decided by the context
//! it runs on: [`crate::OcBcast::new_reliable`] arms the one OC-Bcast
//! chunk loop with it, [`ReliableBinomial`] is the baseline's reliable
//! form, and [`crate::Broadcaster::new_reliable`] picks between them.

use crate::tree::{binomial_children, binomial_parent};
use scc_hal::{
    bytes_to_lines, delivering, spanned, tagged, CoreId, FlagValue, MemRange, MpbAddr, MsgId,
    Phase, Rma, RmaError, RmaResult, Span, Time, CACHE_LINE_BYTES,
};
use scc_rcce::{MpbAllocator, MpbExhausted, MpbRegion};

/// Retry policy for the reliable collectives: how long a flag wait is
/// patient and how often it retries. The plain protocols are reached
/// by building a plain context, not through a policy value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reliability {
    /// Patience of the first wait on any flag; later attempts multiply
    /// it by `backoff`.
    pub timeout: Time,
    /// Recovery attempts per wait before giving up with
    /// [`RmaError::Timeout`]. Total patience is roughly
    /// `timeout * (backoff^(max_retries+1) - 1)`.
    pub max_retries: u32,
    /// Patience multiplier per attempt (values `< 2` are clamped to
    /// keep total patience finite but growing).
    pub backoff: u32,
}

impl Reliability {
    /// Parameters that sit well above the longest legitimate wait of
    /// most shipped runs, so failure-free runs rarely probe spuriously
    /// (a spurious probe is harmless — it only costs a one-line get).
    pub fn standard() -> Reliability {
        Reliability { timeout: Time::from_us_f64(150.0), max_retries: 12, backoff: 2 }
    }
}

/// Counters of what the recovery machinery actually did; useful to
/// assert that fault runs exercised it and failure-free runs (mostly)
/// did not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Deadline expiries on flag waits.
    pub timeouts: u64,
    /// One-line gets of a peer's progress mirror.
    pub probes: u64,
    /// Waits satisfied by a probe instead of the awaited flag.
    pub recoveries: u64,
    /// Notifications re-sent to children presumed to have missed one.
    pub renotifies: u64,
}

impl RelStats {
    pub fn accumulate(&mut self, o: RelStats) {
        self.timeouts += o.timeouts;
        self.probes += o.probes;
        self.recoveries += o.recoveries;
        self.renotifies += o.renotifies;
    }
}

/// One-line get of `target`'s MPB line into our `scratch` line,
/// decoded as a flag value: how a waiter inspects a peer's locally
/// published progress mirror. Gets are delayed at worst, never
/// dropped, so probes always terminate.
pub(crate) fn probe_remote_flag<R: Rma>(
    c: &mut R,
    stats: &mut RelStats,
    target: CoreId,
    line: usize,
    scratch: usize,
) -> RmaResult<u32> {
    stats.probes += 1;
    c.get_to_mpb(MpbAddr::new(target, line), scratch, 1)?;
    Ok(c.flag_read_local(scratch)?.0)
}

/// Wait until our copy of `line` reaches `want`, with the policy's
/// deadline/retry schedule. On each expiry, `recover` may declare the
/// condition effectively met (it probed a peer's progress mirror and
/// found the awaited event already happened — only the flag was
/// lost); otherwise the wait repeats with multiplied patience.
pub(crate) fn wait_ge_or_recover<R, F>(
    c: &mut R,
    policy: &Reliability,
    stats: &mut RelStats,
    line: usize,
    want: u32,
    mut recover: F,
) -> RmaResult<()>
where
    R: Rma,
    F: FnMut(&mut R, &mut RelStats) -> RmaResult<bool>,
{
    let mut patience = policy.timeout;
    for _ in 0..=policy.max_retries {
        let deadline = c.now() + patience;
        match c.flag_wait_local_until(line, &mut |v| v.0 >= want, deadline) {
            Ok(_) => return Ok(()),
            Err(RmaError::Timeout { .. }) => {
                stats.timeouts += 1;
                if recover(c, stats)? {
                    stats.recoveries += 1;
                    return Ok(());
                }
                patience = patience * u64::from(policy.backoff.max(2));
            }
            Err(e) => return Err(e),
        }
    }
    Err(RmaError::Timeout { core: c.core(), line, deadline: c.now() })
}

/// Largest child count any core can have in a `p`-core binomial tree
/// (`⌈log2 p⌉`, the root's).
fn max_binomial_children(p: usize) -> usize {
    if p <= 1 {
        return 1; // allocator wants at least one line
    }
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

fn enc(epoch: u32, x: u32) -> u32 {
    (epoch << 16) | x
}

/// Reliable binomial-tree broadcast context with ack-verified
/// delivery.
///
/// Unlike the [`crate::binomial_bcast`] baseline (which layers on the
/// generic RCCE send/receive), this context owns a purpose-built MPB
/// layout so every handshake flag has a loss-recovery path:
///
/// * `sent` — one line, written by the core's tree parent with
///   `enc(epoch, chunk+1)` after storing the chunk in our payload
///   buffer;
/// * `ready` — one line per child slot (`⌈log2 p⌉` of them, the
///   per-peer-line idea of [`scc_rcce::RcceComm`] at binomial-tree
///   cost instead of `p` lines), written by child `j` with
///   `enc(epoch, chunk+1)`; the value `enc(epoch, n_chunks+1)` — a
///   ready for a chunk that will never come — doubles as the **ack**
///   that the child consumed the whole message;
/// * `ready_prog` — local mirror of our own ready/ack puts, probed by
///   our parent;
/// * `send_prog` — local mirror of our sent puts across all children,
///   encoded with a global transfer counter
///   `enc(epoch, j·n_chunks + chunk + 1)` (our send schedule is
///   sequential in `(j, chunk)`, so one monotone line suffices and any
///   child can compute the value its transfer implies), probed by a
///   child whose sent flag was lost — the payload put always precedes
///   the sent put, so a probe at or past the transfer's counter
///   guarantees the data is already in the child's buffer;
/// * `scratch` — landing line for probes;
/// * `payload` — everything else.
///
/// All flag values are monotone per line across invocations (the
/// epoch in the high 16 bits advances identically on every core), so
/// back-to-back broadcasts need no flag resets.
#[derive(Clone, Debug)]
pub struct ReliableBinomial {
    policy: Reliability,
    sent: MpbRegion,
    ready: MpbRegion,
    ready_prog: MpbRegion,
    send_prog: MpbRegion,
    scratch: MpbRegion,
    payload: MpbRegion,
    epoch: u32,
    stats: RelStats,
    num_cores: usize,
}

impl ReliableBinomial {
    /// Reserve the context's MPB lines (identically on every core);
    /// grabs all remaining lines for the payload.
    pub fn new(
        alloc: &mut MpbAllocator,
        num_cores: usize,
        policy: Reliability,
    ) -> Result<ReliableBinomial, MpbExhausted> {
        let sent = alloc.alloc(1)?;
        let ready = alloc.alloc(max_binomial_children(num_cores))?;
        let ready_prog = alloc.alloc(1)?;
        let send_prog = alloc.alloc(1)?;
        let scratch = alloc.alloc(1)?;
        let payload = alloc.alloc(alloc.lines_free().max(1))?;
        Ok(ReliableBinomial {
            policy,
            sent,
            ready,
            ready_prog,
            send_prog,
            scratch,
            payload,
            epoch: 0,
            stats: RelStats::default(),
            num_cores,
        })
    }

    /// Release the context's lines.
    pub fn release(self, alloc: &mut MpbAllocator) {
        alloc.free(self.sent);
        alloc.free(self.ready);
        alloc.free(self.ready_prog);
        alloc.free(self.send_prog);
        alloc.free(self.scratch);
        alloc.free(self.payload);
    }

    /// What the recovery machinery did so far on this core.
    pub fn stats(&self) -> RelStats {
        self.stats
    }

    /// Collective reliable broadcast; all cores must call with
    /// identical `root` and `msg`. Returns only once every child of
    /// this core has acknowledged consuming the final chunk, so a
    /// clean collective return implies verified delivery to all
    /// destinations.
    pub fn bcast<R: Rma>(&mut self, c: &mut R, root: CoreId, msg: MemRange) -> RmaResult<()> {
        let p = c.num_cores();
        assert_eq!(p, self.num_cores, "context built for {} cores", self.num_cores);
        if p <= 1 {
            return Ok(());
        }
        let me = c.core();
        let rr = (me.index() + p - root.index()) % p;
        let abs = |rel: usize| CoreId(((root.index() + rel) % p) as u8);
        let n_chunks = bytes_to_lines(msg.len).div_ceil(self.payload.lines).max(1);
        let e = self.epoch;
        self.epoch += 1;
        assert!(e < 1 << 16, "epoch counter exhausted");
        assert!(
            self.ready.lines * n_chunks + 1 < 1 << 16,
            "message too long for the 16-bit transfer counters"
        );

        let mut stats = RelStats::default();
        let children = binomial_children(rr, p);

        let res = delivering(c, e, |c| {
            if rr != 0 {
                let par_rel = binomial_parent(rr, p);
                let par = abs(par_rel);
                let j = binomial_children(par_rel, p)
                    .iter()
                    .position(|&ch| ch == rr)
                    .expect("a non-root is one of its parent's children");
                spanned(c, Span::of(Phase::Dissemination), |c| {
                    tagged(c, MsgId::new(e, par, me, 0), |c| {
                        self.recv_from(c, par, j, msg, n_chunks, e, &mut stats)
                    })
                })?;
            }
            for (j, child_rel) in children.iter().enumerate() {
                let dst = abs(*child_rel);
                spanned(c, Span::new(Phase::Round, j as u32), |c| {
                    tagged(c, MsgId::new(e, me, dst, 0), |c| {
                        self.send_to(c, dst, j, msg, n_chunks, rr == 0, e, &mut stats)
                    })
                })?;
            }
            // Ack-verified delivery: collect every child's final ack
            // (its "ready for chunk n_chunks+1"), probing its local
            // mirror if the ack flag itself was lost.
            if !children.is_empty() {
                let want = enc(e, n_chunks as u32 + 1);
                let rp_line = self.ready_prog.first_line;
                let scratch = self.scratch.first_line;
                spanned(c, Span::of(Phase::Ack), |c| {
                    for (j, child_rel) in children.iter().enumerate() {
                        let child = abs(*child_rel);
                        let line = self.ready.line(j);
                        wait_ge_or_recover(c, &self.policy, &mut stats, line, want, |c, stats| {
                            Ok(probe_remote_flag(c, stats, child, rp_line, scratch)? >= want)
                        })?;
                    }
                    Ok(())
                })?;
            }
            Ok(())
        });
        self.stats.accumulate(stats);
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn recv_from<R: Rma>(
        &self,
        c: &mut R,
        par: CoreId,
        j: usize,
        msg: MemRange,
        n_chunks: usize,
        e: u32,
        stats: &mut RelStats,
    ) -> RmaResult<()> {
        let me = c.core();
        let chunk_bytes = self.payload.lines * CACHE_LINE_BYTES;
        let sp_line = self.send_prog.first_line;
        let scratch = self.scratch.first_line;
        let mut off = 0usize;
        for ck in 0..n_chunks {
            let v = enc(e, ck as u32 + 1);
            // Pre-post readiness (remote, may be lost) and mirror it
            // locally (cannot be lost) for the parent's recovery probe.
            c.flag_put(MpbAddr::new(par, self.ready.line(j)), FlagValue(v))?;
            c.flag_put(MpbAddr::new(me, self.ready_prog.first_line), FlagValue(v))?;
            // If the sent flag is lost, the parent's send-progress
            // mirror at or past our transfer's counter proves the
            // payload already sits in our buffer.
            let want_prog = enc(e, (j * n_chunks + ck) as u32 + 1);
            wait_ge_or_recover(c, &self.policy, stats, self.sent.first_line, v, |c, stats| {
                Ok(probe_remote_flag(c, stats, par, sp_line, scratch)? >= want_prog)
            })?;
            let len = (msg.len - off).min(chunk_bytes);
            if len > 0 {
                c.get_to_mem(MpbAddr::new(me, self.payload.first_line), msg.slice(off, len))?;
            }
            off += len;
        }
        // The ack: a ready for a chunk that will never come.
        let ack = enc(e, n_chunks as u32 + 1);
        c.flag_put(MpbAddr::new(par, self.ready.line(j)), FlagValue(ack))?;
        c.flag_put(MpbAddr::new(me, self.ready_prog.first_line), FlagValue(ack))?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn send_to<R: Rma>(
        &self,
        c: &mut R,
        dst: CoreId,
        j: usize,
        msg: MemRange,
        n_chunks: usize,
        from_root: bool,
        e: u32,
        stats: &mut RelStats,
    ) -> RmaResult<()> {
        let me = c.core();
        let chunk_bytes = self.payload.lines * CACHE_LINE_BYTES;
        let rp_line = self.ready_prog.first_line;
        let scratch = self.scratch.first_line;
        let mut off = 0usize;
        for ck in 0..n_chunks {
            let v = enc(e, ck as u32 + 1);
            // If the child's ready flag is lost, its local mirror
            // proves it posted readiness; its buffer is free.
            wait_ge_or_recover(c, &self.policy, stats, self.ready.line(j), v, |c, stats| {
                Ok(probe_remote_flag(c, stats, dst, rp_line, scratch)? >= v)
            })?;
            let len = (msg.len - off).min(chunk_bytes);
            if len > 0 {
                let part = msg.slice(off, len);
                let to = MpbAddr::new(dst, self.payload.first_line);
                if from_root {
                    c.put_from_mem(part, to)?;
                } else {
                    // Forwarding a just-received message: hot in L1.
                    c.put_from_mem_cached(part, to)?;
                }
            }
            c.flag_put(MpbAddr::new(dst, self.sent.first_line), FlagValue(v))?;
            let prog = enc(e, (j * n_chunks + ck) as u32 + 1);
            c.flag_put(MpbAddr::new(me, self.send_prog.first_line), FlagValue(prog))?;
            off += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;
    use scc_sim::{run_spmd, FaultPlan, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 1 << 20, ..SimConfig::default() }
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(73).wrapping_add(seed)).collect()
    }

    fn check(sim: &SimConfig, policy: Reliability, root: u8, len: usize) -> RelStats {
        let p = sim.num_cores;
        let msg = pattern(len, root);
        let expect = msg.clone();
        let rep = run_spmd(sim, move |c| -> RmaResult<(Vec<u8>, RelStats)> {
            let mut alloc = MpbAllocator::new();
            let mut bc = ReliableBinomial::new(&mut alloc, c.num_cores(), policy).unwrap();
            let r = MemRange::new(0, msg.len());
            if c.core() == CoreId(root) {
                c.mem_write(0, &msg)?;
            }
            bc.bcast(c, CoreId(root), r)?;
            Ok((c.mem_to_vec(r)?, bc.stats()))
        })
        .unwrap_or_else(|e| panic!("p={p} root={root} len={len}: {e}"));
        let mut total = RelStats::default();
        for (i, r) in rep.results.iter().enumerate() {
            let (got, stats) = r.as_ref().unwrap();
            assert_eq!(got, &expect, "core {i} (p={p}, root={root}, len={len})");
            total.accumulate(*stats);
        }
        total
    }

    #[test]
    fn failure_free_delivery() {
        check(&cfg(8), Reliability::standard(), 0, 1000);
        check(&cfg(48), Reliability::standard(), 0, 300 * 32);
        check(&cfg(12), Reliability::standard(), 7, 500);
        check(&cfg(2), Reliability::standard(), 1, 100);
    }

    #[test]
    fn survives_lost_notifications() {
        let sim = SimConfig {
            faults: FaultPlan { drop_notification_ppm: 60_000, ..FaultPlan::default() },
            ..cfg(24)
        };
        let stats = check(&sim, Reliability::standard(), 0, 5 * 32 * 200);
        assert!(stats.recoveries > 0, "fault run must exercise recovery: {stats:?}");
    }

    #[test]
    fn survives_delays_and_slow_cores() {
        use scc_sim::SlowWindow;
        let sim = SimConfig {
            faults: FaultPlan {
                delay_ppm: 100_000,
                delay: Time::from_us_f64(40.0),
                slow: vec![SlowWindow {
                    core: CoreId(3),
                    from: Time::ZERO,
                    until: Time::from_us_f64(10_000.0),
                    extra: Time::from_us_f64(5.0),
                }],
                ..FaultPlan::default()
            },
            ..cfg(16)
        };
        check(&sim, Reliability::standard(), 0, 4000);
    }

    #[test]
    fn repeated_broadcasts_share_the_context() {
        let sim = SimConfig {
            faults: FaultPlan { drop_notification_ppm: 40_000, ..FaultPlan::default() },
            ..cfg(8)
        };
        let rep = run_spmd(&sim, |c| -> RmaResult<bool> {
            let mut alloc = MpbAllocator::new();
            let mut bc =
                ReliableBinomial::new(&mut alloc, c.num_cores(), Reliability::standard()).unwrap();
            let mut ok = true;
            for round in 0..5u8 {
                let len = 100 + round as usize * 700;
                let r = MemRange::new(0, len);
                let root = CoreId(round % 8);
                if c.core() == root {
                    c.mem_write(0, &pattern(len, round))?;
                }
                bc.bcast(c, root, r)?;
                ok &= c.mem_to_vec(r)? == pattern(len, round);
            }
            Ok(ok)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }

    #[test]
    fn max_children_bound() {
        assert_eq!(max_binomial_children(1), 1);
        assert_eq!(max_binomial_children(2), 1);
        assert_eq!(max_binomial_children(3), 2);
        assert_eq!(max_binomial_children(48), 6);
        for p in 2..=64usize {
            let d = max_binomial_children(p);
            for rel in 0..p {
                assert!(binomial_children(rel, p).len() <= d, "p={p} rel={rel}");
            }
        }
    }
}
