//! Synchronization flags on top of raw MPB lines.
//!
//! Two idioms cover everything in this suite:
//!
//! * [`BinFlag`] — RCCE-style binary flag (SET/UNSET) with an explicit
//!   local reset, used by the two-sided send/receive handshake;
//! * [`SeqFlag`] — monotone sequence flag, used by OC-Bcast and the
//!   dissemination barrier. Sequence values let repeated collectives
//!   share a line with no reset protocol at all: a waiter always knows
//!   the value it expects next, and stale values from earlier rounds
//!   are simply smaller.

use scc_hal::{CoreId, FlagValue, MpbAddr, Rma, RmaResult};

/// A binary flag living at the same MPB line on every core.
#[derive(Clone, Copy, Debug)]
pub struct BinFlag {
    pub line: usize,
}

impl BinFlag {
    pub const SET: FlagValue = FlagValue(1);
    pub const UNSET: FlagValue = FlagValue(0);

    /// Set the flag in `owner`'s MPB (remote put).
    pub fn set<R: Rma>(&self, c: &mut R, owner: CoreId) -> RmaResult<()> {
        c.flag_put(MpbAddr::new(owner, self.line), Self::SET)
    }

    /// Reset one's own copy (local put — RCCE resets flags locally
    /// after consuming them).
    pub fn reset_local<R: Rma>(&self, c: &mut R) -> RmaResult<()> {
        let me = c.core();
        c.flag_put(MpbAddr::new(me, self.line), Self::UNSET)
    }

    /// Spin until one's own copy is SET.
    pub fn wait_set<R: Rma>(&self, c: &mut R) -> RmaResult<()> {
        c.flag_wait_local(self.line, &mut |v| v == Self::SET)?;
        Ok(())
    }
}

/// A monotone sequence flag living at the same MPB line on every core.
#[derive(Clone, Copy, Debug)]
pub struct SeqFlag {
    pub line: usize,
}

impl SeqFlag {
    /// Publish sequence number `seq` into `owner`'s MPB.
    pub fn signal<R: Rma>(&self, c: &mut R, owner: CoreId, seq: u32) -> RmaResult<()> {
        c.flag_put(MpbAddr::new(owner, self.line), FlagValue(seq))
    }

    /// Wait until one's own copy reaches at least `seq`; returns the
    /// observed value (which may be newer).
    pub fn wait_ge<R: Rma>(&self, c: &mut R, seq: u32) -> RmaResult<u32> {
        let v = c.flag_wait_local(self.line, &mut |v| v.0 >= seq)?;
        Ok(v.0)
    }

    /// Non-blocking read of one's own copy.
    pub fn read<R: Rma>(&self, c: &mut R) -> RmaResult<u32> {
        Ok(c.flag_read_local(self.line)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sim::{run_spmd, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 4096, ..SimConfig::default() }
    }

    #[test]
    fn bin_flag_ping_pong() {
        let rep = run_spmd(&cfg(2), |c| -> RmaResult<u32> {
            let ping = BinFlag { line: 0 };
            let pong = BinFlag { line: 1 };
            let me = c.core().index();
            let peer = CoreId(1 - me as u8);
            let mut rounds = 0;
            for _ in 0..10 {
                if me == 0 {
                    ping.set(c, peer)?;
                    pong.wait_set(c)?;
                    pong.reset_local(c)?;
                } else {
                    ping.wait_set(c)?;
                    ping.reset_local(c)?;
                    pong.set(c, peer)?;
                }
                rounds += 1;
            }
            Ok(rounds)
        })
        .unwrap();
        for r in rep.results {
            assert_eq!(r.unwrap(), 10);
        }
    }

    #[test]
    fn seq_flag_needs_no_reset_across_rounds() {
        // A chain: core i signals core i+1 with the round number; many
        // rounds reuse the same line with no reset anywhere.
        let n = 5;
        let rep = run_spmd(&cfg(n), move |c| -> RmaResult<u32> {
            let token = SeqFlag { line: 2 };
            let me = c.core().index();
            let mut last = 0;
            for round in 1..=20u32 {
                if me == 0 {
                    token.signal(c, CoreId(1), round)?;
                    last = round;
                } else {
                    last = token.wait_ge(c, round)?;
                    if me + 1 < n {
                        token.signal(c, CoreId((me + 1) as u8), round)?;
                    }
                }
            }
            Ok(last)
        })
        .unwrap();
        for r in rep.results {
            assert!(r.unwrap() >= 20);
        }
    }

    #[test]
    fn seq_flag_read_is_nonblocking() {
        let rep = run_spmd(&cfg(1), |c| -> RmaResult<u32> {
            let f = SeqFlag { line: 9 };
            assert_eq!(f.read(c)?, 0);
            let me = c.core();
            f.signal(c, me, 33)?;
            f.read(c)
        })
        .unwrap();
        assert_eq!(rep.results[0].as_ref().unwrap(), &33);
    }
}
