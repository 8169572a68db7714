//! Dissemination barrier over MPB flags.
//!
//! RCCE_comm's collectives synchronize with a barrier; we provide the
//! classic dissemination barrier (⌈log₂ P⌉ rounds, one remote flag put
//! and one local wait per round) using sequence-valued flags, so
//! consecutive barriers reuse the same lines with no reset traffic.

use crate::alloc::{MpbAllocator, MpbExhausted, MpbRegion};
use crate::flags::SeqFlag;
use scc_hal::{CoreId, Rma, RmaResult};

/// A reusable barrier for all `P` cores of the run.
#[derive(Clone, Debug)]
pub struct Barrier {
    region: MpbRegion,
    rounds: usize,
    epoch: u32,
}

impl Barrier {
    /// Reserve `⌈log₂ P⌉` flag lines (identically on every core).
    pub fn new(alloc: &mut MpbAllocator, num_cores: usize) -> Result<Barrier, MpbExhausted> {
        assert!(num_cores >= 1);
        let rounds = usize::BITS as usize - (num_cores - 1).leading_zeros() as usize;
        let region = alloc.alloc(rounds.max(1))?;
        Ok(Barrier { region, rounds, epoch: 0 })
    }

    /// Release the barrier's lines.
    pub fn release(self, alloc: &mut MpbAllocator) {
        alloc.free(self.region);
    }

    /// Block until every core of the run has entered this barrier.
    ///
    /// Every core must call `wait` the same number of times (the usual
    /// SPMD barrier contract); the internal epoch enforces matching.
    pub fn wait<R: Rma>(&mut self, c: &mut R) -> RmaResult<()> {
        let p = c.num_cores();
        if p == 1 {
            return Ok(());
        }
        self.epoch += 1;
        let me = c.core().index();
        for r in 0..self.rounds {
            let partner = CoreId(((me + (1 << r)) % p) as u8);
            let flag = SeqFlag { line: self.region.line(r) };
            flag.signal(c, partner, self.epoch)?;
            flag.wait_ge(c, self.epoch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::Time;
    use scc_sim::{run_spmd, SimConfig};

    fn cfg(n: usize) -> SimConfig {
        SimConfig { num_cores: n, mem_bytes: 4096, ..SimConfig::default() }
    }

    #[test]
    fn barrier_actually_synchronizes() {
        // Each core computes for a different amount of time, then hits
        // the barrier; everyone must leave at (or after) the slowest
        // core's arrival.
        let n = 7;
        let rep = run_spmd(&cfg(n), move |c| -> RmaResult<(Time, Time)> {
            let mut alloc = MpbAllocator::new();
            let mut bar = Barrier::new(&mut alloc, c.num_cores()).unwrap();
            let me = c.core().index() as u64;
            c.compute(Time::from_ns(1_000 * me * me));
            let before = c.now();
            bar.wait(c)?;
            Ok((before, c.now()))
        })
        .unwrap();
        let results: Vec<_> = rep.results.into_iter().map(|r| r.unwrap()).collect();
        let slowest_arrival = results.iter().map(|(b, _)| *b).max().unwrap();
        for (i, (_, after)) in results.iter().enumerate() {
            assert!(
                *after >= slowest_arrival,
                "core {i} left the barrier at {after} before the last arrival {slowest_arrival}"
            );
        }
    }

    #[test]
    fn repeated_barriers_do_not_interfere() {
        let n = 8;
        let rep = run_spmd(&cfg(n), move |c| -> RmaResult<u32> {
            let mut alloc = MpbAllocator::new();
            let mut bar = Barrier::new(&mut alloc, c.num_cores()).unwrap();
            for round in 0..25 {
                // Stagger arrivals differently each round.
                let me = c.core().index() as u64;
                c.compute(Time::from_ns(100 * ((me + round) % 5)));
                bar.wait(c)?;
            }
            Ok(bar.epoch)
        })
        .unwrap();
        for r in rep.results {
            assert_eq!(r.unwrap(), 25);
        }
    }

    #[test]
    fn single_core_barrier_is_a_noop() {
        let rep = run_spmd(&cfg(1), |c| -> RmaResult<Time> {
            let mut alloc = MpbAllocator::new();
            let mut bar = Barrier::new(&mut alloc, 1).unwrap();
            bar.wait(c)?;
            Ok(c.now())
        })
        .unwrap();
        assert_eq!(rep.results[0].as_ref().unwrap(), &Time::ZERO);
    }

    #[test]
    fn round_count_is_log2() {
        let mut alloc = MpbAllocator::new();
        assert_eq!(Barrier::new(&mut alloc, 48).unwrap().rounds, 6);
        assert_eq!(Barrier::new(&mut alloc, 2).unwrap().rounds, 1);
        assert_eq!(Barrier::new(&mut alloc, 3).unwrap().rounds, 2);
        assert_eq!(Barrier::new(&mut alloc, 33).unwrap().rounds, 6);
    }
}
