//! Unified broadcast front-end: one enum selecting any of the three
//! algorithms the paper compares, with a common collective entry point
//! — plain ([`Broadcaster::new`]) or reliable under a retry policy
//! ([`Broadcaster::new_reliable`]); either way [`Broadcaster::bcast`]
//! is the only call a harness makes. This is what the benchmark
//! harness and the examples drive.

use crate::binomial::binomial_bcast;
use crate::ocbcast::{OcBcast, OcConfig};
use crate::reliable::{RelStats, Reliability, ReliableBinomial};
use crate::rma_sag::RmaSag;
use crate::scatter_allgather::scatter_allgather_bcast;
use scc_hal::{CoreId, MemRange, Rma, RmaResult};
use scc_rcce::{MpbAllocator, MpbExhausted, RcceComm};
use std::fmt;

/// Which broadcast algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// OC-Bcast with the given tuning (the paper's contribution).
    OcBcast(OcConfig),
    /// RCCE_comm binomial tree over two-sided send/receive.
    Binomial,
    /// RCCE_comm scatter-allgather over two-sided send/receive.
    ScatterAllgather,
    /// Scatter-allgather re-expressed over one-sided RMA — the paper's
    /// Section 5.4 alternative design (extension).
    RmaScatterAllgather,
}

impl Algorithm {
    /// The paper's recommended default (OC-Bcast, k = 7).
    pub fn oc_default() -> Algorithm {
        Algorithm::OcBcast(OcConfig::default())
    }

    pub fn oc_with_k(k: usize) -> Algorithm {
        Algorithm::OcBcast(OcConfig::with_k(k))
    }

    /// Short label for reports ("k=7", "binomial", "s-ag").
    pub fn label(&self) -> String {
        match self {
            Algorithm::OcBcast(cfg) => format!("k={}", cfg.k),
            Algorithm::Binomial => "binomial".to_string(),
            Algorithm::ScatterAllgather => "s-ag".to_string(),
            Algorithm::RmaScatterAllgather => "rma-s-ag".to_string(),
        }
    }
}

/// A ready-to-use broadcaster holding whichever MPB context its
/// algorithm needs. Construct identically on every core.
pub enum Broadcaster {
    /// Plain or reliable — the context knows.
    Oc(OcBcast),
    Binomial(RcceComm),
    ScatterAllgather(RcceComm),
    OneSidedSag(RmaSag),
    ReliableBinomial(ReliableBinomial),
}

/// Why [`Broadcaster::new_reliable`] built nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliableError {
    /// The algorithm has no reliable variant (only OC-Bcast and the
    /// binomial tree do); nothing is substituted for it.
    NoReliableVariant(Algorithm),
    Mpb(MpbExhausted),
}

impl fmt::Display for ReliableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReliableError::NoReliableVariant(alg) => {
                write!(f, "{} has no reliable variant", alg.label())
            }
            ReliableError::Mpb(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReliableError {}

impl From<MpbExhausted> for ReliableError {
    fn from(e: MpbExhausted) -> ReliableError {
        ReliableError::Mpb(e)
    }
}

impl Broadcaster {
    /// Reserve MPB resources for `alg` on a `num_cores` run.
    pub fn new(
        alloc: &mut MpbAllocator,
        alg: Algorithm,
        num_cores: usize,
    ) -> Result<Broadcaster, MpbExhausted> {
        match alg {
            Algorithm::OcBcast(cfg) => Ok(Broadcaster::Oc(OcBcast::new(alloc, cfg)?)),
            Algorithm::Binomial => Ok(Broadcaster::Binomial(RcceComm::new(alloc, num_cores)?)),
            Algorithm::ScatterAllgather => {
                Ok(Broadcaster::ScatterAllgather(RcceComm::new(alloc, num_cores)?))
            }
            Algorithm::RmaScatterAllgather => {
                Ok(Broadcaster::OneSidedSag(RmaSag::new(alloc, num_cores)?))
            }
        }
    }

    /// Reserve MPB resources for the reliable variant of `alg` under
    /// `policy`: every flag wait carries a deadline and recovers from
    /// lost flags (see [`crate::reliable`]). Algorithms without such a
    /// variant are an error, never a silent substitute.
    pub fn new_reliable(
        alloc: &mut MpbAllocator,
        alg: Algorithm,
        num_cores: usize,
        policy: Reliability,
    ) -> Result<Broadcaster, ReliableError> {
        match alg {
            Algorithm::OcBcast(cfg) => {
                Ok(Broadcaster::Oc(OcBcast::new_reliable(alloc, cfg, policy)?))
            }
            Algorithm::Binomial => {
                Ok(Broadcaster::ReliableBinomial(ReliableBinomial::new(alloc, num_cores, policy)?))
            }
            Algorithm::ScatterAllgather | Algorithm::RmaScatterAllgather => {
                Err(ReliableError::NoReliableVariant(alg))
            }
        }
    }

    /// Release the MPB resources.
    pub fn release(self, alloc: &mut MpbAllocator) {
        match self {
            Broadcaster::Oc(oc) => oc.release(alloc),
            Broadcaster::Binomial(comm) | Broadcaster::ScatterAllgather(comm) => {
                comm.release(alloc)
            }
            Broadcaster::OneSidedSag(sag) => sag.release(alloc),
            Broadcaster::ReliableBinomial(rb) => rb.release(alloc),
        }
    }

    /// What the recovery machinery did so far on this core; all zero
    /// on a plain broadcaster.
    pub fn rel_stats(&self) -> RelStats {
        match self {
            Broadcaster::Oc(oc) => oc.rel_stats().unwrap_or_default(),
            Broadcaster::ReliableBinomial(rb) => rb.stats(),
            Broadcaster::Binomial(_)
            | Broadcaster::ScatterAllgather(_)
            | Broadcaster::OneSidedSag(_) => RelStats::default(),
        }
    }

    /// Collective broadcast of `msg` from `root`'s private memory to
    /// the same range on every core.
    pub fn bcast<R: Rma>(&mut self, c: &mut R, root: CoreId, msg: MemRange) -> RmaResult<()> {
        match self {
            Broadcaster::Oc(oc) => oc.bcast(c, root, msg),
            Broadcaster::Binomial(comm) => binomial_bcast(c, comm, root, msg),
            Broadcaster::ScatterAllgather(comm) => scatter_allgather_bcast(c, comm, root, msg),
            Broadcaster::OneSidedSag(sag) => sag.bcast(c, root, msg),
            Broadcaster::ReliableBinomial(rb) => rb.bcast(c, root, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;
    use scc_sim::{run_spmd, SimConfig};

    #[test]
    fn all_algorithms_agree_on_the_result() {
        let len = 2 * 96 * 32 + 50;
        let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        for alg in [
            Algorithm::oc_default(),
            Algorithm::oc_with_k(2),
            Algorithm::Binomial,
            Algorithm::ScatterAllgather,
            Algorithm::RmaScatterAllgather,
        ] {
            let cfg = SimConfig { num_cores: 12, mem_bytes: 1 << 20, ..SimConfig::default() };
            let m = msg.clone();
            let rep = run_spmd(&cfg, move |c| -> RmaResult<Vec<u8>> {
                let mut alloc = MpbAllocator::new();
                let mut b = Broadcaster::new(&mut alloc, alg, c.num_cores()).unwrap();
                let r = MemRange::new(0, m.len());
                if c.core() == CoreId(3) {
                    c.mem_write(0, &m)?;
                }
                b.bcast(c, CoreId(3), r)?;
                c.mem_to_vec(r)
            })
            .unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
            for r in rep.results {
                assert_eq!(r.unwrap(), msg, "{}", alg.label());
            }
        }
    }

    #[test]
    fn switching_algorithms_in_one_run_via_release() {
        // Use OC-Bcast, release it, then use scatter-allgather with the
        // same MPB.
        let cfg = SimConfig { num_cores: 8, mem_bytes: 1 << 20, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| -> RmaResult<bool> {
            let len = 5000;
            let msg: Vec<u8> = (0..len).map(|i| (i % 199) as u8).collect();
            let r = MemRange::new(0, len);
            let mut alloc = MpbAllocator::new();

            let mut oc = Broadcaster::new(&mut alloc, Algorithm::oc_default(), 8).unwrap();
            if c.core().index() == 0 {
                c.mem_write(0, &msg)?;
            }
            oc.bcast(c, CoreId(0), r)?;
            let first = c.mem_to_vec(r)? == msg;
            oc.release(&mut alloc);

            let mut sag = Broadcaster::new(&mut alloc, Algorithm::ScatterAllgather, 8).unwrap();
            // Overwrite and re-broadcast from another root.
            let msg2: Vec<u8> = msg.iter().map(|b| b.wrapping_add(1)).collect();
            if c.core().index() == 5 {
                c.mem_write(0, &msg2)?;
            }
            sag.bcast(c, CoreId(5), r)?;
            let second = c.mem_to_vec(r)? == msg2;
            sag.release(&mut alloc);

            Ok(first && second)
        })
        .unwrap();
        assert!(rep.results.into_iter().all(|r| r.unwrap()));
    }

    #[test]
    fn reliable_scatter_allgather_is_a_typed_error() {
        for alg in [Algorithm::ScatterAllgather, Algorithm::RmaScatterAllgather] {
            let mut alloc = MpbAllocator::new();
            let free = alloc.lines_free();
            let e = Broadcaster::new_reliable(&mut alloc, alg, 48, Reliability::standard());
            assert_eq!(e.err(), Some(ReliableError::NoReliableVariant(alg)));
            assert_eq!(alloc.lines_free(), free, "a refused request reserves nothing");
        }
    }

    #[test]
    fn reliable_broadcasters_deliver_and_report_stats() {
        let len = 2 * 96 * 32 + 50;
        let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        for alg in [Algorithm::oc_default(), Algorithm::Binomial] {
            let cfg = SimConfig {
                num_cores: 12,
                mem_bytes: 1 << 20,
                faults: scc_sim::FaultPlan { drop_notification_ppm: 100_000, ..Default::default() },
                ..SimConfig::default()
            };
            let m = msg.clone();
            let rep = run_spmd(&cfg, move |c| -> RmaResult<(Vec<u8>, RelStats)> {
                let mut alloc = MpbAllocator::new();
                let mut b = Broadcaster::new_reliable(
                    &mut alloc,
                    alg,
                    c.num_cores(),
                    Reliability::standard(),
                )
                .unwrap();
                let r = MemRange::new(0, m.len());
                if c.core() == CoreId(3) {
                    c.mem_write(0, &m)?;
                }
                b.bcast(c, CoreId(3), r)?;
                Ok((c.mem_to_vec(r)?, b.rel_stats()))
            })
            .unwrap_or_else(|e| panic!("{}: {e}", alg.label()));
            let mut total = RelStats::default();
            for r in rep.results {
                let (got, stats) = r.unwrap();
                assert_eq!(got, msg, "{}", alg.label());
                total.accumulate(stats);
            }
            assert!(total.recoveries > 0, "{}: faults must be recovered: {total:?}", alg.label());
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::oc_with_k(47).label(), "k=47");
        assert_eq!(Algorithm::Binomial.label(), "binomial");
        assert_eq!(Algorithm::ScatterAllgather.label(), "s-ag");
        assert_eq!(Algorithm::RmaScatterAllgather.label(), "rma-s-ag");
    }
}
