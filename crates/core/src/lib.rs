//! # oc-bcast — High-Performance RMA-Based Broadcast on the Intel SCC
//!
//! Reproduction of the SPAA 2012 paper by Petrović, Shahmirzadi, Ropars
//! and Schiper: **OC-Bcast**, a pipelined k-ary-tree broadcast that
//! drives the SCC's on-chip Message Passing Buffers directly with
//! one-sided `put`/`get`, plus the two RCCE_comm baselines it is
//! evaluated against.
//!
//! * [`tree`] — the k-ary propagation tree, the binary notification
//!   trees (Figure 5) and the binomial tree of the baseline;
//! * [`ocbcast`] — OC-Bcast itself: notification machinery, chunking,
//!   double buffering (Section 4);
//! * [`binomial`] / [`scatter_allgather`] — the baselines over
//!   two-sided send/receive (Section 5);
//! * [`rma_sag`] — the Section 5.4 alternative: scatter-allgather
//!   re-expressed over one-sided RMA (extension);
//! * [`topo`] — tree layouts incl. a topology-aware builder (extension),
//!   and the one core's neighbourhood a broadcast call derives;
//! * [`bcast`] — a unified front-end used by benches and examples;
//! * [`reliable`] — the timeout/retry policy and the reliable binomial
//!   baseline (extension).
//!
//! Everything is written against [`scc_hal::Rma`], so it runs both on
//! the deterministic SCC simulator (`scc-sim`) and on real threads
//! (`scc-rt`).
//!
//! ## Quickstart
//!
//! ```
//! use oc_bcast::{Algorithm, Broadcaster};
//! use scc_hal::{CoreId, MemRange, Rma, RmaExt, RmaResult};
//! use scc_rcce::MpbAllocator;
//! use scc_sim::{run_spmd, SimConfig};
//!
//! let cfg = SimConfig { num_cores: 12, mem_bytes: 1 << 16, ..SimConfig::default() };
//! let report = run_spmd(&cfg, |core| -> RmaResult<Vec<u8>> {
//!     let mut alloc = MpbAllocator::new();
//!     let mut bcast = Broadcaster::new(&mut alloc, Algorithm::oc_default(), 12).unwrap();
//!     let msg = MemRange::new(0, 13);
//!     if core.core() == CoreId(0) {
//!         core.mem_write(0, b"on-chip hello")?;
//!     }
//!     bcast.bcast(core, CoreId(0), msg)?;
//!     core.mem_to_vec(msg)
//! })
//! .unwrap();
//! for r in report.results {
//!     assert_eq!(r.unwrap(), b"on-chip hello");
//! }
//! ```

pub mod bcast;
pub mod binomial;
pub mod ocbcast;
pub mod reliable;
pub mod rma_sag;
pub mod scatter_allgather;
pub mod topo;
pub mod tree;

pub use bcast::{Algorithm, Broadcaster, ReliableError};
pub use binomial::binomial_bcast;
pub use ocbcast::{OcBcast, OcConfig};
pub use reliable::{RelStats, Reliability, ReliableBinomial};
pub use rma_sag::RmaSag;
pub use scatter_allgather::scatter_allgather_bcast;
pub use topo::{TreeLayout, TreeStrategy};
pub use tree::{binomial_children, binomial_parent, KaryTree, NotifyGroup};
