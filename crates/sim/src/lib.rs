//! # scc-sim — a deterministic discrete-event simulator of the Intel SCC
//!
//! The paper's experiments ran on real SCC silicon, which no longer
//! exists. This crate substitutes a packet-level simulator of the chip
//! (see DESIGN.md for the substitution argument):
//!
//! * 24 tiles in a 6×4 mesh, two cores per tile, X-Y virtual
//!   cut-through routing with per-router latency and occupancy;
//! * 8 KB MPB per core behind a per-tile port with distinct read/write
//!   service times — the resource whose saturation reproduces the MPB
//!   contention of Figure 4;
//! * four memory controllers serving one quadrant each;
//! * cores that execute a single memory transaction at a time.
//!
//! SPMD programs written against [`scc_hal::Rma`] run unchanged on the
//! engine ([`run_spmd`]); virtual time advances only through the
//! operations' modeled costs, so measurements are exact and runs are
//! bit-for-bit reproducible.

pub mod chip;
pub mod coro;
pub mod engine;
pub mod fault;
pub mod handoff;
pub mod microbench;
pub mod ops;
pub mod params;
pub mod telemetry;

pub use chip::SimStats;
pub use engine::{run_spmd, SimConfig, SimCore, SimError, SimReport};
pub use fault::{FaultPlan, SlowWindow};
pub use microbench::{measure_contention, measure_link_stress, measure_p2p, P2pKind};
pub use params::SimParams;
pub use telemetry::EngineTotals;
