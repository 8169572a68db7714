//! # scc-model — the paper's LogP-based analytical model
//!
//! Implements Sections 3 and 5 of *"High-Performance RMA-Based Broadcast
//! on the Intel SCC"* (Petrović et al., SPAA 2012):
//!
//! * [`params`] — the eight model parameters of Table 1;
//! * [`p2p`] — Formulas (1)–(12): latency and completion time of MPB and
//!   off-chip read/write and of the `put`/`get` primitives;
//! * [`bcast`] — Formulas (13)–(16): simplified critical-path latency
//!   and throughput of OC-Bcast, the binomial tree and scatter-allgather,
//!   plus the *complete* models (with notification-tree and flag costs)
//!   that the extended abstract delegates to the full version;
//! * [`contention`] — a closed-queueing bound model of MPB contention
//!   (the effect Figure 4 measures and Section 3.3 calls hard to model);
//! * [`fit`] — least-squares extraction of Table-1 parameters from
//!   microbenchmark samples (used to close the model ↔ simulator loop);
//! * [`series`] — data series for Figure 6 and Table 2;
//! * [`predict`] — [`Predictor`], the full model's OC-Bcast and
//!   binomial latencies that Figures 8a/8b pair with the simulator;
//! * [`error`] — typed [`ModelError`]s for the fallible entry points
//!   (degenerate fits, empty sweeps).
//!
//! All times are `f64` microseconds, matching the paper's presentation;
//! conversion helpers to [`scc_hal::Time`] are provided.

pub mod bcast;
pub mod contention;
pub mod error;
pub mod fit;
pub mod p2p;
pub mod params;
pub mod predict;
pub mod series;

pub use bcast::{
    binomial_latency_full, binomial_latency_simplified, oc_latency_full, oc_latency_simplified,
    oc_throughput_full, oc_throughput_simplified, sag_throughput_full, sag_throughput_simplified,
    tree_depth, worst_notify_delay, NotifyCosts,
};
pub use contention::ClosedQueue;
pub use error::ModelError;
pub use fit::{fit_params, FitSamples, LinearFit};
pub use p2p::P2p;
pub use params::ModelParams;
pub use predict::Predictor;
