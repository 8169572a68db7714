//! Umbrella crate for the OC-Bcast reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use
//! one coherent namespace. See the individual crates for the substance:
//!
//! * [`scc_hal`] — topology, units, the `Rma` interface
//! * [`scc_model`] — the LogP-based analytical model (paper Sections 3 & 5)
//! * [`scc_sim`] — discrete-event SCC simulator
//! * [`scc_rt`] — real-thread shared-memory backend
//! * [`scc_rcce`] — RCCE-style layer: flags, send/recv, barrier
//! * [`oc_bcast`] — OC-Bcast and the baseline broadcasts (paper Section 4)

pub use oc_bcast;
pub use scc_hal;
pub use scc_model;
pub use scc_rcce;
pub use scc_rt;
pub use scc_sim;
