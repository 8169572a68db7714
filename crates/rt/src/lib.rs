//! # scc-rt — real-thread shared-memory backend of the SCC RMA interface
//!
//! One OS thread per simulated core; the 48 MPBs live in one shared
//! block of atomics, flags carry acquire/release ordering, and `now()`
//! reads the wall clock. This backend exists for **concurrency
//! soundness**: the collectives' flag protocols — plain and reliable —
//! run under real parallelism and real memory reordering here, not
//! under the simulator's serialized schedule; the stress tests in this
//! crate and in `tests/` hammer exactly that (the repro band for this
//! paper prescribes shared-memory emulation). Deadlines are wall-clock
//! here, so a reliable wait may time out spuriously; the probe that
//! follows is harmless.
//!
//! ## Memory model
//!
//! An MPB line is four `AtomicU64` words. Payload copies use `Relaxed`
//! accesses; every flag write is a `Release` store and every flag read
//! an `Acquire` load, so a consumer that observed a flag sees all
//! payload written before it (the classic message-passing pattern from
//! *Rust Atomics and Locks*, ch. 3). Collective protocols only read
//! payload behind a flag they observed, which the simulator's deadlock
//! detector and the integration tests enforce.
//!
//! Spin waits yield to the OS on every iteration: the backend stays
//! live even when (as on this machine) cores outnumber hardware
//! threads.

pub mod chip;
pub mod engine;

pub use engine::{run_spmd, RtConfig, RtCore, RtError, RtReport};
