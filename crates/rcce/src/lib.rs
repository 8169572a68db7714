//! # scc-rcce — RCCE-style communication layer over one-sided RMA
//!
//! The paper's baseline broadcasts (binomial tree, scatter-allgather)
//! come from the RCCE_comm library, which layers two-sided send/receive
//! over the SCC's one-sided put/get. This crate rebuilds that stack on
//! the [`scc_hal::Rma`] interface so the baselines pay the same
//! structural costs as on the real chip:
//!
//! * [`alloc`] — symmetric MPB line allocation (RCCE_malloc-style);
//! * [`flags`] — binary and sequence-valued one-line flags;
//! * [`sendrecv`] — blocking, chunked two-sided send/receive with the
//!   RCCE ready/sent handshake;
//! * [`barrier`] — dissemination barrier;
//! * [`pipe`] — the double-buffered one-sided window (iRCCE's
//!   pipelining, the blueprint the paper borrows in Section 4.2) that
//!   `oc-bcast`'s one-sided scatter-allgather pushes and pulls through.

pub mod alloc;
pub mod barrier;
pub mod flags;
pub mod pipe;
pub mod sendrecv;

pub use alloc::{MpbAllocator, MpbExhausted, MpbRegion};
pub use barrier::Barrier;
pub use flags::{BinFlag, SeqFlag};
pub use pipe::Pipe;
pub use sendrecv::RcceComm;
