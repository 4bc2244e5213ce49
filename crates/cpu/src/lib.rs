//! ARM Cortex-A15-like out-of-order core timing model.
//!
//! Table 1 of the paper: 3-way decode/issue/commit, 64-entry ROB, 16-entry
//! LSQ, 32 KB L1-I and L1-D. The model captures exactly the mechanisms the
//! evaluation depends on:
//!
//! * **fetch stalls on L1-I misses** — the multi-megabyte instruction
//!   footprints of scale-out workloads miss in L1-I and hit in the LLC, so
//!   every L1-I miss exposes the full interconnect round trip,
//! * **bounded memory-level parallelism** — data misses overlap only up to
//!   the LSQ/MSHR bound, and dependent loads serialize, which is why these
//!   workloads are latency- rather than bandwidth-sensitive,
//! * **in-order retirement from a finite ROB** — long-latency loads at the
//!   ROB head stall commit.
//!
//! The core consumes an [`InstructionSource`] (implemented by the workload
//! models) and interacts with the memory system through miss requests and
//! fills orchestrated by the chip model in the `nocout` crate.

pub mod model;
pub mod rob;
pub mod source;

pub use model::{Core, CoreConfig, CoreStats, MissRequest, Wake};
pub use rob::{RingRob, WakeupIndex};
pub use source::{FetchedInstr, InstructionSource, Op};
