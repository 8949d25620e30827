//! # graphh-bench
//!
//! The experiment harness: one function per table / figure of the paper's evaluation
//! (`report --list` is the index). Each function runs the relevant engines on the
//! scaled-down dataset stand-ins, and returns the rows/series the paper reports as a
//! formatted text block, which the `report` binary prints. These are cost-model
//! figures; measured performance is `benchmark/`'s job (`bash benchmark/run.sh`).
//! The crate also holds the `graphh-node` multi-process launcher and the trace
//! validators its tests use.

pub mod experiments;
pub mod multiprocess;
pub mod trace_check;
pub mod workloads;

pub use experiments::*;
pub use multiprocess::*;
pub use trace_check::*;
pub use workloads::*;
