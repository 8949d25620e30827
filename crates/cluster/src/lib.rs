//! # graphh-cluster
//!
//! The simulated cluster substrate all engines run on.
//!
//! The paper's evaluation uses a 9-node testbed (2× Xeon E5-2620, 128 GB RAM, RAID5
//! HDDs, 10 GbE). We do not have that hardware, so the engines in this workspace
//! execute their algorithms for real on in-process data and *meter* every byte they
//! move; this crate supplies:
//!
//! * [`config`] — cluster/hardware descriptions, including a preset for the paper's
//!   testbed,
//! * [`metrics`] — per-server, per-superstep counters of work done (edges processed,
//!   disk and network bytes, decompression bytes, cache hits, …),
//! * [`cost`] — the cost model that converts metered work into simulated
//!   per-superstep time under BSP (the slowest server bounds the superstep),
//! * [`network`] — the broadcast message encodings GraphH uses (dense, sparse,
//!   hybrid, optionally compressed) and the metered per-message wire codec
//!   both executors broadcast through.

pub mod config;
pub mod cost;
pub mod metrics;
pub mod network;

pub use config::{ClusterConfig, MachineSpec};
pub use cost::{CostBreakdown, CostModel};
pub use metrics::{ClusterMetrics, ServerMetrics, SuperstepReport};
pub use network::{BroadcastEncoding, BroadcastMessage, CommunicationMode, MessageCodec};
