//! # graphh-core
//!
//! The GraphH processing engine ("MPE", paper §III-C) and the GAB
//! (Gather–Apply–Broadcast) programming model, together with the vertex-centric
//! algorithms the paper evaluates.
//!
//! The engine consumes a [`graphh_partition::PartitionedGraph`] (the SPE output),
//! assigns tiles to the servers of a simulated cluster, and runs supersteps under
//! BSP:
//!
//! 1. each server's workers process its assigned tiles one at a time — a tile is
//!    fetched from the edge cache or (on a miss) from the simulated local disk,
//! 2. for every target vertex in the tile the user program's `gather` and `apply`
//!    run against the server's *local* vertex replica array (every vertex is
//!    replicated on every server — the All-in-All policy of §IV-A); the loop over
//!    the tile's CSR slices is the engine's, compiled once per program
//!    ([`GabProgram::gather_tile`]),
//! 3. changed values are broadcast to the other servers using the hybrid
//!    dense/sparse encoding of §IV-C,
//! 4. at the barrier every server folds the received updates into its replica.
//!
//! Tiles whose source vertices were not updated in the previous superstep are
//! skipped (§III-C.4) — by probing a per-tile bitmap over the vertex ids, which
//! is exact wherever it is no larger than the paper's Bloom filter would be.
//!
//! Every byte moved is metered ([`graphh_cluster::ServerMetrics`]) and converted to
//! simulated time by the cost model, which is how the experiment harness regenerates
//! the paper's figures without the 9-node testbed.

pub mod algorithms;
pub mod engine;
pub mod exec;
pub mod gab;
pub mod reference;
pub mod registry;
pub mod replication;

pub use algorithms::{
    Bfs, DegreeCentrality, DirectionOptimizingBfs, LabelPropagation, PageRank, Sssp, Wcc,
};
pub use engine::{GraphHConfig, GraphHEngine, RunResult};
pub use exec::sequential::{SequentialExecutor, ThreadedExecutor};
pub use exec::{ExecutionPlan, Executor, FrontierView, ServerState};
pub use gab::{
    Direction, DirectionMode, Edges, FrontierStats, GabProgram, InitContext, VertexContext,
};
pub use registry::{ProgramContext, ProgramOptions, ProgramSpec};
pub use replication::{MemoryModel, ReplicationPolicy};

/// Errors produced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Configuration problem (e.g. zero servers).
    InvalidConfig(String),
    /// The partitioned graph is inconsistent with the program's expectations.
    BadInput(String),
    /// Storage failure while staging tiles.
    Storage(graphh_storage::StorageError),
    /// Partition-layer failure.
    Partition(graphh_partition::PartitionError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            EngineError::BadInput(m) => write!(f, "bad input: {m}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Partition(e) => write!(f, "partition error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<graphh_storage::StorageError> for EngineError {
    fn from(e: graphh_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<graphh_partition::PartitionError> for EngineError {
    fn from(e: graphh_partition::PartitionError) -> Self {
        EngineError::Partition(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
