//! # graphh-partition
//!
//! GraphH's two-stage graph partitioning (paper §III-B), i.e. the role Spark plays
//! in the original system ("SPE", Spark-based Pre-processing Engine).
//!
//! Stage one splits the input graph's edges into `P` **tiles**: contiguous ranges of
//! *target* vertices whose in-edges together hold roughly `S = |E| / P` edges, stored
//! in an enhanced CSR layout ([`tile::Tile`]). Stage two assigns tiles to the `N`
//! servers of the processing engine round-robin ([`assignment`]). A push
//! superstep walks its server's out-edge transpose
//! ([`transpose::PushTranspose`]): all the server's tiles' edges grouped by
//! source, which the partitioned graph builds the first time a run asks for
//! that server's tile list and keeps ([`PartitionedGraph::push_transpose`]).
//! A pull superstep skips the tiles none of whose sources changed by probing
//! their source sets ([`source_set::SourceSet`]); the partitioned graph
//! builds each the first time a run asks for it and keeps it, beside the
//! in-memory tile store its runs stage tiles to
//! ([`PartitionedGraph::stage_tile`]).
//!
//! The pre-processing pipeline itself ([`spe::Spe`]) mirrors Algorithm 4:
//!
//! 1. count every vertex's in/out degree,
//! 2. walk the in-degree array to build the splitter array ([`splitter`]),
//! 3. group edges by tile and encode each tile as CSR,
//! 4. persist tiles plus the two degree arrays to a tile store
//!    ([`PartitionedGraph::persist`]).
//!
//! [`formats`] reproduces Table IV: the on-disk input footprint each evaluated system
//! needs for the same graph.

pub mod assignment;
pub mod formats;
pub mod source_set;
pub mod spe;
pub mod splitter;
pub mod tile;
pub mod transpose;

pub use assignment::TileAssignment;
pub use source_set::SourceSet;
pub use spe::{PartitionedGraph, Spe, SpeConfig};
pub use splitter::Splitter;
pub use tile::Tile;
pub use transpose::PushTranspose;

/// Errors produced by the partitioning layer.
#[derive(Debug)]
pub enum PartitionError {
    /// Tile serialization or deserialization failed.
    Corrupt(String),
    /// Invalid configuration (e.g. zero tile size).
    InvalidConfig(String),
    /// Underlying storage failure.
    Storage(graphh_storage::StorageError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::Corrupt(m) => write!(f, "corrupt tile data: {m}"),
            PartitionError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            PartitionError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<graphh_storage::StorageError> for PartitionError {
    fn from(e: graphh_storage::StorageError) -> Self {
        PartitionError::Storage(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PartitionError>;
