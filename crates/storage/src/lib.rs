//! # graphh-storage
//!
//! Storage substrate for the GraphH reproduction.
//!
//! The paper stores raw graphs, partitioned tiles and results in a distributed file
//! system (HDFS or Lustre, §III-A.1) and keeps each server's assigned tiles on its
//! local disk. This crate provides both layers:
//!
//! * [`backend`] — byte-level object stores ([`backend::MemoryBackend`],
//!   [`backend::LocalDiskBackend`]) behind one trait, plus a metering wrapper that
//!   counts every byte moved (the cluster cost model consumes those counters),
//! * [`dfs`] — a small distributed-file-system façade (namespace, block placement,
//!   replication factor) over any backend,
//! * [`meter`] — shared I/O counters,
//! * [`mmap`] — whole-file read access to locally persisted tiles behind a
//!   memory-map API (off the engines' run path; see the module doc).

pub mod backend;
pub mod dfs;
mod lock;
pub mod meter;
pub mod mmap;

pub use backend::{LocalDiskBackend, MemoryBackend, MeteredBackend, StorageBackend};
pub use dfs::{Dfs, DfsConfig, FileMetadata};
pub use meter::{IoMeter, IoSnapshot};

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The requested object does not exist.
    NotFound(String),
    /// An object with this name already exists and overwrite was not requested.
    AlreadyExists(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Invalid argument (e.g. zero block size).
    InvalidArgument(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "object not found: {k}"),
            StorageError::AlreadyExists(k) => write!(f, "object already exists: {k}"),
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
