//! # graphh-storage
//!
//! The tile store of the GraphH reproduction.
//!
//! The paper's pre-processing engine writes tiles to a file system once and each
//! server keeps its assigned tiles on its local disk (§III-A.1, §III-B). Both are
//! the same thing here — a [`StorageBackend`]: string keys to immutable blobs,
//! in memory or as one file per key under a directory. `graphh-partition` owns
//! which key a tile lives under and what is written there.
//!
//! * [`backend`] — the trait, [`backend::MemoryBackend`],
//!   [`backend::LocalDiskBackend`], and a metering wrapper that counts every
//!   byte moved (the cluster cost model consumes those counters),
//! * [`meter`] — shared I/O counters,
//! * [`mmap`] — whole-file read access to locally persisted tiles behind a
//!   memory-map API (off the engines' run path; see the module doc).

pub mod backend;
mod lock;
pub mod meter;
pub mod mmap;

pub use backend::{LocalDiskBackend, MemoryBackend, MeteredBackend, StorageBackend};
pub use meter::{IoMeter, IoSnapshot};

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The requested object does not exist.
    NotFound(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Invalid argument (e.g. a key that would leave a directory store's root).
    InvalidArgument(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(k) => write!(f, "object not found: {k}"),
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
