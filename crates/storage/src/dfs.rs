//! A small distributed-file-system façade (the paper's HDFS/Lustre role, §III-A.1).
//!
//! The DFS centrally manages raw graphs, tiles and results. GraphH only needs
//! whole-file `put`/`get`/`list`, but to stay faithful to what an HDFS deployment
//! costs we also model block placement and a replication factor: every write is
//! charged `replication` times to the backing store, and the block map records which
//! simulated server each block replica lives on (round-robin placement).

use crate::backend::StorageBackend;
use crate::lock::RwLock;
use crate::{Result, StorageError};
use std::collections::BTreeMap;

/// DFS configuration.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Block size in bytes (HDFS default is 128 MiB; tests use small values).
    pub block_size: u64,
    /// Number of replicas per block.
    pub replication: u32,
    /// Number of storage nodes blocks are spread across.
    pub num_nodes: u32,
}

impl Default for DfsConfig {
    fn default() -> Self {
        Self {
            block_size: 128 * 1024 * 1024,
            replication: 3,
            num_nodes: 9,
        }
    }
}

/// Metadata the namespace keeps per file.
#[derive(Debug, Clone)]
pub struct FileMetadata {
    /// File path (key).
    pub path: String,
    /// Length in bytes.
    pub len: u64,
    /// Number of blocks.
    pub num_blocks: u64,
    /// For each block, the storage nodes holding a replica.
    pub block_locations: Vec<Vec<u32>>,
}

/// The DFS: a namespace plus block placement over a shared backend.
pub struct Dfs<B> {
    backend: B,
    config: DfsConfig,
    namespace: RwLock<BTreeMap<String, FileMetadata>>,
    next_block_node: RwLock<u32>,
}

impl<B: StorageBackend> Dfs<B> {
    /// Create an empty DFS over `backend`.
    pub fn new(backend: B, config: DfsConfig) -> Result<Self> {
        if config.block_size == 0 {
            return Err(StorageError::InvalidArgument(
                "block_size must be > 0".into(),
            ));
        }
        if config.replication == 0 || config.num_nodes == 0 {
            return Err(StorageError::InvalidArgument(
                "replication and num_nodes must be > 0".into(),
            ));
        }
        Ok(Self {
            backend,
            config,
            namespace: RwLock::new(BTreeMap::new()),
            next_block_node: RwLock::new(0),
        })
    }

    /// The DFS configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// The backend (useful for inspecting meters in tests).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Write a whole file. Overwrites any existing file at `path`.
    pub fn put(&self, path: &str, data: &[u8]) -> Result<FileMetadata> {
        self.backend.put(path, data)?;
        // Charge the extra replicas: HDFS writes every block `replication` times.
        for _ in 1..self.config.replication {
            self.backend.put(&format!(".replica/{path}"), data)?;
        }
        let num_blocks = if data.is_empty() {
            0
        } else {
            data.len() as u64 / self.config.block_size
                + u64::from(!(data.len() as u64).is_multiple_of(self.config.block_size))
        };
        let mut locations = Vec::with_capacity(num_blocks as usize);
        {
            let mut next = self.next_block_node.write();
            for _ in 0..num_blocks {
                let mut replicas = Vec::with_capacity(self.config.replication as usize);
                for r in 0..self.config.replication.min(self.config.num_nodes) {
                    replicas.push((*next + r) % self.config.num_nodes);
                }
                *next = (*next + 1) % self.config.num_nodes;
                locations.push(replicas);
            }
        }
        let meta = FileMetadata {
            path: path.to_string(),
            len: data.len() as u64,
            num_blocks,
            block_locations: locations,
        };
        self.namespace
            .write()
            .insert(path.to_string(), meta.clone());
        Ok(meta)
    }

    /// Read a whole file.
    pub fn get(&self, path: &str) -> Result<Vec<u8>> {
        if !self.namespace.read().contains_key(path) {
            return Err(StorageError::NotFound(path.to_string()));
        }
        self.backend.get(path)
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.namespace.read().contains_key(path)
    }

    /// Delete a file (idempotent).
    pub fn delete(&self, path: &str) -> Result<()> {
        self.namespace.write().remove(path);
        self.backend.delete(path)?;
        self.backend.delete(&format!(".replica/{path}"))
    }

    /// All file paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.namespace
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Total logical bytes stored (not counting replicas).
    pub fn total_logical_bytes(&self) -> u64 {
        self.namespace.read().values().map(|m| m.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, MeteredBackend};
    use crate::meter::IoMeter;
    use std::sync::Arc;

    fn small_config() -> DfsConfig {
        DfsConfig {
            block_size: 10,
            replication: 3,
            num_nodes: 4,
        }
    }

    #[test]
    fn put_get_roundtrip_and_metadata() {
        let dfs = Dfs::new(MemoryBackend::new(), small_config()).unwrap();
        let data = vec![7u8; 35];
        let meta = dfs.put("tiles/tile-0.bin", &data).unwrap();
        assert_eq!(meta.len, 35);
        assert_eq!(meta.num_blocks, 4); // ceil(35/10)
        assert_eq!(meta.block_locations.len(), 4);
        for replicas in &meta.block_locations {
            assert_eq!(replicas.len(), 3);
            for &node in replicas {
                assert!(node < 4);
            }
        }
        assert_eq!(dfs.get("tiles/tile-0.bin").unwrap(), data);
        assert!(dfs.exists("tiles/tile-0.bin"));
        assert_eq!(dfs.total_logical_bytes(), 35);
    }

    #[test]
    fn replication_charges_backend_writes() {
        let meter = IoMeter::shared();
        let backend = MeteredBackend::new(MemoryBackend::new(), Arc::clone(&meter));
        let dfs = Dfs::new(backend, small_config()).unwrap();
        dfs.put("f", &[0u8; 100]).unwrap();
        // 3 replicas of 100 bytes.
        assert_eq!(meter.snapshot().bytes_written, 300);
    }

    #[test]
    fn list_and_delete() {
        let dfs = Dfs::new(MemoryBackend::new(), small_config()).unwrap();
        dfs.put("tiles/0", b"a").unwrap();
        dfs.put("tiles/1", b"b").unwrap();
        dfs.put("degrees/out", b"c").unwrap();
        assert_eq!(dfs.list("tiles/").len(), 2);
        dfs.delete("tiles/0").unwrap();
        assert_eq!(dfs.list("tiles/").len(), 1);
        assert!(!dfs.exists("tiles/0"));
        assert!(matches!(dfs.get("tiles/0"), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn empty_file_has_zero_blocks() {
        let dfs = Dfs::new(MemoryBackend::new(), small_config()).unwrap();
        let meta = dfs.put("empty", b"").unwrap();
        assert_eq!(meta.num_blocks, 0);
        assert_eq!(dfs.get("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Dfs::new(
            MemoryBackend::new(),
            DfsConfig {
                block_size: 0,
                ..small_config()
            }
        )
        .is_err());
        assert!(Dfs::new(
            MemoryBackend::new(),
            DfsConfig {
                replication: 0,
                ..small_config()
            }
        )
        .is_err());
    }

    #[test]
    fn block_placement_round_robins_across_nodes() {
        let dfs = Dfs::new(MemoryBackend::new(), small_config()).unwrap();
        let mut first_nodes = Vec::new();
        for i in 0..8 {
            let meta = dfs.put(&format!("f{i}"), &[0u8; 10]).unwrap();
            first_nodes.push(meta.block_locations[0][0]);
        }
        // All 4 nodes should appear as a primary location.
        let distinct: std::collections::HashSet<_> = first_nodes.iter().collect();
        assert_eq!(distinct.len(), 4);
    }
}
