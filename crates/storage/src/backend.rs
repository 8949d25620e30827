//! Byte-level object stores.
//!
//! A backend maps string keys to immutable byte blobs — exactly the access pattern
//! GraphH needs for tiles (written once by the pre-processing engine, read many
//! times by workers). Three implementations:
//!
//! * [`MemoryBackend`] — in-process map; used by tests and by the "all data fits in
//!   the cache" configurations,
//! * [`LocalDiskBackend`] — one file per object under a root directory; the
//!   simulated servers' local disks,
//! * [`MeteredBackend`] — wraps any backend and charges every byte to an
//!   [`IoMeter`].

use crate::lock::RwLock;
use crate::meter::IoMeter;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An object store keyed by string paths.
pub trait StorageBackend: Send + Sync {
    /// Store `data` under `key`, overwriting any existing object.
    fn put(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Retrieve the object stored under `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>>;

    /// Whether an object exists under `key`.
    fn exists(&self, key: &str) -> bool;

    /// Size in bytes of the object under `key`.
    fn size(&self, key: &str) -> Result<u64>;

    /// Delete the object under `key` (idempotent).
    fn delete(&self, key: &str) -> Result<()>;

    /// All keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Total bytes stored across all objects.
    fn total_bytes(&self) -> u64;
}

/// In-memory object store.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    objects: RwLock<BTreeMap<String, Arc<Vec<u8>>>>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        self.objects
            .write()
            .insert(key.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.objects
            .read()
            .get(key)
            .map(|v| v.as_ref().clone())
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn exists(&self, key: &str) -> bool {
        self.objects.read().contains_key(key)
    }

    fn size(&self, key: &str) -> Result<u64> {
        self.objects
            .read()
            .get(key)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.objects.write().remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn total_bytes(&self) -> u64 {
        self.objects.read().values().map(|v| v.len() as u64).sum()
    }
}

/// Object store backed by files under a root directory. Keys may contain `/`, which
/// maps to subdirectories.
#[derive(Debug)]
pub struct LocalDiskBackend {
    root: PathBuf,
}

impl LocalDiskBackend {
    /// Create (or reuse) a backend rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// Absolute path of the file that would store `key`.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }

    /// Root directory of this backend.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl StorageBackend for LocalDiskBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let path = self.path_for(key);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, data)?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let path = self.path_for(key);
        std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(key.to_string())
            } else {
                StorageError::Io(e)
            }
        })
    }

    fn exists(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    fn size(&self, key: &str) -> Result<u64> {
        let meta = std::fs::metadata(self.path_for(key)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(key.to_string())
            } else {
                StorageError::Io(e)
            }
        })?;
        Ok(meta.len())
    }

    fn delete(&self, key: &str) -> Result<()> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::Io(e)),
        }
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut keys = Vec::new();
        collect_files(&self.root, &self.root, &mut keys);
        keys.retain(|k| k.starts_with(prefix));
        keys.sort();
        keys
    }

    fn total_bytes(&self) -> u64 {
        let mut keys = Vec::new();
        collect_files(&self.root, &self.root, &mut keys);
        keys.iter()
            .filter_map(|k| std::fs::metadata(self.root.join(k)).ok())
            .map(|m| m.len())
            .sum()
    }
}

fn collect_files(root: &Path, dir: &Path, keys: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(root, &path, keys);
        } else if let Ok(rel) = path.strip_prefix(root) {
            keys.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// Wraps a backend and charges all traffic to an [`IoMeter`].
pub struct MeteredBackend<B> {
    inner: B,
    meter: Arc<IoMeter>,
}

impl<B: StorageBackend> MeteredBackend<B> {
    /// Wrap `inner`, charging to `meter`.
    pub fn new(inner: B, meter: Arc<IoMeter>) -> Self {
        Self { inner, meter }
    }

    /// The meter this backend charges to.
    pub fn meter(&self) -> &Arc<IoMeter> {
        &self.meter
    }

    /// Access the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: StorageBackend> StorageBackend for MeteredBackend<B> {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        self.meter.record_write(data.len() as u64);
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let data = self.inner.get(key)?;
        self.meter.record_read(data.len() as u64);
        Ok(data)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn size(&self, key: &str) -> Result<u64> {
        self.inner.size(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        backend.put("tiles/tile-0", b"hello").unwrap();
        backend.put("tiles/tile-1", b"world!").unwrap();
        backend.put("degrees/out", b"123").unwrap();
        assert!(backend.exists("tiles/tile-0"));
        assert!(!backend.exists("missing"));
        assert_eq!(backend.get("tiles/tile-1").unwrap(), b"world!");
        assert_eq!(backend.size("tiles/tile-1").unwrap(), 6);
        assert_eq!(
            backend.list("tiles/"),
            vec!["tiles/tile-0".to_string(), "tiles/tile-1".to_string()]
        );
        assert_eq!(backend.total_bytes(), 5 + 6 + 3);
        backend.delete("tiles/tile-0").unwrap();
        assert!(!backend.exists("tiles/tile-0"));
        // Deleting again is fine.
        backend.delete("tiles/tile-0").unwrap();
        assert!(matches!(
            backend.get("tiles/tile-0"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn local_disk_backend_contract() {
        let dir = tempfile::tempdir().unwrap();
        exercise(&LocalDiskBackend::new(dir.path()).unwrap());
    }

    #[test]
    fn overwrite_replaces_content() {
        let b = MemoryBackend::new();
        b.put("k", b"aaa").unwrap();
        b.put("k", b"bb").unwrap();
        assert_eq!(b.get("k").unwrap(), b"bb");
        assert_eq!(b.total_bytes(), 2);
    }

    #[test]
    fn metered_backend_counts_bytes() {
        let meter = IoMeter::shared();
        let b = MeteredBackend::new(MemoryBackend::new(), Arc::clone(&meter));
        b.put("a", &[0u8; 100]).unwrap();
        let _ = b.get("a").unwrap();
        let _ = b.get("a").unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.bytes_written, 100);
        assert_eq!(snap.bytes_read, 200);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.read_ops, 2);
    }

    #[test]
    fn local_disk_nested_keys_map_to_directories() {
        let dir = tempfile::tempdir().unwrap();
        let b = LocalDiskBackend::new(dir.path()).unwrap();
        b.put("a/b/c/file.bin", b"x").unwrap();
        assert!(dir.path().join("a/b/c/file.bin").is_file());
        assert_eq!(b.list("a/b/"), vec!["a/b/c/file.bin".to_string()]);
    }
}
