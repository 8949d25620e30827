//! Byte-level object stores.
//!
//! A backend maps string keys to immutable byte blobs — exactly the access pattern
//! GraphH needs for tiles (written once by the pre-processing engine, read many
//! times by workers). Two stores and a wrapper:
//!
//! * [`MemoryBackend`] — in-process map; what a simulated server's local disk
//!   is today,
//! * [`LocalDiskBackend`] — one file per object under a root directory, and
//!   nothing else: any handle on the directory sees what any other wrote,
//! * [`MeteredBackend`] — wraps either and charges every byte to an
//!   [`IoMeter`].

use crate::lock::RwLock;
use crate::meter::IoMeter;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::path::{Component, Path, PathBuf};
use std::sync::Arc;

/// An object store keyed by string paths.
pub trait StorageBackend: Send + Sync {
    /// Store `data` under `key`, overwriting any existing object.
    fn put(&self, key: &str, data: &[u8]) -> Result<()>;

    /// Retrieve the object stored under `key`.
    fn get(&self, key: &str) -> Result<Vec<u8>>;

    /// Delete the object under `key` (idempotent).
    fn delete(&self, key: &str) -> Result<()>;

    /// All keys with the given prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;
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
}

/// Object store backed by files under a root directory. Keys may contain `/`, which
/// maps to subdirectories; the directory is the whole state, so a second handle
/// on it (another process, a later run) lists and reads what the first wrote.
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

    /// The file that stores `key`. Keys are relative paths of plain names:
    /// `join` lets an absolute key replace the root and a `..` climb out of it.
    fn path_for(&self, key: &str) -> Result<PathBuf> {
        let plain = |c| matches!(c, Component::Normal(_));
        if !Path::new(key).components().all(plain) {
            return Err(StorageError::InvalidArgument(format!(
                "key {key:?} is not a relative path under the store's root"
            )));
        }
        Ok(self.root.join(key))
    }
}

impl StorageBackend for LocalDiskBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<()> {
        let path = self.path_for(key)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, data)?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        let path = self.path_for(key)?;
        std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(key.to_string())
            } else {
                StorageError::Io(e)
            }
        })
    }

    fn delete(&self, key: &str) -> Result<()> {
        match std::fs::remove_file(self.path_for(key)?) {
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

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        backend.put("tiles/tile-0", b"hello").unwrap();
        backend.put("tiles/tile-1", b"world!").unwrap();
        backend.put("degrees/out", b"123").unwrap();
        assert_eq!(backend.get("tiles/tile-1").unwrap(), b"world!");
        assert!(matches!(
            backend.get("missing"),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(
            backend.list("tiles/"),
            vec!["tiles/tile-0".to_string(), "tiles/tile-1".to_string()]
        );
        assert_eq!(backend.list("").len(), 3);
        backend.delete("tiles/tile-0").unwrap();
        // Deleting again is fine.
        backend.delete("tiles/tile-0").unwrap();
        assert!(matches!(
            backend.get("tiles/tile-0"),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(backend.list("tiles/"), vec!["tiles/tile-1".to_string()]);
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

    /// A key that `Path::join` would resolve outside the root is refused by
    /// every operation, and the contract holds for a store nested under a
    /// directory such a key would have reached.
    #[test]
    fn local_disk_keys_cannot_leave_the_root() {
        let dir = tempfile::tempdir().unwrap();
        let outside = dir.path().join("outside.bin");
        std::fs::write(&outside, b"not the store's").unwrap();
        let b = LocalDiskBackend::new(dir.path().join("store")).unwrap();
        let absolute = outside.to_str().unwrap();
        for key in [absolute, "../outside.bin", "tiles/../../outside.bin", "./x"] {
            let refused = |r: Result<()>| matches!(r, Err(StorageError::InvalidArgument(_)));
            assert!(refused(b.put(key, b"overwritten")), "put {key}");
            assert!(refused(b.get(key).map(drop)), "get {key}");
            assert!(refused(b.delete(key)), "delete {key}");
        }
        assert_eq!(std::fs::read(&outside).unwrap(), b"not the store's");
        exercise(&b);
    }

    #[test]
    fn overwrite_replaces_content() {
        let b = MemoryBackend::new();
        b.put("k", b"aaa").unwrap();
        b.put("k", b"bb").unwrap();
        assert_eq!(b.get("k").unwrap(), b"bb");
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
