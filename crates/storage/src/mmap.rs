//! Whole-file read access to locally persisted tiles, behind a memory-map API.
//!
//! When a tile misses the edge cache, a GraphH worker reads it from the server's
//! local disk (§III-C.3); a production implementation would map the file and
//! stream large tiles without a copy through a userspace buffer. This one does
//! not: [`MappedFile`] holds what `std::fs::read` returned — a copy, and it says
//! so — and nothing on the engines' run path uses it. ROADMAP's "partition
//! once, load many" item, part (c), decides between a real `mmap(2)` (declared
//! against the C ABI in this crate, as `graphh-runtime` declares `poll(2)`) and
//! deleting this module. The metering hook records the logical bytes touched
//! so the cost model charges the read to the simulated disk.

use crate::meter::IoMeter;
use crate::{Result, StorageError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A file's contents, read whole.
#[derive(Debug)]
pub struct MappedFile {
    path: PathBuf,
    bytes: Vec<u8>,
}

impl MappedFile {
    /// Read `path`. Empty files are supported (an empty slice).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(path.display().to_string())
            } else {
                StorageError::Io(e)
            }
        })?;
        Ok(Self { path, bytes })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Path the bytes came from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads tile files from a local directory whole, charging reads to a meter.
pub struct MmapTileReader {
    root: PathBuf,
    meter: Arc<IoMeter>,
}

impl MmapTileReader {
    /// A reader rooted at `root`, charging to `meter`.
    pub fn new(root: impl AsRef<Path>, meter: Arc<IoMeter>) -> Self {
        Self {
            root: root.as_ref().to_path_buf(),
            meter,
        }
    }

    /// Read the file stored under `key` and charge its full length as a read.
    pub fn read(&self, key: &str) -> Result<MappedFile> {
        let mapped = MappedFile::open(self.root.join(key))?;
        self.meter.record_read(mapped.len() as u64);
        Ok(mapped)
    }

    /// The meter reads are charged to.
    pub fn meter(&self) -> &Arc<IoMeter> {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_file_reads_contents() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("tile.bin");
        std::fs::write(&path, b"abcdef").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert_eq!(m.bytes(), b"abcdef");
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.path(), path);
    }

    #[test]
    fn missing_file_is_not_found() {
        let dir = tempfile::tempdir().unwrap();
        let err = MappedFile::open(dir.path().join("nope")).unwrap_err();
        assert!(matches!(err, StorageError::NotFound(_)));
    }

    #[test]
    fn reader_charges_meter() {
        let dir = tempfile::tempdir().unwrap();
        std::fs::write(dir.path().join("t0"), vec![1u8; 128]).unwrap();
        let meter = IoMeter::shared();
        let reader = MmapTileReader::new(dir.path(), Arc::clone(&meter));
        let m = reader.read("t0").unwrap();
        assert_eq!(m.len(), 128);
        assert_eq!(meter.snapshot().bytes_read, 128);
        assert_eq!(reader.meter().snapshot().read_ops, 1);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("empty");
        std::fs::write(&path, b"").unwrap();
        let m = MappedFile::open(&path).unwrap();
        assert!(m.is_empty());
    }
}
