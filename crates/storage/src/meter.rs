//! I/O metering: every byte the engines move through storage is counted here so the
//! cluster cost model can convert traffic into simulated time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters for one storage device (a server's local disk, or the DFS).
#[derive(Debug, Default)]
pub struct IoMeter {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
}

impl IoMeter {
    /// A fresh meter wrapped in an [`Arc`] so several backends can share it.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record a read of `bytes` bytes.
    pub fn record_read(&self, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of an [`IoMeter`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
}

impl IoSnapshot {
    /// Difference `self - earlier`, useful for per-superstep accounting.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            read_ops: self.read_ops - earlier.read_ops,
            write_ops: self.write_ops - earlier.write_ops,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_resets() {
        let m = IoMeter::default();
        m.record_read(100);
        m.record_read(50);
        m.record_write(10);
        let s = m.snapshot();
        assert_eq!(s.bytes_read, 150);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.total_bytes(), 160);
        m.reset();
        assert_eq!(m.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_since_computes_delta() {
        let m = IoMeter::default();
        m.record_read(100);
        let a = m.snapshot();
        m.record_read(40);
        m.record_write(5);
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_read, 40);
        assert_eq!(d.bytes_written, 5);
        assert_eq!(d.read_ops, 1);
    }

    #[test]
    fn meter_is_thread_safe() {
        let m = IoMeter::shared();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_read(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.snapshot().bytes_read, 4000);
    }
}
