//! `Tile::from_bytes` sizes nothing from a header it has not checked against
//! the blob's length: whatever the header claims, the bytes it asks the
//! allocator for stay within the blob it was handed (plus the text of the
//! error it returns).
//!
//! A `Vec::with_capacity` of tens of GiB does not fail on a host that
//! overcommits, so only an allocator that records what it was asked for can
//! see this. The record is **thread-local** (the libtest harness thread
//! allocates at times of its own), and the binary holds a single `#[test]`.

use graphh_partition::{PartitionError, Tile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Adds up the bytes this thread requests (frees are irrelevant).
struct RecordingAllocator;

thread_local! {
    static REQUESTED_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// `try_with`: the allocator can be called during TLS teardown, when the
/// record is already gone — those requests are not ours to count.
fn record(bytes: usize) {
    let _ = REQUESTED_BYTES.try_with(|c| c.set(c.get().saturating_add(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only a `Cell`
// in thread-local storage and never allocates.
unsafe impl GlobalAlloc for RecordingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static RECORDING: RecordingAllocator = RecordingAllocator;

/// Bytes `Tile::from_bytes(blob)` requested, and whether it loaded.
fn load(blob: &[u8]) -> (usize, bool) {
    let before = REQUESTED_BYTES.with(Cell::get);
    let result = Tile::from_bytes(blob);
    let requested = REQUESTED_BYTES.with(Cell::get) - before;
    match result {
        Ok(_) => (requested, true),
        Err(PartitionError::Corrupt(_)) => (requested, false),
        Err(other) => panic!("not a corruption error: {other}"),
    }
}

/// Room for the error's text.
const ERROR_TEXT: usize = 512;

#[test]
fn from_bytes_never_requests_more_than_the_blob_it_was_given() {
    let lists: Vec<Vec<(u32, f32)>> = (0..64u32)
        .map(|t| (0..t % 7).map(|s| (s * 3 + t, s as f32 * 0.5)).collect())
        .collect();
    for weighted in [false, true] {
        let blob = Tile::from_adjacency(3, 100, &lists, weighted).to_bytes();
        let (requested, loaded) = load(&blob);
        assert!(loaded);
        assert!(
            requested <= blob.len(),
            "{requested} bytes for a {}-byte blob",
            blob.len()
        );

        // Every header field, and the first offsets, overwritten with the
        // claims that size the most: all-ones, a high bit, an off-by-one.
        for at in 8..29 + 4 * 8 {
            for claim in [u64::MAX, 1 << 61, 1 << 31, 65, 1] {
                for width in [1usize, 4, 8] {
                    let mut hostile = blob.clone();
                    let end = (at + width).min(hostile.len());
                    hostile[at..end].copy_from_slice(&claim.to_le_bytes()[..end - at]);
                    for len in [hostile.len(), 29, 37] {
                        let (requested, _) = load(&hostile[..len]);
                        assert!(
                            requested <= len + ERROR_TEXT,
                            "{requested} bytes for a {len}-byte blob \
                             ({claim:#x} over {width} bytes at {at})"
                        );
                    }
                }
            }
        }
    }
}
