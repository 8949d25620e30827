//! # graphh-cache
//!
//! GraphH's edge cache system (paper §IV-B).
//!
//! Each server keeps its assigned tiles on local disk; whatever memory is left after
//! vertex states and message buffers is used to cache tiles so later supersteps skip
//! the disk read. Under [`CacheMode::Auto`] the cache holds tiles **raw** when their
//! serialized bytes fit the capacity and **packed** otherwise ([`select_codec`]):
//! [`Codec::VarintDelta`] means, here, the tile's own CSR with degrees as varints
//! and each target's sources as zig-zag gaps ([`Tile::to_packed`], `docs/WIRE.md`
//! §12). On the benchmark's RMAT(17, 16) tiles that is 2.6× smaller than the
//! serialized tile, where the LZ frames are 1.4×. The paper's four cache modes
//! of Fig. 7 — raw, snappy, zlib-1, zlib-3 — stay available as
//! [`CacheMode::Fixed`].
//!
//! Raw mode stores the *decoded* tile behind an `Arc`, so a hit is a refcount bump —
//! no memcpy, no re-parse. The packed and LZ modes store a blob as an `Arc<[u8]>`
//! and decode it outside the cache lock on each hit. A packed hit
//! ([`Tile::from_packed`], through `graphh_compress::varint`) decodes sixteen
//! varints from each 64-byte load on a CPU with AVX-512 (F, BW, VBMI, VBMI2)
//! and BMI2, and a word at a time elsewhere, with no branch per byte either
//! way; one more pass sums each target's gaps into its sources. A packed
//! admission knows the blob's exact length before it packs
//! ([`Tile::packed_size`]), so a tile that will not fit is refused unpacked,
//! and one that fits is packed straight into the blob the cache keeps; both
//! are one pass over the sources, in the same lanes.
//!
//! ## Fill and hold
//!
//! There is no replacement policy, as in §IV-B: a missed tile is left in the cache
//! *if the cache is not full*, and a resident tile is never displaced. The first
//! admission refused for lack of room marks the cache **full**
//! ([`EdgeCache::is_full`]); from then on every admission returns before it
//! compresses anything, until [`EdgeCache::clear`]. SPE balances tiles by edge count,
//! so the room left unused after that first refusal is under one tile; it is not
//! back-filled with smaller tiles.
//!
//! GAB walks a server's tiles in the same order every superstep — a cyclic scan,
//! under which any recency-based eviction throws out exactly the tiles that are
//! about to be read again and pays a compression for each. Holding the first tiles
//! that fit gives every later superstep `resident_tiles` hits and no admission
//! work. The access pattern this serves worse than LRU would is a *wavefront*
//! (SSSP/BFS with tile skipping, whose active tiles move through the graph) under
//! a cache smaller than the tile set; no test, bench or experiment in this
//! repository runs that, and ROADMAP parks it.
//!
//! The cache counts hits, misses and refused admissions. The codec time a call
//! incurs is returned by that call ([`TileFetch::decompress_seconds`], the value
//! of [`EdgeCache::offer`]), so the engine charges it to the superstep in its own
//! order.

use graphh_compress::Codec;
use graphh_graph::ids::TileId;
use graphh_partition::Tile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How the cache chooses its codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheMode {
    /// Always use this codec (cache modes 1–4 of the paper's Fig. 7 when
    /// given `Raw`/`Snappy`/`Zlib1`/`Zlib3`; `VarintDelta` packs).
    Fixed(Codec),
    /// Raw if the tiles fit, packed if not ([`select_codec`]).
    Auto,
}

/// Configuration of one server's edge cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCacheConfig {
    /// Memory the cache may use, in bytes (the server's idle memory).
    pub capacity_bytes: u64,
    /// Codec selection policy.
    pub mode: CacheMode,
}

impl EdgeCacheConfig {
    /// A cache with automatic codec selection.
    pub fn auto(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            mode: CacheMode::Auto,
        }
    }
}

/// Counters the cache exposes for the experiment harness (Fig. 7b) and cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that found the tile in memory.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Admissions declined because the tile did not fit: in the LZ modes after
    /// compressing it, in the packed mode from its packed length, before
    /// packing. Admissions declined up front because the cache was already
    /// full are not counted.
    pub refused: u64,
    /// Tiles currently resident.
    pub resident_tiles: u64,
    /// Bytes currently used by cached (possibly compressed) tiles.
    pub used_bytes: u64,
}

impl CacheStats {
    /// Hit ratio (1.0 when never consulted).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The codec [`CacheMode::Auto`] caches with: [`Codec::Raw`] when the tiles'
/// serialized bytes fit the capacity, else the packed form
/// ([`Codec::VarintDelta`]), whose admission is what decides, tile by tile,
/// how many fit.
pub fn select_codec(total_tile_bytes: u64, capacity_bytes: u64) -> Codec {
    if total_tile_bytes <= capacity_bytes {
        Codec::Raw
    } else {
        Codec::VarintDelta
    }
}

/// How a tile is held in memory.
#[derive(Debug, Clone)]
enum Stored {
    /// Raw mode: the *decoded* tile. A hit is an `Arc` refcount bump — no
    /// memcpy, no re-parse.
    Raw(Arc<Tile>),
    /// `VarintDelta`: the tile's packed form ([`Tile::to_packed`]),
    /// reference-counted so hits can unpack outside the cache lock without
    /// cloning the bytes.
    Packed(Arc<[u8]>),
    /// The LZ modes: the compressed serialized tile, shared the same way.
    Compressed(Arc<[u8]>),
}

#[derive(Debug)]
struct Entry {
    data: Stored,
    /// Bytes charged against the capacity: the serialized tile size for raw
    /// mode (what the old byte-blob cache charged), the blob's length
    /// otherwise.
    charged_bytes: u64,
}

/// A cache hit: the decoded tile plus the decompression time this particular
/// hit cost (0 for raw mode). Returning the per-hit time lets callers
/// accumulate codec time in a deterministic order of their own choosing
/// (the engine reduces per-tile metrics in tile order), instead of relying on
/// the cache's internal, lock-order-dependent accumulation.
#[derive(Debug)]
pub struct TileFetch {
    /// The decoded tile.
    pub tile: Arc<Tile>,
    /// Seconds of decompression charged for this hit.
    pub decompress_seconds: f64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<TileId, Entry>,
    used_bytes: u64,
    /// Set by the first admission refused for lack of room; see
    /// [`EdgeCache::is_full`].
    full: bool,
    hits: u64,
    misses: u64,
    refused: u64,
}

/// A capacity-bounded, fill-and-hold, optionally compressing tile cache (see
/// the crate documentation for the admission rule).
#[derive(Debug)]
pub struct EdgeCache {
    capacity: u64,
    codec: Codec,
    inner: Mutex<Inner>,
}

impl EdgeCache {
    /// Build a cache for a tile set whose serialized size totals `total_tile_bytes`.
    /// With [`CacheMode::Auto`] the codec is selected from that size and the capacity.
    pub fn new(config: EdgeCacheConfig, total_tile_bytes: u64) -> Self {
        let codec = match config.mode {
            CacheMode::Fixed(c) => c,
            CacheMode::Auto => select_codec(total_tile_bytes, config.capacity_bytes),
        };
        Self {
            capacity: config.capacity_bytes,
            codec,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The cache's state. A lock poisoned by a panic elsewhere is recovered:
    /// nothing under it can panic part-way through an update (counter bumps
    /// and one map insert), so the state is valid whenever it is reachable.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The codec the cache ended up using.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether the cache has stopped accepting tiles: an admission has been
    /// refused for lack of room since the last [`EdgeCache::clear`], or the
    /// capacity is zero. Once full, [`EdgeCache::offer`] and
    /// [`EdgeCache::admit`] return 0.0 without serialising or compressing, so
    /// callers can also stop keeping missed tiles around for admission.
    pub fn is_full(&self) -> bool {
        self.capacity == 0 || self.lock().full
    }

    /// Look up a tile. On a hit in the packed or an LZ mode the blob is
    /// unpacked, or decompressed and parsed, outside the cache lock.
    ///
    /// `_stamp` is ignored: it was the recency stamp of the LRU this cache used
    /// to be, and stays in the signature only until `benchmark/`, which passes
    /// one, can be changed.
    pub fn lookup(&self, tile_id: TileId, _stamp: u64) -> Option<TileFetch> {
        let mut inner = self.lock();
        let Some(data) = inner.entries.get(&tile_id).map(|e| e.data.clone()) else {
            inner.misses += 1;
            return None;
        };
        inner.hits += 1;
        // Unpack or decompress + parse outside the lock.
        drop(inner);
        let (blob, tile) = match data {
            Stored::Raw(tile) => {
                return Some(TileFetch {
                    tile,
                    decompress_seconds: 0.0,
                })
            }
            Stored::Packed(blob) => {
                let tile = Tile::from_packed(&blob).expect("cache blob is a packed tile");
                (blob, tile)
            }
            Stored::Compressed(blob) => {
                let bytes = self
                    .codec
                    .decompress(&blob)
                    .expect("cache blob was produced by this codec");
                let tile = Tile::from_bytes(&bytes).expect("cache blob is a serialized tile");
                (blob, tile)
            }
        };
        Some(TileFetch {
            tile: Arc::new(tile),
            decompress_seconds: blob.len() as f64 / self.codec.decompress_throughput(),
        })
    }

    /// Offer a tile that missed. The cache takes what its mode needs from the
    /// decoded tile — raw mode shares the `Arc` and charges the serialized
    /// size, `VarintDelta` packs it ([`Tile::to_packed`]), the LZ modes
    /// re-serialise it ([`Tile::to_bytes`] is byte-identical to the on-disk
    /// form) and compress — so the caller does not have to keep or re-read the
    /// fetched blob.
    ///
    /// The tile is kept if it fits beside the residents (offering a resident
    /// id again replaces that entry); nothing is ever evicted to make room. A
    /// tile that alone exceeds the capacity is not cached; any other refusal
    /// marks the cache full. Returns the compression time charged (0 for raw
    /// mode, and 0 once the cache is full), so the caller can fold it into its
    /// own metrics deterministically.
    pub fn offer(&self, tile_id: TileId, tile: &Arc<Tile>) -> f64 {
        if self.is_full() {
            return 0.0;
        }
        let compress_seconds = match self.codec {
            Codec::Raw => 0.0,
            codec => tile.serialized_size() as f64 / codec.compress_throughput(),
        };
        let (data, charged_bytes) = match self.codec {
            Codec::Raw => (Stored::Raw(Arc::clone(tile)), tile.serialized_size()),
            Codec::VarintDelta => {
                // The packed length is known before packing: refuse a tile
                // that will not fit without spending the work.
                let charged = tile.packed_size();
                if self.refuses(&mut self.lock(), tile_id, charged) {
                    return compress_seconds;
                }
                let mut blob: Arc<[u8]> = std::iter::repeat_n(0, charged as usize).collect();
                tile.pack_into(Arc::get_mut(&mut blob).expect("a fresh Arc is unique"));
                (Stored::Packed(blob), charged)
            }
            codec => {
                let blob = codec.compress(&tile.to_bytes());
                let charged = blob.len() as u64;
                (
                    Stored::Compressed(Arc::from(blob.into_boxed_slice())),
                    charged,
                )
            }
        };
        let mut inner = self.lock();
        if self.refuses(&mut inner, tile_id, charged_bytes) {
            return compress_seconds;
        }
        let replaced = inner.entries.get(&tile_id).map_or(0, |e| e.charged_bytes);
        inner.used_bytes = inner.used_bytes - replaced + charged_bytes;
        inner.entries.insert(
            tile_id,
            Entry {
                data,
                charged_bytes,
            },
        );
        compress_seconds
    }

    /// Whether `charged_bytes` for `tile_id` does not fit beside the
    /// residents (offering a resident id again replaces that entry); a
    /// refusal is counted, and marks the cache full unless the tile alone
    /// exceeds the capacity.
    fn refuses(&self, inner: &mut Inner, tile_id: TileId, charged_bytes: u64) -> bool {
        let replaced = inner.entries.get(&tile_id).map_or(0, |e| e.charged_bytes);
        if inner.used_bytes - replaced + charged_bytes <= self.capacity {
            return false;
        }
        inner.refused += 1;
        // A tile bigger than the whole cache says nothing about how much
        // room is left for the others.
        inner.full |= charged_bytes <= self.capacity;
        true
    }

    /// [`EdgeCache::offer`] under the signature `benchmark/` calls, kept only
    /// until that directory can be changed: `_serialized` (the tile's on-disk
    /// form, which `decoded` re-serialises to) and `_stamp` (a recency stamp,
    /// as in [`EdgeCache::lookup`]) are ignored.
    pub fn admit(
        &self,
        tile_id: TileId,
        _serialized: &[u8],
        decoded: &Arc<Tile>,
        _stamp: u64,
    ) -> f64 {
        self.offer(tile_id, decoded)
    }

    /// Whether a tile is currently resident (does not affect stats).
    pub fn contains(&self, tile_id: TileId) -> bool {
        self.lock().entries.contains_key(&tile_id)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            refused: inner.refused,
            resident_tiles: inner.entries.len() as u64,
            used_bytes: inner.used_bytes,
        }
    }

    /// Drop every cached tile and accept admissions again.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        inner.used_bytes = 0;
        inner.full = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(id: TileId, edges_per_target: usize) -> Arc<Tile> {
        let adjacency: Vec<Vec<(u32, f32)>> = (0..10)
            .map(|t| {
                (0..edges_per_target)
                    .map(|s| ((t * 100 + s) as u32, 1.0))
                    .collect()
            })
            .collect();
        Arc::new(Tile::from_adjacency(id, id * 10, &adjacency, false))
    }

    fn fixed(capacity_bytes: u64, codec: Codec) -> EdgeCache {
        EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes,
                mode: CacheMode::Fixed(codec),
            },
            0,
        )
    }

    fn fetch(cache: &EdgeCache, id: TileId) -> Option<Arc<Tile>> {
        cache.lookup(id, 0).map(|f| f.tile)
    }

    /// A tile-phase thread that panics while holding the cache lock (a bug
    /// elsewhere) must not turn every later cache call into a second panic.
    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_cache() {
        let cache = fixed(1 << 20, Codec::Raw);
        cache.offer(1, &tile(1, 3));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.lock();
                    panic!("while holding the cache lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(fetch(&cache, 1).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn auto_mode_is_raw_when_the_tiles_fit_and_packed_otherwise() {
        assert_eq!(select_codec(100, 1000), Codec::Raw);
        assert_eq!(select_codec(1000, 1000), Codec::Raw);
        for total in [1001, 1800, 3900, 4900, 100_000] {
            assert_eq!(select_codec(total, 1000), Codec::VarintDelta, "{total}");
        }
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1000), 1001);
        assert_eq!(cache.codec(), Codec::VarintDelta);
    }

    #[test]
    fn hit_returns_identical_tile() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 1 << 10);
        let t = tile(3, 5);
        assert!(fetch(&cache, 3).is_none());
        cache.offer(3, &t);
        let got = fetch(&cache, 3).expect("tile should be cached");
        assert_eq!(*got, *t);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_tiles, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn packed_and_lz_modes_roundtrip_and_record_time() {
        for codec in [
            Codec::Snappy,
            Codec::Zlib1,
            Codec::Zlib3,
            Codec::VarintDelta,
        ] {
            let cache = fixed(1 << 20, codec);
            let t = tile(1, 50);
            assert!(cache.offer(1, &t) > 0.0, "{codec:?}");
            let hit = cache.lookup(1, 0).unwrap();
            assert_eq!(*hit.tile, *t);
            assert!(hit.decompress_seconds > 0.0, "{codec:?}");
            assert!(
                cache.stats().used_bytes < t.serialized_size(),
                "{codec:?} should compress"
            );
        }
    }

    /// `VarintDelta` holds exactly the tile's packed form, charges its
    /// length, and bills admission and hits at the codec's cost-model rates.
    #[test]
    fn the_packed_mode_holds_the_packed_form() {
        let cache = fixed(1 << 20, Codec::VarintDelta);
        let t = tile(2, 40);
        let mut packed = Vec::new();
        t.to_packed(&mut packed);
        let compress_seconds = cache.offer(2, &t);
        assert_eq!(cache.stats().used_bytes, packed.len() as u64);
        assert_eq!(t.packed_size(), packed.len() as u64);
        let codec = Codec::VarintDelta;
        assert_eq!(
            compress_seconds,
            t.serialized_size() as f64 / codec.compress_throughput()
        );
        let hit = cache.lookup(2, 0).unwrap();
        assert_eq!(
            hit.decompress_seconds,
            packed.len() as f64 / codec.decompress_throughput()
        );
        assert_eq!(*hit.tile, *t);
    }

    #[test]
    fn residents_are_never_displaced_and_first_refusal_fills_the_cache() {
        for codec in [Codec::Raw, Codec::Zlib1, Codec::VarintDelta] {
            // Size the cache from what two tiles actually charge.
            let probe = fixed(u64::MAX, codec);
            probe.offer(0, &tile(0, 20));
            let capacity = probe.stats().used_bytes * 2 + 10;
            let cache = fixed(capacity, codec);
            cache.offer(0, &tile(0, 20));
            cache.offer(1, &tile(1, 20));
            assert!(!cache.is_full(), "{codec:?}: nothing refused yet");
            // Looking tile 0 up does not make tile 1 a victim: there are none.
            assert!(fetch(&cache, 0).is_some());
            let refused_compress = cache.offer(2, &tile(2, 20));
            assert!(cache.contains(0) && cache.contains(1), "{codec:?}");
            assert!(!cache.contains(2), "{codec:?}: no room, not cached");
            assert!(cache.is_full(), "{codec:?}");
            let stats = cache.stats();
            assert_eq!(stats.refused, 1);
            assert_eq!(stats.resident_tiles, 2);
            assert!(stats.used_bytes <= cache.capacity());
            // The refused tile is still billed its modelled compression:
            // the LZ modes compress it to learn its size, the packed mode
            // refuses it from `Tile::packed_size` without packing it.
            // Nothing offered after it is billed.
            assert_eq!(refused_compress > 0.0, codec != Codec::Raw);
            assert_eq!(cache.offer(3, &tile(3, 1)), 0.0, "{codec:?}");
            assert_eq!(cache.admit(4, b"unused", &tile(4, 1), 9), 0.0);
            assert!(!cache.contains(3) && !cache.contains(4));
            assert_eq!(cache.stats().refused, 1, "declined up front, not counted");
        }
    }

    #[test]
    fn clear_reopens_a_full_cache() {
        let t = tile(0, 20);
        let cache = fixed(t.serialized_size() + 10, Codec::Raw);
        cache.offer(0, &t);
        cache.offer(1, &tile(1, 20));
        assert!(cache.is_full() && !cache.contains(1));
        cache.clear();
        assert!(!cache.is_full());
        cache.offer(1, &tile(1, 20));
        assert!(cache.contains(1) && !cache.contains(0));
    }

    #[test]
    fn oversized_tile_is_not_cached() {
        let cache = fixed(16, Codec::Raw);
        cache.offer(7, &tile(7, 50));
        assert!(!cache.contains(7));
        assert_eq!(cache.stats().resident_tiles, 0);
        // It alone exceeds the capacity, which says nothing about the rest.
        assert!(!cache.is_full());
    }

    #[test]
    fn reoffering_same_tile_does_not_leak_bytes() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 0);
        let t = tile(5, 10);
        cache.offer(5, &t);
        let used_once = cache.stats().used_bytes;
        cache.offer(5, &t);
        assert_eq!(cache.stats().used_bytes, used_once);
        assert_eq!(cache.stats().resident_tiles, 1);
    }

    #[test]
    fn clear_drops_every_tile() {
        let cache = EdgeCache::new(EdgeCacheConfig::auto(1 << 20), 0);
        cache.offer(1, &tile(1, 5));
        assert_eq!(cache.stats().resident_tiles, 1);
        cache.clear();
        assert_eq!(cache.stats().resident_tiles, 0);
        assert_eq!(cache.stats().used_bytes, 0);
    }

    #[test]
    fn raw_mode_hits_share_one_decoded_tile() {
        let cache = fixed(1 << 20, Codec::Raw);
        let t = tile(4, 8);
        cache.offer(4, &t);
        let a = fetch(&cache, 4).unwrap();
        let b = fetch(&cache, 4).unwrap();
        // A raw hit is a refcount bump on the offered tile, not a copy.
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &t));
        assert_eq!(cache.lookup(4, 0).unwrap().decompress_seconds, 0.0);
    }

    #[test]
    fn admit_caches_the_decoded_tile_whatever_bytes_come_with_it() {
        // `admit` is `offer` under the benchmark's signature: the bytes and
        // the stamp are ignored, so nothing unparseable can get in, and a
        // resident id is replaced (and compressed again).
        let cache = fixed(u64::MAX, Codec::Zlib1);
        let t = tile(9, 30);
        let first = cache.admit(9, b"definitely not a tile", &t, 1);
        let again = cache.admit(9, &t.to_bytes(), &t, 1);
        assert!(first > 0.0 && first == again);
        assert_eq!(*fetch(&cache, 9).unwrap(), *t);
        assert_eq!(cache.stats().resident_tiles, 1);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        for codec in [Codec::Raw, Codec::Zlib1, Codec::VarintDelta] {
            let cache = fixed(0, codec);
            // Born full: nothing is even compressed for it.
            assert!(cache.is_full());
            assert_eq!(cache.offer(0, &tile(0, 5)), 0.0);
            assert!(fetch(&cache, 0).is_none());
            assert_eq!(cache.stats().hit_ratio(), 0.0);
        }
    }
}
