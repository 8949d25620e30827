//! The pre-processing engine ("SPE", paper §III-B, Algorithm 4).
//!
//! The original system runs three Spark map-reduce jobs; here the same three
//! logical passes are three linear passes over the in-memory edge list — a
//! counting sort keyed by target vertex, the degree-count → prefix-sum →
//! scatter CSR build of the GAP benchmark suite:
//!
//! 1. degree counting ([`Graph`] already holds both arrays),
//! 2. splitter construction from the in-degree array,
//! 3. grouping edges by tile: the exclusive prefix sum of the in-degree array
//!    is every target's first slot, one sequential pass scatters each edge's
//!    source (and weight, if the graph has weights) to its target's next
//!    slot, and tile `t` is then the contiguous slice its target range
//!    `[lo, hi)` covers. Each tile — sort every target's run by source id,
//!    cut the offsets — is one item on a [`graphh_pool::WorkerPool`] (the
//!    same persistent pool substrate the engine's tile phases run on).
//!
//! The run sort is a hybrid. In an unweighted graph a run longer than 256
//! sources (a hub's in-edges; on RMAT-17 about 39 % of all edges) gets a
//! two-pass LSD radix on the source id, each digit half the id width, when
//! that half is at most 11 bits (fewer than 2²² vertices); every other run
//! gets `sort_unstable`. Equal sources are indistinguishable, so both leave
//! the same slice. A weighted run keeps `sort_unstable_by_key` on the source,
//! whose order of equal sources (and so of their weights) the tile bytes pin.
//!
//! The scatter is sequential and the tiles are disjoint slices, so the output
//! does not depend on the pool size.
//!
//! The output — tiles plus the in/out-degree arrays — is persisted to a
//! [`StorageBackend`] once ([`PartitionedGraph::persist`]) and loaded by any
//! process with a handle on the same store ([`PartitionedGraph::load`]), like
//! the paper's pre-processing results. Where an object lives in the store and
//! what is written there is decided in this crate only.
//!
//! A partitioned graph also keeps what runs over it derive from its tiles:
//! an in-memory tile store, to which the server owning a tile stages it the
//! first time a run needs it ([`PartitionedGraph::stage_tile`]), each tile's
//! [`SourceSet`] ([`PartitionedGraph::source_set`]), and each server tile
//! list's [`PushTranspose`] ([`PartitionedGraph::push_transpose`]). Each is
//! built at most once and shared by every later run and every clone.

use crate::source_set::SourceSet;
use crate::splitter::Splitter;
use crate::tile::Tile;
use crate::transpose::PushTranspose;
use crate::{PartitionError, Result};
use graphh_graph::ids::{TileId, VertexId};
use graphh_graph::{Graph, GraphStats};
use graphh_pool::WorkerPool;
use graphh_storage::{MemoryBackend, MeteredBackend, StorageBackend};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Configuration of the pre-processing engine.
#[derive(Debug, Clone)]
pub struct SpeConfig {
    /// Logical name of the graph; the key prefix of everything it persists.
    pub graph_name: String,
    /// Average number of edges per tile (the paper's `S`). The paper recommends
    /// 15–25 million for production graphs; tests and the scaled-down experiments use
    /// much smaller values so several tiles exist per server.
    pub avg_tile_size: u64,
}

impl SpeConfig {
    /// Config with an explicit average tile size.
    pub fn new(graph_name: impl Into<String>, avg_tile_size: u64) -> Self {
        Self {
            graph_name: graph_name.into(),
            avg_tile_size,
        }
    }

    /// Config that aims for a given number of tiles on a specific graph.
    pub fn with_tile_count(graph_name: impl Into<String>, graph: &Graph, num_tiles: u32) -> Self {
        let avg = (graph.num_edges() / u64::from(num_tiles.max(1))).max(1);
        Self::new(graph_name, avg)
    }
}

/// The artifact the SPE produces: tiles, degree arrays and summary statistics.
///
/// The tiles are immutable once partitioned: the staged blobs and source sets
/// the graph keeps for its runs are derived from them, and a clone shares
/// those with the graph it was cloned from.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// Logical graph name (the store key prefix).
    pub graph_name: String,
    /// The tiles, indexed by tile id.
    pub tiles: Vec<Tile>,
    /// The splitter that produced the tiles.
    pub splitter: Splitter,
    /// In-degree of every vertex.
    pub in_degrees: Vec<u32>,
    /// Out-degree of every vertex.
    pub out_degrees: Vec<u32>,
    /// Statistics of the source graph.
    pub stats: GraphStats,
    /// What runs derive from the tiles, shared with every clone.
    derived: Arc<Derived>,
}

/// A server tile list's transpose, once built: the slot its builder fills
/// and concurrent askers wait on.
type TransposeSlot = Arc<OnceLock<Arc<PushTranspose>>>;

/// What runs over a partitioned graph derive from its tiles, at most once per
/// tile (indexed by tile id) or per server tile list.
struct Derived {
    /// The in-memory store servers stage their tiles to and read them from.
    store: Arc<MemoryBackend>,
    /// A tile's key in `store`, once it is staged there.
    staged: Box<[OnceLock<String>]>,
    /// A tile's source set, once built.
    source_sets: Box<[OnceLock<Arc<SourceSet>>]>,
    /// The push transpose of every tile list a server has asked for. The
    /// lock is held only to find or add a list's slot, never for a build.
    push_transposes: Mutex<Vec<(Box<[TileId]>, TransposeSlot)>>,
}

impl Derived {
    fn new(num_tiles: usize) -> Arc<Self> {
        Arc::new(Self {
            store: Arc::new(MemoryBackend::new()),
            staged: (0..num_tiles).map(|_| OnceLock::new()).collect(),
            source_sets: (0..num_tiles).map(|_| OnceLock::new()).collect(),
            push_transposes: Mutex::new(Vec::new()),
        })
    }

    /// The transpose slots built so far.
    fn built_transposes(&self) -> usize {
        let lists = self
            .push_transposes
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        lists
            .iter()
            .filter(|(_, slot)| slot.get().is_some())
            .count()
    }
}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn built<T>(slots: &[OnceLock<T>]) -> usize {
            slots.iter().filter(|slot| slot.get().is_some()).count()
        }
        f.debug_struct("Derived")
            .field("staged_tiles", &built(&self.staged))
            .field("source_sets", &built(&self.source_sets))
            .field("push_transposes", &self.built_transposes())
            .finish()
    }
}

/// The pre-processing engine.
#[derive(Debug, Default)]
pub struct Spe;

/// Every edge's source — with its weight when the graph has weights — grouped
/// by target vertex, in edge-list order within a target.
enum Grouped {
    Unweighted(Vec<VertexId>),
    Weighted(Vec<(VertexId, f32)>),
}

/// The scatter pass of the counting sort: `items[i]` goes to the next free
/// slot of `targets[i]`, where target `v`'s slots start at `first[v]`.
fn scatter<T: Copy + Default>(
    first: &[usize],
    targets: &[VertexId],
    items: impl Iterator<Item = T>,
) -> Vec<T> {
    let mut next = first.to_vec();
    let mut grouped = vec![T::default(); targets.len()];
    for (&dst, item) in targets.iter().zip(items) {
        let slot = &mut next[dst as usize];
        grouped[*slot] = item;
        *slot += 1;
    }
    grouped
}

/// Runs longer than this are radix sorted; shorter ones compare-sorted.
const RADIX_MIN_RUN: usize = 256;

/// The widest radix digit: two passes of it cover ids below 2²², and each
/// pass clears a count table of `2^bits` entries.
const RADIX_MAX_DIGIT_BITS: u32 = 11;

/// Sorts one target's run of source ids: `sort_unstable` for short runs, a
/// two-pass LSD radix for long ones when every id fits two digits. Equal ids
/// are interchangeable, so both give the same slice.
struct RunSorter {
    /// Bits per radix digit; `None` when the ids are too wide for two.
    digit_bits: Option<u32>,
    counts: Vec<usize>,
    scratch: Vec<VertexId>,
}

impl RunSorter {
    /// A sorter for source ids below `num_vertices`.
    fn new(num_vertices: u64) -> Self {
        let id_bits = u64::BITS - num_vertices.saturating_sub(1).leading_zeros();
        let digit_bits = id_bits.div_ceil(2);
        Self {
            digit_bits: (1..=RADIX_MAX_DIGIT_BITS)
                .contains(&digit_bits)
                .then_some(digit_bits),
            counts: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn sort(&mut self, run: &mut [VertexId]) {
        match self.digit_bits {
            Some(bits) if run.len() > RADIX_MIN_RUN => self.radix(run, bits),
            _ => run.sort_unstable(),
        }
    }

    /// LSD radix: one pass counts both digits, then the low digit scatters
    /// `run` into the scratch and the high digit scatters it back.
    fn radix(&mut self, run: &mut [VertexId], bits: u32) {
        let buckets = 1usize << bits;
        let mask = buckets as VertexId - 1;
        self.counts.clear();
        self.counts.resize(2 * buckets, 0);
        let (low, high) = self.counts.split_at_mut(buckets);
        for &v in run.iter() {
            low[(v & mask) as usize] += 1;
            high[(v >> bits) as usize] += 1;
        }
        for counts in [&mut *low, &mut *high] {
            let mut next = 0;
            for count in counts.iter_mut() {
                (*count, next) = (next, next + *count);
            }
        }
        self.scratch.resize(run.len(), 0);
        for &v in run.iter() {
            let slot = &mut low[(v & mask) as usize];
            self.scratch[*slot] = v;
            *slot += 1;
        }
        for &v in &self.scratch[..run.len()] {
            let slot = &mut high[(v >> bits) as usize];
            run[*slot] = v;
            *slot += 1;
        }
    }
}

impl Spe {
    /// Partition a graph into tiles (stage one of GraphH's two-stage
    /// partitioning) on a freshly sized worker pool. Callers that already own
    /// a pool — the `graphh-node` launcher partitions and then runs on one —
    /// should use [`Spe::partition_with_pool`] to avoid standing up a second
    /// set of threads.
    pub fn partition(graph: &Graph, config: &SpeConfig) -> Result<PartitionedGraph> {
        Self::partition_with_pool(graph, config, &WorkerPool::with_host_parallelism())
    }

    /// Partition a graph into tiles, building the tiles on the caller's
    /// worker pool. The result is bit-identical for any pool size (the
    /// scatter is sequential, tiles are built per index).
    pub fn partition_with_pool(
        graph: &Graph,
        config: &SpeConfig,
        pool: &WorkerPool,
    ) -> Result<PartitionedGraph> {
        if config.avg_tile_size == 0 {
            return Err(PartitionError::InvalidConfig(
                "avg_tile_size must be at least 1".into(),
            ));
        }
        let in_degrees = graph.in_degrees().to_vec();
        let out_degrees = graph.out_degrees().to_vec();
        let splitter = Splitter::from_in_degrees(&in_degrees, config.avg_tile_size)?;

        // Target v's in-edges occupy first[v]..first[v + 1] once grouped.
        let mut first = Vec::with_capacity(in_degrees.len() + 1);
        let mut total = 0usize;
        first.push(total);
        for &d in &in_degrees {
            total += d as usize;
            first.push(total);
        }
        let edges = graph.edges();
        let sources = edges.sources().iter().copied();
        let grouped = match edges.weights() {
            None => Grouped::Unweighted(scatter(&first, edges.targets(), sources)),
            Some(weights) => Grouped::Weighted(scatter(
                &first,
                edges.targets(),
                sources.zip(weights.iter().copied()),
            )),
        };

        // One pool item per tile: copy the tile's slice out, sort each
        // target's run by source id (deterministic output and better delta
        // compression) and cut the offsets relative to the tile.
        let tiles = pool.fork_join_ordered(splitter.num_tiles() as usize, |t| {
            let (lo, hi) = splitter.tile_range(t as TileId);
            let (start, end) = (first[lo as usize], first[hi as usize]);
            let offsets: Vec<u64> = first[lo as usize..=hi as usize]
                .iter()
                .map(|&slot| (slot - start) as u64)
                .collect();
            let runs = offsets.windows(2).map(|w| w[0] as usize..w[1] as usize);
            let (sources, weights) = match &grouped {
                Grouped::Unweighted(all) => {
                    let mut sources = all[start..end].to_vec();
                    let mut sorter = RunSorter::new(graph.num_vertices());
                    runs.for_each(|run| sorter.sort(&mut sources[run]));
                    (sources, None)
                }
                Grouped::Weighted(all) => {
                    let mut pairs = all[start..end].to_vec();
                    runs.for_each(|run| pairs[run].sort_unstable_by_key(|&(s, _)| s));
                    let (sources, weights) = pairs.into_iter().unzip();
                    (sources, Some(weights))
                }
            };
            Tile::from_csr(t as TileId, lo, hi, offsets, sources, weights)
        });

        Ok(PartitionedGraph {
            graph_name: config.graph_name.clone(),
            tiles: tiles.into_iter().collect::<Result<_>>()?,
            derived: Derived::new(splitter.num_tiles() as usize),
            splitter,
            in_degrees,
            out_degrees,
            stats: graph.stats().named(config.graph_name.clone()),
        })
    }
}

impl PartitionedGraph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.in_degrees.len() as u64
    }

    /// Number of edges across all tiles.
    pub fn num_edges(&self) -> u64 {
        self.tiles.iter().map(Tile::num_edges).sum()
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> u32 {
        self.tiles.len() as u32
    }

    /// Total serialized size of all tiles in bytes — the "GraphH" column of Table IV
    /// minus the two degree arrays.
    pub fn total_tile_bytes(&self) -> u64 {
        self.tiles.iter().map(Tile::serialized_size).sum()
    }

    /// Total input footprint (tiles + degree arrays), i.e. the Table IV entry.
    pub fn total_input_bytes(&self) -> u64 {
        self.total_tile_bytes() + 2 * 4 * self.num_vertices()
    }

    /// Largest tile size in edges (the balance property the two-stage scheme targets).
    pub fn max_tile_edges(&self) -> u64 {
        self.tiles.iter().map(Tile::num_edges).max().unwrap_or(0)
    }

    /// Write tile `tile_id` to `store` under its [`Tile::storage_key`] and
    /// return the key: the one writer of tiles. [`PartitionedGraph::persist`]
    /// is this for every tile, and a server staging its assigned tiles on its
    /// local disk calls it for those, so that disk holds a subset of what
    /// `persist` writes, byte for byte and key for key.
    pub fn persist_tile(&self, store: &impl StorageBackend, tile_id: TileId) -> Result<String> {
        let key = Tile::storage_key(&self.graph_name, tile_id);
        store.put(&key, &self.tiles[tile_id as usize].to_bytes())?;
        Ok(key)
    }

    /// The in-memory tile store runs over this graph stage tiles to
    /// ([`Self::stage_tile`]) and read them from; clones share it.
    pub fn tile_store(&self) -> &Arc<MemoryBackend> {
        &self.derived.store
    }

    /// Stage tile `tile_id` in [`Self::tile_store`] through `disk` — a
    /// server's metered handle on that store — unless it is staged there
    /// already, and return its key. The first call for a tile, from this
    /// graph or any clone, writes it through [`Self::persist_tile`] and is
    /// charged for it; a concurrent call waits for that write, and every
    /// later one writes nothing.
    ///
    /// # Panics
    ///
    /// If `disk` is not a handle on this graph's [`Self::tile_store`].
    pub fn stage_tile(&self, disk: &MeteredBackend<Arc<MemoryBackend>>, tile_id: TileId) -> &str {
        assert!(
            Arc::ptr_eq(disk.inner(), &self.derived.store),
            "tiles are staged to the partitioned graph's own tile store"
        );
        self.derived.staged[tile_id as usize].get_or_init(|| {
            self.persist_tile(disk, tile_id)
                .expect("a put to an in-memory store cannot fail")
        })
    }

    /// The source set of tile `tile_id`: built the first time any run over
    /// this graph, or a clone of it, asks, and kept.
    pub fn source_set(&self, tile_id: TileId) -> &Arc<SourceSet> {
        self.derived.source_sets[tile_id as usize].get_or_init(|| {
            let tile = &self.tiles[tile_id as usize];
            Arc::new(SourceSet::build(tile.sources(), self.num_vertices()))
        })
    }

    /// The push transpose of the tiles `tile_ids` — a server's tile list,
    /// ascending: built the first time any run over this graph, or a clone
    /// of it, asks for that list, and kept. A concurrent ask for the same
    /// list waits for that build; one for another list builds beside it.
    pub fn push_transpose(&self, tile_ids: &[TileId]) -> Arc<PushTranspose> {
        let slot = {
            let mut lists = self
                .derived
                .push_transposes
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match lists.iter().find(|(list, _)| **list == *tile_ids) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = TransposeSlot::default();
                    lists.push((tile_ids.into(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        let transpose = slot.get_or_init(|| {
            let tiles: Vec<&Tile> = tile_ids
                .iter()
                .map(|&tid| &self.tiles[tid as usize])
                .collect();
            Arc::new(PushTranspose::new(&tiles, self.num_vertices()))
        });
        Arc::clone(transpose)
    }

    /// How many push transposes ([`Self::push_transpose`]) this graph and
    /// its clones have built: one per distinct server tile list a
    /// push-capable run has asked for.
    pub fn push_transposes_built(&self) -> usize {
        self.derived.built_transposes()
    }

    /// Persist tiles and degree arrays to `store` under `graph_name/`: one
    /// object per tile plus the two degree arrays.
    pub fn persist(&self, store: &impl StorageBackend) -> Result<()> {
        for tile_id in 0..self.num_tiles() {
            self.persist_tile(store, tile_id)?;
        }
        for (which, degrees) in [("in", &self.in_degrees), ("out", &self.out_degrees)] {
            store.put(
                &degrees_key(&self.graph_name, which),
                &encode_u32_array(degrees),
            )?;
        }
        Ok(())
    }

    /// Load a partitioned graph that any handle on `store` persisted.
    ///
    /// The store is outside input. What loads can be run: tiles cut the vertex
    /// range end to end, both degree arrays cover it, every source is a vertex
    /// and the tiles hold as many edges as either degree array counts.
    pub fn load(store: &impl StorageBackend, graph_name: &str) -> Result<Self> {
        let tile_keys = store.list(&format!("{graph_name}/tiles/"));
        if tile_keys.is_empty() {
            return Err(PartitionError::Corrupt(format!(
                "no tiles found under {graph_name}/tiles/"
            )));
        }
        let mut tiles = Vec::with_capacity(tile_keys.len());
        for key in tile_keys {
            tiles.push(Tile::from_bytes(&store.get(&key)?)?);
        }
        tiles.sort_by_key(|t| t.tile_id);
        let in_degrees = decode_u32_array(&store.get(&degrees_key(graph_name, "in"))?)?;
        let out_degrees = decode_u32_array(&store.get(&degrees_key(graph_name, "out"))?)?;
        if in_degrees.len() != out_degrees.len() {
            return Err(PartitionError::Corrupt(format!(
                "{} in-degrees beside {} out-degrees",
                in_degrees.len(),
                out_degrees.len()
            )));
        }
        // The splitter that cut the tiles is their own target ranges, laid
        // end to end: ids dense from 0, no gap, no overlap, up to |V|.
        let mut boundaries = vec![0];
        for (expected_id, tile) in tiles.iter().enumerate() {
            if tile.tile_id as usize != expected_id || tile.target_start != boundaries[expected_id]
            {
                return Err(PartitionError::Corrupt(format!(
                    "tile {} covers [{}, {}) where tile {expected_id} starting at {} was expected",
                    tile.tile_id, tile.target_start, tile.target_end, boundaries[expected_id]
                )));
            }
            boundaries.push(tile.target_end);
        }
        let num_vertices = in_degrees.len() as u64;
        let splitter = Splitter::from_boundaries(boundaries, num_vertices)?;
        let num_edges: u64 = tiles.iter().map(Tile::num_edges).sum();
        let total = |degrees: &[u32]| degrees.iter().map(|&d| u64::from(d)).sum::<u64>();
        if total(&in_degrees) != num_edges || total(&out_degrees) != num_edges {
            return Err(PartitionError::Corrupt(format!(
                "tiles hold {num_edges} edges, in-degrees count {} and out-degrees {}",
                total(&in_degrees),
                total(&out_degrees)
            )));
        }
        if let Some(tile) = tiles
            .iter()
            .find(|t| t.sources().iter().any(|&s| u64::from(s) >= num_vertices))
        {
            return Err(PartitionError::Corrupt(format!(
                "tile {} names a source past the {num_vertices} vertices",
                tile.tile_id
            )));
        }
        let stats = GraphStats {
            name: graph_name.to_string(),
            num_vertices,
            num_edges,
            avg_degree: if num_vertices == 0 {
                0.0
            } else {
                num_edges as f64 / num_vertices as f64
            },
            max_in_degree: in_degrees.iter().copied().max().unwrap_or(0),
            max_out_degree: out_degrees.iter().copied().max().unwrap_or(0),
            csv_size_bytes: 0,
            weighted: tiles.iter().any(Tile::is_weighted),
        };
        Ok(Self {
            graph_name: graph_name.to_string(),
            derived: Derived::new(tiles.len()),
            tiles,
            splitter,
            in_degrees,
            out_degrees,
            stats,
        })
    }
}

fn encode_u32_array(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4 + 8);
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Where a degree array (`which` is `in` or `out`) lives in a store.
fn degrees_key(graph_name: &str, which: &str) -> String {
    format!("{graph_name}/degrees/{which}.bin")
}

fn decode_u32_array(data: &[u8]) -> Result<Vec<u32>> {
    let Some((header, body)) = data.split_at_checked(8) else {
        return Err(PartitionError::Corrupt("degree array truncated".into()));
    };
    let len = u64::from_le_bytes(header.try_into().expect("8 bytes"));
    if len.checked_mul(4) != Some(body.len() as u64) {
        return Err(PartitionError::Corrupt(format!(
            "degree array claims {len} entries in {} bytes",
            body.len()
        )));
    }
    Ok(body
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::generators::{grid_graph, GraphGenerator, RmatGenerator};
    use graphh_graph::Edge;
    use graphh_storage::IoMeter;

    fn partitioned(avg_tile_size: u64) -> (Graph, PartitionedGraph) {
        let g = RmatGenerator::new(9, 8).generate(3);
        let p = Spe::partition(&g, &SpeConfig::new("rmat9", avg_tile_size)).unwrap();
        (g, p)
    }

    #[test]
    fn partition_conserves_edges_and_vertices() {
        let (g, p) = partitioned(200);
        assert_eq!(p.num_edges(), g.num_edges());
        assert_eq!(p.num_vertices(), g.num_vertices());
        assert_eq!(u64::from(p.num_tiles()), p.tiles.len() as u64);
        assert!(p.num_tiles() > 1);
    }

    #[test]
    fn every_edge_lands_in_the_tile_owning_its_target() {
        let (g, p) = partitioned(500);
        // Rebuild the multiset of edges from the tiles and compare with the input.
        let mut from_tiles: Vec<(u32, u32)> = Vec::new();
        for t in &p.tiles {
            for target in t.targets() {
                for (src, _) in t.in_edges(target) {
                    from_tiles.push((src, target));
                }
                assert!(p.splitter.tile_of(target) == t.tile_id);
            }
        }
        let mut from_graph: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        from_tiles.sort_unstable();
        from_graph.sort_unstable();
        assert_eq!(from_tiles, from_graph);
    }

    #[test]
    fn tiles_are_balanced_up_to_hub_vertices() {
        let (g, p) = partitioned(300);
        let max_in = *g.in_degrees().iter().max().unwrap() as u64;
        // A tile can exceed the target size only because its last vertex is a hub.
        assert!(p.max_tile_edges() <= 300 + max_in);
    }

    #[test]
    fn tile_degrees_match_graph_in_degrees() {
        let (g, p) = partitioned(250);
        for t in &p.tiles {
            for target in t.targets() {
                assert_eq!(t.in_degree(target), g.in_degree(target));
            }
        }
    }

    /// Every tile and the splitter come back. `load` used to re-cut a splitter
    /// from the largest tile's edge count — 12 tiles for these 19 — so
    /// `tile_of` on a loaded graph lied.
    #[test]
    fn persist_and_load_roundtrip() {
        let (_, p) = partitioned(200);
        assert_eq!(p.num_tiles(), 19);
        let store = MemoryBackend::new();
        p.persist(&store).unwrap();
        let loaded = PartitionedGraph::load(&store, "rmat9").unwrap();
        assert_eq!(loaded.num_edges(), p.num_edges());
        assert_eq!(loaded.in_degrees, p.in_degrees);
        assert_eq!(loaded.out_degrees, p.out_degrees);
        assert_eq!(loaded.tiles, p.tiles);
        assert_eq!(loaded.splitter, p.splitter);
    }

    /// Four threads staging every tile of one graph at once, each from a
    /// different tile on, write each tile exactly once between them: their
    /// meters sum to the graph's tile bytes, and the store holds every tile's
    /// bytes under its key.
    #[test]
    fn concurrent_staging_writes_each_tile_once() {
        let (_, p) = partitioned(200);
        let n = p.num_tiles();
        let meters: Vec<Arc<IoMeter>> = std::thread::scope(|scope| {
            let stagers: Vec<_> = (0..4)
                .map(|i| {
                    let p = &p;
                    scope.spawn(move || {
                        let disk =
                            MeteredBackend::new(Arc::clone(p.tile_store()), IoMeter::shared());
                        for t in 0..n {
                            let tid = (t + i * n / 4) % n;
                            assert_eq!(p.stage_tile(&disk, tid), Tile::storage_key("rmat9", tid));
                        }
                        Arc::clone(disk.meter())
                    })
                })
                .collect();
            stagers.into_iter().map(|s| s.join().unwrap()).collect()
        });
        let (bytes, ops) = meters
            .iter()
            .map(|m| m.snapshot())
            .fold((0, 0), |(b, o), s| (b + s.bytes_written, o + s.write_ops));
        assert_eq!((bytes, ops), (p.total_tile_bytes(), u64::from(n)));
        let store = p.tile_store();
        assert_eq!(store.list("").len(), n as usize);
        for tile in &p.tiles {
            let key = Tile::storage_key("rmat9", tile.tile_id);
            assert_eq!(
                store.get(&key).unwrap(),
                tile.to_bytes(),
                "tile {}",
                tile.tile_id
            );
        }
    }

    /// A clone shares the store, what is staged in it, the source sets and
    /// the push transposes — including those built after the clone was made
    /// — and a loaded graph starts with none of them.
    #[test]
    fn clones_share_what_runs_derive_and_a_loaded_graph_starts_empty() {
        let (_, p) = partitioned(200);
        let clone = p.clone();
        assert!(Arc::ptr_eq(p.tile_store(), clone.tile_store()));
        let disk = MeteredBackend::new(Arc::clone(clone.tile_store()), IoMeter::shared());
        clone.stage_tile(&disk, 3);
        p.stage_tile(&disk, 3);
        assert_eq!(disk.meter().snapshot().write_ops, 1);
        assert!(Arc::ptr_eq(p.source_set(5), clone.source_set(5)));
        assert_eq!(p.push_transposes_built(), 0);
        let transpose = clone.push_transpose(&[1, 3]);
        assert!(Arc::ptr_eq(&transpose, &p.push_transpose(&[1, 3])));
        assert!(!Arc::ptr_eq(&transpose, &p.push_transpose(&[1])));
        assert_eq!((p.push_transposes_built(), transpose.num_tiles()), (2, 2));
        let debug = format!("{p:?}");
        assert!(
            debug.contains("staged_tiles: 1, source_sets: 1, push_transposes: 2"),
            "{debug}"
        );

        let store = MemoryBackend::new();
        p.persist(&store).unwrap();
        let loaded = PartitionedGraph::load(&store, "rmat9").unwrap();
        assert!(!Arc::ptr_eq(p.tile_store(), loaded.tile_store()));
        assert!(loaded.tile_store().list("").is_empty());
        assert!(!Arc::ptr_eq(p.source_set(5), loaded.source_set(5)));
        assert_eq!(loaded.push_transposes_built(), 0);
        assert!(!Arc::ptr_eq(&transpose, &loaded.push_transpose(&[1, 3])));
    }

    #[test]
    #[should_panic(expected = "own tile store")]
    fn staging_through_another_store_is_refused() {
        let (_, p) = partitioned(200);
        let elsewhere = MeteredBackend::new(Arc::new(MemoryBackend::new()), IoMeter::shared());
        p.stage_tile(&elsewhere, 0);
    }

    /// Persist `p`, damage the store, and return the `Corrupt` message `load`
    /// must answer with.
    fn load_error(p: &PartitionedGraph, damage: &dyn Fn(&MemoryBackend)) -> String {
        let store = MemoryBackend::new();
        p.persist(&store).unwrap();
        damage(&store);
        match PartitionedGraph::load(&store, &p.graph_name) {
            Err(PartitionError::Corrupt(message)) => message,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_tiles_that_do_not_tile_the_vertex_range() {
        let (_, p) = partitioned(200);
        let corrupted = |damage: &dyn Fn(&MemoryBackend)| load_error(&p, damage);
        let key = |t| Tile::storage_key("rmat9", t);
        let hollow = |id, lo, hi: u32| {
            Tile::from_adjacency(id, lo, &vec![Vec::new(); (hi - lo) as usize], false).to_bytes()
        };
        // A missing tile in the middle: ids are no longer dense.
        assert!(corrupted(&|s| s.delete(&key(7)).unwrap()).contains("where tile 7"));
        // The last tile missing: ids dense, ranges stop short of |V|.
        assert!(corrupted(&|s| s.delete(&key(18)).unwrap()).contains("do not cut"));
        // A tile one target short: a gap before its successor.
        let (lo, hi) = p.splitter.tile_range(3);
        let short = hollow(3, lo, hi - 1);
        assert!(corrupted(&|s| s.put(&key(3), &short).unwrap()).contains("where tile 4"));
        // One target long: an overlap.
        let long = hollow(3, lo, hi + 1);
        assert!(corrupted(&|s| s.put(&key(3), &long).unwrap()).contains("where tile 4"));
        // A tile filed under another's id.
        let misfiled = hollow(5, lo, hi);
        assert!(corrupted(&|s| s.put(&key(3), &misfiled).unwrap()).contains("where tile 3"));
    }

    /// The degree arrays are outside input like the tiles. An 8-byte array
    /// claiming 2^62 entries used to wrap `8 + len * 4` to 8 in a release
    /// build and load as zero out-degrees beside |V| in-degrees.
    #[test]
    fn load_rejects_degree_arrays_that_disagree_with_the_tiles() {
        let (_, p) = partitioned(200);
        let corrupted =
            |key: String, bytes: Vec<u8>| load_error(&p, &|s| s.put(&key, &bytes).unwrap());
        let n = p.out_degrees.len();
        let out = || degrees_key("rmat9", "out");
        for claimed in [1u64 << 62, 1 << 63, u64::MAX, n as u64 + 1] {
            let message = corrupted(out(), claimed.to_le_bytes().to_vec());
            assert!(message.contains("claims"), "{claimed}: {message}");
        }
        // One array shorter than the other.
        let short = encode_u32_array(&p.out_degrees[..n - 1]);
        assert!(corrupted(out(), short).contains("beside"));
        // Either array counting an edge the tiles do not hold.
        for (which, degrees) in [("in", &p.in_degrees), ("out", &p.out_degrees)] {
            let mut off_by_one = degrees.clone();
            off_by_one[0] += 1;
            let message = corrupted(degrees_key("rmat9", which), encode_u32_array(&off_by_one));
            assert!(
                message.contains("tiles hold 4096 edges"),
                "{which}: {message}"
            );
        }
        // A tile whose source is not a vertex: `values[source]` in a gather.
        let tile = &p.tiles[3];
        let mut sources = tile.sources().to_vec();
        sources[0] = n as u32;
        let stray = Tile::from_csr(
            3,
            tile.target_start,
            tile.target_end,
            tile.offsets().to_vec(),
            sources,
            None,
        )
        .unwrap();
        assert!(corrupted(Tile::storage_key("rmat9", 3), stray.to_bytes()).contains("source"));
    }

    /// Every truncation and every single-bit flip of every stored object:
    /// `load` returns an error or the partition those bytes spell, safe to
    /// run — never a panic.
    #[test]
    fn a_damaged_store_is_an_error_or_loads_as_what_the_bytes_say() {
        let g = RmatGenerator::new(6, 4).generate(5);
        let p = Spe::partition(&g, &SpeConfig::new("g", 64)).unwrap();
        let store = MemoryBackend::new();
        p.persist(&store).unwrap();
        assert_eq!(store.list("g/").len(), p.tiles.len() + 2);
        let (mut loaded, mut refused) = (0, 0);
        let mut check = |what: String| match PartitionedGraph::load(&store, "g") {
            Ok(back) => {
                loaded += 1;
                for tile in &back.tiles {
                    let stored = store.get(&Tile::storage_key("g", tile.tile_id)).unwrap();
                    assert_eq!(tile.to_bytes(), stored, "{what}");
                    assert!(tile
                        .sources()
                        .iter()
                        .all(|&s| u64::from(s) < back.num_vertices()));
                }
                for (which, degrees) in [("in", &back.in_degrees), ("out", &back.out_degrees)] {
                    let stored = store.get(&degrees_key("g", which)).unwrap();
                    assert_eq!(encode_u32_array(degrees), stored, "{what}");
                }
            }
            Err(PartitionError::Corrupt(_)) => refused += 1,
            Err(other) => panic!("{what}: {other}"),
        };
        for key in store.list("g/") {
            let bytes = store.get(&key).unwrap();
            for len in 0..bytes.len() {
                store.put(&key, &bytes[..len]).unwrap();
                check(format!("{key} truncated to {len}"));
            }
            for bit in 0..bytes.len() * 8 {
                let mut damaged = bytes.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                store.put(&key, &damaged).unwrap();
                check(format!("{key} bit {bit}"));
            }
            store.put(&key, &bytes).unwrap();
        }
        // No checksum: a flipped source id that is still a vertex, or an
        // interior offset that still rises, loads. Most damage does not.
        assert!(
            loaded > 0 && refused > loaded,
            "{loaded} loaded, {refused} refused"
        );
    }

    #[test]
    fn load_missing_graph_is_an_error() {
        assert!(PartitionedGraph::load(&MemoryBackend::new(), "nope").is_err());
    }

    #[test]
    fn tile_format_is_smaller_than_csv() {
        let (g, p) = partitioned(300);
        assert!(p.total_input_bytes() < g.stats().csv_size_bytes * 2);
        assert!(p.total_tile_bytes() > 0);
    }

    #[test]
    fn zero_tile_size_rejected() {
        let g = RmatGenerator::new(4, 2).generate(1);
        assert!(Spe::partition(&g, &SpeConfig::new("x", 0)).is_err());
    }

    /// The grouping as it stood before the counting sort: every edge bucketed
    /// by a `tile_of` binary search, then per tile one `Vec<(src, w)>` per
    /// target vertex, sorted by source, through `Tile::from_adjacency`. Kept
    /// as the oracle the live kernel is compared with.
    fn reference_tiles(graph: &Graph, splitter: &Splitter) -> Vec<Tile> {
        let mut per_tile: Vec<Vec<(VertexId, VertexId, f32)>> =
            vec![Vec::new(); splitter.num_tiles() as usize];
        for e in graph.edges().iter() {
            per_tile[splitter.tile_of(e.dst) as usize].push((e.src, e.dst, e.weight));
        }
        per_tile
            .iter()
            .enumerate()
            .map(|(t, tile_edges)| {
                let (lo, hi) = splitter.tile_range(t as TileId);
                let mut adjacency: Vec<Vec<(VertexId, f32)>> = vec![Vec::new(); (hi - lo) as usize];
                for &(src, dst, w) in tile_edges {
                    adjacency[(dst - lo) as usize].push((src, w));
                }
                for list in &mut adjacency {
                    list.sort_unstable_by_key(|&(s, _)| s);
                }
                Tile::from_adjacency(t as TileId, lo, &adjacency, graph.is_weighted())
            })
            .collect()
    }

    fn graph_of(num_vertices: u64, edges: impl IntoIterator<Item = Edge>) -> Graph {
        Graph::from_edges(num_vertices, edges.into_iter().collect()).unwrap()
    }

    /// Either side of the run-length cut and of the digit-width cut, every
    /// run comes out as `sort_unstable` leaves it.
    #[test]
    fn run_sorter_matches_sort_unstable() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for num_vertices in [
            1u64,
            2,
            3,
            300,
            1 << 17,
            (1 << 17) + 1,
            1 << 22,
            (1 << 22) + 1,
            1 << 32,
        ] {
            let mut sorter = RunSorter::new(num_vertices);
            assert_eq!(
                sorter.digit_bits.is_some(),
                (2..=1 << 22).contains(&num_vertices)
            );
            for len in [0, 1, RADIX_MIN_RUN, RADIX_MIN_RUN + 1, 5000, 300] {
                let mut run: Vec<VertexId> = (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        // Every fourth id the largest, so the top digit is full.
                        let v = if i % 4 == 0 {
                            num_vertices - 1
                        } else {
                            (state >> 20) % num_vertices
                        };
                        v as VertexId
                    })
                    .collect();
                let mut want = run.clone();
                want.sort_unstable();
                sorter.sort(&mut run);
                assert_eq!(run, want, "{num_vertices} vertices, run of {len}");
            }
        }
    }

    #[test]
    fn counting_sort_matches_the_nested_vec_reference_tile_for_tile() {
        let cases: Vec<(&str, Graph, u64)> = vec![
            ("rmat", RmatGenerator::new(9, 8).generate(17), 200),
            // Hubs with thousands of in-edges: the radix-sorted runs.
            (
                "rmat, long runs",
                RmatGenerator::new(12, 16).generate(3),
                8000,
            ),
            (
                "rmat, one tile",
                RmatGenerator::new(6, 4).generate(1),
                1 << 20,
            ),
            ("grid", grid_graph(12, 9), 40),
            (
                // Every (src, dst) pair repeats with a different weight: the
                // order of equal sources within a target is on the line.
                "weighted multigraph",
                graph_of(
                    24,
                    (0..900u32).map(|i| Edge::weighted((i * 7) % 5, (i * 11) % 23, i as f32 * 0.5)),
                ),
                60,
            ),
            (
                "hub past the tile size",
                graph_of(
                    40,
                    (0..400u32).map(|i| Edge::new(i % 40, if i % 4 == 0 { i % 40 } else { 17 })),
                ),
                25,
            ),
            (
                // Targets 0..5, 10..15 and 25..30 have no in-edges, and the
                // tile size closes a tile right before and after such a run.
                "zero in-degree runs at tile edges",
                graph_of(
                    30,
                    (0..100u32).map(|i| {
                        Edge::new(i % 30, if i % 2 == 0 { 5 + i % 5 } else { 15 + i % 10 })
                    }),
                ),
                10,
            ),
            (
                "single-vertex tiles",
                graph_of(16, (0..64u32).map(|i| Edge::new((i * 5) % 16, i % 16))),
                1,
            ),
            ("vertices, no edges", graph_of(9, []), 4),
            ("no vertices", graph_of(0, []), 4),
        ];
        for (what, graph, avg_tile_size) in cases {
            let config = SpeConfig::new(what, avg_tile_size);
            let mut reference = None;
            for threads in [1usize, 2, 4, 8] {
                let p =
                    Spe::partition_with_pool(&graph, &config, &WorkerPool::new(threads)).unwrap();
                let want = reference.get_or_insert_with(|| reference_tiles(&graph, &p.splitter));
                assert_eq!(p.tiles.len(), want.len(), "{what}, {threads} threads");
                for (got, want) in p.tiles.iter().zip(want.iter()) {
                    let tile = want.tile_id;
                    assert_eq!(got, want, "{what}: tile {tile}, {threads} threads");
                    assert_eq!(got.to_bytes(), want.to_bytes(), "{what}: tile {tile} bytes");
                }
            }
        }
    }

    /// The pool must be invisible: any pool size yields byte-for-byte the
    /// same tiles (the scatter is sequential; tiles are disjoint slices).
    #[test]
    fn partition_is_identical_for_any_pool_size() {
        let g = RmatGenerator::new(9, 8).generate(17);
        let reference =
            Spe::partition_with_pool(&g, &SpeConfig::new("det", 200), &WorkerPool::new(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = Spe::partition_with_pool(
                &g,
                &SpeConfig::new("det", 200),
                &WorkerPool::new(threads),
            )
            .unwrap();
            assert_eq!(parallel.num_tiles(), reference.num_tiles());
            for (a, b) in parallel.tiles.iter().zip(&reference.tiles) {
                assert_eq!(a, b, "tile diverged with a {threads}-thread pool");
            }
            assert_eq!(parallel.in_degrees, reference.in_degrees);
        }
    }

    /// One pool can serve both pre-processing and (later) the run — and a
    /// reused pool keeps producing correct partitions.
    #[test]
    fn partition_with_reused_pool() {
        let pool = WorkerPool::with_host_parallelism();
        let g = RmatGenerator::new(8, 6).generate(3);
        let p1 = Spe::partition_with_pool(&g, &SpeConfig::new("a", 300), &pool).unwrap();
        let p2 = Spe::partition_with_pool(&g, &SpeConfig::new("b", 300), &pool).unwrap();
        assert_eq!(p1.num_edges(), p2.num_edges());
        assert_eq!(p1.tiles, p2.tiles);
    }

    #[test]
    fn with_tile_count_config() {
        let g = RmatGenerator::new(8, 4).generate(1);
        let cfg = SpeConfig::with_tile_count("x", &g, 8);
        let p = Spe::partition(&g, &cfg).unwrap();
        assert!((6..=12).contains(&p.num_tiles()), "{} tiles", p.num_tiles());
    }
}
