//! The pre-processing engine ("SPE", paper §III-B, Algorithm 4).
//!
//! The original system runs three Spark map-reduce jobs; here the same three logical
//! passes run as data-parallel steps over the in-memory edge list, on a
//! [`graphh_pool::WorkerPool`] (the same persistent pool substrate the engine's
//! tile phases run on):
//!
//! 1. degree counting,
//! 2. splitter construction from the in-degree array,
//! 3. grouping edges by tile — contiguous edge-list chunks are bucketed per
//!    tile in parallel and the per-chunk buckets merged **in chunk order**
//!    (preserving the original edge order, so the output is bit-identical to
//!    a single sequential pass) — and encoding each tile as CSR, one tile per
//!    pool item.
//!
//! The output — tiles plus the in/out-degree arrays — can be persisted to the DFS
//! once and reused by every vertex-centric program, exactly like the paper's
//! pre-processing results.

use crate::splitter::Splitter;
use crate::tile::Tile;
use crate::{PartitionError, Result};
use graphh_graph::ids::{TileId, VertexId};
use graphh_graph::{Graph, GraphStats};
use graphh_pool::WorkerPool;
use graphh_storage::{Dfs, StorageBackend};

/// Configuration of the pre-processing engine.
#[derive(Debug, Clone)]
pub struct SpeConfig {
    /// Logical name of the graph; used as the DFS key prefix.
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
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// Logical graph name (DFS prefix).
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
}

/// The pre-processing engine.
#[derive(Debug, Default)]
pub struct Spe;

/// Floor on edges per bucketing chunk: below this, the per-chunk bucket
/// allocation outweighs the parallelism.
const MIN_EDGES_PER_CHUNK: usize = 8 * 1024;

impl Spe {
    /// Partition a graph into tiles (stage one of GraphH's two-stage
    /// partitioning) on a freshly sized worker pool. Callers that already own
    /// a pool — the `graphh-node` launcher partitions and then runs on one —
    /// should use [`Spe::partition_with_pool`] to avoid standing up a second
    /// set of threads.
    pub fn partition(graph: &Graph, config: &SpeConfig) -> Result<PartitionedGraph> {
        Self::partition_with_pool(graph, config, &WorkerPool::with_host_parallelism())
    }

    /// Partition a graph into tiles using the caller's worker pool for the
    /// data-parallel passes. The result is bit-identical for any pool size
    /// (chunked bucketing merges in chunk order, tiles are built per index).
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

        // Group edges by tile: contiguous edge-list chunks are bucketed in
        // parallel, then the per-chunk buckets are merged in chunk order —
        // chunks partition the edge list in order, so every tile sees its
        // edges in exactly the order a single sequential pass would produce.
        let num_tiles = splitter.num_tiles() as usize;
        let edges = graph.edges();
        let num_edges = edges.len();
        let num_chunks = (pool.threads() * 4)
            .min(num_edges.div_ceil(MIN_EDGES_PER_CHUNK))
            .max(1);
        let chunk_len = num_edges.div_ceil(num_chunks);
        let chunked: Vec<Vec<Vec<(VertexId, VertexId, f32)>>> =
            pool.fork_join_ordered(num_chunks, |c| {
                let start = c * chunk_len;
                let end = ((c + 1) * chunk_len).min(num_edges);
                let mut buckets: Vec<Vec<(VertexId, VertexId, f32)>> = vec![Vec::new(); num_tiles];
                for i in start..end {
                    let e = edges.get(i);
                    buckets[splitter.tile_of(e.dst) as usize].push((e.src, e.dst, e.weight));
                }
                buckets
            });
        let mut per_tile_edges: Vec<Vec<(VertexId, VertexId, f32)>> = vec![Vec::new(); num_tiles];
        for buckets in chunked {
            for (t, mut bucket) in buckets.into_iter().enumerate() {
                if per_tile_edges[t].is_empty() {
                    // Common case (few chunks): steal the allocation.
                    per_tile_edges[t] = std::mem::take(&mut bucket);
                } else {
                    per_tile_edges[t].extend_from_slice(&bucket);
                }
            }
        }

        // Encode each tile as CSR, one pool item per tile.
        let weighted = graph.is_weighted();
        let per_tile_edges = &per_tile_edges;
        let tiles: Vec<Tile> = pool.fork_join_ordered(num_tiles, |t| {
            let (lo, hi) = splitter.tile_range(t as TileId);
            let mut adjacency: Vec<Vec<(VertexId, f32)>> = vec![Vec::new(); (hi - lo) as usize];
            for &(src, dst, w) in &per_tile_edges[t] {
                adjacency[(dst - lo) as usize].push((src, w));
            }
            // Sort each adjacency list by source id: deterministic output and
            // better delta compression.
            for list in &mut adjacency {
                list.sort_unstable_by_key(|&(s, _)| s);
            }
            Tile::from_adjacency(t as TileId, lo, &adjacency, weighted)
        });

        Ok(PartitionedGraph {
            graph_name: config.graph_name.clone(),
            tiles,
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

    /// Persist tiles and degree arrays to a DFS under `graph_name/`.
    pub fn persist<B: StorageBackend>(&self, dfs: &Dfs<B>) -> Result<()> {
        for tile in &self.tiles {
            dfs.put(
                &Tile::storage_key(&self.graph_name, tile.tile_id),
                &tile.to_bytes(),
            )?;
        }
        dfs.put(
            &format!("{}/degrees/in.bin", self.graph_name),
            &encode_u32_array(&self.in_degrees),
        )?;
        dfs.put(
            &format!("{}/degrees/out.bin", self.graph_name),
            &encode_u32_array(&self.out_degrees),
        )?;
        Ok(())
    }

    /// Load a previously persisted partitioned graph from the DFS.
    pub fn load<B: StorageBackend>(dfs: &Dfs<B>, graph_name: &str) -> Result<Self> {
        let tile_keys = dfs.list(&format!("{graph_name}/tiles/"));
        if tile_keys.is_empty() {
            return Err(PartitionError::Corrupt(format!(
                "no tiles found under {graph_name}/tiles/"
            )));
        }
        let mut tiles = Vec::with_capacity(tile_keys.len());
        for key in tile_keys {
            let bytes = dfs.get(&key)?;
            tiles.push(Tile::from_bytes(&bytes)?);
        }
        tiles.sort_by_key(|t| t.tile_id);
        let in_degrees = decode_u32_array(&dfs.get(&format!("{graph_name}/degrees/in.bin"))?)?;
        let out_degrees = decode_u32_array(&dfs.get(&format!("{graph_name}/degrees/out.bin"))?)?;
        let splitter = Splitter::from_in_degrees(
            &in_degrees,
            tiles.iter().map(Tile::num_edges).max().unwrap_or(1).max(1),
        )?;
        let num_edges: u64 = tiles.iter().map(Tile::num_edges).sum();
        let num_vertices = in_degrees.len() as u64;
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

fn decode_u32_array(data: &[u8]) -> Result<Vec<u32>> {
    if data.len() < 8 {
        return Err(PartitionError::Corrupt("degree array truncated".into()));
    }
    let len = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
    if data.len() != 8 + len * 4 {
        return Err(PartitionError::Corrupt(
            "degree array length mismatch".into(),
        ));
    }
    Ok(data[8..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_storage::{DfsConfig, MemoryBackend};

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

    #[test]
    fn persist_and_load_roundtrip() {
        let (_, p) = partitioned(400);
        let dfs = Dfs::new(MemoryBackend::new(), DfsConfig::default()).unwrap();
        p.persist(&dfs).unwrap();
        let loaded = PartitionedGraph::load(&dfs, "rmat9").unwrap();
        assert_eq!(loaded.num_tiles(), p.num_tiles());
        assert_eq!(loaded.num_edges(), p.num_edges());
        assert_eq!(loaded.in_degrees, p.in_degrees);
        assert_eq!(loaded.out_degrees, p.out_degrees);
        assert_eq!(loaded.tiles[0], p.tiles[0]);
    }

    #[test]
    fn load_missing_graph_is_an_error() {
        let dfs = Dfs::new(MemoryBackend::new(), DfsConfig::default()).unwrap();
        assert!(PartitionedGraph::load(&dfs, "nope").is_err());
    }

    #[test]
    fn tile_format_is_smaller_than_csv() {
        let (g, p) = partitioned(300);
        assert!(p.total_input_bytes() < g.edges().csv_size_bytes() * 2);
        assert!(p.total_tile_bytes() > 0);
    }

    #[test]
    fn zero_tile_size_rejected() {
        let g = RmatGenerator::new(4, 2).generate(1);
        assert!(Spe::partition(&g, &SpeConfig::new("x", 0)).is_err());
    }

    /// The data-parallel bucketing must be invisible: any pool size yields
    /// byte-for-byte the tiles a sequential pass produces (chunk-order merge
    /// preserves edge order, so even equal-key sort outcomes match).
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
