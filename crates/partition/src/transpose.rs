//! The push side of a server: the in-edges of all its tiles grouped by
//! **source** instead of target.
//!
//! Tiles store only in-edges (sources grouped by target), which is exactly
//! what a pull superstep's `gather` wants and exactly what a push superstep's
//! `scatter` cannot use. A [`PushTranspose`] is the same edges transposed,
//! one per server: every edge of the server's tiles, grouped by source, each
//! distinct source stored once. A push superstep then walks the sorted
//! frontier against one sorted source list — a gallop per frontier vertex,
//! not one per frontier vertex and tile — and reads only the frontier's
//! out-edges.
//!
//! It is a pure function of the server's tile list, so the partitioned graph
//! keeps it ([`crate::PartitionedGraph::push_transpose`]): the first
//! push-capable run builds it and every later run with the same tile list —
//! another program, either executor, a clone of the graph — reads the same
//! one. It holds 4 bytes a distinct source, 4 bytes an offset and 4 bytes an
//! edge (8 when weighted), plus a few words a tile: never more than the
//! per-tile transposes of the same tiles, which stored a source once per tile
//! it feeds.
//!
//! Each source's targets are ascending, which — the tiles being ascending
//! target ranges — also puts them in tile order. The targets' *slots* number
//! the server's target vertices tile after tile: [`PushTranspose::slot_of`]
//! maps a target to its slot, and a slot range per tile
//! ([`PushTranspose::tile_slots`]) cuts a sorted list of slots into per-tile
//! runs.

use crate::tile::Tile;
use graphh_graph::ids::VertexId;

/// One server's out-edge transpose for the push loop.
///
/// Sources are ascending; a source's out-targets are ascending; duplicate
/// `(source, target)` edges keep their tile order — so a push loop that walks
/// it emits in the same order for any thread count. Immutable once built.
#[derive(Debug)]
pub struct PushTranspose {
    /// `[target_start, target_end)` of every tile it was built from, in
    /// order (ascending and disjoint).
    ranges: Vec<(VertexId, VertexId)>,
    /// First slot of every tile, plus the total: `slot_starts[k]..
    /// slot_starts[k + 1]` are tile `k`'s targets.
    slot_starts: Vec<u32>,
    /// Distinct source vertices with at least one edge into the tiles,
    /// ascending.
    sources: Vec<VertexId>,
    /// CSR offsets into `targets` / `weights`, length `sources.len() + 1`.
    offsets: Vec<u32>,
    /// Out-targets (within the tiles) grouped by source.
    targets: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs (unit weight).
    weights: Option<Vec<f32>>,
}

/// What [`PushTranspose::new`] counts in: one `u32` per vertex and one bit
/// per vertex, so a build costs O(server edges + |V|/64) — it never walks
/// the server's whole source span.
struct TransposeScratch {
    /// `next[s]`: while counting, the edges out of `s` seen so far; while
    /// scattering, the slot the next edge out of `s` goes to.
    next: Vec<u32>,
    /// Bit `s` set: `s` is a source of some tile.
    seen: Vec<u64>,
}

impl TransposeScratch {
    fn new(num_vertices: u64) -> Self {
        Self {
            next: vec![0; num_vertices as usize],
            seen: vec![0; num_vertices.div_ceil(64) as usize],
        }
    }
}

impl PushTranspose {
    /// The transpose of `tiles`, which must be in ascending, disjoint target
    /// ranges (a server's tile list is). Every source id must be below
    /// `num_vertices`.
    ///
    /// A stable counting-sort transpose: count each source's edges and mark
    /// it in the bitmap, read the distinct sources off the bitmap words
    /// (ascending for free) while prefix-summing their counts into CSR
    /// offsets, then walk the tiles in order and each tile's targets in
    /// ascending order, dropping every in-edge into its source's next free
    /// slot. Walking targets ascending is what makes each source's
    /// out-targets ascending and keeps duplicate `(source, target)` edges in
    /// tile order.
    ///
    /// # Panics
    ///
    /// If the tiles' ranges are not ascending and disjoint, or they hold
    /// 2^32 edges or more between them.
    pub fn new(tiles: &[&Tile], num_vertices: u64) -> Self {
        assert!(
            tiles
                .windows(2)
                .all(|pair| pair[0].target_end <= pair[1].target_start),
            "a push transpose's tiles are ascending, disjoint target ranges"
        );
        let num_edges: u64 = tiles.iter().map(|tile| tile.num_edges()).sum();
        let num_edges = u32::try_from(num_edges)
            .expect("a server's tiles hold fewer than 2^32 edges (its slots are counted in u32)");
        let TransposeScratch { mut next, mut seen } = TransposeScratch::new(num_vertices);
        for tile in tiles {
            for &source in tile.sources() {
                next[source as usize] += 1;
                seen[(source >> 6) as usize] |= 1 << (source & 63);
            }
        }
        let distinct: usize = seen.iter().map(|word| word.count_ones() as usize).sum();
        let mut sources = Vec::with_capacity(distinct);
        let mut offsets = Vec::with_capacity(distinct + 1);
        offsets.push(0u32);
        let mut placed = 0u32;
        for (word_index, &word) in seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let source = (word_index as u32) << 6 | bits.trailing_zeros();
                bits &= bits - 1;
                placed += std::mem::replace(&mut next[source as usize], placed);
                sources.push(source);
                offsets.push(placed);
            }
        }
        debug_assert_eq!(placed, num_edges);
        let weighted = tiles.iter().any(|tile| tile.is_weighted());
        let mut targets = vec![0; num_edges as usize];
        let mut weights = weighted.then(|| vec![1.0f32; num_edges as usize]);
        let mut ranges = Vec::with_capacity(tiles.len());
        let mut slot_starts = Vec::with_capacity(tiles.len() + 1);
        slot_starts.push(0u32);
        for tile in tiles {
            let (tile_sources, tile_weights) = (tile.sources(), tile.weights());
            for (target, span) in tile.targets().zip(tile.offsets().windows(2)) {
                for edge in span[0] as usize..span[1] as usize {
                    let slot = &mut next[tile_sources[edge] as usize];
                    targets[*slot as usize] = target;
                    if let (Some(out), Some(tile_weights)) = (&mut weights, tile_weights) {
                        out[*slot as usize] = tile_weights[edge];
                    }
                    *slot += 1;
                }
            }
            ranges.push((tile.target_start, tile.target_end));
            slot_starts.push(slot_starts[slot_starts.len() - 1] + tile.num_targets());
        }
        PushTranspose {
            ranges,
            slot_starts,
            sources,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of tiles it was built from.
    pub fn num_tiles(&self) -> usize {
        self.ranges.len()
    }

    /// Number of target slots: the target vertices of all its tiles.
    pub fn num_slots(&self) -> usize {
        self.slot_starts[self.ranges.len()] as usize
    }

    /// `[target_start, target_end)` of tile `k` (the `k`-th it was built
    /// from).
    pub fn tile_range(&self, k: usize) -> (VertexId, VertexId) {
        self.ranges[k]
    }

    /// The slots of tile `k`: its targets, ascending, numbered after those
    /// of tiles `0..k`.
    pub fn tile_slots(&self, k: usize) -> std::ops::Range<u32> {
        self.slot_starts[k]..self.slot_starts[k + 1]
    }

    /// The slot of `target`, starting the search at tile `*tile` and leaving
    /// there the tile it lies in: a caller walking ascending targets pays a
    /// compare per target and a search per tile it crosses. `None` when no
    /// tile covers `target`.
    #[inline]
    pub fn slot_of(&self, target: VertexId, tile: &mut usize) -> Option<u32> {
        let covers = |k: usize| {
            self.ranges
                .get(k)
                .is_some_and(|&(start, end)| start <= target && target < end)
        };
        if !covers(*tile) {
            *tile = self.ranges.partition_point(|&(_, end)| end <= target);
            if !covers(*tile) {
                return None;
            }
        }
        Some(self.slot_starts[*tile] + (target - self.ranges[*tile].0))
    }

    /// The target in slot `slot` of tile `k`.
    pub fn target_of(&self, k: usize, slot: u32) -> VertexId {
        self.ranges[k].0 + (slot - self.slot_starts[k])
    }

    /// The distinct sources with an edge into the tiles, ascending.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Out-edges (into the tiles) of the source at position `si` of
    /// [`PushTranspose::sources`]: their targets, ascending, and their
    /// weights (`None` for unweighted graphs, whose edges all weigh 1).
    pub fn out_edges(&self, si: usize) -> (&[VertexId], Option<&[f32]>) {
        let lo = self.offsets[si] as usize;
        let hi = self.offsets[si + 1] as usize;
        (
            &self.targets[lo..hi],
            self.weights.as_ref().map(|w| &w[lo..hi]),
        )
    }

    /// Resident footprint in bytes, for memory accounting.
    pub fn memory_bytes(&self) -> u64 {
        self.ranges.len() as u64 * 8
            + self.slot_starts.len() as u64 * 4
            + self.sources.len() as u64 * 4
            + self.offsets.len() as u64 * 4
            + self.targets.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Spe, SpeConfig, TileAssignment};
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};

    impl PushTranspose {
        /// Every edge as `(source, target, weight)`, in index order.
        fn edges(&self) -> Vec<(VertexId, VertexId, f32)> {
            (0..self.sources.len())
                .flat_map(|si| {
                    let source = self.sources[si];
                    let (targets, weights) = self.out_edges(si);
                    targets
                        .iter()
                        .enumerate()
                        .map(move |(i, &target)| (source, target, weights.map_or(1.0, |w| w[i])))
                })
                .collect()
        }
    }

    /// The tiles' edges as `(source, target, weight)`, in tile order and
    /// stably sorted by source — through [`Tile::in_edges`], which shares
    /// nothing with the counting sort.
    fn stable_transpose(tiles: &[&Tile]) -> Vec<(VertexId, VertexId, f32)> {
        let mut edges: Vec<(VertexId, VertexId, f32)> = tiles
            .iter()
            .flat_map(|tile| {
                tile.targets()
                    .flat_map(move |t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
            })
            .collect();
        edges.sort_by_key(|&(source, ..)| source);
        edges
    }

    /// Four tiles over vertices `0..10`: one with zero-in-degree targets (0,
    /// 3), a hub (1, with a self-loop) and a target whose three in-edges are
    /// the same `(source, target)` pair under different weights (2); a
    /// single-vertex tile; one more with a gap; and an empty tile past the
    /// end.
    fn awkward_tiles(weighted: bool) -> Vec<Tile> {
        let hub = (0..10u32).map(|s| (s, 0.25 + s as f32)).collect();
        let first = vec![
            vec![],
            hub,
            vec![(1, 2.0), (1, 0.5), (1, 7.0)],
            vec![],
            vec![(9, 1.0), (0, 3.5)],
            vec![(2, 1.25)],
        ];
        let single = vec![vec![(1, 0.5), (5, 1.0)]];
        let last = vec![
            vec![(6, 1.0), (1, 9.0)],
            vec![],
            vec![(8, 2.0), (7, 1.0), (4, 0.75)],
        ];
        vec![
            Tile::from_adjacency(0, 0, &first, weighted),
            Tile::from_adjacency(1, 6, &single, weighted),
            Tile::from_adjacency(2, 7, &last, weighted),
            Tile::from_adjacency(3, 10, &[], weighted),
        ]
    }

    /// The transpose is the tiles' edges stably sorted by `(source, target)`:
    /// unsorted adjacency lists, duplicate edges with different weights, a
    /// target with no in-edges and a source far from the rest all included.
    #[test]
    fn the_transpose_of_one_tile_is_its_stable_sort() {
        let lists = vec![
            vec![(9, 1.0), (2, 2.0), (9, 3.0)],
            vec![],
            vec![(2, 4.0), (700, 5.0), (2, 6.0), (3, 7.0)],
            vec![(9, 8.0)],
        ];
        for weighted in [true, false] {
            let tile = Tile::from_adjacency(0, 40, &lists, weighted);
            let mut expected = stable_transpose(&[&tile]);
            expected.sort_by_key(|&(source, target, _)| (source, target));
            let transpose = PushTranspose::new(&[&tile], 701);
            assert_eq!(transpose.sources, [2, 3, 9, 700]);
            assert_eq!(transpose.edges(), expected, "weighted {weighted}");
            assert_eq!(transpose.offsets, [0, 3, 4, 7, 8]);
            assert_eq!((transpose.num_tiles(), transpose.num_slots()), (1, 4));
        }
        let empty = Tile::from_adjacency(0, 5, &[vec![], vec![]], false);
        let empty = PushTranspose::new(&[&empty], 5);
        assert!(empty.sources.is_empty() && empty.targets.is_empty());
        assert_eq!((empty.offsets.as_slice(), empty.num_slots()), (&[0][..], 2));
        let none = PushTranspose::new(&[], 5);
        assert_eq!((none.num_tiles(), none.num_slots()), (0, 0));
    }

    /// Every server's tiles of an RMAT partition, and the awkward tiles
    /// above: the transpose is the tiles' stable sort, each distinct source
    /// is stored once, the slots number the targets tile after tile, and
    /// [`PushTranspose::slot_of`] finds every target's slot from any tile on
    /// and no slot for a vertex outside the tiles.
    #[test]
    fn a_servers_transpose_is_the_stable_sort_of_its_tiles() {
        let graph = RmatGenerator::new(10, 8).generate(23);
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("t", &graph, 13)).unwrap();
        let num_vertices = partitioned.num_vertices();
        let awkward = [awkward_tiles(false), awkward_tiles(true)];
        let mut lists: Vec<(Vec<&Tile>, u64)> = Vec::new();
        let assignment = TileAssignment::round_robin(partitioned.num_tiles(), 3);
        for sid in 0..3 {
            let tiles = assignment.tiles_of(sid);
            let tiles = tiles.iter().map(|&t| &partitioned.tiles[t as usize]);
            lists.push((tiles.collect(), num_vertices));
        }
        lists.push((partitioned.tiles.iter().collect(), num_vertices));
        for tiles in &awkward {
            lists.push((tiles.iter().collect(), 10));
            lists.push((vec![&tiles[0], &tiles[2]], 10));
            lists.push((vec![&tiles[1]], 10));
        }
        let mut edges = 0;
        for (tiles, num_vertices) in &lists {
            let transpose = PushTranspose::new(tiles, *num_vertices);
            let want = stable_transpose(tiles);
            assert_eq!(transpose.edges(), want);
            assert_eq!(
                transpose.weights.is_some(),
                tiles.iter().any(|t| t.is_weighted())
            );
            assert!(transpose.sources.windows(2).all(|pair| pair[0] < pair[1]));
            assert_eq!(transpose.offsets.len(), transpose.sources.len() + 1);
            edges += want.len();

            let mut slot = 0;
            for (k, tile) in tiles.iter().enumerate() {
                assert_eq!(
                    transpose.tile_range(k),
                    (tile.target_start, tile.target_end)
                );
                assert_eq!(transpose.tile_slots(k), slot..slot + tile.num_targets());
                for target in tile.targets() {
                    assert_eq!(transpose.target_of(k, slot), target);
                    for from in 0..=tiles.len() {
                        let mut at = from;
                        assert_eq!(transpose.slot_of(target, &mut at), Some(slot));
                        assert_eq!(at, k);
                    }
                    slot += 1;
                }
            }
            assert_eq!(transpose.num_slots() as u32, slot);
            let covered = |v: VertexId| tiles.iter().any(|t| t.targets().any(|t| t == v));
            for v in (0..*num_vertices as u32 + 2).filter(|&v| !covered(v)) {
                for from in 0..=tiles.len() {
                    assert_eq!(transpose.slot_of(v, &mut { from }), None, "vertex {v}");
                }
            }
        }
        assert!(edges > 16_000, "{edges} edges transposed");
    }

    #[test]
    #[should_panic(expected = "ascending, disjoint")]
    fn tiles_out_of_order_are_refused() {
        let tiles = awkward_tiles(false);
        PushTranspose::new(&[&tiles[1], &tiles[0]], 10);
    }
}
