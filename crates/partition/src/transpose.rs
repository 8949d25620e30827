//! The push side of a tile: its in-edges grouped by **source** instead of
//! target.
//!
//! Tiles store only in-edges (sources grouped by target), which is exactly
//! what a pull superstep's `gather` wants and exactly what a push superstep's
//! `scatter` cannot use. A [`PushIndex`] is the same edges transposed. It is
//! a pure function of its tile, so it belongs to the tile: the first
//! push-capable run over a [`Tile`] builds it ([`PushIndex::for_tiles`]),
//! the tile keeps it, and every later run over that tile — or over a clone
//! of it — reads the same one. The tile's bytes do not carry it: a tile
//! decoded from a store starts without one.

use crate::tile::Tile;
use graphh_graph::ids::VertexId;
use std::sync::Arc;

/// Per-tile transpose of the in-edge CSR for the push loop.
///
/// Sources are ascending; a source's out-targets are ascending; duplicate
/// edges keep their tile order — so a push loop that walks it emits in the
/// same order for any thread count. Immutable once built.
#[derive(Debug)]
pub struct PushIndex {
    /// First target vertex of the tile it was built from.
    pub target_start: VertexId,
    /// One past the last target vertex of the tile it was built from.
    pub target_end: VertexId,
    /// Distinct source vertices with at least one edge into the tile,
    /// ascending.
    sources: Vec<VertexId>,
    /// CSR offsets into `targets` / `weights`, length `sources.len() + 1`.
    offsets: Vec<u64>,
    /// Out-targets (within the tile) grouped by source.
    targets: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs (unit weight).
    weights: Option<Vec<f32>>,
}

/// What [`PushIndex::build`] counts in: one `u32` per vertex and one bit per
/// vertex, all zero between builds. [`PushIndex::for_tiles`] allocates one
/// the first time a tile lacks its transpose, builds every missing one
/// through it and drops it, so a build costs O(tile edges + |V|/64) instead
/// of allocating and walking the tile's whole source span — and a call whose
/// tiles are all built allocates none.
pub(crate) struct TransposeScratch {
    /// `next[s]`: while counting, the edges out of `s` seen so far; while
    /// scattering, the slot the next edge out of `s` goes to.
    next: Vec<u32>,
    /// Bit `s` set: `s` is a source of the tile being built.
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

impl PushIndex {
    /// The transposes of `tiles`, in order: each tile's own if it has one,
    /// else built now and kept in the tile. Every source id must be below
    /// `num_vertices`.
    pub fn for_tiles<'a>(
        tiles: impl IntoIterator<Item = &'a Tile>,
        num_vertices: u64,
    ) -> Vec<Arc<PushIndex>> {
        let mut scratch = None;
        tiles
            .into_iter()
            .map(|tile| {
                Arc::clone(tile.push_index.get_or_init(|| {
                    let scratch =
                        scratch.get_or_insert_with(|| TransposeScratch::new(num_vertices));
                    Arc::new(Self::build(tile, scratch))
                }))
            })
            .collect()
    }

    /// A stable counting-sort transpose: count each source's edges and mark
    /// it in the bitmap, read the distinct sources off the bitmap words
    /// (ascending for free) while prefix-summing their counts into CSR
    /// offsets, then walk the targets in ascending order dropping every
    /// in-edge into its source's next free slot. Walking targets ascending is
    /// what makes each source's out-targets ascending and keeps duplicate
    /// `(source, target)` edges in tile order. Leaves `scratch` all-zero.
    fn build(tile: &Tile, scratch: &mut TransposeScratch) -> Self {
        let (tile_sources, tile_weights) = (tile.sources(), tile.weights());
        let num_edges = u32::try_from(tile_sources.len())
            .expect("a tile holds fewer than 2^32 edges (its slots are counted in u32)");
        let TransposeScratch { next, seen } = scratch;
        for &source in tile_sources {
            next[source as usize] += 1;
            seen[(source >> 6) as usize] |= 1 << (source & 63);
        }
        let mut sources = Vec::new();
        let mut offsets = vec![0u64];
        let mut placed = 0u32;
        for (word_index, word) in seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let source = (word_index as u32) << 6 | bits.trailing_zeros();
                bits &= bits - 1;
                placed += std::mem::replace(&mut next[source as usize], placed);
                sources.push(source);
                offsets.push(u64::from(placed));
            }
        }
        debug_assert_eq!(placed, num_edges);
        let mut targets = vec![0; num_edges as usize];
        let mut weights = tile_weights.map(|_| vec![0.0f32; num_edges as usize]);
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
        for &source in &sources {
            next[source as usize] = 0;
        }
        PushIndex {
            target_start: tile.target_start,
            target_end: tile.target_end,
            sources,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of target slots the tile covers.
    pub fn num_targets(&self) -> usize {
        (self.target_end - self.target_start) as usize
    }

    /// The distinct sources with an edge into the tile, ascending.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Out-edges (into the tile) of the source at position `si` of
    /// [`PushIndex::sources`]: their targets, ascending, and their weights
    /// (`None` for unweighted graphs, whose edges all weigh 1).
    pub fn out_edges(&self, si: usize) -> (&[VertexId], Option<&[f32]>) {
        let lo = self.offsets[si] as usize;
        let hi = self.offsets[si + 1] as usize;
        (
            &self.targets[lo..hi],
            self.weights.as_ref().map(|w| &w[lo..hi]),
        )
    }

    /// Out-degree (into the tile) of the source at position `si`.
    pub fn out_degree(&self, si: usize) -> u64 {
        self.offsets[si + 1] - self.offsets[si]
    }

    /// Resident footprint in bytes, for memory accounting.
    pub fn memory_bytes(&self) -> u64 {
        self.sources.len() as u64 * 4
            + self.offsets.len() as u64 * 8
            + self.targets.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Spe, SpeConfig};
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};

    impl PushIndex {
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

    /// The tile's edges as `(source, target, weight)`, stably sorted by
    /// source — through [`Tile::in_edges`], which shares nothing with the
    /// counting sort.
    fn stable_transpose(tile: &Tile) -> Vec<(VertexId, VertexId, f32)> {
        let mut edges: Vec<(VertexId, VertexId, f32)> = tile
            .targets()
            .flat_map(|t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
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

    /// The transpose is the tile's edges stably sorted by `(source, target)`:
    /// unsorted adjacency lists, duplicate edges with different weights, a
    /// target with no in-edges and a source far from the rest all included.
    #[test]
    fn push_index_is_the_stable_transpose_of_the_tile() {
        let lists = vec![
            vec![(9, 1.0), (2, 2.0), (9, 3.0)],
            vec![],
            vec![(2, 4.0), (700, 5.0), (2, 6.0), (3, 7.0)],
            vec![(9, 8.0)],
        ];
        let mut scratch = TransposeScratch::new(701);
        for weighted in [true, false] {
            let tile = Tile::from_adjacency(0, 40, &lists, weighted);
            let mut expected: Vec<(VertexId, VertexId, f32)> = tile
                .targets()
                .flat_map(|t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
                .collect();
            expected.sort_by_key(|&(source, target, _)| (source, target));
            let index = PushIndex::build(&tile, &mut scratch);
            assert_eq!(index.sources, [2, 3, 9, 700]);
            assert_eq!(index.edges(), expected, "weighted {weighted}");
            assert_eq!(index.out_degree(0), 3);
        }
        let empty = Tile::from_adjacency(0, 5, &[vec![], vec![]], false);
        let empty = PushIndex::build(&empty, &mut scratch);
        assert!(empty.sources.is_empty() && empty.targets.is_empty());
        assert_eq!(empty.offsets, [0]);
    }

    /// Every tile of an RMAT partition and the awkward tiles above, built
    /// through one scratch in a shuffled order: each transpose is the stable
    /// sort of its tile, and the scratch is all-zero again after every build
    /// — what lets the next tile count from nothing.
    #[test]
    fn push_index_through_a_shared_scratch_is_the_stable_transpose() {
        let graph = RmatGenerator::new(10, 8).generate(23);
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("t", &graph, 13)).unwrap();
        let num_vertices = partitioned.num_vertices();
        for weighted in [false, true] {
            // The RMAT tiles, each edge weighted by where it sits in its list
            // so that duplicate `(source, target)` pairs tell their order.
            let mut all: Vec<Tile> = partitioned
                .tiles
                .iter()
                .map(|tile| {
                    let lists: Vec<Vec<(VertexId, f32)>> = tile
                        .targets()
                        .map(|t| {
                            let sources = tile.in_edges(t).enumerate();
                            sources.map(|(i, (s, _))| (s, 0.5 + i as f32)).collect()
                        })
                        .collect();
                    Tile::from_adjacency(tile.tile_id, tile.target_start, &lists, weighted)
                })
                .collect();
            all.extend(awkward_tiles(weighted));
            // A far-away source (the last vertex) into an otherwise tiny tile.
            let far = vec![vec![(num_vertices as u32 - 1, 2.0), (0, 1.0)], vec![]];
            all.push(Tile::from_adjacency(99, 3, &far, weighted));
            // A fixed shuffle: stride through the list by a prime that does
            // not divide its length.
            let step = 7;
            assert_ne!(all.len() % step, 0);
            let mut scratch = TransposeScratch::new(num_vertices);
            let mut edges = 0;
            for i in 0..all.len() {
                let tile = &all[(i * step) % all.len()];
                let index = PushIndex::build(tile, &mut scratch);
                assert!(
                    scratch.next.iter().all(|&c| c == 0) && scratch.seen.iter().all(|&w| w == 0),
                    "tile {} left the scratch dirty",
                    tile.tile_id
                );
                let want = stable_transpose(tile);
                assert_eq!(
                    index.edges(),
                    want,
                    "tile {} weighted {weighted}",
                    tile.tile_id
                );
                assert_eq!(index.weights.is_some(), weighted);
                assert!(index.sources.windows(2).all(|pair| pair[0] < pair[1]));
                assert_eq!(index.offsets.len(), index.sources.len() + 1);
                assert_eq!(
                    (index.target_start, index.target_end),
                    (tile.target_start, tile.target_end)
                );
                edges += want.len();
            }
            assert!(edges > 8_000, "{edges} edges transposed");
        }
    }

    /// A tile builds its transpose once: later calls, and clones taken after
    /// the build, hand back the same one; a clone taken before, and a tile
    /// decoded from the bytes, start without one and still compare equal.
    #[test]
    fn a_tile_keeps_its_transpose_and_its_bytes_do_not_carry_it() {
        let tiles = awkward_tiles(true);
        let early = tiles[0].clone();
        assert!(tiles.iter().all(|tile| tile.push_index().is_none()));
        let first = PushIndex::for_tiles(&tiles, 10);
        assert_eq!(first.len(), tiles.len());
        let again = PushIndex::for_tiles(&tiles, 10);
        for ((tile, a), b) in tiles.iter().zip(&first).zip(&again) {
            assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(a, tile.push_index().unwrap()));
            let late = tile.clone();
            assert!(Arc::ptr_eq(a, late.push_index().unwrap()));
            let decoded = Tile::from_bytes(&tile.to_bytes()).unwrap();
            assert!(decoded.push_index().is_none());
            assert_eq!(&decoded, tile);
            assert_eq!(format!("{decoded:?}"), format!("{tile:?}"));
            assert_eq!(a.edges(), stable_transpose(tile));
        }
        assert!(early.push_index().is_none());
        assert_eq!(early, tiles[0]);
    }
}
