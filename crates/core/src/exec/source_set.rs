//! The per-tile source set behind tile skipping (paper §III-C.4).
//!
//! Many algorithms update only a few vertices per superstep. A tile none of
//! whose source vertices changed cannot produce a new target value, so
//! fetching and gathering it is wasted work. The paper keeps a Bloom filter of
//! every tile's sources for this; with vertex ids dense in `0..|V|` a plain
//! bitmap over the ids does the same job with one store per edge to build and
//! one load per frontier vertex to probe — and, while it fits, exactly.
//!
//! "While it fits" is the memory rule: the bitmap is never larger than the
//! Bloom filter the paper's sizing (1 % false positives) would give the same
//! tile. When |V| bits would be, one bit stands for a block of `2^shift`
//! consecutive vertices, `shift` the smallest that fits. That is a summary
//! with false positives (a frontier vertex in the same block as a source) but,
//! like the filter, never a false negative — so skipping stays safe.

use graphh_graph::ids::VertexId;

/// Which vertices (at `shift == 0`) or blocks of `2^shift` vertices have an
/// edge into one tile.
#[derive(Debug, Clone)]
pub(crate) struct SourceSet {
    bits: Vec<u64>,
    shift: u32,
}

impl SourceSet {
    /// The source set of a tile whose in-edges come from `sources` (one entry
    /// per edge, duplicates and all), in a graph of `num_vertices` vertices.
    pub(crate) fn build(sources: &[VertexId], num_vertices: u64) -> Self {
        let budget = bloom_filter_bits(sources.len());
        let blocks = |shift: u32| (num_vertices.saturating_sub(1) >> shift) + 1;
        let shift = (0..u64::BITS)
            .find(|&shift| blocks(shift) <= budget)
            .expect("the budget is at least 64 bits, which 2^58-vertex blocks fit");
        let mut bits = vec![0u64; blocks(shift).div_ceil(64) as usize];
        for &source in sources {
            let block = source >> shift;
            bits[(block >> 6) as usize] |= 1 << (block & 63);
        }
        Self { bits, shift }
    }

    /// Whether any vertex of `frontier` is (at `shift == 0`) or may be a
    /// source of the tile. `false` is always exact.
    pub(crate) fn intersects(&self, frontier: &[VertexId]) -> bool {
        frontier.iter().any(|&v| {
            let block = v >> self.shift;
            self.bits[(block >> 6) as usize] & (1 << (block & 63)) != 0
        })
    }

    /// Memory used by the bitmap, in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }
}

/// Bits of the Bloom filter this set replaces, for a tile of `edges` edges:
/// the textbook `-n ln p / ln² 2` at `p = 1 %`, with the floors it had
/// (8 items, 64 bits). Only the memory bound is left of it.
fn bloom_filter_bits(edges: usize) -> u64 {
    let n = edges.max(8) as f64;
    let ln2 = std::f64::consts::LN_2;
    ((-n * 0.01f64.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_partition::{Spe, SpeConfig};
    use std::collections::BTreeSet;

    /// SplitMix64, for seeded frontiers.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn frontiers(num_vertices: u64, seed: u64) -> Vec<Vec<VertexId>> {
        let mut state = seed;
        let mut out = vec![Vec::new()];
        for size in [1usize, 1, 1, 2, 3, 5, 8, 21, 55, 144] {
            let picked: BTreeSet<VertexId> = (0..size)
                .map(|_| (next(&mut state) % num_vertices) as VertexId)
                .collect();
            out.push(picked.into_iter().collect());
        }
        out
    }

    /// With one bit per vertex the probe is set intersection, exactly: a tile
    /// is skipped iff no frontier vertex is one of its sources.
    #[test]
    fn an_exact_set_skips_iff_no_frontier_vertex_is_a_source() {
        let g = RmatGenerator::new(9, 8).generate(5);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 6)).unwrap();
        let n = p.num_vertices();
        for tile in &p.tiles {
            let set = SourceSet::build(tile.sources(), n);
            assert_eq!(set.shift, 0, "{} edges, {n} vertices", tile.num_edges());
            assert_eq!(set.memory_bytes(), n.div_ceil(64) * 8);
            let sources: BTreeSet<VertexId> = tile.sources().iter().copied().collect();
            // Every source alone, every non-source alone, and seeded mixes.
            for v in 0..n as VertexId {
                assert_eq!(set.intersects(&[v]), sources.contains(&v), "vertex {v}");
            }
            for frontier in frontiers(n, u64::from(tile.tile_id)) {
                let brute = frontier.iter().any(|v| sources.contains(v));
                assert_eq!(set.intersects(&frontier), brute, "{frontier:?}");
            }
        }
    }

    /// |V| far above the edges per tile: the set degrades to blocks, stays
    /// within the Bloom filter's size, and still never misses a source.
    #[test]
    fn a_summary_never_misses_a_source_and_never_outgrows_the_filter() {
        let g = RmatGenerator::new(14, 1).generate(3);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 40)).unwrap();
        let n = p.num_vertices();
        let mut skipped = 0;
        for tile in &p.tiles {
            let set = SourceSet::build(tile.sources(), n);
            assert!(set.shift > 0, "{} edges, {n} vertices", tile.num_edges());
            let budget = bloom_filter_bits(tile.sources().len());
            assert!(set.memory_bytes() <= budget.div_ceil(64) * 8);
            // The smallest shift that fits: half the block size would not.
            assert!(((n - 1) >> (set.shift - 1)) + 1 > budget);
            let sources: BTreeSet<VertexId> = tile.sources().iter().copied().collect();
            for &s in &sources {
                assert!(set.intersects(&[s]), "false negative for {s}");
            }
            for frontier in frontiers(n, u64::from(tile.tile_id)) {
                let brute = frontier.iter().any(|v| sources.contains(v));
                assert!(set.intersects(&frontier) || !brute, "{frontier:?}");
                skipped += u32::from(!set.intersects(&frontier));
            }
        }
        assert!(skipped > 0, "a summary that never skips is no summary");
    }

    #[test]
    fn degenerate_tiles_and_graphs_build() {
        // No edges: nothing intersects, whatever the budget made of the shift.
        let empty = SourceSet::build(&[], 1 << 20);
        assert!(!empty.intersects(&[0, 77, (1 << 20) - 1]));
        assert!(empty.memory_bytes() <= bloom_filter_bits(0).div_ceil(64) * 8);
        // One vertex, a self-loop.
        let single = SourceSet::build(&[0], 1);
        assert_eq!((single.shift, single.memory_bytes()), (0, 8));
        assert!(single.intersects(&[0]) && !single.intersects(&[]));
        // The last vertex of the id space lands in the last block.
        let top = SourceSet::build(&[u32::MAX - 1], u64::from(u32::MAX));
        assert!(top.intersects(&[u32::MAX - 1]) && !top.intersects(&[0]));
    }
}
