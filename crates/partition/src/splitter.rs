//! Splitter construction (Algorithm 4, lines 3–8).
//!
//! The splitter is a monotone array of vertex ids that cuts the target-vertex space
//! into `P` tiles: vertex `v`'s in-edges belong to tile `t` iff
//! `splitter[t] <= v < splitter[t + 1]`. Walking the in-degree array, vertices are
//! accumulated into the current tile until it holds at least `S = |E| / P` edges.

use crate::{PartitionError, Result};
use graphh_graph::ids::{TileId, VertexId};

/// A tile splitter: the boundaries of every tile's target-vertex range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splitter {
    /// `boundaries[t]..boundaries[t+1]` is tile `t`'s target range; the first entry
    /// is always 0 and the last is `num_vertices`.
    boundaries: Vec<VertexId>,
}

impl Splitter {
    /// Build a splitter from the in-degree array with average tile size `avg_tile_size`
    /// (the paper's `S`, §III-B.3).
    pub fn from_in_degrees(in_degrees: &[u32], avg_tile_size: u64) -> Result<Self> {
        if avg_tile_size == 0 {
            return Err(PartitionError::InvalidConfig(
                "average tile size must be at least 1 edge".into(),
            ));
        }
        let mut boundaries = vec![0 as VertexId];
        let mut size = 0u64;
        for (v, &d) in in_degrees.iter().enumerate() {
            size += u64::from(d);
            if size >= avg_tile_size {
                boundaries.push(v as VertexId + 1);
                size = 0;
            }
        }
        let n = in_degrees.len() as VertexId;
        if *boundaries.last().unwrap() != n {
            boundaries.push(n);
        }
        // A graph with zero vertices still gets one (empty) tile boundary pair.
        if boundaries.len() == 1 {
            boundaries.push(0);
        }
        Ok(Self { boundaries })
    }

    /// Rebuild a splitter from the boundaries it cut — what loading persisted
    /// tiles has, rather than the `avg_tile_size` that produced them. The
    /// first boundary must be 0, the last `num_vertices`, and every tile
    /// non-empty (strictly increasing), except that a graph without vertices
    /// keeps its one empty tile `[0, 0]`.
    pub fn from_boundaries(boundaries: Vec<VertexId>, num_vertices: u64) -> Result<Self> {
        let ends_fit = boundaries.len() >= 2
            && boundaries[0] == 0
            && u64::from(boundaries[boundaries.len() - 1]) == num_vertices;
        let rises = boundaries.windows(2).all(|w| w[0] < w[1]) || boundaries == [0, 0];
        if !(ends_fit && rises) {
            return Err(PartitionError::Corrupt(format!(
                "tile boundaries {boundaries:?} do not cut 0..{num_vertices} into consecutive ranges"
            )));
        }
        Ok(Self { boundaries })
    }

    /// Build a splitter that produces (about) `num_tiles` tiles.
    pub fn with_tile_count(in_degrees: &[u32], num_tiles: u32) -> Result<Self> {
        if num_tiles == 0 {
            return Err(PartitionError::InvalidConfig(
                "tile count must be at least 1".into(),
            ));
        }
        let total: u64 = in_degrees.iter().map(|&d| u64::from(d)).sum();
        let avg = (total / u64::from(num_tiles)).max(1);
        Self::from_in_degrees(in_degrees, avg)
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> u32 {
        (self.boundaries.len() - 1) as u32
    }

    /// The target-vertex range `[start, end)` of tile `t`.
    pub fn tile_range(&self, t: TileId) -> (VertexId, VertexId) {
        (self.boundaries[t as usize], self.boundaries[t as usize + 1])
    }

    /// The tile that owns target vertex `v` (binary search over the boundaries).
    pub fn tile_of(&self, v: VertexId) -> TileId {
        debug_assert!(v < *self.boundaries.last().unwrap());
        // partition_point returns the number of boundaries <= v, so subtracting one
        // yields the tile whose range contains v.
        let idx = self.boundaries.partition_point(|&b| b <= v);
        (idx - 1) as TileId
    }

    /// The raw boundary array.
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// Edge count of every tile, given the in-degree array the splitter was built from.
    pub fn tile_edge_counts(&self, in_degrees: &[u32]) -> Vec<u64> {
        (0..self.num_tiles())
            .map(|t| {
                let (lo, hi) = self.tile_range(t);
                in_degrees[lo as usize..hi as usize]
                    .iter()
                    .map(|&d| u64::from(d))
                    .sum()
            })
            .collect()
    }

    /// Imbalance factor: max tile edge count over the mean (1.0 = perfectly even).
    pub fn imbalance(&self, in_degrees: &[u32]) -> f64 {
        let counts = self.tile_edge_counts(in_degrees);
        let total: u64 = counts.iter().sum();
        if total == 0 || counts.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / counts.len() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_covers_all_vertices_in_order() {
        let in_deg = vec![1u32, 1, 1, 1, 1, 1, 1, 1];
        let s = Splitter::from_in_degrees(&in_deg, 3).unwrap();
        let b = s.boundaries();
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 8);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Tiles of ~3 edges each: [0,3), [3,6), [6,8)
        assert_eq!(s.num_tiles(), 3);
        assert_eq!(s.tile_range(0), (0, 3));
        assert_eq!(s.tile_range(2), (6, 8));
    }

    #[test]
    fn tile_of_matches_ranges() {
        let in_deg = vec![5u32, 0, 3, 2, 7, 1];
        let s = Splitter::from_in_degrees(&in_deg, 6).unwrap();
        for v in 0..in_deg.len() as u32 {
            let t = s.tile_of(v);
            let (lo, hi) = s.tile_range(t);
            assert!(v >= lo && v < hi, "vertex {v} tile {t} range [{lo},{hi})");
        }
    }

    #[test]
    fn high_degree_vertex_gets_its_own_tile() {
        let in_deg = vec![1u32, 100, 1, 1];
        let s = Splitter::from_in_degrees(&in_deg, 10).unwrap();
        let t = s.tile_of(1);
        let (lo, hi) = s.tile_range(t);
        // The hub closes its tile immediately after being added.
        assert!(hi - lo <= 2, "hub tile range [{lo},{hi}) too wide");
    }

    #[test]
    fn edge_counts_sum_to_total() {
        let in_deg: Vec<u32> = (0..100).map(|i| (i % 7) as u32).collect();
        let total: u64 = in_deg.iter().map(|&d| u64::from(d)).sum();
        let s = Splitter::from_in_degrees(&in_deg, 20).unwrap();
        let counts = s.tile_edge_counts(&in_deg);
        assert_eq!(counts.iter().sum::<u64>(), total);
        assert!(s.imbalance(&in_deg) >= 1.0);
    }

    #[test]
    fn with_tile_count_hits_requested_granularity() {
        let in_deg = vec![2u32; 1000];
        let s = Splitter::with_tile_count(&in_deg, 10).unwrap();
        assert!((9..=11).contains(&s.num_tiles()), "{} tiles", s.num_tiles());
    }

    #[test]
    fn zero_tile_size_rejected() {
        assert!(Splitter::from_in_degrees(&[1, 2, 3], 0).is_err());
        assert!(Splitter::with_tile_count(&[1, 2, 3], 0).is_err());
    }

    #[test]
    fn from_boundaries_accepts_what_from_in_degrees_cuts_and_nothing_else() {
        let in_deg = vec![5u32, 0, 3, 2, 7, 1];
        let cut = Splitter::from_in_degrees(&in_deg, 6).unwrap();
        let rebuilt = Splitter::from_boundaries(cut.boundaries().to_vec(), 6).unwrap();
        assert_eq!(rebuilt, cut);
        let empty = Splitter::from_in_degrees(&[], 10).unwrap();
        assert_eq!(
            Splitter::from_boundaries(empty.boundaries().to_vec(), 0).unwrap(),
            empty
        );
        for (bad, n) in [
            (vec![], 0),
            (vec![0], 0),
            (vec![1, 4, 6], 6),
            (vec![0, 4, 5], 6),
            (vec![0, 4, 4, 6], 6),
            (vec![0, 4, 3, 6], 6),
            (vec![0, 0, 6], 6),
        ] {
            assert!(
                Splitter::from_boundaries(bad.clone(), n).is_err(),
                "{bad:?} over {n} vertices"
            );
        }
    }

    #[test]
    fn empty_graph_has_one_empty_tile() {
        let s = Splitter::from_in_degrees(&[], 10).unwrap();
        assert_eq!(s.num_tiles(), 1);
        assert_eq!(s.tile_range(0), (0, 0));
    }
}
