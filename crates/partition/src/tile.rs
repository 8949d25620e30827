//! Tiles: the basic graph processing unit (paper §III-B.2).
//!
//! A tile owns the in-edges of a contiguous range of target vertices
//! `[target_start, target_end)` in an enhanced CSR layout:
//!
//! * `offsets[i]` .. `offsets[i+1]` index the source ids of target vertex
//!   `target_start + i`,
//! * `sources` holds the source vertex ids,
//! * `weights` holds edge values and is omitted entirely for unweighted graphs
//!   (the paper's space optimisation).
//!
//! Tiles are immutable once built, serialize to a compact binary blob for the DFS /
//! local disk, and report the statistics the engine needs (edge count, memory size,
//! distinct source count for the Bloom filter).

use crate::{PartitionError, Result};
use graphh_graph::ids::{TileId, VertexId};

/// Magic prefix of the tile binary format.
const TILE_MAGIC: &[u8; 8] = b"GHTILE01";

/// Summary of a tile that is cheap to keep in memory for every tile on a server.
#[derive(Debug, Clone, PartialEq)]
pub struct TileMetadata {
    /// Tile id (position in the global tile order).
    pub tile_id: TileId,
    /// First target vertex covered by the tile.
    pub target_start: VertexId,
    /// One past the last target vertex covered by the tile.
    pub target_end: VertexId,
    /// Number of edges in the tile.
    pub num_edges: u64,
    /// Whether the tile stores edge weights.
    pub weighted: bool,
    /// Serialized size in bytes.
    pub serialized_bytes: u64,
}

/// A tile of in-edges in enhanced CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Tile id.
    pub tile_id: TileId,
    /// First target vertex covered.
    pub target_start: VertexId,
    /// One past the last target vertex covered.
    pub target_end: VertexId,
    /// CSR offsets, length `target_end - target_start + 1`.
    offsets: Vec<u64>,
    /// Source vertex ids grouped by target.
    sources: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs.
    weights: Option<Vec<f32>>,
}

impl Tile {
    /// Build a tile from per-target adjacency lists.
    ///
    /// `in_edges[i]` lists `(source, weight)` pairs of target vertex
    /// `target_start + i`. Pass `weighted = false` to drop the weight array.
    pub fn from_adjacency(
        tile_id: TileId,
        target_start: VertexId,
        in_edges: &[Vec<(VertexId, f32)>],
        weighted: bool,
    ) -> Self {
        let mut offsets = Vec::with_capacity(in_edges.len() + 1);
        let mut sources = Vec::new();
        let mut weights = if weighted { Some(Vec::new()) } else { None };
        offsets.push(0u64);
        for list in in_edges {
            for &(s, w) in list {
                sources.push(s);
                if let Some(ws) = &mut weights {
                    ws.push(w);
                }
            }
            offsets.push(sources.len() as u64);
        }
        Self {
            tile_id,
            target_start,
            target_end: target_start + in_edges.len() as VertexId,
            offsets,
            sources,
            weights,
        }
    }

    /// Build a tile from finished CSR arrays — the form the SPE's counting
    /// sort produces — checking what [`Tile::in_edges`] indexes on trust:
    /// `offsets` has one entry per target plus one, starts at 0, never
    /// decreases and ends at `sources.len()`; `weights`, when present, pairs
    /// up with `sources`.
    pub fn from_csr(
        tile_id: TileId,
        target_start: VertexId,
        target_end: VertexId,
        offsets: Vec<u64>,
        sources: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self> {
        let corrupt =
            |what: String| Err(PartitionError::Corrupt(format!("tile {tile_id}: {what}")));
        if target_end < target_start {
            return corrupt(format!(
                "target range [{target_start}, {target_end}) inverted"
            ));
        }
        let num_targets = (target_end - target_start) as usize;
        if offsets.len() != num_targets + 1 {
            return corrupt(format!(
                "{} offsets for {num_targets} targets",
                offsets.len()
            ));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return corrupt("offsets do not start at 0 and rise".into());
        }
        if offsets[num_targets] != sources.len() as u64 {
            return corrupt(format!(
                "last offset {} but {} sources",
                offsets[num_targets],
                sources.len()
            ));
        }
        if weights.as_ref().is_some_and(|w| w.len() != sources.len()) {
            return corrupt(format!(
                "weights do not pair up with {} sources",
                sources.len()
            ));
        }
        Ok(Self {
            tile_id,
            target_start,
            target_end,
            offsets,
            sources,
            weights,
        })
    }

    /// Number of target vertices covered by the tile.
    pub fn num_targets(&self) -> u32 {
        self.target_end - self.target_start
    }

    /// Number of edges stored in the tile.
    pub fn num_edges(&self) -> u64 {
        self.sources.len() as u64
    }

    /// Whether the tile stores edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The target vertices covered, in ascending order.
    pub fn targets(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.target_start..self.target_end
    }

    /// In-edges of a target vertex as `(source, weight)` pairs.
    ///
    /// # Panics
    /// Panics if `target` is outside `[target_start, target_end)`.
    pub fn in_edges(&self, target: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        assert!(
            target >= self.target_start && target < self.target_end,
            "target {target} outside tile range [{}, {})",
            self.target_start,
            self.target_end
        );
        let i = (target - self.target_start) as usize;
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (lo..hi).map(move |k| (self.sources[k], self.weights.as_ref().map_or(1.0, |w| w[k])))
    }

    /// In-degree of a target vertex within this tile.
    pub fn in_degree(&self, target: VertexId) -> u32 {
        let i = (target - self.target_start) as usize;
        (self.offsets[i + 1] - self.offsets[i]) as u32
    }

    /// All source vertex ids appearing in the tile (with duplicates).
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Number of distinct source vertices (used to size the Bloom filter).
    pub fn distinct_source_count(&self) -> usize {
        let mut s: Vec<VertexId> = self.sources.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    }

    /// In-memory footprint of the decoded tile in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8
            + self.sources.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }

    /// Cheap metadata snapshot.
    pub fn metadata(&self) -> TileMetadata {
        TileMetadata {
            tile_id: self.tile_id,
            target_start: self.target_start,
            target_end: self.target_end,
            num_edges: self.num_edges(),
            weighted: self.is_weighted(),
            serialized_bytes: self.serialized_size(),
        }
    }

    /// Size of [`Tile::to_bytes`]'s output without producing it.
    pub fn serialized_size(&self) -> u64 {
        let header = 8 + 4 + 4 + 4 + 1 + 8;
        let offsets = self.offsets.len() as u64 * 8;
        let sources = self.sources.len() as u64 * 4;
        let weights = self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4);
        header + offsets + sources + weights
    }

    /// Serialize to the compact binary format written to the DFS and local disks.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size() as usize);
        out.extend_from_slice(TILE_MAGIC);
        out.extend_from_slice(&self.tile_id.to_le_bytes());
        out.extend_from_slice(&self.target_start.to_le_bytes());
        out.extend_from_slice(&self.target_end.to_le_bytes());
        out.push(u8::from(self.is_weighted()));
        out.extend_from_slice(&(self.sources.len() as u64).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &s in &self.sources {
            out.extend_from_slice(&s.to_le_bytes());
        }
        if let Some(ws) = &self.weights {
            for &w in ws {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Deserialize a tile previously produced by [`Tile::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > data.len() {
                return Err(PartitionError::Corrupt(format!(
                    "tile truncated at offset {} (need {n} bytes, have {})",
                    *pos,
                    data.len() - *pos
                )));
            }
            let slice = &data[*pos..*pos + n];
            *pos += n;
            Ok(slice)
        };
        let magic = take(&mut pos, 8)?;
        if magic != TILE_MAGIC {
            return Err(PartitionError::Corrupt("bad tile magic".into()));
        }
        let tile_id = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let target_start = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let target_end = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if target_end < target_start {
            return Err(PartitionError::Corrupt("tile target range inverted".into()));
        }
        let weighted = take(&mut pos, 1)?[0] != 0;
        let num_edges = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        let num_targets = (target_end - target_start) as usize;
        let mut offsets = Vec::with_capacity(num_targets + 1);
        for _ in 0..=num_targets {
            offsets.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        }
        if offsets.last().copied().unwrap_or(0) as usize != num_edges {
            return Err(PartitionError::Corrupt(
                "tile offsets inconsistent with edge count".into(),
            ));
        }
        let mut sources = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            sources.push(u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()));
        }
        let weights = if weighted {
            let mut ws = Vec::with_capacity(num_edges);
            for _ in 0..num_edges {
                ws.push(f32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()));
            }
            Some(ws)
        } else {
            None
        };
        Ok(Self {
            tile_id,
            target_start,
            target_end,
            offsets,
            sources,
            weights,
        })
    }

    /// The canonical DFS / local-disk key for a tile.
    pub fn storage_key(graph_name: &str, tile_id: TileId) -> String {
        format!("{graph_name}/tiles/tile-{tile_id:06}.bin")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tile(weighted: bool) -> Tile {
        // Targets 10, 11, 12 with in-edges from various sources.
        let adjacency = vec![
            vec![(1u32, 0.5f32), (7, 1.5)],
            vec![],
            vec![(1, 2.0), (2, 3.0), (3, 4.0)],
        ];
        Tile::from_adjacency(4, 10, &adjacency, weighted)
    }

    #[test]
    fn tile_shape_and_lookup() {
        let t = sample_tile(true);
        assert_eq!(t.tile_id, 4);
        assert_eq!(t.num_targets(), 3);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.in_degree(10), 2);
        assert_eq!(t.in_degree(11), 0);
        assert_eq!(t.in_degree(12), 3);
        let edges: Vec<_> = t.in_edges(12).collect();
        assert_eq!(edges, vec![(1, 2.0), (2, 3.0), (3, 4.0)]);
        assert_eq!(t.targets().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(t.distinct_source_count(), 4);
    }

    #[test]
    fn unweighted_tile_reports_unit_weights_and_saves_space() {
        let weighted = sample_tile(true);
        let unweighted = sample_tile(false);
        assert!(unweighted.memory_bytes() < weighted.memory_bytes());
        let edges: Vec<_> = unweighted.in_edges(10).collect();
        assert_eq!(edges, vec![(1, 1.0), (7, 1.0)]);
    }

    #[test]
    fn serialization_roundtrip() {
        for weighted in [false, true] {
            let t = sample_tile(weighted);
            let bytes = t.to_bytes();
            assert_eq!(bytes.len() as u64, t.serialized_size());
            let back = Tile::from_bytes(&bytes).unwrap();
            assert_eq!(back, t);
            assert_eq!(back.metadata(), t.metadata());
        }
    }

    #[test]
    fn corrupt_tiles_are_rejected() {
        let t = sample_tile(false);
        let bytes = t.to_bytes();
        // Truncation.
        assert!(Tile::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Tile::from_bytes(&bad).is_err());
        // Inconsistent edge count.
        let mut bad = bytes;
        bad[21] ^= 0x01; // first byte of num_edges
        assert!(Tile::from_bytes(&bad).is_err());
    }

    #[test]
    fn from_csr_accepts_consistent_arrays_and_rejects_the_rest() {
        let reference = sample_tile(true);
        let offsets = vec![0u64, 2, 2, 5];
        let sources = vec![1u32, 7, 1, 2, 3];
        let weights = vec![0.5f32, 1.5, 2.0, 3.0, 4.0];
        let build = |offsets: &[u64], sources: &[u32], weights: Option<&[f32]>| {
            Tile::from_csr(
                4,
                10,
                13,
                offsets.to_vec(),
                sources.to_vec(),
                weights.map(<[f32]>::to_vec),
            )
        };
        assert_eq!(
            build(&offsets, &sources, Some(&weights)).unwrap(),
            reference
        );
        assert_eq!(build(&offsets, &sources, None).unwrap(), sample_tile(false));

        let rejected = |offsets: &[u64], sources: &[u32], weights: Option<&[f32]>| {
            matches!(
                build(offsets, sources, weights),
                Err(PartitionError::Corrupt(_))
            )
        };
        // One offset short, one long.
        assert!(rejected(&offsets[..3], &sources[..2], None));
        assert!(rejected(&[0, 2, 2, 5, 5], &sources, None));
        // Not monotone; not starting at 0.
        assert!(rejected(&[0, 3, 2, 5], &sources, None));
        assert!(rejected(&[1, 2, 2, 5], &sources, None));
        // Last offset is not the source count, either way.
        assert!(rejected(&offsets, &sources[..4], None));
        assert!(rejected(&[0, 2, 2, 4], &sources, None));
        // Weights that do not pair up.
        assert!(rejected(&offsets, &sources, Some(&weights[..4])));
        // An inverted target range.
        assert!(Tile::from_csr(0, 5, 4, vec![0], vec![], None).is_err());
    }

    #[test]
    #[should_panic(expected = "outside tile range")]
    fn out_of_range_target_panics() {
        let t = sample_tile(false);
        let _ = t.in_edges(99).count();
    }

    #[test]
    fn empty_tile_roundtrips() {
        let t = Tile::from_adjacency(0, 5, &[], false);
        assert_eq!(t.num_targets(), 0);
        assert_eq!(t.num_edges(), 0);
        let back = Tile::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn storage_key_is_stable() {
        assert_eq!(
            Tile::storage_key("uk-2007", 3),
            "uk-2007/tiles/tile-000003.bin"
        );
    }
}
