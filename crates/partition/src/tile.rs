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
//! Tiles are immutable once built, serialize to a compact binary blob for the
//! tile store, and report the statistics the engine needs (edge count, memory
//! size). A tile also keeps its out-edge transpose ([`PushIndex`]) once a
//! push-capable run has built it; the blob does not carry it.

use crate::transpose::PushIndex;
use crate::{PartitionError, Result};
use graphh_graph::ids::{TileId, VertexId};
use std::sync::{Arc, OnceLock};

/// Magic prefix of the tile binary format.
const TILE_MAGIC: &[u8; 8] = b"GHTILE01";

/// Bytes before the offsets array: magic, tile id, target range, weighted
/// flag, edge count.
const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 1 + 8;

/// A tile of in-edges in enhanced CSR form.
///
/// Equality, `Debug` and the bytes cover the edges only, not whether the
/// transpose has been built; a clone shares the transpose built before it.
/// `offsets` and `weights` are boxed slices (a tile never grows): that keeps
/// the struct at the 88 bytes it had before it carried the transpose slot,
/// so a loop that builds and drops partitions leaves the allocator as it did.
#[derive(Clone)]
pub struct Tile {
    /// Tile id.
    pub tile_id: TileId,
    /// First target vertex covered.
    pub target_start: VertexId,
    /// One past the last target vertex covered.
    pub target_end: VertexId,
    /// CSR offsets, length `target_end - target_start + 1`.
    offsets: Box<[u64]>,
    /// Source vertex ids grouped by target.
    sources: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs.
    weights: Option<Box<[f32]>>,
    /// The out-edge transpose, once [`PushIndex::for_tiles`] has built it.
    /// Empty costs no allocation, so decoding a tile allocates nothing for it.
    pub(crate) push_index: OnceLock<Arc<PushIndex>>,
}

impl PartialEq for Tile {
    fn eq(&self, other: &Self) -> bool {
        self.tile_id == other.tile_id
            && self.target_start == other.target_start
            && self.target_end == other.target_end
            && self.offsets == other.offsets
            && self.sources == other.sources
            && self.weights == other.weights
    }
}

impl std::fmt::Debug for Tile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tile")
            .field("tile_id", &self.tile_id)
            .field("target_start", &self.target_start)
            .field("target_end", &self.target_end)
            .field("offsets", &self.offsets)
            .field("sources", &self.sources)
            .field("weights", &self.weights)
            .finish()
    }
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
            offsets: offsets.into_boxed_slice(),
            sources,
            weights: weights.map(Vec::into_boxed_slice),
            push_index: OnceLock::new(),
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
            offsets: offsets.into_boxed_slice(),
            sources,
            weights: weights.map(Vec::into_boxed_slice),
            push_index: OnceLock::new(),
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

    /// All source vertex ids appearing in the tile (with duplicates), grouped
    /// by target: target `target_start + i` owns
    /// `sources()[offsets()[i]..offsets()[i + 1]]`.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// The CSR offsets into [`Tile::sources`] / [`Tile::weights`]: one entry
    /// per target plus one, starting at 0, never decreasing, ending at the
    /// edge count ([`Tile::from_csr`] checks it, [`Tile::from_adjacency`]
    /// builds it so).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Edge weights, parallel to [`Tile::sources`]; `None` for unweighted
    /// graphs, whose edges all weigh 1.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The tile's out-edge transpose, if a push-capable run (or any caller of
    /// [`PushIndex::for_tiles`]) has built it; a tile fresh from the SPE or
    /// from [`Tile::from_bytes`] has none.
    pub fn push_index(&self) -> Option<&Arc<PushIndex>> {
        self.push_index.get()
    }

    /// In-memory footprint of the decoded tile in bytes (the edges; not the
    /// transpose).
    pub fn memory_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8
            + self.sources.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }

    /// Size of [`Tile::to_bytes`]'s output without producing it.
    pub fn serialized_size(&self) -> u64 {
        let header = HEADER_BYTES as u64;
        let offsets = self.offsets.len() as u64 * 8;
        let sources = self.sources.len() as u64 * 4;
        let weights = self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4);
        header + offsets + sources + weights
    }

    /// Serialize to the compact binary format every tile store holds.
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
    ///
    /// The blob is outside input: the length the header implies is worked out
    /// with checked arithmetic and compared with `data.len()` before anything
    /// is allocated, and the decoded arrays go through [`Tile::from_csr`], so
    /// a blob that loads can be walked without an index going out of bounds.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let corrupt = |what: String| Err(PartitionError::Corrupt(what));
        let Some((header, body)) = data.split_at_checked(HEADER_BYTES) else {
            return corrupt(format!(
                "tile truncated: {} bytes cannot hold the {HEADER_BYTES}-byte header",
                data.len()
            ));
        };
        if &header[..8] != TILE_MAGIC {
            return corrupt("bad tile magic".into());
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let (tile_id, target_start, target_end) = (word(8), word(12), word(16));
        if target_end < target_start {
            return corrupt("tile target range inverted".into());
        }
        let weighted = match header[20] {
            0 => false,
            1 => true,
            flag => return corrupt(format!("tile weighted flag is {flag}, not 0 or 1")),
        };
        let num_edges = u64::from_le_bytes(header[21..29].try_into().expect("8 bytes"));
        let offset_bytes = (u64::from(target_end - target_start) + 1) * 8;
        let expected = num_edges
            .checked_mul(if weighted { 8 } else { 4 })
            .and_then(|edge_bytes| edge_bytes.checked_add(offset_bytes));
        if expected != Some(body.len() as u64) {
            return corrupt(format!(
                "tile {tile_id}: header claims {} targets and {num_edges} edges, \
                 which is not the {} bytes that follow it",
                target_end - target_start,
                body.len()
            ));
        }
        // The length check bounds both by `body.len()`, so they fit.
        let (offsets, edges) = body.split_at(offset_bytes as usize);
        let (sources, weights) = edges.split_at(num_edges as usize * 4);
        Self::from_csr(
            tile_id,
            target_start,
            target_end,
            decode_le(offsets, u64::from_le_bytes),
            decode_le(sources, u32::from_le_bytes),
            weighted.then(|| decode_le(weights, f32::from_le_bytes)),
        )
    }

    /// The key a tile lives under in any store — a persisted partition and a
    /// server's local disk alike. `PartitionedGraph::persist_tile` is the one
    /// writer there, `PartitionedGraph::load` lists the `tiles/` prefix.
    pub fn storage_key(graph_name: &str, tile_id: TileId) -> String {
        format!("{graph_name}/tiles/tile-{tile_id:06}.bin")
    }
}

/// Decode a packed array of `N`-byte little-endian values.
fn decode_le<const N: usize, T>(bytes: &[u8], from_le: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(N)
        .map(|chunk| from_le(chunk.try_into().expect("chunks_exact(N)")))
        .collect()
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
        }
    }

    fn is_corrupt(blob: &[u8]) -> bool {
        matches!(Tile::from_bytes(blob), Err(PartitionError::Corrupt(_)))
    }

    #[test]
    fn corrupt_tiles_are_rejected() {
        let t = sample_tile(false);
        let bytes = t.to_bytes();
        // Truncation, anywhere — inside the header included — and a tail.
        for len in 0..bytes.len() {
            assert!(is_corrupt(&bytes[..len]), "truncated to {len}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(is_corrupt(&long));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(is_corrupt(&bad));
        // Inconsistent edge count.
        let mut bad = bytes.clone();
        bad[21] ^= 0x01; // first byte of num_edges
        assert!(is_corrupt(&bad));
        // A weighted flag that `to_bytes` never writes.
        let mut bad = bytes;
        bad[20] = 2;
        assert!(is_corrupt(&bad));
    }

    /// Header fields are checked against the blob's length before they size
    /// anything: these two used to reserve 32 GiB and panic with `capacity
    /// overflow` respectively.
    #[test]
    fn a_header_that_claims_more_than_the_blob_holds_is_corrupt() {
        let header = |target_end: u32, num_edges: u64| {
            let mut blob = TILE_MAGIC.to_vec();
            blob.extend_from_slice(&0u32.to_le_bytes()); // tile id
            blob.extend_from_slice(&0u32.to_le_bytes()); // target_start
            blob.extend_from_slice(&target_end.to_le_bytes());
            blob.push(0); // unweighted
            blob.extend_from_slice(&num_edges.to_le_bytes());
            blob
        };
        assert!(is_corrupt(&header(u32::MAX, 0)));
        for huge in [1u64 << 61, 1 << 62, u64::MAX] {
            let mut blob = header(0, huge);
            blob.extend_from_slice(&huge.to_le_bytes()); // the one offset agrees
            assert!(is_corrupt(&blob), "{huge} edges in 37 bytes");
        }
    }

    /// Interior offsets are validated too, not just the last one: a tile that
    /// loads can be walked.
    #[test]
    fn offsets_that_do_not_rise_within_the_edge_count_are_corrupt() {
        let bytes = sample_tile(true).to_bytes(); // offsets 0, 2, 2, 5
        let with_offset = |i: usize, value: u64| {
            let mut blob = bytes.clone();
            let at = HEADER_BYTES + i * 8;
            blob[at..at + 8].copy_from_slice(&value.to_le_bytes());
            blob
        };
        assert!(is_corrupt(&with_offset(1, 3))); // 0, 3, 2, 5
        assert!(is_corrupt(&with_offset(2, 9))); // past the edge count
        assert!(is_corrupt(&with_offset(1, u64::MAX)));
        assert!(is_corrupt(&with_offset(0, 1))); // does not start at 0
        assert_eq!(
            Tile::from_bytes(&with_offset(1, 1)).unwrap().in_degree(10),
            1
        );
    }

    /// No checksum guards the payload, so a flipped bit may still load — but
    /// then as exactly the tile those bytes spell, safe to walk.
    #[test]
    fn a_flipped_bit_is_corrupt_or_loads_as_what_the_bytes_say() {
        for weighted in [false, true] {
            let bytes = sample_tile(weighted).to_bytes();
            for bit in 0..bytes.len() * 8 {
                let mut blob = bytes.clone();
                blob[bit / 8] ^= 1 << (bit % 8);
                match Tile::from_bytes(&blob) {
                    Ok(tile) => {
                        assert_eq!(tile.to_bytes(), blob, "bit {bit}");
                        let walked: u64 = tile
                            .targets()
                            .map(|t| tile.in_edges(t).count() as u64)
                            .sum();
                        assert_eq!(walked, tile.num_edges(), "bit {bit}");
                    }
                    Err(PartitionError::Corrupt(_)) => {}
                    Err(other) => panic!("bit {bit}: {other}"),
                }
            }
        }
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
    #[cfg(target_pointer_width = "64")]
    fn the_transpose_slot_does_not_grow_the_tile() {
        assert_eq!(std::mem::size_of::<Tile>(), 88);
    }

    #[test]
    fn storage_key_is_stable() {
        assert_eq!(
            Tile::storage_key("uk-2007", 3),
            "uk-2007/tiles/tile-000003.bin"
        );
    }
}
