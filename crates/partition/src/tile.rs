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
//! size). A push superstep reads no tile: it reads the out-edge transpose
//! of the server's tiles ([`crate::PushTranspose`]), which the partitioned
//! graph keeps per server.
//!
//! The edge cache holds tiles in a second, *packed* form ([`Tile::to_packed`],
//! `docs/WIRE.md` §12): per-target degrees as varints and each target's
//! sources as zig-zag gaps, the byte-code layout of WebGraph and Ligra+ over
//! the SPE's already-sorted runs.
//!
//! The varints are [`graphh_compress::varint`]'s, which works in 64-byte
//! AVX-512 lanes where the CPU has them and a word at a time elsewhere. The
//! decoder ([`Tile::from_packed`]) reads the degrees in one run; the gaps in
//! another, as `u32`s straight into the sources array, which a second pass,
//! a prefix sum restarted at each target's first source, turns from gaps
//! into sources. The writer ([`Tile::to_packed`]) sizes its buffer exactly
//! ([`Tile::packed_size`]); both size and write the gaps in one pass over
//! the sources, against the same bitmap of where each target's run begins.

use crate::{PartitionError, Result};
use graphh_compress::varint::{run_starts, unzigzag, varint_len, Lanes, VarintWriter};
use graphh_graph::ids::{TileId, VertexId};

/// Magic prefix of the tile binary format.
const TILE_MAGIC: &[u8; 8] = b"GHTILE01";

/// Bytes before the offsets array: magic, tile id, target range, weighted
/// flag, edge count.
const HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 1 + 8;

/// Magic prefix of the packed tile form.
const PACKED_MAGIC: &[u8; 8] = b"GHPACK01";

/// Bytes before the packed form's varints: magic, tile id, target range,
/// weighted flag.
const PACKED_HEADER_BYTES: usize = 8 + 4 + 4 + 4 + 1;

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

    /// In-memory footprint of the decoded tile in bytes.
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

    /// Size of [`Tile::to_packed`]'s output without producing it: each
    /// varint's width follows from its value's `leading_zeros`.
    pub fn packed_size(&self) -> u64 {
        self.packed_size_in(Lanes::widest())
    }

    fn packed_size_in(&self, lanes: Lanes) -> u64 {
        let degrees: u64 = self
            .offsets
            .windows(2)
            .map(|w| varint_len(w[1] - w[0]))
            .sum();
        let gaps = lanes.zigzag_gaps_len(&self.sources, &self.run_starts());
        let weights = self.weights.as_ref().map_or(0, |w| 4 * w.len() as u64);
        PACKED_HEADER_BYTES as u64
            + varint_len(self.sources.len() as u64)
            + degrees
            + gaps
            + weights
    }

    /// Where each target's sources begin, as the bitmap the gap kernels of
    /// `graphh_compress::varint` take: the sources' zig-zag gaps of
    /// `docs/WIRE.md` §12 are each from the target's previous source, from 0
    /// for its first.
    fn run_starts(&self) -> Vec<u64> {
        run_starts(&self.offsets, self.sources.len())
    }

    /// Pack the tile into `out` (cleared first) in the edge cache's form,
    /// `docs/WIRE.md` §12: the header of [`Tile::to_bytes`] under its own
    /// magic, then the edge count and every target's degree as LEB128
    /// varints, then every target's sources as zig-zag varint gaps from the
    /// previous source of that target (from 0 for its first), then the
    /// weights as raw little-endian `f32`s. Sorted runs make small gaps;
    /// zig-zag keeps unsorted ones encodable.
    pub fn to_packed(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(self.packed_size() as usize, 0);
        self.pack_into(out);
    }

    /// [`Tile::to_packed`] into a buffer already [`Tile::packed_size`] bytes
    /// long — such as the edge cache's own blob, sized before it decides to
    /// pack. The gaps are one pass over the sources
    /// ([`VarintWriter::put_zigzag_gaps`]).
    ///
    /// # Panics
    /// Panics if `out` is not exactly [`Tile::packed_size`] bytes long.
    pub fn pack_into(&self, out: &mut [u8]) {
        self.pack_into_in(out, Lanes::widest());
    }

    fn pack_into_in(&self, out: &mut [u8], lanes: Lanes) {
        let (header, body) = out.split_at_mut(PACKED_HEADER_BYTES);
        header[..8].copy_from_slice(PACKED_MAGIC);
        header[8..12].copy_from_slice(&self.tile_id.to_le_bytes());
        header[12..16].copy_from_slice(&self.target_start.to_le_bytes());
        header[16..20].copy_from_slice(&self.target_end.to_le_bytes());
        header[20] = u8::from(self.is_weighted());
        let mut writer = VarintWriter::new(body);
        writer.put(self.sources.len() as u64);
        for w in self.offsets.windows(2) {
            writer.put(w[1] - w[0]);
        }
        writer.put_zigzag_gaps(lanes, &self.sources, &self.run_starts());
        let written = writer.pos();
        let weights = &mut body[written..];
        let weight_bytes = self.weights.as_ref().map_or(0, |w| 4 * w.len());
        assert_eq!(weights.len(), weight_bytes, "packed tile buffer size");
        if let Some(ws) = &self.weights {
            for (bytes, w) in weights.chunks_exact_mut(4).zip(ws.iter()) {
                bytes.copy_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// Unpack a tile from [`Tile::to_packed`]'s form, straight into the CSR
    /// arrays.
    ///
    /// The blob is outside input, as for [`Tile::from_bytes`]: every varint
    /// takes at least one byte and every weight four, so the target and edge
    /// counts are bounded by the blob's length before anything is reserved
    /// for them; a varint that is not the shortest encoding of its value or
    /// does not fit 64 bits, a degree sum other than the edge count, a source
    /// outside `u32`, and bytes after the weights are all corrupt; the arrays
    /// end in [`Tile::from_csr`]. The form is canonical: a blob that loads is
    /// exactly what `to_packed` writes for the tile it loads as.
    ///
    /// The degrees are one run of varints (`Varints::run`) and the gaps
    /// another (`Varints::run_u32`), each decoded sixteen varints or a
    /// window of eight bytes at a time; the gaps land in the sources array,
    /// and one pass over it adds them up, restarting at each target's first
    /// source (`Lanes::sum_zigzag_gaps`).
    pub fn from_packed(data: &[u8]) -> Result<Self> {
        Self::from_packed_in(data, Lanes::widest())
    }

    fn from_packed_in(data: &[u8], lanes: Lanes) -> Result<Self> {
        let corrupt = |what: String| Err(PartitionError::Corrupt(what));
        let Some((header, body)) = data.split_at_checked(PACKED_HEADER_BYTES) else {
            return corrupt(format!(
                "packed tile truncated: {} bytes cannot hold the \
                 {PACKED_HEADER_BYTES}-byte header",
                data.len()
            ));
        };
        if &header[..8] != PACKED_MAGIC {
            return corrupt("bad packed tile magic".into());
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let (tile_id, target_start, target_end) = (word(8), word(12), word(16));
        if target_end < target_start {
            return corrupt("packed tile target range inverted".into());
        }
        let weighted = match header[20] {
            0 => false,
            1 => true,
            flag => return corrupt(format!("packed tile weighted flag is {flag}, not 0 or 1")),
        };
        let mut varints = lanes.varints(body);
        let bad = |what: &str| PartitionError::Corrupt(format!("packed tile {tile_id}: {what}"));
        let num_edges = varints.read().map_err(bad)?;
        // Each degree and each gap is at least one byte, each weight four.
        let num_targets = u64::from(target_end - target_start);
        let rest = varints.remaining() as u64;
        let least = num_edges
            .checked_mul(if weighted { 5 } else { 1 })
            .and_then(|edge_bytes| edge_bytes.checked_add(num_targets));
        if least.is_none_or(|least| least > rest) {
            return corrupt(format!(
                "packed tile {tile_id}: header claims {num_targets} targets and \
                 {num_edges} edges, more than the {rest} bytes that follow it hold"
            ));
        }
        // Both fit in `rest`, so in `usize`.
        let (num_targets, num_edges) = (num_targets as usize, num_edges as usize);

        let mut offsets = Vec::with_capacity(num_targets + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        varints
            .run(num_targets, |degree| {
                total = total
                    .checked_add(degree)
                    .filter(|&total| total <= num_edges as u64)
                    .ok_or("degrees add up to more than the edge count")?;
                offsets.push(total);
                Ok(())
            })
            .map_err(bad)?;
        if total != num_edges as u64 {
            return Err(bad("degrees do not add up to the edge count"));
        }

        // The gaps, zig-zagged, land in `sources` first and become sources
        // in a second pass; a gap too wide for that (only near the top of
        // the id space) sends the whole run through `Varints::run` instead.
        let gaps_at = varints.clone();
        let mut sources = vec![0; num_edges + 7];
        if varints.run_u32(&mut sources).map_err(bad)? {
            sources.truncate(num_edges);
            if !lanes.sum_zigzag_gaps(&mut sources, &run_starts(&offsets, num_edges)) {
                return Err(bad("a source gap leaves the u32 range"));
            }
        } else {
            varints = gaps_at;
            sources.clear();
            // `offsets[run]` is where the current target's sources end; the
            // degrees add up to `num_edges`, so one lies past every source.
            let (mut run, mut prev) = (0, 0u64);
            varints
                .run(num_edges, |z| {
                    while offsets[run] == sources.len() as u64 {
                        run += 1;
                        prev = 0;
                    }
                    prev = prev.wrapping_add(unzigzag(z) as u64);
                    let source = VertexId::try_from(prev)
                        .map_err(|_| "a source gap leaves the u32 range")?;
                    sources.push(source);
                    Ok(())
                })
                .map_err(bad)?;
        }

        let weights = &body[varints.pos()..];
        let weight_bytes = if weighted { num_edges * 4 } else { 0 };
        if weights.len() != weight_bytes {
            return corrupt(format!(
                "packed tile {tile_id}: {} bytes after the sources, not the {weight_bytes} \
                 bytes of weights",
                weights.len()
            ));
        }
        Self::from_csr(
            tile_id,
            target_start,
            target_end,
            offsets,
            sources,
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
    use graphh_compress::varint::write_varint;

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

    fn packed(tile: &Tile) -> Vec<u8> {
        let mut out = vec![0xAA; 3]; // `to_packed` clears what it is handed
        tile.to_packed(&mut out);
        out
    }

    /// Every shape the packed form must carry: SPE tiles of an RMAT graph
    /// (unweighted, sorted runs) and of a weighted grid, unsorted and
    /// repeated `from_adjacency` runs, the empty tile, and sources at the top
    /// of the id space, whose gaps are the widest there are.
    fn packed_cases() -> Vec<(String, Tile)> {
        use crate::{Spe, SpeConfig};
        use graphh_graph::generators::{GraphGenerator, RmatGenerator};
        use graphh_graph::{Edge, EdgeList, Graph};

        let mut cases = Vec::new();
        let rmat = RmatGenerator::new(9, 8).generate(3);
        let p = Spe::partition(&rmat, &SpeConfig::with_tile_count("rmat", &rmat, 8)).unwrap();
        for tile in p.tiles {
            assert!(!tile.is_weighted());
            cases.push((format!("rmat tile {}", tile.tile_id), tile));
        }
        let side = 12u32;
        let mut edges = EdgeList::new_weighted();
        for v in 0..side * side {
            let weight = v as f32 * 0.375 - 7.0;
            if v % side + 1 < side {
                edges.push(Edge::weighted(v, v + 1, weight));
                edges.push(Edge::weighted(v + 1, v, -weight));
            }
            if v + side < side * side {
                edges.push(Edge::weighted(v, v + side, weight * 2.0));
                edges.push(Edge::weighted(v + side, v, f32::INFINITY));
            }
        }
        let grid = Graph::from_edges(u64::from(side * side), edges).unwrap();
        let p = Spe::partition(&grid, &SpeConfig::with_tile_count("grid", &grid, 5)).unwrap();
        for tile in p.tiles {
            assert!(tile.is_weighted());
            cases.push((format!("weighted grid tile {}", tile.tile_id), tile));
        }
        let unsorted = vec![
            vec![(9u32, 1.0f32), (3, 2.0), (3, -0.0), (400, 4.0), (0, 5.0)],
            vec![],
            vec![(70_000, 0.5), (1, 0.25), (70_000, 0.125)],
        ];
        let top = vec![
            vec![(u32::MAX - 1, 1.5f32), (0, 2.5), (u32::MAX - 1, 3.5)],
            vec![(u32::MAX - 1, f32::INFINITY)],
        ];
        // Runs long enough for 64-byte lanes, every gap width among them:
        // jumps between the ends of the id space, and steps of 2^(7k).
        let wide: Vec<Vec<(u32, f32)>> = (0..3u32)
            .map(|run| {
                (0..40u32 + run * 13)
                    .map(|i| match i % 5 {
                        0 => (u32::MAX - i, 0.5),
                        1 => (i, 1.5),
                        k => (i << (7 * k), 2.5),
                    })
                    .collect()
            })
            .collect();
        for weighted in [false, true] {
            cases.push((
                format!("unsorted, weighted {weighted}"),
                Tile::from_adjacency(7, 1_000, &unsorted, weighted),
            ));
            cases.push((
                format!("top of the id space, weighted {weighted}"),
                Tile::from_adjacency(u32::MAX, u32::MAX - 2, &top, weighted),
            ));
            cases.push((
                format!("every gap width, weighted {weighted}"),
                Tile::from_adjacency(8, 0, &wide, weighted),
            ));
        }
        cases.push(("empty".into(), Tile::from_adjacency(0, 5, &[], false)));
        cases
    }

    #[test]
    fn packed_tiles_roundtrip() {
        for (what, tile) in packed_cases() {
            let blob = packed(&tile);
            let back = Tile::from_packed(&blob).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(back, tile, "{what}");
            assert_eq!(packed(&back), blob, "{what}");
            if what.starts_with("rmat") {
                assert!(blob.len() as u64 * 2 < tile.serialized_size(), "{what}");
            }
        }
    }

    fn is_corrupt_packed(blob: &[u8]) -> bool {
        matches!(Tile::from_packed(blob), Err(PartitionError::Corrupt(_)))
    }

    /// The packed form is canonical and carries no checksum: a cut blob is
    /// corrupt, and a flipped bit is corrupt or loads as exactly the tile
    /// those bytes spell, safe to walk.
    #[test]
    fn a_cut_packed_tile_is_corrupt_and_a_flipped_bit_is_corrupt_or_what_the_bytes_say() {
        for (what, tile) in packed_cases() {
            let blob = packed(&tile);
            for len in 0..blob.len() {
                assert!(is_corrupt_packed(&blob[..len]), "{what}: cut to {len}");
            }
            let mut long = blob.clone();
            long.push(0);
            assert!(is_corrupt_packed(&long), "{what}: a trailing byte");
            for bit in 0..blob.len() * 8 {
                let mut flipped = blob.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match Tile::from_packed(&flipped) {
                    Ok(tile) => {
                        assert_eq!(packed(&tile), flipped, "{what}: bit {bit}");
                        let walked: u64 = tile
                            .targets()
                            .map(|t| tile.in_edges(t).count() as u64)
                            .sum();
                        assert_eq!(walked, tile.num_edges(), "{what}: bit {bit}");
                    }
                    Err(PartitionError::Corrupt(_)) => {}
                    Err(other) => panic!("{what}: bit {bit}: {other}"),
                }
            }
        }
    }

    /// A packed header followed by `varints`, unweighted.
    fn packed_blob(target_end: u32, varints: &[u64]) -> Vec<u8> {
        let mut blob = PACKED_MAGIC.to_vec();
        blob.extend_from_slice(&0u32.to_le_bytes()); // tile id
        blob.extend_from_slice(&0u32.to_le_bytes()); // target_start
        blob.extend_from_slice(&target_end.to_le_bytes());
        blob.push(0);
        for &v in varints {
            write_varint(v, &mut blob);
        }
        blob
    }

    /// Counts are checked against the bytes that follow before they size
    /// anything (the allocation itself is recorded by
    /// `tests/from_bytes_alloc.rs`).
    #[test]
    fn a_packed_header_that_claims_more_than_the_blob_holds_is_corrupt() {
        // One target of degree 1 with source 5: the shape the claims bend.
        assert!(Tile::from_packed(&packed_blob(1, &[1, 1, 10])).is_ok());
        assert!(is_corrupt_packed(&packed_blob(u32::MAX, &[0])));
        assert!(is_corrupt_packed(&packed_blob(4, &[0, 0, 0, 0])));
        for huge in [4u64, 1 << 31, 1 << 61, u64::MAX / 5 + 1, u64::MAX] {
            let blob = packed_blob(1, &[huge, huge, 10]);
            assert!(is_corrupt_packed(&blob), "{huge} edges");
            let mut weighted = blob.clone();
            weighted[20] = 1;
            weighted.extend_from_slice(&[0; 16]);
            assert!(is_corrupt_packed(&weighted), "{huge} weighted edges");
        }
        // Degrees that disagree with the edge count, either way, or overflow.
        assert!(is_corrupt_packed(&packed_blob(2, &[1, 1, 1, 10, 10])));
        assert!(is_corrupt_packed(&packed_blob(2, &[2, 1, 0, 10, 10])));
        assert!(is_corrupt_packed(&packed_blob(
            2,
            &[2, u64::MAX, 3, 10, 10]
        )));
    }

    #[test]
    fn packed_varints_must_be_short_and_fit_64_bits() {
        let good = packed_blob(1, &[1, 1, 10]);
        let head = PACKED_HEADER_BYTES;
        // The edge count 1 as two bytes, then the shortest form again.
        let mut long = good[..head].to_vec();
        long.extend_from_slice(&[0x81, 0x00]);
        long.extend_from_slice(&good[head + 1..]);
        assert!(is_corrupt_packed(&long));
        // The edge count 1 with a bit past 64 set on top: dropping that bit
        // would load the good tile.
        let mut over = good[..head].to_vec();
        over.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        over.extend_from_slice(&good[head + 1..]);
        assert!(is_corrupt_packed(&over));
        // u64::MAX (tenth byte 1) is a varint, but as a gap it is -2^63, far
        // outside the id space.
        let mut widest = good[..head + 2].to_vec();
        write_varint(u64::MAX, &mut widest);
        assert_eq!(widest.len(), head + 2 + 10);
        assert!(is_corrupt_packed(&widest));
        // A source at u32::MAX is in range; one past it is not.
        let gap = |source: i64| ((source << 1) ^ (source >> 63)) as u64;
        let last = Tile::from_packed(&packed_blob(1, &[1, 1, gap(u32::MAX.into())])).unwrap();
        assert_eq!(last.sources(), [u32::MAX]);
        assert!(is_corrupt_packed(&packed_blob(1, &[1, 1, gap(1 << 32)])));
        assert!(is_corrupt_packed(&packed_blob(1, &[1, 1, gap(-1)])));
        // Magic, range and flag as in `from_bytes`.
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(is_corrupt_packed(&bad));
        let mut bad = good.clone();
        bad[20] = 2;
        assert!(is_corrupt_packed(&bad));
        assert!(is_corrupt_packed(&sample_tile(false).to_bytes()));
    }

    /// The decoder `Tile::from_packed` replaced, one byte and one
    /// `Varints::read` at a time, one call per target: the reference the
    /// word-at-a-time decoder must agree with, verdict for verdict and tile
    /// for tile.
    fn from_packed_per_byte(data: &[u8]) -> Result<Tile> {
        let corrupt = |what: String| Err(PartitionError::Corrupt(what));
        let Some((header, body)) = data.split_at_checked(PACKED_HEADER_BYTES) else {
            return corrupt(format!(
                "packed tile truncated: {} bytes cannot hold the \
                 {PACKED_HEADER_BYTES}-byte header",
                data.len()
            ));
        };
        if &header[..8] != PACKED_MAGIC {
            return corrupt("bad packed tile magic".into());
        }
        let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
        let (tile_id, target_start, target_end) = (word(8), word(12), word(16));
        if target_end < target_start {
            return corrupt("packed tile target range inverted".into());
        }
        let weighted = match header[20] {
            0 => false,
            1 => true,
            flag => return corrupt(format!("packed tile weighted flag is {flag}, not 0 or 1")),
        };
        let mut varints = Lanes::WORD.varints(body);
        let bad = |what: &str| PartitionError::Corrupt(format!("packed tile {tile_id}: {what}"));
        let num_edges = varints.read().map_err(bad)?;
        // Each degree and each gap is at least one byte, each weight four.
        let num_targets = u64::from(target_end - target_start);
        let rest = varints.remaining() as u64;
        let least = num_edges
            .checked_mul(if weighted { 5 } else { 1 })
            .and_then(|edge_bytes| edge_bytes.checked_add(num_targets));
        if least.is_none_or(|least| least > rest) {
            return corrupt(format!(
                "packed tile {tile_id}: header claims {num_targets} targets and \
                 {num_edges} edges, more than the {rest} bytes that follow it hold"
            ));
        }
        // Both fit in `rest`, so in `usize`.
        let (num_targets, num_edges) = (num_targets as usize, num_edges as usize);

        let mut offsets = Vec::with_capacity(num_targets + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for _ in 0..num_targets {
            let degree = varints.read().map_err(bad)?;
            total = total
                .checked_add(degree)
                .filter(|&total| total <= num_edges as u64)
                .ok_or_else(|| bad("degrees add up to more than the edge count"))?;
            offsets.push(total);
        }
        if total != num_edges as u64 {
            return Err(bad("degrees do not add up to the edge count"));
        }

        let mut sources = Vec::with_capacity(num_edges);
        for w in offsets.windows(2) {
            let mut prev = 0i64;
            for _ in w[0]..w[1] {
                let z = varints.read().map_err(bad)?;
                let gap = (z >> 1) as i64 ^ -((z & 1) as i64);
                prev = prev
                    .checked_add(gap)
                    .filter(|source| (0..=i64::from(u32::MAX)).contains(source))
                    .ok_or_else(|| bad("a source gap leaves the u32 range"))?;
                sources.push(prev as VertexId);
            }
        }

        let weights = &body[varints.pos()..];
        let weight_bytes = if weighted { num_edges * 4 } else { 0 };
        if weights.len() != weight_bytes {
            return corrupt(format!(
                "packed tile {tile_id}: {} bytes after the sources, not the {weight_bytes} \
                 bytes of weights",
                weights.len()
            ));
        }
        Tile::from_csr(
            tile_id,
            target_start,
            target_end,
            offsets,
            sources,
            weighted.then(|| decode_le(weights, f32::from_le_bytes)),
        )
    }

    /// The writer `Tile::to_packed` replaced, one `Vec::push` a byte: the
    /// reference for its bytes.
    fn to_packed_per_byte(tile: &Tile) -> Vec<u8> {
        let mut out = PACKED_MAGIC.to_vec();
        out.extend_from_slice(&tile.tile_id.to_le_bytes());
        out.extend_from_slice(&tile.target_start.to_le_bytes());
        out.extend_from_slice(&tile.target_end.to_le_bytes());
        out.push(u8::from(tile.is_weighted()));
        write_varint(tile.sources.len() as u64, &mut out);
        for w in tile.offsets.windows(2) {
            write_varint(w[1] - w[0], &mut out);
        }
        for w in tile.offsets.windows(2) {
            let mut prev = 0i64;
            for &source in &tile.sources[w[0] as usize..w[1] as usize] {
                let gap = i64::from(source) - prev;
                prev = i64::from(source);
                write_varint(((gap << 1) ^ (gap >> 63)) as u64, &mut out);
            }
        }
        if let Some(ws) = &tile.weights {
            for &w in ws.iter() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// `Tile::from_packed` in every lane width this CPU runs and the
    /// per-byte reference agree on `blob`: all corrupt, or all the same
    /// tile, bit for bit (a flipped weight may be a NaN, which `==` would
    /// not match).
    fn assert_decoders_agree(blob: &[u8], what: &str) {
        let reference = from_packed_per_byte(blob);
        for lanes in Lanes::all() {
            match (Tile::from_packed_in(blob, lanes), &reference) {
                (Ok(tile), Ok(reference)) => {
                    assert_eq!(tile.to_bytes(), reference.to_bytes(), "{what} in {lanes:?}")
                }
                (Err(PartitionError::Corrupt(_)), Err(PartitionError::Corrupt(_))) => {}
                (got, want) => {
                    panic!("{what} in {lanes:?}: decoded {got:?}, the reference {want:?}")
                }
            }
        }
    }

    /// The packed codec in every lane width this CPU runs against the
    /// per-byte one on every case of the sweeps above — the writer's bytes
    /// and size, and the decoder's verdict on every truncation and every
    /// single-bit flip — and on tiles whose body is shorter than one window.
    #[test]
    fn every_lane_width_agrees_with_the_per_byte_reference_on_every_cut_and_flip() {
        let mut cases = packed_cases();
        for edges in 0..4u32 {
            let list: Vec<_> = (0..edges).map(|s| (s * 70, 1.0)).collect();
            for weighted in [false, true] {
                let tile = Tile::from_adjacency(1, 2, std::slice::from_ref(&list), weighted);
                cases.push((format!("{edges} edges, weighted {weighted}"), tile));
            }
        }
        for (what, tile) in cases {
            let blob = packed(&tile);
            assert_eq!(blob, to_packed_per_byte(&tile), "{what}: bytes");
            assert_eq!(blob.len() as u64, tile.packed_size(), "{what}: size");
            for lanes in Lanes::all() {
                assert_eq!(
                    tile.packed_size_in(lanes),
                    blob.len() as u64,
                    "{what} in {lanes:?}"
                );
                let mut out = vec![0xAA; blob.len()];
                tile.pack_into_in(&mut out, lanes);
                assert_eq!(out, blob, "{what}: bytes in {lanes:?}");
            }
            for len in 0..=blob.len() {
                assert_decoders_agree(&blob[..len], &format!("{what}: cut to {len}"));
            }
            for bit in 0..blob.len() * 8 {
                let mut flipped = blob.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_decoders_agree(&flipped, &format!("{what}: bit {bit}"));
            }
        }
    }

    /// Every varint width, shortest and longest value, as a tile's edge
    /// count, its one target's degree and its first gap, followed by 0 to 7
    /// bytes.
    #[test]
    fn every_lane_width_agrees_on_every_width_as_every_field() {
        let widths = (0..10).flat_map(|w| [1u64 << (7 * w), (1u64 << (7 * w)) - 1]);
        for value in widths.chain([u64::MAX]) {
            for at in 0..3 {
                let mut varints = vec![2, 2, 10, 0];
                varints[at] = value;
                for pad in 0..8 {
                    let mut blob = packed_blob(1, &varints);
                    blob.extend(std::iter::repeat_n(0, pad));
                    assert_decoders_agree(&blob, &format!("{value} as varint {at}, {pad} after"));
                }
            }
        }
    }

    /// Bytes drawn from the values that steer a varint decoder — 0, 1, a
    /// continued 0, a continued 1, all ones — under a packed header.
    #[test]
    fn every_lane_width_agrees_on_random_bodies() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = [0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF];
        for case in 0..20_000 {
            let targets = (next() % 4) as u32;
            let mut blob = packed_blob(targets, &[]);
            blob[20] = (next() % 2) as u8;
            let len = (next() % 24) as usize;
            blob.extend((0..len).map(|_| alphabet[(next() % alphabet.len() as u64) as usize]));
            assert_decoders_agree(&blob, &format!("case {case}: {blob:02x?}"));
        }
    }

    /// The struct keeps its 88 bytes: at 80 and at 104 a loop that builds
    /// and drops partitions left the allocator in another state, which moved
    /// the benchmark's set-up time.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_tile_keeps_its_88_bytes() {
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
