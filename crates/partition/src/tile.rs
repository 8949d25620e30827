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
//! Both directions work a word at a time, in portable Rust. The decoder
//! ([`Tile::from_packed`]) loads eight bytes, gathers their stop bits (high
//! bit clear) into one byte with a multiply, and looks that byte up in a
//! 256-entry table of the varints that end in the window: how many, where
//! each ends, and the two shifts that cut it out. Three shift-and-mask steps
//! pack the window's 7-bit groups side by side, and one mask finds a
//! non-shortest varint anywhere in the bytes taken (a 0 after a continued
//! byte). That is the scalar core of Plaisance, Kurz and Lemire's
//! "Vectorized VByte Decoding" (2015). A varint that does not end inside a
//! full window goes byte by byte. The degrees are decoded in one run; the
//! gaps in another, as `u32`s straight into the sources array (eight slots a
//! window, whatever the window holds), which a second pass turns from gaps
//! into sources target by target. The writer ([`Tile::to_packed`]) sizes
//! its buffer exactly from each value's `leading_zeros`
//! ([`Tile::packed_size`]) and writes each varint as one 8-byte store. The
//! bytes are those of the per-byte codec the tests keep as their reference.

use crate::{PartitionError, Result};
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
        let degrees: u64 = self
            .offsets
            .windows(2)
            .map(|w| varint_len(w[1] - w[0]))
            .sum();
        let mut gaps = 0;
        self.for_each_gap(|z| gaps += varint_len(z));
        let weights = self.weights.as_ref().map_or(0, |w| 4 * w.len() as u64);
        PACKED_HEADER_BYTES as u64
            + varint_len(self.sources.len() as u64)
            + degrees
            + gaps
            + weights
    }

    /// Every target's sources, target by target, as the zig-zag gaps of
    /// `docs/WIRE.md` §12: each from the target's previous source, from 0
    /// for its first.
    #[inline]
    fn for_each_gap(&self, mut each: impl FnMut(u64)) {
        for w in self.offsets.windows(2) {
            let mut prev = 0i64;
            for &source in &self.sources[w[0] as usize..w[1] as usize] {
                let gap = i64::from(source) - prev;
                prev = i64::from(source);
                each(((gap << 1) ^ (gap >> 63)) as u64);
            }
        }
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
    /// pack. Each varint with eight bytes of room after it is one 8-byte
    /// store.
    ///
    /// # Panics
    /// Panics if `out` is not exactly [`Tile::packed_size`] bytes long.
    pub fn pack_into(&self, out: &mut [u8]) {
        let (header, body) = out.split_at_mut(PACKED_HEADER_BYTES);
        header[..8].copy_from_slice(PACKED_MAGIC);
        header[8..12].copy_from_slice(&self.tile_id.to_le_bytes());
        header[12..16].copy_from_slice(&self.target_start.to_le_bytes());
        header[16..20].copy_from_slice(&self.target_end.to_le_bytes());
        header[20] = u8::from(self.is_weighted());
        let mut writer = VarintWriter { out: body, pos: 0 };
        writer.put(self.sources.len() as u64);
        for w in self.offsets.windows(2) {
            writer.put(w[1] - w[0]);
        }
        self.for_each_gap(|z| writer.put(z));
        let VarintWriter { out: body, pos } = writer;
        let weights = &mut body[pos..];
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
    /// another (`Varints::run_u32`), each decoded a window of eight bytes
    /// at a time; the gaps land in the sources array, and one pass over it
    /// target by target adds them up.
    pub fn from_packed(data: &[u8]) -> Result<Self> {
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
        let mut varints = Varints { data: body, pos: 0 };
        let bad = |what: &str| PartitionError::Corrupt(format!("packed tile {tile_id}: {what}"));
        let num_edges = varints.next().map_err(bad)?;
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
        let gaps_at = varints.pos;
        let mut sources = vec![0; num_edges + 7];
        if varints.run_u32(&mut sources).map_err(bad)? {
            sources.truncate(num_edges);
            let mut high = 0;
            for w in offsets.windows(2) {
                let mut prev = 0u64;
                for slot in &mut sources[w[0] as usize..w[1] as usize] {
                    let z = u64::from(*slot);
                    // Two's complement: the sum is in `0..=u32::MAX` exactly
                    // when the signed sum is.
                    prev = prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
                    high |= prev;
                    *slot = prev as VertexId;
                }
            }
            if high > u64::from(u32::MAX) {
                return Err(bad("a source gap leaves the u32 range"));
            }
        } else {
            varints.pos = gaps_at;
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
                    prev = prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
                    let source = VertexId::try_from(prev)
                        .map_err(|_| "a source gap leaves the u32 range")?;
                    sources.push(source);
                    Ok(())
                })
                .map_err(bad)?;
        }

        let weights = &body[varints.pos..];
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

/// Bytes an LEB128 varint takes, by its value's `leading_zeros`: one per
/// seven significant bits, at least one.
const VARINT_LEN: [u8; 65] = {
    let mut table = [1; 65];
    let mut zeros = 0;
    while zeros < 64 {
        table[zeros] = (64 - zeros as u8).div_ceil(7);
        zeros += 1;
    }
    table
};

#[inline]
fn varint_len(value: u64) -> u64 {
    u64::from(VARINT_LEN[value.leading_zeros() as usize])
}

/// Append `value` as an LEB128 varint: seven bits a byte, low bits first,
/// the high bit set on every byte but the last.
#[cfg(test)]
fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// The high bit of every byte of a word: LEB128's continuation bits.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
/// The seven payload bits of every byte of a word.
const LOW_BITS: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// Gathers the high bits of a word's eight bytes, shifted down to bit 0 of
/// each, into its top byte: byte `i`'s lands on bit `56 + i`.
const BYTE_GATHER: u64 = 0x0102_0408_1020_4080;

/// The LEB128 varints that end in an 8-byte window, indexed by the window's
/// stop bits: bit `i` of the index is set when byte `i` has its high bit
/// clear, so the `k`-th set bit ends the `k`-th varint and the next begins
/// after it.
#[derive(Clone, Copy)]
struct Window {
    /// Varints that end in the window.
    count: u8,
    /// How many varints, from the first, take four bytes or fewer, so hold
    /// less than 2²⁸.
    narrow: u8,
    /// Per varint: one past its last byte.
    end: [u8; 8],
    /// Per varint: the shift left that [`Window::cut`] starts with,
    /// `64 − 7·end`, which drops the groups after it.
    left: [u8; 8],
    /// Per varint: the shift right that follows, `64 − 7·width`, which drops
    /// the groups before it. A slot past `count` shifts by 63, leaving 0.
    right: [u8; 8],
}

impl Window {
    /// The `k`-th varint of the window whose [`compact`]ed groups are
    /// `groups`.
    #[inline]
    fn cut(&self, groups: u64, k: usize) -> u64 {
        (groups << self.left[k]) >> self.right[k]
    }
}

const WINDOWS: [Window; 256] = {
    let mut table = [Window {
        count: 0,
        narrow: 0,
        end: [0; 8],
        left: [0; 8],
        right: [63; 8],
    }; 256];
    let mut stops = 0;
    while stops < 256 {
        let window = &mut table[stops];
        let mut start = 0;
        let mut byte = 0;
        while byte < 8 {
            if stops >> byte & 1 == 1 {
                let k = window.count as usize;
                let (end, width) = (byte + 1, byte + 1 - start);
                window.end[k] = end;
                window.left[k] = 64 - 7 * end;
                window.right[k] = 64 - 7 * width;
                if window.narrow as usize == k && width <= 4 {
                    window.narrow += 1;
                }
                window.count += 1;
                start = end;
            }
            byte += 1;
        }
        stops += 1;
    }
    table
};

/// The window's eight 7-bit groups, high bits dropped, packed side by side
/// into the low 56 bits: pairs, then quads, then all eight.
#[inline]
fn compact(word: u64) -> u64 {
    let x = word & LOW_BITS;
    let x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
    (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// [`compact`] run backwards: a value below 2⁵⁶ spread over eight 7-bit
/// groups, one a byte, high bits clear.
#[inline]
fn spread(value: u64) -> u64 {
    let x = (value & 0x0000_0000_0FFF_FFFF) | ((value << 4) & 0x0FFF_FFFF_0000_0000);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x << 2) & 0x3FFF_0000_3FFF_0000);
    (x & 0x007F_007F_007F_007F) | ((x << 1) & 0x7F00_7F00_7F00_7F00)
}

/// By a varint's width in bytes up to eight: the high bit of every byte but
/// its last.
const CONTINUED: [u64; 9] = {
    let mut table = [0; 9];
    let mut width = 2;
    while width < 9 {
        table[width] = HIGH_BITS >> (72 - 8 * width);
        width += 1;
    }
    table
};

/// Writes varints into a buffer already sized for them.
struct VarintWriter<'a> {
    out: &'a mut [u8],
    pos: usize,
}

impl VarintWriter<'_> {
    /// Write `value` as an LEB128 varint: with eight bytes of room, one
    /// 8-byte store whose bytes past the varint the next write overwrites.
    #[inline]
    fn put(&mut self, value: u64) {
        let width = varint_len(value) as usize;
        match self.out.get_mut(self.pos..self.pos + 8) {
            Some(window) if width <= 8 => {
                window.copy_from_slice(&(spread(value) | CONTINUED[width]).to_le_bytes());
            }
            _ => {
                let mut value = value;
                let (last, continued) = self.out[self.pos..self.pos + width]
                    .split_last_mut()
                    .expect("a varint takes a byte");
                for byte in continued {
                    *byte = value as u8 | 0x80;
                    value >>= 7;
                }
                *last = value as u8;
            }
        }
        self.pos += width;
    }
}

/// A cursor over the packed form's varints.
struct Varints<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Varints<'_> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next varint. Only the shortest encoding of a value that fits 64
    /// bits is accepted: no final byte of 0 after the first, and a tenth
    /// byte may only be 1.
    #[inline]
    fn next(&mut self) -> std::result::Result<u64, &'static str> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err("varint truncated");
            };
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err("varint overflows 64 bits");
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                if byte == 0 && shift > 0 {
                    return Err("varint not in its shortest form");
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// The varints that end in the eight bytes at the cursor, at most
    /// `left` of them, with the cursor moved past them: their 7-bit groups
    /// side by side ([`compact`]), the window's shape ([`WINDOWS`], whose
    /// [`Window::cut`] takes each out), and how many. `None`, the cursor
    /// unmoved, when fewer than eight bytes remain or none of them ends a
    /// varint.
    ///
    /// A varint that ends in the window has at most eight bytes, so it fits
    /// 64 bits; it is in its shortest form unless its last byte is 0 after a
    /// continued byte, which one mask checks for all of them.
    #[inline]
    fn window(
        &mut self,
        left: usize,
    ) -> std::result::Result<Option<(u64, &'static Window, usize)>, &'static str> {
        let Some(bytes) = self.data.get(self.pos..self.pos + 8) else {
            return Ok(None);
        };
        let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let stops = !word & HIGH_BITS;
        let shape = &WINDOWS[((stops >> 7).wrapping_mul(BYTE_GATHER) >> 56) as usize];
        let count = usize::from(shape.count).min(left);
        if count == 0 {
            return Ok(None);
        }
        let end = shape.end[count - 1];
        let taken = u64::MAX >> (64 - 8 * u32::from(end));
        // High bit of byte `i` set when byte `i` is 0 (exact: no byte's sum
        // carries into the next), and when byte `i - 1` continues.
        let zero = !(((word & LOW_BITS) + LOW_BITS) | word) & HIGH_BITS;
        if zero & (word & HIGH_BITS) << 8 & taken != 0 {
            return Err("varint not in its shortest form");
        }
        self.pos += usize::from(end);
        Ok(Some((compact(word), shape, count)))
    }

    /// The next `n` varints, handed to `each` in order, under the rules of
    /// [`Varints::next`]: a window at a time ([`Varints::window`]), and a
    /// varint that does not end in one (nine or ten bytes, or within eight
    /// bytes of the end) through [`Varints::next`].
    #[inline]
    fn run(
        &mut self,
        n: usize,
        mut each: impl FnMut(u64) -> std::result::Result<(), &'static str>,
    ) -> std::result::Result<(), &'static str> {
        let mut left = n;
        while left > 0 {
            let Some((groups, shape, count)) = self.window(left)? else {
                each(self.next()?)?;
                left -= 1;
                continue;
            };
            for k in 0..count {
                each(shape.cut(groups, k))?;
            }
            left -= count;
        }
        Ok(())
    }

    /// [`Varints::run`] into `out`, as `u32`s: the next `out.len() - 7`
    /// varints, the seven slots past them scratch. A window whose varints
    /// are all four bytes or narrower fills eight slots unconditionally and
    /// keeps the first `count`. `Ok(false)`, the cursor somewhere in the
    /// run, when a varint does not fit `u32`.
    #[inline]
    fn run_u32(&mut self, out: &mut [u32]) -> std::result::Result<bool, &'static str> {
        let n = out.len() - 7;
        let mut i = 0;
        while i < n {
            let Some((groups, shape, count)) = self.window(n - i)? else {
                let Ok(value) = u32::try_from(self.next()?) else {
                    return Ok(false);
                };
                out[i] = value;
                i += 1;
                continue;
            };
            let slots: &mut [u32; 8] = (&mut out[i..i + 8]).try_into().expect("8 slots");
            if count <= usize::from(shape.narrow) {
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = shape.cut(groups, k) as u32;
                }
            } else {
                for (k, slot) in slots.iter_mut().enumerate().take(count) {
                    let Ok(value) = u32::try_from(shape.cut(groups, k)) else {
                        return Ok(false);
                    };
                    *slot = value;
                }
            }
            i += count;
        }
        Ok(true)
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
        for weighted in [false, true] {
            cases.push((
                format!("unsorted, weighted {weighted}"),
                Tile::from_adjacency(7, 1_000, &unsorted, weighted),
            ));
            cases.push((
                format!("top of the id space, weighted {weighted}"),
                Tile::from_adjacency(u32::MAX, u32::MAX - 2, &top, weighted),
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
    /// `Varints::next` at a time, one call per target: the reference the
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
        let mut varints = Varints { data: body, pos: 0 };
        let bad = |what: &str| PartitionError::Corrupt(format!("packed tile {tile_id}: {what}"));
        let num_edges = varints.next().map_err(bad)?;
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
            let degree = varints.next().map_err(bad)?;
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
                let z = varints.next().map_err(bad)?;
                let gap = (z >> 1) as i64 ^ -((z & 1) as i64);
                prev = prev
                    .checked_add(gap)
                    .filter(|source| (0..=i64::from(u32::MAX)).contains(source))
                    .ok_or_else(|| bad("a source gap leaves the u32 range"))?;
                sources.push(prev as VertexId);
            }
        }

        let weights = &body[varints.pos..];
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

    /// `Tile::from_packed` and the per-byte reference agree on `blob`: both
    /// corrupt, or both the same tile, bit for bit (a flipped weight may be
    /// a NaN, which `==` would not match).
    fn assert_decoders_agree(blob: &[u8], what: &str) {
        match (Tile::from_packed(blob), from_packed_per_byte(blob)) {
            (Ok(tile), Ok(reference)) => {
                assert_eq!(tile.to_bytes(), reference.to_bytes(), "{what}")
            }
            (Err(PartitionError::Corrupt(_)), Err(PartitionError::Corrupt(_))) => {}
            (got, want) => panic!("{what}: decoded {got:?}, the reference {want:?}"),
        }
    }

    /// `Varints::run` over `n` varints and `n` calls of `Varints::next` agree
    /// on `bytes`: both fail, or both yield the same values and stop at the
    /// same byte. `Varints::run_u32` agrees too where every value fits
    /// `u32`, gives up (`Ok(false)`) where one does not, and never succeeds
    /// where the reference fails.
    fn assert_run_agrees(bytes: &[u8], n: usize, what: &str) {
        let mut by_word = Varints {
            data: bytes,
            pos: 0,
        };
        let mut got = Vec::new();
        let verdict = by_word.run(n, |v| {
            got.push(v);
            Ok(())
        });
        let mut by_u32 = Varints {
            data: bytes,
            pos: 0,
        };
        let mut slots = vec![0xDEAD_BEEF; n + 7];
        let verdict_u32 = by_u32.run_u32(&mut slots);
        let mut by_byte = Varints {
            data: bytes,
            pos: 0,
        };
        let want: std::result::Result<Vec<u64>, _> = (0..n).map(|_| by_byte.next()).collect();
        match want {
            Ok(want) => {
                assert_eq!(verdict, Ok(()), "{what}");
                assert_eq!(got, want, "{what}");
                assert_eq!(by_word.pos, by_byte.pos, "{what}");
                if want.iter().all(|&v| v <= u64::from(u32::MAX)) {
                    assert_eq!(verdict_u32, Ok(true), "{what}: as u32");
                    let slots: Vec<u64> = slots[..n].iter().map(|&v| v.into()).collect();
                    assert_eq!(slots, want, "{what}: as u32");
                    assert_eq!(by_u32.pos, by_byte.pos, "{what}: as u32");
                } else {
                    assert_eq!(verdict_u32, Ok(false), "{what}: as u32");
                }
            }
            Err(_) => {
                assert!(verdict.is_err(), "{what}: {got:?} from {bytes:02x?}");
                assert_ne!(verdict_u32, Ok(true), "{what}: as u32");
            }
        }
    }

    /// The smallest and the largest value of each varint width.
    fn widths() -> impl Iterator<Item = (usize, [u64; 2])> {
        (1..=10usize).map(|width| {
            let low = if width == 1 {
                0
            } else {
                1u64 << (7 * (width - 1))
            };
            let high = if width == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * width)) - 1
            };
            (width, [low, high])
        })
    }

    /// The word-at-a-time decoder against the per-byte one on every case of
    /// the sweeps above — every truncation, every single-bit flip — and on
    /// tiles whose body is shorter than one window.
    #[test]
    fn the_word_decoder_agrees_with_the_per_byte_reference_on_every_cut_and_flip() {
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

    /// Every varint width, shortest and longest value, at every offset
    /// modulo the window, followed by short varints or by the end of the
    /// bytes; its non-shortest twin (a last byte of 0) and a tenth byte
    /// past 64 bits in the same places.
    #[test]
    fn the_word_decoder_agrees_on_every_width_at_every_offset() {
        for (width, values) in widths() {
            for value in values {
                let mut varint = Vec::new();
                write_varint(value, &mut varint);
                assert_eq!(varint.len(), width);
                let mut long = varint.clone();
                *long.last_mut().unwrap() |= 0x80;
                long.push(0);
                let mut over = vec![0xFF; 9];
                over.push(2);
                for offset in 0..8 {
                    for tail in [0, 1, 3, 9] {
                        for (kind, body) in [("varint", &varint), ("long", &long), ("over", &over)]
                        {
                            let mut bytes = vec![0x05; offset];
                            bytes.extend_from_slice(body);
                            bytes.extend(std::iter::repeat_n(0x7F, tail));
                            let n = offset + 1 + tail;
                            let what = format!("{kind} {value} at {offset}, {tail} after");
                            assert_run_agrees(&bytes, n, &what);
                            assert_run_agrees(&bytes, n + 1, &format!("{what}, one too many"));
                        }
                    }
                }
                // As a tile's edge count, its one target's degree and its
                // first gap, a width at a time.
                for at in 0..3 {
                    let mut varints = vec![2, 2, 10, 0];
                    varints[at] = value;
                    for pad in 0..8 {
                        let mut blob = packed_blob(1, &varints);
                        blob.extend(std::iter::repeat_n(0, pad));
                        assert_decoders_agree(
                            &blob,
                            &format!("{value} as varint {at}, {pad} after"),
                        );
                    }
                }
            }
        }
    }

    /// A window whose eight bytes all continue holds no varint end: the
    /// varint goes through `Varints::next`, which finishes it at nine or ten
    /// bytes, or finds it truncated or too wide.
    #[test]
    fn a_window_of_continued_bytes_falls_back_to_the_per_byte_decoder() {
        for tail in [
            &[][..],
            &[0x01],
            &[0x80],
            &[0x80, 0x01],
            &[0x80, 0x02],
            &[0x00],
            &[0x7F, 0x05],
        ] {
            let mut bytes = vec![0x80; 8];
            bytes.extend_from_slice(tail);
            for n in 1..=3 {
                assert_run_agrees(
                    &bytes,
                    n,
                    &format!("8 continued, then {tail:02x?}, {n} varints"),
                );
            }
        }
        let mut run_of_widest = Vec::new();
        for _ in 0..5 {
            write_varint(u64::MAX, &mut run_of_widest);
        }
        assert_run_agrees(&run_of_widest, 5, "five ten-byte varints");
    }

    /// Bytes drawn from the values that steer a varint decoder — 0, 1, a
    /// continued 0, a continued 1, all ones — under a packed header.
    #[test]
    fn the_word_decoder_agrees_on_random_bodies() {
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
            let n = (next() % 12) as usize;
            assert_run_agrees(
                &blob[PACKED_HEADER_BYTES..],
                n,
                &format!("case {case}, {n} varints"),
            );
        }
    }

    /// `VarintWriter` writes what `write_varint` appends, for every width at
    /// every offset, whether or not eight bytes of room follow.
    #[test]
    fn the_word_writer_writes_the_per_byte_bytes() {
        for (width, values) in widths() {
            for value in values {
                for offset in 0..8 {
                    for room in [0, 1, 7, 8] {
                        let mut want = vec![0x05; offset];
                        write_varint(value, &mut want);
                        want.extend(std::iter::repeat_n(0, room));
                        let mut out = vec![0xEE; offset + width + room];
                        out[..offset].fill(0x05);
                        out[offset + width..].fill(0);
                        let mut writer = VarintWriter {
                            out: &mut out,
                            pos: offset,
                        };
                        writer.put(value);
                        assert_eq!(writer.pos, offset + width);
                        let pos = writer.pos;
                        writer.out[pos..].fill(0);
                        assert_eq!(out, want, "{value} at {offset}, {room} bytes of room");
                        assert_eq!(varint_len(value), width as u64);
                    }
                }
            }
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
