//! Broadcast message encodings and the simulated broadcast channel (paper §IV-C).
//!
//! After a GraphH worker finishes a tile it broadcasts the *updated* vertex values of
//! that tile's target range to all other servers. The paper considers three ways to
//! encode such a message:
//!
//! * **dense** — one value slot per vertex in the tile's target range plus a bitmap of
//!   which slots actually changed; cheap when most vertices changed,
//! * **sparse** — explicit `(vertex id, value)` pairs; cheap when few changed,
//! * **hybrid** — per message, pick sparse when the *unchanged* fraction exceeds a
//!   threshold (0.8 in the paper), dense otherwise.
//!
//! Messages can additionally be compressed (snappy by default). The
//! [`MessageCodec`] encodes for real and meters the codec time into
//! [`ServerMetrics`]; both executors (the sequential reference loop and the
//! threaded runtime's channel plane) push every broadcast through it, so
//! Figure 8's traffic series are measured, not estimated.

use crate::metrics::ServerMetrics;
use graphh_compress::{Codec, CompressorScratch};
use graphh_graph::ids::VertexId;

/// How a particular message ended up encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastEncoding {
    /// Dense value array + update bitmap.
    Dense,
    /// Explicit (id, value) pairs.
    Sparse,
}

/// The sender-side policy for choosing an encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommunicationMode {
    /// Always dense.
    Dense,
    /// Always sparse.
    Sparse,
    /// Sparse when the unchanged fraction of the tile exceeds `sparsity_threshold`
    /// (the paper uses 0.8), dense otherwise.
    Hybrid {
        /// Unchanged-fraction threshold above which sparse encoding is used.
        sparsity_threshold: f64,
    },
}

impl Default for CommunicationMode {
    fn default() -> Self {
        CommunicationMode::Hybrid {
            sparsity_threshold: 0.8,
        }
    }
}

/// The validated header of a decoded broadcast message, returned by the
/// streaming [`BroadcastMessage::decode_each`] so receivers can bound the
/// advertised range against the graph without materializing the updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastHeader {
    /// How the message body was encoded.
    pub encoding: BroadcastEncoding,
    /// First vertex of the advertised target range.
    pub range_start: VertexId,
    /// One past the last vertex of the advertised target range.
    pub range_end: VertexId,
    /// Number of updates the message carried (already verified against the
    /// body).
    pub count: u32,
}

/// A broadcast payload: updated values for vertices inside `[range_start, range_end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastMessage {
    /// First vertex of the tile's target range.
    pub range_start: VertexId,
    /// One past the last vertex of the tile's target range.
    pub range_end: VertexId,
    /// Updated `(vertex, value)` pairs; vertex ids must lie inside the range and be
    /// strictly increasing.
    pub updates: Vec<(VertexId, f64)>,
}

impl BroadcastMessage {
    /// Create a message, checking the updates are sorted and inside the range.
    pub fn new(range_start: VertexId, range_end: VertexId, updates: Vec<(VertexId, f64)>) -> Self {
        debug_assert!(range_start <= range_end);
        debug_assert!(
            updates.windows(2).all(|w| w[0].0 < w[1].0),
            "updates must be sorted"
        );
        debug_assert!(updates
            .iter()
            .all(|&(v, _)| v >= range_start && v < range_end));
        Self {
            range_start,
            range_end,
            updates,
        }
    }

    /// Number of vertices in the tile's target range.
    pub fn range_len(&self) -> u32 {
        self.range_end - self.range_start
    }

    /// Fraction of the range that did *not* change (the paper's "sparsity ratio").
    pub fn sparsity_ratio(&self) -> f64 {
        let n = self.range_len();
        if n == 0 {
            return 1.0;
        }
        1.0 - self.updates.len() as f64 / f64::from(n)
    }

    /// Pick the encoding `mode` prescribes for this message.
    pub fn choose_encoding(&self, mode: CommunicationMode) -> BroadcastEncoding {
        match mode {
            CommunicationMode::Dense => BroadcastEncoding::Dense,
            CommunicationMode::Sparse => BroadcastEncoding::Sparse,
            CommunicationMode::Hybrid { sparsity_threshold } => {
                if self.sparsity_ratio() > sparsity_threshold {
                    BroadcastEncoding::Sparse
                } else {
                    BroadcastEncoding::Dense
                }
            }
        }
    }

    /// Encode with an explicit encoding (header: tag, range, count).
    pub fn encode(&self, encoding: BroadcastEncoding) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(encoding, &mut out);
        out
    }

    /// [`BroadcastMessage::encode`] into a caller-owned buffer, byte-identical
    /// to the allocating API: `out` is cleared, [`Self::encoded_size`] is
    /// reserved up front, and the dense bitmap + value array are written
    /// directly into `out` — no intermediate bitmap or value vector exists.
    /// With a reused `out` a steady-state encode performs zero heap
    /// allocation.
    ///
    /// ```
    /// use graphh_cluster::{BroadcastEncoding, BroadcastMessage};
    ///
    /// let m = BroadcastMessage::new(0, 16, vec![(3, 1.5), (9, -2.0)]);
    /// let mut wire = Vec::new();
    /// for encoding in [BroadcastEncoding::Dense, BroadcastEncoding::Sparse] {
    ///     m.encode_into(encoding, &mut wire); // reuses `wire`'s allocation
    ///     assert_eq!(wire, m.encode(encoding));
    ///     assert_eq!(wire.len() as u64, m.encoded_size(encoding));
    /// }
    /// ```
    pub fn encode_into(&self, encoding: BroadcastEncoding, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_size(encoding) as usize);
        out.push(match encoding {
            BroadcastEncoding::Dense => 0u8,
            BroadcastEncoding::Sparse => 1u8,
        });
        out.extend_from_slice(&self.range_start.to_le_bytes());
        out.extend_from_slice(&self.range_end.to_le_bytes());
        out.extend_from_slice(&(self.updates.len() as u32).to_le_bytes());
        match encoding {
            BroadcastEncoding::Dense => {
                let n = self.range_len() as usize;
                let bitmap_at = out.len();
                let values_at = bitmap_at + n.div_ceil(8);
                // Zero-fill the bitmap + value region in place (within the
                // reserved capacity), then patch the updated slots.
                out.resize(values_at + n * 8, 0);
                for &(v, val) in &self.updates {
                    let i = (v - self.range_start) as usize;
                    out[bitmap_at + i / 8] |= 1 << (i % 8);
                    out[values_at + i * 8..values_at + i * 8 + 8]
                        .copy_from_slice(&val.to_le_bytes());
                }
            }
            BroadcastEncoding::Sparse => {
                for &(v, val) in &self.updates {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&val.to_le_bytes());
                }
            }
        }
    }

    /// Decode a message previously produced by [`BroadcastMessage::encode`].
    pub fn decode(data: &[u8]) -> Result<Self, String> {
        let mut updates = Vec::new();
        let header = Self::decode_each(data, |v, val| updates.push((v, val)))?;
        Ok(Self {
            range_start: header.range_start,
            range_end: header.range_end,
            updates,
        })
    }

    /// Streaming decode: validate the wire bytes exactly as
    /// [`BroadcastMessage::decode`] does (same error cases, same messages)
    /// and hand each `(vertex, value)` update to `visit` in id order, without
    /// materializing a `Vec<(VertexId, f64)>`. The dense path bit-scans the
    /// bitmap a `u64` word (64 slots) at a time, skipping all-zero words
    /// outright — on a sparse frontier that is most of the message — and
    /// walks set bits with `trailing_zeros`; remaining bytes past the last
    /// full word go through the same scan a byte at a time.
    ///
    /// On `Err`, `visit` may already have been called for a valid prefix of
    /// the updates; callers accumulating into a shared buffer must discard it
    /// (the engine aborts the run on any corrupt broadcast).
    ///
    /// ```
    /// use graphh_cluster::{BroadcastEncoding, BroadcastMessage};
    ///
    /// let m = BroadcastMessage::new(10, 20, vec![(11, 0.5), (19, 2.5)]);
    /// let wire = m.encode(BroadcastEncoding::Dense);
    /// let mut seen = Vec::new();
    /// let header = BroadcastMessage::decode_each(&wire, |v, val| seen.push((v, val))).unwrap();
    /// assert_eq!(seen, m.updates);
    /// assert_eq!((header.range_start, header.range_end, header.count), (10, 20, 2));
    /// ```
    pub fn decode_each(
        data: &[u8],
        mut visit: impl FnMut(VertexId, f64),
    ) -> Result<BroadcastHeader, String> {
        if data.len() < 13 {
            return Err("broadcast message too short".into());
        }
        let tag = data[0];
        let range_start = u32::from_le_bytes(data[1..5].try_into().unwrap());
        let range_end = u32::from_le_bytes(data[5..9].try_into().unwrap());
        let count = u32::from_le_bytes(data[9..13].try_into().unwrap()) as usize;
        if range_end < range_start {
            return Err("inverted range".into());
        }
        if count as u64 > u64::from(range_end - range_start) {
            return Err(format!(
                "update count {count} exceeds range length {}",
                range_end - range_start
            ));
        }
        let body = &data[13..];
        let encoding = match tag {
            0 => {
                let n = (range_end - range_start) as usize;
                let bitmap_len = n.div_ceil(8);
                if body.len() != bitmap_len + n * 8 {
                    return Err("dense body length mismatch".into());
                }
                let (bitmap, values) = body.split_at(bitmap_len);
                let mut visited = 0usize;
                let mut words = bitmap.chunks_exact(8);
                for (word_i, word) in words.by_ref().enumerate() {
                    let mut bits = u64::from_le_bytes(word.try_into().unwrap());
                    if bits == 0 {
                        // All 64 slots unchanged: skip the whole word.
                        continue;
                    }
                    let base = word_i * 64;
                    if n - base < 64 {
                        // Padding bits past `n` in the final word are ignored,
                        // exactly as a bit-by-bit loop never tested them.
                        bits &= (1u64 << (n - base)) - 1;
                    }
                    while bits != 0 {
                        let i = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let val = f64::from_le_bytes(values[i * 8..i * 8 + 8].try_into().unwrap());
                        visit(range_start + i as u32, val);
                        visited += 1;
                    }
                }
                let tail_base = (bitmap_len / 8) * 64;
                for (byte_i, &byte) in words.remainder().iter().enumerate() {
                    if byte == 0 {
                        continue;
                    }
                    let base = tail_base + byte_i * 8;
                    let mut bits = byte;
                    if n - base < 8 {
                        bits &= (1u8 << (n - base)) - 1;
                    }
                    while bits != 0 {
                        let i = base + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let val = f64::from_le_bytes(values[i * 8..i * 8 + 8].try_into().unwrap());
                        visit(range_start + i as u32, val);
                        visited += 1;
                    }
                }
                if visited != count {
                    return Err("dense bitmap count mismatch".into());
                }
                BroadcastEncoding::Dense
            }
            1 => {
                if body.len() != count * 12 {
                    return Err("sparse body length mismatch".into());
                }
                // Corrupt or malicious wire bytes must never reach
                // `apply_updates` (which indexes the replica array by vertex
                // id): ids must lie inside the advertised range and be
                // strictly increasing, exactly as `BroadcastMessage::new`
                // guarantees on the sender side.
                let mut last: Option<VertexId> = None;
                for chunk in body.chunks_exact(12) {
                    let v = u32::from_le_bytes(chunk[..4].try_into().unwrap());
                    let val = f64::from_le_bytes(chunk[4..].try_into().unwrap());
                    if v < range_start || v >= range_end {
                        return Err(format!(
                            "sparse vertex id {v} outside range [{range_start}, {range_end})"
                        ));
                    }
                    if let Some(prev) = last {
                        if v <= prev {
                            return Err(format!(
                                "sparse vertex ids not strictly increasing ({prev} then {v})"
                            ));
                        }
                    }
                    last = Some(v);
                    visit(v, val);
                }
                BroadcastEncoding::Sparse
            }
            other => return Err(format!("unknown encoding tag {other}")),
        };
        Ok(BroadcastHeader {
            encoding,
            range_start,
            range_end,
            count: count as u32,
        })
    }

    /// Size in bytes of the encoded message, without materialising it.
    pub fn encoded_size(&self, encoding: BroadcastEncoding) -> u64 {
        let header = 13u64;
        match encoding {
            BroadcastEncoding::Dense => {
                let n = u64::from(self.range_len());
                header + n.div_ceil(8) + n * 8
            }
            BroadcastEncoding::Sparse => header + self.updates.len() as u64 * 12,
        }
    }
}

/// The per-message wire path: encoding choice + optional compression, with the
/// codec time charged to the participating servers' metrics.
///
/// This is the piece both broadcast transports share: the sequential
/// reference executor runs it inline, and the threaded runtime
/// (`graphh-runtime`) runs it on both ends of a real channel, so Figure 8
/// traffic is metered per real message either way.
#[derive(Debug, Clone, Copy)]
pub struct MessageCodec {
    mode: CommunicationMode,
    compressor: Option<Codec>,
}

impl MessageCodec {
    /// A codec with the given encoding policy and message compressor.
    pub fn new(mode: CommunicationMode, compressor: Option<Codec>) -> Self {
        Self { mode, compressor }
    }

    /// The paper's default: hybrid encoding, snappy compression.
    pub fn paper_default() -> Self {
        Self::new(CommunicationMode::default(), Some(Codec::Snappy))
    }

    /// Encoding policy.
    pub fn mode(&self) -> CommunicationMode {
        self.mode
    }

    /// Message compressor (`None` and `Some(Raw)` both mean uncompressed).
    pub fn compressor(&self) -> Option<Codec> {
        self.compressor
    }

    /// Seconds of codec time a server is charged for pushing `bytes` through the
    /// compressor (the simulation prices both directions at the codec's
    /// decompression throughput).
    pub fn codec_seconds(&self, bytes: usize) -> f64 {
        match self.compressor {
            None | Some(Codec::Raw) => 0.0,
            Some(codec) => bytes as f64 / codec.decompress_throughput(),
        }
    }

    /// Encode `message` for the wire, charging compression time to `sender`.
    pub fn encode(
        &self,
        message: &BroadcastMessage,
        sender: &mut ServerMetrics,
    ) -> (Vec<u8>, BroadcastEncoding) {
        let mut scratch = Vec::new();
        let mut wire = Vec::new();
        let encoding = self.encode_into(message, sender, &mut scratch, &mut wire);
        (wire, encoding)
    }

    /// [`MessageCodec::encode`] into caller-owned buffers, producing
    /// byte-identical wire bytes in `wire`. On the uncompressed path the
    /// message is encoded straight into `wire` and `scratch` is untouched; on
    /// the compressed path the plain encoding lands in `scratch` and the
    /// compressed bytes in `wire`. Both buffers are cleared first — reuse
    /// them across messages and the steady-state uncompressed encode
    /// allocates nothing.
    ///
    /// ```
    /// use graphh_cluster::{BroadcastMessage, CommunicationMode, MessageCodec, ServerMetrics};
    ///
    /// let codec = MessageCodec::new(CommunicationMode::default(), None);
    /// let m = BroadcastMessage::new(0, 64, vec![(7, 1.0)]);
    /// let (mut scratch, mut wire) = (Vec::new(), Vec::new());
    /// let mut metrics = ServerMetrics::default();
    /// let encoding = codec.encode_into(&m, &mut metrics, &mut scratch, &mut wire);
    /// assert_eq!((wire.clone(), encoding), codec.encode(&m, &mut ServerMetrics::default()));
    /// ```
    pub fn encode_into(
        &self,
        message: &BroadcastMessage,
        sender: &mut ServerMetrics,
        scratch: &mut Vec<u8>,
        wire: &mut Vec<u8>,
    ) -> BroadcastEncoding {
        self.encode_into_with(
            message,
            sender,
            scratch,
            wire,
            &mut CompressorScratch::new(),
        )
    }

    /// [`MessageCodec::encode_into`] with caller-owned compressor state: the
    /// LZSS codecs reuse `comp`'s match-finder tables across messages instead
    /// of re-allocating them per call, so with all three of `scratch`, `wire`
    /// and `comp` reused the steady-state *compressed* encode allocates
    /// nothing either. Wire bytes, encoding choice and the metric charge are
    /// byte-for-byte identical to the per-call APIs; the uncompressed path
    /// leaves `comp` (and `scratch`) untouched.
    pub fn encode_into_with(
        &self,
        message: &BroadcastMessage,
        sender: &mut ServerMetrics,
        scratch: &mut Vec<u8>,
        wire: &mut Vec<u8>,
        comp: &mut CompressorScratch,
    ) -> BroadcastEncoding {
        let encoding = message.choose_encoding(self.mode);
        match self.compressor {
            None | Some(Codec::Raw) => message.encode_into(encoding, wire),
            Some(codec) => {
                message.encode_into(encoding, scratch);
                codec.compress_into_with(scratch, wire, comp);
                sender.compress_seconds += self.codec_seconds(scratch.len());
            }
        }
        encoding
    }

    /// Decode wire bytes produced by [`MessageCodec::encode`], charging
    /// decompression time to `receiver`.
    pub fn decode(
        &self,
        wire: &[u8],
        receiver: &mut ServerMetrics,
    ) -> Result<BroadcastMessage, String> {
        let decoded_bytes = match self.compressor {
            None | Some(Codec::Raw) => None,
            Some(codec) => {
                receiver.decompress_seconds += self.codec_seconds(wire.len());
                Some(codec.decompress(wire).map_err(|e| e.to_string())?)
            }
        };
        BroadcastMessage::decode(decoded_bytes.as_deref().unwrap_or(wire))
    }

    /// Streaming receive half of the hot path: decompress `wire` into
    /// `scratch` when a compressor is configured (charging the receiver
    /// exactly as [`MessageCodec::decode`] does), then validate and visit
    /// every update via [`BroadcastMessage::decode_each`] — no
    /// `BroadcastMessage` and no per-message update vector is materialized.
    /// On the uncompressed path `scratch` is untouched and nothing is
    /// allocated.
    ///
    /// On `Err`, `visit` may already have observed a valid prefix of the
    /// updates; callers accumulating into a shared buffer must discard it.
    pub fn decode_each(
        &self,
        wire: &[u8],
        receiver: &mut ServerMetrics,
        scratch: &mut Vec<u8>,
        visit: impl FnMut(VertexId, f64),
    ) -> Result<BroadcastHeader, String> {
        let data: &[u8] = match self.compressor {
            None | Some(Codec::Raw) => wire,
            Some(codec) => {
                receiver.decompress_seconds += self.codec_seconds(wire.len());
                codec
                    .decompress_into(wire, scratch)
                    .map_err(|e| e.to_string())?;
                scratch
            }
        };
        BroadcastMessage::decode_each(data, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(range: (u32, u32), updated: &[u32]) -> BroadcastMessage {
        BroadcastMessage::new(
            range.0,
            range.1,
            updated.iter().map(|&v| (v, f64::from(v) * 0.5)).collect(),
        )
    }

    #[test]
    fn dense_and_sparse_roundtrip() {
        let m = msg((100, 164), &[100, 101, 130, 163]);
        for enc in [BroadcastEncoding::Dense, BroadcastEncoding::Sparse] {
            let bytes = m.encode(enc);
            assert_eq!(bytes.len() as u64, m.encoded_size(enc));
            let back = BroadcastMessage::decode(&bytes).unwrap();
            assert_eq!(back.updates, m.updates);
            assert_eq!(back.range_start, 100);
            assert_eq!(back.range_end, 164);
        }
    }

    /// `encode_into` must agree byte-for-byte with `encode`, and the
    /// streaming `decode_each` must visit exactly what `decode` collects —
    /// across dense/sparse, empty updates, sparse-frontier dense messages
    /// (mostly all-zero bitmap bytes) and non-multiple-of-8 ranges (padding
    /// bits in the final bitmap byte).
    #[test]
    fn encode_into_and_decode_each_match_the_allocating_api() {
        let cases = [
            msg((100, 164), &[100, 101, 130, 163]),
            msg((0, 61), &[0, 7, 8, 57, 60]),
            msg((5, 5), &[]),
            msg((0, 1000), &[3]), // sparse frontier: zero-byte skip path
            msg((0, 1000), &(0..1000).collect::<Vec<_>>()),
            msg((32, 45), &[39]),
            msg((0, 64), &[0, 63]), // exactly one full bitmap word, no padding
            msg((0, 139), &[63, 64, 127, 128, 138]), // full words + byte tail with padding
        ];
        let mut wire = Vec::new();
        for m in &cases {
            for enc in [BroadcastEncoding::Dense, BroadcastEncoding::Sparse] {
                m.encode_into(enc, &mut wire); // `wire` reused across cases
                assert_eq!(wire, m.encode(enc));
                let mut visited = Vec::new();
                let header =
                    BroadcastMessage::decode_each(&wire, |v, val| visited.push((v, val))).unwrap();
                let decoded = BroadcastMessage::decode(&wire).unwrap();
                assert_eq!(visited, decoded.updates);
                assert_eq!(visited, m.updates);
                assert_eq!(header.encoding, enc);
                assert_eq!(header.range_start, m.range_start);
                assert_eq!(header.range_end, m.range_end);
                assert_eq!(header.count as usize, m.updates.len());
            }
        }
    }

    /// The corrupt-wire rejection suite must hold for the streaming decoder
    /// exactly as for `decode` (which is built on it): out-of-range ids,
    /// non-monotone ids, truncation, bad counts, garbage tags.
    #[test]
    fn decode_each_rejects_corrupt_wire() {
        let reject = |bytes: &[u8]| {
            BroadcastMessage::decode_each(bytes, |_, _| {}).expect_err("corrupt wire must error")
        };
        reject(&[]);
        reject(&[9u8; 13]); // unknown tag
        let mut truncated = msg((0, 8), &[2]).encode(BroadcastEncoding::Sparse);
        truncated.truncate(truncated.len() - 1);
        reject(&truncated);
        assert!(reject(&raw_sparse((10, 20), &[11, 25])).contains("outside range"));
        assert!(reject(&raw_sparse((0, 100), &[5, 3])).contains("strictly increasing"));
        reject(&raw_sparse((0, 100), &[7, 7]));
        assert!(reject(&raw_sparse((0, 2), &[0, 1, 0, 1])).contains("exceeds range"));
        // Dense count mismatch: claim 2 updates, set 1 bitmap bit.
        let mut dense = msg((0, 16), &[3]).encode(BroadcastEncoding::Dense);
        dense[9..13].copy_from_slice(&2u32.to_le_bytes());
        assert!(reject(&dense).contains("count mismatch"));
        // Dense padding bits past the range are ignored, not counted: a
        // 13-vertex range leaves 3 padding bits in its 2-byte bitmap.
        let mut padded = msg((0, 13), &[1]).encode(BroadcastEncoding::Dense);
        padded[13 + 1] |= 0b1110_0000; // second bitmap byte, bits 13..16
        let decoded = BroadcastMessage::decode(&padded).unwrap();
        assert_eq!(decoded.updates, vec![(1, 0.5)]);
    }

    #[test]
    fn sparse_wins_when_few_updates_dense_wins_when_many() {
        let few = msg((0, 1000), &[1, 5, 9]);
        assert!(
            few.encoded_size(BroadcastEncoding::Sparse)
                < few.encoded_size(BroadcastEncoding::Dense)
        );
        let all: Vec<u32> = (0..1000).collect();
        let many = msg((0, 1000), &all);
        assert!(
            many.encoded_size(BroadcastEncoding::Dense)
                < many.encoded_size(BroadcastEncoding::Sparse)
        );
    }

    #[test]
    fn hybrid_mode_switches_on_threshold() {
        let mode = CommunicationMode::default();
        // 10% updated → 90% unchanged > 0.8 → sparse.
        let sparse_case = msg((0, 100), &(0..10).collect::<Vec<_>>());
        assert_eq!(sparse_case.choose_encoding(mode), BroadcastEncoding::Sparse);
        // 90% updated → 10% unchanged < 0.8 → dense.
        let dense_case = msg((0, 100), &(0..90).collect::<Vec<_>>());
        assert_eq!(dense_case.choose_encoding(mode), BroadcastEncoding::Dense);
        assert_eq!(
            sparse_case.choose_encoding(CommunicationMode::Dense),
            BroadcastEncoding::Dense
        );
        assert_eq!(
            dense_case.choose_encoding(CommunicationMode::Sparse),
            BroadcastEncoding::Sparse
        );
    }

    #[test]
    fn sparsity_ratio_empty_range() {
        let m = msg((5, 5), &[]);
        assert_eq!(m.sparsity_ratio(), 1.0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BroadcastMessage::decode(&[]).is_err());
        assert!(BroadcastMessage::decode(&[9u8; 13]).is_err());
        let m = msg((0, 8), &[2]);
        let mut bytes = m.encode(BroadcastEncoding::Sparse);
        bytes.truncate(bytes.len() - 1);
        assert!(BroadcastMessage::decode(&bytes).is_err());
    }

    /// Hand-craft a sparse wire message with arbitrary ids (bypassing the
    /// checks in `BroadcastMessage::new`).
    fn raw_sparse(range: (u32, u32), ids: &[u32]) -> Vec<u8> {
        let mut out = vec![1u8];
        out.extend_from_slice(&range.0.to_le_bytes());
        out.extend_from_slice(&range.1.to_le_bytes());
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for &v in ids {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&1.0f64.to_le_bytes());
        }
        out
    }

    #[test]
    fn decode_rejects_out_of_range_sparse_ids() {
        // An id past range_end would index out of bounds in apply_updates.
        let err = BroadcastMessage::decode(&raw_sparse((10, 20), &[11, 25])).unwrap_err();
        assert!(err.contains("outside range"), "{err}");
        // An id below range_start is equally corrupt.
        assert!(BroadcastMessage::decode(&raw_sparse((10, 20), &[3])).is_err());
        // Boundary ids are fine: start inclusive, end exclusive.
        let ok = BroadcastMessage::decode(&raw_sparse((10, 20), &[10, 19])).unwrap();
        assert_eq!(ok.updates.len(), 2);
        assert!(BroadcastMessage::decode(&raw_sparse((10, 20), &[20])).is_err());
    }

    #[test]
    fn decode_rejects_unsorted_or_duplicate_sparse_ids() {
        let err = BroadcastMessage::decode(&raw_sparse((0, 100), &[5, 3])).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        assert!(BroadcastMessage::decode(&raw_sparse((0, 100), &[7, 7])).is_err());
    }

    #[test]
    fn decode_rejects_count_exceeding_range() {
        // 4 claimed updates cannot fit a 2-vertex range, whatever the body says.
        let err = BroadcastMessage::decode(&raw_sparse((0, 2), &[0, 1, 0, 1])).unwrap_err();
        assert!(err.contains("exceeds range"), "{err}");
    }

    #[test]
    fn message_codec_roundtrips_and_meters_codec_time() {
        let codec = MessageCodec::new(CommunicationMode::Sparse, None);
        let m = msg((0, 100), &[1, 2, 3]);
        let mut sender = ServerMetrics::default();
        let (wire, enc) = codec.encode(&m, &mut sender);
        assert_eq!(enc, BroadcastEncoding::Sparse);
        assert_eq!(wire.len() as u64, m.encoded_size(BroadcastEncoding::Sparse));
        // Uncompressed path charges no codec time.
        assert_eq!(sender.compress_seconds, 0.0);
        assert_eq!(codec.codec_seconds(wire.len()), 0.0);
        let mut receiver = ServerMetrics::default();
        let decoded = codec.decode(&wire, &mut receiver).unwrap();
        assert_eq!(decoded.updates, m.updates);
        assert_eq!(receiver.decompress_seconds, 0.0);
    }

    #[test]
    fn compression_reduces_wire_bytes_for_dense_messages() {
        // A dense message full of identical values compresses extremely well.
        let all: Vec<u32> = (0..4096).collect();
        let m = BroadcastMessage::new(0, 4096, all.iter().map(|&v| (v, 1.0)).collect());
        let raw = MessageCodec::new(CommunicationMode::Dense, None);
        let snappy = MessageCodec::new(CommunicationMode::Dense, Some(Codec::Snappy));
        let mut s_raw = ServerMetrics::default();
        let mut s_snappy = ServerMetrics::default();
        let (raw_wire, _) = raw.encode(&m, &mut s_raw);
        let (snappy_wire, _) = snappy.encode(&m, &mut s_snappy);
        assert!(snappy_wire.len() < raw_wire.len() / 2);
        assert!(s_snappy.compress_seconds > 0.0);
        let mut receiver = ServerMetrics::default();
        let decoded = snappy.decode(&snappy_wire, &mut receiver).unwrap();
        assert_eq!(decoded.updates.len(), 4096);
        assert!(receiver.decompress_seconds > 0.0);
        // Corrupt wire bytes surface as an error, not a panic.
        assert!(snappy.decode(&[0xFF; 32], &mut receiver).is_err());
    }

    /// The scratch-threaded codec paths must produce byte-identical wire
    /// bytes, identical metric charges, and identical decode results to the
    /// allocating path — for every compressor, with dirty reused buffers and
    /// a warm `CompressorScratch` carried across all messages and codecs.
    #[test]
    fn message_codec_into_paths_match_allocating_paths() {
        let messages = [
            msg((0, 512), &(0..480).collect::<Vec<_>>()), // hybrid → dense
            msg((0, 512), &[1, 99, 500]),                 // hybrid → sparse
        ];
        let compressors: [Option<Codec>; 6] = [
            None,
            Some(Codec::Raw),
            Some(Codec::Snappy),
            Some(Codec::Zlib1),
            Some(Codec::Zlib3),
            Some(Codec::VarintDelta),
        ];
        let mut enc_scratch = Vec::new();
        let mut wire = Vec::new();
        let mut dec_scratch = Vec::new();
        let mut comp = CompressorScratch::new();
        for compressor in compressors {
            let codec = MessageCodec::new(CommunicationMode::default(), compressor);
            for m in &messages {
                let mut s1 = ServerMetrics::default();
                let mut s2 = ServerMetrics::default();
                let (old_wire, old_enc) = codec.encode(m, &mut s1);
                let new_enc = codec.encode_into(m, &mut s2, &mut enc_scratch, &mut wire);
                assert_eq!(wire, old_wire);
                assert_eq!(new_enc, old_enc);
                assert_eq!(s1.compress_seconds, s2.compress_seconds);

                // Same again through the persistent-compressor-state entry
                // point, with the scratch deliberately warm from whatever
                // codec ran before.
                let mut s3 = ServerMetrics::default();
                let with_enc =
                    codec.encode_into_with(m, &mut s3, &mut enc_scratch, &mut wire, &mut comp);
                assert_eq!(wire, old_wire);
                assert_eq!(with_enc, old_enc);
                assert_eq!(s1.compress_seconds, s3.compress_seconds);

                let mut r1 = ServerMetrics::default();
                let mut r2 = ServerMetrics::default();
                let old_decoded = codec.decode(&wire, &mut r1).unwrap();
                let mut visited = Vec::new();
                let header = codec
                    .decode_each(&wire, &mut r2, &mut dec_scratch, |v, val| {
                        visited.push((v, val));
                    })
                    .unwrap();
                assert_eq!(visited, old_decoded.updates);
                assert_eq!(header.range_start, old_decoded.range_start);
                assert_eq!(header.range_end, old_decoded.range_end);
                assert_eq!(r1.decompress_seconds, r2.decompress_seconds);
            }
            // Corrupt wire bytes error through the streaming path too.
            if compressor.is_some_and(|c| c != Codec::Raw) {
                let mut r = ServerMetrics::default();
                assert!(codec
                    .decode_each(&[0xFF; 32], &mut r, &mut dec_scratch, |_, _| {})
                    .is_err());
            }
        }
    }

    #[test]
    fn paper_default_is_hybrid_snappy() {
        let c = MessageCodec::paper_default();
        assert!(matches!(
            c.mode(),
            CommunicationMode::Hybrid { sparsity_threshold } if (sparsity_threshold - 0.8).abs() < 1e-9
        ));
    }
}
