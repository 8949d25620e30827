//! Broadcast message encodings and the simulated broadcast channel (paper §IV-C).
//!
//! After a GraphH worker finishes a tile it broadcasts the *updated* vertex values of
//! that tile's target range to all other servers. The paper considers three ways to
//! say *which* vertices a message updates:
//!
//! * **dense** — a bitmap with one bit per vertex of the tile's target range;
//!   cheap when most vertices changed,
//! * **sparse** — the updated vertex ids, as varint gaps; cheap when few changed,
//! * **hybrid** — per message, whichever of the two index encodings is smaller
//!   (the values cost the same either way), dense on a tie. The paper's rule is
//!   a 0.8 unchanged-fraction threshold derived for 8-byte slots; with a bit
//!   per vertex against a varint per gap the break-even moves with the ids, so
//!   the sender compares the two sizes instead of carrying a constant.
//!
//! Either index is followed by the updated values **only** — a vertex that did
//! not change costs one bitmap bit or nothing. The values take whichever of two
//! forms the message itself allows (no program flag says which): when every
//! value is `+∞` or an integer in `[0, 2³²)` they ship as varints; otherwise
//! the `f64` bit patterns are split into eight byte planes, the planes whose
//! bytes repeat (sign and exponent) first and the mantissa noise last. Both are
//! exact to the bit. `docs/WIRE.md` §11 is the normative layout.
//!
//! Messages can additionally be compressed (snappy by default): the
//! [`MessageCodec`] hands the compressor the part that can shrink — header,
//! index and repeating planes, or a whole integer message — and ships the
//! noise planes as they are. It encodes for real and meters the codec time
//! into [`ServerMetrics`]; both executors (the sequential reference loop and
//! the threaded runtime's channel plane) push every broadcast through it, so
//! Figure 8's traffic series are measured, not estimated.

use crate::metrics::ServerMetrics;
use graphh_compress::varint::{read_varint, read_varint64, write_varint, write_varint64};
use graphh_compress::{Codec, CompressorScratch};
use graphh_graph::ids::VertexId;

/// How a particular message ended up encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastEncoding {
    /// Update bitmap over the range + the updated values.
    Dense,
    /// Varint gaps between the updated ids + the updated values.
    Sparse,
}

/// The sender-side policy for choosing an encoding. The choice changes no
/// decoded value; `Dense` and `Sparse` exist so the Figure 8 series and the
/// ablations can ship every message one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommunicationMode {
    /// Always dense.
    Dense,
    /// Always sparse.
    Sparse,
    /// Per message, the smaller of the two indexes; dense on a tie.
    #[default]
    Hybrid,
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

/// Tag, range start, range end, count.
const HEADER_LEN: usize = 13;
/// Tag bit 0: the index is id gaps ([`BroadcastEncoding::Sparse`]), not a bitmap.
const TAG_SPARSE: u8 = 0b01;
/// Tag bit 1: the values are integer codes, not byte planes.
const TAG_INTS: u8 = 0b10;
/// The largest integer code: `k + 1` for `k = 2³² − 1` (code 0 is `+∞`).
const MAX_INT_CODE: u64 = 1 << 32;
/// The plane rule: a byte plane goes to the compressible head when at least
/// one in this many of its bytes equals the byte before it.
const PLANE_REPEAT_ONE_IN: usize = 2;

/// The integer code of a value's bit pattern: 0 for `+∞`, `k + 1` for an
/// integer `k` in `[0, 2³²)` with a clear sign bit; `None` for everything else
/// (`-0.0`, NaNs, fractions, larger magnitudes), which ships as byte planes.
fn int_code(bits: u64) -> Option<u64> {
    if bits == f64::INFINITY.to_bits() {
        return Some(0);
    }
    // A saturating cast: whatever does not survive the round trip bit for bit
    // is not an integer this code can carry.
    let k = f64::from_bits(bits) as u32;
    (f64::from(k).to_bits() == bits).then_some(u64::from(k) + 1)
}

/// Bytes of `value` as a LEB128 varint.
fn varint_len(value: u64) -> u64 {
    u64::from(64 - (value | 1).leading_zeros()).div_ceil(7)
}

/// How a message's values go on the wire, decided from the values alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueShape {
    /// Every value has an [`int_code`] (vacuously so for an empty message).
    Ints,
    /// Byte planes; bit `p` of `head` set = plane `p` repeats and goes first.
    Planes { head: u8 },
}

impl ValueShape {
    /// One pass: the integer test (until it first fails) and, per byte plane,
    /// how many bytes equal their predecessor — one XOR per value, the eight
    /// zero-byte tests done at once on 8-bit lanes of a `u64`.
    fn of(updates: &[(VertexId, f64)]) -> Self {
        const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
        let mut ints = true;
        let mut repeats = [0usize; 8];
        // The first value has no predecessor: compare it with its complement,
        // which differs in every byte.
        let mut prev = !updates.first().map_or(0, |u| u.1.to_bits());
        for chunk in updates.chunks(255) {
            let mut lanes = 0u64; // eight counters, each at most 255
            for &(_, value) in chunk {
                let bits = value.to_bits();
                ints = ints && int_code(bits).is_some();
                let diff = bits ^ prev;
                prev = bits;
                // 0x80 in every byte of `diff` that is zero, then 0x01.
                lanes += !(((diff & LOW7) + LOW7) | diff | LOW7) >> 7;
            }
            for (p, total) in repeats.iter_mut().enumerate() {
                *total += usize::from((lanes >> (8 * p)) as u8);
            }
        }
        if ints {
            return ValueShape::Ints;
        }
        let head = (0..8)
            .filter(|&p| repeats[p] * PLANE_REPEAT_ONE_IN >= updates.len())
            .fold(0u8, |mask, p| mask | 1 << p);
        ValueShape::Planes { head }
    }
}

/// Transpose an 8×8 byte matrix held as eight little-endian rows: byte `r` of
/// `result[c]` is byte `c` of `rows[r]`. Three rounds of block swaps (4×4,
/// 2×2, 1×1); its own inverse.
fn transpose8(mut rows: [u64; 8]) -> [u64; 8] {
    let mut swap = |a: usize, b: usize, shift: u32, mask: u64| {
        let moved = (rows[a] >> shift ^ rows[b]) & mask;
        rows[b] ^= moved;
        rows[a] ^= moved << shift;
    };
    for i in 0..4 {
        swap(i, i + 4, 32, 0x0000_0000_FFFF_FFFF);
    }
    for i in [0, 1, 4, 5] {
        swap(i, i + 2, 16, 0x0000_FFFF_0000_FFFF);
    }
    for i in [0, 2, 4, 6] {
        swap(i, i + 1, 8, 0x00FF_00FF_00FF_00FF);
    }
    rows
}

/// The planes in wire order: those in `head` ascending, then the rest ascending.
fn plane_order(head: u8) -> [usize; 8] {
    let mut order = [0; 8];
    let set = (0..8).filter(|p| head >> p & 1 == 1);
    let clear = (0..8).filter(|p| head >> p & 1 == 0);
    for (slot, p) in order.iter_mut().zip(set.chain(clear)) {
        *slot = p;
    }
    order
}

/// Length of the first `count` LEB128 varints of `data` (a varint ends at
/// the first byte with a clear top bit), `None` if `data` holds fewer.
fn varints_len(data: &[u8], count: usize) -> Option<usize> {
    const TOPS: u64 = 0x8080_8080_8080_8080;
    let mut missing = count;
    let mut at = 0;
    // Whole words while all of a word's varint ends are still wanted.
    for word in data.chunks_exact(8) {
        let ends = (!u64::from_le_bytes(word.try_into().unwrap()) & TOPS).count_ones() as usize;
        if ends >= missing {
            break;
        }
        missing -= ends;
        at += 8;
    }
    if missing == 0 {
        return Some(at);
    }
    for (i, &byte) in data[at..].iter().enumerate() {
        missing -= usize::from(byte < 0x80);
        if missing == 0 {
            return Some(at + i + 1);
        }
    }
    None
}

/// The update bitmap as `(first slot, 64 slots)` words, the padding bits past
/// slot `n` cleared. `bitmap` holds `⌈n / 8⌉` bytes.
fn bitmap_words(bitmap: &[u8], n: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let whole = bitmap.chunks_exact(8);
    let mut last = [0u8; 8];
    let rest = whole.remainder();
    last[..rest.len()].copy_from_slice(rest);
    whole
        .map(|word| u64::from_le_bytes(word.try_into().unwrap()))
        .chain((!rest.is_empty()).then_some(u64::from_le_bytes(last)))
        .enumerate()
        .map(move |(i, word)| {
            let base = i * 64;
            let live = n - base;
            let padding = if live < 64 { !0 << live } else { 0 };
            (base, word & !padding)
        })
}

/// A message's validated index section.
enum Index<'a> {
    /// One bit per vertex of the range; as many set (padding aside) as the
    /// header counts.
    Bitmap(&'a [u8]),
    /// As many varint gaps as the header counts.
    Gaps(&'a [u8]),
}

impl Index<'_> {
    /// Visit the updated ids in order, the `k`-th with `value(k)`. Ids are
    /// accumulated in `u64` and bounded by the range before they are visited.
    fn walk(
        self,
        (range_start, range_end): (VertexId, VertexId),
        count: usize,
        mut value: impl FnMut(usize) -> Result<f64, String>,
        visit: &mut impl FnMut(VertexId, f64),
    ) -> Result<(), String> {
        match self {
            Index::Bitmap(bitmap) => {
                let mut k = 0;
                for (base, mut word) in bitmap_words(bitmap, (range_end - range_start) as usize) {
                    while word != 0 {
                        let slot = base + word.trailing_zeros() as usize;
                        word &= word - 1;
                        visit(range_start + slot as u32, value(k)?);
                        k += 1;
                    }
                }
            }
            Index::Gaps(gaps) => {
                let mut pos = 0;
                let mut floor = u64::from(range_start);
                for k in 0..count {
                    let id = floor + u64::from(read_varint(gaps, &mut pos)?);
                    if id >= u64::from(range_end) {
                        return Err(format!(
                            "sparse vertex id {id} outside range [{range_start}, {range_end})"
                        ));
                    }
                    visit(id as u32, value(k)?);
                    floor = id + 1;
                }
            }
        }
        Ok(())
    }
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

    /// Bytes of the bitmap index: one bit per vertex of the range.
    fn bitmap_len(&self) -> u64 {
        u64::from(self.range_len()).div_ceil(8)
    }

    /// Bytes of each id gap of the sparse index, in update order.
    fn gap_lens(&self) -> impl Iterator<Item = u64> + '_ {
        let mut floor = self.range_start;
        self.updates.iter().map(move |&(v, _)| {
            let gap = v - floor;
            floor = v + 1;
            varint_len(u64::from(gap))
        })
    }

    /// Pick the encoding `mode` prescribes for this message. Hybrid adds up
    /// the id gaps until they reach the bitmap's size, so a message that goes
    /// dense costs O(range / 8) to decide, not O(updates).
    pub fn choose_encoding(&self, mode: CommunicationMode) -> BroadcastEncoding {
        match mode {
            CommunicationMode::Dense => BroadcastEncoding::Dense,
            CommunicationMode::Sparse => BroadcastEncoding::Sparse,
            CommunicationMode::Hybrid => {
                let bitmap = self.bitmap_len();
                let mut gaps = 0;
                // An empty range's bitmap is empty too: a tie.
                let sparse_is_smaller = bitmap > 0
                    && self.gap_lens().all(|len| {
                        gaps += len;
                        gaps < bitmap
                    });
                if sparse_is_smaller {
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
    /// to the allocating API: `out` is cleared, an upper bound of the message
    /// size is reserved up front, and index and values are written directly
    /// into `out` — no intermediate bitmap or value vector exists. With a
    /// reused `out` a steady-state encode performs zero heap allocation.
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
        self.encode_split(encoding, out);
    }

    /// [`BroadcastMessage::encode_into`], returning where the message's
    /// *head* ends: header, index and the byte planes that repeat — or the
    /// whole of an integer message. `out[head..]` is the noise planes, which
    /// no compressor shrinks.
    pub(crate) fn encode_split(&self, encoding: BroadcastEncoding, out: &mut Vec<u8>) -> usize {
        let count = self.updates.len();
        let shape = ValueShape::of(&self.updates);
        let index_bound = match encoding {
            BroadcastEncoding::Dense => (self.range_len() as usize).div_ceil(8),
            BroadcastEncoding::Sparse => count * 5,
        };
        out.clear();
        // Either value form fits 1 + 8 bytes per value (a code is ≤ 5 bytes).
        out.reserve(HEADER_LEN + index_bound + 1 + count * 8);
        let sparse = encoding == BroadcastEncoding::Sparse;
        let ints = shape == ValueShape::Ints;
        out.push((u8::from(sparse) * TAG_SPARSE) | (u8::from(ints) * TAG_INTS));
        out.extend_from_slice(&self.range_start.to_le_bytes());
        out.extend_from_slice(&self.range_end.to_le_bytes());
        out.extend_from_slice(&(count as u32).to_le_bytes());
        match encoding {
            BroadcastEncoding::Dense => {
                out.resize(HEADER_LEN + index_bound, 0);
                let bitmap = &mut out[HEADER_LEN..];
                // Ids rise, so a 64-slot word is finished when the next id
                // leaves it: gather it in a register, store it once.
                let mut store = |at: usize, word: u64| {
                    let bytes = &mut bitmap[at * 8..];
                    let len = bytes.len().min(8);
                    bytes[..len].copy_from_slice(&word.to_le_bytes()[..len]);
                };
                let (mut at, mut word) = (0, 0u64);
                for &(v, _) in &self.updates {
                    let slot = (v - self.range_start) as usize;
                    if slot / 64 != at {
                        store(at, word);
                        (at, word) = (slot / 64, 0);
                    }
                    word |= 1 << (slot % 64);
                }
                if word != 0 {
                    store(at, word);
                }
            }
            BroadcastEncoding::Sparse => {
                // Gap to the smallest id the next update may have, so a
                // repeated or falling id has no encoding.
                let mut floor = self.range_start;
                for &(v, _) in &self.updates {
                    write_varint(v - floor, out);
                    floor = v + 1;
                }
            }
        }
        match shape {
            ValueShape::Ints => {
                for &(_, value) in &self.updates {
                    let code = int_code(value.to_bits()).expect("classified as integers");
                    write_varint64(code, out);
                }
                out.len()
            }
            ValueShape::Planes { head } => {
                out.push(head);
                let at = out.len();
                out.resize(at + count * 8, 0);
                // `count ≥ 1` here: an empty message is an integer message.
                let mut lanes = out[at..].chunks_exact_mut(count);
                let mut lanes: [&mut [u8]; 8] =
                    std::array::from_fn(|_| lanes.next().expect("eight planes reserved"));
                let order = plane_order(head);
                // Eight values at a time: their 8×8 byte matrix transposed in
                // registers, one 8-byte store per plane. (One loop over
                // `chunks(8)` with a variable-length store is twice as slow.)
                let blocks = self.updates.chunks_exact(8);
                let rest = blocks.remainder();
                for (block, at) in blocks.zip((0..).step_by(8)) {
                    let columns = transpose8(std::array::from_fn(|k| block[k].1.to_bits()));
                    for (lane, &p) in lanes.iter_mut().zip(&order) {
                        lane[at..at + 8].copy_from_slice(&columns[p].to_le_bytes());
                    }
                }
                for (&(_, value), k) in rest.iter().zip(count - rest.len()..) {
                    let bytes = value.to_bits().to_le_bytes();
                    for (lane, &p) in lanes.iter_mut().zip(&order) {
                        lane[k] = bytes[p];
                    }
                }
                at + head.count_ones() as usize * count
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
    /// materializing a `Vec<(VertexId, f64)>`. Every section's length is
    /// checked against the header before the first value is visited. The
    /// dense path bit-scans the bitmap a `u64` word (64 slots) at a time —
    /// on a sparse frontier most words are zero and cost one test — and walks
    /// set bits with `trailing_zeros`.
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
        visit: impl FnMut(VertexId, f64),
    ) -> Result<BroadcastHeader, String> {
        Self::decode_parts(data, None, visit)
    }

    /// [`BroadcastMessage::decode_each`] over a message whose noise planes
    /// may sit apart from its head (`tail: Some`, as [`MessageCodec`] ships
    /// them: `head` must then end exactly where [`Self::encode_split`] said)
    /// or follow it in `head` itself (`None`, the plain layout).
    fn decode_parts(
        head: &[u8],
        tail: Option<&[u8]>,
        mut visit: impl FnMut(VertexId, f64),
    ) -> Result<BroadcastHeader, String> {
        if head.len() < HEADER_LEN {
            return Err("broadcast message too short".into());
        }
        let tag = head[0];
        let range_start = u32::from_le_bytes(head[1..5].try_into().unwrap());
        let range_end = u32::from_le_bytes(head[5..9].try_into().unwrap());
        let count = u32::from_le_bytes(head[9..13].try_into().unwrap()) as usize;
        if tag & !(TAG_SPARSE | TAG_INTS) != 0 {
            return Err(format!("unknown encoding tag {tag}"));
        }
        if range_end < range_start {
            return Err("inverted range".into());
        }
        let n = (range_end - range_start) as usize;
        if count > n {
            return Err(format!("update count {count} exceeds range length {n}"));
        }
        let body = &head[HEADER_LEN..];
        let (index, values, encoding) = if tag & TAG_SPARSE != 0 {
            let len = varints_len(body, count).ok_or("sparse index truncated")?;
            let (gaps, values) = body.split_at(len);
            (Index::Gaps(gaps), values, BroadcastEncoding::Sparse)
        } else {
            let Some((bitmap, values)) = body.split_at_checked(n.div_ceil(8)) else {
                return Err("dense bitmap truncated".into());
            };
            let set: usize = bitmap_words(bitmap, n)
                .map(|(_, word)| word.count_ones() as usize)
                .sum();
            if set != count {
                return Err("dense bitmap count mismatch".into());
            }
            (Index::Bitmap(bitmap), values, BroadcastEncoding::Dense)
        };
        let range = (range_start, range_end);

        if tag & TAG_INTS != 0 {
            if varints_len(values, count) != Some(values.len()) {
                return Err("integer codes length mismatch".into());
            }
            if tail.is_some_and(|tail| !tail.is_empty()) {
                return Err("bytes after an integer message".into());
            }
            let mut pos = 0;
            let value = |_| match read_varint64(values, &mut pos)? {
                0 => Ok(f64::INFINITY),
                code @ 1..=MAX_INT_CODE => Ok((code - 1) as f64),
                code => Err(format!("integer code {code} out of range")),
            };
            index.walk(range, count, value, &mut visit)?;
        } else {
            let Some((&mask, planes)) = values.split_first() else {
                return Err("plane mask missing".into());
            };
            let in_head = mask.count_ones() as usize * count;
            if planes.len() < in_head {
                return Err("repeating planes truncated".into());
            }
            let (repeating, rest) = planes.split_at(in_head);
            let noise = match tail {
                None => rest,
                Some(_) if !rest.is_empty() => {
                    return Err("bytes after the repeating planes".into())
                }
                Some(tail) => tail,
            };
            if noise.len() != count * 8 - in_head {
                return Err("noise planes length mismatch".into());
            }
            // Plane `p` as `count` bytes, wherever it was shipped.
            let mut lanes = [&[][..]; 8];
            if count > 0 {
                let shipped = repeating
                    .chunks_exact(count)
                    .chain(noise.chunks_exact(count));
                for (p, lane) in plane_order(mask).into_iter().zip(shipped) {
                    lanes[p] = lane;
                }
            }
            let value = |k: usize| {
                let bits = (0..8).fold(0, |bits, p| bits | u64::from(lanes[p][k]) << (8 * p));
                Ok(f64::from_bits(bits))
            };
            index.walk(range, count, value, &mut visit)?;
        }
        Ok(BroadcastHeader {
            encoding,
            range_start,
            range_end,
            count: count as u32,
        })
    }

    /// Size in bytes of the encoded message, without materialising it: one
    /// pass over the updates (the value form and the varint lengths depend on
    /// them), no buffer.
    pub fn encoded_size(&self, encoding: BroadcastEncoding) -> u64 {
        let count = self.updates.len() as u64;
        let index = match encoding {
            BroadcastEncoding::Dense => self.bitmap_len(),
            BroadcastEncoding::Sparse => self.gap_lens().sum(),
        };
        let values = match ValueShape::of(&self.updates) {
            ValueShape::Ints => {
                let codes = self.updates.iter().map(|u| int_code(u.1.to_bits()));
                codes.map(|code| varint_len(code.unwrap_or(0))).sum()
            }
            ValueShape::Planes { .. } => 1 + count * 8,
        };
        HEADER_LEN as u64 + index + values
    }
}

/// The five bytes [`MessageCodec`] appends under a compressor: how many of
/// the bytes before them are the head (`u32` LE), and how it is held.
const TRAILER_LEN: usize = 5;
/// Head kind: the head's own bytes (the compressor's frame was no smaller).
const HEAD_STORED: u8 = 0;
/// Head kind: the configured [`Codec`]'s frame of the head.
const HEAD_COMPRESSED: u8 = 1;

/// The per-message wire path: encoding choice + optional compression, with the
/// codec time charged to the participating servers' metrics.
///
/// This is the piece both broadcast transports share: the sequential
/// reference executor runs it inline, and the threaded runtime
/// (`graphh-runtime`) runs it on both ends of a real channel, so Figure 8
/// traffic is metered per real message either way.
///
/// Under a compressor the wire bytes are `head' · noise planes · trailer`:
/// the message's head (header, index and repeating planes, or all of an
/// integer message) as the codec's frame when that is smaller than the head
/// and as itself otherwise, the noise planes untouched, then the head's
/// length on the wire (`u32` LE) and its kind (one byte). Without one
/// (`None` or `Some(Raw)`) they are the plain message.
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

    /// The compressor, if it is one that compresses.
    fn wrapping_codec(&self) -> Option<Codec> {
        self.compressor.filter(|&codec| codec != Codec::Raw)
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
    /// the compressed path the plain encoding lands in `scratch` and what is
    /// shipped in `wire`. Both buffers are cleared first — reuse them across
    /// messages and the steady-state uncompressed encode allocates nothing.
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
    ///
    /// Only the message's head goes through the compressor, and `sender` is
    /// billed for exactly those bytes at [`Codec::compress_throughput`].
    pub fn encode_into_with(
        &self,
        message: &BroadcastMessage,
        sender: &mut ServerMetrics,
        scratch: &mut Vec<u8>,
        wire: &mut Vec<u8>,
        comp: &mut CompressorScratch,
    ) -> BroadcastEncoding {
        let encoding = message.choose_encoding(self.mode);
        let Some(codec) = self.wrapping_codec() else {
            message.encode_into(encoding, wire);
            return encoding;
        };
        let split = message.encode_split(encoding, scratch);
        let (head, noise) = scratch.split_at(split);
        codec.compress_into_with(head, wire, comp);
        sender.compress_seconds += head.len() as f64 / codec.compress_throughput();
        let kind = if wire.len() < head.len() {
            HEAD_COMPRESSED
        } else {
            wire.clear();
            wire.extend_from_slice(head);
            HEAD_STORED
        };
        let head_len = wire.len() as u32;
        wire.reserve(noise.len() + TRAILER_LEN);
        wire.extend_from_slice(noise);
        wire.extend_from_slice(&head_len.to_le_bytes());
        wire.push(kind);
        encoding
    }

    /// Decode wire bytes produced by [`MessageCodec::encode`], charging
    /// decompression time to `receiver`.
    pub fn decode(
        &self,
        wire: &[u8],
        receiver: &mut ServerMetrics,
    ) -> Result<BroadcastMessage, String> {
        let mut updates = Vec::new();
        let visit = |v, val| updates.push((v, val));
        let header = self.decode_each(wire, receiver, &mut Vec::new(), visit)?;
        Ok(BroadcastMessage {
            range_start: header.range_start,
            range_end: header.range_end,
            updates,
        })
    }

    /// Streaming receive half of the hot path: decompress the head of `wire`
    /// into `scratch` when it was shipped compressed (charging `receiver` for
    /// the frame's bytes at [`Codec::decompress_throughput`]), then validate
    /// and visit every update as [`BroadcastMessage::decode_each`] does — no
    /// `BroadcastMessage` and no per-message update vector is materialized,
    /// and head and noise planes are read where they lie, never re-joined.
    /// On the uncompressed path and for a stored head `scratch` is untouched
    /// and nothing is allocated.
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
        let Some(codec) = self.wrapping_codec() else {
            return BroadcastMessage::decode_each(wire, visit);
        };
        let Some(body_len) = wire.len().checked_sub(TRAILER_LEN) else {
            return Err("broadcast message shorter than its trailer".into());
        };
        let (body, trailer) = wire.split_at(body_len);
        let head_len = u32::from_le_bytes(trailer[..4].try_into().unwrap()) as usize;
        if head_len > body_len {
            return Err(format!("head length {head_len} runs past the message"));
        }
        let (head, noise) = body.split_at(head_len);
        let head = match trailer[4] {
            HEAD_STORED => head,
            HEAD_COMPRESSED => {
                receiver.decompress_seconds += head.len() as f64 / codec.decompress_throughput();
                codec
                    .decompress_into(head, scratch)
                    .map_err(|e| e.to_string())?;
                scratch
            }
            kind => return Err(format!("unknown head kind {kind}")),
        };
        BroadcastMessage::decode_parts(head, Some(noise), visit)
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

    /// Small integers, the shape BFS levels and component labels have.
    fn ints(range: (u32, u32), updated: &[u32]) -> BroadcastMessage {
        let updates = updated.iter().map(|&v| (v, f64::from(v % 7)));
        BroadcastMessage::new(range.0, range.1, updates.collect())
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
    /// overflowing gaps, truncation, bad counts, garbage tags.
    #[test]
    fn decode_each_rejects_corrupt_wire() {
        let reject = |bytes: &[u8]| {
            BroadcastMessage::decode_each(bytes, |_, _| {}).expect_err("corrupt wire must error")
        };
        reject(&[]);
        reject(&[9u8; 13]); // unknown tag
        for encoding in [BroadcastEncoding::Sparse, BroadcastEncoding::Dense] {
            for m in [msg((0, 8), &[3]), ints((0, 8), &[2, 5])] {
                let wire = m.encode(encoding);
                reject(&wire[..wire.len() - 1]);
                reject(&[wire.as_slice(), &[0]].concat());
            }
        }
        assert!(reject(&raw_sparse((10, 20), 2, &[&[1], &[13]])).contains("outside range"));
        assert!(reject(&raw_sparse((0, 100), 2, &[&[5], U32_OVERFLOW])).contains("overflows u32"));
        assert!(reject(&raw_sparse((0, 2), 4, &[&[0][..]; 4])).contains("exceeds range"));
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
        // An integer code past 2³² (the code of 2³² − 1), or one that does
        // not fit a `u64` at all.
        let top = ints((0, 4), &[0]).encode(BroadcastEncoding::Sparse);
        let coded = |code: &[u8]| [&top[..top.len() - 1], code].concat();
        let max = BroadcastMessage::decode(&coded(&[0x80, 0x80, 0x80, 0x80, 0x10])).unwrap();
        assert_eq!(max.updates, vec![(0, 4_294_967_295.0)]);
        assert!(reject(&coded(&[0x81, 0x80, 0x80, 0x80, 0x10])).contains("out of range"));
        assert!(reject(&coded(&[0xFF; 11])).contains("integer codes length"));
        assert!(reject(&coded(&[&[0xFF; 9][..], &[0x7F]].concat())).contains("overflows u64"));
        // A plane message cut inside its planes, and one without its mask.
        let planes = msg((0, 8), &[1, 2, 3]).encode(BroadcastEncoding::Dense);
        assert!(reject(&planes[..planes.len() - 3]).contains("noise planes"));
        assert!(reject(&planes[..14]).contains("plane mask"));
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
    fn hybrid_mode_picks_the_smaller_index() {
        let mode = CommunicationMode::Hybrid;
        // 10 one-byte gaps against a 13-byte bitmap → sparse.
        let sparse_case = msg((0, 100), &(0..10).collect::<Vec<_>>());
        assert_eq!(sparse_case.choose_encoding(mode), BroadcastEncoding::Sparse);
        // 90 one-byte gaps against the same bitmap → dense.
        let dense_case = msg((0, 100), &(0..90).collect::<Vec<_>>());
        assert_eq!(dense_case.choose_encoding(mode), BroadcastEncoding::Dense);
        // The break-even is in bytes: 13 gaps tie with the bitmap and go
        // dense, 12 are smaller, and a gap of 128 or more costs two.
        let tie = msg((0, 100), &(0..13).collect::<Vec<_>>());
        assert_eq!(tie.choose_encoding(mode), BroadcastEncoding::Dense);
        let under = msg((0, 100), &(0..12).collect::<Vec<_>>());
        assert_eq!(under.choose_encoding(mode), BroadcastEncoding::Sparse);
        let far = msg((0, 100), &(0..11).chain([99]).collect::<Vec<_>>());
        assert_eq!(far.choose_encoding(mode), BroadcastEncoding::Sparse);
        let farther = msg((0, 300), &(0..36).chain([299]).collect::<Vec<_>>());
        assert_eq!(farther.choose_encoding(mode), BroadcastEncoding::Dense);
        // No update at all: nothing beats a bitmap, except over an empty range.
        let none = msg((0, 100), &[]);
        assert_eq!(none.choose_encoding(mode), BroadcastEncoding::Sparse);
        assert_eq!(
            msg((5, 5), &[]).choose_encoding(mode),
            BroadcastEncoding::Dense
        );
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
    fn decode_rejects_garbage() {
        assert!(BroadcastMessage::decode(&[]).is_err());
        assert!(BroadcastMessage::decode(&[9u8; 13]).is_err());
        let m = msg((0, 8), &[2]);
        let mut bytes = m.encode(BroadcastEncoding::Sparse);
        bytes.truncate(bytes.len() - 1);
        assert!(BroadcastMessage::decode(&bytes).is_err());
    }

    /// A varint one bit too wide for a `u32`.
    const U32_OVERFLOW: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x1F];

    /// Hand-lay a sparse integer message with arbitrary varint gaps and a
    /// `count` of its own (bypassing the checks in `BroadcastMessage::new`);
    /// every value is `1.0`.
    fn raw_sparse(range: (u32, u32), count: u32, gaps: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![TAG_SPARSE | TAG_INTS];
        out.extend_from_slice(&range.0.to_le_bytes());
        out.extend_from_slice(&range.1.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend(gaps.iter().copied().flatten());
        out.extend(gaps.iter().map(|_| 2u8)); // code 2 = 1.0
        out
    }

    #[test]
    fn decode_rejects_out_of_range_sparse_ids() {
        // An id past range_end would index out of bounds in apply_updates.
        let err = BroadcastMessage::decode(&raw_sparse((10, 20), 2, &[&[1], &[13]])).unwrap_err();
        assert!(err.contains("outside range"), "{err}");
        // Boundary ids are fine: start inclusive, end exclusive. (An id below
        // range_start has no encoding: gaps count up from it.)
        let ok = BroadcastMessage::decode(&raw_sparse((10, 20), 2, &[&[0], &[8]])).unwrap();
        assert_eq!(ok.updates, vec![(10, 1.0), (19, 1.0)]);
        assert!(BroadcastMessage::decode(&raw_sparse((10, 20), 1, &[&[10]])).is_err());
    }

    /// Gaps are added up from `range_start`, each to the smallest id its
    /// update may have — a repeated or falling id has no encoding. What a
    /// hostile sender can still write is a gap too wide for a `u32`, or gaps
    /// whose sum wraps one: both are rejected, the sum being kept in a `u64`.
    #[test]
    fn decode_rejects_sparse_gaps_that_overflow_or_pass_the_range() {
        let err = BroadcastMessage::decode(&raw_sparse((0, 100), 1, &[U32_OVERFLOW])).unwrap_err();
        assert!(err.contains("overflows u32"), "{err}");
        let max: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]; // u32::MAX
        let wrapped = raw_sparse((5, u32::MAX), 2, &[max, max]);
        let err = BroadcastMessage::decode(&wrapped).unwrap_err();
        assert!(err.contains("outside range"), "{err}");
        // The smallest gap is a step of one: 7, 8.
        let adjacent = BroadcastMessage::decode(&raw_sparse((0, 100), 2, &[&[7], &[0]])).unwrap();
        assert_eq!(adjacent.updates, vec![(7, 1.0), (8, 1.0)]);
    }

    #[test]
    fn decode_rejects_count_exceeding_range() {
        // 4 claimed updates cannot fit a 2-vertex range, whatever the body says.
        let err = BroadcastMessage::decode(&raw_sparse((0, 2), 4, &[&[0][..]; 4])).unwrap_err();
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

    /// Under a compressor only the head is compressed, each side is billed
    /// for the bytes it handed the codec at that direction's throughput, and a
    /// head the codec cannot shrink is shipped — and read — as it is.
    #[test]
    fn the_head_alone_is_compressed_and_billed() {
        let snappy = MessageCodec::new(CommunicationMode::Dense, Some(Codec::Snappy));
        // Reals: the sign/exponent plane repeats, the mantissa planes do not.
        let reals: Vec<_> = (0..512).map(|v| (v, 1.0 / f64::from(v + 3))).collect();
        let m = BroadcastMessage::new(0, 512, reals);
        let mut plain = Vec::new();
        let split = m.encode_split(BroadcastEncoding::Dense, &mut plain);
        assert_eq!(
            split,
            13 + 64 + 1 + 2 * 512,
            "header, bitmap, mask, planes 6 and 7"
        );
        assert_eq!(plain[13 + 64], 0b1100_0000);
        let (mut sender, mut receiver) = (ServerMetrics::default(), ServerMetrics::default());
        let (wire, _) = snappy.encode(&m, &mut sender);
        let (body, trailer) = wire.split_at(wire.len() - TRAILER_LEN);
        let frame_len = u32::from_le_bytes(trailer[..4].try_into().unwrap()) as usize;
        assert_eq!(trailer[4], HEAD_COMPRESSED);
        assert!(frame_len < split);
        assert_eq!(
            &body[frame_len..],
            &plain[split..],
            "noise planes ship untouched"
        );
        assert_eq!(
            sender.compress_seconds,
            split as f64 / Codec::Snappy.compress_throughput()
        );
        assert_eq!(snappy.decode(&wire, &mut receiver).unwrap(), m);
        assert_eq!(
            receiver.decompress_seconds,
            frame_len as f64 / Codec::Snappy.decompress_throughput()
        );

        // Three small integers: the frame's own 9 bytes outweigh any match.
        let tiny = ints((0, 64), &[1, 9, 40]);
        let (mut sender, mut receiver) = (ServerMetrics::default(), ServerMetrics::default());
        let (wire, _) = snappy.encode(&tiny, &mut sender);
        let stored = tiny.encode(BroadcastEncoding::Dense);
        let trailer = [&(stored.len() as u32).to_le_bytes()[..], &[HEAD_STORED]].concat();
        assert_eq!(wire, [stored.as_slice(), &trailer].concat());
        assert!(sender.compress_seconds > 0.0, "the attempt is billed");
        let mut scratch = Vec::new();
        let header = snappy
            .decode_each(&wire, &mut receiver, &mut scratch, |_, _| {})
            .unwrap();
        assert_eq!(header.count, 3);
        assert_eq!(receiver.decompress_seconds, 0.0);
        assert_eq!(scratch.capacity(), 0, "a stored head is decoded in place");

        // The trailer is wire bytes too.
        let reject = |wire: &[u8]| {
            snappy
                .decode(wire, &mut ServerMetrics::default())
                .unwrap_err()
        };
        let with_trailer = |head_len: u32, kind: u8| {
            let mut bad = wire.clone();
            let at = bad.len() - TRAILER_LEN;
            bad[at..at + 4].copy_from_slice(&head_len.to_le_bytes());
            bad[at + 4] = kind;
            bad
        };
        assert!(reject(&wire[..4]).contains("shorter than its trailer"));
        assert!(reject(&with_trailer(stored.len() as u32 + 1, HEAD_STORED)).contains("runs past"));
        assert!(reject(&with_trailer(stored.len() as u32, 2)).contains("unknown head kind"));
        // A shorter head leaves bytes where an integer message has none.
        assert!(
            reject(&with_trailer(stored.len() as u32 - 1, HEAD_STORED)).contains("length mismatch")
        );
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
        assert_eq!(c.mode(), CommunicationMode::Hybrid);
        assert_eq!(c.compressor(), Some(Codec::Snappy));
    }
}
