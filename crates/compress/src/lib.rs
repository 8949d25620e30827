//! # graphh-compress
//!
//! Compression layer for tiles and broadcast messages (paper §IV-B, §IV-C, Table V).
//!
//! GraphH compresses cached tiles and network messages with snappy or zlib; the edge
//! cache picks the lightest codec whose compression ratio lets the working set fit in
//! memory, and the communication channel defaults to snappy. This crate provides:
//!
//! * [`Codec`] — the codecs the paper evaluates (raw, snappy, zlib-1, zlib-3) plus a
//!   graph-specific varint-delta codec used by the ablation benchmarks,
//! * [`varint`] — LEB128 varint and delta encoding of id sequences,
//! * [`stats`] — ratio / throughput measurement used to regenerate Table V.

pub mod stats;
pub mod varint;

pub use stats::{measure, CodecMeasurement};

// The three LZ codecs are one engine (`lz77`) at three match-search depths, in
// two frame families told apart by the frame's first byte. Frames are cached
// and sent to peers, so these five values are part of the wire format.

/// First byte of a [`Codec::Snappy`] frame (`'S'`).
const SNAPPY_MAGIC: u8 = 0x53;
/// First byte of a [`Codec::Zlib1`] / [`Codec::Zlib3`] frame (`'Z'`): the two
/// levels are one family and decode each other's output.
const ZLIB_MAGIC: u8 = 0x5A;
/// Hash-chain candidates examined per position, per codec.
const SNAPPY_CHAIN: usize = 32;
const ZLIB1_CHAIN: usize = 16;
const ZLIB3_CHAIN: usize = 64;

/// A compression codec.
///
/// The integer values of the first four variants match the paper's cache "modes"
/// (§IV-B): mode-1 caches raw tiles, mode-2 snappy, mode-3 zlib-1, mode-4 zlib-3.
///
/// `Snappy`, `Zlib1` and `Zlib3` keep the paper's names for those modes; the
/// bytes they produce are this repository's LZSS frames (`vendor/lz77`) at
/// three match-search depths, not the Snappy or zlib formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression (cache mode-1).
    Raw,
    /// Snappy (cache mode-2; also the default message compressor).
    Snappy,
    /// zlib level 1 (cache mode-3).
    Zlib1,
    /// zlib level 3 (cache mode-4).
    Zlib3,
    /// Varint + delta coding of 32-bit id streams; graph-specific extension codec.
    VarintDelta,
}

/// Errors from compression or decompression.
#[derive(Debug)]
pub enum CompressError {
    /// The payload could not be decompressed (corrupt or wrong codec).
    Corrupt(String),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(m) => write!(f, "corrupt compressed data: {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// Reusable per-compressor state for the broadcast hot path: the LZSS
/// match-finder's hash-chain tables and delta buffer (started afresh in O(1)
/// per frame, see [`lz77::Scratch`]) plus local, non-atomic call
/// statistics.
///
/// One instance lives with each encode lane / run loop; threading it through
/// [`Codec::compress_into_with`] makes the steady-state *compressed* encode
/// path allocation-free — the output stays byte-identical to the per-call
/// APIs. The stats are plain counters so recording them costs nothing on the
/// hot path; [`CompressorScratch::publish_observability`] flushes them into
/// the process-global `compress.*` counters (`graphh_obs`) once, at run end.
#[derive(Debug, Default)]
pub struct CompressorScratch {
    lz: lz77::Scratch,
    /// `compress_into_with` invocations through this scratch.
    calls: u64,
    /// Plain (pre-compression) bytes pushed through this scratch.
    bytes_in: u64,
    /// Compressed bytes produced through this scratch.
    bytes_out: u64,
    /// Calls that found the scratch warm (everything after the first).
    scratch_reuses: u64,
}

impl CompressorScratch {
    /// A cold scratch; all internal buffers are allocated lazily on first
    /// use, so creating one is free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one call's traffic (invoked by [`Codec::compress_into_with`]).
    fn note(&mut self, bytes_in: usize, bytes_out: usize) {
        self.scratch_reuses += u64::from(self.calls > 0);
        self.calls += 1;
        self.bytes_in += bytes_in as u64;
        self.bytes_out += bytes_out as u64;
    }

    /// Calls recorded since the last flush (test aid).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Flush the locally accumulated stats into the process-global
    /// `compress.calls` / `compress.bytes_in` / `compress.bytes_out` /
    /// `compress.scratch_reuses` counters and zero them. Registry lookups
    /// lock and may allocate, so this belongs at run end, never in the
    /// superstep loop (see `docs/OBSERVABILITY.md`).
    pub fn publish_observability(&mut self) {
        if self.calls == 0 {
            return;
        }
        let counters = graphh_obs::global_counters();
        counters.counter("compress.calls").add(self.calls);
        counters.counter("compress.bytes_in").add(self.bytes_in);
        counters.counter("compress.bytes_out").add(self.bytes_out);
        counters
            .counter("compress.scratch_reuses")
            .add(self.scratch_reuses);
        self.calls = 0;
        self.bytes_in = 0;
        self.bytes_out = 0;
        self.scratch_reuses = 0;
    }
}

impl Codec {
    /// All codecs, in cache-mode order.
    pub const ALL: [Codec; 5] = [
        Codec::Raw,
        Codec::Snappy,
        Codec::Zlib1,
        Codec::Zlib3,
        Codec::VarintDelta,
    ];

    /// The codec for a paper cache mode (1–4).
    pub fn from_cache_mode(mode: u8) -> Option<Codec> {
        match mode {
            1 => Some(Codec::Raw),
            2 => Some(Codec::Snappy),
            3 => Some(Codec::Zlib1),
            4 => Some(Codec::Zlib3),
            _ => None,
        }
    }

    /// The paper cache mode this codec corresponds to (None for the extension codec).
    pub fn cache_mode(self) -> Option<u8> {
        match self {
            Codec::Raw => Some(1),
            Codec::Snappy => Some(2),
            Codec::Zlib1 => Some(3),
            Codec::Zlib3 => Some(4),
            Codec::VarintDelta => None,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Snappy => "snappy",
            Codec::Zlib1 => "zlib-1",
            Codec::Zlib3 => "zlib-3",
            Codec::VarintDelta => "varint-delta",
        }
    }

    /// The *estimated* compression ratio GraphH's cache-mode selector assumes before
    /// it has seen any data (γ in §IV-B: γ₁=1, γ₂=2, γ₃=4, γ₄=5).
    pub fn estimated_ratio(self) -> f64 {
        match self {
            Codec::Raw => 1.0,
            Codec::Snappy => 2.0,
            Codec::Zlib1 => 4.0,
            Codec::Zlib3 => 5.0,
            Codec::VarintDelta => 3.0,
        }
    }

    /// Nominal single-core decompression throughput in bytes/second, used by the cost
    /// model (Table V reports ~900 MB/s for snappy and ~50–65 MB/s for zlib).
    pub fn decompress_throughput(self) -> f64 {
        match self {
            Codec::Raw => f64::INFINITY,
            Codec::Snappy => 900.0e6,
            Codec::Zlib1 => 62.0e6,
            Codec::Zlib3 => 52.0e6,
            Codec::VarintDelta => 600.0e6,
        }
    }

    /// Nominal single-core compression throughput in bytes/second, used by the
    /// cost model to bill edge-cache admissions. Table V gives no compression
    /// figure, so this is [`Codec::decompress_throughput`] scaled by a fixed
    /// compress : decompress asymmetry — 1 : 5 for the LZ family, 1 : 1 for
    /// varint-delta. It is a cost-model constant, not a measurement of this
    /// crate's codecs (whose own asymmetry moves with every engine change; the
    /// benchmark's `compress.<codec>.{tile,msg}_{compress,decompress}_mb_per_s`
    /// rows have the current one), and every `simulated_s` in the repository
    /// depends on it staying put.
    pub fn compress_throughput(self) -> f64 {
        match self {
            Codec::Raw | Codec::VarintDelta => self.decompress_throughput(),
            Codec::Snappy | Codec::Zlib1 | Codec::Zlib3 => self.decompress_throughput() / 5.0,
        }
    }

    /// Compress `data`.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }

    /// [`Codec::compress`] into a caller-owned buffer: `out` is cleared and
    /// filled with the compressed bytes (byte-identical to `compress`), so a
    /// hot path that pushes many messages through the codec can reuse one
    /// output allocation for all of them.
    pub fn compress_into(&self, data: &[u8], out: &mut Vec<u8>) {
        self.compress_into_with(data, out, &mut CompressorScratch::new());
    }

    /// [`Codec::compress_into`] with caller-owned compressor state: the LZSS
    /// codecs reuse `scratch`'s match-finder tables instead of re-allocating
    /// them per call, which removes every steady-state allocation from the
    /// compressed broadcast path. Output is byte-identical to [`Codec::compress`]
    /// for every codec; `Raw` and `VarintDelta` need no match-finder state and
    /// only record call statistics on `scratch`.
    pub fn compress_into_with(
        &self,
        data: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut CompressorScratch,
    ) {
        let lz = &mut scratch.lz;
        match self {
            Codec::Raw => {
                out.clear();
                out.extend_from_slice(data);
            }
            Codec::Snappy => lz77::compress_into_with(SNAPPY_MAGIC, data, SNAPPY_CHAIN, out, lz),
            Codec::Zlib1 => lz77::compress_into_with(ZLIB_MAGIC, data, ZLIB1_CHAIN, out, lz),
            Codec::Zlib3 => lz77::compress_into_with(ZLIB_MAGIC, data, ZLIB3_CHAIN, out, lz),
            Codec::VarintDelta => varint::encode_bytes_as_u32_delta_into(data, out),
        }
        scratch.note(data.len(), out.len());
    }

    /// Decompress `data` previously produced by [`Codec::compress`] with the same codec.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
        self.decompress_into(data, &mut out)?;
        Ok(out)
    }

    /// [`Codec::decompress`] into a caller-owned buffer: `out` is cleared and
    /// filled with the decompressed bytes. On error `out` may hold a partial
    /// prefix; treat it as garbage.
    pub fn decompress_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let lz = |magic, out| {
            lz77::decompress_into(magic, data, out).map_err(|e| CompressError::Corrupt(e.0))
        };
        match self {
            Codec::Raw => {
                out.clear();
                out.extend_from_slice(data);
                Ok(())
            }
            Codec::Snappy => lz(SNAPPY_MAGIC, out),
            Codec::Zlib1 | Codec::Zlib3 => lz(ZLIB_MAGIC, out),
            Codec::VarintDelta => {
                varint::decode_u32_delta_to_bytes_into(data, out).map_err(CompressError::Corrupt)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tile_like_data() -> Vec<u8> {
        // CSR column arrays from web graphs mix small per-vertex deltas with hub ids
        // that recur in many adjacency lists; both general-purpose codecs (repeated
        // byte patterns) and the delta codec (small gaps) can exploit this.
        let mut out = Vec::new();
        let hubs: [u32; 4] = [7, 42, 1000, 65_536];
        for vertex in 0..10_000u32 {
            for &h in &hubs {
                out.extend_from_slice(&h.to_le_bytes());
            }
            out.extend_from_slice(&(vertex * 3).to_le_bytes());
        }
        out
    }

    #[test]
    fn all_codecs_roundtrip() {
        let data = sample_tile_like_data();
        for codec in Codec::ALL {
            let compressed = codec.compress(&data);
            let restored = codec.decompress(&compressed).unwrap();
            assert_eq!(restored, data, "codec {}", codec.name());
        }
    }

    /// The `_into` variants must be byte-identical to the allocating API and
    /// safe to call repeatedly on the same (dirty) buffers — that reuse is the
    /// whole point of the broadcast hot path's scratch buffers.
    #[test]
    fn into_variants_match_allocating_api_across_buffer_reuse() {
        let data = sample_tile_like_data();
        let mut compressed = Vec::new();
        let mut restored = Vec::new();
        for codec in Codec::ALL {
            for _ in 0..2 {
                codec.compress_into(&data, &mut compressed);
                assert_eq!(compressed, codec.compress(&data), "codec {}", codec.name());
                codec.decompress_into(&compressed, &mut restored).unwrap();
                assert_eq!(restored, data, "codec {}", codec.name());
            }
        }
        // Corrupt input errors without panicking, whatever is left in `out`.
        assert!(Codec::Snappy
            .decompress_into(&[0xFF; 64], &mut restored)
            .is_err());
    }

    /// `compress_into_with` on a warm, repeatedly reused scratch must stay
    /// byte-identical to the per-call allocating API — across all codecs and
    /// payload shapes, including mid-stream payload-size changes that leave
    /// stale match-finder entries behind.
    #[test]
    fn scratch_reuse_is_byte_identical_for_every_codec() {
        let big = sample_tile_like_data();
        let payloads: [&[u8]; 4] = [&big, b"short", &big[..4096], b""];
        let mut out = Vec::new();
        for codec in Codec::ALL {
            let mut scratch = CompressorScratch::new();
            for round in 0..3 {
                for payload in payloads {
                    codec.compress_into_with(payload, &mut out, &mut scratch);
                    assert_eq!(
                        out,
                        codec.compress(payload),
                        "codec {} round {round} payload len {}",
                        codec.name(),
                        payload.len()
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_counts_calls_bytes_and_reuses() {
        let data = sample_tile_like_data();
        let mut scratch = CompressorScratch::new();
        let mut out = Vec::new();
        let mut expect_out = 0u64;
        for _ in 0..3 {
            Codec::Snappy.compress_into_with(&data, &mut out, &mut scratch);
            expect_out += out.len() as u64;
        }
        assert_eq!(scratch.calls, 3);
        assert_eq!(scratch.bytes_in, 3 * data.len() as u64);
        assert_eq!(scratch.bytes_out, expect_out);
        assert_eq!(scratch.scratch_reuses, 2);
        // Flushing publishes into the global registry and zeroes the locals.
        scratch.publish_observability();
        assert_eq!(scratch.calls(), 0);
        assert!(
            graphh_obs::global_counters()
                .counter("compress.calls")
                .get()
                >= 3
        );
    }

    #[test]
    fn all_codecs_roundtrip_empty_and_small() {
        for codec in Codec::ALL {
            for data in [&b""[..], &b"x"[..], &[0u8, 1, 2, 3][..]] {
                let restored = codec.decompress(&codec.compress(data)).unwrap();
                assert_eq!(restored, data, "codec {}", codec.name());
            }
        }
    }

    #[test]
    fn compressing_codecs_shrink_tile_like_data() {
        let data = sample_tile_like_data();
        for codec in [
            Codec::Snappy,
            Codec::Zlib1,
            Codec::Zlib3,
            Codec::VarintDelta,
        ] {
            let ratio = data.len() as f64 / codec.compress(&data).len() as f64;
            assert!(ratio > 1.2, "codec {} ratio {ratio}", codec.name());
        }
    }

    #[test]
    fn zlib3_compresses_at_least_as_well_as_zlib1() {
        let data = sample_tile_like_data();
        let packed = |codec: Codec| codec.compress(&data).len() as f64;
        assert!(packed(Codec::Zlib3) <= packed(Codec::Zlib1) / 0.99);
    }

    #[test]
    fn cache_mode_mapping_is_bijective_for_paper_modes() {
        for mode in 1u8..=4 {
            let codec = Codec::from_cache_mode(mode).unwrap();
            assert_eq!(codec.cache_mode(), Some(mode));
        }
        assert!(Codec::from_cache_mode(0).is_none());
        assert!(Codec::from_cache_mode(5).is_none());
        assert_eq!(Codec::VarintDelta.cache_mode(), None);
    }

    #[test]
    fn corrupt_data_is_an_error_not_a_panic() {
        let garbage = vec![0xFFu8; 64];
        assert!(Codec::Snappy.decompress(&garbage).is_err());
        assert!(Codec::Zlib1.decompress(&garbage).is_err());
    }

    /// The two LZ frame families: a frame opens with its family's magic, is
    /// refused by the other family's decoder, and — the zlib levels differing
    /// only in how hard the compressor searched — decodes under either level.
    #[test]
    fn lz_frame_families_are_told_apart_by_their_magic() {
        let data = sample_tile_like_data();
        let snappy = Codec::Snappy.compress(&data);
        let zlib1 = Codec::Zlib1.compress(&data);
        let zlib3 = Codec::Zlib3.compress(&data);
        assert_eq!(snappy[0], 0x53);
        assert_eq!((zlib1[0], zlib3[0]), (0x5A, 0x5A));

        for zlib in [Codec::Zlib1, Codec::Zlib3] {
            assert!(matches!(
                zlib.decompress(&snappy),
                Err(CompressError::Corrupt(_))
            ));
            assert_eq!(zlib.decompress(&zlib1).unwrap(), data);
            assert_eq!(zlib.decompress(&zlib3).unwrap(), data);
        }
        for frame in [&zlib1, &zlib3] {
            assert!(matches!(
                Codec::Snappy.decompress(frame),
                Err(CompressError::Corrupt(_))
            ));
        }
    }

    /// A compressed frame arrives from a TCP peer: a 9-byte one whose header
    /// claims 4 GiB must be refused before anything is reserved for it.
    #[test]
    fn a_frame_claiming_4_gib_is_an_error_and_reserves_nothing() {
        for codec in [Codec::Snappy, Codec::Zlib1] {
            let mut frame = codec.compress(b"");
            assert_eq!(frame.len(), 9, "magic, length, checksum");
            frame[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut out = Vec::new();
            assert!(codec.decompress_into(&frame, &mut out).is_err());
            assert_eq!(out.capacity(), 0, "codec {}", codec.name());
        }
    }

    #[test]
    fn estimated_ratios_match_paper_gammas() {
        assert_eq!(Codec::Raw.estimated_ratio(), 1.0);
        assert_eq!(Codec::Snappy.estimated_ratio(), 2.0);
        assert_eq!(Codec::Zlib1.estimated_ratio(), 4.0);
        assert_eq!(Codec::Zlib3.estimated_ratio(), 5.0);
    }

    #[test]
    fn compression_is_never_billed_faster_than_decompression() {
        for codec in Codec::ALL {
            assert!(
                codec.compress_throughput() <= codec.decompress_throughput(),
                "{}",
                codec.name()
            );
        }
        // Raw costs nothing either way; the LZ codecs pay the 1 : 5 asymmetry.
        assert_eq!(Codec::Raw.compress_throughput(), f64::INFINITY);
        assert_eq!(Codec::Zlib1.compress_throughput(), 62.0e6 / 5.0);
    }
}
