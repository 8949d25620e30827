//! Differential oracle for the broadcast wire layout.
//!
//! [`reference`] is the layout the engine shipped before the packed one: a
//! dense message was a bitmap plus an 8-byte slot for *every* vertex of the
//! range, a sparse one `(u32 id, f64)` pairs. It is kept here — a test file, so
//! `src/` holds one layout — byte for byte, as what the packed layout must agree with: for every message below, under
//! both index kinds and every compressor, what the new decoder visits — ids
//! and the values' bit patterns — is what the old decoder visited.

use graphh_cluster::{
    BroadcastEncoding, BroadcastMessage, ClusterConfig, CommunicationMode, MessageCodec,
    ServerMetrics,
};
use graphh_compress::{Codec, CompressorScratch};
use graphh_core::exec::{merge_updates_in_place, ExecutionPlan, ServerState};
use graphh_core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_core::GraphHConfig;
use graphh_graph::generators::{grid_graph, GraphGenerator, RmatGenerator};
use graphh_graph::{Graph, GraphBuilder};
use graphh_partition::{Spe, SpeConfig};

/// The slot-per-vertex layout: `BroadcastMessage::{encode_into, decode_each,
/// encoded_size}` as `network.rs` had them, bodies unchanged (`self` is `m`).
mod reference {
    use super::{BroadcastEncoding, BroadcastMessage};
    use graphh_cluster::network::BroadcastHeader;
    use graphh_graph::ids::VertexId;

    pub fn encode_into(m: &BroadcastMessage, encoding: BroadcastEncoding, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(encoded_size(m, encoding) as usize);
        out.push(match encoding {
            BroadcastEncoding::Dense => 0u8,
            BroadcastEncoding::Sparse => 1u8,
        });
        out.extend_from_slice(&m.range_start.to_le_bytes());
        out.extend_from_slice(&m.range_end.to_le_bytes());
        out.extend_from_slice(&(m.updates.len() as u32).to_le_bytes());
        match encoding {
            BroadcastEncoding::Dense => {
                let n = m.range_len() as usize;
                let bitmap_at = out.len();
                let values_at = bitmap_at + n.div_ceil(8);
                // Zero-fill the bitmap + value region in place (within the
                // reserved capacity), then patch the updated slots.
                out.resize(values_at + n * 8, 0);
                for &(v, val) in &m.updates {
                    let i = (v - m.range_start) as usize;
                    out[bitmap_at + i / 8] |= 1 << (i % 8);
                    out[values_at + i * 8..values_at + i * 8 + 8]
                        .copy_from_slice(&val.to_le_bytes());
                }
            }
            BroadcastEncoding::Sparse => {
                for &(v, val) in &m.updates {
                    out.extend_from_slice(&v.to_le_bytes());
                    out.extend_from_slice(&val.to_le_bytes());
                }
            }
        }
    }

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
    pub fn encoded_size(m: &BroadcastMessage, encoding: BroadcastEncoding) -> u64 {
        let header = 13u64;
        match encoding {
            BroadcastEncoding::Dense => {
                let n = u64::from(m.range_len());
                header + n.div_ceil(8) + n * 8
            }
            BroadcastEncoding::Sparse => header + m.updates.len() as u64 * 12,
        }
    }
}

const COMPRESSORS: [Option<Codec>; 6] = [
    None,
    Some(Codec::Raw),
    Some(Codec::Snappy),
    Some(Codec::Zlib1),
    Some(Codec::Zlib3),
    Some(Codec::VarintDelta),
];

/// Which value form a plain message took (tag bit 1).
fn ships_ints(plain: &[u8]) -> bool {
    plain[0] & 0b10 != 0
}

/// Reused across every message of a sweep, as the engine's lanes are.
#[derive(Default)]
struct Buffers {
    enc_scratch: Vec<u8>,
    wire: Vec<u8>,
    dec_scratch: Vec<u8>,
    comp: CompressorScratch,
}

/// `decode(encode(m))` against the reference, both index kinds × all six
/// compressors; returns whether `m` shipped as integers.
fn agrees_with_the_reference(m: &BroadcastMessage, bufs: &mut Buffers, what: &str) -> bool {
    let bits = |v: u32, val: f64| (v, val.to_bits());
    let mut ints = None;
    for (encoding, mode) in [
        (BroadcastEncoding::Dense, CommunicationMode::Dense),
        (BroadcastEncoding::Sparse, CommunicationMode::Sparse),
    ] {
        let mut expected = Vec::new();
        reference::encode_into(m, encoding, &mut bufs.wire);
        assert_eq!(bufs.wire.len() as u64, reference::encoded_size(m, encoding));
        reference::decode_each(&bufs.wire, |v, val| expected.push(bits(v, val)))
            .expect("the reference reads its own bytes");
        let sent: Vec<_> = m.updates.iter().map(|&(v, val)| bits(v, val)).collect();
        assert_eq!(expected, sent, "{what}: the reference itself");

        let plain = m.encode(encoding);
        assert_eq!(
            plain.len() as u64,
            m.encoded_size(encoding),
            "{what} {encoding:?}: encoded_size"
        );
        // Both index kinds carry the same values, so the same value form.
        assert_eq!(*ints.get_or_insert(ships_ints(&plain)), ships_ints(&plain));

        for compressor in COMPRESSORS {
            let what = format!("{what} {encoding:?} {compressor:?}");
            let codec = MessageCodec::new(mode, compressor);
            let mut metrics = ServerMetrics::default();
            let chosen = codec.encode_into_with(
                m,
                &mut metrics,
                &mut bufs.enc_scratch,
                &mut bufs.wire,
                &mut bufs.comp,
            );
            assert_eq!(chosen, encoding, "{what}");
            if matches!(compressor, None | Some(Codec::Raw)) {
                assert_eq!(bufs.wire, plain, "{what}: the plain layout, unwrapped");
            }
            let mut seen = Vec::new();
            let header = codec
                .decode_each(&bufs.wire, &mut metrics, &mut bufs.dec_scratch, |v, val| {
                    seen.push(bits(v, val));
                })
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(seen, expected, "{what}");
            assert_eq!(
                (
                    header.encoding,
                    header.range_start,
                    header.range_end,
                    header.count as usize
                ),
                (encoding, m.range_start, m.range_end, m.updates.len()),
                "{what}: header"
            );
        }
    }
    ints.expect("two encodings were checked")
}

/// Both edge directions of `base`, as the registry's undirected kernels
/// expect their input.
fn symmetrised(base: &Graph) -> Graph {
    let mut b = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for e in base.edges().iter() {
        b.add_edge(e);
    }
    b.build().unwrap()
}

/// Run every registry program on `graph` (2 servers, 8 tiles) the way the
/// sequential executor does and hand every message any server broadcasts, in
/// any superstep, to `check`. Returns how many messages that was.
fn every_real_message(graph: &Graph, mut check: impl FnMut(&BroadcastMessage, &str)) -> usize {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
    let undirected = symmetrised(graph);
    let mut messages = 0;
    for spec in PROGRAMS {
        let graph = if spec.symmetrize_input {
            &undirected
        } else {
            graph
        };
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "6");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .unwrap();
        let program = program.as_ref();
        let partitioned =
            Spe::partition(graph, &SpeConfig::with_tile_count("oracle", graph, 8)).unwrap();
        let plan = ExecutionPlan::prepare(&config, &partitioned, program).unwrap();
        let mut servers: Vec<_> = (0..2)
            .map(|sid| ServerState::build(&config, &plan, &partitioned, sid))
            .collect();
        let mut frontier = plan.initial_frontier();
        for superstep in 0..plan.max_supersteps {
            let view = plan.frontier_view(program, &frontier);
            let mut updates = Vec::new();
            for server in &mut servers {
                let phase = server
                    .run_tile_phase(program, &plan, superstep, &view, true)
                    .unwrap();
                for message in phase.messages {
                    check(&message, &format!("{} superstep {superstep}", spec.name));
                    messages += 1;
                    updates.extend(message.updates);
                }
            }
            merge_updates_in_place(&mut updates);
            for server in &mut servers {
                server.apply_updates(&updates);
            }
            frontier = updates.iter().map(|&(v, _)| v).collect();
            if frontier.is_empty() {
                break;
            }
        }
    }
    messages
}

#[test]
fn every_registry_programs_real_messages_decode_as_the_reference_did() {
    let rmat = RmatGenerator::new(10, 8).generate(2017);
    let grid = grid_graph(8, 8);
    let mut bufs = Buffers::default();
    for (name, graph) in [("rmat-10", &rmat), ("grid-8x8", &grid)] {
        let (mut ints, mut planes) = (0, 0);
        let messages = every_real_message(graph, |message, what| {
            let what = format!("{name} {what}");
            match agrees_with_the_reference(message, &mut bufs, &what) {
                true => ints += 1,
                false => planes += 1,
            }
        });
        // Both value forms really occur: PageRank ships reals, the BFS /
        // component / label kernels integers.
        assert!(ints > 0 && planes > 0, "{name}: {ints} + {planes}");
        assert_eq!(ints + planes, messages);
    }
}

/// Values that sit on every edge of the integer test, and the bit patterns
/// only a byte-exact path preserves.
const AWKWARD: [f64; 16] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN with a payload
    f64::from_bits(0xFFF0_0000_0000_0001), // signalling, negative
    f64::from_bits(1),                     // smallest subnormal
    f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
    0.5,
    -1.0,
    1.0,
    4_294_967_295.0,         // 2³² − 1: the last integer code
    4_294_967_296.0,         // 2³²: a plane value
    9_007_199_254_740_992.0, // 2⁵³
    f64::MAX,
    f64::MIN_POSITIVE,
];

#[test]
fn range_and_value_edge_cases_decode_as_the_reference_did() {
    let mut bufs = Buffers::default();
    let mut check =
        |m: &BroadcastMessage, what: &str| agrees_with_the_reference(m, &mut bufs, what);

    // Range lengths around the bitmap's byte and word edges × no update,
    // one, every other, all — as integers and as reals.
    for n in [0u32, 1, 7, 8, 63, 64, 65, 1000] {
        for start in [0, 37] {
            let picks: [Vec<u32>; 4] = [
                vec![],
                (0..n).rev().take(1).collect(),
                (0..n).step_by(2).collect(),
                (0..n).collect(),
            ];
            for slots in &picks {
                let level = |i: u32| (start + i, f64::from(i % 5));
                let real = |i: u32| (start + i, 1.0 / f64::from(i + 3));
                let what = format!("n {n} start {start} count {}", slots.len());
                let m = BroadcastMessage::new(
                    start,
                    start + n,
                    slots.iter().map(|&i| level(i)).collect(),
                );
                assert!(check(&m, &what), "{what}: integers");
                let m = BroadcastMessage::new(
                    start,
                    start + n,
                    slots.iter().map(|&i| real(i)).collect(),
                );
                assert_eq!(check(&m, &what), slots.is_empty(), "{what}: reals");
            }
        }
    }

    // Each awkward value alone, then all of them in one message.
    for (i, &value) in AWKWARD.iter().enumerate() {
        let m = BroadcastMessage::new(10, 20, vec![(13, value)]);
        let integer = [0, 2, 10, 11].contains(&i); // 0.0, +∞, 1.0, 2³² − 1
        assert_eq!(check(&m, &format!("{value:e}")), integer, "{value:e}");
    }
    let all = AWKWARD.iter().enumerate().map(|(i, &v)| (i as u32 * 3, v));
    assert!(!check(
        &BroadcastMessage::new(0, 64, all.collect()),
        "all awkward values"
    ));

    // One non-integral value among integers sends the whole message to the
    // planes — wherever it sits.
    for odd_one in [0, 57, 199] {
        let mut updates: Vec<_> = (0..200).map(|v| (v, f64::from(v % 9))).collect();
        assert!(check(
            &BroadcastMessage::new(0, 256, updates.clone()),
            "levels"
        ));
        updates[odd_one].1 = 2.5;
        assert!(!check(
            &BroadcastMessage::new(0, 256, updates),
            "levels and one 2.5"
        ));
    }

    // The far end of the id space: gaps and slots near `u32::MAX`.
    let top = u32::MAX;
    let m = BroadcastMessage::new(
        top - 70,
        top,
        vec![(top - 70, 1.0), (top - 1, f64::INFINITY)],
    );
    assert!(check(&m, "ids up to u32::MAX - 1"));
}
