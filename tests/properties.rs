//! Property-based tests of the core data structures and invariants.
//!
//! Offline rewrite of the original proptest suite: each property runs over a
//! deterministic sweep of seeded random cases produced by a small inline PRNG,
//! so failures are reproducible by case index without any external crates.

use graphh::cluster::{BroadcastEncoding, BroadcastMessage, CommunicationMode};
use graphh::compress::Codec;
use graphh::core::reference;
use graphh::prelude::*;

/// Cases per property (the proptest suite used 32).
const CASES: u64 = 32;

/// splitmix64: one u64 per call, fully determined by the evolving state.
struct CaseRng(u64);

impl CaseRng {
    fn new(case: u64) -> Self {
        Self(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case + 1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next() % n
    }
}

fn arbitrary_edges(rng: &mut CaseRng, max_v: u32, max_e: u64) -> Vec<(u32, u32)> {
    let count = rng.below(max_e + 1);
    (0..count)
        .map(|_| {
            (
                rng.below(u64::from(max_v)) as u32,
                rng.below(u64::from(max_v)) as u32,
            )
        })
        .collect()
}

#[test]
fn partitioning_conserves_every_edge() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(case);
        let edges = arbitrary_edges(&mut rng, 200, 400);
        let tile_size = 1 + rng.below(49);
        let mut builder = GraphBuilder::new().with_num_vertices(200);
        for &(s, d) in &edges {
            builder.add_edge(Edge::new(s, d));
        }
        let graph = builder.build().unwrap();
        let partitioned = Spe::partition(&graph, &SpeConfig::new("prop", tile_size)).unwrap();
        assert_eq!(partitioned.num_edges(), graph.num_edges(), "case {case}");
        // Every edge is in the tile owning its target, and tile ranges are disjoint.
        let mut recovered: Vec<(u32, u32)> = Vec::new();
        for tile in &partitioned.tiles {
            for target in tile.targets() {
                for (src, _) in tile.in_edges(target) {
                    recovered.push((src, target));
                }
            }
        }
        let mut expected = edges.clone();
        expected.sort_unstable();
        recovered.sort_unstable();
        assert_eq!(recovered, expected, "case {case}");
    }
}

#[test]
fn tile_serialization_roundtrips() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(1000 + case);
        let edges = arbitrary_edges(&mut rng, 64, 200);
        let mut builder = GraphBuilder::new().with_num_vertices(64);
        for &(s, d) in &edges {
            builder.add_edge(Edge::new(s, d));
        }
        let graph = builder.build().unwrap();
        let partitioned = Spe::partition(&graph, &SpeConfig::new("prop", 16)).unwrap();
        for tile in &partitioned.tiles {
            let bytes = tile.to_bytes();
            assert_eq!(bytes.len() as u64, tile.serialized_size(), "case {case}");
            let back = Tile::from_bytes(&bytes).unwrap();
            assert_eq!(&back, tile, "case {case}");
        }
    }
}

#[test]
fn codecs_roundtrip_arbitrary_bytes() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(2000 + case);
        let len = rng.below(2048) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        for codec in Codec::ALL {
            let restored = codec.decompress(&codec.compress(&data)).unwrap();
            assert_eq!(restored, data, "codec {} case {case}", codec.name());
        }
    }
}

/// A broadcast message over `[range_start, range_start + len)` updating a
/// deterministic pseudo-random subset of `updated` vertices.
fn random_message(rng: &mut CaseRng, range_start: u32, len: u32, updated: u32) -> BroadcastMessage {
    let mut picks: Vec<u32> = (0..len).collect();
    // Partial Fisher-Yates: the first `updated` entries are the chosen subset.
    for i in 0..updated.min(len) as usize {
        let j = i + rng.below((len as usize - i) as u64) as usize;
        picks.swap(i, j);
    }
    let mut chosen: Vec<u32> = picks[..updated.min(len) as usize].to_vec();
    chosen.sort_unstable();
    let updates = chosen
        .iter()
        .map(|&p| (range_start + p, f64::from(p) * 0.25 - 3.0))
        .collect();
    BroadcastMessage::new(range_start, range_start + len, updates)
}

#[test]
fn broadcast_encodings_decode_to_the_same_updates() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(3000 + case);
        let range_start = rng.below(1000) as u32;
        let len = 1 + rng.below(299) as u32;
        let updated = rng.below(u64::from(len) + 1) as u32;
        let msg = random_message(&mut rng, range_start, len, updated);
        for enc in [BroadcastEncoding::Dense, BroadcastEncoding::Sparse] {
            let decoded = BroadcastMessage::decode(&msg.encode(enc)).unwrap();
            assert_eq!(decoded.updates, msg.updates, "case {case} {enc:?}");
            assert_eq!(decoded.range_start, msg.range_start);
            assert_eq!(decoded.range_end, msg.range_end);
        }
        assert_hybrid_picks_the_smaller(&msg, &format!("case {case}"));
    }
}

/// The hybrid policy is the two encoded sizes compared: sparse only when it
/// is strictly smaller.
fn assert_hybrid_picks_the_smaller(msg: &BroadcastMessage, what: &str) {
    let dense = msg.encoded_size(BroadcastEncoding::Dense);
    let sparse = msg.encoded_size(BroadcastEncoding::Sparse);
    let expected = if sparse < dense {
        BroadcastEncoding::Sparse
    } else {
        BroadcastEncoding::Dense
    };
    assert_eq!(
        msg.choose_encoding(CommunicationMode::Hybrid),
        expected,
        "{what}: dense {dense} bytes, sparse {sparse} bytes"
    );
}

/// The full wire path (encode → compress → decompress → decode) is lossless
/// for every encoding policy × codec, across sparsity ratios that bracket the
/// hybrid policy's break-even (25 one-byte gaps against a 25-byte bitmap).
#[test]
fn broadcast_wire_path_is_lossless_across_sparsity_ratios() {
    let len = 200u32;
    // updated counts giving sparsity ratios 1.0, 0.995, 0.9, just above /
    // about at / just below the break-even, 0.5, 0.0.
    let updated_counts = [0u32, 1, 20, 23, 24, 25, 26, 100, 200];
    let modes = [
        CommunicationMode::Dense,
        CommunicationMode::Sparse,
        CommunicationMode::Hybrid,
    ];
    let codecs = [
        None,
        Some(Codec::Raw),
        Some(Codec::Snappy),
        Some(Codec::Zlib1),
        Some(Codec::Zlib3),
    ];
    for (i, &updated) in updated_counts.iter().enumerate() {
        let mut rng = CaseRng::new(4000 + i as u64);
        let msg = random_message(&mut rng, 64, len, updated);
        // The boundary itself: sparse only when strictly smaller, so a
        // message whose two indexes tie stays dense.
        assert_hybrid_picks_the_smaller(&msg, &format!("updated={updated}"));
        for mode in modes {
            let enc = msg.choose_encoding(mode);
            for codec in codecs {
                let encoded = msg.encode(enc);
                let wire = match codec {
                    None | Some(Codec::Raw) => encoded.clone(),
                    Some(c) => c.compress(&encoded),
                };
                let restored = match codec {
                    None | Some(Codec::Raw) => wire,
                    Some(c) => c.decompress(&wire).unwrap(),
                };
                let decoded = BroadcastMessage::decode(&restored).unwrap();
                assert_eq!(
                    decoded.updates, msg.updates,
                    "updated={updated} mode={mode:?} codec={codec:?}"
                );
            }
        }
    }
}

#[test]
fn pagerank_mass_is_bounded_and_engine_matches_reference() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(5000 + case);
        let scale = 4 + rng.below(3) as u32;
        let edge_factor = 2 + rng.below(4) as u32;
        let seed = rng.below(50);
        let graph = RmatGenerator::new(scale, edge_factor).generate(seed);
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("prop", &graph, 6)).unwrap();
        let engine =
            GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)));
        let result = engine.run(&partitioned, &PageRank::new(5)).unwrap();
        let expected = reference::pagerank(&graph, 5);
        assert!(
            reference::max_abs_diff(&result.values, &expected) < 1e-9,
            "case {case}"
        );
        let sum: f64 = result.values.iter().sum();
        assert!(sum > 0.0 && sum <= 1.0 + 1e-9, "case {case} sum {sum}");
    }
}

#[test]
fn sssp_distances_respect_triangle_inequality_on_edges() {
    for case in 0..CASES {
        let mut rng = CaseRng::new(6000 + case);
        let rows = 2 + rng.below(4);
        let cols = 2 + rng.below(4);
        let graph = graphh::graph::generators::grid_graph(rows, cols);
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("prop", &graph, 4)).unwrap();
        let engine =
            GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)));
        let result = engine.run(&partitioned, &Sssp::new(0)).unwrap();
        // dist(v) <= dist(u) + w(u, v) for every edge.
        for e in graph.edges().iter() {
            let du = result.values[e.src as usize];
            let dv = result.values[e.dst as usize];
            assert!(dv <= du + f64::from(e.weight) + 1e-9, "case {case}");
        }
        assert_eq!(result.values[0], 0.0);
    }
}
