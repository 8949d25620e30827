//! Seeded inputs. `--seed` feeds the RMAT generator and the source picks
//! and nothing else; the program under test receives only generated inputs.

use crate::trace::Recorder;
use graphh::graph::generators::grid_graph;
use graphh::prelude::*;
use std::time::Instant;

/// The graph a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// `RmatGenerator::new(scale, edge_factor).generate(seed)`.
    Rmat { scale: u32, edge_factor: u32 },
    /// `grid_graph(side, side)`: unit weights, bidirectional edges.
    Grid { side: u64 },
}

impl GraphKind {
    pub fn generate(self, seed: u64) -> Graph {
        match self {
            GraphKind::Rmat { scale, edge_factor } => {
                RmatGenerator::new(scale, edge_factor).generate(seed)
            }
            GraphKind::Grid { side } => grid_graph(side, side),
        }
    }
}

/// A generated and partitioned graph, with what each stage cost.
pub struct Inputs {
    pub graph: Graph,
    pub partitioned: PartitionedGraph,
    pub generate_s: f64,
    pub spe_s: f64,
}

impl Inputs {
    /// Generate and partition once (the `engine` driver's set-up), with a
    /// span around each stage.
    pub fn build(kind: GraphKind, seed: u64, tiles: u32, rec: &Recorder) -> Inputs {
        let span = rec.span("graph.generate");
        let started = Instant::now();
        let graph = kind.generate(seed);
        let generate_s = started.elapsed().as_secs_f64();
        drop(span);
        let span = rec.span("partition.spe");
        let started = Instant::now();
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("bench", &graph, tiles))
                .expect("partitioning a generated graph cannot fail");
        let spe_s = started.elapsed().as_secs_f64();
        drop(span);
        Inputs {
            graph,
            partitioned,
            generate_s,
            spe_s,
        }
    }
}

/// SplitMix64: the harness's only random source, so picks depend on the
/// seed and nothing else.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// gapbs's `SourcePicker`: `count` distinct seeded vertices with a non-zero
/// out-degree (a source without out-edges makes a one-superstep run).
/// Returns fewer when the graph has fewer such vertices.
pub fn pick_sources(out_degrees: &[u32], seed: u64, count: usize) -> Vec<u32> {
    let eligible = out_degrees.iter().filter(|&&d| d > 0).count();
    let mut rng = SplitMix64::new(seed);
    let mut picked = Vec::new();
    while picked.len() < count.min(eligible) {
        let v = (rng.next_u64() % out_degrees.len() as u64) as u32;
        if out_degrees[v as usize] > 0 && !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// The grid corner `seed` selects as the SSSP source.
pub fn pick_corner(side: u64, seed: u64) -> u32 {
    let last = side * side - 1;
    let corners = [0, side - 1, last + 1 - side, last];
    corners[(SplitMix64::new(seed).next_u64() % 4) as usize] as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_picker_is_deterministic_and_skips_zero_out_degree() {
        // Only vertices 3 and 7 have out-edges.
        let mut degrees = vec![0u32; 64];
        degrees[3] = 2;
        degrees[7] = 1;
        let a = pick_sources(&degrees, 2017, 8);
        assert_eq!(a, pick_sources(&degrees, 2017, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 7], "all eligible vertices, no other");

        let dense = vec![1u32; 1000];
        let picks = pick_sources(&dense, 1, 8);
        assert_eq!(picks.len(), 8);
        assert_ne!(picks, pick_sources(&dense, 2, 8), "seed moves the picks");
        assert!(pick_sources(&[0, 0], 5, 3).is_empty());
    }

    #[test]
    fn corner_pick_is_a_corner_and_seeded() {
        let corners = [0u32, 9, 90, 99];
        let picks: Vec<u32> = (0..32).map(|seed| pick_corner(10, seed)).collect();
        assert!(picks.iter().all(|c| corners.contains(c)));
        assert!(
            corners.iter().all(|c| picks.contains(c)),
            "every corner reachable"
        );
        assert_eq!(pick_corner(10, 7), pick_corner(10, 7));
    }
}
