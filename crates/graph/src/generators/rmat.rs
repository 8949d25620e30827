//! R-MAT (recursive matrix) generator.
//!
//! R-MAT graphs reproduce the heavy-tailed degree distributions of web and social
//! graphs, which is the property the paper's skew-sensitive mechanisms (tile size
//! bounds, PowerGraph vertex cuts, sparse/dense broadcast) react to.

use super::GraphGenerator;
use crate::builder::GraphBuilder;
use crate::edge::{Edge, EdgeList};
use crate::ids::VertexId;
use crate::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Kronecker/R-MAT generator: `2^scale` vertices, `edge_factor * 2^scale` edges.
#[derive(Debug, Clone)]
pub struct RmatGenerator {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex.
    pub edge_factor: u32,
    /// Quadrant probability a (top-left). Defaults follow the Graph500 values.
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Drop duplicate edges and self loops.
    pub simplify: bool,
}

impl RmatGenerator {
    /// Graph500-style parameters (a=0.57, b=0.19, c=0.19, d=0.05).
    pub fn new(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            simplify: false,
        }
    }

    /// Override the quadrant probabilities (`d` is implied as `1 - a - b - c`).
    pub fn with_probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Enable de-duplication and self-loop removal.
    pub fn simplified(mut self) -> Self {
        self.simplify = true;
        self
    }

    /// Number of vertices this generator will produce.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edges this generator will attempt to produce (before simplification).
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * u64::from(self.edge_factor)
    }

    /// One edge: `scale` uniform draws, high bit first, each choosing a
    /// quadrant. The choice is arithmetic on comparisons rather than a
    /// branch — the 57/19/19/5 split is exactly what a predictor cannot learn.
    fn sample_edge(&self, rng: &mut impl Rng) -> Edge {
        let ab = self.a + self.b;
        let abc = ab + self.c;
        let mut src = 0u64;
        let mut dst = 0u64;
        for _ in 0..self.scale {
            let r: f64 = rng.gen();
            let hi_src = r >= ab;
            let hi_dst = ((r >= self.a) & (r < ab)) | (r >= abc);
            src = (src << 1) | u64::from(hi_src);
            dst = (dst << 1) | u64::from(hi_dst);
        }
        Edge::new(src as VertexId, dst as VertexId)
    }
}

impl GraphGenerator for RmatGenerator {
    fn generate(&self, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = self.num_vertices();
        let m = self.num_edges();
        let built = if self.simplify {
            let mut builder = GraphBuilder::new()
                .with_num_vertices(n)
                .dedup(true)
                .drop_self_loops(true);
            for _ in 0..m {
                builder.add_edge(self.sample_edge(&mut rng));
            }
            builder.build()
        } else {
            let mut edges = EdgeList::with_capacity(m as usize);
            for _ in 0..m {
                edges.push(self.sample_edge(&mut rng));
            }
            Graph::from_edges(n, edges)
        };
        built.expect("rmat edges are in range by construction")
    }

    fn describe(&self) -> String {
        format!(
            "rmat(scale={}, edge_factor={}, a={}, b={}, c={})",
            self.scale, self.edge_factor, self.a, self.b, self.c
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeHistogram;

    /// The generator as it stood before the branch-free sampler and the
    /// pre-sized edge list: a three-way `if` per level, every edge through
    /// `GraphBuilder`. Kept as the oracle the live one is compared with.
    fn reference_generate(gen: &RmatGenerator, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new()
            .with_num_vertices(gen.num_vertices())
            .dedup(gen.simplify)
            .drop_self_loops(gen.simplify);
        for _ in 0..gen.num_edges() {
            let (mut src, mut dst) = (0u64, 0u64);
            for level in (0..gen.scale).rev() {
                let r: f64 = rng.gen();
                let (hi_src, hi_dst) = if r < gen.a {
                    (0, 0)
                } else if r < gen.a + gen.b {
                    (0, 1)
                } else if r < gen.a + gen.b + gen.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= hi_src << level;
                dst |= hi_dst << level;
            }
            builder.add_edge(Edge::new(src as VertexId, dst as VertexId));
        }
        builder.build().unwrap()
    }

    #[test]
    fn matches_the_branchy_reference_edge_for_edge() {
        let cases = [
            (10, 8, 0.57, 0.19, 0.19),
            (7, 16, 0.45, 0.15, 0.15),
            (12, 3, 0.25, 0.25, 0.25),
            (9, 5, 0.9, 0.0, 0.05),
            (6, 4, 0.1, 0.6, 0.0),
            (1, 9, 0.57, 0.19, 0.19),
            (0, 3, 0.57, 0.19, 0.19),
        ];
        for (scale, edge_factor, a, b, c) in cases {
            for seed in [0, 1, 2017, u64::MAX] {
                let plain = RmatGenerator::new(scale, edge_factor).with_probabilities(a, b, c);
                for gen in [plain.clone(), plain.simplified()] {
                    let (got, want) = (gen.generate(seed), reference_generate(&gen, seed));
                    let what = format!("{} seed {seed} simplify {}", gen.describe(), gen.simplify);
                    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}");
                    assert_eq!(got.edges().sources(), want.edges().sources(), "{what}");
                    assert_eq!(got.edges().targets(), want.edges().targets(), "{what}");
                    assert_eq!(got.is_weighted(), want.is_weighted(), "{what}");
                    assert_eq!(got.in_degrees(), want.in_degrees(), "{what}");
                    assert_eq!(got.out_degrees(), want.out_degrees(), "{what}");
                }
            }
        }
    }

    #[test]
    fn rmat_produces_requested_size() {
        let g = RmatGenerator::new(10, 8).generate(42);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 8 * 1024);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = RmatGenerator::new(12, 8).generate(42);
        // Top 1% of vertices should own far more than 1% of in-edges.
        let share = DegreeHistogram::top_percent_share(g.in_degrees(), 1.0);
        assert!(share > 0.10, "expected skew, top 1% share = {share}");
    }

    #[test]
    fn simplified_rmat_has_no_self_loops_or_duplicates() {
        let g = RmatGenerator::new(8, 4).simplified().generate(3);
        let mut seen = std::collections::HashSet::new();
        for e in g.edges().iter() {
            assert_ne!(e.src, e.dst);
            assert!(seen.insert((e.src, e.dst)));
        }
        assert!(g.num_edges() <= 4 * 256);
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_rejected() {
        let _ = RmatGenerator::new(4, 2).with_probabilities(0.6, 0.3, 0.3);
    }
}
