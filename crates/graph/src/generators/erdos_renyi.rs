//! Erdős–Rényi G(n, m) generator: m uniformly random directed edges.

use super::GraphGenerator;
use crate::builder::GraphBuilder;
use crate::edge::Edge;
use crate::ids::VertexId;
use crate::Graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Uniform random directed graph with a fixed vertex and edge count.
///
/// The paper's All-in-All vs On-Demand memory analysis (§IV-A, eq. 4–5) assumes a
/// random graph; this generator lets the tests check those formulas empirically.
#[derive(Debug, Clone)]
pub struct ErdosRenyiGenerator {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of edges to sample.
    pub num_edges: u64,
}

impl ErdosRenyiGenerator {
    /// A G(n, m) generator.
    pub fn new(num_vertices: u64, num_edges: u64) -> Self {
        Self {
            num_vertices,
            num_edges,
        }
    }
}

impl GraphGenerator for ErdosRenyiGenerator {
    fn generate(&self, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new().with_num_vertices(self.num_vertices);
        for _ in 0..self.num_edges {
            let src = rng.gen_range(0..self.num_vertices) as VertexId;
            let dst = rng.gen_range(0..self.num_vertices) as VertexId;
            builder.add_edge(Edge::new(src, dst));
        }
        builder.build().expect("sampled ids are in range")
    }

    fn describe(&self) -> String {
        format!("erdos_renyi(n={}, m={})", self.num_vertices, self.num_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_has_exact_counts_without_filtering() {
        let g = ErdosRenyiGenerator::new(50, 200).generate(1);
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn er_degree_distribution_is_roughly_uniform() {
        let g = ErdosRenyiGenerator::new(1000, 20_000).generate(5);
        let max_in = *g.in_degrees().iter().max().unwrap();
        // Expected degree 20; a uniform random graph should not have extreme hubs.
        assert!(max_in < 80, "max in-degree {max_in} too large for ER graph");
    }
}
