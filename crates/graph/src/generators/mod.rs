//! Synthetic graph generators.
//!
//! The paper evaluates on four web/social crawls we cannot redistribute; the
//! generators here produce scaled-down graphs with the same *shape*: heavy-tailed
//! in-degree distributions (R-MAT, Chung-Lu), plus structured graphs (paths,
//! grids, stars, trees) for tests and SSSP workloads.
//!
//! All generators are deterministic given a seed.

mod chung_lu;
mod rmat;
mod structured;

pub use chung_lu::ChungLuGenerator;
pub use rmat::RmatGenerator;
pub use structured::{binary_tree, cycle_graph, grid_graph, path_graph, star_graph};

use crate::Graph;

/// Common interface for all random-graph generators.
pub trait GraphGenerator {
    /// Generate a graph using the given seed.
    fn generate(&self, seed: u64) -> Graph;

    /// Human-readable description (used in experiment logs).
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_are_deterministic() {
        let gens: Vec<Box<dyn GraphGenerator>> = vec![
            Box::new(RmatGenerator::new(8, 4)),
            Box::new(ChungLuGenerator::power_law(100, 5.0, 2.2)),
        ];
        for g in gens {
            let a = g.generate(7);
            let b = g.generate(7);
            assert_eq!(a.num_vertices(), b.num_vertices(), "{}", g.describe());
            assert_eq!(a.num_edges(), b.num_edges(), "{}", g.describe());
            let ea: Vec<_> = a.edges().iter().map(|e| (e.src, e.dst)).collect();
            let eb: Vec<_> = b.edges().iter().map(|e| (e.src, e.dst)).collect();
            assert_eq!(ea, eb, "{}", g.describe());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = RmatGenerator::new(8, 4);
        let a = g.generate(1);
        let b = g.generate(2);
        let ea: Vec<_> = a.edges().iter().map(|e| (e.src, e.dst)).collect();
        let eb: Vec<_> = b.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_ne!(ea, eb);
    }
}
