//! Whole-graph summary statistics (Table I columns).

use crate::degree::DegreeStats;
use crate::ids::{EdgeCount, VertexCount};
use crate::Graph;

/// The statistics the paper reports for each benchmark dataset in Table I, plus a
/// couple of extras the cost models need (weighted flag, CSV size).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Human-readable dataset name (empty for ad-hoc graphs).
    pub name: String,
    /// Number of vertices.
    pub num_vertices: VertexCount,
    /// Number of directed edges.
    pub num_edges: EdgeCount,
    /// Average degree |E|/|V|.
    pub avg_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Size of the plain-text edge list in bytes.
    pub csv_size_bytes: u64,
    /// Whether edges carry explicit weights.
    pub weighted: bool,
}

impl GraphStats {
    /// Compute statistics for a graph.
    pub fn compute(graph: &Graph) -> Self {
        let d = DegreeStats::from_degrees(graph.in_degrees(), graph.out_degrees());
        Self {
            name: String::new(),
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            avg_degree: d.avg_degree,
            max_in_degree: d.max_in_degree,
            max_out_degree: d.max_out_degree,
            csv_size_bytes: graph.edges().csv_size_bytes(),
            weighted: graph.is_weighted(),
        }
    }

    /// Attach a dataset name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

/// Format a byte count with binary suffixes (e.g. `1.5 GiB`).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{Edge, EdgeList};

    #[test]
    fn stats_reflect_graph_shape() {
        let mut edges = EdgeList::new_unweighted();
        for i in 0..10u32 {
            edges.push(Edge::new(i, 0));
        }
        let g = Graph::from_edges(11, edges).unwrap();
        let s = g.stats().named("star");
        assert_eq!(s.name, "star");
        assert_eq!(s.num_vertices, 11);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.max_in_degree, 10);
        assert_eq!(s.max_out_degree, 1);
        assert!(!s.weighted);
        assert!(s.csv_size_bytes > 0);
    }

    #[test]
    fn human_bytes_scales_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert!(human_bytes(3 * 1024 * 1024).starts_with("3.00 MiB"));
        assert!(human_bytes(5 * 1024 * 1024 * 1024).starts_with("5.00 GiB"));
    }
}
