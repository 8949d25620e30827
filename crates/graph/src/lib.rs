//! # graphh-graph
//!
//! Graph substrate for the GraphH reproduction (CLUSTER 2017).
//!
//! This crate provides everything the rest of the workspace needs to *describe* graphs:
//!
//! * compact vertex / edge identifiers ([`VertexId`], [`ids`]),
//! * edge lists ([`edge::EdgeList`]) and builders ([`builder::GraphBuilder`]),
//! * compressed sparse row/column adjacency ([`csr::Csr`], [`csr::Csc`]),
//! * degree statistics ([`degree`], [`properties::GraphStats`]),
//! * synthetic graph generators (R-MAT, Chung-Lu, and structured graphs) in
//!   [`generators`],
//! * the scaled-down stand-ins for the paper's benchmark datasets (Table I) in
//!   [`datasets`].
//!
//! The paper operates on directed graphs; an undirected graph is represented by
//! inserting both arc directions.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod degree;
pub mod edge;
pub mod generators;
pub mod ids;
pub mod properties;

pub use builder::GraphBuilder;
pub use csr::{Csc, Csr};
pub use datasets::{Dataset, DatasetSpec};
pub use degree::DegreeStats;
pub use edge::{Edge, EdgeList};
pub use ids::{EdgeCount, VertexCount, VertexId};
pub use properties::GraphStats;

/// A directed graph held fully in memory: its edge list plus derived degree arrays.
///
/// This is the canonical exchange format between the pre-processing engine
/// (`graphh-partition`) and everything that needs raw graphs (generators, tests,
/// baselines that partition differently from GraphH).
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of vertices; vertex ids are `0..num_vertices`.
    num_vertices: VertexCount,
    /// The directed edges.
    edges: EdgeList,
    /// Out-degree of every vertex.
    out_degree: Vec<u32>,
    /// In-degree of every vertex.
    in_degree: Vec<u32>,
}

impl Graph {
    /// Build a graph from an edge list over `num_vertices` vertices.
    ///
    /// Edges referring to vertices `>= num_vertices` are rejected: the first
    /// such edge, named by its larger endpoint.
    pub fn from_edges(num_vertices: VertexCount, edges: EdgeList) -> Result<Self, GraphError> {
        let (in_degree, out_degree) = degree::compute_degrees(num_vertices, &edges)?;
        Ok(Self {
            num_vertices,
            edges,
            out_degree,
            in_degree,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexCount {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> EdgeCount {
        self.edges.len() as EdgeCount
    }

    /// Borrow the edge list.
    pub fn edges(&self) -> &EdgeList {
        &self.edges
    }

    /// Out-degree array indexed by vertex id.
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degree
    }

    /// In-degree array indexed by vertex id.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }

    /// Out-degree of a single vertex.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degree[v as usize]
    }

    /// In-degree of a single vertex.
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_degree[v as usize]
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.edges.is_weighted()
    }

    /// Build the out-adjacency CSR (edges grouped by source).
    pub fn to_csr(&self) -> Csr {
        Csr::from_edges(self.num_vertices, &self.edges)
    }

    /// Build the in-adjacency CSC (edges grouped by target). This is the layout
    /// GraphH tiles use, because GAB gathers along in-edges.
    pub fn to_csc(&self) -> Csc {
        Csc::from_edges(self.num_vertices, &self.edges)
    }

    /// Summary statistics used by Table I and the cost models.
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(self)
    }
}

/// Errors produced by graph construction.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint is outside `0..num_vertices`.
    VertexOutOfRange {
        /// Offending vertex id.
        vertex: VertexId,
        /// Declared vertex count.
        num_vertices: VertexCount,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 -> 2
        let mut edges = EdgeList::new_unweighted();
        edges.push(Edge::new(0, 1));
        edges.push(Edge::new(0, 2));
        edges.push(Edge::new(1, 2));
        edges.push(Edge::new(2, 0));
        edges.push(Edge::new(3, 2));
        Graph::from_edges(4, edges).unwrap()
    }

    #[test]
    fn graph_counts() {
        let g = toy_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert!(!g.is_weighted());
    }

    #[test]
    fn graph_degrees() {
        let g = toy_graph();
        assert_eq!(g.out_degrees(), &[2, 1, 1, 1]);
        assert_eq!(g.in_degrees(), &[1, 1, 3, 0]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 3);
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let mut edges = EdgeList::new_unweighted();
        edges.push(Edge::new(0, 9));
        let GraphError::VertexOutOfRange { vertex, .. } = Graph::from_edges(4, edges).unwrap_err();
        assert_eq!(vertex, 9);
    }

    #[test]
    fn csr_and_csc_agree_on_edge_count() {
        let g = toy_graph();
        assert_eq!(g.to_csr().num_edges(), g.num_edges());
        assert_eq!(g.to_csc().num_edges(), g.num_edges());
    }

    #[test]
    fn error_display_is_informative() {
        let err = GraphError::VertexOutOfRange {
            vertex: 9,
            num_vertices: 4,
        };
        assert!(err.to_string().contains("vertex 9"));
    }
}
