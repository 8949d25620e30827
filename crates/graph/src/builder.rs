//! Incremental graph construction with optional de-duplication.

use crate::edge::{Edge, EdgeList};
use crate::ids::{VertexCount, VertexId};
use crate::{Graph, GraphError};

/// Builds a [`Graph`] from individually inserted edges.
///
/// The builder tracks the maximum vertex id seen so the caller does not need to know
/// `|V|` up front, and can optionally drop duplicate and self-loop edges.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    edges: EdgeList,
    dedup: bool,
    drop_self_loops: bool,
    symmetric: bool,
    seen: std::collections::HashSet<(VertexId, VertexId)>,
    explicit_num_vertices: Option<VertexCount>,
}

impl GraphBuilder {
    /// A new builder for an unweighted graph.
    pub fn new() -> Self {
        Self {
            edges: EdgeList::new_unweighted(),
            ..Default::default()
        }
    }

    /// A new builder for a weighted graph.
    pub fn new_weighted() -> Self {
        Self {
            edges: EdgeList::new_weighted(),
            ..Default::default()
        }
    }

    /// Drop duplicate `(src, dst)` pairs.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Drop self-loop edges (`src == dst`).
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Insert the reverse of every edge too (treat input as undirected).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Fix the vertex count instead of deriving it from the maximum edge endpoint.
    pub fn with_num_vertices(mut self, n: VertexCount) -> Self {
        self.explicit_num_vertices = Some(n);
        self
    }

    /// Add a single edge, applying the configured filters.
    pub fn add_edge(&mut self, edge: Edge) -> &mut Self {
        self.insert(edge);
        if self.symmetric && edge.src != edge.dst {
            self.insert(edge.reversed());
        }
        self
    }

    fn insert(&mut self, edge: Edge) {
        if self.drop_self_loops && edge.src == edge.dst {
            return;
        }
        if self.dedup && !self.seen.insert((edge.src, edge.dst)) {
            return;
        }
        self.edges.push(edge);
    }

    /// Number of edges accepted so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edge has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finish building. The vertex count is the explicit one if set, otherwise
    /// `max id + 1` (0 for an empty graph).
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self
            .explicit_num_vertices
            .unwrap_or_else(|| self.edges.max_vertex_id().map_or(0, |m| u64::from(m) + 1));
        Graph::from_edges(n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_derives_vertex_count() {
        let mut b = GraphBuilder::new();
        b.add_edge(Edge::new(0, 5));
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn builder_dedup_and_self_loops() {
        let mut b = GraphBuilder::new().dedup(true).drop_self_loops(true);
        b.add_edge(Edge::new(1, 2));
        b.add_edge(Edge::new(1, 2));
        b.add_edge(Edge::new(3, 3));
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn builder_symmetric_duplicates_reverse() {
        let mut b = GraphBuilder::new().symmetric(true);
        b.add_edge(Edge::new(0, 1));
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn builder_explicit_vertex_count_allows_isolated() {
        let mut b = GraphBuilder::new().with_num_vertices(100);
        b.add_edge(Edge::new(0, 1));
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 100);
    }

    #[test]
    fn builder_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
