//! Deterministic structured graphs used by tests and the SSSP / traversal examples.

use crate::builder::GraphBuilder;
use crate::edge::Edge;
use crate::ids::VertexId;
use crate::Graph;

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path_graph(n: u64) -> Graph {
    let mut b = GraphBuilder::new().with_num_vertices(n);
    for i in 1..n {
        b.add_edge(Edge::new((i - 1) as VertexId, i as VertexId));
    }
    b.build().expect("path ids in range")
}

/// Directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn cycle_graph(n: u64) -> Graph {
    let mut b = GraphBuilder::new().with_num_vertices(n);
    for i in 0..n {
        b.add_edge(Edge::new(i as VertexId, ((i + 1) % n) as VertexId));
    }
    b.build().expect("cycle ids in range")
}

/// Star with `n-1` spokes pointing at the hub (vertex 0): `i -> 0` for all `i > 0`.
pub fn star_graph(n: u64) -> Graph {
    let mut b = GraphBuilder::new().with_num_vertices(n);
    for i in 1..n {
        b.add_edge(Edge::new(i as VertexId, 0));
    }
    b.build().expect("star ids in range")
}

/// `rows x cols` grid with bidirectional edges to the right and down neighbours.
/// Edge weights are 1.0, so it doubles as a weighted SSSP test case.
pub fn grid_graph(rows: u64, cols: u64) -> Graph {
    let id = |r: u64, c: u64| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new()
        .with_num_vertices(rows * cols)
        .symmetric(true);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(Edge::new(id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                b.add_edge(Edge::new(id(r, c), id(r + 1, c)));
            }
        }
    }
    b.build().expect("grid ids in range")
}

/// Complete binary tree of the given depth with edges pointing away from the root.
/// Depth 0 is a single vertex.
pub fn binary_tree(depth: u32) -> Graph {
    let n = (1u64 << (depth + 1)) - 1;
    let mut b = GraphBuilder::new().with_num_vertices(n);
    for parent in 0..n {
        for child in [2 * parent + 1, 2 * parent + 2] {
            if child < n {
                b.add_edge(Edge::new(parent as VertexId, child as VertexId));
            }
        }
    }
    b.build().expect("tree ids in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_counts() {
        let g = path_graph(10);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 9);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn cycle_every_vertex_has_degree_one() {
        let g = cycle_graph(7);
        assert_eq!(g.num_edges(), 7);
        assert!(g.out_degrees().iter().all(|&d| d == 1));
        assert!(g.in_degrees().iter().all(|&d| d == 1));
    }

    #[test]
    fn star_hub_collects_all_edges() {
        let g = star_graph(100);
        assert_eq!(g.in_degree(0), 99);
        assert_eq!(g.out_degree(0), 0);
    }

    #[test]
    fn grid_is_symmetric() {
        let g = grid_graph(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // Interior corner checks: corner vertices have degree 2, symmetric edges.
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 2);
        // Undirected grid: 2 * (rows*(cols-1) + cols*(rows-1)) directed edges.
        assert_eq!(g.num_edges(), 2 * (3 * 3 + 4 * 2));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(3);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        // Leaves have no children.
        assert_eq!(g.out_degree(14), 0);
    }

    #[test]
    fn single_vertex_tree() {
        let g = binary_tree(0);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
