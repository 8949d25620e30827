//! Single-threaded reference implementations used to validate every engine.
//!
//! These are deliberately simple (plain loops over the in-memory graph) so they can
//! serve as ground truth for the distributed engines in unit, integration and
//! property tests.

use graphh_graph::ids::VertexId;
use graphh_graph::Graph;

/// PageRank run for exactly `supersteps` iterations with damping 0.85, matching what
/// the GAB, Pregel and GAS engines compute (synchronous updates, no dangling-mass
/// redistribution — none of the systems in the paper redistribute it either).
///
/// Every float operation is the engine's, in the engine's order —
/// `(1 - 0.85) / n` (which is not the `f64` nearest 0.15 / n), a division on
/// every in-edge, a vertex's in-edges summed by ascending source id as SPE
/// stores them — so the engine's ranks for a partition of `graph` are these,
/// bit for bit.
pub fn pagerank(graph: &Graph, supersteps: u32) -> Vec<f64> {
    const DAMPING: f64 = 0.85;
    let n = graph.num_vertices() as usize;
    if n == 0 {
        return Vec::new();
    }
    let csc = graph.to_csc();
    let out_deg = graph.out_degrees();
    let mut values = vec![1.0 / n as f64; n];
    let mut sources = Vec::new();
    for _ in 0..supersteps {
        let mut next = vec![(1.0 - DAMPING) / n as f64; n];
        for (v, next_value) in next.iter_mut().enumerate() {
            sources.clear();
            sources.extend_from_slice(csc.in_neighbors(v as VertexId));
            sources.sort_unstable();
            let mut accum = 0.0;
            for &src in &sources {
                if out_deg[src as usize] > 0 {
                    accum += values[src as usize] / f64::from(out_deg[src as usize]);
                }
            }
            *next_value += DAMPING * accum;
        }
        values = next;
    }
    values
}

/// Bellman-Ford style single-source shortest paths over edge weights.
pub fn sssp(graph: &Graph, source: VertexId) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let mut dist = vec![f64::INFINITY; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0.0;
    let csr = graph.to_csr();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            if dist[u].is_infinite() {
                continue;
            }
            for (v, w) in csr.neighbors_weighted(u as VertexId) {
                let candidate = dist[u] + f64::from(w);
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    changed = true;
                }
            }
        }
    }
    dist
}

/// Breadth-first-search levels from a source.
pub fn bfs(graph: &Graph, source: VertexId) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let mut level = vec![f64::INFINITY; n];
    if n == 0 {
        return level;
    }
    let csr = graph.to_csr();
    let mut frontier = vec![source];
    level[source as usize] = 0.0;
    let mut depth = 0.0;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in csr.neighbors(u) {
                if level[v as usize].is_infinite() {
                    level[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    level
}

/// Weakly connected components by min-label propagation over the *symmetrised* graph;
/// the result is, for every vertex, the smallest vertex id in its weak component.
pub fn wcc(graph: &Graph) -> Vec<f64> {
    let n = graph.num_vertices() as usize;
    let mut label: Vec<f64> = (0..n).map(|v| v as f64).collect();
    if n == 0 {
        return label;
    }
    let csr = graph.to_csr();
    let csc = graph.to_csc();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            let mut best = label[v];
            for &u in csr.neighbors(v as VertexId) {
                best = best.min(label[u as usize]);
            }
            for &u in csc.in_neighbors(v as VertexId) {
                best = best.min(label[u as usize]);
            }
            if best < label[v] {
                label[v] = best;
                changed = true;
            }
        }
    }
    label
}

/// Maximum absolute difference between two value vectors (∞ if lengths differ).
/// Infinite entries are considered equal if both are infinite.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            if x.is_infinite() && y.is_infinite() {
                0.0
            } else {
                (x - y).abs()
            }
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::generators::{binary_tree, cycle_graph, grid_graph, path_graph, star_graph};

    #[test]
    fn pagerank_sums_to_one_ish_on_cycle() {
        // On a cycle every vertex has the same rank and there is no dangling mass.
        let g = cycle_graph(10);
        let pr = pagerank(&g, 30);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for &r in &pr {
            assert!((r - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_hub_of_star_has_highest_rank() {
        let g = star_graph(50);
        let pr = pagerank(&g, 20);
        let hub = pr[0];
        for &r in &pr[1..] {
            assert!(hub > r);
        }
    }

    #[test]
    fn sssp_on_path_counts_hops() {
        let g = path_graph(6);
        let d = sssp(&g, 0);
        for (i, &dist) in d.iter().enumerate() {
            assert_eq!(dist, i as f64);
        }
        // From the middle, earlier vertices are unreachable (directed path).
        let d2 = sssp(&g, 3);
        assert!(d2[0].is_infinite());
        assert_eq!(d2[5], 2.0);
    }

    #[test]
    fn bfs_matches_sssp_on_unit_weight_graph() {
        let g = binary_tree(5);
        assert_eq!(max_abs_diff(&bfs(&g, 0), &sssp(&g, 0)), 0.0);
    }

    #[test]
    fn wcc_grid_is_one_component_two_paths_are_two() {
        let grid = grid_graph(4, 5);
        let labels = wcc(&grid);
        assert!(labels.iter().all(|&l| l == 0.0));

        // Two disjoint directed paths: 0->1->2 and 3->4.
        let mut b = graphh_graph::GraphBuilder::new().with_num_vertices(5);
        b.add_edge(graphh_graph::Edge::new(0, 1));
        b.add_edge(graphh_graph::Edge::new(1, 2));
        b.add_edge(graphh_graph::Edge::new(3, 4));
        let g = b.build().unwrap();
        let labels = wcc(&g);
        assert_eq!(labels, vec![0.0, 0.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn max_abs_diff_handles_infinities_and_lengths() {
        assert_eq!(max_abs_diff(&[f64::INFINITY], &[f64::INFINITY]), 0.0);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert!((max_abs_diff(&[1.0, 2.0], &[1.5, 2.0]) - 0.5).abs() < 1e-12);
    }
}
