//! Verifiers, in the gapbs style: one structural check per kernel on the
//! reference values, and a bit-for-bit comparison of every trial against
//! that reference. A failure is a failed trial, never a dropped sample.

use graphh::core::reference;
use graphh::prelude::Graph;

/// Bit-for-bit equality (NaN payloads and signed zeros included).
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// PageRank: within 1e-9 of the untiled power iteration in
/// `graphh::core::reference`, every rank at least the teleport share, and
/// total mass at most 1 (dangling vertices leak mass, nothing creates it).
pub fn check_pagerank(graph: &Graph, supersteps: u32, values: &[f64]) -> Result<(), String> {
    let expected = reference::pagerank(graph, supersteps);
    let diff = reference::max_abs_diff(values, &expected);
    if diff.is_nan() || diff >= 1e-9 {
        return Err(format!(
            "pagerank differs from the untiled reference by {diff:e}"
        ));
    }
    let floor = 0.15 / graph.num_vertices() as f64;
    if let Some(v) = values.iter().position(|&r| r < floor * (1.0 - 1e-12)) {
        return Err(format!(
            "pagerank of vertex {v} is below the teleport share"
        ));
    }
    let mass: f64 = values.iter().sum();
    if !(mass > 0.0 && mass <= 1.0 + 1e-9) {
        return Err(format!("pagerank mass is {mass}"));
    }
    Ok(())
}

/// SSSP / BFS levels: the source is at 0, no edge can still be relaxed, and
/// every other finite level is exactly one edge beyond some in-neighbour's.
/// `unit_weights` makes every edge cost 1 (BFS), otherwise the edge weight.
pub fn check_levels(
    graph: &Graph,
    source: u32,
    unit_weights: bool,
    levels: &[f64],
) -> Result<(), String> {
    if levels.len() as u64 != graph.num_vertices() {
        return Err("level count differs from the vertex count".into());
    }
    if levels[source as usize] != 0.0 {
        return Err(format!(
            "source {source} is at level {}",
            levels[source as usize]
        ));
    }
    let mut supported = vec![false; levels.len()];
    supported[source as usize] = true;
    for e in graph.edges().iter() {
        let cost = if unit_weights {
            1.0
        } else {
            f64::from(e.weight)
        };
        let through = levels[e.src as usize] + cost;
        let at = levels[e.dst as usize];
        if through < at {
            return Err(format!("edge {}->{} can still be relaxed", e.src, e.dst));
        }
        if through == at && at.is_finite() {
            supported[e.dst as usize] = true;
        }
    }
    match (0..levels.len()).find(|&v| levels[v].is_finite() && !supported[v]) {
        Some(v) => Err(format!("level of vertex {v} has no supporting in-edge")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh::graph::generators::path_graph;

    #[test]
    fn level_check_accepts_true_distances_and_rejects_wrong_ones() {
        let g = path_graph(4);
        let good = reference::bfs(&g, 0);
        assert!(check_levels(&g, 0, true, &good).is_ok());
        let mut too_far = good.clone();
        too_far[3] += 1.0;
        assert!(check_levels(&g, 0, true, &too_far).is_err());
        let mut too_near = good.clone();
        too_near[3] -= 1.0;
        assert!(check_levels(&g, 0, true, &too_near).is_err());
        assert!(!bit_identical(&good, &too_far));
        assert!(bit_identical(&[f64::NAN], &[f64::NAN]));
    }
}
