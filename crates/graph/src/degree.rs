//! Degree computation and summary statistics.

use crate::edge::EdgeList;
use crate::ids::{VertexCount, VertexId};
use crate::GraphError;

/// Compute `(in_degree, out_degree)` arrays for a graph over `num_vertices` vertices.
///
/// These arrays are exactly the ones the SPE persists to the DFS alongside the tiles
/// (Algorithm 4, lines 1–2): PageRank needs the out-degree array resident on every
/// server, and the tile splitter walks the in-degree array.
///
/// One pass: the first edge with an endpoint `>= num_vertices` is refused with
/// that edge's larger endpoint.
pub fn compute_degrees(
    num_vertices: VertexCount,
    edges: &EdgeList,
) -> Result<(Vec<u32>, Vec<u32>), GraphError> {
    let n = num_vertices as usize;
    let (mut in_deg, mut out_deg) = (vec![0; n], vec![0; n]);
    for (&src, &dst) in edges.sources().iter().zip(edges.targets()) {
        let vertex = src.max(dst);
        if u64::from(vertex) >= num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            });
        }
        out_deg[src as usize] += 1;
        in_deg[dst as usize] += 1;
    }
    Ok((in_deg, out_deg))
}

/// Aggregate degree statistics, mirroring the columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Average degree |E| / |V|.
    pub avg_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Vertex with the maximum in-degree.
    pub max_in_vertex: VertexId,
    /// Vertex with the maximum out-degree.
    pub max_out_vertex: VertexId,
    /// Number of vertices with zero in- and out-degree.
    pub isolated_vertices: u64,
}

impl DegreeStats {
    /// Compute statistics from in/out degree arrays.
    pub fn from_degrees(in_degree: &[u32], out_degree: &[u32]) -> Self {
        assert_eq!(in_degree.len(), out_degree.len());
        let n = in_degree.len();
        let total_edges: u64 = out_degree.iter().map(|&d| u64::from(d)).sum();
        let mut max_in = 0u32;
        let mut max_out = 0u32;
        let mut max_in_v = 0;
        let mut max_out_v = 0;
        let mut isolated = 0u64;
        for v in 0..n {
            if in_degree[v] > max_in {
                max_in = in_degree[v];
                max_in_v = v as VertexId;
            }
            if out_degree[v] > max_out {
                max_out = out_degree[v];
                max_out_v = v as VertexId;
            }
            if in_degree[v] == 0 && out_degree[v] == 0 {
                isolated += 1;
            }
        }
        Self {
            avg_degree: if n == 0 {
                0.0
            } else {
                total_edges as f64 / n as f64
            },
            max_in_degree: max_in,
            max_out_degree: max_out,
            max_in_vertex: max_in_v,
            max_out_vertex: max_out_v,
            isolated_vertices: isolated,
        }
    }
}

/// A coarse histogram of a degree distribution on a log2 scale, used to check that
/// generated stand-in graphs are skewed the way the paper's web crawls are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// `buckets[i]` counts vertices with degree in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds degree-0 vertices.
    pub buckets: Vec<u64>,
}

impl DegreeHistogram {
    /// Build the histogram of a degree array.
    pub fn from_degrees(degrees: &[u32]) -> Self {
        let mut buckets = vec![0u64; 33];
        for &d in degrees {
            let b = if d <= 1 {
                0
            } else {
                31 - (d.leading_zeros() as usize)
            };
            buckets[b] += 1;
        }
        while buckets.len() > 1 && *buckets.last().unwrap() == 0 {
            buckets.pop();
        }
        Self { buckets }
    }

    /// A crude skewness indicator: fraction of edges owned by the top 1% of vertices.
    pub fn top_percent_share(degrees: &[u32], percent: f64) -> f64 {
        if degrees.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u32> = degrees.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().map(|&d| u64::from(d)).sum();
        if total == 0 {
            return 0.0;
        }
        let k = ((degrees.len() as f64 * percent / 100.0).ceil() as usize).max(1);
        let top: u64 = sorted[..k.min(sorted.len())]
            .iter()
            .map(|&d| u64::from(d))
            .sum();
        top as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    #[test]
    fn degrees_match_manual_count() {
        let mut edges = EdgeList::new_unweighted();
        edges.push(Edge::new(0, 1));
        edges.push(Edge::new(0, 2));
        edges.push(Edge::new(1, 2));
        let (ind, outd) = compute_degrees(3, &edges).unwrap();
        assert_eq!(outd, vec![2, 1, 0]);
        assert_eq!(ind, vec![0, 1, 2]);
    }

    /// The first edge naming a vertex past the range is the one refused,
    /// with its larger endpoint — however many bad edges follow it.
    #[test]
    fn the_first_out_of_range_edge_is_refused_with_its_larger_endpoint() {
        let edges: EdgeList = [(0, 1), (1, 2), (7, 3), (2, 9), (4, 4)]
            .into_iter()
            .map(|(s, d)| Edge::new(s, d))
            .collect();
        let GraphError::VertexOutOfRange {
            vertex,
            num_vertices,
        } = compute_degrees(4, &edges).unwrap_err();
        assert_eq!((vertex, num_vertices), (7, 4));
        let GraphError::VertexOutOfRange { vertex, .. } = compute_degrees(0, &edges).unwrap_err();
        assert_eq!(vertex, 1);
        assert!(compute_degrees(10, &edges).is_ok());
    }

    #[test]
    fn stats_find_max_and_isolated() {
        let in_deg = vec![0, 1, 5, 0];
        let out_deg = vec![3, 2, 1, 0];
        let s = DegreeStats::from_degrees(&in_deg, &out_deg);
        assert_eq!(s.max_in_degree, 5);
        assert_eq!(s.max_in_vertex, 2);
        assert_eq!(s.max_out_degree, 3);
        assert_eq!(s.max_out_vertex, 0);
        assert_eq!(s.isolated_vertices, 1);
        assert!((s.avg_degree - 1.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_log2() {
        let degrees = vec![0, 1, 2, 3, 4, 8, 9, 1000];
        let h = DegreeHistogram::from_degrees(&degrees);
        // degree 0 and 1 -> bucket 0 (2 vertices); 2,3 -> bucket 1; 4 -> bucket 2;
        // 8,9 -> bucket 3; 1000 -> bucket 9
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[9], 1);
    }

    #[test]
    fn top_share_of_uniform_distribution_is_small() {
        let degrees = vec![10u32; 1000];
        let share = DegreeHistogram::top_percent_share(&degrees, 1.0);
        assert!((share - 0.01).abs() < 1e-6);
    }

    #[test]
    fn top_share_of_skewed_distribution_is_large() {
        let mut degrees = vec![1u32; 990];
        degrees.extend(vec![1000u32; 10]);
        let share = DegreeHistogram::top_percent_share(&degrees, 1.0);
        assert!(share > 0.9);
    }

    #[test]
    fn empty_degree_stats() {
        let s = DegreeStats::from_degrees(&[], &[]);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(DegreeHistogram::top_percent_share(&[], 1.0), 0.0);
    }
}
