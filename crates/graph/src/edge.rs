//! Directed edges and edge lists.

use crate::ids::VertexId;

/// A single directed edge `src -> dst` with an optional weight.
///
/// Unweighted graphs (PageRank, WCC, BFS inputs) carry an implicit weight of `1.0`,
/// matching the paper's convention `val(u, v) = 1` for unweighted graphs (§II-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Target vertex.
    pub dst: VertexId,
    /// Edge value; `1.0` for unweighted graphs.
    pub weight: f32,
}

impl Edge {
    /// An unweighted edge (weight `1.0`).
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Self {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// A weighted edge.
    #[inline]
    pub fn weighted(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Self { src, dst, weight }
    }

    /// The edge with its direction flipped (used to derive in-adjacency).
    #[inline]
    pub fn reversed(self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

/// A list of directed edges stored structure-of-arrays style.
///
/// Weights are stored only when at least one weighted edge was inserted, mirroring
/// the paper's tile format, which omits the `val` array for unweighted graphs to
/// save space (§III-B.2).
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    /// Present iff the list is weighted. Always the same length as `srcs` when present.
    weights: Option<Vec<f32>>,
}

impl EdgeList {
    /// An empty unweighted edge list.
    pub fn new_unweighted() -> Self {
        Self {
            srcs: Vec::new(),
            dsts: Vec::new(),
            weights: None,
        }
    }

    /// An empty weighted edge list.
    pub fn new_weighted() -> Self {
        Self {
            srcs: Vec::new(),
            dsts: Vec::new(),
            weights: Some(Vec::new()),
        }
    }

    /// An empty unweighted edge list with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            srcs: Vec::with_capacity(capacity),
            dsts: Vec::with_capacity(capacity),
            weights: None,
        }
    }

    /// An unweighted list over two equally long id columns.
    pub(crate) fn from_columns(srcs: Vec<VertexId>, dsts: Vec<VertexId>) -> Self {
        assert_eq!(srcs.len(), dsts.len(), "one target per source");
        Self {
            srcs,
            dsts,
            weights: None,
        }
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// Whether the list has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Whether the list carries an explicit weight array.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Append an edge. Pushing a weighted edge (weight != 1.0) onto an unweighted
    /// list upgrades the list to weighted, back-filling prior weights with `1.0`.
    pub fn push(&mut self, edge: Edge) {
        if self.weights.is_none() && edge.weight != 1.0 {
            self.weights = Some(vec![1.0; self.srcs.len()]);
        }
        self.srcs.push(edge.src);
        self.dsts.push(edge.dst);
        if let Some(w) = &mut self.weights {
            w.push(edge.weight);
        }
    }

    /// Edge at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Edge {
        Edge {
            src: self.srcs[i],
            dst: self.dsts[i],
            weight: self.weights.as_ref().map_or(1.0, |w| w[i]),
        }
    }

    /// Iterate over edges in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Source id array.
    pub fn sources(&self) -> &[VertexId] {
        &self.srcs
    }

    /// Target id array.
    pub fn targets(&self) -> &[VertexId] {
        &self.dsts
    }

    /// Weight array, if the list is weighted.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The largest vertex id referenced by any edge, or `None` for an empty list.
    pub fn max_vertex_id(&self) -> Option<VertexId> {
        self.srcs.iter().chain(self.dsts.iter()).copied().max()
    }

    /// The number of bytes a plain-text CSV edge list of this graph would
    /// occupy, counted edge by edge. [`GraphStats`](crate::GraphStats) gets
    /// the same number from the degree arrays in O(V); this is the oracle it
    /// is tested against.
    pub fn csv_size_bytes(&self) -> u64 {
        let id_digits: u64 = self.srcs.iter().chain(&self.dsts).map(|&v| digits(v)).sum();
        id_digits + csv_separator_bytes(self.is_weighted()) * self.len() as u64
    }
}

/// The bytes a CSV line spends besides its two ids: "src,dst\n", plus a
/// fixed four for ",w" when weighted (e.g. "1.5,"-style short weights).
pub(crate) fn csv_separator_bytes(weighted: bool) -> u64 {
    if weighted {
        2 + 4
    } else {
        2
    }
}

/// Decimal digits of `v` (`0` prints as one).
pub(crate) fn digits(v: u32) -> u64 {
    u64::from(v.checked_ilog10().map_or(1, |log| log + 1))
}

impl FromIterator<Edge> for EdgeList {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut list = EdgeList::new_unweighted();
        for e in iter {
            list.push(e);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut list = EdgeList::new_unweighted();
        list.push(Edge::new(1, 2));
        list.push(Edge::new(3, 4));
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(0), Edge::new(1, 2));
        assert_eq!(list.get(1), Edge::new(3, 4));
    }

    #[test]
    fn unweighted_list_upgrades_on_weighted_push() {
        let mut list = EdgeList::new_unweighted();
        list.push(Edge::new(0, 1));
        assert!(!list.is_weighted());
        list.push(Edge::weighted(1, 2, 2.5));
        assert!(list.is_weighted());
        assert_eq!(list.get(0).weight, 1.0);
        assert_eq!(list.get(1).weight, 2.5);
    }

    #[test]
    fn max_vertex_id_and_empty() {
        let mut list = EdgeList::new_unweighted();
        assert!(list.max_vertex_id().is_none());
        assert!(list.is_empty());
        list.push(Edge::new(7, 3));
        assert_eq!(list.max_vertex_id(), Some(7));
    }

    #[test]
    fn csv_size_counts_digits_and_separators() {
        let mut list = EdgeList::new_unweighted();
        list.push(Edge::new(10, 3)); // "10,3\n" = 5 bytes
        assert_eq!(list.csv_size_bytes(), 5);
    }

    #[test]
    fn digits_agree_with_printing_at_every_power_of_ten() {
        let mut probes = vec![0u32, u32::MAX];
        for exp in 1..=9 {
            let pow = 10u32.pow(exp);
            probes.extend([pow - 1, pow]);
        }
        for v in probes {
            assert_eq!(digits(v), v.to_string().len() as u64, "digits({v})");
        }
    }

    #[test]
    fn csv_size_is_the_length_of_the_printed_file() {
        use crate::generators::{GraphGenerator, RmatGenerator};
        let g = RmatGenerator::new(11, 4).generate(5);
        let printed: usize = g
            .edges()
            .iter()
            .map(|e| format!("{},{}\n", e.src, e.dst).len())
            .sum();
        assert_eq!(g.edges().csv_size_bytes(), printed as u64);

        // Weighted lists charge a fixed four bytes per weight field.
        let mut weighted = EdgeList::new_weighted();
        weighted.push(Edge::weighted(10, 3, 1.5));
        weighted.push(Edge::weighted(0, 1234, 2.0));
        assert_eq!(weighted.csv_size_bytes(), (5 + 4) + (7 + 4));
    }

    #[test]
    fn reversed_edge_swaps_endpoints() {
        let e = Edge::weighted(1, 2, 3.0);
        let r = e.reversed();
        assert_eq!((r.src, r.dst, r.weight), (2, 1, 3.0));
    }

    #[test]
    fn from_iterator_collects() {
        let list: EdgeList = (0..5u32).map(|i| Edge::new(i, i + 1)).collect();
        assert_eq!(list.len(), 5);
        assert_eq!(list.get(4), Edge::new(4, 5));
    }
}
