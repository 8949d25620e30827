//! Compressed sparse adjacency structures.
//!
//! [`Csr`] groups edges by **source** (out-adjacency, what Pregel-style systems
//! keep in memory); [`Csc`] groups edges by **target** (in-adjacency, the layout
//! GraphH tiles use because GAB gathers along in-edges, §III-B).
//!
//! Both follow the classic three-array layout the paper describes (§III-B.2):
//! `row` offsets, `col` neighbor ids, and an optional `val` array that is omitted
//! for unweighted graphs.

use crate::edge::{Edge, EdgeList};
use crate::ids::{EdgeCount, VertexCount, VertexId};

/// Out-adjacency in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<u64>,
    /// Neighbor ids, grouped by source vertex.
    targets: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs.
    weights: Option<Vec<f32>>,
}

/// In-adjacency in compressed sparse column form (sources grouped by target).
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    /// `offsets[v]..offsets[v+1]` indexes `sources`/`weights` for vertex `v`.
    offsets: Vec<u64>,
    /// Neighbor ids, grouped by target vertex.
    sources: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs.
    weights: Option<Vec<f32>>,
}

fn build(
    num_vertices: VertexCount,
    edges: &EdgeList,
    key: impl Fn(Edge) -> VertexId,
    value: impl Fn(Edge) -> VertexId,
) -> (Vec<u64>, Vec<VertexId>, Option<Vec<f32>>) {
    let n = num_vertices as usize;
    let mut counts = vec![0u64; n + 1];
    for e in edges.iter() {
        counts[key(e) as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts;
    let mut cursor = offsets.clone();
    let mut ids = vec![0 as VertexId; edges.len()];
    let mut weights = if edges.is_weighted() {
        Some(vec![0f32; edges.len()])
    } else {
        None
    };
    for e in edges.iter() {
        let k = key(e) as usize;
        let pos = cursor[k] as usize;
        ids[pos] = value(e);
        if let Some(w) = &mut weights {
            w[pos] = e.weight;
        }
        cursor[k] += 1;
    }
    (offsets, ids, weights)
}

impl Csr {
    /// Build from an edge list, grouping by source vertex.
    pub fn from_edges(num_vertices: VertexCount, edges: &EdgeList) -> Self {
        let (offsets, targets, weights) = build(num_vertices, edges, |e| e.src, |e| e.dst);
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexCount {
        (self.offsets.len() - 1) as VertexCount
    }

    /// Number of edges.
    pub fn num_edges(&self) -> EdgeCount {
        self.targets.len() as EdgeCount
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-neighbors of `v` together with edge weights (1.0 when unweighted).
    pub fn neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.targets[i], self.weights.as_ref().map_or(1.0, |w| w[i])))
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Offset array (length `num_vertices + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Flat neighbor array.
    pub fn values(&self) -> &[VertexId] {
        &self.targets
    }

    /// Bytes needed to hold this structure in memory (offsets + ids + weights).
    pub fn memory_bytes(&self) -> u64 {
        let ids = self.targets.len() as u64 * 4;
        let offs = self.offsets.len() as u64 * 8;
        let w = self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4);
        ids + offs + w
    }
}

impl Csc {
    /// Build from an edge list, grouping by target vertex.
    pub fn from_edges(num_vertices: VertexCount, edges: &EdgeList) -> Self {
        let (offsets, sources, weights) = build(num_vertices, edges, |e| e.dst, |e| e.src);
        Self {
            offsets,
            sources,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexCount {
        (self.offsets.len() - 1) as VertexCount
    }

    /// Number of edges.
    pub fn num_edges(&self) -> EdgeCount {
        self.sources.len() as EdgeCount
    }

    /// In-neighbors of `v`.
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.sources[lo..hi]
    }

    /// In-neighbors of `v` with edge weights (1.0 when unweighted).
    pub fn in_neighbors_weighted(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.sources[i], self.weights.as_ref().map_or(1.0, |w| w[i])))
    }

    /// In-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Offset array (length `num_vertices + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Flat neighbor (source id) array.
    pub fn values(&self) -> &[VertexId] {
        &self.sources
    }

    /// Bytes needed to hold this structure in memory.
    pub fn memory_bytes(&self) -> u64 {
        let ids = self.sources.len() as u64 * 4;
        let offs = self.offsets.len() as u64 * 8;
        let w = self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4);
        ids + offs + w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> EdgeList {
        let mut list = EdgeList::new_unweighted();
        for &(s, d) in &[(0u32, 1u32), (0, 2), (1, 2), (2, 0), (3, 2)] {
            list.push(Edge::new(s, d));
        }
        list
    }

    #[test]
    fn csr_neighbors_grouped_by_source() {
        let csr = Csr::from_edges(4, &edges());
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[0]);
        assert_eq!(csr.neighbors(3), &[2]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.num_edges(), 5);
    }

    #[test]
    fn csc_neighbors_grouped_by_target() {
        let csc = Csc::from_edges(4, &edges());
        assert_eq!(csc.in_neighbors(0), &[2]);
        assert_eq!(csc.in_neighbors(1), &[0]);
        assert_eq!(csc.in_neighbors(2), &[0, 1, 3]);
        assert_eq!(csc.in_neighbors(3), &[] as &[u32]);
        assert_eq!(csc.degree(2), 3);
    }

    #[test]
    fn weighted_edges_preserved() {
        let mut list = EdgeList::new_weighted();
        list.push(Edge::weighted(0, 1, 2.0));
        list.push(Edge::weighted(2, 1, 5.0));
        let csc = Csc::from_edges(3, &list);
        let got: Vec<(u32, f32)> = csc.in_neighbors_weighted(1).collect();
        assert_eq!(got, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn memory_bytes_unweighted() {
        let csr = Csr::from_edges(4, &edges());
        // 5 ids * 4 + 5 offsets * 8 = 60
        assert_eq!(csr.memory_bytes(), 5 * 4 + 5 * 8);
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let list = EdgeList::new_unweighted();
        let csr = Csr::from_edges(3, &list);
        assert_eq!(csr.num_vertices(), 3);
        assert_eq!(csr.num_edges(), 0);
        assert!(csr.neighbors(1).is_empty());
    }
}
