//! Vertex replication policies and the GraphH memory model (paper §IV-A).
//!
//! GraphH replicates every vertex on every server (the **All-in-All** policy): each
//! server holds `|V|` vertex states plus a `|V|`-slot message array in dense arrays,
//! which avoids any id → slot indexing. The alternative **On-Demand** policy stores
//! only the vertices that actually appear in a server's tiles, at the cost of a
//! 4-byte index per entry. Equations (2)–(5) of the paper give the expected memory
//! of both; [`MemoryModel`] evaluates them so Figure 6a can be regenerated, and the
//! engine's accounting uses the same constants for Figure 6b.

use graphh_graph::GraphStats;

/// Which vertices a server keeps in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Every vertex on every server (dense arrays, no index).
    AllInAll,
    /// Only vertices appearing in the server's tiles (indexed entries).
    OnDemand,
}

/// Per-vertex byte sizes used by the paper's arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexSizes {
    /// Bytes of mutable vertex state per vertex (value + message slot; 8 + 8 for
    /// PageRank's rank and incoming message, both doubles).
    pub state_and_message: u64,
    /// Bytes of static per-vertex data (e.g. the out-degree integer for PageRank).
    pub static_data: u64,
    /// Extra index bytes per vertex under the On-Demand policy (one unsigned int).
    pub od_index: u64,
}

impl VertexSizes {
    /// PageRank: 8-byte rank + 8-byte message + 4-byte out-degree, 4-byte OD index —
    /// i.e. the paper's `Size(Vertex, Msg) = 20` and `Size(ID, Vertex, Msg) = 24`.
    pub fn pagerank() -> Self {
        Self {
            state_and_message: 16,
            static_data: 4,
            od_index: 4,
        }
    }

    /// SSSP: 8-byte distance + 8-byte message, no static array.
    pub fn sssp() -> Self {
        Self {
            state_and_message: 16,
            static_data: 0,
            od_index: 4,
        }
    }

    /// Bytes per vertex under the All-in-All policy.
    pub fn aa_bytes(&self) -> u64 {
        self.state_and_message + self.static_data
    }

    /// Bytes per vertex under the On-Demand policy.
    pub fn od_bytes(&self) -> u64 {
        self.state_and_message + self.static_data + self.od_index
    }
}

/// Evaluates the expected per-server memory of both policies for a graph / cluster.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    /// Graph statistics (only `num_vertices`, `num_edges`, `avg_degree` are used).
    pub num_vertices: u64,
    /// Average degree of the graph.
    pub avg_degree: f64,
    /// Per-vertex sizes of the running program.
    pub sizes: VertexSizes,
}

impl MemoryModel {
    /// Model for a graph described by `stats`, running a program with `sizes`.
    pub fn new(stats: &GraphStats, sizes: VertexSizes) -> Self {
        Self {
            num_vertices: stats.num_vertices,
            avg_degree: stats.avg_degree,
            sizes,
        }
    }

    /// Expected number of distinct vertices a server holds under On-Demand
    /// (equation (5)): `(1 − e^(−d_avg/N))·|V| + |V|/N`.
    pub fn expected_od_vertices(&self, num_servers: u32) -> f64 {
        let n = f64::from(num_servers.max(1));
        let v = self.num_vertices as f64;
        (1.0 - (-self.avg_degree / n).exp()) * v + v / n
    }

    /// Expected per-server bytes for vertex state + messages under All-in-All
    /// (equation (2), excluding the per-worker tile buffers).
    pub fn aa_vertex_bytes(&self) -> u64 {
        self.sizes.aa_bytes() * self.num_vertices
    }

    /// Expected per-server bytes under On-Demand (equation (3), same exclusion).
    pub fn od_vertex_bytes(&self, num_servers: u32) -> u64 {
        (self.sizes.od_bytes() as f64 * self.expected_od_vertices(num_servers)) as u64
    }

    /// The cluster size at which On-Demand starts using less memory than All-in-All
    /// (Figure 6a's crossover), or `None` if it never does within `max_servers`.
    pub fn od_crossover(&self, max_servers: u32) -> Option<u32> {
        (1..=max_servers).find(|&n| self.od_vertex_bytes(n) < self.aa_vertex_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::datasets::Dataset;

    fn model(dataset: Dataset) -> MemoryModel {
        MemoryModel::new(&dataset.paper_stats(), VertexSizes::pagerank())
    }

    #[test]
    fn vertex_sizes_match_paper_constants() {
        let pr = VertexSizes::pagerank();
        assert_eq!(pr.aa_bytes(), 20);
        assert_eq!(pr.od_bytes(), 24);
        assert_eq!(VertexSizes::sssp().aa_bytes(), 16);
    }

    #[test]
    fn aa_beats_od_in_small_clusters_for_all_datasets() {
        // Figure 6a: for every dataset the AA policy uses less memory than OD when the
        // cluster has fewer than ~16 servers.
        for d in Dataset::ALL {
            let m = model(d);
            for n in [1u32, 4, 9, 16] {
                assert!(
                    m.aa_vertex_bytes() <= m.od_vertex_bytes(n),
                    "{} at {n} servers",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn od_eventually_wins_for_eu2015() {
        // Figure 6a: with more than ~48 servers OD uses less memory than AA on EU-2015.
        let m = model(Dataset::Eu2015);
        let crossover = m.od_crossover(128).expect("OD should win eventually");
        assert!(
            (32..=96).contains(&crossover),
            "crossover at {crossover} servers"
        );
    }

    #[test]
    fn eu2015_aa_memory_matches_paper_order_of_magnitude() {
        // The paper reports ~21 GB for rank values, out-degrees and messages of
        // EU-2015 on one node; eq. (2) with 20 B/vertex gives 22 GB.
        let m = model(Dataset::Eu2015);
        let gb = m.aa_vertex_bytes() as f64 / 1e9;
        assert!((15.0..30.0).contains(&gb), "AA bytes = {gb} GB");
    }

    #[test]
    fn expected_od_vertices_bounded_by_v_plus_share() {
        let m = model(Dataset::Uk2007);
        for n in [1u32, 3, 9, 27] {
            let expected = m.expected_od_vertices(n);
            let v = m.num_vertices as f64;
            assert!(expected <= v + v / f64::from(n) + 1.0);
            assert!(expected > 0.0);
        }
    }
}
