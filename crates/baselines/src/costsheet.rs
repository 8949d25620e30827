//! Closed-form memory / traffic models for every evaluated system (Table III and
//! Figure 1a).
//!
//! The asymptotic entries of Table III are turned into byte formulas using each
//! system's per-record sizes. The per-vertex / per-edge constants are calibrated so
//! that the UK-2007 / 9-server configuration of Figure 1a is reproduced (Giraph
//! 795 GB, GraphX 685 GB, PowerGraph 357 GB, PowerLyra 511 GB, Pregel+ 281 GB,
//! GraphD 73 GB, Chaos 26 GB); the same constants are then applied to every other
//! dataset and cluster size, which is exactly how the paper extrapolates ("to
//! process big graphs like EU-2015, these in-memory approaches require a large
//! cluster with at least 5 TB memory").

use graphh_cluster::ClusterConfig;
use graphh_graph::GraphStats;

/// The systems compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Apache Giraph (in-memory, Hadoop-based Pregel).
    Giraph,
    /// Spark GraphX (in-memory, dataflow).
    GraphX,
    /// PowerGraph (in-memory, vertex-cut GAS).
    PowerGraph,
    /// PowerLyra (in-memory, hybrid-cut GAS).
    PowerLyra,
    /// Pregel+ (in-memory Pregel with message combining).
    PregelPlus,
    /// GraphD (out-of-core Pregel).
    GraphD,
    /// Chaos (out-of-core edge-centric GAS).
    Chaos,
    /// GraphH (this paper).
    GraphH,
}

impl SystemKind {
    /// All systems, in Figure 1a order.
    pub const ALL: [SystemKind; 8] = [
        SystemKind::Giraph,
        SystemKind::GraphX,
        SystemKind::PowerGraph,
        SystemKind::PowerLyra,
        SystemKind::PregelPlus,
        SystemKind::GraphD,
        SystemKind::Chaos,
        SystemKind::GraphH,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Giraph => "Giraph",
            SystemKind::GraphX => "GraphX",
            SystemKind::PowerGraph => "PowerGraph",
            SystemKind::PowerLyra => "PowerLyra",
            SystemKind::PregelPlus => "Pregel+",
            SystemKind::GraphD => "GraphD",
            SystemKind::Chaos => "Chaos",
            SystemKind::GraphH => "GraphH",
        }
    }

    /// Whether the system keeps the whole graph (and messages) in memory.
    pub fn is_in_memory(self) -> bool {
        matches!(
            self,
            SystemKind::Giraph
                | SystemKind::GraphX
                | SystemKind::PowerGraph
                | SystemKind::PowerLyra
                | SystemKind::PregelPlus
        )
    }
}

/// Evaluates Table III's rows in bytes for one graph on one cluster.
#[derive(Debug, Clone, Copy)]
pub struct CostSheet {
    /// Vertices in the graph.
    pub num_vertices: u64,
    /// Edges in the graph.
    pub num_edges: u64,
    /// Average degree.
    pub avg_degree: f64,
    /// Cluster the job runs on.
    pub cluster: ClusterConfig,
}

impl CostSheet {
    /// A cost sheet for `stats` on `cluster`.
    pub fn new(stats: &GraphStats, cluster: ClusterConfig) -> Self {
        Self {
            num_vertices: stats.num_vertices,
            num_edges: stats.num_edges,
            avg_degree: stats.avg_degree,
            cluster,
        }
    }

    /// The Pregel-style message combining ratio η for this graph and cluster.
    pub fn eta(&self) -> f64 {
        self.cluster.combining_ratio(self.avg_degree)
    }

    /// The average vertex replication factor M for vertex-cut systems. PowerGraph's
    /// random vertex-cut on a cluster of N servers replicates a vertex of degree d on
    /// roughly `N (1 - (1 - 1/N)^(d/ ...))` servers; for the paper's graphs the
    /// empirical value is well approximated by `min(N, sqrt(N) * 2)` for PowerGraph
    /// and about 60% of that for PowerLyra's hybrid cut.
    pub fn replication_factor(&self, system: SystemKind) -> f64 {
        let n = f64::from(self.cluster.num_servers);
        let base = (2.0 * n.sqrt()).min(n).max(1.0);
        match system {
            SystemKind::PowerLyra => (0.6 * base).max(1.0),
            _ => base,
        }
    }

    /// Total cluster memory in bytes the system needs to run PageRank on this graph
    /// (the quantity Figure 1a reports).
    ///
    /// Per-record constants (bytes): calibrated against Figure 1a on UK-2007, see the
    /// module documentation.
    pub fn total_memory_bytes(&self, system: SystemKind) -> u64 {
        let v = self.num_vertices as f64;
        let e = self.num_edges as f64;
        let n = f64::from(self.cluster.num_servers);
        let eta = self.eta();
        let bytes = match system {
            // Java object overheads dominate Hadoop/Spark-based systems.
            SystemKind::Giraph => v * 200.0 + e * 140.0,
            SystemKind::GraphX => v * 180.0 + e * 120.0,
            // 2|E| edge storage + M|V| replicated vertex states + M|V| messages.
            SystemKind::PowerGraph | SystemKind::PowerLyra => {
                let m = self.replication_factor(system);
                let per_edge = if system == SystemKind::PowerGraph {
                    28.0
                } else {
                    40.0
                };
                2.0 * e * per_edge + m * v * 48.0
            }
            // |V| states + |E| adjacency + (η|E| + |V|) combined messages.
            SystemKind::PregelPlus => v * 24.0 + e * 20.0 + (eta * e + v) * 16.0,
            // Vertex states + per-server streaming buffers (bounded by the on-disk
            // adjacency size for small graphs); edges and messages live on disk.
            SystemKind::GraphD => v * 24.0 + (n * 8.0 * 1e9).min(e * 8.0),
            // |V|/P resident vertex states + per-server stream buffers (same bound).
            SystemKind::Chaos => v * 16.0 + (n * 3.0 * 1e9).min(e * 12.0),
            // All-in-All replicas on every server + per-worker tile buffers (no cache).
            SystemKind::GraphH => {
                n * (v * 20.0) + n * f64::from(self.cluster.machine.workers) * 25_000_000.0 * 4.0
            }
        };
        bytes as u64
    }

    /// Per-server memory in bytes (total divided by the server count).
    pub fn per_server_memory_bytes(&self, system: SystemKind) -> u64 {
        self.total_memory_bytes(system) / u64::from(self.cluster.num_servers)
    }

    /// Network bytes per PageRank superstep across the cluster (Table III "Network").
    pub fn network_bytes_per_superstep(&self, system: SystemKind) -> u64 {
        let v = self.num_vertices as f64;
        let e = self.num_edges as f64;
        let n = f64::from(self.cluster.num_servers);
        let eta = self.eta();
        let bytes = match system {
            SystemKind::Giraph | SystemKind::GraphX => e * 12.0,
            SystemKind::PregelPlus | SystemKind::GraphD => eta * e * 12.0,
            SystemKind::PowerGraph | SystemKind::PowerLyra => {
                2.0 * self.replication_factor(system) * v * 12.0
            }
            SystemKind::Chaos => (3.0 * e + 3.0 * v) * 8.0,
            SystemKind::GraphH => (n - 1.0).max(0.0) * v * 8.0,
        };
        bytes as u64
    }

    /// Disk bytes read per PageRank superstep across the cluster (Table III "Disk Read"),
    /// assuming a cache miss ratio of `beta` for GraphH.
    pub fn disk_read_bytes_per_superstep(&self, system: SystemKind, beta: f64) -> u64 {
        let v = self.num_vertices as f64;
        let e = self.num_edges as f64;
        let bytes = match system {
            s if s.is_in_memory() => 0.0,
            SystemKind::GraphD => 2.0 * e * 8.0,
            SystemKind::Chaos => (2.0 * e + 2.0 * v) * 8.0,
            SystemKind::GraphH => beta.clamp(0.0, 1.0) * e * 4.0,
            _ => 0.0,
        };
        bytes as u64
    }

    /// Disk bytes written per PageRank superstep across the cluster.
    pub fn disk_write_bytes_per_superstep(&self, system: SystemKind) -> u64 {
        let v = self.num_vertices as f64;
        let e = self.num_edges as f64;
        let bytes = match system {
            SystemKind::GraphD => e * 8.0,
            SystemKind::Chaos => (e + v) * 8.0,
            _ => 0.0,
        };
        bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_graph::datasets::Dataset;

    fn sheet(dataset: Dataset, servers: u32) -> CostSheet {
        CostSheet::new(
            &dataset.paper_stats(),
            ClusterConfig::paper_testbed(servers),
        )
    }

    #[test]
    fn fig1a_memory_ordering_reproduced_for_uk2007() {
        let s = sheet(Dataset::Uk2007, 9);
        let gb = |sys| s.total_memory_bytes(sys) as f64 / 1e9;
        // Paper, Figure 1a: Giraph 795, GraphX 685, PowerGraph 357, PowerLyra 511,
        // Pregel+ 281, GraphD 73, Chaos 26 (GB). Require the ordering and rough
        // magnitudes (within ~40%).
        let giraph = gb(SystemKind::Giraph);
        let graphx = gb(SystemKind::GraphX);
        let powergraph = gb(SystemKind::PowerGraph);
        let powerlyra = gb(SystemKind::PowerLyra);
        let pregel = gb(SystemKind::PregelPlus);
        let graphd = gb(SystemKind::GraphD);
        let chaos = gb(SystemKind::Chaos);
        assert!(
            giraph > graphx && graphx > powerlyra,
            "{giraph} {graphx} {powerlyra}"
        );
        assert!(powerlyra > powergraph && powergraph > pregel);
        assert!(pregel > graphd && graphd > chaos);
        for (value, paper) in [
            (giraph, 795.0),
            (graphx, 685.0),
            (powergraph, 357.0),
            (powerlyra, 511.0),
            (pregel, 281.0),
            (graphd, 73.0),
            (chaos, 26.0),
        ] {
            assert!(
                value > paper * 0.5 && value < paper * 1.6,
                "memory {value} GB vs paper {paper} GB"
            );
        }
    }

    #[test]
    fn in_memory_systems_cannot_fit_eu2015_in_nine_nodes() {
        // The paper's motivation: EU-2015 needs roughly 5 TB of memory on in-memory
        // systems, far beyond the 9-node testbed's 1.15 TB.
        let s = sheet(Dataset::Eu2015, 9);
        let testbed_total = s.cluster.total_memory_bytes();
        for sys in SystemKind::ALL.iter().filter(|s| s.is_in_memory()) {
            assert!(
                s.total_memory_bytes(*sys) > testbed_total,
                "{} should not fit",
                sys.name()
            );
        }
        // The out-of-core systems and GraphH do fit.
        for sys in [SystemKind::GraphD, SystemKind::Chaos, SystemKind::GraphH] {
            assert!(s.total_memory_bytes(sys) < testbed_total, "{}", sys.name());
        }
    }

    #[test]
    fn graphh_network_is_independent_of_edge_count() {
        let s = sheet(Dataset::Uk2007, 9);
        let graphh = s.network_bytes_per_superstep(SystemKind::GraphH);
        let pregel = s.network_bytes_per_superstep(SystemKind::PregelPlus);
        let chaos = s.network_bytes_per_superstep(SystemKind::Chaos);
        // GraphH broadcasts O(N|V|); the others move O(|E|)-scale traffic, which for
        // web graphs (avg degree 41) is an order of magnitude more.
        assert!(graphh < pregel / 2, "graphh {graphh} vs pregel {pregel}");
        assert!(graphh < chaos / 10);
    }

    #[test]
    fn out_of_core_disk_traffic_matches_table3_shape() {
        let s = sheet(Dataset::Uk2007, 9);
        assert_eq!(
            s.disk_read_bytes_per_superstep(SystemKind::PregelPlus, 0.0),
            0
        );
        let graphd = s.disk_read_bytes_per_superstep(SystemKind::GraphD, 0.0);
        let chaos = s.disk_read_bytes_per_superstep(SystemKind::Chaos, 0.0);
        let graphh_cold = s.disk_read_bytes_per_superstep(SystemKind::GraphH, 1.0);
        let graphh_warm = s.disk_read_bytes_per_superstep(SystemKind::GraphH, 0.0);
        assert!(chaos > graphd);
        assert!(
            graphh_cold < graphd,
            "even a cold GraphH cache reads less (4 B/edge)"
        );
        assert_eq!(graphh_warm, 0);
        assert!(s.disk_write_bytes_per_superstep(SystemKind::GraphD) > 0);
        assert_eq!(s.disk_write_bytes_per_superstep(SystemKind::GraphH), 0);
    }

    #[test]
    fn replication_factor_smaller_for_powerlyra() {
        let s = sheet(Dataset::Twitter2010, 9);
        assert!(
            s.replication_factor(SystemKind::PowerLyra)
                < s.replication_factor(SystemKind::PowerGraph)
        );
        let single = sheet(Dataset::Twitter2010, 1);
        assert!((single.replication_factor(SystemKind::PowerGraph) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eta_is_a_valid_ratio() {
        let s = sheet(Dataset::Eu2015, 9);
        let eta = s.eta();
        assert!(eta > 0.0 && eta <= 1.0);
    }
}
