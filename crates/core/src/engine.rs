//! The MPE: GraphH's out-of-core, tile-at-a-time BSP engine (paper Algorithm 5).
//!
//! The engine itself is now a thin shell: configuration ([`GraphHConfig`]),
//! result reporting ([`RunResult`]) and a pluggable execution strategy
//! ([`crate::exec::Executor`]). The superstep machinery shared by all
//! strategies lives in [`crate::exec`] — one server's superstep is one
//! [`crate::exec::WorkerStep`]; the single-threaded reference strategy
//! ([`crate::exec::sequential::SequentialExecutor`]) steps every server's on
//! one thread, and [`crate::exec::sequential::ThreadedExecutor`] runs the same
//! loop over a pool sized to the host's CPUs.

use crate::exec::sequential::SequentialExecutor;
use crate::exec::Executor;
use crate::gab::{DirectionMode, GabProgram};
use crate::Result;
use graphh_cache::CacheMode;
use graphh_cluster::{ClusterConfig, ClusterMetrics, CommunicationMode};
use graphh_compress::Codec;
use graphh_partition::PartitionedGraph;
use graphh_storage::IoSnapshot;
use std::sync::Arc;

/// Configuration of a GraphH run.
#[derive(Debug, Clone)]
pub struct GraphHConfig {
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Broadcast encoding policy (§IV-C); the paper's default is hybrid.
    pub communication: CommunicationMode,
    /// Broadcast message compressor; the paper's default is snappy.
    pub message_compressor: Option<Codec>,
    /// Edge cache codec policy (§IV-B); the paper's default is automatic selection.
    pub cache_mode: CacheMode,
    /// Edge cache capacity per server in bytes. `None` = whatever memory is left after
    /// the vertex-state and message arrays (the paper's "idle memory").
    pub cache_capacity: Option<u64>,
    /// Skip tiles whose sources were not updated (§III-C.4). The name is the
    /// paper's — it keeps a Bloom filter per tile; the engine probes a bitmap
    /// of the tile's sources, exact wherever it is no larger than that filter
    /// would be — and `benchmark/` reads the field by it.
    pub use_bloom_filter: bool,
    /// Cap on supersteps, overriding the program's own limit when smaller.
    pub max_supersteps: Option<u32>,
    /// Compute threads per server for the tile phase (the paper's `T` worker
    /// threads inside every server). `None` = the machine's worker count
    /// (`cluster.machine.workers`; 12 on the paper testbed). Results are
    /// bit-identical for every thread count — only wall-clock changes.
    pub threads_per_server: Option<u32>,
    /// Override of the engine's per-superstep push/pull choice: `Auto` (the
    /// default) lets the engine pick from the replicated frontier for every
    /// push-capable program — PageRank and the other pull-only programs pull,
    /// as in the paper — or force every superstep onto one path (see
    /// [`DirectionMode`] for what that is for). Forcing push for a pull-only
    /// program is rejected at plan time.
    pub direction_mode: DirectionMode,
}

impl GraphHConfig {
    /// The configuration the paper evaluates: hybrid broadcast, snappy messages,
    /// automatic cache mode, tile skipping enabled.
    pub fn paper_default(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            communication: CommunicationMode::default(),
            message_compressor: Some(Codec::Snappy),
            cache_mode: CacheMode::Auto,
            cache_capacity: None,
            use_bloom_filter: true,
            max_supersteps: None,
            threads_per_server: None,
            direction_mode: DirectionMode::Auto,
        }
    }

    /// Disable the edge cache entirely (every tile read hits the disk), used by the
    /// Figure 7 baseline and ablations.
    pub fn without_cache(mut self) -> Self {
        self.cache_capacity = Some(0);
        self
    }

    /// Pin the tile phase to `threads` compute threads per server (the
    /// paper's `T`). A value of 0 is kept as-is and rejected by
    /// [`Self::validate`] when the run starts — silently clamping would hide
    /// a config bug.
    pub fn with_threads_per_server(mut self, threads: u32) -> Self {
        self.threads_per_server = Some(threads);
        self
    }

    /// Override the engine's per-superstep direction choice (see
    /// [`GraphHConfig::direction_mode`]).
    pub fn with_direction_mode(mut self, mode: DirectionMode) -> Self {
        self.direction_mode = mode;
        self
    }

    /// Check the configuration for values that would panic or hang deep
    /// inside a run. Every executor calls this before doing any work (via
    /// `ExecutionPlan::prepare`), so a bad config surfaces as a clear `Err`
    /// at construction of the plan rather than as a division by zero in tile
    /// assignment or a worker pool waiting for zero threads.
    pub fn validate(&self) -> Result<()> {
        if self.cluster.num_servers == 0 {
            return Err(crate::EngineError::BadInput(
                "invalid config: cluster.num_servers is 0 (a cluster needs at least one server)"
                    .into(),
            ));
        }
        if self.threads_per_server == Some(0) {
            return Err(crate::EngineError::BadInput(
                "invalid config: threads_per_server is 0 (each server needs at least one \
                 compute thread; use None for the machine default)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Final vertex values (indexed by vertex id).
    pub values: Vec<f64>,
    /// Per-superstep metrics with simulated times filled in.
    pub metrics: ClusterMetrics,
    /// Number of supersteps executed.
    pub supersteps_run: u32,
    /// The codec the edge cache selected.
    pub cache_codec: Codec,
    /// What each server's local disk moved during the run: the reads of its
    /// cache misses, and the writes that staged its tiles — which only the
    /// first run over a partitioned graph (or any clone of it) makes.
    pub per_server_io: Vec<IoSnapshot>,
    /// Fraction of vertices updated in each superstep (Figure 8a).
    pub updated_ratio_per_superstep: Vec<f64>,
    /// Name of the executor that produced this result.
    pub executor: &'static str,
    /// Real elapsed time of the run on this machine in seconds (as opposed to
    /// the *simulated* cluster seconds in `metrics`).
    pub wall_clock_seconds: f64,
}

impl RunResult {
    /// Average simulated seconds per superstep, excluding the first (the paper's
    /// reporting convention).
    pub fn avg_superstep_seconds(&self) -> f64 {
        self.metrics.avg_seconds_per_superstep(true)
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.metrics.total_seconds()
    }
}

/// The GraphH engine: a configuration plus an execution strategy.
#[derive(Clone)]
pub struct GraphHEngine {
    config: GraphHConfig,
    executor: Arc<dyn Executor>,
}

impl GraphHEngine {
    /// An engine with the given configuration and the sequential reference
    /// executor.
    pub fn new(config: GraphHConfig) -> Self {
        Self::with_executor(config, Arc::new(SequentialExecutor::new()))
    }

    /// An engine with an explicit execution strategy (e.g.
    /// [`crate::ThreadedExecutor`]).
    pub fn with_executor(config: GraphHConfig, executor: Arc<dyn Executor>) -> Self {
        Self { config, executor }
    }

    /// The configuration.
    pub fn config(&self) -> &GraphHConfig {
        &self.config
    }

    /// Run `program` over `partitioned` on the configured cluster.
    pub fn run(
        &self,
        partitioned: &PartitionedGraph,
        program: &dyn GabProgram,
    ) -> Result<RunResult> {
        self.executor.execute(&self.config, partitioned, program)
    }
}

impl std::fmt::Debug for GraphHEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphHEngine")
            .field("config", &self.config)
            .field("executor", &self.executor.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, DegreeCentrality, PageRank, Sssp, Wcc};
    use crate::reference;
    use graphh_graph::generators::{
        grid_graph, path_graph, star_graph, GraphGenerator, RmatGenerator,
    };
    use graphh_graph::Graph;
    use graphh_partition::{Spe, SpeConfig};

    fn partition(graph: &Graph, tiles: u32) -> PartitionedGraph {
        Spe::partition(graph, &SpeConfig::with_tile_count("test", graph, tiles)).unwrap()
    }

    fn engine(servers: u32) -> GraphHEngine {
        GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(
            servers,
        )))
    }

    #[test]
    fn pagerank_matches_reference_on_rmat() {
        let g = RmatGenerator::new(8, 6).generate(11);
        let p = partition(&g, 7);
        let result = engine(3).run(&p, &PageRank::new(10)).unwrap();
        let expected = reference::pagerank(&g, 10);
        assert!(
            reference::max_abs_diff(&result.values, &expected) < 1e-9,
            "distributed PageRank diverged from reference"
        );
        assert_eq!(result.supersteps_run, 10);
        assert_eq!(result.executor, "sequential");
        assert!(result.wall_clock_seconds > 0.0);
    }

    #[test]
    fn pagerank_is_identical_across_cluster_sizes() {
        let g = RmatGenerator::new(7, 5).generate(2);
        let p = partition(&g, 9);
        let one = engine(1).run(&p, &PageRank::new(5)).unwrap();
        let nine = engine(9).run(&p, &PageRank::new(5)).unwrap();
        assert!(reference::max_abs_diff(&one.values, &nine.values) < 1e-12);
    }

    #[test]
    fn sssp_matches_reference_on_weighted_grid() {
        let g = grid_graph(6, 7);
        let p = partition(&g, 5);
        let result = engine(3).run(&p, &Sssp::new(0)).unwrap();
        let expected = reference::sssp(&g, 0);
        assert_eq!(reference::max_abs_diff(&result.values, &expected), 0.0);
    }

    #[test]
    fn sssp_terminates_before_max_supersteps_via_convergence() {
        let g = path_graph(12);
        let p = partition(&g, 4);
        let result = engine(2).run(&p, &Sssp::new(0)).unwrap();
        // A 12-vertex path needs 12 supersteps to settle (one hop per superstep plus
        // the final no-update round), far below u32::MAX.
        assert!(result.supersteps_run <= 13);
        assert_eq!(
            reference::max_abs_diff(&result.values, &reference::sssp(&g, 0)),
            0.0
        );
    }

    #[test]
    fn bfs_and_wcc_match_reference() {
        let g = RmatGenerator::new(7, 4).simplified().generate(5);
        let p = partition(&g, 6);
        let bfs = engine(3).run(&p, &Bfs::new(0)).unwrap();
        assert_eq!(
            reference::max_abs_diff(&bfs.values, &reference::bfs(&g, 0)),
            0.0
        );

        // WCC needs the symmetrised graph.
        let mut b = graphh_graph::GraphBuilder::new()
            .with_num_vertices(g.num_vertices())
            .symmetric(true);
        for e in g.edges().iter() {
            b.add_edge(e);
        }
        let sym = b.build().unwrap();
        let psym = partition(&sym, 6);
        let wcc = engine(3).run(&psym, &Wcc::new()).unwrap();
        assert_eq!(
            reference::max_abs_diff(&wcc.values, &reference::wcc(&sym)),
            0.0
        );
    }

    #[test]
    fn degree_centrality_matches_in_degrees() {
        let g = star_graph(64);
        let p = partition(&g, 3);
        let result = engine(2).run(&p, &DegreeCentrality::new()).unwrap();
        assert_eq!(result.values[0], 63.0);
        assert!(result.values[1..].iter().all(|&v| v == 0.0));
        assert_eq!(result.supersteps_run, 1);
    }

    #[test]
    fn metrics_record_real_work() {
        let g = RmatGenerator::new(8, 6).generate(1);
        let p = partition(&g, 8);
        let result = engine(3).run(&p, &PageRank::new(5)).unwrap();
        let m = &result.metrics;
        assert_eq!(m.num_supersteps() as u32, result.supersteps_run);
        // Every superstep processes every edge for PageRank (all vertices active).
        for report in &m.supersteps {
            assert_eq!(report.total_edges_processed(), g.num_edges());
            assert!(report.simulated_seconds > 0.0);
        }
        // 3 servers, tiles get broadcast: network traffic must be non-zero.
        assert!(m.total_network_bytes() > 0);
        // With a 128 GB machine everything fits in cache after the first superstep.
        assert!(m.supersteps[2].cache_hit_ratio() > 0.99);
        assert!(m.total_disk_bytes() > 0);
        assert!(m.peak_memory_bytes() > 0);
        assert_eq!(result.updated_ratio_per_superstep.len(), 5);
        assert!(result.avg_superstep_seconds() > 0.0);
    }

    #[test]
    fn single_server_generates_no_network_traffic() {
        let g = RmatGenerator::new(7, 4).generate(9);
        let p = partition(&g, 5);
        let result = engine(1).run(&p, &PageRank::new(3)).unwrap();
        assert_eq!(result.metrics.total_network_bytes(), 0);
    }

    #[test]
    fn disabling_cache_forces_disk_reads_every_superstep() {
        let g = RmatGenerator::new(7, 6).generate(4);
        let p = partition(&g, 6);
        let cached = engine(2).run(&p, &PageRank::new(4)).unwrap();
        let uncached_engine = GraphHEngine::new(
            GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)).without_cache(),
        );
        let uncached = uncached_engine.run(&p, &PageRank::new(4)).unwrap();
        assert!(
            uncached.metrics.total_disk_bytes() > cached.metrics.total_disk_bytes(),
            "cache should cut disk traffic"
        );
        // Results are identical either way.
        assert!(reference::max_abs_diff(&cached.values, &uncached.values) < 1e-12);
    }

    #[test]
    fn bloom_filter_skips_tiles_for_frontier_algorithms() {
        let g = path_graph(200);
        let p = partition(&g, 20);
        // The probe belongs to the pull path; a push superstep finds its
        // tiles by the frontier and skips the rest with or without it.
        let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2))
            .with_direction_mode(DirectionMode::ForcePull);
        let with_bloom = GraphHEngine::new(cfg.clone())
            .run(&p, &Sssp::new(0))
            .unwrap();
        cfg.use_bloom_filter = false;
        let without_bloom = GraphHEngine::new(cfg).run(&p, &Sssp::new(0)).unwrap();
        let skipped: u64 = with_bloom
            .metrics
            .supersteps
            .iter()
            .flat_map(|r| r.servers.iter())
            .map(|s| s.tiles_skipped)
            .sum();
        let skipped_without: u64 = without_bloom
            .metrics
            .supersteps
            .iter()
            .flat_map(|r| r.servers.iter())
            .map(|s| s.tiles_skipped)
            .sum();
        assert!(skipped > 0, "SSSP on a path should skip most tiles");
        assert_eq!(skipped_without, 0);
        assert_eq!(
            reference::max_abs_diff(&with_bloom.values, &without_bloom.values),
            0.0
        );
    }

    #[test]
    fn max_supersteps_override_caps_execution() {
        let g = RmatGenerator::new(6, 4).generate(8);
        let p = partition(&g, 4);
        let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
        cfg.max_supersteps = Some(3);
        let result = GraphHEngine::new(cfg).run(&p, &PageRank::new(100)).unwrap();
        assert_eq!(result.supersteps_run, 3);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = Graph::from_edges(0, graphh_graph::EdgeList::new_unweighted()).unwrap();
        let p = partition(&g, 1);
        assert!(engine(1).run(&p, &PageRank::new(1)).is_err());
    }
}
