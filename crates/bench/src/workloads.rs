//! Shared workload setup for the experiments.

use graphh_cluster::ClusterConfig;
use graphh_core::{Executor, GraphHConfig, GraphHEngine, RunResult};
use graphh_graph::datasets::{Dataset, DatasetSpec};
use graphh_graph::Graph;
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use std::sync::Arc;

/// Seed every experiment uses so results are reproducible run-to-run.
pub const EXPERIMENT_SEED: u64 = 2017;

/// Extra down-scaling applied on top of [`Dataset::default_spec`] so the full report
/// (4 datasets × 4 cluster sizes × several systems) completes in seconds.
pub const REPORT_EXTRA_SCALE: f64 = 4.0;

/// The dataset stand-in used by the experiment harness.
pub fn experiment_spec(dataset: Dataset) -> DatasetSpec {
    let base = dataset.default_spec();
    DatasetSpec::scaled(dataset, base.scale_divisor * REPORT_EXTRA_SCALE)
}

/// Generate the experiment stand-in graph for a dataset.
pub fn experiment_graph(dataset: Dataset) -> Graph {
    experiment_spec(dataset).generate(EXPERIMENT_SEED)
}

/// Partition a graph with roughly 4 tiles per server of the largest cluster (36
/// tiles), so every cluster size from 1 to 9 servers has work to spread.
pub fn partition_for_experiments(graph: &Graph, name: &str) -> PartitionedGraph {
    Spe::partition(graph, &SpeConfig::with_tile_count(name, graph, 36))
        .expect("partitioning experiment graphs cannot fail")
}

/// Run GraphH with the paper-default configuration (sequential reference
/// executor).
pub fn run_graphh(
    partitioned: &PartitionedGraph,
    program: &dyn graphh_core::GabProgram,
    servers: u32,
) -> RunResult {
    GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(
        servers,
    )))
    .run(partitioned, program)
    .expect("GraphH run failed")
}

/// Run GraphH with the paper-default configuration on an explicit executor.
pub fn run_graphh_with(
    partitioned: &PartitionedGraph,
    program: &dyn graphh_core::GabProgram,
    servers: u32,
    executor: Arc<dyn Executor>,
) -> RunResult {
    run_graphh_config(
        partitioned,
        program,
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers)),
        executor,
    )
}

/// Run GraphH with an explicit configuration and executor (the
/// threads-per-server bench axis sets `config.threads_per_server`).
pub fn run_graphh_config(
    partitioned: &PartitionedGraph,
    program: &dyn graphh_core::GabProgram,
    config: GraphHConfig,
    executor: Arc<dyn Executor>,
) -> RunResult {
    GraphHEngine::with_executor(config, executor)
        .run(partitioned, program)
        .expect("GraphH run failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_graphs_are_reproducible_and_modest() {
        let a = experiment_graph(Dataset::Twitter2010);
        let b = experiment_graph(Dataset::Twitter2010);
        assert_eq!(a.num_edges(), b.num_edges());
        assert!(a.num_edges() < 300_000, "keep the harness fast");
        assert!(a.num_edges() > 10_000, "keep the harness meaningful");
    }

    #[test]
    fn partitioning_gives_enough_tiles_for_nine_servers() {
        let g = experiment_graph(Dataset::Uk2007);
        let p = partition_for_experiments(&g, "uk-2007");
        assert!(p.num_tiles() >= 18);
    }
}
