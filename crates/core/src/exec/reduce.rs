//! The one place a run's [`RunResult`] is made: every executor hands its
//! servers' [`WorkerOutput`]s here, and they are zipped, in server-id order,
//! into per-superstep reports — so the result is independent of how the
//! servers were scheduled.

use super::{ExecutionPlan, WorkerOutput};
use crate::engine::RunResult;
use graphh_cluster::{ClusterMetrics, SuperstepReport};

/// Reduce `outputs` — one per server, every one run from superstep 0
/// through the same supersteps, in any order — into the run's result.
pub fn reduce(
    mut outputs: Vec<WorkerOutput>,
    plan: &ExecutionPlan,
    executor: &'static str,
    wall_clock_seconds: f64,
) -> RunResult {
    outputs.sort_by_key(|o| o.server);
    let supersteps_run = outputs.first().map_or(0, |o| o.supersteps_run);
    assert!(
        outputs.iter().all(|o| o.supersteps_run == supersteps_run),
        "servers must agree on the superstep count"
    );
    let supersteps = outputs.first().map_or(0, |o| o.metrics.len());
    let mut metrics = ClusterMetrics::default();
    let mut updated_ratio = Vec::with_capacity(supersteps);
    for superstep in 0..supersteps {
        let mut report = SuperstepReport::new(superstep as u32, outputs.len() as u32);
        for (server, (slot, output)) in report.servers.iter_mut().zip(&outputs).enumerate() {
            assert_eq!(output.server as usize, server, "one output per server");
            *slot = output.metrics[superstep];
        }
        // Every server applied the same merged update set.
        let total_updates = report.servers[0].vertices_updated;
        report.total_vertices_updated = total_updates;
        updated_ratio.push(total_updates as f64 / plan.num_vertices as f64);
        metrics.push(plan.cost_model.finalize(report));
    }
    let per_server_io = outputs.iter().map(|o| o.io).collect();
    let cache_codec = outputs
        .first()
        .map_or(graphh_compress::Codec::Raw, |o| o.cache_codec);
    RunResult {
        values: outputs
            .into_iter()
            .next()
            .map_or_else(Vec::new, |o| o.values),
        metrics,
        supersteps_run,
        cache_codec,
        per_server_io,
        updated_ratio_per_superstep: updated_ratio,
        executor,
        wall_clock_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;
    use crate::engine::GraphHConfig;
    use graphh_cluster::{ClusterConfig, ServerMetrics};
    use graphh_compress::Codec;
    use graphh_graph::generators::path_graph;
    use graphh_partition::{Spe, SpeConfig};
    use graphh_storage::IoSnapshot;

    #[test]
    fn outputs_zip_into_per_superstep_reports_in_server_order() {
        let g = path_graph(100);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
        let plan = ExecutionPlan::prepare(&config, &p, &PageRank::new(2)).unwrap();
        let output = |server, edges: [u64; 2]| WorkerOutput {
            server,
            values: vec![f64::from(server); 3],
            cache_codec: Codec::Raw,
            io: IoSnapshot {
                read_ops: u64::from(server),
                ..Default::default()
            },
            supersteps_run: 2,
            metrics: edges
                .map(|edges_processed| ServerMetrics {
                    edges_processed,
                    vertices_updated: 10,
                    ..Default::default()
                })
                .to_vec(),
        };
        // Handed over out of order, as worker threads finish.
        let outputs = vec![output(1, [20, 40]), output(0, [10, 30])];
        let result = reduce(outputs, &plan, "test", 0.5);
        assert_eq!(result.metrics.num_supersteps(), 2);
        let s0 = &result.metrics.supersteps[0];
        assert_eq!(s0.servers[0].edges_processed, 10);
        assert_eq!(s0.servers[1].edges_processed, 20);
        assert_eq!(result.metrics.supersteps[1].servers[1].edges_processed, 40);
        assert_eq!(s0.total_vertices_updated, 10);
        assert!(s0.simulated_seconds > 0.0);
        assert_eq!(result.updated_ratio_per_superstep, vec![0.1, 0.1]);
        assert_eq!(result.values, [0.0; 3], "server 0's replica");
        let read_ops: Vec<u64> = result.per_server_io.iter().map(|io| io.read_ops).collect();
        assert_eq!(read_ops, [0, 1]);
        assert_eq!((result.supersteps_run, result.executor), (2, "test"));
    }
}
