//! Deterministic reduction of per-worker metrics into [`ClusterMetrics`].
//!
//! Every worker returns its own per-superstep metrics
//! ([`WorkerOutput::metrics`]); the reducer zips them, in server-id order,
//! into per-superstep reports — so the reduced metrics are independent of
//! thread scheduling.

use crate::worker::WorkerOutput;
use graphh_cluster::{ClusterMetrics, CostModel, SuperstepReport};

/// Reduced metrics plus the per-superstep updated-vertex counts.
pub struct ReducedMetrics {
    /// Per-superstep metrics with simulated seconds filled in.
    pub metrics: ClusterMetrics,
    /// Fraction of vertices updated per superstep.
    pub updated_ratio_per_superstep: Vec<f64>,
}

/// Zip `outputs` — one per server, ordered by server id, every one run from
/// superstep 0 through the same supersteps — into finalized superstep
/// reports, in superstep order.
pub fn reduce_metrics(
    outputs: &[WorkerOutput],
    num_vertices: u64,
    cost_model: &CostModel,
) -> ReducedMetrics {
    let supersteps = outputs.first().map_or(0, |o| o.metrics.len());
    let mut metrics = ClusterMetrics::default();
    let mut updated_ratio = Vec::with_capacity(supersteps);
    for superstep in 0..supersteps {
        let mut report = SuperstepReport::new(superstep as u32, outputs.len() as u32);
        for (server, (slot, output)) in report.servers.iter_mut().zip(outputs).enumerate() {
            assert_eq!(
                output.server as usize, server,
                "outputs out of server order"
            );
            *slot = output.metrics[superstep];
        }
        // Every server applied the same merged update set.
        let total_updates = report.servers[0].vertices_updated;
        report.total_vertices_updated = total_updates;
        updated_ratio.push(total_updates as f64 / num_vertices as f64);
        metrics.push(cost_model.finalize(report));
    }
    ReducedMetrics {
        metrics,
        updated_ratio_per_superstep: updated_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_cluster::{ClusterConfig, ServerMetrics};
    use graphh_compress::Codec;

    #[test]
    fn outputs_zip_into_per_superstep_reports_in_server_order() {
        let cost = CostModel::new(ClusterConfig::paper_testbed(2));
        let output = |server, edges: [u64; 2]| WorkerOutput {
            server,
            values: Vec::new(),
            cache_codec: Codec::Raw,
            peak_memory: 0,
            supersteps_run: 2,
            metrics: edges
                .map(|edges_processed| ServerMetrics {
                    edges_processed,
                    vertices_updated: 10,
                    ..Default::default()
                })
                .to_vec(),
        };
        let reduced = reduce_metrics(&[output(0, [10, 30]), output(1, [20, 40])], 100, &cost);
        assert_eq!(reduced.metrics.num_supersteps(), 2);
        let s0 = &reduced.metrics.supersteps[0];
        assert_eq!(s0.servers[0].edges_processed, 10);
        assert_eq!(s0.servers[1].edges_processed, 20);
        assert_eq!(reduced.metrics.supersteps[1].servers[1].edges_processed, 40);
        assert_eq!(s0.total_vertices_updated, 10);
        assert!(s0.simulated_seconds > 0.0);
        assert_eq!(reduced.updated_ratio_per_superstep, vec![0.1, 0.1]);
    }
}
