//! The reference executor: every simulated server runs on the calling thread.
//!
//! This is the engine loop the rest of the workspace is differentially tested
//! against — `graphh-runtime`'s threaded executor must produce bit-identical
//! values. Traffic is still pushed through the real wire path
//! ([`graphh_cluster::MessageCodec`]), so Figure 8 numbers are measured here
//! exactly as they are on the threaded channels.

use super::{merge_updates_in_place, ExecutionPlan, Executor, ServerState};
use crate::engine::{GraphHConfig, RunResult};
use crate::gab::{Direction, GabProgram};
use crate::Result;
use graphh_cluster::{ClusterMetrics, ServerMetrics, SuperstepReport};
use graphh_graph::ids::VertexId;
use graphh_obs::{global_counters, TraceConfig};
use graphh_partition::PartitionedGraph;
use std::time::Instant;

/// Runs all simulated servers on one thread, in server-id order.
#[derive(Debug, Clone, Default)]
pub struct SequentialExecutor {
    trace: TraceConfig,
}

impl SequentialExecutor {
    /// A sequential executor with tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sequential executor recording phase spans into `trace`.
    ///
    /// All servers run on the calling thread, so every span lands on lane 0
    /// (tagged with its superstep); each server's pool-job spans land on that
    /// server's pool lanes (see `docs/OBSERVABILITY.md`).
    pub fn with_trace(trace: TraceConfig) -> Self {
        Self { trace }
    }
}

impl Executor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute(
        &self,
        config: &GraphHConfig,
        partitioned: &PartitionedGraph,
        program: &dyn GabProgram,
    ) -> Result<RunResult> {
        let started = Instant::now();
        let tracer = &self.trace.tracer;
        let mut rec = tracer.thread(0);
        let load = rec.begin();
        let plan = ExecutionPlan::prepare(config, partitioned, program)?;
        let num_servers = config.cluster.num_servers;
        let mut servers: Vec<ServerState> = (0..num_servers)
            .map(|sid| {
                let server = ServerState::build(config, &plan, partitioned, sid);
                server.set_tracer(tracer.clone(), 100 * (1 + sid));
                server
            })
            .collect();
        rec.end(load, "server-build", "load");

        let mut metrics = ClusterMetrics::default();
        let mut updated_ratio = Vec::new();
        // Vertices updated in the previous superstep (drives tile skipping).
        let mut previously_updated: Vec<VertexId> = plan.initial_frontier();
        let mut supersteps_run = 0u32;
        // Cleared and reused every superstep: the broadcast hot path reuses
        // one update buffer and one set of codec scratch buffers for the
        // whole run (zero steady-state allocation on the uncompressed path).
        let mut all_updates: Vec<(VertexId, f64)> = Vec::new();
        let mut enc_scratch: Vec<u8> = Vec::new();
        let mut wire: Vec<u8> = Vec::new();
        let mut dec_scratch: Vec<u8> = Vec::new();
        // Persistent compressor state (LZSS match-finder tables): reused for
        // every compressed message of the run, making the compressed encode
        // path allocation-free too; flushed into `compress.*` at run end.
        let mut comp = graphh_compress::CompressorScratch::new();
        // Direction decision counters, fetched once (the registry lookup
        // locks; the hot-loop adds are relaxed atomics).
        let counters = global_counters();
        let dir_pull = counters.counter("exec.direction.pull");
        let dir_push = counters.counter("exec.direction.push");

        for superstep in 0..plan.max_supersteps {
            let mut report = SuperstepReport::new(superstep, num_servers);
            all_updates.clear();
            // One frontier view per superstep: stats + direction, shared by
            // every server's tile phase (and identical to what every
            // threaded / multi-process worker computes from its replica).
            let view = plan.frontier_view(program, &previously_updated);
            match view.direction {
                Direction::Push => dir_push.add(1),
                _ => dir_pull.add(1),
            }

            for (sid, server) in servers.iter_mut().enumerate() {
                let compute = rec.begin();
                let phase = server.run_tile_phase(
                    program,
                    &plan,
                    superstep,
                    &view,
                    config.use_bloom_filter,
                )?;
                rec.end_superstep_dir(
                    compute,
                    "tile-compute",
                    "superstep",
                    superstep,
                    view.direction.as_str(),
                );
                let mut server_metrics = phase.metrics;
                // What every *other* server receives from this one.
                let mut received = ServerMetrics::default();
                let publish = rec.begin();
                for message in &phase.messages {
                    plan.message_codec.encode_into_with(
                        message,
                        &mut server_metrics,
                        &mut enc_scratch,
                        &mut wire,
                        &mut comp,
                    );
                    let fanout = u64::from(num_servers - 1);
                    server_metrics.network_sent_bytes += wire.len() as u64 * fanout;
                    server_metrics.network_messages += fanout;
                    received.network_received_bytes += wire.len() as u64;
                    // Decode once, streaming straight into the shared update
                    // buffer: every receiver sees the same payload and is
                    // charged the same decompression time.
                    plan.message_codec
                        .decode_each(&wire, &mut received, &mut dec_scratch, |v, val| {
                            all_updates.push((v, val));
                        })
                        .expect("we just encoded this");
                }
                rec.end_superstep(publish, "encode-publish", "superstep", superstep);
                report.servers[sid] = server_metrics;
                for (other, slot) in report.servers.iter_mut().enumerate() {
                    if other != sid {
                        slot.network_received_bytes += received.network_received_bytes;
                        slot.decompress_seconds += received.decompress_seconds;
                    }
                }
            }

            // BSP barrier: apply all broadcast updates to every replica.
            let apply = rec.begin();
            merge_updates_in_place(&mut all_updates);
            for server in &mut servers {
                server.apply_updates(&all_updates);
            }
            rec.end_superstep(apply, "apply", "superstep", superstep);
            for (sid, server) in servers.iter().enumerate() {
                report.servers[sid].vertices_updated = all_updates.len() as u64;
                report.servers[sid].peak_memory_bytes = server.peak_memory();
            }
            report.total_vertices_updated = all_updates.len() as u64;
            updated_ratio.push(all_updates.len() as f64 / plan.num_vertices as f64);
            previously_updated.clear();
            previously_updated.extend(all_updates.iter().map(|&(v, _)| v));

            let report = plan.cost_model.finalize(report);
            metrics.push(report);
            supersteps_run = superstep + 1;

            if previously_updated.is_empty() {
                break;
            }
        }

        for server in &servers {
            server.publish_observability();
        }
        comp.publish_observability();
        let per_server_peak_memory = servers.iter().map(ServerState::peak_memory).collect();
        let cache_codec = servers
            .first()
            .map(ServerState::cache_codec)
            .unwrap_or(graphh_compress::Codec::Raw);
        let values = servers
            .into_iter()
            .next()
            .map(|s| s.values)
            .unwrap_or_default();

        Ok(RunResult {
            values,
            metrics,
            supersteps_run,
            cache_codec,
            per_server_peak_memory,
            updated_ratio_per_superstep: updated_ratio,
            executor: self.name(),
            wall_clock_seconds: started.elapsed().as_secs_f64(),
        })
    }
}
