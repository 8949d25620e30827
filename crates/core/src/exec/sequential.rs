//! The reference executor: every simulated server runs on the calling thread.
//!
//! It steps one [`WorkerStep`] per server — the superstep body the threaded
//! executor and `graphh-node` run too — and delivers every server's wires to
//! its peers in server-id order. `graphh-runtime`'s threaded executor, whose
//! wires arrive in whatever order its channels deliver them, must produce
//! bit-identical values. Traffic goes through the real wire path
//! ([`graphh_cluster::MessageCodec`]), so Figure 8 numbers are measured here
//! exactly as they are on the threaded channels.

use super::{reduce, ExecutionPlan, Executor, WorkerStep};
use crate::engine::{GraphHConfig, RunResult};
use crate::gab::GabProgram;
use crate::Result;
use graphh_obs::TraceConfig;
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
        let mut steps: Vec<WorkerStep> = (0..config.cluster.num_servers)
            .map(|sid| WorkerStep::new(config, &plan, partitioned, program, sid, tracer))
            .collect();
        rec.end(load, "server-build", "load");
        // The servers run one at a time, so they take turns with one
        // `GabProgram::prepare` array: one per process, not one per server.
        let mut prepared: Vec<f64> = Vec::new();

        while let Some(superstep) = steps[0].next_superstep() {
            for sid in 0..steps.len() {
                let compute = rec.begin();
                let (before, rest) = steps.split_at_mut(sid);
                let (sender, after) = rest.split_first_mut().expect("sid < steps.len()");
                sender.swap_prepared(&mut prepared);
                let direction = sender.compute();
                sender.swap_prepared(&mut prepared);
                rec.end_superstep_dir(
                    compute,
                    "tile-compute",
                    "superstep",
                    superstep,
                    direction?.as_str(),
                );
                // Each wire reaches the peers before the next server computes,
                // so every receiver takes its peers' wires in server-id order.
                let publish = rec.begin();
                for wire in sender.encode() {
                    for receiver in before.iter_mut().chain(after.iter_mut()) {
                        receiver.receive(wire)?;
                    }
                }
                rec.end_superstep(publish, "encode-publish", "superstep", superstep);
            }
            let apply = rec.begin();
            for step in &mut steps {
                step.apply()?;
            }
            rec.end_superstep(apply, "apply", "superstep", superstep);
        }

        let outputs = steps.into_iter().map(WorkerStep::finish).collect();
        let wall_clock_seconds = started.elapsed().as_secs_f64();
        Ok(reduce(outputs, &plan, self.name(), wall_clock_seconds))
    }
}
