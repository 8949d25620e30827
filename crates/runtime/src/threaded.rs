//! The threaded executor: one OS thread per simulated server.
//!
//! Spawns a scoped thread per server, wires them into a [`ChannelPlane`],
//! runs [`run_worker`] on each, and hands what they return to the reducer
//! the sequential executor uses too ([`graphh_core::exec::reduce`]). The
//! plane's end-of-superstep markers are the only lockstep mechanism — the
//! same one a multi-process cluster has.
//! Differential tests (below and in `tests/determinism.rs`) pin its output to
//! the sequential reference bit-for-bit.

use crate::plane::{BroadcastPlane, ChannelPlane};
use crate::worker::{run_worker, WorkerError, WorkerOptions};
use graphh_core::exec::{reduce, ExecutionPlan, Executor, WorkerOutput};
use graphh_core::gab::GabProgram;
use graphh_core::{EngineError, GraphHConfig, RunResult};
use graphh_obs::TraceConfig;
use graphh_partition::PartitionedGraph;
use std::thread;
use std::time::Instant;

/// Runs every simulated server on its own OS thread — `p` server threads,
/// each of which fans its tile phase out to `threads_per_server` compute
/// threads (the paper's `T`), i.e. `p × T` workers at peak.
///
/// Observationally equivalent to
/// [`graphh_core::SequentialExecutor`]: `values` are bit-identical; wall-clock
/// time scales with available cores instead of cluster size.
#[derive(Debug, Clone, Default)]
pub struct ThreadedExecutor {
    trace: TraceConfig,
}

impl ThreadedExecutor {
    /// A threaded executor with tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// A threaded executor recording phase spans into `trace`.
    ///
    /// Server `sid`'s worker thread records on lane `1 + sid`; its pool jobs
    /// on lanes `100 * (1 + sid) + worker_index` (see `docs/OBSERVABILITY.md`).
    pub fn with_trace(trace: TraceConfig) -> Self {
        Self { trace }
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn execute(
        &self,
        config: &GraphHConfig,
        partitioned: &PartitionedGraph,
        program: &dyn GabProgram,
    ) -> Result<RunResult, EngineError> {
        let started = Instant::now();
        let tracer = &self.trace.tracer;
        let mut driver_rec = tracer.thread(0);
        let prepare = driver_rec.begin();
        let plan = ExecutionPlan::prepare(config, partitioned, program)?;
        driver_rec.end(prepare, "plan-prepare", "load");
        let num_servers = config.cluster.num_servers;
        let planes = ChannelPlane::connect(num_servers);

        let worker_results: Vec<thread::Result<Result<WorkerOutput, WorkerError>>> =
            thread::scope(|scope| {
                let handles: Vec<_> = planes
                    .into_iter()
                    .map(|mut plane| {
                        let plan = &plan;
                        let tracer = tracer.clone();
                        scope.spawn(move || {
                            let sid = plane.server_id();
                            run_worker(
                                config,
                                plan,
                                partitioned,
                                program,
                                sid,
                                &mut plane,
                                &tracer,
                                WorkerOptions::default(),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        let mut outputs = Vec::with_capacity(num_servers as usize);
        let mut first_error: Option<WorkerError> = None;
        let mut panic_payload = None;
        for joined in worker_results {
            match joined {
                Ok(Ok(output)) => outputs.push(output),
                Ok(Err(e)) => {
                    // Prefer the root cause: a failing worker makes its peers
                    // fail too, but with *secondary* abort errors that would
                    // otherwise mask the actionable message.
                    let replace = match &first_error {
                        None => true,
                        Some(prev) => prev.secondary && !e.secondary,
                    };
                    if replace {
                        first_error = Some(e);
                    }
                }
                // A worker panic is a bug, not an engine error; re-raise it
                // (after joining everyone, so no thread outlives the scope).
                Err(payload) => panic_payload = Some(payload),
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        if let Some(e) = first_error {
            return Err(e.error);
        }
        let wall_clock_seconds = started.elapsed().as_secs_f64();
        Ok(reduce(outputs, &plan, self.name(), wall_clock_seconds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_cluster::ClusterConfig;
    use graphh_core::{GraphHEngine, PageRank, SequentialExecutor, Sssp};
    use graphh_graph::generators::{path_graph, GraphGenerator, RmatGenerator};
    use graphh_partition::{Spe, SpeConfig};
    use std::sync::Arc;

    fn engines(servers: u32) -> (GraphHEngine, GraphHEngine) {
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers));
        (
            GraphHEngine::with_executor(cfg.clone(), Arc::new(SequentialExecutor::new())),
            GraphHEngine::with_executor(cfg, Arc::new(ThreadedExecutor::new())),
        )
    }

    fn bit_identical(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn threaded_pagerank_is_bit_identical_to_sequential() {
        let g = RmatGenerator::new(8, 6).generate(7);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap();
        let (seq, thr) = engines(4);
        let a = seq.run(&p, &PageRank::new(8)).unwrap();
        let b = thr.run(&p, &PageRank::new(8)).unwrap();
        assert!(bit_identical(&a.values, &b.values));
        assert_eq!(a.supersteps_run, b.supersteps_run);
        assert_eq!(b.executor, "threaded");
        // Metered byte counters are scheduling-independent too.
        assert_eq!(
            a.metrics.total_network_bytes(),
            b.metrics.total_network_bytes()
        );
        assert_eq!(a.metrics.total_disk_bytes(), b.metrics.total_disk_bytes());
    }

    #[test]
    fn threaded_sssp_with_bloom_skipping_matches_sequential() {
        let g = path_graph(150);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 12)).unwrap();
        let (seq, thr) = engines(3);
        let a = seq.run(&p, &Sssp::new(0)).unwrap();
        let b = thr.run(&p, &Sssp::new(0)).unwrap();
        assert!(bit_identical(&a.values, &b.values));
        assert_eq!(a.supersteps_run, b.supersteps_run);
        assert_eq!(
            a.updated_ratio_per_superstep, b.updated_ratio_per_superstep,
            "convergence trajectory must match"
        );
    }

    #[test]
    fn single_server_threaded_run_works() {
        let g = RmatGenerator::new(6, 4).generate(1);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        let (seq, thr) = engines(1);
        let a = seq.run(&p, &PageRank::new(4)).unwrap();
        let b = thr.run(&p, &PageRank::new(4)).unwrap();
        assert!(bit_identical(&a.values, &b.values));
        assert_eq!(b.metrics.total_network_bytes(), 0);
    }

    /// A program whose `apply` panics on one vertex in superstep 1 — stands in
    /// for a buggy user program blowing up on a single worker thread.
    struct PanicAt {
        vertex: u32,
    }

    impl graphh_core::GabProgram for PanicAt {
        fn name(&self) -> &'static str {
            "panic-at"
        }
        fn initial_value(&self, _v: u32, _ctx: &graphh_core::gab::InitContext<'_>) -> f64 {
            0.0
        }
        fn gather(
            &self,
            _target: u32,
            _in_edges: &mut graphh_core::gab::Edges<'_>,
            _ctx: &graphh_core::gab::VertexContext<'_>,
        ) -> f64 {
            0.0
        }
        fn apply(
            &self,
            target: u32,
            _accum: f64,
            current: f64,
            ctx: &graphh_core::gab::VertexContext<'_>,
        ) -> f64 {
            if ctx.superstep == 1 && target == self.vertex {
                panic!("boom: user program failed on vertex {target}");
            }
            current + 1.0
        }
        fn max_supersteps(&self) -> u32 {
            5
        }
    }

    /// A worker panic must propagate out of `execute` (releasing the other
    /// workers via the plane's abort frame) — not deadlock the scope.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let g = RmatGenerator::new(7, 4).generate(2);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap();
        let (_, thr) = engines(3);
        let _ = thr.run(&p, &PanicAt { vertex: 0 });
    }

    /// PageRank, except that gathering one of the first few vertices stalls
    /// on odd supersteps — so the server owning that tile finishes those
    /// supersteps last, by a wide margin.
    struct Straggler(PageRank);

    impl graphh_core::GabProgram for Straggler {
        fn name(&self) -> &'static str {
            "straggler"
        }
        fn initial_value(&self, v: u32, ctx: &graphh_core::gab::InitContext<'_>) -> f64 {
            self.0.initial_value(v, ctx)
        }
        fn gather(
            &self,
            target: u32,
            in_edges: &mut graphh_core::gab::Edges<'_>,
            ctx: &graphh_core::gab::VertexContext<'_>,
        ) -> f64 {
            if ctx.superstep % 2 == 1 && target < 4 {
                thread::sleep(std::time::Duration::from_millis(5));
            }
            self.0.gather(target, in_edges, ctx)
        }
        fn apply(
            &self,
            target: u32,
            accum: f64,
            current: f64,
            ctx: &graphh_core::gab::VertexContext<'_>,
        ) -> f64 {
            self.0.apply(target, accum, current, ctx)
        }
        fn is_update(&self, old: f64, new: f64) -> bool {
            self.0.is_update(old, new)
        }
        fn max_supersteps(&self) -> u32 {
            self.0.max_supersteps()
        }
        fn initial_frontier(&self, num_vertices: u64) -> Option<Vec<u32>> {
            self.0.initial_frontier(num_vertices)
        }
        fn is_final(&self, value: f64) -> bool {
            self.0.is_final(value)
        }
        fn prepare(&self, values: &[f64], out_degrees: &[u32], prepared: &mut Vec<f64>) {
            self.0.prepare(values, out_degrees, prepared)
        }
        fn supports_push(&self) -> bool {
            self.0.supports_push()
        }
        fn scatter(
            &self,
            source: u32,
            value: f64,
            out_edges: &mut graphh_core::gab::Edges<'_>,
            emit: &mut dyn FnMut(u32, f64),
        ) {
            self.0.scatter(source, value, out_edges, emit)
        }
        fn combine(&self, a: f64, b: f64) -> f64 {
            self.0.combine(a, b)
        }
    }

    /// Nothing but the plane's end-of-superstep markers holds the servers in
    /// lockstep: while one server straggles through superstep `s`, the others
    /// cannot apply `s` (their `collect(s)` waits for its marker), and once it
    /// is through, whatever they publish for `s + 1` while it is still
    /// applying `s` waits in its collector's stash. Values stay bit-identical.
    #[test]
    fn a_straggling_server_needs_no_barrier_to_stay_bit_identical() {
        let g = RmatGenerator::new(7, 5).generate(11);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap();
        let (seq, thr) = engines(3);
        let a = seq.run(&p, &PageRank::new(6)).unwrap();
        let b = thr.run(&p, &Straggler(PageRank::new(6))).unwrap();
        assert!(bit_identical(&a.values, &b.values));
        assert_eq!(a.supersteps_run, b.supersteps_run);
        assert_eq!(
            a.metrics.total_network_bytes(),
            b.metrics.total_network_bytes()
        );
    }

    #[test]
    fn empty_graph_is_rejected_not_deadlocked() {
        let g =
            graphh_graph::Graph::from_edges(0, graphh_graph::EdgeList::new_unweighted()).unwrap();
        let p = Spe::partition(&g, &SpeConfig::new("x", 1)).unwrap();
        let (_, thr) = engines(3);
        assert!(thr.run(&p, &PageRank::new(1)).is_err());
    }
}
