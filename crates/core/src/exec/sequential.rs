//! The in-process executors: every simulated server of a run lives in this
//! process, and one superstep loop steps them all.
//!
//! Each server is one [`WorkerStep`] — the superstep body `graphh-node` runs
//! too — and each superstep is two phases, each fanned out over one
//! [`WorkerPool`], one job per server:
//!
//! 1. every server computes its tiles and encodes its messages; each wire is
//!    copied out once, in message order, and the wires are kept in server
//!    order;
//! 2. every server receives its peers' wires in server-id order, then applies
//!    the merged updates.
//!
//! The join between the phases is the lockstep: no server applies superstep
//! `s` before every server has published it. [`SequentialExecutor`] runs the
//! loop on a pool of one — every server inline on the calling thread, the
//! reference; [`ThreadedExecutor`] on a pool of `min(servers, available
//! parallelism)` threads, so a one-CPU process steps its servers inline as
//! well. Nothing else differs: the same values, the same counters, the same
//! bytes. Traffic goes through the real wire path
//! ([`graphh_cluster::MessageCodec`]), so Figure 8 numbers are measured here
//! exactly as they are between `graphh-node` processes.

use super::{reduce, ExecutionPlan, Executor, WorkerStep};
use crate::engine::{GraphHConfig, RunResult};
use crate::gab::GabProgram;
use crate::Result;
use graphh_graph::ids::ServerId;
use graphh_obs::{SpanRecorder, TraceConfig};
use graphh_partition::PartitionedGraph;
use graphh_pool::WorkerPool;
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Runs all simulated servers on the calling thread, in server-id order.
#[derive(Debug, Clone, Default)]
pub struct SequentialExecutor {
    trace: TraceConfig,
}

impl SequentialExecutor {
    /// A sequential executor with tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sequential executor recording phase spans into `trace`: the
    /// driver's on lane 0, server `sid`'s on lane `1 + sid`, its pool jobs on
    /// lanes `100 * (1 + sid) + worker_index` (see `docs/OBSERVABILITY.md`).
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
        run(config, partitioned, program, &self.trace, 1, self.name())
    }
}

/// Runs the simulated servers on a pool of `min(servers, available
/// parallelism)` threads: each of them fans its tile phase out to
/// `threads_per_server` compute threads (the paper's `T`). On one CPU the
/// pool is the calling thread alone.
///
/// Observationally equivalent to [`SequentialExecutor`]: `values` are
/// bit-identical; wall-clock time scales with available cores.
#[derive(Debug, Clone, Default)]
pub struct ThreadedExecutor {
    trace: TraceConfig,
}

impl ThreadedExecutor {
    /// A threaded executor with tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// A threaded executor recording phase spans into `trace`, on the lanes
    /// [`SequentialExecutor::with_trace`] names.
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
    ) -> Result<RunResult> {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let threads = cpus.min(config.cluster.num_servers as usize);
        run(
            config,
            partitioned,
            program,
            &self.trace,
            threads,
            self.name(),
        )
    }
}

/// One server of the loop: its superstep body and its span lane.
struct Server<'a> {
    step: WorkerStep<'a>,
    rec: SpanRecorder,
}

/// Job `sid` of a phase touches only server `sid`, so its mutex is never
/// contended.
fn lock<'m, 'a>(server: &'m Mutex<Server<'a>>) -> MutexGuard<'m, Server<'a>> {
    server
        .lock()
        .expect("only a panic in its own job poisons a server, and the pool re-raises it")
}

/// The superstep loop of the module docs, over a pool of `threads`.
fn run(
    config: &GraphHConfig,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    trace: &TraceConfig,
    threads: usize,
    name: &'static str,
) -> Result<RunResult> {
    let started = Instant::now();
    let pool = WorkerPool::new(threads);
    let tracer = &trace.tracer;
    let mut rec = tracer.thread(0);
    let prepare = rec.begin();
    let plan = ExecutionPlan::prepare(config, partitioned, program)?;
    rec.end(prepare, "plan-prepare", "load");
    let plan = &plan;
    let num_servers = config.cluster.num_servers as usize;
    let servers = pool.fork_join_ordered(num_servers, |sid| {
        let mut rec = tracer.thread(1 + sid as ServerId);
        let load = rec.begin();
        let step = WorkerStep::new(config, plan, partitioned, program, sid as ServerId, tracer);
        rec.end(load, "server-build", "load");
        Mutex::new(Server { step, rec })
    });

    loop {
        let Some(superstep) = lock(&servers[0]).step.next_superstep() else {
            break;
        };
        let wires = pool.fork_join_ordered(num_servers, |sid| {
            let Server { step, rec } = &mut *lock(&servers[sid]);
            let compute = rec.begin();
            let direction = step.compute()?.as_str();
            rec.end_superstep_dir(compute, "tile-compute", "superstep", superstep, direction);
            let publish = rec.begin();
            let wires: Vec<Vec<u8>> = step.encode().map(<[u8]>::to_vec).collect();
            rec.end_superstep(publish, "encode-publish", "superstep", superstep);
            Ok(wires)
        });
        let wires = wires.into_iter().collect::<Result<Vec<_>>>()?;
        let applied = pool.fork_join_ordered(num_servers, |sid| {
            let Server { step, rec } = &mut *lock(&servers[sid]);
            let exchange = rec.begin();
            let peers = wires.iter().enumerate().filter(|&(peer, _)| peer != sid);
            for wire in peers.flat_map(|(_, wires)| wires) {
                step.receive(wire)?;
            }
            rec.end_superstep(exchange, "collect-decode", "superstep", superstep);
            let apply = rec.begin();
            step.apply()?;
            rec.end_superstep(apply, "apply", "superstep", superstep);
            Ok(())
        });
        applied.into_iter().collect::<Result<()>>()?;
    }

    let outputs = servers.into_iter().map(|server| {
        let server = server.into_inner().expect("no server job panicked");
        server.step.finish()
    });
    let wall_clock_seconds = started.elapsed().as_secs_f64();
    Ok(reduce(outputs.collect(), plan, name, wall_clock_seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;
    use crate::gab::{Apply, Declaration, Edges, Final, InitContext, Update, VertexContext};
    use crate::GraphHEngine;
    use graphh_cluster::ClusterConfig;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_graph::{EdgeList, Graph};
    use graphh_partition::{Spe, SpeConfig};
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    fn engines(servers: u32) -> [GraphHEngine; 2] {
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers));
        [
            GraphHEngine::with_executor(cfg.clone(), Arc::new(SequentialExecutor::new())),
            GraphHEngine::with_executor(cfg, Arc::new(ThreadedExecutor::new())),
        ]
    }

    #[test]
    fn a_single_server_ships_nothing() {
        let g = RmatGenerator::new(6, 4).generate(1);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        let [seq, thr] = engines(1);
        let a = seq.run(&p, &PageRank::new(4)).unwrap();
        let b = thr.run(&p, &PageRank::new(4)).unwrap();
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!((a.executor, b.executor), ("sequential", "threaded"));
        assert_eq!(b.metrics.total_network_bytes(), 0);
    }

    /// A program whose gather panics on one vertex in superstep 1 — stands in
    /// for a buggy user program blowing up inside one server.
    struct PanicAt {
        vertex: u32,
    }

    impl GabProgram for PanicAt {
        fn name(&self) -> &'static str {
            "panic-at"
        }
        fn initial_value(&self, _v: u32, _ctx: &InitContext) -> f64 {
            0.0
        }
        fn declaration(&self, _num_vertices: u64) -> Declaration {
            Declaration {
                fold: None,
                apply: Apply::Replace,
                update: Update::Moved(0.0),
                finality: Final::Never,
            }
        }
        fn gather(&self, target: u32, _in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
            if ctx.superstep == 1 && target == self.vertex {
                panic!("boom: user program failed on vertex {target}");
            }
            ctx.values[target as usize] + 1.0
        }
        fn max_supersteps(&self) -> u32 {
            5
        }
    }

    /// A server's panic reaches the caller of `execute` with its own payload,
    /// on either executor, whichever pool thread it ran on.
    #[test]
    fn a_server_panic_propagates_to_the_caller() {
        let g = RmatGenerator::new(7, 4).generate(2);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap();
        for engine in engines(3) {
            let program = PanicAt { vertex: 0 };
            let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| engine.run(&p, &program)))
                .expect_err("the program panics in superstep 1");
            let message = panicked
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(message.contains("boom"), "{message}");
        }
    }

    #[test]
    fn an_empty_graph_is_rejected() {
        let g = Graph::from_edges(0, EdgeList::new_unweighted()).unwrap();
        let p = Spe::partition(&g, &SpeConfig::new("x", 1)).unwrap();
        for engine in engines(3) {
            assert!(engine.run(&p, &PageRank::new(1)).is_err());
        }
    }
}
