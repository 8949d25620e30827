//! A GraphH cluster over real TCP sockets, in one program — running any
//! registered program.
//!
//! Three servers run the chosen kernel over the loopback network: each on its
//! own thread with its own plane endpoint, every broadcast encoded by the real
//! `MessageCodec`, framed by the length-prefixed wire protocol (docs/WIRE.md),
//! and re-decoded on arrival — the same path the `graphh-node` binary runs
//! with one *process* per server (see README "Transport backends"). The final
//! replicas are bit-identical to the sequential reference executor, and the
//! demo *asserts* clean shutdown: after the planes drop, the process is back
//! to its baseline thread count (no lingering event-loop threads).
//!
//! ```text
//! cargo run --example socket_cluster             # PageRank
//! cargo run --example socket_cluster -- bfs      # any registry kernel
//! ```

use graphh::core::exec::ExecutionPlan;
use graphh::core::registry::{find_program, program_names, ProgramContext, ProgramOptions};
use graphh::obs::Tracer;
use graphh::prelude::*;
use graphh::runtime::{run_worker, BoundPollPlane, BroadcastPlane, PollPlane, WorkerOptions};
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::Arc;

const SERVERS: u32 = 3;

/// Run the 3-server cluster once and return each server's final replica
/// values (sorted by server id).
fn run_cluster(
    config: &GraphHConfig,
    plan: &ExecutionPlan,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
) -> Vec<(u32, Vec<f64>)> {
    // Bind all listeners first (port 0 = OS-assigned), then establish the
    // fully-connected fabric: lower ids are dialed, higher ids accepted.
    let bound: Vec<BoundPollPlane> = (0..SERVERS)
        .map(|sid| PollPlane::bind(sid, SERVERS, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = bound.iter().map(|b| b.local_addr().unwrap()).collect();
    println!("cluster endpoints: {addrs:?}");

    let mut replicas: Vec<(u32, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .map(|b| {
                let addrs = &addrs;
                scope.spawn(move || {
                    let mut endpoint = b.establish(addrs).expect("establish");
                    // No barrier: lockstep comes from the plane's
                    // end-of-superstep markers.
                    let (metrics_tx, _metrics_rx) = channel();
                    let sid = endpoint.server_id();
                    let out = run_worker(
                        config,
                        plan,
                        partitioned,
                        program,
                        sid,
                        &mut endpoint,
                        &metrics_tx,
                        &Tracer::off(),
                        WorkerOptions::default(),
                    )
                    .expect("worker");
                    (sid, out.values)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    replicas.sort_by_key(|&(sid, _)| sid);
    replicas
}

/// Event-loop threads alive in this process (`graphh-poll-loop-{id}`, of
/// which the kernel's `comm` keeps 15 bytes); `None` without `/proc`.
fn event_loop_thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let loops = tasks.filter_map(Result::ok).filter(|task| {
        std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| comm.starts_with("graphh-poll-loo"))
    });
    Some(loops.count())
}

fn main() {
    let kernel = std::env::args().nth(1).unwrap_or_else(|| "pagerank".into());
    let spec = find_program(&kernel).unwrap_or_else(|| {
        panic!(
            "unknown program {kernel:?} — expected one of: {}",
            program_names()
        )
    });

    // A deterministic workload every endpoint agrees on (the undirected
    // kernels get a symmetrised edge set, as their registry contract asks).
    let base = RmatGenerator::new(9, 6).generate(2017);
    let graph = if spec.symmetrize_input {
        let mut b = GraphBuilder::new()
            .with_num_vertices(base.num_vertices())
            .symmetric(true);
        for e in base.edges().iter() {
            b.add_edge(e);
        }
        b.build().unwrap()
    } else {
        base
    };
    let partitioned = Spe::partition(
        &graph,
        &SpeConfig::with_tile_count("socket-demo", &graph, 12),
    )
    .unwrap();
    let mut opts = ProgramOptions::new();
    if spec.accepts("supersteps") {
        opts.set("supersteps", "10");
    }
    let program = spec
        .build(&ProgramContext::new(graph.out_degrees()), &opts)
        .unwrap();
    let program = program.as_ref();
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
    let plan = ExecutionPlan::prepare(&config, &partitioned, program).unwrap();

    let reference =
        GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
            .run(&partitioned, program)
            .unwrap();

    // Snapshot the event-loop thread count so clean shutdown below is
    // *asserted*, not assumed (None on platforms without /proc).
    let baseline_threads = event_loop_thread_count();

    let replicas = run_cluster(&config, &plan, &partitioned, program);

    // Every replica agrees with the single-threaded reference, bit for bit.
    for (sid, values) in &replicas {
        let identical = values.len() == reference.values.len()
            && values
                .iter()
                .zip(&reference.values)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "server {sid}: {} vertices over TCP, bit-identical to sequential: {identical}",
            values.len()
        );
        assert!(identical);
    }

    // Clean shutdown: the planes (and their event-loop threads) are gone —
    // the thread count is back to the pre-cluster baseline.
    match (baseline_threads, event_loop_thread_count()) {
        (Some(before), Some(after)) => {
            assert_eq!(after, before, "lingering transport threads after the run");
            println!("clean shutdown: event-loop thread count back to {before}");
        }
        _ => println!("clean shutdown check skipped (no /proc thread count)"),
    }

    let mut top: Vec<(usize, f64)> = reference.values.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-5 {} vertices: {:?}", program.name(), &top[..5]);
}
