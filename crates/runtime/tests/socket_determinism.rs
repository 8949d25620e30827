//! Differential suite for the TCP transport: a cluster of workers exchanging
//! frames over real loopback sockets must be bit-identical to the sequential
//! reference executor — for PageRank, SSSP and WCC, over [`PollPlane`] (also
//! run with the portable [`SpinPoller`] forced, so the conformance holds
//! through the readiness-trait seam, not just the Linux `poll(2)` shim).
//!
//! Each worker runs on its own thread with its own plane endpoint (the
//! multi-process variant of the same wiring lives in `graphh-bench`'s
//! `graphh-node` binary and its `multiprocess` test); every broadcast crosses
//! the wire length-prefix-encoded and re-decoded, so this pins the entire
//! TCP path: handshake, frame codec, event loop, inbox discipline.

use graphh_cluster::ClusterConfig;
use graphh_core::exec::ExecutionPlan;
use graphh_core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_core::{
    Bfs, DirectionMode, GabProgram, GraphHConfig, GraphHEngine, PageRank, SequentialExecutor, Sssp,
    Wcc,
};
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_graph::GraphBuilder;
use graphh_obs::Tracer;
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use graphh_runtime::establish::DEFAULT_ESTABLISH_TIMEOUT;
use graphh_runtime::{
    run_worker, BoundPollPlane, BroadcastPlane, PollPlane, ResilienceConfig, SpinPoller,
    WorkerOptions,
};
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;

const SERVERS: u32 = 3;

/// Which readiness shim a run drives the plane with.
#[derive(Clone, Copy, Debug)]
enum Plane {
    Poll,
    PollSpin,
}

/// Bind one endpoint per server for `plane`, then establish and run the
/// worker loop on scoped threads; returns each server's final replica values.
fn run_over_tcp(
    plane: Plane,
    config: &GraphHConfig,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
) -> Vec<Vec<f64>> {
    let plan = ExecutionPlan::prepare(config, partitioned, program).expect("plan");
    let num_servers = config.cluster.num_servers;

    let bound: Vec<BoundPollPlane> = (0..num_servers)
        .map(|sid| PollPlane::bind(sid, num_servers, "127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = bound.iter().map(|b| b.local_addr().unwrap()).collect();

    let mut outputs: Vec<(u32, Vec<f64>)> = thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .map(|b| {
                let addrs = &addrs;
                let plan = &plan;
                scope.spawn(move || {
                    let mut endpoint = match plane {
                        // The spin-poller run pins conformance through the
                        // readiness-trait seam itself.
                        Plane::PollSpin => b.establish_resilient_with(
                            addrs,
                            DEFAULT_ESTABLISH_TIMEOUT,
                            ResilienceConfig::default(),
                            Box::new(SpinPoller::new()),
                        ),
                        Plane::Poll => b.establish(addrs),
                    }
                    .expect("establish");
                    // Cross-server lockstep comes from the plane's
                    // end-of-superstep framing, exactly as in a real
                    // multi-process deployment.
                    let (metrics_tx, _metrics_rx) = channel();
                    let sid = endpoint.server_id();
                    let output = run_worker(
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
                    (sid, output.values)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    outputs.sort_by_key(|&(sid, _)| sid);
    outputs.into_iter().map(|(_, values)| values).collect()
}

fn assert_tcp_matches_sequential(
    plane: Plane,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    what: &str,
) {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
    let sequential =
        GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
            .run(partitioned, program)
            .expect("sequential run");
    let replicas = run_over_tcp(plane, &config, partitioned, program);
    assert_eq!(replicas.len() as u32, SERVERS);
    for (sid, values) in replicas.iter().enumerate() {
        assert_eq!(
            values.len(),
            sequential.values.len(),
            "{what}: server {sid}"
        );
        for (v, (x, y)) in values.iter().zip(&sequential.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: server {sid} vertex {v} diverged over {plane:?} TCP ({x} vs {y})"
            );
        }
    }
}

fn pagerank_workload() -> PartitionedGraph {
    let g = RmatGenerator::new(8, 6).generate(2017);
    Spe::partition(&g, &SpeConfig::with_tile_count("tcp", &g, 9)).unwrap()
}

fn sssp_workload() -> (PartitionedGraph, Sssp) {
    let g = RmatGenerator::new(8, 5).generate(42);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("tcp", &g, 9)).unwrap();
    let source = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0);
    (p, Sssp::new(source))
}

fn wcc_workload() -> PartitionedGraph {
    let base = RmatGenerator::new(7, 4).simplified().generate(7);
    let mut b = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for e in base.edges().iter() {
        b.add_edge(e);
    }
    let sym = b.build().unwrap();
    Spe::partition(&sym, &SpeConfig::with_tile_count("tcp", &sym, 9)).unwrap()
}

#[test]
fn poll_pagerank_is_bit_identical_to_sequential() {
    assert_tcp_matches_sequential(
        Plane::Poll,
        &pagerank_workload(),
        &PageRank::new(8),
        "pagerank",
    );
}

#[test]
fn poll_sssp_is_bit_identical_to_sequential() {
    let (p, sssp) = sssp_workload();
    assert_tcp_matches_sequential(Plane::Poll, &p, &sssp, "sssp");
}

#[test]
fn poll_wcc_is_bit_identical_to_sequential() {
    assert_tcp_matches_sequential(Plane::Poll, &wcc_workload(), &Wcc::new(), "wcc");
}

/// One workload through the portable spin poller: the conformance contract
/// must hold for any correct [`graphh_runtime::ReadinessPoller`], not just
/// the platform shim.
#[test]
fn poll_with_spin_poller_is_bit_identical_to_sequential() {
    assert_tcp_matches_sequential(
        Plane::PollSpin,
        &pagerank_workload(),
        &PageRank::new(8),
        "pagerank-spin",
    );
}

/// Every registry program — including the formerly orphaned `bfs` and
/// `degree-centrality` and the newer `labelprop` kernel — is
/// bit-identical to the sequential reference over the TCP plane and the
/// readiness-trait seam.
#[test]
fn every_registry_program_is_bit_identical_over_every_plane() {
    let dir = RmatGenerator::new(7, 5).generate(2017);
    let pdir = Spe::partition(&dir, &SpeConfig::with_tile_count("tcp", &dir, 8)).unwrap();
    let base = RmatGenerator::new(7, 4).simplified().generate(2017);
    let mut b = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for e in base.edges().iter() {
        b.add_edge(e);
    }
    let sym = b.build().unwrap();
    let psym = Spe::partition(&sym, &SpeConfig::with_tile_count("tcp", &sym, 8)).unwrap();

    for spec in PROGRAMS {
        let (graph, part) = if spec.symmetrize_input {
            (&sym, &psym)
        } else {
            (&dir, &pdir)
        };
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "6");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .unwrap();
        for plane in [Plane::Poll, Plane::PollSpin] {
            assert_tcp_matches_sequential(
                plane,
                part,
                program.as_ref(),
                &format!("{} over {plane:?}", spec.name),
            );
        }
    }
}

/// The direction axis crosses the wire unchanged: forced-pull, forced-push
/// and auto-switching BFS runs over real TCP all land bit-identical to the
/// forced-pull sequential reference — push/pull is an engine-local decision
/// and never alters the broadcast bytes (docs/WIRE.md).
#[test]
fn direction_modes_are_bit_identical_over_tcp() {
    let g = RmatGenerator::new(7, 5).generate(42);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("tcp", &g, 8)).unwrap();
    // From a vertex with one out-edge the auto run genuinely switches on
    // this small graph: two pushes, then three pulls.
    let source = (0..g.num_vertices() as u32)
        .find(|&v| g.out_degree(v) == 1)
        .expect("a vertex with one out-edge");
    let program = Bfs::new(source);

    let reference = GraphHEngine::with_executor(
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
            .with_direction_mode(DirectionMode::ForcePull),
        Arc::new(SequentialExecutor::new()),
    )
    .run(&p, &program)
    .expect("sequential reference");

    for mode in [
        DirectionMode::ForcePull,
        DirectionMode::ForcePush,
        DirectionMode::Auto,
    ] {
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
            .with_direction_mode(mode);
        let replicas = run_over_tcp(Plane::Poll, &config, &p, &program);
        for (sid, values) in replicas.iter().enumerate() {
            assert_eq!(values.len(), reference.values.len());
            for (v, (x, y)) in values.iter().zip(&reference.values).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "bfs {mode:?}: server {sid} vertex {v} diverged"
                );
            }
        }
    }
}
