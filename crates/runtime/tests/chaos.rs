//! The chaos determinism suite: clusters under deterministic fault injection
//! must produce replicas bit-identical to the *unfaulted* sequential
//! reference.
//!
//! Every run here wraps real TCP endpoints ([`PollPlane`]) in a
//! [`graphh_runtime::FaultPlane`] that
//! severs live connections at exact superstep boundaries. The transport must
//! recover on its own — redial, resume handshake, frame replay, collector
//! dedup — and the suite demands
//! the strongest possible outcome: not "eventually consistent", but the
//! exact bits the run would have produced with no fault at all.
//!
//! The sweep tests cut at *every* superstep boundary of a run (for PageRank
//! and direction-optimizing BFS): off-by-one bugs in
//! replay cursors live precisely at those boundaries, so covering all of
//! them leaves no place to hide. The storm test drives seeded multi-cut
//! schedules on every server at once ([`CutPlan::seeded`]), so a failure
//! reproduces from its seed.

use graphh_cluster::ClusterConfig;
use graphh_core::exec::ExecutionPlan;
use graphh_core::{Bfs, GabProgram, GraphHConfig, GraphHEngine, PageRank, SequentialExecutor};
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_obs::Tracer;
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use graphh_runtime::{
    run_worker, BroadcastPlane, CutPlan, FaultPlane, PollPlane, ResilienceConfig, WorkerOptions,
};
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const SERVERS: u32 = 3;
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Run one server to completion over a fault-injected plane.
fn run_chaos_worker(
    plane: PollPlane,
    cuts: CutPlan,
    config: &GraphHConfig,
    plan: &ExecutionPlan,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
) -> (u32, Vec<f64>) {
    let cut_list = cuts.cuts().to_vec();
    let mut plane = FaultPlane::new(plane, cuts);
    let (metrics_tx, _metrics_rx) = channel();
    let sid = plane.server_id();
    let output = run_worker(
        config,
        plan,
        partitioned,
        program,
        sid,
        &mut plane,
        &metrics_tx,
        &Tracer::off(),
        WorkerOptions::default(),
    )
    .unwrap_or_else(|e| panic!("chaos worker {sid} (cuts {cut_list:?}): {e:?}"));
    (sid, output.values)
}

/// Establish a cluster of `SERVERS` endpoints over loopback and run
/// the full worker loop on scoped threads, with server `sid` executing
/// `plans[sid]`'s connection cuts. Returns final replicas ordered by server.
fn run_cluster(
    config: &GraphHConfig,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    plans: &[CutPlan],
) -> Vec<Vec<f64>> {
    assert_eq!(plans.len() as u32, SERVERS);
    let plan = ExecutionPlan::prepare(config, partitioned, program).expect("plan");

    let bound: Vec<_> = (0..SERVERS)
        .map(|sid| PollPlane::bind(sid, SERVERS, "127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = bound.iter().map(|b| b.local_addr().unwrap()).collect();
    let mut outputs: Vec<(u32, Vec<f64>)> = thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .zip(plans)
            .map(|(b, cuts)| {
                let (addrs, plan, cuts) = (&addrs, &plan, cuts.clone());
                scope.spawn(move || {
                    let endpoint = b
                        .establish_resilient(addrs, ESTABLISH_TIMEOUT, ResilienceConfig::default())
                        .expect("establish");
                    run_chaos_worker(endpoint, cuts, config, plan, partitioned, program)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    outputs.sort_by_key(|&(sid, _)| sid);
    outputs.into_iter().map(|(_, values)| values).collect()
}

/// The unfaulted ground truth: the sequential reference executor.
fn sequential_reference(partitioned: &PartitionedGraph, program: &dyn GabProgram) -> Vec<f64> {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
    GraphHEngine::with_executor(config, Arc::new(SequentialExecutor::new()))
        .run(partitioned, program)
        .expect("sequential reference")
        .values
}

fn assert_chaos_matches_reference(
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    reference: &[f64],
    plans: &[CutPlan],
    what: &str,
) {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
    let replicas = run_cluster(&config, partitioned, program, plans);
    for (sid, values) in replicas.iter().enumerate() {
        assert_eq!(values.len(), reference.len(), "{what}: server {sid}");
        for (v, (x, y)) in values.iter().zip(reference).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: server {sid} vertex {v} diverged under chaos ({x} vs {y})"
            );
        }
    }
}

fn pagerank_workload() -> PartitionedGraph {
    let g = RmatGenerator::new(6, 4).generate(2017);
    Spe::partition(&g, &SpeConfig::with_tile_count("chaos", &g, 6)).unwrap()
}

fn bfs_workload() -> (PartitionedGraph, Bfs) {
    let g = RmatGenerator::new(6, 4).generate(42);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("chaos", &g, 6)).unwrap();
    // From a vertex with one out-edge the run genuinely switches on this
    // small graph (push, push, three pulls, push) — direction decisions must
    // also survive mid-run cuts untouched.
    let source = (0..g.num_vertices() as u32)
        .find(|&v| g.out_degree(v) == 1)
        .expect("a vertex with one out-edge");
    (p, Bfs::new(source))
}

/// Cut at *every* superstep boundary, one run per boundary: server 0 severs
/// a rotating victim right after ending superstep `s`. Replay-cursor
/// off-by-ones live exactly at these boundaries.
fn sweep_every_boundary(
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    supersteps: u32,
    what: &str,
) {
    let reference = sequential_reference(partitioned, program);
    for s in 0..supersteps {
        let victim = 1 + (s % (SERVERS - 1));
        let mut plans = vec![CutPlan::none(); SERVERS as usize];
        plans[0] = CutPlan::explicit(vec![(s, victim)]);
        assert_chaos_matches_reference(
            partitioned,
            program,
            &reference,
            &plans,
            &format!("{what}: cut peer {victim} after superstep {s}"),
        );
    }
}

const PAGERANK_SUPERSTEPS: u32 = 5;

#[test]
fn poll_pagerank_survives_a_cut_at_every_boundary() {
    sweep_every_boundary(
        &pagerank_workload(),
        &PageRank::new(PAGERANK_SUPERSTEPS),
        PAGERANK_SUPERSTEPS,
        "poll pagerank",
    );
}

#[test]
fn poll_bfs_survives_a_cut_at_every_boundary() {
    let (p, bfs) = bfs_workload();
    // BFS terminates when its frontier drains; cuts scheduled past the last
    // superstep are never reached, so sweeping a fixed bound covers every
    // boundary the run actually has.
    sweep_every_boundary(&p, &bfs, 6, "poll bfs");
}

/// Seed discovery instead of a static peer table, then the same storm: every
/// endpoint discovers its address book from one seed while its links come up
/// (`GHHM` announces over the same listeners the run uses) — so every
/// mid-storm redial goes to the address the discovered book holds — and the
/// final replicas must still match the unfaulted sequential reference, bit
/// for bit.
#[test]
fn seed_discovered_cluster_survives_the_storm_bit_identical() {
    let partitioned = pagerank_workload();
    let program = PageRank::new(PAGERANK_SUPERSTEPS);
    let reference = sequential_reference(&partitioned, &program);
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
    let plan = ExecutionPlan::prepare(&config, &partitioned, &program).expect("plan");
    let plans: Vec<CutPlan> = (0..SERVERS)
        .map(|sid| {
            let peers: Vec<u32> = (0..SERVERS).filter(|&p| p != sid).collect();
            CutPlan::seeded(0x5EED_6D65 + u64::from(sid), PAGERANK_SUPERSTEPS, &peers, 2)
        })
        .collect();
    let bound: Vec<_> = (0..SERVERS)
        .map(|sid| PollPlane::bind(sid, SERVERS, "127.0.0.1:0").expect("bind"))
        .collect();
    let seed = bound[0].local_addr().unwrap();
    let mut outputs: Vec<(u32, Vec<f64>)> = thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .zip(&plans)
            .map(|(b, cuts)| {
                let (plan, cuts) = (&plan, cuts.clone());
                let (config, partitioned, program) = (&config, &partitioned, &program);
                scope.spawn(move || {
                    let resilience = ResilienceConfig {
                        seeds: vec![seed],
                        ..ResilienceConfig::default()
                    };
                    let endpoint = b
                        .establish_resilient(&[], ESTABLISH_TIMEOUT, resilience)
                        .expect("establish discovered");
                    run_chaos_worker(endpoint, cuts, config, plan, partitioned, program)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    outputs.sort_by_key(|&(sid, _)| sid);
    for (sid, values) in &outputs {
        assert_eq!(values.len(), reference.len(), "seed: server {sid}");
        for (v, (x, y)) in values.iter().zip(&reference).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "seed-discovered: server {sid} vertex {v} diverged ({x} vs {y})"
            );
        }
    }
}

/// The reconnect storm: every server runs a seeded multi-cut schedule at
/// once, so links drop and resume all over the cluster throughout the run —
/// and the result must still be the unfaulted reference, bit for bit. A
/// failure replays exactly from the seed.
#[test]
fn reconnect_storm_converges_to_the_unfaulted_reference() {
    let partitioned = pagerank_workload();
    let program = PageRank::new(PAGERANK_SUPERSTEPS);
    let reference = sequential_reference(&partitioned, &program);
    let plans: Vec<CutPlan> = (0..SERVERS)
        .map(|sid| {
            let peers: Vec<u32> = (0..SERVERS).filter(|&p| p != sid).collect();
            CutPlan::seeded(0x5EED_2017 + u64::from(sid), PAGERANK_SUPERSTEPS, &peers, 3)
        })
        .collect();
    assert_chaos_matches_reference(
        &partitioned,
        &program,
        &reference,
        &plans,
        "reconnect storm",
    );
}
