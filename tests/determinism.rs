//! Differential determinism suite: the threaded executor (the sequential
//! executor's loop over a pool of threads) and workers over real sockets must
//! be drop-in replacements for the sequential reference executor.
//!
//! 3 seeds × {PageRank, SSSP, WCC} × {sequential, threaded} on a 4-server
//! cluster (and PageRank on 5, more servers than the pool has threads on a
//! small host): `result.values` must be **bit-identical** (not approximately
//! equal), the superstep counts must agree, and the scheduling-independent
//! byte counters must match exactly. The direction axis rides the same
//! harness: forced-push, forced-pull and engine-chosen runs of every
//! push-capable registry program must also agree bit for bit, on both
//! executors and over real sockets.

use graphh::core::gab::{Declaration, Edges, Final, InitContext, VertexContext};
use graphh::prelude::*;
use std::sync::Arc;

const SEEDS: [u64; 3] = [2017, 42, 7];
const SERVERS: u32 = 4;

fn engine_pair() -> (GraphHEngine, GraphHEngine) {
    engine_pair_on(SERVERS)
}

fn engine_pair_on(servers: u32) -> (GraphHEngine, GraphHEngine) {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers));
    (
        GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new())),
        GraphHEngine::with_executor(config, Arc::new(ThreadedExecutor::new())),
    )
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.values.len(), b.values.len(), "{what}: value count");
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: vertex {i} diverged ({x} vs {y})"
        );
    }
    assert_eq!(
        a.supersteps_run, b.supersteps_run,
        "{what}: superstep count"
    );
    assert_eq!(
        a.updated_ratio_per_superstep, b.updated_ratio_per_superstep,
        "{what}: convergence trajectory"
    );
    assert_eq!(
        a.metrics.total_network_bytes(),
        b.metrics.total_network_bytes(),
        "{what}: network bytes"
    );
    assert_eq!(
        a.metrics.total_disk_bytes(),
        b.metrics.total_disk_bytes(),
        "{what}: disk bytes"
    );
    assert_eq!(
        integer_counters(a),
        integer_counters(b),
        "{what}: per-superstep, per-server counters"
    );
}

/// Every integer `ServerMetrics` counter of every (superstep, server) of a
/// run — what each server sent, received, read and worked through, not only
/// the run's totals. (Peak memory is left out: the transient tile memory a
/// server is charged grows with its compute threads.)
fn integer_counters(run: &RunResult) -> Vec<[u64; 14]> {
    let servers = run.metrics.supersteps.iter().flat_map(|s| &s.servers);
    servers
        .map(|m| {
            [
                m.network_sent_bytes,
                m.network_received_bytes,
                m.network_messages,
                m.edges_processed,
                m.tiles_processed,
                m.tiles_skipped,
                m.cache_hits,
                m.cache_misses,
                m.disk_read_bytes,
                m.disk_read_ops,
                m.disk_write_bytes,
                m.disk_write_ops,
                m.vertices_updated,
                m.messages_produced,
            ]
        })
        .collect()
}

/// On `SERVERS` servers and on 5 — more servers than the threaded
/// executor's pool has threads on a host with fewer CPUs, so some pool
/// threads step several servers a phase.
#[test]
fn threaded_matches_sequential_on_pagerank() {
    for servers in [SERVERS, 5] {
        let (seq, thr) = engine_pair_on(servers);
        for seed in SEEDS {
            let g = RmatGenerator::new(8, 6).generate(seed);
            let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 11)).unwrap();
            let a = seq.run(&p, &PageRank::new(10)).unwrap();
            let b = thr.run(&p, &PageRank::new(10)).unwrap();
            let what = format!("pagerank seed {seed}, {servers} servers");
            assert_bit_identical(&a, &b, &what);
        }
    }
}

#[test]
fn threaded_matches_sequential_on_sssp() {
    let (seq, thr) = engine_pair();
    for seed in SEEDS {
        let g = RmatGenerator::new(8, 5).generate(seed);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 11)).unwrap();
        let source = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.out_degree(v))
            .unwrap_or(0);
        let a = seq.run(&p, &Sssp::new(source)).unwrap();
        let b = thr.run(&p, &Sssp::new(source)).unwrap();
        assert_bit_identical(&a, &b, &format!("sssp seed {seed}"));
    }
}

#[test]
fn threaded_matches_sequential_on_wcc() {
    let (seq, thr) = engine_pair();
    for seed in SEEDS {
        // WCC needs the symmetrised graph.
        let g = RmatGenerator::new(7, 4).simplified().generate(seed);
        let mut b = GraphBuilder::new()
            .with_num_vertices(g.num_vertices())
            .symmetric(true);
        for e in g.edges().iter() {
            b.add_edge(e);
        }
        let sym = b.build().unwrap();
        let p = Spe::partition(&sym, &SpeConfig::with_tile_count("det", &sym, 11)).unwrap();
        let a = seq.run(&p, &Wcc::new()).unwrap();
        let t = thr.run(&p, &Wcc::new()).unwrap();
        assert_bit_identical(&a, &t, &format!("wcc seed {seed}"));
    }
}

/// Run `program` on the cluster `config` names, each worker driving its own
/// `PollPlane` endpoint over loopback sockets. Returns each server's replica
/// and the bytes the workers metered onto the wire. (Cuts and restarts are
/// `tests/fabric_sim.rs`'s: real workers, the production fabric, thousands
/// of seeded schedules.)
fn poll_plane_cluster(
    config: &GraphHConfig,
    p: &PartitionedGraph,
    program: &dyn GabProgram,
) -> (Vec<Vec<f64>>, u64) {
    use graphh::core::exec::ExecutionPlan;
    use graphh::obs::Tracer;
    use graphh::runtime::{run_worker, BroadcastPlane, PollPlane, WorkerOutput};

    let servers = config.cluster.num_servers;
    let plan = ExecutionPlan::prepare(config, p, program).unwrap();
    let bound: Vec<_> = (0..servers)
        .map(|sid| PollPlane::bind(sid, servers, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = bound.iter().map(|b| b.local_addr().unwrap()).collect();
    let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .map(|b| {
                let (addrs, plan) = (&addrs, &plan);
                scope.spawn(move || {
                    let mut plane = b.establish(addrs).expect("establish");
                    let sid = plane.server_id();
                    // Lockstep comes from the plane's end-of-superstep
                    // markers; there is no other barrier.
                    run_worker(
                        config,
                        plan,
                        p,
                        program,
                        sid,
                        &mut plane,
                        &Tracer::off(),
                        None,
                    )
                    .expect("worker")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let metrics = outputs.iter().flat_map(|o| &o.metrics);
    let net_sent_bytes = metrics.map(|m| m.network_sent_bytes).sum();
    (
        outputs.into_iter().map(|o| o.values).collect(),
        net_sent_bytes,
    )
}

/// The TCP transport, seen from tier-1: 2 servers × PageRank over
/// [`poll_plane_cluster`]. Replicas must be bit-identical to the sequential
/// reference, and the bytes the workers metered onto the wire must equal the
/// in-process threaded run's.
#[test]
fn poll_plane_cluster_matches_sequential_and_threaded_network_bytes() {
    const TCP_SERVERS: u32 = 2;
    let g = RmatGenerator::new(8, 6).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 11)).unwrap();
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(TCP_SERVERS));
    let program = PageRank::new(10);
    let sequential =
        GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
            .run(&p, &program)
            .unwrap();
    let threaded = GraphHEngine::with_executor(config.clone(), Arc::new(ThreadedExecutor::new()))
        .run(&p, &program)
        .unwrap();

    let (replicas, net_sent_bytes) = poll_plane_cluster(&config, &p, &program);

    for (sid, values) in replicas.iter().enumerate() {
        assert_eq!(values.len(), sequential.values.len(), "server {sid}");
        for (v, (x, y)) in values.iter().zip(&sequential.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "server {sid} vertex {v} diverged over TCP ({x} vs {y})"
            );
        }
    }
    assert_eq!(net_sent_bytes, threaded.metrics.total_network_bytes());
}

/// The same cluster on the direction axis: SSSP from a quiet source, where
/// the engine's own choice switches (see
/// `auto_mode_switches_direction_and_both_executors_agree_on_when`), lands on
/// the forced-pull sequential values and puts the same bytes on real sockets
/// whichever way the direction is decided.
#[test]
fn poll_plane_cluster_ships_the_same_bytes_in_every_direction_mode() {
    let (dir, pdir, _, _) = workload_graphs(SEEDS[0]);
    let program = Sssp::new(quiet_source(&dir));
    let config_for = |mode: DirectionMode| {
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)).with_direction_mode(mode)
    };
    let reference = GraphHEngine::new(config_for(DirectionMode::ForcePull))
        .run(&pdir, &program)
        .unwrap();
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for mode in [
        DirectionMode::Auto,
        DirectionMode::ForcePull,
        DirectionMode::ForcePush,
    ] {
        let (replicas, net_sent_bytes) = poll_plane_cluster(&config_for(mode), &pdir, &program);
        for (sid, values) in replicas.iter().enumerate() {
            assert_eq!(
                bits(values),
                bits(&reference.values),
                "{mode:?} server {sid}"
            );
        }
        assert_eq!(
            net_sent_bytes,
            reference.metrics.total_network_bytes(),
            "{mode:?}"
        );
    }
}

/// PageRank, except that gathering one of the first few vertices stalls
/// on odd supersteps — so the server owning that tile finishes those
/// supersteps last, by a wide margin. Its gather is custom, so it divides on
/// every edge, as PageRank's did before its quotients were divided once per
/// vertex (the same bits); the rest is PageRank's declaration.
struct Straggler(PageRank);

impl GabProgram for Straggler {
    fn name(&self) -> &'static str {
        "straggler"
    }
    fn initial_value(&self, v: u32, ctx: &InitContext) -> f64 {
        self.0.initial_value(v, ctx)
    }
    fn declaration(&self, num_vertices: u64) -> Declaration {
        Declaration {
            fold: None,
            ..self.0.declaration(num_vertices)
        }
    }
    fn gather(&self, target: u32, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        if ctx.superstep % 2 == 1 && target < 4 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut accum = 0.0;
        for (src, _) in in_edges {
            let d = ctx.out_degrees[src as usize];
            if d > 0 {
                accum += ctx.values[src as usize] / f64::from(d);
            }
        }
        accum
    }
    fn max_supersteps(&self) -> u32 {
        self.0.max_supersteps()
    }
    fn initial_frontier(&self, num_vertices: u64) -> Option<Vec<u32>> {
        self.0.initial_frontier(num_vertices)
    }
}

/// Over real sockets nothing but the plane's end-of-superstep markers holds
/// the servers in lockstep: while one server straggles through superstep
/// `s`, the others cannot apply `s` (their `collect(s)` waits for its
/// marker), and once it is through, whatever they publish for `s + 1` while
/// it is still applying `s` waits in its collector's stash. Every replica
/// stays bit-identical to the sequential run of plain PageRank, and the
/// bytes on the wire are the same.
#[test]
fn a_straggling_server_needs_no_barrier_to_stay_bit_identical() {
    let g = RmatGenerator::new(7, 5).generate(11);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap();
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
    let reference = GraphHEngine::new(config.clone())
        .run(&p, &PageRank::new(6))
        .unwrap();
    let (replicas, net_sent_bytes) = poll_plane_cluster(&config, &p, &Straggler(PageRank::new(6)));
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (sid, values) in replicas.iter().enumerate() {
        assert_eq!(bits(values), bits(&reference.values), "server {sid}");
    }
    assert_eq!(net_sent_bytes, reference.metrics.total_network_bytes());
}

/// The second parallelism axis: `threads_per_server` (the paper's T compute
/// threads inside every server) must never change a single bit of the result,
/// on either executor. The T=1 sequential run is the pinned reference.
#[test]
fn threads_per_server_axis_is_bit_identical() {
    let g = RmatGenerator::new(8, 6).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 11)).unwrap();
    let sym = {
        let base = RmatGenerator::new(7, 4).simplified().generate(SEEDS[0]);
        let mut b = GraphBuilder::new()
            .with_num_vertices(base.num_vertices())
            .symmetric(true);
        for e in base.edges().iter() {
            b.add_edge(e);
        }
        b.build().unwrap()
    };
    let psym = Spe::partition(&sym, &SpeConfig::with_tile_count("det", &sym, 11)).unwrap();

    type Workload<'a> = (&'a str, &'a PartitionedGraph, Box<dyn GabProgram>);
    let workloads: Vec<Workload> = vec![
        ("pagerank", &p, Box::new(PageRank::new(8))),
        ("sssp", &p, Box::new(Sssp::new(0))),
        ("wcc", &psym, Box::new(Wcc::new())),
    ];
    for (name, part, program) in workloads {
        let reference = GraphHEngine::with_executor(
            GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
                .with_threads_per_server(1),
            Arc::new(SequentialExecutor::new()),
        )
        .run(part, program.as_ref())
        .unwrap();
        for threads in [1u32, 2, 4] {
            let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
                .with_threads_per_server(threads);
            let seq =
                GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
                    .run(part, program.as_ref())
                    .unwrap();
            let thr = GraphHEngine::with_executor(config, Arc::new(ThreadedExecutor::new()))
                .run(part, program.as_ref())
                .unwrap();
            assert_bit_identical(&reference, &seq, &format!("{name} seq T={threads}"));
            assert_bit_identical(&reference, &thr, &format!("{name} thr T={threads}"));
        }
    }
}

/// The out-of-core path: an edge cache half the size of a server's *packed*
/// tiles (so `Auto` packs, and about half the tiles still miss every
/// superstep; a quarter of the serialized bytes would hold them all).
/// Which tiles the fill-and-hold cache keeps must not depend on the schedule
/// — same values and the same per-superstep hits, misses and disk bytes for
/// every executor and `threads_per_server` — and a miss must cost exactly one
/// storage read.
#[test]
fn constrained_cache_is_schedule_independent_and_reads_each_miss_once() {
    use graphh::core::exec::{merge_updates_in_place, ExecutionPlan, ServerState};

    const OOC_SERVERS: u32 = 2;
    const SUPERSTEPS: u32 = 3;
    let g = RmatGenerator::new(10, 8).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("ooc", &g, 16)).unwrap();
    let program = PageRank::new(SUPERSTEPS);
    let mut base = GraphHConfig::paper_default(ClusterConfig::paper_testbed(OOC_SERVERS));
    let plan = ExecutionPlan::prepare(&base, &p, &program).unwrap();
    let mut packed = Vec::new();
    let fullest = (0..OOC_SERVERS)
        .map(|sid| {
            let tiles = plan.assignment.tiles_of(sid);
            let bytes = tiles.iter().map(|&t| {
                p.tiles[t as usize].to_packed(&mut packed);
                packed.len() as u64
            });
            bytes.sum::<u64>()
        })
        .max()
        .unwrap();
    base.cache_capacity = Some(fullest.div_ceil(2));
    assert_eq!(base.cache_mode, CacheMode::Auto);

    // Through the engines: executor x threads-per-server.
    let cache_trajectory = |run: &RunResult| -> Vec<(u64, u64, u64)> {
        run.metrics
            .supersteps
            .iter()
            .flat_map(|report| report.servers.iter())
            .map(|m| (m.cache_hits, m.cache_misses, m.disk_read_bytes))
            .collect()
    };
    let run = |threads: u32, executor: Arc<dyn Executor>| {
        GraphHEngine::with_executor(base.clone().with_threads_per_server(threads), executor)
            .run(&p, &program)
            .unwrap()
    };
    let reference = run(1, Arc::new(SequentialExecutor::new()));
    assert_eq!(
        reference.cache_codec,
        Codec::VarintDelta,
        "the cache must be tight"
    );
    for threads in [1u32, 4] {
        let seq = run(threads, Arc::new(SequentialExecutor::new()));
        let thr = run(threads, Arc::new(ThreadedExecutor::new()));
        for (other, what) in [(&seq, "seq"), (&thr, "thr")] {
            let what = format!("out-of-core {what} T={threads}");
            assert_bit_identical(&reference, other, &what);
            assert_eq!(
                cache_trajectory(&reference),
                cache_trajectory(other),
                "{what}: per-superstep, per-server hits/misses/disk bytes"
            );
        }
    }

    // Server by server: what the cache holds and what storage was asked for.
    let drive = |threads: u32| -> Vec<ServerState> {
        let config = base.clone().with_threads_per_server(threads);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        let mut servers: Vec<ServerState> = (0..OOC_SERVERS)
            .map(|sid| ServerState::build(&config, &plan, &p, sid))
            .collect();
        let mut frontier = plan.initial_frontier();
        for superstep in 0..SUPERSTEPS {
            let view = plan.frontier_view(&program, &frontier);
            let mut updates = Vec::new();
            for server in &mut servers {
                let resident_before = server.cache_stats().resident_tiles;
                let phase = server
                    .run_tile_phase(&program, &plan, superstep, &view, true)
                    .unwrap();
                // Nothing is ever displaced, so a superstep hits exactly the
                // tiles the cache held when it began.
                assert_eq!(phase.metrics.cache_hits, resident_before);
                if superstep > 0 {
                    assert_eq!(resident_before, server.cache_stats().resident_tiles);
                }
                updates.extend(phase.messages.into_iter().flat_map(|m| m.updates));
            }
            merge_updates_in_place(&mut updates);
            for server in &mut servers {
                server.apply_updates(&updates);
            }
            frontier = updates.iter().map(|&(v, _)| v).collect();
        }
        servers
    };
    let (one, four) = (drive(1), drive(4));
    for (a, b) in one.iter().zip(&four) {
        let stats = a.cache_stats();
        let tiles = a.tiles.len() as u64;
        assert!(
            stats.resident_tiles > 0 && stats.resident_tiles < tiles,
            "server {}: {} of {tiles} tiles resident — not a constrained cache",
            a.id,
            stats.resident_tiles
        );
        assert_eq!(stats.hits, stats.resident_tiles * u64::from(SUPERSTEPS - 1));
        assert_eq!(stats.hits + stats.misses, tiles * u64::from(SUPERSTEPS));
        // Packed once per kept tile, plus the one refusal that filled it.
        assert_eq!(stats.refused, 1);
        for server in [a, b] {
            assert_eq!(
                server.io_snapshot().read_ops,
                server.cache_stats().misses,
                "server {}: one storage read per miss",
                server.id
            );
        }
        // The cache's own codec-second fields are float sums in lock order
        // (the engine reports per-hit times summed in tile order instead).
        let counts = |s: graphh::cache::CacheStats| {
            (s.hits, s.misses, s.refused, s.resident_tiles, s.used_bytes)
        };
        assert_eq!(
            counts(stats),
            counts(b.cache_stats()),
            "server {}: T=1 vs T=4",
            a.id
        );
        assert_eq!(a.values, b.values);
    }
}

/// The executors also agree across every communication mode / compressor
/// combination, so the wire path cannot smuggle in nondeterminism.
#[test]
fn threaded_matches_sequential_across_wire_configs() {
    use graphh::cluster::CommunicationMode;
    use graphh::compress::Codec;

    let g = RmatGenerator::new(7, 5).generate(13);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 9)).unwrap();
    for mode in [
        CommunicationMode::Dense,
        CommunicationMode::Sparse,
        CommunicationMode::default(),
    ] {
        for compressor in [
            None,
            Some(Codec::Raw),
            Some(Codec::Snappy),
            Some(Codec::Zlib1),
            Some(Codec::Zlib3),
            Some(Codec::VarintDelta),
        ] {
            let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));
            config.communication = mode;
            config.message_compressor = compressor;
            let seq =
                GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()));
            let thr = GraphHEngine::with_executor(config, Arc::new(ThreadedExecutor::new()));
            let a = seq.run(&p, &PageRank::new(5)).unwrap();
            let b = thr.run(&p, &PageRank::new(5)).unwrap();
            assert_bit_identical(&a, &b, &format!("mode {mode:?} codec {compressor:?}"));
        }
    }
}

/// Corrupt wire bytes must surface as `Err` from the wire path — never as a
/// panic (the worker converts decode errors into a clean abort; a panic would
/// take the whole process down). Random byte flips over real encoded messages
/// exercise every decode branch in every wire config.
#[test]
fn corrupt_wire_bytes_error_but_never_panic() {
    use graphh::cluster::{BroadcastMessage, CommunicationMode, MessageCodec, ServerMetrics};
    use graphh::compress::Codec;

    // Deterministic xorshift so failures are reproducible.
    let mut state = 0x2017_2017_2017_2017u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let messages = [
        BroadcastMessage::new(0, 64, (0..64).map(|v| (v, v as f64 * 0.5)).collect()),
        BroadcastMessage::new(100, 1100, vec![(100, 1.0), (512, -2.0), (1099, 3.5)]),
        BroadcastMessage::new(7, 7, vec![]),
    ];
    for mode in [
        CommunicationMode::Dense,
        CommunicationMode::Sparse,
        CommunicationMode::default(),
    ] {
        for compressor in [
            None,
            Some(Codec::Snappy),
            Some(Codec::Zlib1),
            Some(Codec::Zlib3),
            Some(Codec::VarintDelta),
        ] {
            let codec = MessageCodec::new(mode, compressor);
            for message in &messages {
                let mut sender = ServerMetrics::default();
                let (wire, _) = codec.encode(message, &mut sender);
                for _ in 0..200 {
                    let mut corrupt = wire.clone();
                    // 1-3 random byte flips, occasionally a truncation.
                    for _ in 0..(1 + next() as usize % 3) {
                        let i = next() as usize % corrupt.len().max(1);
                        corrupt[i] ^= (1 + next() % 255) as u8;
                    }
                    if next() % 4 == 0 {
                        corrupt.truncate(next() as usize % (corrupt.len() + 1));
                    }
                    let outcome = std::panic::catch_unwind(|| {
                        let mut receiver = ServerMetrics::default();
                        codec.decode(&corrupt, &mut receiver).map(|m| m.updates)
                    });
                    // Ok(Ok(_)) (the flip happened to stay valid) and
                    // Ok(Err(_)) are both acceptable; a panic is not.
                    assert!(
                        outcome.is_ok(),
                        "decode panicked on corrupt wire bytes (mode {mode:?}, compressor {compressor:?})"
                    );
                }
            }
        }
    }

    // Decoded-but-corrupt payloads must be rejected, not handed to
    // apply_updates: ids outside the range or out of order are the cases that
    // used to panic with an out-of-bounds index.
    let mut bad_sparse = vec![1u8];
    bad_sparse.extend_from_slice(&10u32.to_le_bytes()); // range_start
    bad_sparse.extend_from_slice(&20u32.to_le_bytes()); // range_end
    bad_sparse.extend_from_slice(&1u32.to_le_bytes()); // count
    bad_sparse.extend_from_slice(&9999u32.to_le_bytes()); // id outside range
    bad_sparse.extend_from_slice(&1.0f64.to_le_bytes());
    assert!(BroadcastMessage::decode(&bad_sparse).is_err());
}

/// The exhaustive sibling of the random flips above: **every** single-bit
/// flip and **every** truncation of one message of each shape the packed
/// layout has — bitmap or id-gap index × byte planes or integer codes — as
/// the plain layout and under a compressor with the head stored and with the
/// head compressed. Each either fails to decode or decodes to strictly
/// increasing ids inside the range its header advertises (which the worker
/// then bounds by the graph): never a panic, never an id at or past
/// `range_end`.
#[test]
fn every_bit_flip_and_truncation_of_a_wire_message_is_an_error_or_in_range() {
    use graphh::cluster::{BroadcastMessage, CommunicationMode, MessageCodec, ServerMetrics};

    let real = |v: u32| 1.0 / f64::from(v + 3);
    let level = |v: u32| {
        if v.is_multiple_of(11) {
            f64::INFINITY
        } else {
            f64::from(v % 5)
        }
    };
    let message = |range: (u32, u32), step: usize, value: &dyn Fn(u32) -> f64| {
        let ids = (range.0..range.1).step_by(step);
        BroadcastMessage::new(range.0, range.1, ids.map(|v| (v, value(v))).collect())
    };
    // (index policy, long enough for its head to compress, a few updates only)
    let shapes = [
        (
            CommunicationMode::Dense,
            (100, 420),
            (100, 120),
            2,
            &real as &dyn Fn(u32) -> f64,
        ),
        (CommunicationMode::Dense, (100, 420), (100, 120), 2, &level),
        (
            CommunicationMode::Sparse,
            (100, 4100),
            (100, 400),
            50,
            &real,
        ),
        (
            CommunicationMode::Sparse,
            (100, 4100),
            (100, 400),
            50,
            &level,
        ),
    ];
    let mut scratch = Vec::new();
    let mut verdicts = [0u64; 2];
    for (mode, long, short, step, value) in shapes {
        // What the trailer's kind byte must read (`None`: no trailer).
        let cases = [
            (None, long, None),
            (Some(Codec::Snappy), short, Some(0)),
            (Some(Codec::Snappy), long, Some(1)),
            (Some(Codec::Zlib3), long, Some(1)),
        ];
        for (compressor, range, head_kind) in cases {
            let codec = MessageCodec::new(mode, compressor);
            let sent = message(range, step, value);
            let (wire, _) = codec.encode(&sent, &mut ServerMetrics::default());
            if let Some(kind) = head_kind {
                assert_eq!(
                    wire.last(),
                    Some(&kind),
                    "{mode:?} {compressor:?} {range:?}"
                );
            }
            let mut check = |bytes: &[u8], what: &str| {
                let mut ids = Vec::new();
                let mut receiver = ServerMetrics::default();
                let header =
                    codec.decode_each(bytes, &mut receiver, &mut scratch, |v, _| ids.push(v));
                verdicts[usize::from(header.is_ok())] += 1;
                if let Ok(header) = header {
                    let what = format!("{mode:?} {compressor:?} {range:?} {what}");
                    assert_eq!(ids.len(), header.count as usize, "{what}");
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: {ids:?}");
                    let inside = |&v: &u32| v >= header.range_start && v < header.range_end;
                    assert!(ids.iter().all(inside), "{what}: {ids:?} vs {header:?}");
                }
            };
            check(&wire, "intact");
            for len in 0..wire.len() {
                check(&wire[..len], &format!("cut to {len}"));
            }
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped, &format!("bit {bit}"));
            }
        }
    }
    // Both verdicts occur: a flipped value bit still decodes, a cut never does.
    assert!(verdicts[0] > 1000 && verdicts[1] > 1000, "{verdicts:?}");
}

/// Both directions of every edge of `base`: the input the registry's
/// undirected kernels (`symmetrize_input`) are defined on.
fn symmetrised(base: &Graph) -> Graph {
    let mut b = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for e in base.edges().iter() {
        b.add_edge(e);
    }
    b.build().unwrap()
}

/// A directed RMAT partition and its symmetrised sibling, shared by the
/// registry-wide sweeps below.
fn workload_graphs(seed: u64) -> (Graph, PartitionedGraph, Graph, PartitionedGraph) {
    let dir = RmatGenerator::new(8, 5).generate(seed);
    let pdir = Spe::partition(&dir, &SpeConfig::with_tile_count("det", &dir, 11)).unwrap();
    let sym = symmetrised(&RmatGenerator::new(7, 4).simplified().generate(seed));
    let psym = Spe::partition(&sym, &SpeConfig::with_tile_count("det", &sym, 11)).unwrap();
    (dir, pdir, sym, psym)
}

/// *Every* registered program — including the kernels that used to be
/// orphaned (`bfs`, `degree-centrality`) and the newer `labelprop` — is
/// bit-identical between the sequential reference and the threaded runtime.
#[test]
fn every_registry_program_is_bit_identical_across_executors() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    let (seq, thr) = engine_pair();
    for seed in [SEEDS[0], SEEDS[1]] {
        let (dir, pdir, sym, psym) = workload_graphs(seed);
        for spec in PROGRAMS {
            let (graph, part) = if spec.symmetrize_input {
                (&sym, &psym)
            } else {
                (&dir, &pdir)
            };
            let mut opts = ProgramOptions::new();
            if spec.accepts("supersteps") {
                opts.set("supersteps", "8");
            }
            let program = spec
                .build(&ProgramContext::new(graph.out_degrees()), &opts)
                .unwrap();
            let a = seq.run(part, program.as_ref()).unwrap();
            let b = thr.run(part, program.as_ref()).unwrap();
            assert_bit_identical(&a, &b, &format!("{} seed {seed}", spec.name));
        }
    }
}

/// A quarter of the fullest server's tile bytes, as the benchmark's
/// out-of-core workload sizes its cache.
fn quarter_cache(config: &GraphHConfig, part: &PartitionedGraph) -> u64 {
    let servers = config.cluster.num_servers;
    let assignment = graphh::partition::TileAssignment::round_robin(part.num_tiles(), servers);
    let fullest = (0..servers).map(|sid| {
        let tiles = assignment.tiles_of(sid);
        let bytes = tiles
            .iter()
            .map(|&t| part.tiles[t as usize].serialized_size());
        bytes.sum::<u64>()
    });
    fullest.max().unwrap().div_ceil(4)
}

/// Running again over one partitioned graph changes nothing a run reports,
/// although only the first run stages the tiles and builds the source sets:
/// every registry program × {engine's choice, every superstep pulled} ×
/// {a cache that holds every tile, a quarter-sized one whose misses read the
/// tiles the first run staged} × {sequential, threaded}, three runs over a
/// fresh partition and a fourth over a clone of it. Values, superstep counts
/// and every per-(superstep, server) integer counter are bit-identical; each
/// run reads the same bytes from each server's storage in as many reads; only
/// the first writes, and it writes every tile once.
#[test]
fn repeated_runs_over_one_partition_are_bit_identical() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    const OOC_SERVERS: u32 = 2;
    let dir = RmatGenerator::new(11, 8).generate(SEEDS[2]);
    let sym = symmetrised(&RmatGenerator::new(9, 6).simplified().generate(SEEDS[2]));
    let reads = |run: &RunResult| -> Vec<(u64, u64)> {
        let io = run.per_server_io.iter();
        io.map(|io| (io.bytes_read, io.read_ops)).collect()
    };
    let writes = |run: &RunResult| -> (u64, u64) {
        let io = run.per_server_io.iter();
        io.fold((0, 0), |(b, o), io| {
            (b + io.bytes_written, o + io.write_ops)
        })
    };
    let mut reread = 0;
    for spec in PROGRAMS {
        let graph = if spec.symmetrize_input { &sym } else { &dir };
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "6");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .unwrap();
        for mode in [DirectionMode::Auto, DirectionMode::ForcePull] {
            for out_of_core in [false, true] {
                let executors: [Arc<dyn Executor>; 2] = [
                    Arc::new(SequentialExecutor::new()),
                    Arc::new(ThreadedExecutor::new()),
                ];
                for executor in executors {
                    let what = format!(
                        "{} {mode:?} out-of-core {out_of_core} {}",
                        spec.name,
                        executor.name()
                    );
                    let part = Spe::partition(graph, &SpeConfig::with_tile_count("det", graph, 32))
                        .unwrap();
                    let mut config =
                        GraphHConfig::paper_default(ClusterConfig::paper_testbed(OOC_SERVERS))
                            .with_direction_mode(mode);
                    if out_of_core {
                        config.cache_capacity = Some(quarter_cache(&config, &part));
                    }
                    let engine = GraphHEngine::with_executor(config, executor);
                    let first = engine.run(&part, program.as_ref()).unwrap();
                    assert_eq!(
                        writes(&first),
                        (part.total_tile_bytes(), u64::from(part.num_tiles())),
                        "{what}: the first run stages every tile once"
                    );
                    let clone = part.clone();
                    for (i, graph) in [&part, &part, &clone].into_iter().enumerate() {
                        let again = engine.run(graph, program.as_ref()).unwrap();
                        let what = format!("{what}, run {}", i + 2);
                        assert_bit_identical(&first, &again, &what);
                        assert_eq!(reads(&first), reads(&again), "{what}: storage reads");
                        assert_eq!(writes(&again), (0, 0), "{what}: storage writes");
                    }
                    let read_ops: u64 = reads(&first).iter().map(|&(_, ops)| ops).sum();
                    if out_of_core && read_ops > u64::from(part.num_tiles()) {
                        reread += 1;
                    }
                }
            }
        }
    }
    assert!(reread > 0, "no out-of-core run read a staged tile twice");
}

/// One run of 3 `WorkerStep`s on this thread. With `shuffle: None` every
/// server receives its peers' wires in server-id order, as the sequential
/// executor delivers them; with a seed, each server takes each superstep's
/// peer wires in reverse server order on every third (superstep, server)
/// and in a seeded shuffle of all of them otherwise. Returns the frontier
/// after each superstep and every server's output.
fn stepped(
    config: &GraphHConfig,
    part: &PartitionedGraph,
    program: &dyn GabProgram,
    mut shuffle: Option<u64>,
) -> (Vec<Vec<u32>>, Vec<graphh::runtime::WorkerOutput>) {
    use graphh::core::exec::{ExecutionPlan, WorkerStep};

    let plan = ExecutionPlan::prepare(config, part, program).unwrap();
    let tracer = graphh::obs::Tracer::off();
    let mut steps: Vec<WorkerStep> = (0..config.cluster.num_servers)
        .map(|sid| WorkerStep::new(config, &plan, part, program, sid, &tracer))
        .collect();
    let mut frontiers = Vec::new();
    while let Some(superstep) = steps[0].next_superstep() {
        let outboxes: Vec<Vec<Vec<u8>>> = steps
            .iter_mut()
            .map(|step| {
                step.compute().unwrap();
                step.encode().map(<[u8]>::to_vec).collect()
            })
            .collect();
        for (sid, step) in steps.iter_mut().enumerate() {
            let mut peers: Vec<&Vec<Vec<u8>>> = outboxes
                .iter()
                .enumerate()
                .filter_map(|(sender, wires)| (sender != sid).then_some(wires))
                .collect();
            let reverse = (superstep as usize + sid).is_multiple_of(3);
            if shuffle.is_some() && reverse {
                peers.reverse();
            }
            let mut inbox: Vec<&[u8]> = peers.into_iter().flatten().map(Vec::as_slice).collect();
            if let Some(state) = shuffle.as_mut().filter(|_| !reverse) {
                for i in (1..inbox.len()).rev() {
                    *state ^= *state << 13;
                    *state ^= *state >> 7;
                    *state ^= *state << 17;
                    inbox.swap(i, (*state % (i as u64 + 1)) as usize);
                }
            }
            for wire in inbox {
                step.receive(wire).unwrap();
            }
        }
        for step in &mut steps {
            step.apply().unwrap();
        }
        let frontier = steps[0].frontier().to_vec();
        assert!(steps.iter().all(|step| step.frontier() == frontier));
        frontiers.push(frontier);
    }
    (
        frontiers,
        steps.into_iter().map(WorkerStep::finish).collect(),
    )
}

/// Arrival order cannot change a replica or a frontier: every registry
/// program × {engine's choice, every superstep pulled}, its peer wires
/// delivered in seeded shuffles and in reverse server order, against the
/// sequential executor — values, each superstep's frontier and the superstep
/// count, bit for bit, on every server. Until the threaded executor's
/// channels happen to deliver out of order, nothing else exercises it.
#[test]
fn peer_wires_may_arrive_in_any_order() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    let (dir, pdir, sym, psym) = workload_graphs(SEEDS[0]);
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for spec in PROGRAMS {
        let (graph, part) = if spec.symmetrize_input {
            (&sym, &psym)
        } else {
            (&dir, &pdir)
        };
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "8");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .unwrap();
        for mode in [DirectionMode::Auto, DirectionMode::ForcePull] {
            let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3))
                .with_direction_mode(mode);
            let reference =
                GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
                    .run(part, program.as_ref())
                    .unwrap();
            let (in_order, _) = stepped(&config, part, program.as_ref(), None);
            let updated: Vec<u64> = in_order.iter().map(|f| f.len() as u64).collect();
            let counts: Vec<u64> = reference
                .metrics
                .supersteps
                .iter()
                .map(|s| s.total_vertices_updated)
                .collect();
            assert_eq!(updated, counts, "{} {mode:?}", spec.name);
            for seed in [1, 0x2017_0FA1] {
                let what = format!("{} {mode:?} shuffle seed {seed}", spec.name);
                let (frontiers, outputs) = stepped(&config, part, program.as_ref(), Some(seed));
                assert_eq!(frontiers, in_order, "{what}: frontiers");
                for output in &outputs {
                    assert_eq!(output.supersteps_run, reference.supersteps_run, "{what}");
                    assert_eq!(
                        bits(&output.values),
                        bits(&reference.values),
                        "{what}: server {}",
                        output.server
                    );
                }
            }
        }
    }
}

/// The lowest-numbered vertex with exactly one out-edge: a traversal from it
/// starts sparse whatever the graph's hubs look like, so the engine's own
/// direction choice opens with a push.
fn quiet_source(graph: &Graph) -> u32 {
    (0..graph.num_vertices() as u32)
        .find(|&v| graph.out_degree(v) == 1)
        .expect("a vertex with one out-edge")
}

/// The engine's choice cannot change a value: for every registry program
/// with a push side, the engine-chosen run, the forced-push run and the
/// forced-pull run agree bit for bit — values, superstep counts, convergence
/// trajectory and wire bytes — on both executors, on an RMAT graph (from its
/// hub and from a quiet vertex, where the choice switches) and on a grid
/// (where it never leaves push). Disk bytes are *not* compared across
/// directions: a push superstep reads no tile. Forced-pull BFS is also held
/// to `reference::bfs`.
#[test]
fn forced_push_matches_forced_pull_bit_for_bit() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    let (dir, pdir, sym, psym) = workload_graphs(SEEDS[0]);
    let grid = graphh::graph::generators::grid_graph(32, 32);
    let pgrid = Spe::partition(&grid, &SpeConfig::with_tile_count("det", &grid, 11)).unwrap();
    let mut push_capable = Vec::new();
    for spec in PROGRAMS {
        let rmat = if spec.symmetrize_input {
            (&sym, &psym)
        } else {
            (&dir, &pdir)
        };
        // (graph, partition, source option if the program takes one)
        let mut cases = vec![(rmat.0, rmat.1, None), (&grid, &pgrid, None)];
        if spec.accepts("source") {
            cases.push((rmat.0, rmat.1, Some(quiet_source(rmat.0))));
        }
        for (graph, part, source) in cases {
            let mut opts = ProgramOptions::new();
            if let Some(source) = source {
                opts.set("source", &source.to_string());
            }
            let program = spec
                .build(&ProgramContext::new(graph.out_degrees()), &opts)
                .unwrap();
            if !program.supports_push() {
                continue;
            }
            push_capable.push(spec.name);
            let config_for = |mode: DirectionMode| {
                GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
                    .with_direction_mode(mode)
            };
            let reference = GraphHEngine::with_executor(
                config_for(DirectionMode::ForcePull),
                Arc::new(SequentialExecutor::new()),
            )
            .run(part, program.as_ref())
            .unwrap();
            if spec.name == "bfs" {
                // Forced pull gathers every unsettled vertex from superstep
                // 0, the most use BFS's first-parent gather gets: its levels
                // must be the plain traversal's.
                let source = program.initial_frontier(graph.num_vertices()).unwrap()[0];
                let want = graphh::core::reference::bfs(graph, source);
                assert_eq!(reference.values, want, "forced-pull bfs from {source}");
            }
            for mode in [
                DirectionMode::ForcePull,
                DirectionMode::ForcePush,
                DirectionMode::Auto,
            ] {
                let executors: [Arc<dyn Executor>; 2] = [
                    Arc::new(SequentialExecutor::new()),
                    Arc::new(ThreadedExecutor::new()),
                ];
                for executor in executors {
                    let what = format!(
                        "{} on {} vertices from {source:?}, {mode:?}, {}",
                        spec.name,
                        graph.num_vertices(),
                        executor.name()
                    );
                    let run = GraphHEngine::with_executor(config_for(mode), executor)
                        .run(part, program.as_ref())
                        .unwrap();
                    assert_values_and_trajectory(&reference, &run, &what);
                }
            }
        }
    }
    push_capable.dedup();
    assert_eq!(push_capable, ["sssp", "wcc", "bfs"]);
}

/// Like [`assert_bit_identical`] without the byte counters: the direction
/// axis changes which tiles are touched (and hence disk/cache traffic) but
/// never a value or the convergence trajectory.
fn assert_values_and_trajectory(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.values.len(), b.values.len(), "{what}: value count");
    for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: vertex {i} diverged ({x} vs {y})"
        );
    }
    assert_eq!(
        a.supersteps_run, b.supersteps_run,
        "{what}: superstep count"
    );
    assert_eq!(
        a.updated_ratio_per_superstep, b.updated_ratio_per_superstep,
        "{what}: convergence trajectory"
    );
    assert_eq!(
        a.metrics.total_network_bytes(),
        b.metrics.total_network_bytes(),
        "{what}: network bytes (direction must never change wire bytes)"
    );
}

/// Force-push on a pull-only program must be rejected at plan time, loudly —
/// not silently degraded to pull.
#[test]
fn force_push_on_a_pull_only_program_is_a_plan_error() {
    let (_, pdir, _, _) = workload_graphs(SEEDS[0]);
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
        .with_direction_mode(DirectionMode::ForcePush);
    let engine = GraphHEngine::with_executor(config, Arc::new(SequentialExecutor::new()));
    let err = engine.run(&pdir, &PageRank::new(3)).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains("pull-only"), "{rendered}");

    // Push is derived from the gather: exactly the min folds push.
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
    let pushers: Vec<&str> = PROGRAMS
        .iter()
        .filter(|spec| {
            let context = ProgramContext::new(&pdir.out_degrees);
            let program = spec.build(&context, &ProgramOptions::new()).unwrap();
            program.supports_push()
        })
        .map(|spec| spec.name)
        .collect();
    assert_eq!(pushers, ["sssp", "wcc", "bfs"]);
}

/// Auto mode actually *switches*, for every traversal and under the engine's
/// own thresholds: from a quiet source BFS and SSSP run both push supersteps
/// (the start from the source, the sparse tail) and pull supersteps (the
/// dense middle) in one run — asserted from the recorded spans, which both
/// executors must agree on superstep by superstep.
#[test]
fn auto_mode_switches_direction_and_both_executors_agree_on_when() {
    use graphh::obs::{TraceConfig, Tracer};
    use std::collections::BTreeMap;

    let (dir, pdir, _, _) = workload_graphs(SEEDS[0]);
    let source = quiet_source(&dir);
    let programs: [Box<dyn GabProgram>; 2] =
        [Box::new(Bfs::new(source)), Box::new(Sssp::new(source))];
    for program in &programs {
        let (program, name) = (program.as_ref(), program.name());
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS));

        let mut schedules: Vec<BTreeMap<u32, &'static str>> = Vec::new();
        let seq_tracer = Tracer::new();
        let seq = GraphHEngine::with_executor(
            config.clone(),
            Arc::new(SequentialExecutor::with_trace(TraceConfig {
                tracer: seq_tracer.clone(),
            })),
        )
        .run(&pdir, program)
        .unwrap();
        let thr_tracer = Tracer::new();
        let thr = GraphHEngine::with_executor(
            config,
            Arc::new(ThreadedExecutor::with_trace(TraceConfig {
                tracer: thr_tracer.clone(),
            })),
        )
        .run(&pdir, program)
        .unwrap();
        assert_values_and_trajectory(&seq, &thr, &format!("{name} auto"));

        for tracer in [seq_tracer, thr_tracer] {
            let mut schedule: BTreeMap<u32, &'static str> = BTreeMap::new();
            for span in tracer.drain() {
                if span.name == "tile-compute" {
                    let step = span.superstep.expect("compute spans carry a superstep");
                    let direction = span.direction.expect("compute spans carry a direction");
                    // Every server agrees on the per-superstep direction.
                    assert_eq!(*schedule.entry(step).or_insert(direction), direction);
                }
            }
            schedules.push(schedule);
        }
        assert_eq!(
            schedules[0], schedules[1],
            "{name}: executors disagreed on the direction schedule"
        );
        let directions: std::collections::BTreeSet<_> = schedules[0].values().copied().collect();
        assert!(
            directions.contains("pull") && directions.contains("push"),
            "{name}: expected a run that uses both directions, got {directions:?}"
        );
        assert_eq!(
            schedules[0].get(&0),
            Some(&"push"),
            "{name}: the run starts from the source alone, and one vertex is sparse"
        );
    }
}

/// The corrupt-wire harness, aimed at a worker that is mid *push* superstep:
/// attacker-controlled broadcast bytes must surface as `Err`, never a panic,
/// with the push machinery (frontier stats, push index, scatter loop) live.
#[test]
fn corrupt_wire_bytes_on_the_push_path_error_but_never_panic() {
    use graphh::cluster::{BroadcastEncoding, BroadcastMessage};
    use graphh::core::exec::ExecutionPlan;
    use graphh::graph::ids::ServerId;
    use graphh::obs::Tracer;
    use graphh::runtime::plane::{PlaneError, WireMessage};
    use graphh::runtime::{run_worker, BroadcastPlane};

    /// Feeds the worker one attacker-controlled payload per superstep.
    struct InjectingPlane {
        payloads: Vec<WireMessage>,
    }
    impl BroadcastPlane for InjectingPlane {
        fn num_servers(&self) -> u32 {
            2
        }
        fn server_id(&self) -> ServerId {
            0
        }
        fn broadcast(&mut self, _superstep: u32, _wire: &[u8]) -> Result<(), PlaneError> {
            Ok(())
        }
        fn end_superstep(&mut self, _superstep: u32) -> Result<(), PlaneError> {
            Ok(())
        }
        fn collect(&mut self, _superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
            Ok(self.payloads.pop().into_iter().collect())
        }
        fn abort(&mut self) {}
    }

    let g = RmatGenerator::new(7, 4).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("det", &g, 6)).unwrap();
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1))
        .with_direction_mode(DirectionMode::ForcePush);
    let program = Sssp::new(0);
    let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();

    // Deterministic xorshift, as in the pull-path harness above.
    let mut state = 0x2017_2017_2017_2017u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let valid = BroadcastMessage::new(0, 64, (0..32).map(|v| (v * 2, v as f64)).collect())
        .encode(BroadcastEncoding::Sparse);
    for _ in 0..100 {
        let mut corrupt = valid.clone();
        for _ in 0..(1 + next() as usize % 3) {
            let i = next() as usize % corrupt.len().max(1);
            corrupt[i] ^= (1 + next() % 255) as u8;
        }
        if next() % 4 == 0 {
            corrupt.truncate(next() as usize % (corrupt.len() + 1));
        }
        let mut plane = InjectingPlane {
            payloads: vec![corrupt.clone().into()],
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_worker(
                &config,
                &plan,
                &p,
                &program,
                0,
                &mut plane,
                &Tracer::off(),
                None,
            )
            .map(|out| out.supersteps_run)
        }));
        // Ok(Ok(_)) — the flip stayed valid — and Ok(Err(_)) are both fine;
        // a panic mid-push-superstep is not.
        assert!(
            outcome.is_ok(),
            "push-path worker panicked on corrupt wire bytes"
        );
    }
}

/// The bytes the shared LZSS engine puts on the wire and in the edge cache,
/// pinned: one seeded RMAT PageRank under each LZ message compressor
/// (`total_network_bytes`) and under each LZ cache codec (the edge caches'
/// `used_bytes` once every tile is resident). A rewrite of the compressor's
/// loops must reproduce every frame byte for byte, so these sums may never
/// move; the constants were recorded with the PR 8–14 per-byte engine.
#[test]
fn lz_wire_and_cache_bytes_are_pinned() {
    use graphh::core::exec::{ExecutionPlan, ServerState};

    const PIN_SERVERS: u32 = 2;
    const PINNED: [(Codec, u64, u64); 3] = [
        (Codec::Snappy, 24_212, 26_115),
        (Codec::Zlib1, 24_212, 26_392),
        (Codec::Zlib3, 24_212, 25_909),
    ];
    let g = RmatGenerator::new(10, 8).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("pin", &g, 16)).unwrap();
    let program = PageRank::new(4);
    for (codec, network_bytes, cache_bytes) in PINNED {
        let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(PIN_SERVERS));
        config.message_compressor = Some(codec);
        config.cache_mode = CacheMode::Fixed(codec);
        let run = GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()))
            .run(&p, &program)
            .unwrap();
        assert_eq!(
            run.metrics.total_network_bytes(),
            network_bytes,
            "{codec:?}: compressed broadcast bytes"
        );

        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        let frontier = plan.initial_frontier();
        let view = plan.frontier_view(&program, &frontier);
        let used: u64 = (0..PIN_SERVERS)
            .map(|sid| {
                let mut server = ServerState::build(&config, &plan, &p, sid);
                server
                    .run_tile_phase(&program, &plan, 0, &view, true)
                    .unwrap();
                let stats = server.cache_stats();
                assert_eq!(stats.resident_tiles, server.tiles.len() as u64);
                stats.used_bytes
            })
            .sum();
        assert_eq!(used, cache_bytes, "{codec:?}: compressed tile cache bytes");
    }
}

/// What every registry program put on the wire under the slot-per-vertex
/// layout (8 bytes for every vertex of a dense message's range, 12 per sparse
/// update), read at the commit before the packed layout replaced it: RMAT
/// scale 13, 16 tiles, 2 servers, without a compressor and under snappy.
/// Updated values only, integers as varints, reals as byte planes — no
/// program may ship more than it did.
#[test]
fn no_program_ships_more_bytes_than_the_slot_layout_did() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    const SLOT_LAYOUT: [(&str, u64, u64); 6] = [
        ("pagerank", 534_184, 467_394),
        ("sssp", 103_385, 15_728),
        ("wcc", 134_183, 28_617),
        ("bfs", 103_385, 15_728),
        ("labelprop", 137_428, 36_610),
        ("degree-centrality", 66_773, 19_571),
    ];
    let dir = RmatGenerator::new(13, 16).generate(SEEDS[0]);
    let sym = symmetrised(&dir);
    assert_eq!(PROGRAMS.len(), SLOT_LAYOUT.len());
    for (spec, (name, plain, snappy)) in PROGRAMS.iter().zip(SLOT_LAYOUT) {
        assert_eq!(spec.name, name);
        let graph = if spec.symmetrize_input { &sym } else { &dir };
        let p = Spe::partition(graph, &SpeConfig::with_tile_count("floor", graph, 16)).unwrap();
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "8");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .unwrap();
        for (compressor, ceiling) in [(None, plain), (Some(Codec::Snappy), snappy)] {
            let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
            config.message_compressor = compressor;
            let run = GraphHEngine::new(config).run(&p, program.as_ref()).unwrap();
            let shipped = run.metrics.total_network_bytes();
            assert!(
                shipped <= ceiling,
                "{name} under {compressor:?}: {shipped} bytes, the slot layout shipped {ceiling}"
            );
        }
    }
}

/// FNV-1a over a byte stream: the pins below need a stable hash, not a good one.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tile_bytes_hash(p: &PartitionedGraph) -> u64 {
    fnv1a(p.tiles.iter().flat_map(Tile::to_bytes))
}

/// Same seed, same graph, same tiles — at the facade, not implied by the
/// wire/cache pins above. The values were taken from the generator and SPE
/// as they stood before the branch-free sampler and the counting-sort SPE
/// replaced them; whoever changes either on purpose re-pins here and says so.
#[test]
fn rmat_edges_and_tile_bytes_are_pinned() {
    let g = RmatGenerator::new(10, 8).generate(SEEDS[0]);
    let ids = g.edges().sources().iter().chain(g.edges().targets());
    assert_eq!(
        fnv1a(ids.flat_map(|v| v.to_le_bytes())),
        0xe9fa_10cc_8854_49f9,
        "RMAT(10, 8) edge list for seed {}",
        SEEDS[0]
    );
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("pin", &g, 16)).unwrap();
    assert_eq!(p.num_tiles(), 16);
    assert_eq!(
        tile_bytes_hash(&p),
        0x392d_9a0a_47b2_7e50,
        "RMAT(10, 8) tile blobs"
    );

    // Repeated (src, dst) pairs with different weights: the order equal
    // sources come out of the per-target sort is part of the tile format.
    let mut edges = EdgeList::new_weighted();
    for i in 0..600u32 {
        let (src, dst) = ((i * 7) % 5, (i * 11) % 23);
        edges.push(Edge::weighted(src, dst, i as f32 * 0.25));
    }
    let g = Graph::from_edges(24, edges).unwrap();
    let p = Spe::partition(&g, &SpeConfig::new("pin-weighted", 50)).unwrap();
    assert_eq!(p.num_tiles(), 12);
    assert_eq!(
        tile_bytes_hash(&p),
        0x9b25_54cd_e4b1_8ec0,
        "weighted multigraph tile blobs"
    );
}

/// The three RMAT benchmark workloads' input, at the size they run it:
/// RMAT(17, 16) cut into 64 tiles. One hash per seed over both edge columns,
/// both degree arrays and every tile blob, taken before the integer sampler,
/// the degree counting while sampling and the radix run sort replaced the
/// float sampler, the second degree pass and the comparison sort. Slow in a
/// debug build; CI also runs it optimised (`--release --test determinism rmat`).
#[test]
fn rmat17_benchmark_graph_is_pinned() {
    for (seed, pin) in [(2017, 0x4962_297e_f3f9_b211), (7, 0xb216_97ee_8d02_899a)] {
        let g = RmatGenerator::new(17, 16).generate(seed);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("pin", &g, 64)).unwrap();
        assert_eq!(p.num_tiles(), 64);
        let columns = [g.edges().sources(), g.edges().targets()];
        let degrees = [g.in_degrees(), g.out_degrees()];
        let words = columns.into_iter().chain(degrees).flatten();
        let bytes = words
            .flat_map(|v| v.to_le_bytes())
            .chain(p.tiles.iter().flat_map(Tile::to_bytes));
        let got = fnv1a(bytes);
        assert_eq!(
            got, pin,
            "RMAT(17, 16) edges, degrees and 64 tiles for seed {seed}"
        );
    }
}

/// Every tile of an RMAT(14, 16) partition asked for 64 tiles, for each seed,
/// packs to exactly `Tile::packed_size` bytes and unpacks to an equal tile:
/// the word-at-a-time codec over the shape the edge cache holds, at a scale
/// that stays quick in a debug build.
#[test]
fn every_rmat_tile_roundtrips_through_the_packed_form() {
    let mut blob = Vec::new();
    for seed in SEEDS {
        let g = RmatGenerator::new(14, 16).generate(seed);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("packed", &g, 64)).unwrap();
        for tile in &p.tiles {
            tile.to_packed(&mut blob);
            let what = format!("seed {seed}, tile {}", tile.tile_id);
            assert_eq!(blob.len() as u64, tile.packed_size(), "{what}");
            let back = Tile::from_packed(&blob).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(back, *tile, "{what}");
        }
    }
}

/// The edge cache's packed form on the benchmark's input: RMAT(17, 16), seed
/// 2017, 64 tiles over 2 servers. Pins each server's total `Tile::to_packed`
/// bytes, and what the `pr-outofcore` configuration — a quarter of the fuller
/// server's serialized bytes, `CacheMode::Auto`, one thread per server — holds
/// once superstep 0 has offered every tile. Every tile packs below its
/// serialized size. Slow in a debug build; CI also runs it optimised.
#[test]
fn packed_cache_is_pinned() {
    use graphh::core::exec::{ExecutionPlan, ServerState};

    const PIN_SERVERS: u32 = 2;
    // (packed bytes of the server's tiles, resident tiles, cache used bytes)
    const PINNED: [(u64, u64, u64); 2] = [(1_798_773, 22, 1_155_317), (1_780_900, 22, 1_159_767)];
    let g = RmatGenerator::new(17, 16).generate(2017);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("pin", &g, 64)).unwrap();
    let program = PageRank::new(3);
    let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(PIN_SERVERS))
        .with_threads_per_server(1);
    let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
    let server_tiles = |sid| {
        plan.assignment
            .tiles_of(sid)
            .into_iter()
            .map(|t| &p.tiles[t as usize])
    };
    let fullest = (0..PIN_SERVERS)
        .map(|sid| server_tiles(sid).map(Tile::serialized_size).sum::<u64>())
        .max()
        .unwrap();
    config.cache_capacity = Some(fullest.div_ceil(4));
    assert_eq!(config.cache_mode, CacheMode::Auto);

    let frontier = plan.initial_frontier();
    let view = plan.frontier_view(&program, &frontier);
    let mut blob = Vec::new();
    for (sid, pinned) in (0..PIN_SERVERS).zip(PINNED) {
        let mut packed_bytes = 0;
        for tile in server_tiles(sid) {
            tile.to_packed(&mut blob);
            assert!(
                (blob.len() as u64) < tile.serialized_size(),
                "tile {} packs to {} bytes, serialized {}",
                tile.tile_id,
                blob.len(),
                tile.serialized_size()
            );
            packed_bytes += blob.len() as u64;
        }
        let mut server = ServerState::build(&config, &plan, &p, sid);
        assert_eq!(server.cache_codec(), Codec::VarintDelta);
        server
            .run_tile_phase(&program, &plan, 0, &view, true)
            .unwrap();
        let stats = server.cache_stats();
        assert_eq!(
            (packed_bytes, stats.resident_tiles, stats.used_bytes),
            pinned,
            "server {sid}: packed bytes, resident tiles, cache bytes"
        );
    }
}

fn tiles_skipped(run: &RunResult) -> u64 {
    let servers = run.metrics.supersteps.iter().flat_map(|s| &s.servers);
    servers.map(|s| s.tiles_skipped).sum()
}

/// Run `program` in the benchmark's engine configuration (2 servers, one
/// compute thread each) under `mode`, with tile skipping on and off: the
/// values must not care, and only the run that skips may skip. Returns how
/// many tiles it did.
fn skipped_with_identical_values(
    p: &PartitionedGraph,
    program: &dyn GabProgram,
    mode: DirectionMode,
) -> u64 {
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2))
        .with_threads_per_server(1)
        .with_direction_mode(mode);
    let mut probing_off = config.clone();
    probing_off.use_bloom_filter = false;
    let on = GraphHEngine::new(config).run(p, program).unwrap();
    let off = GraphHEngine::new(probing_off).run(p, program).unwrap();
    assert_values_and_trajectory(&on, &off, program.name());
    assert!(tiles_skipped(&off) <= tiles_skipped(&on));
    tiles_skipped(&on)
}

/// Tile skipping may only get better. The floors are what the Bloom filter
/// skipped before the per-tile source set replaced it, read at that commit:
/// the `sssp-grid` workload of `benchmark/` (128×128 grid, 32 tiles, SSSP from
/// the last corner) and `bfs-rmat`'s kernel and source picks on an RMAT graph
/// small enough for a debug build. A set that is exact can skip more — the
/// filter's false positives were tiles fetched and gathered for nothing —
/// and must never skip less. The grid's floor is taken with every superstep
/// pulled: left to itself the engine pushes all 255 and never probes a source
/// set there — and its push loop, which finds a tile's active sources by
/// search, must skip at least as many.
#[test]
fn the_source_set_skips_at_least_what_the_bloom_filter_did() {
    let grid = graphh::graph::generators::grid_graph(128, 128);
    let p = Spe::partition(&grid, &SpeConfig::with_tile_count("grid", &grid, 32)).unwrap();
    let sssp = Sssp::new(128 * 128 - 1);
    let skipped = skipped_with_identical_values(&p, &sssp, DirectionMode::ForcePull);
    assert!(skipped >= 3_853, "SSSP on the grid skipped {skipped} tiles");
    let pushed = skipped_with_identical_values(&p, &sssp, DirectionMode::Auto);
    assert!(
        pushed >= skipped,
        "pushing, SSSP on the grid skipped {pushed} tiles; pulling, {skipped}"
    );

    let rmat = RmatGenerator::new(13, 16).generate(SEEDS[0]);
    let p = Spe::partition(&rmat, &SpeConfig::with_tile_count("rmat", &rmat, 64)).unwrap();
    // The eight sources `benchmark/`'s picker draws on this graph for seed 2017.
    let sources = [4623, 784, 3596, 2860, 1144, 5187, 486, 1862];
    let skipped: u64 = sources
        .iter()
        .map(|&s| skipped_with_identical_values(&p, &Bfs::new(s), DirectionMode::Auto))
        .sum();
    assert!(skipped >= 413, "BFS on RMAT skipped {skipped} tiles");
}

/// A program with its two traversal hints withheld: every hook forwards —
/// the declaration, and the gather for a program that keeps its own —
/// except that no value is ever final and every vertex starts active — the
/// engine before the hints existed. Whether it can push follows from the
/// forwarded fold.
struct Unhinted<'a>(&'a dyn GabProgram);

impl GabProgram for Unhinted<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn initial_value(&self, v: u32, ctx: &InitContext) -> f64 {
        self.0.initial_value(v, ctx)
    }
    fn declaration(&self, num_vertices: u64) -> Declaration {
        Declaration {
            finality: Final::Never,
            ..self.0.declaration(num_vertices)
        }
    }
    fn gather(
        &self,
        target: u32,
        in_edges: &mut graphh::core::gab::Edges<'_>,
        ctx: &graphh::core::gab::VertexContext<'_>,
    ) -> f64 {
        self.0.gather(target, in_edges, ctx)
    }
    fn max_supersteps(&self) -> u32 {
        self.0.max_supersteps()
    }
    fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<u32>> {
        None
    }
}

fn edges_processed(run: &RunResult) -> u64 {
    let supersteps = run.metrics.supersteps.iter();
    supersteps.map(|s| s.total_edges_processed()).sum()
}

/// The hooks are honest: `is_final` and `initial_frontier` only tell the
/// engine what it may leave out. Withholding both changes no value, no
/// superstep count, no per-superstep update count and no wire byte — for
/// every registry program, direction policy and executor — and the hinted run
/// never gathers more edges.
#[test]
fn withholding_is_final_and_initial_frontier_changes_no_value_and_no_byte() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};

    let rmat = RmatGenerator::new(13, 4).generate(SEEDS[0]);
    let rmat_sym = symmetrised(&RmatGenerator::new(11, 4).simplified().generate(SEEDS[0]));
    let grid = graphh::graph::generators::grid_graph(32, 32);
    let mut saved = 0;
    for spec in PROGRAMS {
        let graphs = if spec.symmetrize_input {
            [&rmat_sym, &grid]
        } else {
            [&rmat, &grid]
        };
        for graph in graphs {
            let p = Spe::partition(graph, &SpeConfig::with_tile_count("det", graph, 12)).unwrap();
            let mut opts = ProgramOptions::new();
            if spec.accepts("supersteps") {
                opts.set("supersteps", "6");
            }
            let program = spec
                .build(&ProgramContext::new(graph.out_degrees()), &opts)
                .unwrap();
            let program = program.as_ref();
            let mut modes = vec![DirectionMode::Auto, DirectionMode::ForcePull];
            if program.supports_push() {
                modes.push(DirectionMode::ForcePush);
            }
            for mode in modes {
                let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2))
                    .with_direction_mode(mode);
                let executors: [Arc<dyn graphh::core::Executor>; 2] = [
                    Arc::new(SequentialExecutor::new()),
                    Arc::new(ThreadedExecutor::new()),
                ];
                for executor in executors {
                    let what = format!(
                        "{} on {} vertices, {mode:?}, {}",
                        spec.name,
                        graph.num_vertices(),
                        executor.name()
                    );
                    let engine = GraphHEngine::with_executor(config.clone(), executor);
                    let hinted = engine.run(&p, program).unwrap();
                    let plain = engine.run(&p, &Unhinted(program)).unwrap();
                    assert_values_and_trajectory(&plain, &hinted, &what);
                    assert!(
                        edges_processed(&hinted) <= edges_processed(&plain),
                        "{what}"
                    );
                    saved += edges_processed(&plain) - edges_processed(&hinted);
                }
            }
        }
    }
    assert!(saved > 100_000, "the hints saved only {saved} edges");
}

/// Gathered edges may only fall. `bfs-rmat`'s kernel and source picks on the
/// RMAT graph `the_source_set_skips_at_least_what_the_bloom_filter_did` uses:
/// the ceiling is what the engine gathered
/// before a pull skipped final targets and the run started from the source;
/// beside it, what it gathers now — the values and the wire bytes the same.
#[test]
fn dopt_bfs_gathers_a_fraction_of_the_edges_it_used_to() {
    const BEFORE: u64 = 3_821_024;
    const NOW: u64 = 496_992;
    let rmat = RmatGenerator::new(13, 16).generate(SEEDS[0]);
    let p = Spe::partition(&rmat, &SpeConfig::with_tile_count("rmat", &rmat, 64)).unwrap();
    let config =
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)).with_threads_per_server(1);
    let engine = GraphHEngine::new(config);
    let (mut hinted, mut plain) = (0, 0);
    for source in [4623, 784, 3596, 2860, 1144, 5187, 486, 1862] {
        let program = Bfs::new(source);
        let run = engine.run(&p, &program).unwrap();
        let reference = engine.run(&p, &Unhinted(&program)).unwrap();
        assert_values_and_trajectory(&reference, &run, "bfs");
        hinted += edges_processed(&run);
        plain += edges_processed(&reference);
    }
    assert_eq!(
        plain, BEFORE,
        "without the hints the engine gathers what it did"
    );
    assert!(hinted <= BEFORE, "gathered edges rose to {hinted}");
    assert_eq!(hinted, NOW);
}

/// The layering rule BFS's first-parent gather rests on, checked on the
/// graph and sources of `dopt_bfs_gathers_a_fraction_of_the_edges_it_used_to`:
/// at superstep `s` the replica holds every level up to `s`, and for each
/// vertex whose level is above `s`, the first in-neighbour in tile order at a
/// level of at most `s` is at level `s` exactly. So `Bfs::gather` over that
/// replica — which stops there — gives the vertex's next level, `s + 1` or
/// `+∞`; where it finds a parent, it reads under a quarter of the in-edges
/// offered to it (a vertex not yet reached reads them all, as before).
#[test]
fn bfs_first_visited_in_neighbour_is_at_the_previous_level() {
    use graphh::core::reference;

    let rmat = RmatGenerator::new(13, 16).generate(SEEDS[0]);
    let p = Spe::partition(&rmat, &SpeConfig::with_tile_count("rmat", &rmat, 64)).unwrap();
    let out_degrees = rmat.out_degrees();
    let (mut offered, mut read) = (0u64, 0u64);
    for source in [4623, 784, 3596, 2860, 1144, 5187, 486, 1862] {
        let levels = reference::bfs(&rmat, source);
        let deepest = levels
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .fold(0.0, f64::max);
        for superstep in 0..=deepest as u32 {
            let s = f64::from(superstep);
            let replica: Vec<f64> = levels
                .iter()
                .map(|&l| if l <= s { l } else { f64::INFINITY })
                .collect();
            let ctx = VertexContext {
                values: &replica,
                out_degrees,
                superstep,
                prepared: &[],
            };
            for tile in &p.tiles {
                for target in tile.targets().filter(|&t| levels[t as usize] > s) {
                    let (sources, _): (Vec<u32>, Vec<f32>) = tile.in_edges(target).unzip();
                    let first = sources
                        .iter()
                        .map(|&u| levels[u as usize])
                        .find(|&l| l <= s);
                    assert!(
                        first.is_none_or(|l| l == s),
                        "source {source} superstep {superstep}: {target}'s first \
                         visited in-neighbour is at level {first:?}"
                    );
                    let mut in_edges = Edges::new(&sources, None);
                    let gathered = Bfs::new(source).gather(target, &mut in_edges, &ctx);
                    let next = if levels[target as usize] == s + 1.0 {
                        s + 1.0
                    } else {
                        f64::INFINITY
                    };
                    assert_eq!(gathered.to_bits(), next.to_bits(), "{source}/{superstep}");
                    if gathered.is_finite() {
                        offered += sources.len() as u64;
                        read += (sources.len() - in_edges.len()) as u64;
                    }
                }
            }
        }
    }
    assert!(
        read * 4 < offered,
        "the gathers that found a parent read {read} of the {offered} in-edges offered"
    );
}

/// A tile blob comes off a disk: whatever is wrong with it, loading it is an
/// `Err(Corrupt)`, never a panic — and a blob that does load can be walked.
#[test]
fn corrupt_tile_blobs_error_but_never_panic() {
    use graphh::partition::PartitionError;

    let g = RmatGenerator::new(7, 6).generate(SEEDS[0]);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
    let tile = &p.tiles[1];
    assert!(tile.num_targets() > 8 && tile.num_edges() > 100);
    let blob = tile.to_bytes();
    let is_corrupt =
        |blob: &[u8]| matches!(Tile::from_bytes(blob), Err(PartitionError::Corrupt(_)));
    // Header layout: magic 0..8, id 8..12, targets 12..20, flag 20, edges 21..29.
    let with = |at: usize, bytes: &[u8]| {
        let mut blob = blob.clone();
        blob[at..at + bytes.len()].copy_from_slice(bytes);
        blob
    };

    // Truncated anywhere, or with a tail.
    for len in 0..blob.len() {
        assert!(is_corrupt(&blob[..len]), "truncated to {len} bytes");
    }
    assert!(is_corrupt(&[blob.as_slice(), &[0]].concat()));
    // A header claiming more than the blob holds — the first used to reserve
    // 32 GiB of offsets, the second panicked with `capacity overflow`.
    assert!(is_corrupt(&with(16, &u32::MAX.to_le_bytes())[..29]));
    assert!(is_corrupt(&with(21, &(1u64 << 61).to_le_bytes())));
    let mut no_targets = with(21, &(1u64 << 61).to_le_bytes());
    no_targets.copy_within(12..16, 16); // target_end = target_start
    no_targets.truncate(29);
    no_targets.extend_from_slice(&(1u64 << 61).to_le_bytes());
    assert!(is_corrupt(&no_targets));
    // Interior offsets that fall or overshoot: these used to load, and then
    // index out of bounds in the gather loop.
    let offset = |i: usize| 29 + 8 * i;
    assert!(is_corrupt(&with(offset(3), &u64::MAX.to_le_bytes())));
    assert!(is_corrupt(&with(offset(3), &0u64.to_le_bytes())));
    assert!(is_corrupt(&with(offset(0), &1u64.to_le_bytes())));
    // Any one bit of the header and the offsets flipped.
    for bit in 0..offset(tile.num_targets() as usize + 1) * 8 {
        let mut flipped = blob.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        match Tile::from_bytes(&flipped) {
            Ok(loaded) => {
                assert_eq!(loaded.to_bytes(), flipped, "bit {bit}");
                let walked: usize = loaded.targets().map(|t| loaded.in_edges(t).count()).sum();
                assert_eq!(walked as u64, loaded.num_edges(), "bit {bit}");
            }
            Err(PartitionError::Corrupt(_)) => {}
            Err(other) => panic!("bit {bit}: {other}"),
        }
    }
}

/// Every (superstep, server) peak-memory figure of a run on `SERVERS`
/// servers, one row per superstep.
fn peak_memory(run: &RunResult) -> Vec<[u64; SERVERS as usize]> {
    let supersteps = run.metrics.supersteps.iter();
    supersteps
        .map(|s| std::array::from_fn(|server| s.servers[server].peak_memory_bytes))
        .collect()
}

/// The peak memory each server reports is pinned, superstep by superstep:
/// the permanent vertex arrays, the source sets and push transposes, the
/// prepared array, the cache and the tile phase's concurrent tiles, on both
/// executors with two compute threads per server. PageRank without a cache;
/// PageRank with a quarter-sized cache, whose admissions land in the phase
/// that also holds the decoded tiles; and BFS under the engine's direction
/// choice, which pushes over transposes but prepares nothing.
#[test]
fn peak_memory_is_pinned() {
    const NO_CACHE: [[u64; 4]; 3] = [[9528, 10088, 9412, 9856]; 3];
    const QUARTER_CACHE: [[u64; 4]; 3] = [
        [9528, 10088, 9412, 9856],
        [10003, 10701, 9798, 10262],
        [10003, 10701, 9798, 10262],
    ];
    const BFS_AUTO: [[u64; 4]; 6] = [
        [8728, 9220, 8152, 8360],
        [8856, 9284, 8216, 8360],
        [10671, 11875, 9727, 10018],
        [11911, 13675, 10875, 11618],
        [11911, 13675, 10875, 11618],
        [11911, 13675, 10875, 11618],
    ];
    let (dir, pdir, _, _) = workload_graphs(SEEDS[0]);
    let base = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
        .with_threads_per_server(2);
    let mut quarter = base.clone();
    quarter.cache_capacity = Some(quarter_cache(&base, &pdir));
    let pagerank = PageRank::new(3);
    let bfs = Bfs::new(quiet_source(&dir));
    let no_cache = base.clone().without_cache();
    for (what, config, program, pinned) in [
        (
            "pagerank, no cache",
            &no_cache,
            &pagerank as &dyn GabProgram,
            &NO_CACHE[..],
        ),
        (
            "pagerank, quarter cache",
            &quarter,
            &pagerank,
            &QUARTER_CACHE[..],
        ),
        ("bfs, auto", &base, &bfs, &BFS_AUTO[..]),
    ] {
        let executors: [Arc<dyn graphh::core::Executor>; 2] = [
            Arc::new(SequentialExecutor::new()),
            Arc::new(ThreadedExecutor::new()),
        ];
        for executor in executors {
            let name = executor.name();
            let run = GraphHEngine::with_executor(config.clone(), executor)
                .run(&pdir, program)
                .unwrap();
            assert_eq!(peak_memory(&run), pinned, "{what}, {name}");
        }
    }
}
