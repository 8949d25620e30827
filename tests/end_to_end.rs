//! Integration tests spanning the whole pipeline: generate → partition → persist to
//! a tile store → reload → run on the engine → compare against references and baselines.

use graphh::baselines::{self, BaselineRunResult};
use graphh::core::reference;
use graphh::prelude::*;

fn pipeline_graph() -> Graph {
    RmatGenerator::new(9, 6).generate(123)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn dfs_persisted_tiles_reload_and_run_identically() {
    let graph = pipeline_graph();
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("pipeline", &graph, 12)).unwrap();

    // Persist to an in-memory store and reload, like SPE → MPE hand-off in the paper.
    let store = MemoryBackend::new();
    partitioned.persist(&store).unwrap();
    let reloaded = PartitionedGraph::load(&store, "pipeline").unwrap();

    let engine = GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(3)));
    let from_memory = engine.run(&partitioned, &PageRank::new(8)).unwrap();
    let from_store = engine.run(&reloaded, &PageRank::new(8)).unwrap();
    assert_eq!(bits(&from_memory.values), bits(&from_store.values));
    assert!(reference::max_abs_diff(&from_memory.values, &reference::pagerank(&graph, 8)) < 1e-9);
}

/// PageRank gathers by summing what its `prepare` divided once per vertex. A
/// vertex without out-edges — a third of an RMAT graph — prepares a zero no
/// edge reads, so the ranks are the reference's per-edge divisions, bit for
/// bit, on one server and on several, sequential and threaded.
#[test]
fn pagerank_over_sinks_is_the_reference_bit_for_bit() {
    let graph = pipeline_graph();
    let sinks = graph.out_degrees().iter().filter(|&&d| d == 0).count();
    assert!(sinks > 50, "only {sinks} vertices without out-edges");
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("sinks", &graph, 12)).unwrap();
    let expected = bits(&reference::pagerank(&graph, 8));
    for servers in [1, 3] {
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers));
        let executors: [std::sync::Arc<dyn Executor>; 2] = [
            std::sync::Arc::new(SequentialExecutor::new()),
            std::sync::Arc::new(ThreadedExecutor::new()),
        ];
        for executor in executors {
            let name = executor.name();
            let engine = GraphHEngine::with_executor(config.clone(), executor);
            let run = engine.run(&partitioned, &PageRank::new(8)).unwrap();
            assert_eq!(bits(&run.values), expected, "{servers} servers, {name}");
        }
    }
}

/// The hand-off across processes: what one handle on a directory persists, a
/// fresh handle on the same directory loads, and the directory holds exactly
/// one file per tile plus the two degree arrays, each tile file being
/// `Tile::to_bytes`.
#[test]
fn tiles_survive_a_real_disk_roundtrip() {
    let graph = pipeline_graph();
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("disk", &graph, 8)).unwrap();
    let dir = tempfile::tempdir().unwrap();
    partitioned
        .persist(&LocalDiskBackend::new(dir.path()).unwrap())
        .unwrap();

    let fresh = LocalDiskBackend::new(dir.path()).unwrap();
    let mut expected = vec![
        "disk/degrees/in.bin".to_string(),
        "disk/degrees/out.bin".to_string(),
    ];
    expected.extend((0..partitioned.num_tiles()).map(|t| format!("disk/tiles/tile-{t:06}.bin")));
    assert_eq!(fresh.list(""), expected);
    let on_disk: u64 = expected
        .iter()
        .map(|key| std::fs::metadata(dir.path().join(key)).unwrap().len())
        .sum();
    let degree_array_bytes = 8 + 4 * graph.num_vertices();
    assert_eq!(
        on_disk,
        partitioned.total_tile_bytes() + 2 * degree_array_bytes
    );
    for tile in &partitioned.tiles {
        let key = Tile::storage_key("disk", tile.tile_id);
        assert_eq!(fresh.get(&key).unwrap(), tile.to_bytes(), "{key}");
    }

    let reloaded = PartitionedGraph::load(&fresh, "disk").unwrap();
    assert_eq!(reloaded.tiles, partitioned.tiles);
    assert_eq!(reloaded.splitter, partitioned.splitter);
    assert_eq!(reloaded.in_degrees, partitioned.in_degrees);
    assert_eq!(reloaded.out_degrees, partitioned.out_degrees);
    let engine = GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(3)));
    let from_memory = engine.run(&partitioned, &PageRank::new(8)).unwrap();
    let from_disk = engine.run(&reloaded, &PageRank::new(8)).unwrap();
    assert_eq!(from_disk.executor, "sequential");
    assert_eq!(bits(&from_memory.values), bits(&from_disk.values));
}

/// A tile's push transpose is built by the first push-capable run over its
/// partitioned graph and read by every later one. Pull-only runs build none;
/// every later run of every program with a push side, on either executor,
/// and every clone of the graph, shares the first run's; the tile's bytes do
/// not carry it. Reuse changes nothing: the values, the superstep count and
/// the wire bytes are those of a run over a freshly partitioned copy.
#[test]
fn push_transposes_are_built_once_per_partitioned_graph() {
    use graphh::core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
    use graphh::partition::PushIndex;
    use std::sync::Arc;

    let graph = pipeline_graph();
    let partition =
        || Spe::partition(&graph, &SpeConfig::with_tile_count("reuse", &graph, 12)).unwrap();
    let partitioned = partition();
    let built = |tiles: &[Tile]| -> Vec<Option<Arc<PushIndex>>> {
        tiles
            .iter()
            .map(|tile| tile.push_index().cloned())
            .collect()
    };
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
    let sequential =
        GraphHEngine::with_executor(config.clone(), Arc::new(SequentialExecutor::new()));
    let threaded = GraphHEngine::with_executor(config.clone(), Arc::new(ThreadedExecutor::new()));
    let pulled = GraphHEngine::new(config.with_direction_mode(DirectionMode::ForcePull));

    sequential.run(&partitioned, &PageRank::new(3)).unwrap();
    pulled.run(&partitioned, &Bfs::new(0)).unwrap();
    assert!(built(&partitioned.tiles).iter().all(Option::is_none));

    let mut first_built = None;
    let mut pushers = 0;
    for spec in PROGRAMS {
        let program = spec
            .build(
                &ProgramContext::new(graph.out_degrees()),
                &ProgramOptions::new(),
            )
            .unwrap();
        if !program.supports_push() {
            continue;
        }
        pushers += 1;
        let first = sequential.run(&partitioned, program.as_ref()).unwrap();
        let after_first = built(&partitioned.tiles);
        assert!(after_first.iter().all(Option::is_some), "{}", spec.name);
        let second = threaded.run(&partitioned, program.as_ref()).unwrap();
        let fresh_graph = partition();
        assert!(built(&fresh_graph.tiles).iter().all(Option::is_none));
        let fresh = sequential.run(&fresh_graph, program.as_ref()).unwrap();
        for (what, run) in [("threaded rerun", &second), ("fresh partition", &fresh)] {
            let context = format!("{} {what}", spec.name);
            assert_eq!(bits(&run.values), bits(&first.values), "{context}");
            assert_eq!(run.supersteps_run, first.supersteps_run, "{context}");
            assert_eq!(
                run.metrics.total_network_bytes(),
                first.metrics.total_network_bytes(),
                "{context}"
            );
        }

        // Every run since the first push-capable one reads the same
        // transposes, and so does a clone of the graph.
        let first_built = first_built.get_or_insert(after_first);
        let clone = partitioned.clone();
        for tiles in [&partitioned.tiles, &clone.tiles] {
            for (now, then) in built(tiles).iter().zip(first_built.iter()) {
                assert!(Arc::ptr_eq(now.as_ref().unwrap(), then.as_ref().unwrap()));
            }
        }
        for tile in &partitioned.tiles {
            let decoded = Tile::from_bytes(&tile.to_bytes()).unwrap();
            assert!(decoded.push_index().is_none());
            assert_eq!(&decoded, tile);
        }
    }
    assert!(pushers >= 3, "{pushers} programs with a push side");
}

#[test]
fn all_engines_agree_on_pagerank_and_sssp() {
    let graph = pipeline_graph();
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("agree", &graph, 10)).unwrap();
    let cluster = ClusterConfig::paper_testbed(4);
    let source = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();

    let graphh_pr = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &PageRank::new(6))
        .unwrap();
    let graphh_sssp = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &Sssp::new(source))
        .unwrap();
    assert_eq!(
        reference::max_abs_diff(&graphh_sssp.values, &reference::sssp(&graph, source)),
        0.0
    );
    for system in SystemKind::BASELINES {
        let pr = baselines::run(system, &graph, &PageRank::new(6), cluster).unwrap();
        assert!(
            reference::max_abs_diff(&graphh_pr.values, &pr.values) < 1e-9,
            "{} disagrees with GraphH on PageRank",
            system.name()
        );
        let sssp = baselines::run(system, &graph, &Sssp::new(source), cluster).unwrap();
        assert_eq!(
            reference::max_abs_diff(&graphh_sssp.values, &sssp.values),
            0.0,
            "{} disagrees with GraphH on SSSP",
            system.name()
        );
    }
}

#[test]
fn headline_claim_graphh_beats_out_of_core_systems() {
    // The paper's headline: GraphH outperforms GraphD and Chaos by a wide margin
    // because the edge cache removes almost all disk I/O.
    let graph = Dataset::Uk2007.default_spec().generate(5);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("uk", &graph, 36)).unwrap();
    let cluster = ClusterConfig::paper_testbed(9);

    let graphh = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &PageRank::new(5))
        .unwrap();
    let g = graphh.avg_superstep_seconds();
    for system in [SystemKind::GraphD, SystemKind::Chaos] {
        let baseline = baselines::run(system, &graph, &PageRank::new(5), cluster).unwrap();
        assert!(
            baseline.avg_superstep_seconds() > 3.0 * g,
            "{} {} vs GraphH {g}",
            system.name(),
            baseline.avg_superstep_seconds()
        );
    }
}

#[test]
fn graphh_handles_the_big_graph_standins_on_a_single_server() {
    // §V-A: GraphH can process UK-2014 / EU-2015 on a single node.
    for dataset in [Dataset::Uk2014, Dataset::Eu2015] {
        let graph = dataset.default_spec().generate(1);
        let partitioned =
            Spe::partition(&graph, &SpeConfig::with_tile_count("big", &graph, 24)).unwrap();
        let result =
            GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(1)))
                .run(&partitioned, &PageRank::new(3))
                .unwrap();
        assert_eq!(result.values.len() as u64, graph.num_vertices());
        assert_eq!(result.metrics.total_network_bytes(), 0);
        let sum: f64 = result.values.iter().sum();
        assert!(sum > 0.0 && sum <= 1.01);
    }
}

/// One line per run: supersteps, the run-wide sum of every integer
/// `ServerMetrics` field, and the bits of the simulated total.
fn meter_line(system: SystemKind, program: &str, servers: u32, r: &BaselineRunResult) -> String {
    let mut sums = [0u64; 15];
    for report in &r.metrics.supersteps {
        for s in &report.servers {
            let fields = [
                s.edges_processed,
                s.disk_read_bytes,
                s.disk_read_ops,
                s.disk_write_bytes,
                s.disk_write_ops,
                s.network_sent_bytes,
                s.network_received_bytes,
                s.network_messages,
                s.vertices_updated,
                s.messages_produced,
                s.cache_hits,
                s.cache_misses,
                s.tiles_skipped,
                s.tiles_processed,
                s.peak_memory_bytes,
            ];
            for (sum, field) in sums.iter_mut().zip(fields) {
                *sum += field;
            }
        }
    }
    let sums: Vec<String> = sums.iter().map(u64::to_string).collect();
    format!(
        "{} {program} {servers}: {} [{}] {:#018x}\n",
        system.name(),
        r.supersteps_run,
        sums.join(" "),
        r.total_seconds().to_bits()
    )
}

/// Every meter's counters and simulated time, exactly as the three
/// per-system engines (each with its own superstep loop over its own
/// message-passing PageRank and SSSP) produced them before one loop replaced
/// them: the table below was captured from those engines and is not to be
/// edited.
#[test]
fn baseline_meters_are_pinned() {
    let graph = pipeline_graph();
    let source = (0..graph.num_vertices() as u32)
        .max_by_key(|&v| graph.out_degree(v))
        .unwrap();
    let pagerank = PageRank::new(5);
    let sssp = Sssp::new(source);
    let mut table = String::new();
    for servers in [1u32, 3, 9] {
        let cluster = ClusterConfig::paper_testbed(servers);
        for (name, program) in [("pagerank", &pagerank as &dyn GabProgram), ("sssp", &sssp)] {
            for system in SystemKind::BASELINES {
                let run = baselines::run(system, &graph, program, cluster).unwrap();
                table.push_str(&meter_line(system, name, servers, &run));
            }
        }
    }
    assert_eq!(table, METER_PIN);
}

const METER_PIN: &str = "\
Pregel+ pagerank 1: 5 [15360 0 0 0 0 0 0 0 1892 15360 0 0 0 0 602995] 0x3ee65e9f80f29212\n\
PowerGraph pagerank 1: 5 [15360 0 0 0 0 0 0 0 1892 0 0 0 0 0 983040] 0x3ee65e9f80f29212\n\
PowerLyra pagerank 1: 5 [15360 0 0 0 0 0 0 0 1892 0 0 0 0 0 1351680] 0x3ee65e9f80f29212\n\
GraphD pagerank 1: 5 [15360 307200 5 184320 5 0 0 0 1892 15360 0 0 0 0 184320] 0x3fb4f8ebcc9146e8\n\
Chaos pagerank 1: 5 [30720 389120 60 225280 40 614400 614400 80 1892 15360 0 0 0 0 225280] 0x3fe9f2d8fa8d31d0\n\
Pregel+ sssp 1: 4 [5843 0 0 0 0 0 0 0 344 3004 0 0 0 0 482396] 0x3ed104db48f00421\n\
PowerGraph sssp 1: 4 [9445 0 0 0 0 0 0 0 344 0 0 0 0 0 786432] 0x3edb82b3d3bfa6a3\n\
PowerLyra sssp 1: 4 [9445 0 0 0 0 0 0 0 344 0 0 0 0 0 1081344] 0x3edb82b3d3bfa6a3\n\
GraphD sssp 1: 4 [5843 82792 4 36048 4 0 0 0 344 3004 0 0 0 0 147456] 0x3fb07fe288591152\n\
Chaos sssp 1: 4 [20739 265252 48 134180 32 399432 399432 64 344 8451 0 0 0 0 180224] 0x3fe4be8ccd7882ce\n\
Pregel+ pagerank 3: 5 [15360 0 0 0 0 28800 28800 30 5676 15360 0 0 0 0 635970] 0x3f5094daf2bd6dba\n\
PowerGraph pagerank 3: 5 [15360 0 0 0 0 30060 30060 60 5676 5010 0 0 0 0 1228800] 0x3f607bf5c4bdb4ac\n\
PowerLyra pagerank 3: 5 [15360 0 0 0 0 24660 24660 60 5676 4110 0 0 0 0 1449975] 0x3f6078ac57b934b3\n\
GraphD pagerank 3: 5 [15360 307200 15 184320 15 28800 28800 30 5676 15360 0 0 0 0 184320] 0x3fb4eaf1bc914fbe\n\
Chaos pagerank 3: 5 [30720 389115 180 225270 120 614400 614400 240 5676 15360 0 0 0 0 225270] 0x3fe9e30a2847bf48\n\
Pregel+ sssp 3: 4 [5843 0 0 0 0 8616 8616 19 1032 3004 0 0 0 0 508776] 0x3f4a5d7e20968bc5\n\
PowerGraph sssp 3: 4 [9445 0 0 0 0 17556 17556 48 1032 2926 0 0 0 0 983040] 0x3f5a55b54f68da1a\n\
PowerLyra sssp 3: 4 [9445 0 0 0 0 14340 14340 48 1032 2390 0 0 0 0 1159980] 0x3f5a51d0512a2214\n\
GraphD sssp 3: 4 [5843 82792 12 36048 12 8616 8616 19 1032 3004 0 0 0 0 147456] 0x3fb0a39c18eb83a1\n\
Chaos sssp 3: 4 [20736 265248 144 134172 96 399432 399432 192 1032 8448 0 0 0 0 180216] 0x3fe4b46398fe9b16\n\
Pregel+ pagerank 9: 5 [15360 0 0 0 0 66960 66960 360 17028 15360 0 0 0 0 648630] 0x3f706c4d928314aa\n\
PowerGraph pagerank 9: 5 [15360 0 0 0 0 82140 82140 720 17028 13690 0 0 0 0 1597410] 0x3f806762c163a218\n\
PowerLyra pagerank 9: 5 [15360 0 0 0 0 60660 60660 720 17028 10110 0 0 0 0 1671165] 0x3f80666cadac15b0\n\
GraphD pagerank 9: 5 [15360 307200 45 184320 45 66960 66960 360 17028 15360 0 0 0 0 184320] 0x3fb595c398d8f43b\n\
Chaos pagerank 9: 5 [30690 389115 540 225270 360 614385 614385 720 17028 15345 0 0 0 0 225270] 0x3fe9ddc541661a21\n\
Pregel+ sssp 9: 4 [5843 0 0 0 0 17064 17064 164 3096 3004 0 0 0 0 518904] 0x3f66f7ba88bdd95e\n\
PowerGraph sssp 9: 4 [9445 0 0 0 0 48480 48480 576 3096 8080 0 0 0 0 1277928] 0x3f7a3cefc6ac6520\n\
PowerLyra sssp 9: 4 [9445 0 0 0 0 35964 35964 576 3096 5994 0 0 0 0 1336932] 0x3f7a3bebfad189c3\n\
GraphD sssp 9: 4 [5843 82792 36 36048 36 17064 17064 164 3096 3004 0 0 0 0 147456] 0x3fb1207137bc1754\n\
Chaos sssp 9: 4 [20727 265239 432 134163 288 399420 399420 576 3096 8433 0 0 0 0 180216] 0x3fe4b1008bfb24f1\n";
