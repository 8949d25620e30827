//! Integration tests spanning the whole pipeline: generate → partition → persist to
//! a tile store → reload → run on the engine → compare against references and baselines.

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

#[test]
fn all_engines_agree_on_pagerank_and_sssp() {
    use graphh::baselines::program::{PageRankMsg, SsspMsg};

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
    let pregel_pr =
        PregelEngine::new(PregelConfig::pregel_plus(cluster)).run(&graph, &PageRankMsg::new(6));
    let gas_pr = GasEngine::new(GasConfig::powergraph(cluster)).run(&graph, &PageRankMsg::new(6));
    let chaos_pr = ChaosEngine::new(ChaosConfig::new(cluster)).run(&graph, &PageRankMsg::new(6));
    for (name, values) in [
        ("pregel", &pregel_pr.values),
        ("gas", &gas_pr.values),
        ("chaos", &chaos_pr.values),
    ] {
        assert!(
            reference::max_abs_diff(&graphh_pr.values, values) < 1e-9,
            "{name} disagrees with GraphH on PageRank"
        );
    }

    let graphh_sssp = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &Sssp::new(source))
        .unwrap();
    let pregel_sssp =
        PregelEngine::new(PregelConfig::pregel_plus(cluster)).run(&graph, &SsspMsg::new(source));
    assert_eq!(
        reference::max_abs_diff(&graphh_sssp.values, &pregel_sssp.values),
        0.0
    );
    assert_eq!(
        reference::max_abs_diff(&graphh_sssp.values, &reference::sssp(&graph, source)),
        0.0
    );
}

#[test]
fn headline_claim_graphh_beats_out_of_core_systems() {
    use graphh::baselines::program::PageRankMsg;

    // The paper's headline: GraphH outperforms GraphD and Chaos by a wide margin
    // because the edge cache removes almost all disk I/O.
    let graph = Dataset::Uk2007.default_spec().generate(5);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("uk", &graph, 36)).unwrap();
    let cluster = ClusterConfig::paper_testbed(9);

    let graphh = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &PageRank::new(5))
        .unwrap();
    let graphd = PregelEngine::new(PregelConfig::graphd(cluster)).run(&graph, &PageRankMsg::new(5));
    let chaos = ChaosEngine::new(ChaosConfig::new(cluster)).run(&graph, &PageRankMsg::new(5));

    let g = graphh.avg_superstep_seconds();
    assert!(
        graphd.avg_superstep_seconds() > 3.0 * g,
        "GraphD {} vs GraphH {g}",
        graphd.avg_superstep_seconds()
    );
    assert!(
        chaos.avg_superstep_seconds() > 3.0 * g,
        "Chaos {} vs GraphH {g}",
        chaos.avg_superstep_seconds()
    );
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
