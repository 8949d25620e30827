//! One function per table / figure of the paper's evaluation section.
//!
//! Every function returns a formatted text block (tab-separated rows) for the
//! `report` binary to print. Engine-driven experiments run on the scaled-down
//! dataset stand-ins (see `workloads`); the analytic tables (Table III/IV,
//! Figure 6a) are additionally evaluated at paper scale, since they only need
//! |V| and |E|.

use crate::workloads::{experiment_graph, partition_for_experiments, run_graphh};
use graphh_baselines::{CostSheet, SystemKind};
use graphh_cache::CacheMode;
use graphh_cluster::{ClusterConfig, CommunicationMode};
use graphh_compress::{stats::measure_all, Codec};
use graphh_core::replication::{MemoryModel, ReplicationPolicy, VertexSizes};
use graphh_core::{GabProgram, GraphHConfig, GraphHEngine, PageRank, Sssp};
use graphh_graph::datasets::Dataset;
use graphh_graph::ids::VertexId;
use graphh_graph::properties::human_bytes;
use graphh_partition::formats::InputSizes;
use graphh_partition::PartitionedGraph;
use std::fmt::Write as _;

/// Number of PageRank supersteps the paper times (21, dropping the first).
pub const PAGERANK_SUPERSTEPS: u32 = 21;

fn best_source(graph: &graphh_graph::Graph) -> VertexId {
    graph
        .out_degrees()
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v as VertexId)
        .unwrap_or(0)
}

/// Table I: benchmark dataset statistics — the paper's values and the stand-ins used
/// throughout the harness.
pub fn table1_datasets() -> String {
    let mut out = String::from(
        "# Table I: benchmark graph datasets (paper scale vs generated stand-in)\n\
         dataset\tpaper |V|\tpaper |E|\tpaper avg deg\tstand-in |V|\tstand-in |E|\tstand-in avg deg\tstand-in max in/out deg\n",
    );
    for d in Dataset::ALL {
        let paper = d.paper_stats();
        let g = experiment_graph(d);
        let s = g.stats();
        writeln!(
            out,
            "{}\t{}\t{}\t{:.1}\t{}\t{}\t{:.1}\t{}/{}",
            d.name(),
            paper.num_vertices,
            paper.num_edges,
            paper.avg_degree,
            s.num_vertices,
            s.num_edges,
            s.avg_degree,
            s.max_in_degree,
            s.max_out_degree
        )
        .unwrap();
    }
    out
}

/// Figure 1a: memory required to run PageRank on UK-2007 with 9 servers, per system
/// (evaluated at paper scale with the calibrated per-record models).
pub fn fig1a_memory_requirements() -> String {
    let sheet = CostSheet::new(
        &Dataset::Uk2007.paper_stats(),
        ClusterConfig::paper_testbed(9),
    );
    let mut out = String::from(
        "# Figure 1a: total memory to run PageRank on UK-2007 (9 servers)\nsystem\ttotal memory\n",
    );
    for sys in SystemKind::ALL {
        writeln!(
            out,
            "{}\t{}",
            sys.name(),
            human_bytes(sheet.total_memory_bytes(sys))
        )
        .unwrap();
    }
    out
}

struct SystemRun {
    name: &'static str,
    avg_seconds: f64,
}

/// GraphH, then every baseline system, running `program` on `servers` servers.
fn run_all_systems(
    graph: &graphh_graph::Graph,
    partitioned: &PartitionedGraph,
    servers: u32,
    program: &dyn GabProgram,
) -> Vec<SystemRun> {
    let graphh = run_graphh(partitioned, program, servers);
    let mut runs = vec![SystemRun {
        name: "GraphH",
        avg_seconds: graphh.avg_superstep_seconds(),
    }];
    for system in SystemKind::BASELINES {
        let run = graphh_baselines::run(
            system,
            graph,
            program,
            ClusterConfig::paper_testbed(servers),
        )
        .expect("every BASELINES system has a meter");
        runs.push(SystemRun {
            name: system.name(),
            avg_seconds: run.avg_superstep_seconds(),
        });
    }
    runs
}

/// Figure 1b: per-superstep PageRank time on UK-2007 with 9 servers, per system
/// (simulated seconds on the stand-in graph).
pub fn fig1b_execution_time() -> String {
    let g = experiment_graph(Dataset::Uk2007);
    let p = partition_for_experiments(&g, "uk-2007");
    let runs = run_all_systems(&g, &p, 9, &PageRank::new(PAGERANK_SUPERSTEPS));
    let mut out = String::from(
        "# Figure 1b: avg PageRank superstep time, UK-2007 stand-in, 9 servers\nsystem\tavg superstep seconds (simulated)\n",
    );
    for r in runs {
        writeln!(out, "{}\t{:.4}", r.name, r.avg_seconds).unwrap();
    }
    out
}

/// Table III: per-superstep memory / network / disk for PageRank, per system, at
/// paper scale for the chosen dataset.
pub fn table3_cost_comparison(dataset: Dataset) -> String {
    let sheet = CostSheet::new(&dataset.paper_stats(), ClusterConfig::paper_testbed(9));
    let mut out = format!(
        "# Table III: PageRank cost model on {} (paper scale, 9 servers)\nsystem\tmemory (total)\tnetwork/superstep\tdisk read/superstep\tdisk write/superstep\n",
        dataset.name()
    );
    for sys in SystemKind::ALL {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            sys.name(),
            human_bytes(sheet.total_memory_bytes(sys)),
            human_bytes(sheet.network_bytes_per_superstep(sys)),
            human_bytes(sheet.disk_read_bytes_per_superstep(sys, 0.3)),
            human_bytes(sheet.disk_write_bytes_per_superstep(sys)),
        )
        .unwrap();
    }
    out
}

/// Table IV: input data size per system format, per dataset (paper scale estimates
/// plus the measured tile footprint of the stand-in).
pub fn table4_input_sizes() -> String {
    let mut out = String::from(
        "# Table IV: input data size per system\ndataset\tedge list (CSV)\tPregel+/GraphD\tGiraph\tChaos\tGraphH\tGraphH/CSV ratio\n",
    );
    for d in Dataset::ALL {
        let sizes = InputSizes::from_stats(&d.paper_stats());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.2}",
            d.name(),
            human_bytes(sizes.edge_list_csv),
            human_bytes(sizes.pregel_like),
            human_bytes(sizes.giraph),
            human_bytes(sizes.chaos),
            human_bytes(sizes.graphh),
            sizes.graphh_to_csv_ratio()
        )
        .unwrap();
    }
    out
}

/// Figure 6a: expected per-server memory of the All-in-All vs On-Demand replication
/// policies as the cluster grows (paper scale, PageRank sizes).
pub fn fig6a_replication_policies() -> String {
    let mut out = String::from(
        "# Figure 6a: expected per-server vertex memory, AA vs OD policy\ndataset\tservers\tAA\tOD\n",
    );
    for d in Dataset::ALL {
        let model = MemoryModel::new(&d.paper_stats(), VertexSizes::pagerank());
        for servers in [1u32, 8, 16, 24, 32, 48, 64] {
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                d.name(),
                servers,
                human_bytes(model.aa_vertex_bytes()),
                human_bytes(model.od_vertex_bytes(servers)),
            )
            .unwrap();
        }
    }
    out
}

/// Figure 6b: measured GraphH memory per server (stand-in scale, no edge cache) and
/// the corresponding paper-scale model, for PageRank and SSSP on all datasets.
pub fn fig6b_memory_usage() -> String {
    let mut out = String::from(
        "# Figure 6b: GraphH per-server memory (9 servers, cache disabled)\ndataset\tprogram\tmeasured peak (stand-in)\tmodelled (paper scale)\n",
    );
    for d in Dataset::ALL {
        let g = experiment_graph(d);
        let p = partition_for_experiments(&g, d.name());
        for (label, sizes, program) in [
            (
                "PageRank",
                VertexSizes::pagerank(),
                Box::new(PageRank::new(3)) as Box<dyn GabProgram>,
            ),
            (
                "SSSP",
                VertexSizes::sssp(),
                Box::new(Sssp::new(best_source(&g))) as Box<dyn GabProgram>,
            ),
        ] {
            let engine = GraphHEngine::new(
                GraphHConfig::paper_default(ClusterConfig::paper_testbed(9)).without_cache(),
            );
            let result = engine.run(&p, program.as_ref()).expect("run");
            let measured = result.metrics.peak_memory_bytes();
            let model = MemoryModel::new(&d.paper_stats(), sizes);
            let paper_scale = model.aa_vertex_bytes() + 25_000_000 * 4 * 12;
            writeln!(
                out,
                "{}\t{}\t{}\t{}",
                d.name(),
                label,
                human_bytes(measured),
                human_bytes(paper_scale),
            )
            .unwrap();
        }
    }
    out
}

/// Table V: compression ratio and throughput of every codec on each dataset's tiles.
pub fn table5_compression() -> String {
    let mut out = String::from(
        "# Table V: compression ratio / throughput on serialized tiles\ndataset\tcodec\tratio\tcompress MB/s\tdecompress MB/s\ttile bytes\n",
    );
    for d in Dataset::ALL {
        let g = experiment_graph(d);
        let p = partition_for_experiments(&g, d.name());
        // Concatenate a sample of tiles (up to ~4 MB) as the measurement payload.
        let mut payload = Vec::new();
        for tile in &p.tiles {
            payload.extend_from_slice(&tile.to_bytes());
            if payload.len() > 4 << 20 {
                break;
            }
        }
        for m in measure_all(&payload) {
            writeln!(
                out,
                "{}\t{}\t{:.2}\t{:.0}\t{:.0}\t{}",
                d.name(),
                m.codec.name(),
                m.ratio,
                m.compress_throughput / 1e6,
                m.decompress_throughput / 1e6,
                payload.len(),
            )
            .unwrap();
        }
    }
    out
}

/// Figure 7: execution time and cache hit ratio per cache mode (1–4), with the edge
/// cache capacity constrained so the mode actually matters, on the EU-2015 stand-in
/// with 3 and 9 servers.
pub fn fig7_cache_modes() -> String {
    let g = experiment_graph(Dataset::Eu2015);
    let p = partition_for_experiments(&g, "eu-2015");
    let total_tile_bytes = p.total_tile_bytes();
    let mut out = String::from(
        "# Figure 7: PageRank per-superstep time and cache hit ratio vs cache mode (EU-2015 stand-in)\nservers\tcache mode\tcodec\tavg superstep seconds\tcache hit ratio\n",
    );
    for servers in [3u32, 9] {
        // Give each server enough cache for ~40% of its raw tiles: raw cannot hold
        // everything, compressed modes can.
        let capacity = (total_tile_bytes / u64::from(servers)) * 2 / 5;
        for mode in 1u8..=4 {
            let codec = Codec::from_cache_mode(mode).unwrap();
            let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers));
            cfg.cache_mode = CacheMode::Fixed(codec);
            cfg.cache_capacity = Some(capacity);
            let result = GraphHEngine::new(cfg)
                .run(&p, &PageRank::new(6))
                .expect("run");
            let hits: u64 = result
                .metrics
                .supersteps
                .iter()
                .skip(1)
                .flat_map(|r| r.servers.iter())
                .map(|s| s.cache_hits)
                .sum();
            let misses: u64 = result
                .metrics
                .supersteps
                .iter()
                .skip(1)
                .flat_map(|r| r.servers.iter())
                .map(|s| s.cache_misses)
                .sum();
            let hit_ratio = if hits + misses == 0 {
                1.0
            } else {
                hits as f64 / (hits + misses) as f64
            };
            writeln!(
                out,
                "{}\tmode-{}\t{}\t{:.4}\t{:.3}",
                servers,
                mode,
                codec.name(),
                result.avg_superstep_seconds(),
                hit_ratio,
            )
            .unwrap();
        }
    }
    out
}

/// Figure 8a/b/c/d: update ratio, dense-vs-sparse traffic, hybrid-mode traffic under
/// different compressors, and the resulting execution time, for PageRank with a
/// convergence tolerance on the UK-2007 stand-in (9 servers). *Dense* is an update
/// bitmap plus the updated values only, so its traffic follows 8a's ratio too.
pub fn fig8_communication(supersteps: u32) -> String {
    let g = experiment_graph(Dataset::Uk2007);
    let p = partition_for_experiments(&g, "uk-2007");
    let n = g.num_vertices() as f64;
    // A tolerance makes the updated-vertex ratio decay over time like Figure 8a.
    let program = PageRank::with_tolerance(supersteps, 1e-3 / n);

    let mut out = String::from(
        "# Figure 8a: vertex updated ratio per superstep (PageRank, UK-2007 stand-in)\n",
    );
    let baseline = run_graphh(&p, &program, 9);
    for (i, ratio) in baseline.updated_ratio_per_superstep.iter().enumerate() {
        writeln!(out, "superstep {i}\t{ratio:.4}").unwrap();
    }

    // 8b: dense vs sparse traffic; 8c/8d: hybrid mode with each compressor.
    out.push_str("\n# Figure 8b/8c/8d: total network traffic and avg superstep time per communication mode\n# dense = update bitmap + the updated values only, sparse = varint id gaps + the same values\n# (docs/WIRE.md §11): a dense message shrinks with the update ratio of 8a instead of costing\n# 8 bytes per vertex of the range every superstep, so `dense raw` is no longer flat over time.\nmode\tcompressor\ttotal network bytes\tavg superstep seconds\n");
    let modes: [(&str, CommunicationMode); 3] = [
        ("dense", CommunicationMode::Dense),
        ("sparse", CommunicationMode::Sparse),
        ("hybrid", CommunicationMode::default()),
    ];
    let compressors: [(&str, Option<Codec>); 4] = [
        ("raw", None),
        ("snappy", Some(Codec::Snappy)),
        ("zlib-1", Some(Codec::Zlib1)),
        ("zlib-3", Some(Codec::Zlib3)),
    ];
    for (mode_name, mode) in modes {
        for (comp_name, comp) in compressors {
            // Dense and sparse are only reported uncompressed (8b); hybrid is swept
            // over all compressors (8c/8d), matching the paper's panels.
            if mode_name != "hybrid" && comp_name != "raw" {
                continue;
            }
            let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(9));
            cfg.communication = mode;
            cfg.message_compressor = comp;
            let result = GraphHEngine::new(cfg).run(&p, &program).expect("run");
            writeln!(
                out,
                "{}\t{}\t{}\t{:.4}",
                mode_name,
                comp_name,
                result.metrics.total_network_bytes(),
                result.avg_superstep_seconds(),
            )
            .unwrap();
        }
    }
    out
}

/// Figure 9: average PageRank superstep time for every dataset × cluster size ×
/// system combination.
pub fn fig9_pagerank(supersteps: u32) -> String {
    let mut out = String::from(
        "# Figure 9: avg PageRank superstep time (simulated seconds)\ndataset\tservers\tGraphH\tPregel+\tPowerGraph\tPowerLyra\tGraphD\tChaos\n",
    );
    for d in Dataset::ALL {
        let g = experiment_graph(d);
        let p = partition_for_experiments(&g, d.name());
        for servers in [1u32, 3, 6, 9] {
            let runs = run_all_systems(&g, &p, servers, &PageRank::new(supersteps));
            writeln!(
                out,
                "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
                d.name(),
                servers,
                runs[0].avg_seconds,
                runs[1].avg_seconds,
                runs[2].avg_seconds,
                runs[3].avg_seconds,
                runs[4].avg_seconds,
                runs[5].avg_seconds,
            )
            .unwrap();
        }
    }
    out
}

/// Figure 10: average SSSP superstep time for every dataset × cluster size × system.
pub fn fig10_sssp() -> String {
    let mut out = String::from(
        "# Figure 10: avg SSSP superstep time (simulated seconds)\ndataset\tservers\tGraphH\tPregel+\tPowerGraph\tPowerLyra\tGraphD\tChaos\n",
    );
    for d in Dataset::ALL {
        let g = experiment_graph(d);
        let p = partition_for_experiments(&g, d.name());
        for servers in [1u32, 3, 6, 9] {
            let runs = run_all_systems(&g, &p, servers, &Sssp::new(best_source(&g)));
            writeln!(
                out,
                "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
                d.name(),
                servers,
                runs[0].avg_seconds,
                runs[1].avg_seconds,
                runs[2].avg_seconds,
                runs[3].avg_seconds,
                runs[4].avg_seconds,
                runs[5].avg_seconds,
            )
            .unwrap();
        }
    }
    out
}

/// Ablations beyond the paper's figures: tile skipping, All-in-All vs
/// On-Demand policy crossover, and the tile-size sweep of §III-B.3.
pub fn ablations() -> String {
    let mut out = String::from("# Ablations\n");

    // Tile skipping on/off for SSSP (frontier algorithm → most tiles skippable).
    let g = experiment_graph(Dataset::Twitter2010);
    let p = partition_for_experiments(&g, "twitter-2010");
    let source = best_source(&g);
    let with = run_graphh(&p, &Sssp::new(source), 9);
    let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(9));
    cfg.use_bloom_filter = false;
    let without = GraphHEngine::new(cfg)
        .run(&p, &Sssp::new(source))
        .expect("run");
    writeln!(
        out,
        "tile-skipping (SSSP, Twitter stand-in, 9 servers): with={:.4}s/superstep without={:.4}s/superstep",
        with.avg_superstep_seconds(),
        without.avg_superstep_seconds()
    )
    .unwrap();

    // AA vs OD crossover for each dataset (paper scale).
    for d in Dataset::ALL {
        let model = MemoryModel::new(&d.paper_stats(), VertexSizes::pagerank());
        let crossover = model.od_crossover(128);
        writeln!(
            out,
            "replication crossover ({}): OD beats AA from {} servers",
            d.name(),
            crossover.map_or("never (<=128)".to_string(), |c| c.to_string())
        )
        .unwrap();
        let _ = ReplicationPolicy::AllInAll; // referenced for doc purposes
    }

    // Tile size sweep: partition with different average tile sizes and report balance.
    let g = experiment_graph(Dataset::Uk2007);
    for tiles in [4u32, 16, 64, 256] {
        let p = graphh_partition::Spe::partition(
            &g,
            &graphh_partition::SpeConfig::with_tile_count("uk-2007", &g, tiles),
        )
        .expect("partition");
        writeln!(
            out,
            "tile sweep (UK-2007 stand-in): requested {} tiles -> {} tiles, max tile {} edges, imbalance {:.2}",
            tiles,
            p.num_tiles(),
            p.max_tile_edges(),
            p.splitter.imbalance(&p.in_degrees)
        )
        .unwrap();
    }
    // Executor ablation: sequential reference loop vs the threaded runtime on
    // the same workload (results are bit-identical; only wall-clock differs).
    let g = experiment_graph(Dataset::Twitter2010);
    let p = partition_for_experiments(&g, "twitter-2010");
    for servers in [1u32, 4] {
        let seq = crate::run_graphh_with(
            &p,
            &graphh_core::PageRank::new(5),
            servers,
            std::sync::Arc::new(graphh_core::SequentialExecutor::new()),
        );
        let thr = crate::run_graphh_with(
            &p,
            &graphh_core::PageRank::new(5),
            servers,
            std::sync::Arc::new(graphh_runtime::ThreadedExecutor::new()),
        );
        writeln!(
            out,
            "executor (PageRank, Twitter stand-in, {servers} servers): sequential={:.4}s threaded={:.4}s wall-clock speedup={:.2}x",
            seq.wall_clock_seconds,
            thr.wall_clock_seconds,
            seq.wall_clock_seconds / thr.wall_clock_seconds.max(1e-12)
        )
        .unwrap();
    }
    // Intra-server parallelism sweep: the paper's T compute threads inside
    // each server, against the T=1 reference on the same 2-server cluster.
    let base = crate::run_graphh_config(
        &p,
        &graphh_core::PageRank::new(5),
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(2)).with_threads_per_server(1),
        std::sync::Arc::new(graphh_runtime::ThreadedExecutor::new()),
    );
    for threads in [2u32, 4, 8] {
        let run = crate::run_graphh_config(
            &p,
            &graphh_core::PageRank::new(5),
            GraphHConfig::paper_default(ClusterConfig::paper_testbed(2))
                .with_threads_per_server(threads),
            std::sync::Arc::new(graphh_runtime::ThreadedExecutor::new()),
        );
        let identical = base
            .values
            .iter()
            .zip(&run.values)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        writeln!(
            out,
            "threads-per-server (PageRank, Twitter stand-in, 2 servers): T={threads} wall-clock={:.4}s speedup-vs-T1={:.2}x bit-identical={identical}",
            run.wall_clock_seconds,
            base.wall_clock_seconds / run.wall_clock_seconds.max(1e-12)
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_tables_render() {
        let t1 = table1_datasets();
        assert!(t1.contains("Twitter-2010") && t1.contains("EU-2015"));
        let t3 = table3_cost_comparison(Dataset::Uk2007);
        assert!(t3.contains("GraphH") && t3.contains("Chaos"));
        let t4 = table4_input_sizes();
        assert!(t4.lines().count() >= 6);
        let f1a = fig1a_memory_requirements();
        assert!(f1a.contains("Pregel+"));
        let f6a = fig6a_replication_policies();
        assert!(f6a.contains("UK-2014"));
    }

    #[test]
    fn fig9_row_shape_single_config() {
        // A single small configuration exercises the full multi-system path cheaply.
        let g = experiment_graph(Dataset::Twitter2010);
        let p = partition_for_experiments(&g, "twitter-2010");
        let runs = run_all_systems(&g, &p, 3, &PageRank::new(3));
        assert_eq!(runs.len(), 6);
        // The headline claim: GraphH beats the out-of-core systems by a wide margin
        // and is competitive with (or beats) the in-memory systems.
        let graphh = runs[0].avg_seconds;
        let graphd = runs[4].avg_seconds;
        let chaos = runs[5].avg_seconds;
        assert!(
            graphd > graphh,
            "GraphD {graphd} should be slower than GraphH {graphh}"
        );
        assert!(
            chaos > graphh,
            "Chaos {chaos} should be slower than GraphH {graphh}"
        );
    }
}
