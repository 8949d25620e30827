//! One function per table / figure of the paper's evaluation section.
//!
//! Every function returns a formatted text block (tab-separated rows) so the
//! `report` binary can print it and EXPERIMENTS.md can record it. Engine-driven
//! experiments run on the scaled-down dataset stand-ins (see `workloads`); the
//! analytic tables (Table III/IV, Figure 6a) are additionally evaluated at paper
//! scale, since they only need |V| and |E|.

use crate::workloads::{
    experiment_graph, experiment_spec, partition_for_experiments, run_graphh, EXPERIMENT_SEED,
};
use graphh_baselines::program::{PageRankMsg, SsspMsg};
use graphh_baselines::{
    ChaosConfig, ChaosEngine, CostSheet, GasConfig, GasEngine, PregelConfig, PregelEngine,
    SystemKind,
};
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

fn run_all_systems_pagerank(
    graph: &graphh_graph::Graph,
    partitioned: &PartitionedGraph,
    servers: u32,
    supersteps: u32,
) -> Vec<SystemRun> {
    let cluster = ClusterConfig::paper_testbed(servers);
    let graphh = run_graphh(partitioned, &PageRank::new(supersteps), servers);
    let pregel = PregelEngine::new(PregelConfig::pregel_plus(cluster))
        .run(graph, &PageRankMsg::new(supersteps));
    let powergraph =
        GasEngine::new(GasConfig::powergraph(cluster)).run(graph, &PageRankMsg::new(supersteps));
    let powerlyra =
        GasEngine::new(GasConfig::powerlyra(cluster)).run(graph, &PageRankMsg::new(supersteps));
    let graphd =
        PregelEngine::new(PregelConfig::graphd(cluster)).run(graph, &PageRankMsg::new(supersteps));
    let chaos =
        ChaosEngine::new(ChaosConfig::new(cluster)).run(graph, &PageRankMsg::new(supersteps));
    vec![
        SystemRun {
            name: "GraphH",
            avg_seconds: graphh.avg_superstep_seconds(),
        },
        SystemRun {
            name: "Pregel+",
            avg_seconds: pregel.avg_superstep_seconds(),
        },
        SystemRun {
            name: "PowerGraph",
            avg_seconds: powergraph.avg_superstep_seconds(),
        },
        SystemRun {
            name: "PowerLyra",
            avg_seconds: powerlyra.avg_superstep_seconds(),
        },
        SystemRun {
            name: "GraphD",
            avg_seconds: graphd.avg_superstep_seconds(),
        },
        SystemRun {
            name: "Chaos",
            avg_seconds: chaos.avg_superstep_seconds(),
        },
    ]
}

fn run_all_systems_sssp(
    graph: &graphh_graph::Graph,
    partitioned: &PartitionedGraph,
    servers: u32,
) -> Vec<SystemRun> {
    let cluster = ClusterConfig::paper_testbed(servers);
    let source = best_source(graph);
    let graphh = run_graphh(partitioned, &Sssp::new(source), servers);
    let pregel =
        PregelEngine::new(PregelConfig::pregel_plus(cluster)).run(graph, &SsspMsg::new(source));
    let powergraph =
        GasEngine::new(GasConfig::powergraph(cluster)).run(graph, &SsspMsg::new(source));
    let powerlyra = GasEngine::new(GasConfig::powerlyra(cluster)).run(graph, &SsspMsg::new(source));
    let graphd = PregelEngine::new(PregelConfig::graphd(cluster)).run(graph, &SsspMsg::new(source));
    let chaos = ChaosEngine::new(ChaosConfig::new(cluster)).run(graph, &SsspMsg::new(source));
    vec![
        SystemRun {
            name: "GraphH",
            avg_seconds: graphh.avg_superstep_seconds(),
        },
        SystemRun {
            name: "Pregel+",
            avg_seconds: pregel.avg_superstep_seconds(),
        },
        SystemRun {
            name: "PowerGraph",
            avg_seconds: powergraph.avg_superstep_seconds(),
        },
        SystemRun {
            name: "PowerLyra",
            avg_seconds: powerlyra.avg_superstep_seconds(),
        },
        SystemRun {
            name: "GraphD",
            avg_seconds: graphd.avg_superstep_seconds(),
        },
        SystemRun {
            name: "Chaos",
            avg_seconds: chaos.avg_superstep_seconds(),
        },
    ]
}

/// Figure 1b: per-superstep PageRank time on UK-2007 with 9 servers, per system
/// (simulated seconds on the stand-in graph).
pub fn fig1b_execution_time() -> String {
    let g = experiment_graph(Dataset::Uk2007);
    let p = partition_for_experiments(&g, "uk-2007");
    let runs = run_all_systems_pagerank(&g, &p, 9, PAGERANK_SUPERSTEPS);
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
            let measured = result
                .per_server_peak_memory
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
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
/// convergence tolerance on the UK-2007 stand-in (9 servers).
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
    out.push_str("\n# Figure 8b/8c/8d: total network traffic and avg superstep time per communication mode\nmode\tcompressor\ttotal network bytes\tavg superstep seconds\n");
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
            let runs = run_all_systems_pagerank(&g, &p, servers, supersteps);
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
            let runs = run_all_systems_sssp(&g, &p, servers);
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

/// Ablations beyond the paper's figures: Bloom-filter tile skipping, All-in-All vs
/// On-Demand policy crossover, and the tile-size sweep of §III-B.3.
pub fn ablations() -> String {
    let mut out = String::from("# Ablations\n");

    // Bloom filter on/off for SSSP (frontier algorithm → most tiles skippable).
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
        "bloom-filter (SSSP, Twitter stand-in, 9 servers): with={:.4}s/superstep without={:.4}s/superstep",
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
    let _ = EXPERIMENT_SEED;
    let _ = experiment_spec(Dataset::Twitter2010);
    out
}

/// Runtime shoot-out: sequential vs threaded executor wall-clock on RMAT
/// scale-10 PageRank, per cluster size. Results are bit-identical by
/// construction (enforced here, differentially tested in `tests/`); the point
/// of this table is the real-time speedup trajectory, which [`runtime_json`]
/// records machine-readably as `BENCH_runtime.json`.
///
/// Measures once; callers wanting both the table and the JSON should call
/// [`runtime_rows`] / [`pool_spawn_microbench`] once and render with
/// [`runtime_report`] / [`runtime_json`] (the report binary does) so both
/// outputs describe the same measurement.
pub fn runtime_executors() -> String {
    runtime_report(
        &runtime_rows(),
        &kernel_sweep(),
        &pool_spawn_microbench(),
        &codec_microbench(),
        &phase_breakdown(),
        &out_of_core_row(),
    )
}

/// The host's core count as `available_parallelism` reports it (0 when the
/// host will not say). Recorded next to every runtime measurement: a ≤1×
/// speedup is self-explanatory when the sweep shows `servers ×
/// threads_per_server` exceeding this number.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(0)
}

/// Render the executor-comparison table from measured rows.
pub fn runtime_report(
    rows: &[RuntimeRow],
    sweep: &[KernelSweepRow],
    pool: &PoolBench,
    codec: &CodecBench,
    phase: &PhaseBreakdown,
    ooc: &OutOfCoreRow,
) -> String {
    let mut out = format!(
        "# Runtime: sequential vs threaded executor (RMAT scale-10, PageRank)\n\
         (wall_s columns are measured host wall-clock; simulated_s is the \
         cost model's predicted cluster time, identical for both executors)\n\
         host cores (available_parallelism): {}\n\
         servers\tthreads/server\tsequential_wall_s\tthreaded_wall_s\tsimulated_s\tspeedup\tidentical\n",
        host_cores()
    );
    for row in rows {
        writeln!(
            out,
            "{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.2}x\t{}",
            row.servers,
            row.threads_per_server,
            row.sequential_wall_seconds,
            row.threaded_wall_seconds,
            row.simulated_seconds,
            row.speedup(),
            row.identical
        )
        .unwrap();
    }
    out.push_str(
        "(speedup needs real cores: on a single-core host the fork-join and \
         lockstep overhead make it <=1x; the threaded executor runs p server \
         threads x T tile threads)\n",
    );
    out.push_str(
        "# Kernel sweep: every registry program x direction mode (3 servers; \
         identical = bit-equal to the pull-forced sequential reference)\n\
         program\tmode\tsequential_wall_s\tthreaded_wall_s\tsupersteps\tidentical\n",
    );
    for row in sweep {
        writeln!(
            out,
            "{}\t{}\t{:.6}\t{:.6}\t{}\t{}",
            row.program,
            row.mode,
            row.sequential_wall_seconds,
            row.threaded_wall_seconds,
            row.supersteps_run,
            row.identical
        )
        .unwrap();
    }
    writeln!(
        out,
        "pool microbench ({} phases x {} items, {} threads): \
         spawn-per-phase={:.6}s persistent-pool={:.6}s speedup={:.2}x",
        pool.phases,
        pool.items,
        pool.threads,
        pool.spawning_seconds,
        pool.persistent_seconds,
        pool.speedup()
    )
    .unwrap();
    for row in &codec.rows {
        writeln!(
            out,
            "codec microbench ({}, {} updates / {} range, {} B wire): \
             encode={:.0} MB/s encode_into={:.0} MB/s ({:.2}x) decode={:.0} MB/s \
             decode_each={:.0} MB/s ({:.2}x)",
            row.encoding,
            row.updates,
            codec.range,
            row.wire_bytes,
            row.encode_mb_s,
            row.encode_into_mb_s,
            row.encode_into_mb_s / row.encode_mb_s.max(1e-12),
            row.decode_mb_s,
            row.decode_each_mb_s,
            row.decode_each_mb_s / row.decode_mb_s.max(1e-12),
        )
        .unwrap();
    }
    for row in &codec.compressed {
        writeln!(
            out,
            "compressed codec microbench ({}, {} B plain -> {} B wire): \
             encode={:.0} MB/s encode_into+scratch={:.0} MB/s ({:.2}x) identical={}",
            row.compressor,
            row.plain_bytes,
            row.wire_bytes,
            row.encode_mb_s,
            row.encode_into_mb_s,
            row.speedup(),
            row.identical,
        )
        .unwrap();
    }
    for row in &codec.bulk {
        write!(
            out,
            "bulk codec microbench ({}, {}, {} B -> {} B): compress={:.0} MB/s \
             decompress={:.0} MB/s identical={}",
            row.compressor,
            row.input,
            row.plain_bytes,
            row.packed_bytes,
            row.compress_mb_s,
            row.decompress_mb_s,
            row.identical,
        )
        .unwrap();
        if let Some((compress, decompress)) = row.before {
            write!(
                out,
                " (PR 14 engine: {compress:.0} / {decompress:.0} MB/s, now {:.2}x / {:.2}x)",
                row.compress_mb_s / compress,
                row.decompress_mb_s / decompress
            )
            .unwrap();
        }
        out.push('\n');
    }
    writeln!(
        out,
        "phase breakdown (one traced threaded run, {} servers x {} \
         threads/server, {} supersteps; wall-clock summed across all lanes):",
        phase.servers, phase.threads_per_server, phase.supersteps
    )
    .unwrap();
    for t in &phase.phases {
        writeln!(
            out,
            "  {}/{}\t{:.6}s\t{} spans",
            t.cat, t.name, t.total_seconds, t.spans
        )
        .unwrap();
    }
    writeln!(
        out,
        "out of core (PageRank, cache = 1/4 of a server's tiles, {} servers x {} \
         threads/server, {} supersteps, {}): {} tiles, {} resident; hits={} misses={} \
         storage read_ops={} tiles compressed={} threaded_wall_s={:.6} identical={}",
        ooc.servers,
        ooc.threads_per_server,
        ooc.supersteps,
        ooc.codec,
        ooc.tiles,
        ooc.resident_tiles,
        ooc.cache_hits,
        ooc.cache_misses,
        ooc.read_ops,
        ooc.tiles_compressed,
        ooc.threaded_wall_seconds,
        ooc.identical,
    )
    .unwrap();
    out
}

/// Measured throughput of the broadcast message codec: the allocating
/// `encode`/`decode` path versus the pooled-buffer `encode_into`/`decode_each`
/// hot path this repo's superstep loop actually runs, on a dense message
/// (most of the range updated) and a sparse-frontier one (few updates, so the
/// dense decode's zero-byte bitmap skip and the sparse pair walk both show).
pub struct CodecBench {
    /// Vertices in each message's target range.
    pub range: u32,
    /// Measured per-encoding rows.
    pub rows: Vec<CodecBenchRow>,
    /// Measured per-compressor rows over a small dense message (the repo's
    /// real per-tile broadcast regime): the allocating `MessageCodec::encode`
    /// versus `encode_into_with` reusing a persistent
    /// [`CompressorScratch`](graphh_compress::CompressorScratch) across calls.
    pub compressed: Vec<CompressedCodecBenchRow>,
    /// Measured per-compressor rows over payloads large enough that the
    /// compressor's loops, not its per-call setup, set the figure: one dense
    /// PageRank broadcast and one tile blob.
    pub bulk: Vec<BulkCodecBenchRow>,
}

/// One encoding's measured throughputs (MB/s of wire bytes, best of 3).
pub struct CodecBenchRow {
    /// "dense" or "sparse".
    pub encoding: &'static str,
    /// Updates carried per message.
    pub updates: usize,
    /// Encoded wire size in bytes.
    pub wire_bytes: u64,
    /// Allocating `BroadcastMessage::encode` path.
    pub encode_mb_s: f64,
    /// Buffer-reusing `BroadcastMessage::encode_into` path.
    pub encode_into_mb_s: f64,
    /// Allocating `BroadcastMessage::decode` path.
    pub decode_mb_s: f64,
    /// Streaming `BroadcastMessage::decode_each` visitor path.
    pub decode_each_mb_s: f64,
}

/// One compressor's measured encode throughputs (MB/s of *plain* payload
/// bytes pushed through encode + compress, best of 3 — both paths move the
/// same plain bytes, so the column ratio is the scratch-reuse speedup).
/// `Raw` is not a row: `None` and `Some(Raw)` both take the uncompressed
/// path, which [`CodecBenchRow`] already measures. The LZSS codecs
/// (snappy, zlib-*) are the ones with per-call match-finder tables to
/// amortize; `varint-delta` never had per-call compressor state, so its
/// two paths are expected near parity — its row exists for the
/// byte-identity gate, not the speedup.
pub struct CompressedCodecBenchRow {
    /// Compressor name (`snappy`, `zlib-1`, `zlib-3`, `varint-delta`).
    pub compressor: &'static str,
    /// Plain (pre-compression) encoded payload size in bytes.
    pub plain_bytes: u64,
    /// Compressed wire size in bytes.
    pub wire_bytes: u64,
    /// Allocating `MessageCodec::encode` path (fresh buffers + fresh
    /// compressor state every call).
    pub encode_mb_s: f64,
    /// `MessageCodec::encode_into_with` reusing buffers and one persistent
    /// compressor scratch across every call.
    pub encode_into_mb_s: f64,
    /// Both paths produced byte-identical wire bytes.
    pub identical: bool,
}

/// One compressor on one bulk payload: `Codec::compress_into_with` on a warm
/// scratch and `Codec::decompress_into` into a reused buffer, MB/s of *plain*
/// bytes, best of 3.
pub struct BulkCodecBenchRow {
    /// Compressor name (`snappy`, `zlib-1`, `zlib-3`, `varint-delta`).
    pub compressor: &'static str,
    /// `dense-message` (every vertex's PageRank after 20 supersteps, RMAT
    /// with edge factor 16) or `tile-blob` (the runtime workload's graph
    /// serialised as a single tile).
    pub input: &'static str,
    /// Plain payload size in bytes.
    pub plain_bytes: u64,
    /// Compressed size in bytes.
    pub packed_bytes: u64,
    /// Compression throughput.
    pub compress_mb_s: f64,
    /// Decompression throughput.
    pub decompress_mb_s: f64,
    /// `(compress, decompress)` MB/s of the PR 8–14 engine, where
    /// `BULK_BEFORE` has this row.
    pub before: Option<(f64, f64)>,
    /// The payload round-trips and the scratch path's bytes equal the
    /// allocating API's.
    pub identical: bool,
}

/// The `bulk` rows as the per-byte LZSS engine of PR 8–14 measured them —
/// same inputs, same host, same session as the committed
/// `BENCH_runtime.json` — kept beside the current figures as the "before" of
/// the engine rebuild: `(compressor, input, compress MB/s, decompress MB/s)`.
/// Rows exist for the full-size inputs only (RMAT scale 13 message).
const BULK_BEFORE: [(&str, &str, f64, f64); 6] = [
    ("snappy", "dense-message", 44.5, 182.4),
    ("snappy", "tile-blob", 30.2, 179.1),
    ("zlib-1", "dense-message", 47.1, 178.2),
    ("zlib-1", "tile-blob", 41.9, 177.5),
    ("zlib-3", "dense-message", 37.9, 181.1),
    ("zlib-3", "tile-blob", 20.5, 180.7),
];
/// RMAT scale of the full-size bulk message: 8192 vertices, 66.6 KB dense.
const BULK_MESSAGE_SCALE: u32 = 13;

impl CompressedCodecBenchRow {
    /// Scratch-reusing encode throughput over the allocating baseline.
    pub fn speedup(&self) -> f64 {
        self.encode_into_mb_s / self.encode_mb_s.max(1e-12)
    }
}

/// Measure [`CodecBench`]: 64 Ki-vertex range; dense = 90% updated, sparse =
/// 1% updated (the dense row is also decoded through the bitmap's zero-byte
/// skip). Throughput counts wire bytes moved per second, best of 3.
pub fn codec_microbench() -> CodecBench {
    codec_microbench_sized(64 * 1024, 100_000_000, BULK_MESSAGE_SCALE)
}

/// [`codec_microbench`] with an explicit range, per-measurement byte target
/// and RMAT scale of the bulk message's graph, so tests can validate the
/// measurement plumbing on a workload that finishes in milliseconds even
/// unoptimized.
pub fn codec_microbench_sized(range: u32, target_bytes: u64, bulk_scale: u32) -> CodecBench {
    use graphh_cluster::{BroadcastEncoding, BroadcastMessage, MessageCodec, ServerMetrics};
    use graphh_compress::CompressorScratch;
    use std::time::Instant;

    let best_of_3 = |run: &mut dyn FnMut() -> u64| -> f64 {
        let mut best = f64::INFINITY;
        let mut bytes = 0u64;
        for _ in 0..3 {
            let started = Instant::now();
            bytes = run();
            best = best.min(started.elapsed().as_secs_f64());
        }
        bytes as f64 / best.max(1e-12) / 1e6
    };

    let mut rows = Vec::new();
    for (encoding, name, step) in [
        (BroadcastEncoding::Dense, "dense", 10u32), // 90% updated
        (BroadcastEncoding::Sparse, "sparse", 100u32), // 1% updated
    ] {
        let updates: Vec<(u32, f64)> = match encoding {
            // Dense: everything except every `step`-th vertex updated.
            BroadcastEncoding::Dense => (0..range)
                .filter(|v| !v.is_multiple_of(step))
                .map(|v| (v, f64::from(v) * 0.5))
                .collect(),
            // Sparse: only every `step`-th vertex updated.
            BroadcastEncoding::Sparse => (0..range)
                .step_by(step as usize)
                .map(|v| (v, f64::from(v) * 0.5))
                .collect(),
        };
        let message = BroadcastMessage::new(0, range, updates);
        let wire_bytes = message.encoded_size(encoding);
        // Iteration counts sized so each measurement moves ~`target_bytes`.
        let iters = (target_bytes / wire_bytes).clamp(2, 4096);

        let encode_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            for _ in 0..iters {
                total += std::hint::black_box(message.encode(encoding)).len() as u64;
            }
            total
        });
        let mut out = Vec::new();
        let encode_into_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            for _ in 0..iters {
                message.encode_into(encoding, &mut out);
                total += std::hint::black_box(&out).len() as u64;
            }
            total
        });
        let wire = message.encode(encoding);
        let decode_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            for _ in 0..iters {
                let decoded = BroadcastMessage::decode(&wire).expect("valid wire");
                total += wire.len() as u64;
                std::hint::black_box(decoded.updates.len());
            }
            total
        });
        let decode_each_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            let mut sum = 0u64;
            for _ in 0..iters {
                BroadcastMessage::decode_each(&wire, |v, _| sum += u64::from(v))
                    .expect("valid wire");
                total += wire.len() as u64;
            }
            std::hint::black_box(sum);
            total
        });
        rows.push(CodecBenchRow {
            encoding: name,
            updates: message.updates.len(),
            wire_bytes,
            encode_mb_s,
            encode_into_mb_s,
            decode_mb_s,
            decode_each_mb_s,
        });
    }

    // The compressed encode paths: allocating `encode` — fresh buffers and
    // fresh compressor state per call, what the hot path did before lanes
    // parked a scratch — versus `encode_into_with` carrying one persistent
    // scratch across every call, what the worker's encode lanes run now.
    // Measured on a *small* dense message (128-vertex range, ~1 KB plain):
    // per-tile broadcast ranges in this repo's real workloads are tens to
    // hundreds of vertices, and small messages are exactly where per-call
    // match-finder table setup dominates the compression itself.
    const COMPRESSED_RANGE: u32 = 128;
    let dense_updates: Vec<(u32, f64)> = (0..COMPRESSED_RANGE)
        .filter(|v| !v.is_multiple_of(10))
        .map(|v| (v, f64::from(v) * 0.5))
        .collect();
    let message = BroadcastMessage::new(0, COMPRESSED_RANGE, dense_updates);
    let plain_bytes = message.encoded_size(BroadcastEncoding::Dense);
    let iters = (target_bytes / plain_bytes).clamp(2, 16384);
    let mut compressed = Vec::new();
    for codec in [
        Codec::Snappy,
        Codec::Zlib1,
        Codec::Zlib3,
        Codec::VarintDelta,
    ] {
        let mc = MessageCodec::new(CommunicationMode::default(), Some(codec));
        let encode_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            for _ in 0..iters {
                let (wire, _) = mc.encode(&message, &mut ServerMetrics::default());
                std::hint::black_box(wire.len());
                total += plain_bytes;
            }
            total
        });
        let mut scratch = Vec::new();
        let mut wire = Vec::new();
        let mut comp = CompressorScratch::new();
        let encode_into_mb_s = best_of_3(&mut || {
            let mut total = 0u64;
            for _ in 0..iters {
                mc.encode_into_with(
                    &message,
                    &mut ServerMetrics::default(),
                    &mut scratch,
                    &mut wire,
                    &mut comp,
                );
                std::hint::black_box(wire.len());
                total += plain_bytes;
            }
            total
        });
        let (alloc_wire, _) = mc.encode(&message, &mut ServerMetrics::default());
        mc.encode_into_with(
            &message,
            &mut ServerMetrics::default(),
            &mut scratch,
            &mut wire,
            &mut comp,
        );
        compressed.push(CompressedCodecBenchRow {
            compressor: codec.name(),
            plain_bytes,
            wire_bytes: wire.len() as u64,
            encode_mb_s,
            encode_into_mb_s,
            identical: alloc_wire == wire,
        });
    }

    // The bulk payloads: what the compressor sees from the two call sites on
    // the run path, at sizes where its loops dominate. A dense broadcast of
    // real PageRank values (many vertices share the teleport floor, the rest
    // are noise to an LZ), and a tile blob (sorted `u32` adjacency lists).
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    let ranked = RmatGenerator::new(bulk_scale, 16).generate(EXPERIMENT_SEED);
    let ranks = run_graphh(
        &partition_for_experiments(&ranked, "bulk-ranks"),
        &graphh_core::PageRank::new(20),
        1,
    )
    .values;
    let dense_message = BroadcastMessage::new(
        0,
        ranks.len() as u32,
        (0..).zip(ranks.iter().copied()).collect(),
    )
    .encode(BroadcastEncoding::Dense);
    let workload = RmatGenerator::new(10, 16).generate(EXPERIMENT_SEED);
    let one_tile = graphh_partition::Spe::partition(
        &workload,
        &graphh_partition::SpeConfig::with_tile_count("bulk-tile", &workload, 1),
    )
    .expect("partition");
    let tile_blob = one_tile.tiles[0].to_bytes();
    let before_rows: &[_] = if bulk_scale == BULK_MESSAGE_SCALE {
        &BULK_BEFORE
    } else {
        &[]
    };
    let mut bulk = Vec::new();
    for codec in [
        Codec::Snappy,
        Codec::Zlib1,
        Codec::Zlib3,
        Codec::VarintDelta,
    ] {
        for (input, plain) in [("dense-message", &dense_message), ("tile-blob", &tile_blob)] {
            let iters = (target_bytes / plain.len() as u64).clamp(2, 256);
            let mut scratch = CompressorScratch::new();
            let (mut packed, mut unpacked) = (Vec::new(), Vec::new());
            let compress_mb_s = best_of_3(&mut || {
                for _ in 0..iters {
                    codec.compress_into_with(plain, &mut packed, &mut scratch);
                    std::hint::black_box(packed.len());
                }
                iters * plain.len() as u64
            });
            let decompress_mb_s = best_of_3(&mut || {
                for _ in 0..iters {
                    codec
                        .decompress_into(&packed, &mut unpacked)
                        .expect("own bytes");
                    std::hint::black_box(unpacked.len());
                }
                iters * plain.len() as u64
            });
            bulk.push(BulkCodecBenchRow {
                compressor: codec.name(),
                input,
                plain_bytes: plain.len() as u64,
                packed_bytes: packed.len() as u64,
                compress_mb_s,
                decompress_mb_s,
                before: before_rows
                    .iter()
                    .find(|row| (row.0, row.1) == (codec.name(), input))
                    .map(|row| (row.2, row.3)),
                identical: unpacked == *plain && packed == codec.compress(plain),
            });
        }
    }
    CodecBench {
        range,
        rows,
        compressed,
        bulk,
    }
}

/// Measured cost of many *short* fork-join phases (the shape of a superstep
/// tile phase on a small graph): freshly spawned scoped threads per phase vs
/// the persistent [`graphh_pool::WorkerPool`] the engine now uses.
pub struct PoolBench {
    /// Fork-join phases per measurement.
    pub phases: usize,
    /// Items per phase (tiles of a short superstep).
    pub items: usize,
    /// Cooperating threads.
    pub threads: usize,
    /// Best-of-3 seconds for spawn-per-phase `fork_join_ordered`.
    pub spawning_seconds: f64,
    /// Best-of-3 seconds for the persistent pool (created once, outside the
    /// measured loop — exactly how `ServerState` holds it).
    pub persistent_seconds: f64,
}

impl PoolBench {
    /// How much faster the persistent pool runs the same phases.
    pub fn speedup(&self) -> f64 {
        self.spawning_seconds / self.persistent_seconds.max(1e-12)
    }
}

/// Measure [`PoolBench`]: 256 phases of 32 tiny items each, best of 3.
pub fn pool_spawn_microbench() -> PoolBench {
    use std::time::Instant;
    const PHASES: usize = 256;
    const ITEMS: usize = 32;

    // A few hundred nanoseconds of mixing per item — the regime where spawn
    // overhead dominates honest work, i.e. short supersteps.
    let work = |i: usize| {
        let mut acc = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for _ in 0..64 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        acc
    };
    let best_of_3 = |mut run: Box<dyn FnMut()>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            run();
            best = best.min(started.elapsed().as_secs_f64());
        }
        best
    };

    let pool = graphh_pool::WorkerPool::with_host_parallelism();
    let threads = pool.threads();
    let spawning_seconds = best_of_3(Box::new(move || {
        for _ in 0..PHASES {
            std::hint::black_box(graphh_pool::fork_join_ordered(threads, ITEMS, work));
        }
    }));
    let persistent_seconds = best_of_3(Box::new(move || {
        for _ in 0..PHASES {
            std::hint::black_box(pool.fork_join_ordered(ITEMS, work));
        }
    }));
    PoolBench {
        phases: PHASES,
        items: ITEMS,
        threads,
        spawning_seconds,
        persistent_seconds,
    }
}

/// One measured executor-comparison configuration.
///
/// Wall-clock and simulated time are distinct quantities and are labelled
/// distinctly everywhere they are reported: `*_wall_seconds` is measured host
/// time (hardware- and load-dependent), while [`simulated_seconds`] is the
/// paper cost model's predicted cluster time, which is a deterministic
/// function of the workload and identical for both executors by construction.
///
/// [`simulated_seconds`]: RuntimeRow::simulated_seconds
pub struct RuntimeRow {
    /// Cluster size (the paper's `p` servers).
    pub servers: u32,
    /// Tile-phase compute threads per server (the paper's `T`).
    pub threads_per_server: u32,
    /// Best-of-3 measured wall-clock seconds, sequential reference executor.
    pub sequential_wall_seconds: f64,
    /// Best-of-3 measured wall-clock seconds, threaded runtime.
    pub threaded_wall_seconds: f64,
    /// Cost-model simulated cluster seconds for the whole run (executor-
    /// independent; taken from the sequential run and asserted equal to the
    /// threaded run's).
    pub simulated_seconds: f64,
    /// Whether the two executors produced bit-identical values.
    pub identical: bool,
}

impl RuntimeRow {
    /// Wall-clock speedup of threaded over sequential.
    pub fn speedup(&self) -> f64 {
        self.sequential_wall_seconds / self.threaded_wall_seconds.max(1e-12)
    }
}

/// Whether two runs' vertex values agree bit for bit (the `identical` columns).
fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Measure the executor comparison: RMAT scale-10 (edge factor 16) PageRank,
/// 20 supersteps, best-of-3 per executor per (cluster size × threads-per-
/// server) configuration — the second axis is the paper's `T` intra-server
/// compute threads.
pub fn runtime_rows() -> Vec<RuntimeRow> {
    use graphh_core::SequentialExecutor;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_runtime::ThreadedExecutor;
    use std::sync::Arc;

    let g = RmatGenerator::new(10, 16).generate(EXPERIMENT_SEED);
    let p = graphh_partition::Spe::partition(
        &g,
        &graphh_partition::SpeConfig::with_tile_count("rmat-10", &g, 16),
    )
    .expect("partition");
    let program = graphh_core::PageRank::new(20);

    let best_of_3 = |servers: u32, threads: u32, executor: Arc<dyn graphh_core::Executor>| {
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(servers))
            .with_threads_per_server(threads);
        let mut best: Option<graphh_core::RunResult> = None;
        for _ in 0..3 {
            let run = crate::run_graphh_config(&p, &program, config.clone(), Arc::clone(&executor));
            if best
                .as_ref()
                .is_none_or(|b| run.wall_clock_seconds < b.wall_clock_seconds)
            {
                best = Some(run);
            }
        }
        best.expect("three runs happened")
    };

    let mut rows = Vec::new();
    for servers in [1u32, 2, 4] {
        for threads in [1u32, 2, 4] {
            let seq = best_of_3(servers, threads, Arc::new(SequentialExecutor::new()));
            let thr = best_of_3(servers, threads, Arc::new(ThreadedExecutor::new()));
            let identical = bit_identical(&seq.values, &thr.values);
            debug_assert!(
                (seq.metrics.total_seconds() - thr.metrics.total_seconds()).abs() < 1e-9,
                "simulated time is a deterministic function of the workload"
            );
            rows.push(RuntimeRow {
                servers,
                threads_per_server: threads,
                sequential_wall_seconds: seq.wall_clock_seconds,
                threaded_wall_seconds: thr.wall_clock_seconds,
                simulated_seconds: seq.metrics.total_seconds(),
                identical,
            });
        }
    }
    rows
}

/// One measured (registry program × direction mode) configuration of the
/// kernel sweep — the per-kernel axis of `BENCH_runtime.json`.
///
/// `identical` is the gate CI's perf smoke enforces: this row's sequential
/// *and* threaded runs must both be bit-identical to the pull-forced
/// sequential reference of the same program, so the direction machinery
/// (push path, auto switching) can never silently change results.
pub struct KernelSweepRow {
    /// Registry name of the program (`pagerank`, `bfs-dopt`, ...).
    pub program: &'static str,
    /// Direction mode of this row: `"pull"` (forced) or `"auto"`.
    pub mode: &'static str,
    /// Best wall-clock seconds, sequential reference executor.
    pub sequential_wall_seconds: f64,
    /// Best wall-clock seconds, threaded runtime.
    pub threaded_wall_seconds: f64,
    /// Supersteps the sequential run executed (convergence point).
    pub supersteps_run: u32,
    /// Both executors bit-identical to the pull-forced sequential reference.
    pub identical: bool,
}

/// Measure the kernel sweep: every registry program × {pull-forced, auto}
/// direction mode, sequential and threaded wall-clock on a 3-server cluster,
/// each run bit-compared against the program's pull-forced sequential
/// reference. Pull-only programs resolve `auto` to pull, so their two rows
/// double as a same-input stability check.
pub fn kernel_sweep() -> Vec<KernelSweepRow> {
    use graphh_core::registry::{ProgramContext, ProgramOptions, PROGRAMS};
    use graphh_core::{DirectionMode, SequentialExecutor};
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_graph::GraphBuilder;
    use graphh_runtime::ThreadedExecutor;
    use std::sync::Arc;

    const SERVERS: u32 = 3;
    let dir = RmatGenerator::new(9, 8).generate(EXPERIMENT_SEED);
    let pdir = graphh_partition::Spe::partition(
        &dir,
        &graphh_partition::SpeConfig::with_tile_count("sweep", &dir, 12),
    )
    .expect("partition");
    let base = RmatGenerator::new(8, 6)
        .simplified()
        .generate(EXPERIMENT_SEED);
    let mut b = GraphBuilder::new()
        .with_num_vertices(base.num_vertices())
        .symmetric(true);
    for e in base.edges().iter() {
        b.add_edge(e);
    }
    let sym = b.build().expect("symmetric sweep graph");
    let psym = graphh_partition::Spe::partition(
        &sym,
        &graphh_partition::SpeConfig::with_tile_count("sweep-sym", &sym, 12),
    )
    .expect("partition");

    let mut rows = Vec::new();
    for spec in PROGRAMS {
        let (graph, part) = if spec.symmetrize_input {
            (&sym, &psym)
        } else {
            (&dir, &pdir)
        };
        let mut opts = ProgramOptions::new();
        if spec.accepts("supersteps") {
            opts.set("supersteps", "10");
        }
        let program = spec
            .build(&ProgramContext::new(graph.out_degrees()), &opts)
            .expect("registry build");
        let reference = crate::run_graphh_config(
            part,
            program.as_ref(),
            GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
                .with_direction_mode(DirectionMode::ForcePull),
            Arc::new(SequentialExecutor::new()),
        );
        for (mode_name, mode) in [
            ("pull", DirectionMode::ForcePull),
            ("auto", DirectionMode::Auto),
        ] {
            let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
                .with_direction_mode(mode);
            let seq = crate::run_graphh_config(
                part,
                program.as_ref(),
                config.clone(),
                Arc::new(SequentialExecutor::new()),
            );
            let thr = crate::run_graphh_config(
                part,
                program.as_ref(),
                config,
                Arc::new(ThreadedExecutor::new()),
            );
            let identical = [&seq, &thr]
                .iter()
                .all(|run| bit_identical(&run.values, &reference.values));
            rows.push(KernelSweepRow {
                program: spec.name,
                mode: mode_name,
                sequential_wall_seconds: seq.wall_clock_seconds,
                threaded_wall_seconds: thr.wall_clock_seconds,
                supersteps_run: seq.supersteps_run,
                identical,
            });
        }
    }
    rows
}

/// Per-phase wall-clock breakdown of one traced [`ThreadedExecutor`] run —
/// the observability layer's span stream aggregated by phase name. This is
/// the per-phase wall-clock axis of `BENCH_runtime.json`: it says *where* the
/// threaded executor's wall-clock goes (compute vs encode vs plane flush vs
/// waiting on peers in collect), which the single `threaded_wall_s` number
/// cannot.
///
/// [`ThreadedExecutor`]: graphh_runtime::ThreadedExecutor
pub struct PhaseBreakdown {
    /// Cluster size of the traced run.
    pub servers: u32,
    /// Compute threads per server of the traced run.
    pub threads_per_server: u32,
    /// Supersteps the traced run executed.
    pub supersteps: u32,
    /// Per-span-name totals, largest wall-clock share first.
    pub phases: Vec<PhaseTotal>,
}

/// Aggregated wall-clock total for one span name across every lane.
pub struct PhaseTotal {
    /// Span category (`"load"`, `"superstep"`, `"pool"`).
    pub cat: &'static str,
    /// Span name (e.g. `"tile-compute"`, `"collect-decode"`).
    pub name: &'static str,
    /// How many spans were recorded under this name.
    pub spans: u64,
    /// Summed span duration in seconds (lanes run concurrently, so totals
    /// can exceed the run's wall-clock — they are per-lane time, not elapsed
    /// time).
    pub total_seconds: f64,
}

/// Sum span durations by `(category, name)`, largest total first (name as the
/// deterministic tiebreak).
pub fn aggregate_phases(spans: &[graphh_obs::SpanEvent]) -> Vec<PhaseTotal> {
    let mut totals: Vec<PhaseTotal> = Vec::new();
    for s in spans {
        let secs = s.dur_us as f64 / 1e6;
        match totals
            .iter_mut()
            .find(|t| t.cat == s.cat && t.name == s.name)
        {
            Some(t) => {
                t.spans += 1;
                t.total_seconds += secs;
            }
            None => totals.push(PhaseTotal {
                cat: s.cat,
                name: s.name,
                spans: 1,
                total_seconds: secs,
            }),
        }
    }
    totals.sort_by(|a, b| {
        b.total_seconds
            .total_cmp(&a.total_seconds)
            .then(a.name.cmp(b.name))
    });
    totals
}

/// Measure the per-phase wall-clock breakdown: one traced threaded run of the
/// same RMAT scale-10 PageRank workload the executor sweep times, at the
/// sweep's largest cluster size.
pub fn phase_breakdown() -> PhaseBreakdown {
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_obs::{TraceConfig, Tracer};
    use graphh_runtime::ThreadedExecutor;
    use std::sync::Arc;

    const SERVERS: u32 = 4;
    const THREADS: u32 = 2;
    let g = RmatGenerator::new(10, 16).generate(EXPERIMENT_SEED);
    let p = graphh_partition::Spe::partition(
        &g,
        &graphh_partition::SpeConfig::with_tile_count("rmat-10", &g, 16),
    )
    .expect("partition");
    let program = graphh_core::PageRank::new(20);
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
        .with_threads_per_server(THREADS);

    let tracer = Tracer::new();
    let executor = Arc::new(ThreadedExecutor::with_trace(TraceConfig {
        tracer: tracer.clone(),
    }));
    let run = crate::run_graphh_config(&p, &program, config, executor);
    PhaseBreakdown {
        servers: SERVERS,
        threads_per_server: THREADS,
        supersteps: run.supersteps_run,
        phases: aggregate_phases(&tracer.drain()),
    }
}

/// The out-of-core axis of `BENCH_runtime.json`: PageRank under an edge cache
/// a quarter the size of a server's tiles, counted rather than timed.
///
/// The counts are what CI's perf smoke gates: every cache miss must be
/// exactly one storage read (`read_ops == cache_misses`), and a tile is
/// compressed only to be kept — `tiles_compressed` stays at `resident_tiles`
/// plus the one refusal per server that filled its cache.
pub struct OutOfCoreRow {
    /// Cluster size of the run.
    pub servers: u32,
    /// Compute threads per server of the run.
    pub threads_per_server: u32,
    /// Supersteps executed.
    pub supersteps: u32,
    /// Codec `CacheMode::Auto` selected for the constrained cache.
    pub codec: &'static str,
    /// Tiles in the partition (each is fetched once per superstep).
    pub tiles: u32,
    /// Tiles resident across the servers' caches at run end.
    pub resident_tiles: u64,
    /// Cache hits over the run.
    pub cache_hits: u64,
    /// Cache misses over the run.
    pub cache_misses: u64,
    /// `get`s the servers' storage backends actually served (`IoMeter`).
    pub read_ops: u64,
    /// Admissions that reached the compressor: kept tiles plus refusals.
    pub tiles_compressed: u64,
    /// Measured wall-clock seconds of the threaded run.
    pub threaded_wall_seconds: f64,
    /// Threaded values bit-identical to the sequential executor's.
    pub identical: bool,
}

/// Measure [`OutOfCoreRow`]: the executor sweep's RMAT scale-10 graph,
/// PageRank x 3 supersteps, 2 servers x 2 threads, `cache_capacity` = a
/// quarter of the fuller server's tile bytes, `CacheMode::Auto`. Storage and
/// cache counts are the deltas of the global `storage.s*` / `cache.s*`
/// counters around the threaded run (servers publish them at run end).
pub fn out_of_core_row() -> OutOfCoreRow {
    use graphh_core::SequentialExecutor;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_runtime::ThreadedExecutor;
    use std::sync::Arc;

    const SERVERS: u32 = 2;
    const THREADS: u32 = 2;
    let g = RmatGenerator::new(10, 16).generate(EXPERIMENT_SEED);
    let p = graphh_partition::Spe::partition(
        &g,
        &graphh_partition::SpeConfig::with_tile_count("rmat-10", &g, 16),
    )
    .expect("partition");
    let program = graphh_core::PageRank::new(3);
    let assignment = graphh_partition::TileAssignment::round_robin(p.num_tiles(), SERVERS);
    let fullest = (0..SERVERS)
        .map(|sid| {
            assignment
                .tiles_of(sid)
                .iter()
                .map(|&t| p.tiles[t as usize].serialized_size())
                .sum::<u64>()
        })
        .max()
        .expect("at least one server");
    let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
        .with_threads_per_server(THREADS);
    config.cache_capacity = Some(fullest.div_ceil(4));

    let counters = graphh_obs::global_counters();
    let total = |family: &str, name: &str| -> u64 {
        (0..SERVERS)
            .map(|sid| counters.counter(&format!("{family}.s{sid}.{name}")).get())
            .sum()
    };
    let seq = crate::run_graphh_config(
        &p,
        &program,
        config.clone(),
        Arc::new(SequentialExecutor::new()),
    );
    let monotone = || {
        [
            total("cache", "hits"),
            total("cache", "misses"),
            total("cache", "refused"),
            total("storage", "read_ops"),
        ]
    };
    let before = monotone();
    let thr = crate::run_graphh_config(&p, &program, config, Arc::new(ThreadedExecutor::new()));
    let after = monotone();
    let [hits, misses, refused, read_ops] = std::array::from_fn(|i| after[i] - before[i]);
    // A gauge, set at run end: the threaded run's own value.
    let resident_tiles = total("cache", "resident_tiles");
    OutOfCoreRow {
        servers: SERVERS,
        threads_per_server: THREADS,
        supersteps: thr.supersteps_run,
        codec: thr.cache_codec.name(),
        tiles: p.num_tiles(),
        resident_tiles,
        cache_hits: hits,
        cache_misses: misses,
        read_ops,
        tiles_compressed: resident_tiles + refused,
        threaded_wall_seconds: thr.wall_clock_seconds,
        identical: bit_identical(&seq.values, &thr.values),
    }
}

/// Render measured rows as machine-readable JSON (the report binary writes
/// this to `BENCH_runtime.json` so the perf trajectory is recorded run over
/// run). The header records the host core count and the swept axes so a ≤1×
/// speedup on a small runner reads as the hardware's verdict, not a
/// regression.
pub fn runtime_json(
    rows: &[RuntimeRow],
    sweep: &[KernelSweepRow],
    pool: &PoolBench,
    codec: &CodecBench,
    phase: &PhaseBreakdown,
    ooc: &OutOfCoreRow,
) -> String {
    let mut servers_swept: Vec<u32> = rows.iter().map(|r| r.servers).collect();
    servers_swept.dedup();
    let mut threads_swept: Vec<u32> = rows.iter().map(|r| r.threads_per_server).collect();
    threads_swept.sort_unstable();
    threads_swept.dedup();
    let join = |values: &[u32]| {
        values
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = format!(
        "{{\n  \"experiment\": \"runtime\",\n  \"workload\": \"rmat-scale10-ef16-pagerank-20\",\n  \
         \"host_cores\": {},\n  \"servers_swept\": [{}],\n  \"threads_per_server_swept\": [{}],\n  \
         \"note\": \"speedup needs host_cores > servers * threads_per_server; single-core runners honestly report <=1x\",\n  \
         \"seconds_note\": \"*_wall_s keys are measured host wall-clock; simulated_s is the cost model's predicted cluster time (executor-independent)\",\n  \
         \"rows\": [\n",
        host_cores(),
        join(&servers_swept),
        join(&threads_swept),
    );
    for (i, row) in rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"servers\": {}, \"threads_per_server\": {}, \"sequential_wall_s\": {:.6}, \"threaded_wall_s\": {:.6}, \"simulated_s\": {:.6}, \"speedup\": {:.4}, \"identical\": {}}}{}",
            row.servers,
            row.threads_per_server,
            row.sequential_wall_seconds,
            row.threaded_wall_seconds,
            row.simulated_seconds,
            row.speedup(),
            row.identical,
            if i + 1 < rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"kernel_sweep_note\": \"per registry program x direction mode; identical \
         gates both executors bit-equal to the pull-forced sequential reference\",\n  \
         \"kernel_sweep\": [\n",
    );
    for (i, row) in sweep.iter().enumerate() {
        writeln!(
            out,
            "    {{\"program\": \"{}\", \"mode\": \"{}\", \"sequential_wall_s\": {:.6}, \
             \"threaded_wall_s\": {:.6}, \"supersteps\": {}, \"identical\": {}}}{}",
            row.program,
            row.mode,
            row.sequential_wall_seconds,
            row.threaded_wall_seconds,
            row.supersteps_run,
            row.identical,
            if i + 1 < sweep.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ],\n");
    writeln!(
        out,
        "  \"pool_microbench\": {{\"phases\": {}, \"items\": {}, \"threads\": {}, \
         \"spawn_per_phase_s\": {:.6}, \"persistent_pool_s\": {:.6}, \"speedup\": {:.4}}},",
        pool.phases,
        pool.items,
        pool.threads,
        pool.spawning_seconds,
        pool.persistent_seconds,
        pool.speedup()
    )
    .unwrap();
    writeln!(
        out,
        "  \"codec_microbench\": {{\"range\": {}, \"rows\": [",
        codec.range
    )
    .unwrap();
    for (i, row) in codec.rows.iter().enumerate() {
        writeln!(
            out,
            "    {{\"encoding\": \"{}\", \"updates\": {}, \"wire_bytes\": {}, \
             \"encode_mb_s\": {:.1}, \"encode_into_mb_s\": {:.1}, \
             \"decode_mb_s\": {:.1}, \"decode_each_mb_s\": {:.1}}}{}",
            row.encoding,
            row.updates,
            row.wire_bytes,
            row.encode_mb_s,
            row.encode_into_mb_s,
            row.decode_mb_s,
            row.decode_each_mb_s,
            if i + 1 < codec.rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"compressed\": [\n");
    for (i, row) in codec.compressed.iter().enumerate() {
        writeln!(
            out,
            "    {{\"compressor\": \"{}\", \"plain_bytes\": {}, \"wire_bytes\": {}, \
             \"encode_mb_s\": {:.1}, \"encode_into_mb_s\": {:.1}, \
             \"speedup\": {:.4}, \"identical\": {}}}{}",
            row.compressor,
            row.plain_bytes,
            row.wire_bytes,
            row.encode_mb_s,
            row.encode_into_mb_s,
            row.speedup(),
            row.identical,
            if i + 1 < codec.compressed.len() {
                ","
            } else {
                ""
            }
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"bulk\": [\n");
    for (i, row) in codec.bulk.iter().enumerate() {
        write!(
            out,
            "    {{\"compressor\": \"{}\", \"input\": \"{}\", \"plain_bytes\": {}, \
             \"packed_bytes\": {}, \"compress_mb_s\": {:.1}, \"decompress_mb_s\": {:.1}, ",
            row.compressor,
            row.input,
            row.plain_bytes,
            row.packed_bytes,
            row.compress_mb_s,
            row.decompress_mb_s,
        )
        .unwrap();
        if let Some((compress, decompress)) = row.before {
            write!(
                out,
                "\"before_compress_mb_s\": {compress:.1}, \"before_decompress_mb_s\": {decompress:.1}, "
            )
            .unwrap();
        }
        writeln!(
            out,
            "\"identical\": {}}}{}",
            row.identical,
            if i + 1 < codec.bulk.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ]},\n");
    writeln!(
        out,
        "  \"phase_breakdown\": {{\"executor\": \"threaded\", \"servers\": {}, \
         \"threads_per_server\": {}, \"supersteps\": {}, \
         \"note\": \"per-lane wall-clock totals from one traced run; lanes run concurrently so totals can exceed elapsed time\", \
         \"phases\": [",
        phase.servers, phase.threads_per_server, phase.supersteps
    )
    .unwrap();
    for (i, t) in phase.phases.iter().enumerate() {
        writeln!(
            out,
            "    {{\"cat\": \"{}\", \"name\": \"{}\", \"spans\": {}, \"total_wall_s\": {:.6}}}{}",
            t.cat,
            t.name,
            t.spans,
            t.total_seconds,
            if i + 1 < phase.phases.len() { "," } else { "" }
        )
        .unwrap();
    }
    out.push_str("  ]},\n");
    writeln!(
        out,
        "  \"out_of_core\": {{\"workload\": \"pagerank, cache_capacity = 1/4 of the fuller server's tile bytes, CacheMode::Auto\", \
         \"servers\": {}, \"threads_per_server\": {}, \"supersteps\": {}, \"codec\": \"{}\", \
         \"tiles\": {}, \"resident_tiles\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"read_ops\": {}, \"tiles_compressed\": {}, \"threaded_wall_s\": {:.6}, \"identical\": {}}}",
        ooc.servers,
        ooc.threads_per_server,
        ooc.supersteps,
        ooc.codec,
        ooc.tiles,
        ooc.resident_tiles,
        ooc.cache_hits,
        ooc.cache_misses,
        ooc.read_ops,
        ooc.tiles_compressed,
        ooc.threaded_wall_seconds,
        ooc.identical,
    )
    .unwrap();
    out.push_str("}\n");
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

    /// The codec microbench must measure all four paths on both encodings,
    /// and its rows must render into the runtime JSON record. Runs a tiny
    /// sized variant: the full 100 MB-per-measurement workload takes seconds
    /// unoptimized and belongs to `report runtime`, not `cargo test`.
    #[test]
    fn codec_microbench_measures_both_encodings_and_all_paths() {
        let bench = codec_microbench_sized(2048, 64 * 1024, 8);
        assert_eq!(bench.rows.len(), 2);
        assert_eq!(bench.rows[0].encoding, "dense");
        assert_eq!(bench.rows[1].encoding, "sparse");
        for row in &bench.rows {
            assert!(row.encode_mb_s > 0.0, "{}", row.encoding);
            assert!(row.encode_into_mb_s > 0.0, "{}", row.encoding);
            assert!(row.decode_mb_s > 0.0, "{}", row.encoding);
            assert!(row.decode_each_mb_s > 0.0, "{}", row.encoding);
        }
        // One row per compressed codec (Raw takes the uncompressed path), and
        // the scratch-reusing path must stay byte-identical to the allocating
        // one — the invariant CI's perf smoke greps for in the JSON.
        let names: Vec<&str> = bench.compressed.iter().map(|r| r.compressor).collect();
        assert_eq!(names, ["snappy", "zlib-1", "zlib-3", "varint-delta"]);
        for row in &bench.compressed {
            assert!(row.encode_mb_s > 0.0, "{}", row.compressor);
            assert!(row.encode_into_mb_s > 0.0, "{}", row.compressor);
            assert!(row.wire_bytes > 0, "{}", row.compressor);
            assert!(
                row.identical,
                "{}: scratch reuse changed wire bytes",
                row.compressor
            );
        }
        // Every compressor on both bulk payloads, each round-tripping and
        // equal to the allocating API; "before" figures only at full size.
        assert_eq!(bench.bulk.len(), 8);
        for row in &bench.bulk {
            let what = format!("{} {}", row.compressor, row.input);
            assert!(
                row.compress_mb_s > 0.0 && row.decompress_mb_s > 0.0,
                "{what}"
            );
            assert!(row.plain_bytes > 2048 && row.packed_bytes > 0, "{what}");
            assert!(row.identical && row.before.is_none(), "{what}");
        }
        let json = runtime_json(
            &[],
            &tiny_sweep(),
            &pool_spawn_microbench(),
            &bench,
            &tiny_phases(),
            &OutOfCoreRow {
                servers: 2,
                threads_per_server: 1,
                supersteps: 3,
                codec: "zlib-1",
                tiles: 16,
                resident_tiles: 6,
                cache_hits: 12,
                cache_misses: 36,
                read_ops: 36,
                tiles_compressed: 8,
                threaded_wall_seconds: 0.1,
                identical: true,
            },
        );
        assert!(json.contains("\"encoding\": \"dense\""));
        assert!(json.contains("\"encode_into_mb_s\""));
        assert!(json.contains("\"compressed\": ["));
        assert!(json.contains("\"compressor\": \"zlib-1\""));
        assert!(json.contains("\"bulk\": ["));
        assert!(json.contains("\"input\": \"tile-blob\""));
        assert!(json.contains("\"codec_microbench\""));
        assert!(json.contains("\"phase_breakdown\""));
        assert!(json.contains("\"cache_misses\": 36, \"read_ops\": 36"));
        assert!(json.contains("\"name\": \"tile-compute\""));
        assert!(json.contains("\"kernel_sweep\""));
        assert!(json.contains("\"program\": \"bfs-dopt\""));
    }

    fn tiny_sweep() -> Vec<KernelSweepRow> {
        vec![KernelSweepRow {
            program: "bfs-dopt",
            mode: "auto",
            sequential_wall_seconds: 0.1,
            threaded_wall_seconds: 0.1,
            supersteps_run: 4,
            identical: true,
        }]
    }

    fn tiny_phases() -> PhaseBreakdown {
        PhaseBreakdown {
            servers: 2,
            threads_per_server: 1,
            supersteps: 3,
            phases: vec![PhaseTotal {
                cat: "superstep",
                name: "tile-compute",
                spans: 6,
                total_seconds: 0.5,
            }],
        }
    }

    /// The phase-breakdown aggregation: spans with the same (cat, name) fold
    /// into one total, ordered largest-first.
    #[test]
    fn aggregate_phases_folds_and_orders() {
        use graphh_obs::SpanEvent;
        let span = |name: &'static str, dur_us: u64| SpanEvent {
            name,
            cat: "superstep",
            tid: 1,
            start_us: 0,
            dur_us,
            superstep: Some(0),
            direction: None,
        };
        let totals = aggregate_phases(&[
            span("apply", 10),
            span("tile-compute", 100),
            span("apply", 5),
        ]);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].name, "tile-compute");
        assert_eq!(totals[1].name, "apply");
        assert_eq!(totals[1].spans, 2);
        assert!((totals[1].total_seconds - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn fig9_row_shape_single_config() {
        // A single small configuration exercises the full multi-system path cheaply.
        let g = experiment_graph(Dataset::Twitter2010);
        let p = partition_for_experiments(&g, "twitter-2010");
        let runs = run_all_systems_pagerank(&g, &p, 3, 3);
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
