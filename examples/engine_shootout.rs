//! Engine shoot-out: run PageRank on the same graph with GraphH (sequential
//! and threaded executors) and all five baselines, verify they agree, and
//! print the simulated performance and memory profile of each — a miniature
//! version of the paper's Figure 1 and Figure 9 — plus the *wall-clock*
//! sequential-vs-threaded comparison on an RMAT scale-10 workload.
//!
//! Run with: `cargo run --release --example engine_shootout`

use graphh::baselines::{self, BaselineRunResult};
use graphh::graph::properties::human_bytes;
use graphh::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Dataset::Twitter2010.default_spec().generate(11);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("twitter", &graph, 36)).unwrap();
    let cluster = ClusterConfig::paper_testbed(9);
    let supersteps = 10;

    let graphh = GraphHEngine::new(GraphHConfig::paper_default(cluster))
        .run(&partitioned, &PageRank::new(supersteps))
        .unwrap();
    let graphh_threaded = GraphHEngine::with_executor(
        GraphHConfig::paper_default(cluster),
        Arc::new(ThreadedExecutor::new()),
    )
    .run(&partitioned, &PageRank::new(supersteps))
    .unwrap();
    let runs: Vec<(SystemKind, BaselineRunResult)> = SystemKind::BASELINES
        .into_iter()
        .map(|system| {
            let run = baselines::run(system, &graph, &PageRank::new(supersteps), cluster);
            (system, run.unwrap())
        })
        .collect();

    // All engines implement the same synchronous PageRank, so they must agree.
    let max_diff = runs
        .iter()
        .flat_map(|(_, run)| graphh.values.iter().zip(&run.values))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |GraphH - baseline| rank difference: {max_diff:.2e}");
    let threaded_identical = graphh
        .values
        .iter()
        .zip(&graphh_threaded.values)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!("GraphH threaded == sequential (bit-identical): {threaded_identical}\n");

    println!("system             avg superstep (sim. s)   per-server memory");
    let mut rows = vec![
        (
            "GraphH",
            graphh.avg_superstep_seconds(),
            graphh.metrics.peak_memory_bytes(),
        ),
        (
            "GraphH (threads)",
            graphh_threaded.avg_superstep_seconds(),
            graphh_threaded.metrics.peak_memory_bytes(),
        ),
    ];
    for (system, run) in &runs {
        rows.push((
            system.name(),
            run.avg_superstep_seconds(),
            run.per_server_memory_bytes,
        ));
    }
    for (name, secs, mem) in rows {
        println!("{name:<18} {secs:>20.4}   {}", human_bytes(mem));
    }

    // Wall-clock executor comparison: RMAT scale-10 PageRank on 4 servers
    // (needs >1 real core for the threaded executor to win).
    println!("\nwall-clock, RMAT scale-10 PageRank (4 servers, best of 3):");
    let rmat = RmatGenerator::new(10, 16).generate(2017);
    let p10 = Spe::partition(&rmat, &SpeConfig::with_tile_count("rmat-10", &rmat, 16)).unwrap();
    let best = |threaded: bool| {
        (0..3)
            .map(|_| {
                let executor: Arc<dyn Executor> = if threaded {
                    Arc::new(ThreadedExecutor::new())
                } else {
                    Arc::new(SequentialExecutor::new())
                };
                GraphHEngine::with_executor(
                    GraphHConfig::paper_default(ClusterConfig::paper_testbed(4)),
                    executor,
                )
                .run(&p10, &PageRank::new(20))
                .unwrap()
                .wall_clock_seconds
            })
            .fold(f64::INFINITY, f64::min)
    };
    let seq_s = best(false);
    let thr_s = best(true);
    println!("  sequential: {seq_s:.4}s");
    println!(
        "  threaded:   {thr_s:.4}s   (speedup {:.2}x)",
        seq_s / thr_s
    );

    // Second parallelism axis: the paper's T compute threads *inside* each
    // server (tile-level parallel gather). Results are bit-identical for
    // every T; only wall-clock changes.
    println!("\nintra-server tile threads (threaded executor, 4 servers, best of 3):");
    let best_t = |threads: u32| {
        (0..3)
            .map(|_| {
                GraphHEngine::with_executor(
                    GraphHConfig::paper_default(ClusterConfig::paper_testbed(4))
                        .with_threads_per_server(threads),
                    Arc::new(ThreadedExecutor::new()),
                )
                .run(&p10, &PageRank::new(20))
                .unwrap()
                .wall_clock_seconds
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t1 = best_t(1);
    println!("  T=1: {t1:.4}s");
    for threads in [2u32, 4] {
        let tn = best_t(threads);
        println!("  T={threads}: {tn:.4}s   (speedup vs T=1 {:.2}x)", t1 / tn);
    }
}
