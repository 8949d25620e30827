//! Observability must never feed back into computation: a traced run is
//! bit-identical to an untraced one, on both executors — and the trace it
//! leaves behind actually contains the superstep phase spans on the
//! documented lanes (`docs/OBSERVABILITY.md`).

use graphh_cluster::ClusterConfig;
use graphh_core::{GraphHConfig, GraphHEngine, PageRank, SequentialExecutor, Sssp};
use graphh_graph::generators::{path_graph, GraphGenerator, RmatGenerator};
use graphh_obs::{SpanEvent, TraceConfig, Tracer};
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
use graphh_runtime::ThreadedExecutor;
use std::sync::Arc;

const SERVERS: u32 = 3;

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn partitioned() -> PartitionedGraph {
    let g = RmatGenerator::new(8, 6).generate(11);
    Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 9)).unwrap()
}

fn config() -> GraphHConfig {
    GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS))
}

/// Names of every span with category `"superstep"` in `spans`.
fn superstep_phases(spans: &[SpanEvent]) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = spans
        .iter()
        .filter(|s| s.cat == "superstep")
        .map(|s| s.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn traced_threaded_run_is_bit_identical_and_emits_phase_spans() {
    let p = partitioned();
    let program = PageRank::new(8);

    let plain = GraphHEngine::with_executor(config(), Arc::new(ThreadedExecutor::new()))
        .run(&p, &program)
        .unwrap();

    let tracer = Tracer::new();
    let traced = GraphHEngine::with_executor(
        config(),
        Arc::new(ThreadedExecutor::with_trace(TraceConfig {
            tracer: tracer.clone(),
        })),
    )
    .run(&p, &program)
    .unwrap();

    assert!(
        bit_identical(&plain.values, &traced.values),
        "tracing must not change results"
    );
    assert_eq!(plain.supersteps_run, traced.supersteps_run);

    let spans = tracer.drain();
    assert_eq!(
        superstep_phases(&spans),
        vec![
            "apply",
            "collect-decode",
            "encode-publish",
            "plane-flush",
            "tile-compute",
        ],
        "every worker phase must appear in the trace"
    );
    // Lane scheme: 0 = driver, 1 + sid = server workers; every server
    // contributed spans, and each ran all the supersteps.
    assert!(spans.iter().any(|s| s.tid == 0 && s.cat == "load"));
    for sid in 0..SERVERS {
        let lane = 1 + sid;
        let computes: Vec<_> = spans
            .iter()
            .filter(|s| s.tid == lane && s.name == "tile-compute")
            .collect();
        assert_eq!(computes.len() as u32, traced.supersteps_run, "lane {lane}");
        assert!(computes
            .iter()
            .all(|s| s.superstep.is_some() && s.dur_us < 60_000_000));
    }
    // Pool-job spans from each server's compute pool land on that server's
    // pool lanes (100 * (1 + sid) + worker_index).
    assert!(
        spans
            .iter()
            .any(|s| s.cat == "pool" && (100..100 * (SERVERS + 2)).contains(&s.tid)),
        "pool jobs must be traced on the pool lanes"
    );
}

#[test]
fn traced_sequential_run_is_bit_identical_and_emits_phase_spans() {
    let g = path_graph(120);
    let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 8)).unwrap();
    let program = Sssp::new(0);

    let plain = GraphHEngine::with_executor(config(), Arc::new(SequentialExecutor::new()))
        .run(&p, &program)
        .unwrap();

    let tracer = Tracer::new();
    let traced = GraphHEngine::with_executor(
        config(),
        Arc::new(SequentialExecutor::with_trace(TraceConfig {
            tracer: tracer.clone(),
        })),
    )
    .run(&p, &program)
    .unwrap();

    assert!(bit_identical(&plain.values, &traced.values));
    assert_eq!(
        plain.updated_ratio_per_superstep,
        traced.updated_ratio_per_superstep
    );

    let spans = tracer.drain();
    assert_eq!(
        superstep_phases(&spans),
        vec!["apply", "encode-publish", "tile-compute"],
        "the sequential executor's phase set (no plane)"
    );
    // Everything the sequential driver records lands on lane 0.
    assert!(spans.iter().filter(|s| s.cat != "pool").all(|s| s.tid == 0));
    assert!(spans.iter().any(|s| s.name == "server-build"));
}
