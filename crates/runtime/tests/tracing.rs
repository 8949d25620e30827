//! Observability must never feed back into computation: a traced run is
//! bit-identical to an untraced one, on both in-process executors — and the
//! trace it leaves behind contains the superstep phase spans on the lanes
//! `docs/OBSERVABILITY.md` documents, the same lanes for both.

use graphh_cluster::ClusterConfig;
use graphh_core::{
    GraphHConfig, GraphHEngine, PageRank, SequentialExecutor, Sssp, ThreadedExecutor,
};
use graphh_graph::generators::{path_graph, GraphGenerator, RmatGenerator};
use graphh_obs::{SpanEvent, TraceConfig, Tracer};
use graphh_partition::{PartitionedGraph, Spe, SpeConfig};
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

/// The lane rule both in-process executors follow (`docs/OBSERVABILITY.md`
/// §2): the driver's spans on lane 0 — `plan-prepare` and nothing of a
/// superstep — and server `sid`'s `server-build` and four superstep phases on
/// lane `1 + sid`, one of each phase per superstep; no `plane-flush`, as no
/// plane runs in process.
fn assert_in_process_lanes(spans: &[SpanEvent], supersteps_run: u32) {
    assert_eq!(
        superstep_phases(spans),
        vec!["apply", "collect-decode", "encode-publish", "tile-compute"],
        "every in-process phase, and no plane-flush"
    );
    let driver: Vec<_> = spans
        .iter()
        .filter(|s| s.tid == 0)
        .map(|s| s.name)
        .collect();
    assert_eq!(driver, ["plan-prepare"], "the driver's lane");
    for sid in 0..SERVERS {
        let lane = 1 + sid;
        let on_lane = |name: &str| {
            spans
                .iter()
                .filter(|s| s.tid == lane && s.name == name)
                .collect::<Vec<_>>()
        };
        assert_eq!(on_lane("server-build").len(), 1, "lane {lane}");
        for phase in ["tile-compute", "encode-publish", "collect-decode", "apply"] {
            let spans = on_lane(phase);
            assert_eq!(spans.len() as u32, supersteps_run, "lane {lane} {phase}");
            let supersteps: Vec<_> = spans.iter().map(|s| s.superstep).collect();
            let expected: Vec<_> = (0..supersteps_run).map(Some).collect();
            assert_eq!(supersteps, expected, "lane {lane} {phase}");
        }
    }
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
    assert_in_process_lanes(&spans, traced.supersteps_run);
    assert!(spans
        .iter()
        .filter(|s| s.name == "tile-compute")
        .all(|s| s.dur_us < 60_000_000));
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

    assert_in_process_lanes(&tracer.drain(), traced.supersteps_run);
}
