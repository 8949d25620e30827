//! # graphh-baselines
//!
//! The systems the paper compares GraphH against (§II, §V): Pregel+, GraphD,
//! PowerGraph, PowerLyra and Chaos.
//!
//! All five compute the same synchronous values, so [`run`] runs one superstep
//! loop over the engine's own [`GabProgram`]s (`initial_value`, the
//! declaration, `gather` and `max_supersteps`) and hands every superstep to the
//! system's **meter**, which fills [`graphh_cluster::ServerMetrics`] with the
//! traffic that system's data layout implies:
//!
//! * **Pregel+** hashes vertices and their out-edges onto servers; the previous
//!   superstep's updates (every vertex in superstep 0 and in every superstep of a
//!   fixed-round program) send along their out-edges, combined on the sender per
//!   (target, sender server) and batched into one physical message per
//!   (sender, receiver) pair. **GraphD** is the same computation with adjacency
//!   lists streamed from disk and messages spilled to disk (§II-B.1, §II-C.1).
//! * **PowerGraph** (random vertex-cut) and **PowerLyra** (hybrid cut: in-edges of
//!   targets with in-degree over 100 are spread by source, the rest stay with
//!   their target) charge each gathered in-edge to the server its cut placed it
//!   on, and two replica syncs per mirror to the master (§II-B.2, §II-C.2).
//! * **Chaos** streams every edge every superstep from storage spread over the
//!   whole cluster, so Algorithm 3's disk traffic also crosses the network
//!   (§II-B.3, §II-C.3).
//!
//! One rule stands in for each system's message function: an edge carries a
//! message exactly when its source's value is finite — an unreached SSSP / BFS
//! vertex sends nothing, and every PageRank source of an edge has an out-degree.
//!
//! [`costsheet`] holds Table III's closed-form per-superstep memory / network /
//! disk formulas, used for the Figure 1a memory reports and the memory each run
//! records. Simulated time comes from the same [`CostModel`] the GraphH engine
//! uses, so the comparison figures come from measured traffic rather than from
//! formulas alone.

pub mod costsheet;
mod meter;

pub use costsheet::{CostSheet, SystemKind};

use graphh_cluster::{ClusterConfig, ClusterMetrics, CostModel, SuperstepReport};
use graphh_core::gab::{Edges, InitContext, VertexContext};
use graphh_core::GabProgram;
use graphh_graph::{Csc, Csr, Graph, VertexId};
use meter::Meter;

/// What every baseline run returns, mirroring [`graphh_core::RunResult`] so the
/// experiment harness can treat all systems uniformly.
#[derive(Debug, Clone)]
pub struct BaselineRunResult {
    /// Final vertex values.
    pub values: Vec<f64>,
    /// Per-superstep metrics with simulated times filled in.
    pub metrics: ClusterMetrics,
    /// Number of supersteps executed.
    pub supersteps_run: u32,
    /// Modelled per-server memory requirement in bytes (what Figure 1a reports).
    pub per_server_memory_bytes: u64,
}

impl BaselineRunResult {
    /// Average simulated seconds per superstep, excluding the first.
    pub fn avg_superstep_seconds(&self) -> f64 {
        self.metrics.avg_seconds_per_superstep(true)
    }

    /// Total simulated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.metrics.total_seconds()
    }
}

/// [`run`] was asked for a system this crate has no meter for: Giraph and
/// GraphX exist only as [`CostSheet`] rows, and GraphH runs on
/// [`graphh_core::GraphHEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoEngine(pub SystemKind);

impl std::fmt::Display for NoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} has no baseline engine", self.0.name())
    }
}

impl std::error::Error for NoEngine {}

/// One superstep as a meter sees it.
struct Superstep<'a> {
    graph: &'a Graph,
    csr: &'a Csr,
    csc: &'a Csc,
    /// The vertices the previous superstep updated; every vertex in superstep 0
    /// and in every superstep of a fixed-round program.
    changed: &'a [VertexId],
    /// `changed` and their out-neighbours: the vertices whose in-edges the loop
    /// gathers.
    active: &'a [bool],
    /// Vertex values before the superstep.
    values: &'a [f64],
}

/// Run `program` on `graph` as `system` would on `cluster`: synchronous
/// supersteps until no vertex updates or `program.max_supersteps()`, with
/// every superstep's traffic metered and priced by the cluster's cost model.
pub fn run(
    system: SystemKind,
    graph: &Graph,
    program: &dyn GabProgram,
    cluster: ClusterConfig,
) -> Result<BaselineRunResult, NoEngine> {
    let (csr, csc) = (graph.to_csr(), graph.to_csc());
    let meter =
        Meter::new(system, graph, &csr, &csc, cluster.num_servers).ok_or(NoEngine(system))?;
    let n = graph.num_vertices();
    let out_degrees = graph.out_degrees();
    let init = InitContext { num_vertices: n };
    let declared = program.declaration(n);
    let mut values: Vec<f64> = (0..n as VertexId)
        .map(|v| program.initial_value(v, &init))
        .collect();
    let fixed_rounds = program.max_supersteps() != u32::MAX;
    let memory = CostSheet::new(&graph.stats(), cluster).per_server_memory_bytes(system);
    let cost_model = CostModel::new(cluster);
    let mut metrics = ClusterMetrics::default();
    let mut changed: Vec<VertexId> = (0..n as VertexId).collect();
    let mut prepared = Vec::new();
    let mut supersteps_run = 0;

    for superstep in 0..program.max_supersteps() {
        let mut active = vec![false; n as usize];
        for &v in &changed {
            active[v as usize] = true;
            for &t in csr.neighbors(v) {
                active[t as usize] = true;
            }
        }
        declared.fill_operand(&values, out_degrees, &mut prepared);
        let ctx = VertexContext {
            values: &values,
            out_degrees,
            superstep,
            prepared: &prepared,
        };
        let updates: Vec<(VertexId, f64)> = (0..n as VertexId)
            .filter(|&v| active[v as usize])
            .filter_map(|v| {
                let mut in_edges = Edges::new(csc.in_neighbors(v), csc.in_weights(v));
                let accum = program.gather(v, &mut in_edges, &ctx);
                declared
                    .updated(accum, values[v as usize])
                    .map(|new| (v, new))
            })
            .collect();

        let mut report = SuperstepReport::new(superstep, cluster.num_servers);
        meter.charge(
            &mut report,
            &Superstep {
                graph,
                csr: &csr,
                csc: &csc,
                changed: &changed,
                active: &active,
                values: &values,
            },
        );
        let updated = updates.len() as u64;
        report.total_vertices_updated = updated;
        for server in &mut report.servers {
            server.vertices_updated = updated;
            server.peak_memory_bytes = memory;
        }
        metrics.push(cost_model.finalize(report));
        supersteps_run = superstep + 1;

        for &(v, new) in &updates {
            values[v as usize] = new;
        }
        if updates.is_empty() {
            break;
        }
        if !fixed_rounds {
            changed = updates.iter().map(|&(v, _)| v).collect();
        }
    }

    Ok(BaselineRunResult {
        values,
        metrics,
        supersteps_run,
        per_server_memory_bytes: memory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphh_core::{reference, Bfs, PageRank, Sssp, Wcc};
    use graphh_graph::generators::{grid_graph, GraphGenerator, RmatGenerator};

    fn on(system: SystemKind, g: &Graph, program: &dyn GabProgram, servers: u32) -> Vec<f64> {
        run(system, g, program, ClusterConfig::paper_testbed(servers))
            .unwrap()
            .values
    }

    #[test]
    fn pregel_pagerank_matches_reference() {
        let g = RmatGenerator::new(8, 5).generate(3);
        let result = run(
            SystemKind::PregelPlus,
            &g,
            &PageRank::new(8),
            ClusterConfig::paper_testbed(3),
        )
        .unwrap();
        assert!(reference::max_abs_diff(&result.values, &reference::pagerank(&g, 8)) < 1e-9);
        assert_eq!(result.supersteps_run, 8);
    }

    /// BFS runs under every metered system, on RMAT as well as the grid: the
    /// baselines' loop gathers every vertex a changed vertex feeds, settled
    /// or not, so BFS's first-parent gather answers settled vertices too, and
    /// `apply`'s `min` must keep their levels.
    #[test]
    fn pregel_sssp_and_bfs_match_reference() {
        let g = grid_graph(5, 6);
        let sssp = on(SystemKind::PregelPlus, &g, &Sssp::new(0), 4);
        assert_eq!(reference::max_abs_diff(&sssp, &reference::sssp(&g, 0)), 0.0);
        let rmat = RmatGenerator::new(10, 8).generate(7);
        let vertices = 0..rmat.num_vertices() as VertexId;
        let hub = vertices
            .clone()
            .max_by_key(|&v| rmat.out_degree(v))
            .unwrap();
        let quiet = vertices.clone().find(|&v| rmat.out_degree(v) == 1).unwrap();
        for system in SystemKind::BASELINES {
            for (graph, source) in [(&g, 0), (&rmat, hub), (&rmat, quiet)] {
                let bfs = on(system, graph, &Bfs::new(source), 4);
                assert_eq!(
                    reference::max_abs_diff(&bfs, &reference::bfs(graph, source)),
                    0.0,
                    "{} from {source} on {} vertices",
                    system.name(),
                    graph.num_vertices()
                );
            }
        }
    }

    #[test]
    fn pregel_wcc_matches_reference_on_symmetric_graph() {
        let g = grid_graph(4, 4);
        let wcc = on(SystemKind::PregelPlus, &g, &Wcc::new(), 2);
        assert_eq!(reference::max_abs_diff(&wcc, &reference::wcc(&g)), 0.0);
    }

    #[test]
    fn powergraph_pagerank_matches_reference() {
        let g = RmatGenerator::new(8, 5).generate(13);
        let values = on(SystemKind::PowerGraph, &g, &PageRank::new(6), 4);
        assert!(reference::max_abs_diff(&values, &reference::pagerank(&g, 6)) < 1e-9);
    }

    #[test]
    fn powerlyra_sssp_and_wcc_match_reference() {
        let g = grid_graph(6, 6);
        let sssp = on(SystemKind::PowerLyra, &g, &Sssp::new(0), 3);
        assert_eq!(reference::max_abs_diff(&sssp, &reference::sssp(&g, 0)), 0.0);
        let wcc = on(SystemKind::PowerLyra, &g, &Wcc::new(), 3);
        assert_eq!(reference::max_abs_diff(&wcc, &reference::wcc(&g)), 0.0);
    }

    #[test]
    fn chaos_pagerank_matches_reference() {
        let g = RmatGenerator::new(8, 5).generate(21);
        let values = on(SystemKind::Chaos, &g, &PageRank::new(6), 3);
        assert!(reference::max_abs_diff(&values, &reference::pagerank(&g, 6)) < 1e-9);
    }

    #[test]
    fn chaos_sssp_matches_reference() {
        let g = grid_graph(5, 5);
        let values = on(SystemKind::Chaos, &g, &Sssp::new(0), 2);
        assert_eq!(
            reference::max_abs_diff(&values, &reference::sssp(&g, 0)),
            0.0
        );
    }

    #[test]
    fn a_system_without_a_meter_is_an_error() {
        let g = grid_graph(2, 2);
        for system in [SystemKind::Giraph, SystemKind::GraphX, SystemKind::GraphH] {
            let err = run(system, &g, &Wcc::new(), ClusterConfig::paper_testbed(2)).unwrap_err();
            assert_eq!(err, NoEngine(system));
            assert!(err.to_string().contains(system.name()));
        }
        for system in SystemKind::BASELINES {
            assert!(run(system, &g, &Wcc::new(), ClusterConfig::paper_testbed(2)).is_ok());
        }
    }
}
