//! The per-system meters: what one superstep of [`crate::run`]'s loop costs
//! each system, as [`graphh_cluster::ServerMetrics`] counters.

use crate::{Superstep, SystemKind};
use graphh_cluster::SuperstepReport;
use graphh_graph::ids::vertex_hash_server;
use graphh_graph::{Csc, Csr, Graph, VertexId};

/// Bytes of one message or replica sync (vertex id + value), on the wire or on
/// disk; also Chaos's message record.
const MESSAGE_BYTES: u64 = 12;
/// Bytes of one adjacency entry or Chaos edge record (neighbour id + weight).
const EDGE_BYTES: u64 = 8;
/// Bytes of one Chaos vertex-state record.
const VERTEX_BYTES: u64 = 16;
/// In-degree above which PowerLyra's hybrid cut spreads a vertex's in-edges by
/// source (100 in the original system).
const HIGH_DEGREE: u32 = 100;
/// Chaos's streaming partitions per server.
const PARTITIONS_PER_SERVER: u64 = 4;

pub(crate) enum Meter {
    /// Pregel+, or GraphD when `out_of_core`.
    Pregel { out_of_core: bool },
    /// PowerGraph, or PowerLyra when `hybrid`, with every vertex's replica
    /// count under that cut.
    VertexCut { hybrid: bool, replicas: Vec<u32> },
    /// Chaos.
    Chaos,
}

impl Meter {
    /// The meter of `system`; `None` for a system without one.
    pub(crate) fn new(
        system: SystemKind,
        graph: &Graph,
        csr: &Csr,
        csc: &Csc,
        num_servers: u32,
    ) -> Option<Self> {
        Some(match system {
            SystemKind::PregelPlus => Meter::Pregel { out_of_core: false },
            SystemKind::GraphD => Meter::Pregel { out_of_core: true },
            SystemKind::PowerGraph | SystemKind::PowerLyra => {
                let hybrid = system == SystemKind::PowerLyra;
                let replicas = replica_counts(hybrid, graph, csr, csc, num_servers);
                Meter::VertexCut { hybrid, replicas }
            }
            SystemKind::Chaos => Meter::Chaos,
            SystemKind::Giraph | SystemKind::GraphX | SystemKind::GraphH => return None,
        })
    }

    /// Charge `step` to `report`'s servers.
    pub(crate) fn charge(&self, report: &mut SuperstepReport, step: &Superstep<'_>) {
        match self {
            Meter::Pregel { out_of_core } => pregel(report, step, *out_of_core),
            Meter::VertexCut { hybrid, replicas } => vertex_cut(report, step, *hybrid, replicas),
            Meter::Chaos => chaos(report, step),
        }
    }
}

/// Pregel+ / GraphD: every changed vertex scans its out-edges on its hash
/// server and, if its value is finite, sends along each of them.
fn pregel(report: &mut SuperstepReport, step: &Superstep<'_>, out_of_core: bool) {
    let num_servers = report.servers.len();
    let owner = |v: VertexId| vertex_hash_server(v, num_servers as u32) as usize;
    let out_degrees = step.graph.out_degrees();
    // Sender-side combining: one remote message per (target, sender server).
    let mut remote: Vec<(VertexId, usize)> = Vec::new();
    for &src in step.changed {
        let (server, degree) = (owner(src), u64::from(out_degrees[src as usize]));
        let m = &mut report.servers[server];
        m.edges_processed += degree;
        if out_of_core {
            m.disk_read_bytes += degree * EDGE_BYTES;
        }
        if step.values[src as usize].is_finite() {
            m.messages_produced += degree;
            let targets = step.csr.neighbors(src).iter();
            remote.extend(
                targets
                    .filter(|&&t| owner(t) != server)
                    .map(|&t| (t, server)),
            );
        }
    }
    remote.sort_unstable();
    remote.dedup();
    // Messages to one server are batched: one physical transfer per
    // (sender, receiver) pair.
    let mut pairs = vec![false; num_servers * num_servers];
    for (target, sender) in remote {
        let receiver = owner(target);
        report.servers[sender].network_sent_bytes += MESSAGE_BYTES;
        report.servers[receiver].network_received_bytes += MESSAGE_BYTES;
        pairs[sender * num_servers + receiver] = true;
    }
    for (m, row) in report.servers.iter_mut().zip(pairs.chunks(num_servers)) {
        m.network_messages += row.iter().filter(|&&p| p).count() as u64;
    }
    if out_of_core {
        // GraphD stages every produced message on the sender's disk and
        // re-reads the combined stream before sending.
        for m in &mut report.servers {
            m.disk_write_bytes += m.messages_produced * MESSAGE_BYTES;
            m.disk_read_bytes += m.messages_produced * MESSAGE_BYTES;
            m.disk_read_ops += 1;
            m.disk_write_ops += 1;
        }
    }
}

/// The server a vertex cut places edge `src -> dst` on: PowerGraph hashes the
/// edge; PowerLyra keeps it with its target unless the target is high-degree,
/// whose in-edges it spreads by source.
fn edge_server(hybrid: bool, src: VertexId, dst: VertexId, in_degrees: &[u32], n: u32) -> usize {
    let key = match hybrid {
        false => src ^ dst.rotate_left(16),
        true if in_degrees[dst as usize] > HIGH_DEGREE => src,
        true => dst,
    };
    vertex_hash_server(key, n) as usize
}

/// How many servers hold each vertex: those its in- and out-edges were placed
/// on (0 for an isolated vertex).
fn replica_counts(hybrid: bool, graph: &Graph, csr: &Csr, csc: &Csc, num_servers: u32) -> Vec<u32> {
    let in_degrees = graph.in_degrees();
    // `seen_by[s] == v`: server `s` was already counted for vertex `v`.
    let mut seen_by = vec![VertexId::MAX; num_servers as usize];
    (0..graph.num_vertices() as VertexId)
        .map(|v| {
            let out = csr.neighbors(v).iter().map(|&t| (v, t));
            let inn = csc.in_neighbors(v).iter().map(|&s| (s, v));
            out.chain(inn)
                .map(|(s, t)| edge_server(hybrid, s, t, in_degrees, num_servers))
                .filter(|&server| std::mem::replace(&mut seen_by[server], v) != v)
                .count() as u32
        })
        .collect()
}

/// PowerGraph / PowerLyra: every gathered in-edge runs on the server its cut
/// placed it on; each mirror sends its partial gather to the master and
/// receives the new value back.
fn vertex_cut(report: &mut SuperstepReport, step: &Superstep<'_>, hybrid: bool, replicas: &[u32]) {
    let num_servers = report.servers.len() as u32;
    let in_degrees = step.graph.in_degrees();
    for v in (0..step.active.len() as VertexId).filter(|&v| step.active[v as usize]) {
        for &src in step.csc.in_neighbors(v) {
            let server = edge_server(hybrid, src, v, in_degrees, num_servers);
            report.servers[server].edges_processed += 1;
        }
        let mirrors = u64::from(replicas[v as usize].saturating_sub(1));
        let master = &mut report.servers[vertex_hash_server(v, num_servers) as usize];
        master.network_sent_bytes += mirrors * MESSAGE_BYTES;
        master.network_received_bytes += mirrors * MESSAGE_BYTES;
        master.messages_produced += 2 * mirrors;
    }
    // The syncs of each phase (gather results, applied values) travel as one
    // exchange with every other server.
    for m in &mut report.servers {
        m.network_messages += 2 * u64::from(num_servers - 1);
    }
}

/// Chaos (Algorithm 3): scatter streams every edge and writes a message per
/// edge whose source value is finite, gather reads them back, apply rewrites
/// every vertex state. A partition is spread over all servers, so the traffic
/// is split evenly and every access also crosses the network.
fn chaos(report: &mut SuperstepReport, step: &Superstep<'_>) {
    let n = report.servers.len() as u64;
    let (v, e) = (step.graph.num_vertices(), step.graph.num_edges());
    let messages: u64 = (step.values.iter().zip(step.graph.out_degrees()))
        .filter(|(value, _)| value.is_finite())
        .map(|(_, &d)| u64::from(d))
        .sum();
    let disk_read = 2 * v * VERTEX_BYTES + e * EDGE_BYTES + messages * MESSAGE_BYTES;
    let disk_write = messages * MESSAGE_BYTES + v * VERTEX_BYTES;
    let network = disk_read + disk_write;
    for m in &mut report.servers {
        m.edges_processed = (e + messages) / n;
        m.disk_read_bytes = disk_read / n;
        m.disk_write_bytes = disk_write / n;
        m.disk_read_ops = 3 * PARTITIONS_PER_SERVER;
        m.disk_write_ops = 2 * PARTITIONS_PER_SERVER;
        m.network_sent_bytes = network / n;
        m.network_received_bytes = network / n;
        m.network_messages = 4 * PARTITIONS_PER_SERVER;
        m.messages_produced = messages / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, BaselineRunResult};
    use graphh_cluster::ClusterConfig;
    use graphh_core::{reference, GabProgram, PageRank, Sssp};
    use graphh_graph::generators::{grid_graph, path_graph, GraphGenerator, RmatGenerator};
    use std::collections::BTreeSet;

    fn on(
        system: SystemKind,
        g: &Graph,
        program: &dyn GabProgram,
        servers: u32,
    ) -> BaselineRunResult {
        run(system, g, program, ClusterConfig::paper_testbed(servers)).unwrap()
    }

    fn replicas(system: SystemKind, g: &Graph, servers: u32) -> Vec<u32> {
        let hybrid = system == SystemKind::PowerLyra;
        replica_counts(hybrid, g, &g.to_csr(), &g.to_csc(), servers)
    }

    /// Mean servers per vertex, an isolated vertex counting as one.
    fn replication_factor(system: SystemKind, g: &Graph, servers: u32) -> f64 {
        let total: u64 = replicas(system, g, servers)
            .iter()
            .map(|&r| u64::from(r.max(1)))
            .sum();
        total as f64 / g.num_vertices() as f64
    }

    #[test]
    fn graphd_computes_same_values_but_reads_disk() {
        let g = RmatGenerator::new(7, 6).generate(4);
        let pregel = on(SystemKind::PregelPlus, &g, &PageRank::new(5), 3);
        let graphd = on(SystemKind::GraphD, &g, &PageRank::new(5), 3);
        assert!(reference::max_abs_diff(&pregel.values, &graphd.values) < 1e-12);
        assert_eq!(pregel.metrics.total_disk_bytes(), 0);
        assert!(graphd.metrics.total_disk_bytes() > 0);
        // The disk traffic makes GraphD slower under the cost model.
        assert!(graphd.avg_superstep_seconds() > pregel.avg_superstep_seconds());
        // And Pregel+ needs much more memory per server than GraphD.
        assert!(pregel.per_server_memory_bytes > graphd.per_server_memory_bytes);
    }

    #[test]
    fn message_combining_bounds_network_traffic() {
        let g = RmatGenerator::new(8, 8).generate(6);
        let result = on(SystemKind::PregelPlus, &g, &PageRank::new(2), 4);
        for report in &result.metrics.supersteps {
            let wire = report.total_network_bytes() / MESSAGE_BYTES;
            // Combined traffic can never exceed |E| messages and never exceeds
            // (N-1) * |V| distinct (target, sender) pairs.
            assert!(wire <= g.num_edges());
            assert!(wire <= 3 * g.num_vertices());
        }
    }

    #[test]
    fn sssp_on_path_skips_inactive_vertices() {
        let g = path_graph(50);
        let result = on(SystemKind::PregelPlus, &g, &Sssp::new(0), 2);
        // After the first superstep (where every vertex is active, Pregel-style) only
        // the frontier vertex is active, so edges processed per superstep stay tiny.
        for report in result.metrics.supersteps.iter().skip(1) {
            assert!(report.total_edges_processed() <= 2);
        }
        assert_eq!(
            reference::max_abs_diff(&result.values, &reference::sssp(&g, 0)),
            0.0
        );
    }

    #[test]
    fn only_reached_vertices_send_messages() {
        // SSSP from the middle of a path: the first half is never reached, so
        // it scans its out-edges in superstep 0 but sends nothing, ever.
        let g = path_graph(20);
        for system in SystemKind::BASELINES {
            let result = on(system, &g, &Sssp::new(10), 1);
            let produced: u64 = (result.metrics.supersteps.iter())
                .map(|r| r.servers[0].messages_produced)
                .sum();
            let expected = match system {
                // One message per edge out of a vertex in the superstep after
                // it was reached: 10 -> 11 ... 18 -> 19.
                SystemKind::PregelPlus | SystemKind::GraphD => 9,
                // Chaos re-sends from every reached vertex in each of the ten
                // supersteps; vertex 19 has no out-edge.
                SystemKind::Chaos => (1..=10).map(|k: u64| k.min(9)).sum(),
                // A single server has no mirrors to sync.
                _ => 0,
            };
            assert_eq!(produced, expected, "{}", system.name());
        }
    }

    #[test]
    fn single_server_has_no_network_traffic() {
        let g = RmatGenerator::new(6, 4).generate(2);
        let result = on(SystemKind::PregelPlus, &g, &PageRank::new(3), 1);
        assert_eq!(result.metrics.total_network_bytes(), 0);
    }

    #[test]
    fn replication_factor_grows_with_cluster_size() {
        let g = RmatGenerator::new(9, 8).generate(2);
        let small = replication_factor(SystemKind::PowerGraph, &g, 2);
        let large = replication_factor(SystemKind::PowerGraph, &g, 9);
        assert!(large > small, "replication {small} -> {large}");
        assert!(small >= 1.0);
        assert!(large <= 9.0);
    }

    #[test]
    fn hybrid_cut_replicates_less_than_random_cut() {
        // PowerLyra's selling point: lower replication factor on skewed graphs.
        let g = RmatGenerator::new(9, 8).generate(7);
        let random = replication_factor(SystemKind::PowerGraph, &g, 9);
        let hybrid = replication_factor(SystemKind::PowerLyra, &g, 9);
        assert!(
            hybrid < random,
            "hybrid cut {hybrid} should beat random cut {random}"
        );
    }

    #[test]
    fn network_traffic_scales_with_replication_not_edges() {
        let g = RmatGenerator::new(8, 10).generate(5);
        let m = replication_factor(SystemKind::PowerGraph, &g, 4);
        let result = on(SystemKind::PowerGraph, &g, &PageRank::new(2), 4);
        for report in &result.metrics.supersteps {
            let messages: u64 = report.servers.iter().map(|s| s.network_messages).sum();
            let bound = (2.0 * m * g.num_vertices() as f64 * 1.05) as u64 + 16;
            assert!(messages <= bound, "messages {messages} bound {bound}");
        }
    }

    #[test]
    fn single_server_has_no_sync_traffic() {
        let g = RmatGenerator::new(6, 4).generate(1);
        let result = on(SystemKind::PowerGraph, &g, &PageRank::new(3), 1);
        assert_eq!(result.metrics.total_network_bytes(), 0);
        assert!((replication_factor(SystemKind::PowerGraph, &g, 1) - 1.0).abs() < 1e-9);
    }

    /// Replica counts as the vertex-cut engine kept them: one `u64` server
    /// mask per vertex, so at most 64 servers.
    fn replica_masks(hybrid: bool, g: &Graph, servers: u32) -> Vec<u32> {
        let mut present = vec![0u64; g.num_vertices() as usize];
        for e in g.edges().iter() {
            let s = edge_server(hybrid, e.src, e.dst, g.in_degrees(), servers);
            present[e.src as usize] |= 1 << s;
            present[e.dst as usize] |= 1 << s;
        }
        present.iter().map(|mask| mask.count_ones()).collect()
    }

    #[test]
    fn replica_counts_match_the_server_masks_up_to_64_servers() {
        let g = RmatGenerator::new(9, 8).generate(7);
        for servers in [1, 2, 9, 33, 64] {
            for system in [SystemKind::PowerGraph, SystemKind::PowerLyra] {
                let hybrid = system == SystemKind::PowerLyra;
                assert_eq!(
                    replicas(system, &g, servers),
                    replica_masks(hybrid, &g, servers),
                    "{} on {servers} servers",
                    system.name()
                );
            }
        }
    }

    #[test]
    fn vertex_cuts_run_past_64_servers() {
        let g = RmatGenerator::new(9, 8).generate(7);
        for servers in [65, 128] {
            for system in [SystemKind::PowerGraph, SystemKind::PowerLyra] {
                let hybrid = system == SystemKind::PowerLyra;
                let mut sets = vec![BTreeSet::new(); g.num_vertices() as usize];
                for e in g.edges().iter() {
                    let s = edge_server(hybrid, e.src, e.dst, g.in_degrees(), servers);
                    sets[e.src as usize].insert(s);
                    sets[e.dst as usize].insert(s);
                }
                let expected: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();
                assert_eq!(replicas(system, &g, servers), expected, "{servers}");
                assert!(expected.iter().any(|&r| r > 64), "a hub spans > 64 servers");
                let result = on(system, &g, &PageRank::new(3), servers);
                assert!(
                    reference::max_abs_diff(&result.values, &reference::pagerank(&g, 3)) < 1e-9
                );
                assert!(result.metrics.total_network_bytes() > 0);
            }
        }
    }

    #[test]
    fn chaos_streams_all_edges_every_superstep() {
        let g = grid_graph(8, 8);
        let result = on(SystemKind::Chaos, &g, &Sssp::new(0), 2);
        // Unlike Pregel+ (which only touches the frontier), every superstep's disk
        // traffic covers the whole edge set.
        for report in &result.metrics.supersteps {
            assert!(report.total_disk_read_bytes() >= g.num_edges() * EDGE_BYTES);
            assert!(report.total_network_bytes() > 0);
        }
    }

    #[test]
    fn chaos_is_slower_than_pregel_plus_on_the_same_job() {
        // Figure 1b / 9: in-memory Pregel+ beats the out-of-core engines by a wide
        // margin because it performs no disk I/O.
        let g = RmatGenerator::new(9, 8).generate(3);
        let pregel = on(SystemKind::PregelPlus, &g, &PageRank::new(3), 3);
        let chaos = on(SystemKind::Chaos, &g, &PageRank::new(3), 3);
        assert!(
            chaos.avg_superstep_seconds() > 2.0 * pregel.avg_superstep_seconds(),
            "chaos {} vs pregel {}",
            chaos.avg_superstep_seconds(),
            pregel.avg_superstep_seconds()
        );
        // But Chaos needs far less memory.
        assert!(chaos.per_server_memory_bytes < pregel.per_server_memory_bytes);
        assert!(reference::max_abs_diff(&pregel.values, &chaos.values) < 1e-9);
    }
}
