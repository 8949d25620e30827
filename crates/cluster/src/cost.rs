//! The cost model: metered work → simulated time.
//!
//! A superstep under BSP finishes when the slowest server finishes (Algorithm 5
//! line 17, `wait_other_servers`). Each server's time is the sum of:
//!
//! * **compute** — edges processed divided by the aggregate worker rate,
//! * **disk** — bytes moved divided by the (shared) disk bandwidth plus a per-request
//!   latency charge,
//! * **network** — the larger of bytes sent / bytes received divided by the NIC
//!   bandwidth plus per-message latency (full-duplex NIC),
//! * **codec** — accumulated compression/decompression seconds (already time units).
//!
//! Compute overlaps poorly with disk in the paper's engines (a worker blocks on its
//! tile read), so the components are summed, which matches the paper's observation
//! that out-of-core engines are dominated by their disk term and GraphH by compute
//! once the cache is warm.

use crate::config::ClusterConfig;
use crate::metrics::{ServerMetrics, SuperstepReport};

/// Time breakdown for one server in one superstep (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Gather/apply/scatter arithmetic.
    pub compute: f64,
    /// Local disk transfer + latency.
    pub disk: f64,
    /// Network transfer + latency.
    pub network: f64,
    /// Compression + decompression.
    pub codec: f64,
}

impl CostBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.compute + self.disk + self.network + self.codec
    }
}

/// Converts [`ServerMetrics`] into simulated seconds for a given cluster.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    config: ClusterConfig,
}

impl CostModel {
    /// A cost model for `config`.
    pub fn new(config: ClusterConfig) -> Self {
        Self { config }
    }

    /// The cluster configuration this model uses.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Time breakdown of one server's superstep.
    pub fn server_breakdown(&self, m: &ServerMetrics) -> CostBreakdown {
        let spec = self.config.machine;
        let compute =
            m.edges_processed as f64 / (spec.edges_per_second_per_worker * f64::from(spec.workers));
        let disk_bytes_time = m.disk_read_bytes as f64 / spec.disk_read_bw
            + m.disk_write_bytes as f64 / spec.disk_write_bw;
        let disk_latency_time = (m.disk_read_ops + m.disk_write_ops) as f64 * spec.disk_latency;
        let network_bytes = m.network_sent_bytes.max(m.network_received_bytes) as f64;
        let network =
            network_bytes / spec.network_bw + m.network_messages as f64 * spec.network_latency;
        CostBreakdown {
            compute,
            disk: disk_bytes_time + disk_latency_time,
            network,
            codec: m.compress_seconds + m.decompress_seconds,
        }
    }

    /// Simulated duration of a superstep: the slowest server's total (BSP barrier).
    pub fn superstep_seconds(&self, report: &SuperstepReport) -> f64 {
        report
            .servers
            .iter()
            .map(|m| self.server_breakdown(m).total())
            .fold(0.0, f64::max)
    }

    /// Fill in `report.simulated_seconds` and return it.
    pub fn finalize(&self, mut report: SuperstepReport) -> SuperstepReport {
        report.simulated_seconds = self.superstep_seconds(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(ClusterConfig::paper_testbed(3))
    }

    #[test]
    fn compute_only_server() {
        let m = ServerMetrics {
            edges_processed: 120_000_000 * 12, // exactly one second of all-worker compute
            ..Default::default()
        };
        let b = model().server_breakdown(&m);
        assert!((b.compute - 1.0).abs() < 1e-9);
        assert_eq!(b.disk, 0.0);
        assert_eq!(b.network, 0.0);
        assert!((b.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disk_term_includes_latency() {
        let m = ServerMetrics {
            disk_read_bytes: 310_000_000, // one second at RAID5 read bandwidth
            disk_read_ops: 10,
            ..Default::default()
        };
        let b = model().server_breakdown(&m);
        assert!((b.disk - (1.0 + 10.0 * 8.0e-3)).abs() < 1e-6);
    }

    #[test]
    fn network_is_full_duplex_max_of_directions() {
        let m = ServerMetrics {
            network_sent_bytes: 1_250_000_000,
            network_received_bytes: 600_000_000,
            network_messages: 0,
            ..Default::default()
        };
        let b = model().server_breakdown(&m);
        assert!((b.network - 1.0).abs() < 1e-6);
    }

    #[test]
    fn superstep_is_bounded_by_slowest_server() {
        let mut report = SuperstepReport::new(0, 3);
        report.servers[0].edges_processed = 1_000_000;
        report.servers[1].edges_processed = 100_000_000 * 12; // slowest
        report.servers[2].disk_read_bytes = 1000;
        let model = model();
        let t = model.superstep_seconds(&report);
        let slowest = model.server_breakdown(&report.servers[1]).total();
        assert!((t - slowest).abs() < 1e-12);
        let finalized = model.finalize(report);
        assert!((finalized.simulated_seconds - t).abs() < 1e-12);
    }

    #[test]
    fn codec_seconds_pass_through() {
        let m = ServerMetrics {
            decompress_seconds: 0.5,
            compress_seconds: 0.25,
            ..Default::default()
        };
        assert!((model().server_breakdown(&m).codec - 0.75).abs() < 1e-12);
    }

    #[test]
    fn out_of_core_disk_traffic_dominates_in_memory_compute() {
        // Sanity check of the shape the paper reports: streaming |E| edges from disk
        // costs far more than processing them in memory.
        let edges: u64 = 1_000_000_000;
        let in_memory = ServerMetrics {
            edges_processed: edges,
            ..Default::default()
        };
        let out_of_core = ServerMetrics {
            edges_processed: edges,
            disk_read_bytes: edges * 8,
            disk_read_ops: 100,
            ..Default::default()
        };
        let model = model();
        let t_mem = model.server_breakdown(&in_memory).total();
        let t_ooc = model.server_breakdown(&out_of_core).total();
        assert!(t_ooc > 10.0 * t_mem, "ooc {t_ooc} vs mem {t_mem}");
    }
}
