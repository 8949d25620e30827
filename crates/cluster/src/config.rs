//! Cluster and machine descriptions.

/// Hardware description of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Worker threads per server (the paper's `T`, OpenMP threads).
    pub workers: u32,
    /// Main memory per server in bytes.
    pub memory_bytes: u64,
    /// Sequential disk read bandwidth in bytes/second (shared by all workers).
    pub disk_read_bw: f64,
    /// Sequential disk write bandwidth in bytes/second.
    pub disk_write_bw: f64,
    /// Per-request disk latency in seconds (seek + queueing), charged per read op.
    pub disk_latency: f64,
    /// Network bandwidth in bytes/second (full duplex, per server NIC).
    pub network_bw: f64,
    /// Per-message network latency in seconds.
    pub network_latency: f64,
    /// Edge processing rate of one worker in edges/second (gather+apply arithmetic).
    pub edges_per_second_per_worker: f64,
}

impl MachineSpec {
    /// The paper's testbed node: 12 cores (2× Xeon E5-2620), 128 GB RAM, 4×4 TB
    /// RAID5 HDDs (~310 MB/s sequential read), 10 Gbps Ethernet.
    pub fn paper_testbed() -> Self {
        Self {
            workers: 12,
            memory_bytes: 128 * 1024 * 1024 * 1024,
            disk_read_bw: 310.0e6,
            disk_write_bw: 200.0e6,
            disk_latency: 8.0e-3,
            network_bw: 1.25e9, // 10 Gbps
            network_latency: 100.0e-6,
            edges_per_second_per_worker: 120.0e6,
        }
    }

    /// A deliberately small machine for tests (tiny memory so spilling paths trigger).
    pub fn tiny(memory_bytes: u64) -> Self {
        Self {
            workers: 2,
            memory_bytes,
            disk_read_bw: 100.0e6,
            disk_write_bw: 80.0e6,
            disk_latency: 5.0e-3,
            network_bw: 1.0e9,
            network_latency: 50.0e-6,
            edges_per_second_per_worker: 50.0e6,
        }
    }
}

/// A cluster: `num_servers` identical machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of servers.
    pub num_servers: u32,
    /// Per-server hardware.
    pub machine: MachineSpec,
}

impl ClusterConfig {
    /// A cluster of `num_servers` paper-testbed nodes (the evaluation uses 1, 3, 6, 9).
    pub fn paper_testbed(num_servers: u32) -> Self {
        assert!(num_servers > 0, "cluster must have at least one server");
        Self {
            num_servers,
            machine: MachineSpec::paper_testbed(),
        }
    }

    /// A small test cluster with the given per-server memory.
    pub fn tiny(num_servers: u32, memory_bytes: u64) -> Self {
        assert!(num_servers > 0, "cluster must have at least one server");
        Self {
            num_servers,
            machine: MachineSpec::tiny(memory_bytes),
        }
    }

    /// The same cluster with a different per-server worker count (the paper's
    /// `T`). This feeds both the cost model (edge-processing rate scales with
    /// workers) and the *default* tile-phase thread count when
    /// `GraphHConfig::threads_per_server` is unset; to vary real threads
    /// without touching the simulated cost, use
    /// `GraphHConfig::with_threads_per_server` instead (the bench axis does).
    pub fn with_workers(mut self, workers: u32) -> Self {
        assert!(workers > 0, "each server needs at least one worker thread");
        self.machine.workers = workers;
        self
    }

    /// Total workers across the cluster (the paper's `T × N`).
    pub fn total_workers(&self) -> u32 {
        self.num_servers * self.machine.workers
    }

    /// Total memory across the cluster in bytes.
    pub fn total_memory_bytes(&self) -> u64 {
        u64::from(self.num_servers) * self.machine.memory_bytes
    }

    /// The expected Pregel-style message combining ratio η for a graph with the given
    /// average degree (footnote 3 of the paper):
    /// `η ≈ (1 − exp(−d_avg / (T·N))) · (T·N) / d_avg`.
    pub fn combining_ratio(&self, avg_degree: f64) -> f64 {
        if avg_degree <= 0.0 {
            return 1.0;
        }
        let tn = f64::from(self.total_workers());
        ((1.0 - (-avg_degree / tn).exp()) * tn / avg_degree).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_description() {
        let c = ClusterConfig::paper_testbed(9);
        assert_eq!(c.num_servers, 9);
        assert_eq!(c.machine.workers, 12);
        assert_eq!(c.machine.memory_bytes, 128 * 1024 * 1024 * 1024);
        assert_eq!(c.total_workers(), 108);
        assert_eq!(c.total_memory_bytes(), 9 * 128 * 1024 * 1024 * 1024);
    }

    #[test]
    fn combining_ratio_matches_paper_example() {
        // Paper footnote: EU-2015 (d_avg = 85.7) on 9 nodes with 216 workers → η ≈ 0.82.
        let mut c = ClusterConfig::paper_testbed(9);
        c.machine.workers = 24;
        let eta = c.combining_ratio(85.7);
        assert!((eta - 0.82).abs() < 0.03, "eta = {eta}");
    }

    #[test]
    fn combining_ratio_bounds() {
        let c = ClusterConfig::paper_testbed(9);
        assert_eq!(c.combining_ratio(0.0), 1.0);
        // Very dense graphs combine almost everything away.
        assert!(c.combining_ratio(1e6) < 0.01);
        // Ratio is always in (0, 1].
        for d in [0.5, 5.0, 50.0, 500.0] {
            let eta = c.combining_ratio(d);
            assert!(eta > 0.0 && eta <= 1.0);
        }
    }

    #[test]
    fn with_workers_overrides_machine_workers() {
        let c = ClusterConfig::paper_testbed(3).with_workers(4);
        assert_eq!(c.machine.workers, 4);
        assert_eq!(c.total_workers(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ClusterConfig::paper_testbed(1).with_workers(0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = ClusterConfig::paper_testbed(0);
    }
}
