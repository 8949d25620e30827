//! Per-server and per-superstep work counters.
//!
//! Engines record everything they do into a [`ServerMetrics`] per simulated server;
//! at the end of a superstep the cost model turns the counters into time and the
//! experiment harness records them for the figures (network traffic for Fig. 8,
//! memory for Fig. 1a/6b, cache hit ratio for Fig. 7b, …). Memory is the one
//! figure that is not a count of work: each superstep's entry is the most the
//! server has held so far, and [`ClusterMetrics::peak_memory_bytes`] is a run's
//! peak.

/// Work done by one server during one superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerMetrics {
    /// Edges offered to gather/scatter loops: a pull counts the in-degree of
    /// every target it ran, even where the gather stopped early.
    pub edges_processed: u64,
    /// Bytes read from the server's local disk.
    pub disk_read_bytes: u64,
    /// Number of local-disk read operations (for latency accounting).
    pub disk_read_ops: u64,
    /// Bytes written to the server's local disk.
    pub disk_write_bytes: u64,
    /// Number of local-disk write operations.
    pub disk_write_ops: u64,
    /// Bytes sent over the network by this server.
    pub network_sent_bytes: u64,
    /// Bytes received over the network by this server.
    pub network_received_bytes: u64,
    /// Number of network messages sent.
    pub network_messages: u64,
    /// Bytes run through a decompressor, divided by that codec's throughput, summed —
    /// i.e. accumulated decompression *time* in seconds.
    pub decompress_seconds: f64,
    /// Bytes run through a compressor (same convention) in seconds.
    pub compress_seconds: f64,
    /// Vertices whose value changed this superstep on this server.
    pub vertices_updated: u64,
    /// Messages produced by vertex programs (before combining).
    pub messages_produced: u64,
    /// Edge-cache hits.
    pub cache_hits: u64,
    /// Edge-cache misses.
    pub cache_misses: u64,
    /// Tiles skipped because no frontier vertex is one of their sources.
    pub tiles_skipped: u64,
    /// Tiles processed.
    pub tiles_processed: u64,
    /// The most this server has held up to the end of this superstep, in bytes.
    pub peak_memory_bytes: u64,
}

impl ServerMetrics {
    /// Merge another metrics record into this one (summing counters, taking the max
    /// of peak memory).
    pub fn merge(&mut self, other: &ServerMetrics) {
        self.edges_processed += other.edges_processed;
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_read_ops += other.disk_read_ops;
        self.disk_write_bytes += other.disk_write_bytes;
        self.disk_write_ops += other.disk_write_ops;
        self.network_sent_bytes += other.network_sent_bytes;
        self.network_received_bytes += other.network_received_bytes;
        self.network_messages += other.network_messages;
        self.decompress_seconds += other.decompress_seconds;
        self.compress_seconds += other.compress_seconds;
        self.vertices_updated += other.vertices_updated;
        self.messages_produced += other.messages_produced;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.tiles_skipped += other.tiles_skipped;
        self.tiles_processed += other.tiles_processed;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
    }

    /// Cache hit ratio (1.0 when the cache was never consulted).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Metrics for one superstep across the whole cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuperstepReport {
    /// Superstep index (0-based).
    pub superstep: u32,
    /// Per-server metrics, indexed by server id.
    pub servers: Vec<ServerMetrics>,
    /// Simulated wall-clock time of this superstep in seconds (set by the cost model).
    pub simulated_seconds: f64,
    /// Vertices updated across the cluster.
    pub total_vertices_updated: u64,
}

impl SuperstepReport {
    /// A report for `num_servers` servers with zeroed counters.
    pub fn new(superstep: u32, num_servers: u32) -> Self {
        Self {
            superstep,
            servers: vec![ServerMetrics::default(); num_servers as usize],
            simulated_seconds: 0.0,
            total_vertices_updated: 0,
        }
    }

    /// Total network bytes sent across all servers.
    pub fn total_network_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.network_sent_bytes).sum()
    }

    /// Total disk bytes read across all servers.
    pub fn total_disk_read_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.disk_read_bytes).sum()
    }

    /// Total disk bytes written across all servers.
    pub fn total_disk_write_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.disk_write_bytes).sum()
    }

    /// Total edges processed across all servers.
    pub fn total_edges_processed(&self) -> u64 {
        self.servers.iter().map(|s| s.edges_processed).sum()
    }

    /// Cluster-wide cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits: u64 = self.servers.iter().map(|s| s.cache_hits).sum();
        let misses: u64 = self.servers.iter().map(|s| s.cache_misses).sum();
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Maximum per-server peak memory this superstep.
    pub fn max_peak_memory_bytes(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.peak_memory_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Metrics for a whole run (all supersteps).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterMetrics {
    /// One report per superstep, in order.
    pub supersteps: Vec<SuperstepReport>,
}

impl ClusterMetrics {
    /// Append a superstep report.
    pub fn push(&mut self, report: SuperstepReport) {
        self.supersteps.push(report);
    }

    /// Number of supersteps recorded.
    pub fn num_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total simulated time of the run in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.supersteps.iter().map(|s| s.simulated_seconds).sum()
    }

    /// Average simulated time per superstep, optionally skipping the first superstep
    /// (the paper excludes it because it includes graph loading).
    pub fn avg_seconds_per_superstep(&self, skip_first: bool) -> f64 {
        let skip = usize::from(skip_first && self.supersteps.len() > 1);
        let slice = &self.supersteps[skip..];
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().map(|s| s.simulated_seconds).sum::<f64>() / slice.len() as f64
    }

    /// Peak per-server memory over the whole run.
    pub fn peak_memory_bytes(&self) -> u64 {
        self.supersteps
            .iter()
            .map(SuperstepReport::max_peak_memory_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total network traffic over the whole run.
    pub fn total_network_bytes(&self) -> u64 {
        self.supersteps
            .iter()
            .map(SuperstepReport::total_network_bytes)
            .sum()
    }

    /// Total disk traffic (read + write) over the whole run.
    pub fn total_disk_bytes(&self) -> u64 {
        self.supersteps
            .iter()
            .map(|s| s.total_disk_read_bytes() + s.total_disk_write_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_memory() {
        let mut a = ServerMetrics {
            edges_processed: 10,
            disk_read_bytes: 100,
            peak_memory_bytes: 50,
            cache_hits: 1,
            ..Default::default()
        };
        let b = ServerMetrics {
            edges_processed: 5,
            disk_read_bytes: 20,
            peak_memory_bytes: 80,
            cache_misses: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.edges_processed, 15);
        assert_eq!(a.disk_read_bytes, 120);
        assert_eq!(a.peak_memory_bytes, 80);
        assert!((a.cache_hit_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates_servers() {
        let mut r = SuperstepReport::new(0, 3);
        r.servers[0].network_sent_bytes = 100;
        r.servers[1].network_sent_bytes = 200;
        r.servers[2].disk_read_bytes = 50;
        r.servers[2].peak_memory_bytes = 999;
        assert_eq!(r.total_network_bytes(), 300);
        assert_eq!(r.total_disk_read_bytes(), 50);
        assert_eq!(r.max_peak_memory_bytes(), 999);
        assert_eq!(r.cache_hit_ratio(), 1.0);
    }

    #[test]
    fn cluster_metrics_averages_skip_first_superstep() {
        let mut m = ClusterMetrics::default();
        for (i, secs) in [10.0, 2.0, 4.0].iter().enumerate() {
            let mut r = SuperstepReport::new(i as u32, 1);
            r.simulated_seconds = *secs;
            m.push(r);
        }
        assert_eq!(m.num_supersteps(), 3);
        assert!((m.total_seconds() - 16.0).abs() < 1e-9);
        assert!((m.avg_seconds_per_superstep(false) - 16.0 / 3.0).abs() < 1e-9);
        assert!((m.avg_seconds_per_superstep(true) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = ClusterMetrics::default();
        assert_eq!(m.avg_seconds_per_superstep(true), 0.0);
        assert_eq!(m.peak_memory_bytes(), 0);
    }
}
