//! Road-network navigation: single-source shortest paths over a weighted grid
//! (a stand-in for a road network), showing how GraphH's tile skipping — a tile none
//! of whose source vertices moved last superstep is neither fetched nor gathered —
//! pays off on frontier algorithms.
//!
//! Run with: `cargo run --release --example road_navigation`

use graphh::prelude::*;

fn main() {
    // A 200 x 200 grid "city": ~40k intersections, 4-neighbour roads.
    let graph = graphh::graph::generators::grid_graph(200, 200);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("city", &graph, 32)).unwrap();
    let source = 0;

    for skip_tiles in [true, false] {
        let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
        // The field keeps the paper's name; what it switches is the per-tile
        // source-set probe.
        cfg.use_bloom_filter = skip_tiles;
        let result = GraphHEngine::new(cfg)
            .run(&partitioned, &Sssp::new(source))
            .unwrap();
        let skipped: u64 = result
            .metrics
            .supersteps
            .iter()
            .flat_map(|r| r.servers.iter())
            .map(|s| s.tiles_skipped)
            .sum();
        let processed: u64 = result
            .metrics
            .supersteps
            .iter()
            .flat_map(|r| r.servers.iter())
            .map(|s| s.tiles_processed)
            .sum();
        println!(
            "tile skipping {}: {} supersteps, {:.3} simulated s total, tiles processed {}, skipped {}",
            if skip_tiles { "on " } else { "off" },
            result.supersteps_run,
            result.total_seconds(),
            processed,
            skipped
        );
        // Sanity: far corner is reachable in (rows-1)+(cols-1) hops.
        let far = result.values[graph.num_vertices() as usize - 1];
        assert_eq!(far, 398.0);
    }
}
