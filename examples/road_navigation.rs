//! Road-network navigation: single-source shortest paths over a weighted grid
//! (a stand-in for a road network), showing how little of the graph GraphH
//! touches for a wavefront. Left to itself the engine pushes every superstep —
//! it walks the out-edges of the few intersections that moved and reads no
//! tile. Pinned to the paper's pull loop it still skips every tile none of
//! whose source vertices moved; with that probe off too, every superstep
//! fetches and gathers every tile. The distances are the same all three ways.
//!
//! Run with: `cargo run --release --example road_navigation`

use graphh::prelude::*;

fn main() {
    // A 200 x 200 grid "city": ~40k intersections, 4-neighbour roads.
    let graph = graphh::graph::generators::grid_graph(200, 200);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("city", &graph, 32)).unwrap();
    let source = 0;

    let runs = [
        ("engine's choice       ", DirectionMode::Auto, true),
        ("pull, tile skipping on ", DirectionMode::ForcePull, true),
        ("pull, tile skipping off", DirectionMode::ForcePull, false),
    ];
    for (label, direction, skip_tiles) in runs {
        let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3))
            .with_direction_mode(direction);
        // The field keeps the paper's name; what it switches is the per-tile
        // source-set probe of the pull loop.
        cfg.use_bloom_filter = skip_tiles;
        let result = GraphHEngine::new(cfg)
            .run(&partitioned, &Sssp::new(source))
            .unwrap();
        let servers = || result.metrics.supersteps.iter().flat_map(|r| &r.servers);
        let skipped: u64 = servers().map(|s| s.tiles_skipped).sum();
        let processed: u64 = servers().map(|s| s.tiles_processed).sum();
        let edges: u64 = servers().map(|s| s.edges_processed).sum();
        println!(
            "{label}: {} supersteps, {:.3} simulated s total, tiles processed {processed}, \
             skipped {skipped}, edges walked {edges}",
            result.supersteps_run,
            result.total_seconds(),
        );
        // Sanity: far corner is reachable in (rows-1)+(cols-1) hops.
        let far = result.values[graph.num_vertices() as usize - 1];
        assert_eq!(far, 398.0);
    }
}
