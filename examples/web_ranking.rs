//! Web ranking at "big graph in a small cluster" scale: runs PageRank over the
//! UK-2007 stand-in on 1, 3, 6 and 9 simulated servers and shows how the simulated
//! superstep time and memory change with the cluster size (the paper's Figure 9
//! storyline).
//!
//! Run with: `cargo run --release --example web_ranking`

use graphh::graph::properties::human_bytes;
use graphh::prelude::*;

fn main() {
    let spec = Dataset::Uk2007.default_spec();
    println!(
        "UK-2007 stand-in: {} vertices, {} edges (1/{:.0} of the paper's crawl)",
        spec.num_vertices,
        spec.num_edges,
        spec.edge_scale_ratio()
    );
    let graph = spec.generate(7);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("uk-2007", &graph, 36)).unwrap();

    println!("servers\tavg superstep (simulated s)\tpeak memory/server\tnetwork/superstep");
    for servers in [1u32, 3, 6, 9] {
        let engine = GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(
            servers,
        )));
        let result = engine.run(&partitioned, &PageRank::new(10)).unwrap();
        let peak = result.metrics.peak_memory_bytes();
        let network = result.metrics.total_network_bytes() / result.supersteps_run.max(1) as u64;
        println!(
            "{servers}\t{:.4}\t{}\t{}",
            result.avg_superstep_seconds(),
            human_bytes(peak),
            human_bytes(network)
        );
    }
}
