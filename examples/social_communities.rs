//! Social-network community structure: weakly connected components and degree
//! centrality over a Twitter-like graph, run on the GraphH engine and cross-checked
//! against the in-memory Pregel+ baseline.
//!
//! Run with: `cargo run --release --example social_communities`

use graphh::baselines;
use graphh::prelude::*;
use std::collections::HashMap;

fn main() {
    // A follower-graph-like synthetic network, symmetrised for WCC.
    let directed = Dataset::Twitter2010.default_spec().generate(3);
    let mut builder = GraphBuilder::new()
        .with_num_vertices(directed.num_vertices())
        .symmetric(true);
    for e in directed.edges().iter() {
        builder.add_edge(e);
    }
    let graph = builder.build().unwrap();

    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("twitter", &graph, 36)).unwrap();
    let engine = GraphHEngine::new(GraphHConfig::paper_default(ClusterConfig::paper_testbed(3)));
    let result = engine.run(&partitioned, &Wcc::new()).unwrap();

    let mut component_sizes: HashMap<u64, u64> = HashMap::new();
    for &label in &result.values {
        *component_sizes.entry(label as u64).or_default() += 1;
    }
    let mut sizes: Vec<u64> = component_sizes.values().copied().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "{} weak components; largest holds {:.1}% of vertices",
        sizes.len(),
        100.0 * sizes[0] as f64 / graph.num_vertices() as f64
    );

    // Cross-check against the Pregel+ baseline.
    let cluster = ClusterConfig::paper_testbed(3);
    let pregel = baselines::run(SystemKind::PregelPlus, &graph, &Wcc::new(), cluster).unwrap();
    let agree = result
        .values
        .iter()
        .zip(&pregel.values)
        .all(|(a, b)| a == b);
    println!("GraphH and Pregel+ agree on every component label: {agree}");

    // Degree centrality: the most-followed accounts.
    let centrality = engine.run(&partitioned, &DegreeCentrality::new()).unwrap();
    let mut top: Vec<(usize, f64)> = centrality.values.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("most connected accounts (vertex, degree):");
    for (v, d) in top.iter().take(5) {
        println!("  {v:8}  {d:.0}");
    }
}
