//! Prints the data behind every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! report                # print everything
//! report fig9 table5    # print selected experiments
//! report --list         # list experiment ids
//! ```
//!
//! These are the cost model's numbers. Measured performance is the
//! benchmark's job: `bash benchmark/run.sh`.

use graphh_bench::*;
use graphh_graph::datasets::Dataset;

type Experiment = (&'static str, fn() -> String);

fn available() -> Vec<Experiment> {
    vec![
        ("table1", || table1_datasets()),
        ("fig1a", || fig1a_memory_requirements()),
        ("fig1b", || fig1b_execution_time()),
        ("table3", || table3_cost_comparison(Dataset::Uk2007)),
        ("table4", || table4_input_sizes()),
        ("fig6a", || fig6a_replication_policies()),
        ("fig6b", || fig6b_memory_usage()),
        ("table5", || table5_compression()),
        ("fig7", || fig7_cache_modes()),
        ("fig8", || fig8_communication(40)),
        ("fig9", || fig9_pagerank(6)),
        ("fig10", || fig10_sssp()),
        ("ablations", || ablations()),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = available();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &experiments {
            println!("{name}");
        }
        return;
    }
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| experiments.iter().all(|(name, _)| name != a))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id: {}; use --list to see the available ids",
            unknown.join(", ")
        );
        std::process::exit(1);
    }
    let selected = experiments
        .iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name));
    for (name, f) in selected {
        println!("==== {name} ====");
        println!("{}", f());
    }
}
