//! Prints the data behind every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! report                # print everything (and write BENCH_runtime.json)
//! report fig9 table5    # print selected experiments
//! report runtime        # executor shoot-out (also writes BENCH_runtime.json)
//! report --list         # list experiment ids
//! ```
//!
//! Whenever the `runtime` experiment runs, its measurements are additionally
//! written to `BENCH_runtime.json` in the current directory, so the wall-clock
//! trajectory of the executors is recorded machine-readably run over run.

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
        ("runtime", runtime_and_record_json),
    ]
}

/// The executor comparison: measure once (the sweep and the pool spawn-cost
/// microbenchmark), render the table from that measurement, and record the
/// same numbers to `BENCH_runtime.json`.
fn runtime_and_record_json() -> String {
    let rows = runtime_rows();
    let sweep = kernel_sweep();
    let pool = pool_spawn_microbench();
    let codec = codec_microbench();
    let phases = phase_breakdown();
    let ooc = out_of_core_row();
    let mut out = runtime_report(&rows, &sweep, &pool, &codec, &phases, &ooc);
    match std::fs::write(
        "BENCH_runtime.json",
        runtime_json(&rows, &sweep, &pool, &codec, &phases, &ooc),
    ) {
        Ok(()) => out.push_str("(wrote BENCH_runtime.json)\n"),
        Err(e) => out.push_str(&format!("could not write BENCH_runtime.json: {e}\n")),
    }
    out
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
    let selected: Vec<&Experiment> = if args.is_empty() {
        experiments.iter().collect()
    } else {
        experiments
            .iter()
            .filter(|(name, _)| args.iter().any(|a| a == name))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiment; use --list to see the available ids");
        std::process::exit(1);
    }
    for (name, f) in &selected {
        println!("==== {name} ====");
        println!("{}", f());
    }
}
