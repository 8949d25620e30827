//! The GraphH benchmark harness. `benchmark/README.md` is the manual.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload (what `BENCHMARK.json`'s command runs). Prints each metric by
//!   name with its unit, then one JSON object as the last line of stdout.
//! * no `--workload` — every workload, an untraced and a traced pass each.
//! * `--check-repeat` — every workload's untraced pass twice, compared
//!   against the bounds.
//!
//! The modes that run several passes start one child process per pass, so
//! every pass measures its own peak memory.

mod cluster;
mod inputs;
mod layers;
mod pass;
mod spec;
mod stats;
mod trace;
mod verify;
mod workload;

use graphh::obs::JsonValue;
use spec::Better;
use stats::summarize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: graphh-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--check-repeat] [--print-benchmark-json]
workloads: pr-cluster sssp-grid pr-outofcore bfs-rmat
environment: GRAPHH_NODE_BIN (the graphh-node binary), GRAPHH_BENCH_OUT (scratch and traces)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2017,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        check_repeat: false,
        print_benchmark_json: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad value for {flag}: {value}");
                match flag.as_str() {
                    "--workload" => args.workload = Some(value),
                    "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        args.seconds = value.parse().map_err(|_| bad())?;
                        if args.seconds.is_nan() || args.seconds < 0.0 {
                            return Err(bad());
                        }
                    }
                    _ => {
                        args.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        }
                    }
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn node_bin() -> PathBuf {
    std::env::var_os("GRAPHH_NODE_BIN").map_or_else(
        || PathBuf::from("target/release/graphh-node"),
        PathBuf::from,
    )
}

fn out_dir() -> PathBuf {
    std::env::var_os("GRAPHH_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// One pass of one workload; prints the report and the final JSON line.
fn single_pass(args: &Args, name: &str) -> Result<bool, String> {
    let workload =
        workload::find(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let options = pass::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        node_bin: node_bin(),
        out_dir: out_dir(),
    };
    if matches!(workload.driver, workload::Driver::Cluster) && !options.node_bin.is_file() {
        return Err(format!(
            "{} is not a file; build graphh-node first (benchmark/run.sh does)",
            options.node_bin.display()
        ));
    }
    let output = pass::run(&options)?;
    for error in &output.errors {
        eprintln!("FAILED {error}");
    }
    println!(
        "workload {name} seed {} trace {}: {} attempted, {} failed, {}",
        args.seed,
        u8::from(args.trace),
        output.attempted,
        output.failed,
        if output.cpus.is_empty() {
            "not pinned".to_string()
        } else {
            format!("one CPU at a time, taking turns on {:?}", output.cpus)
        }
    );

    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    let mut complete = true;
    if args.trace {
        for m in spec::per_layer() {
            match output.per_layer.get(&m.name) {
                Some(&value) => metrics.push((m.name, m.unit, value)),
                None => complete = false,
            }
        }
        for (name, unit, value) in &metrics {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
        let own = trace::self_times_us(&output.spans);
        println!("  harness spans (self time = span minus children):");
        for (span, own_us) in output.spans.iter().zip(own) {
            let depth = std::iter::successors(span.parent, |&p| output.spans[p].parent).count();
            println!(
                "    {:indent$}{:<w$} {:>10.3} ms  self {:>10.3} ms",
                "",
                span.name,
                (span.end_us - span.start_us) as f64 / 1e3,
                own_us as f64 / 1e3,
                indent = depth * 2,
                w = 28usize.saturating_sub(depth * 2),
            );
        }
        let path = options.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::chrome_json(name, &output.spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    } else {
        // The reported value, then what the trials behind it looked like
        // (the rates have no samples of their own: they follow from `run_s`).
        for (m, bound) in spec::end_to_end() {
            let Some(&value) = output.end_to_end.get(m.name.as_str()) else {
                complete = false;
                continue;
            };
            let trials = output
                .trials
                .get(m.name.as_str())
                .and_then(|s| summarize(s))
                .map_or(String::new(), |s| {
                    format!(
                        "  trials: min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}  n {}",
                        s.min, s.q1, s.median, s.q3, s.max, s.n
                    )
                });
            println!(
                "  {:<16} {:>16.4} {:<9} ({} is better, bound {:.0} %){trials}",
                m.name,
                value,
                m.unit,
                m.better.as_str(),
                bound * 100.0
            );
            metrics.push((m.name, m.unit, value));
        }
    }
    if !complete {
        // No trial produced a sample: there is no result to print.
        return Err("no successful trial".into());
    }
    let correct = output.failed == 0
        && output.errors.is_empty()
        && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        output.attempted,
        output.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// Run one pass in a child process, echo its report, and return the
/// metrics of its final JSON line (`None` when it failed).
fn child_pass(
    args: &Args,
    name: &str,
    trace: bool,
) -> Result<Option<BTreeMap<String, f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    print!("{stdout}");
    if !child.status.success() {
        return Ok(None);
    }
    let last = stdout.lines().last().unwrap_or_default();
    let json = JsonValue::parse(last).map_err(|e| format!("final line of {name}: {e}"))?;
    let Some(JsonValue::Object(fields)) = json.get("metrics") else {
        return Err(format!("final line of {name} has no metrics"));
    };
    Ok(Some(
        fields
            .iter()
            .filter_map(|(metric, v)| Some((metric.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    ))
}

/// Every workload, untraced then traced.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for (name, why) in spec::WORKLOADS {
        println!("== {name}: {why}");
        for trace in [false, true] {
            ok &= child_pass(args, name, trace)?.is_some();
        }
    }
    Ok(ok)
}

/// Every workload's untraced pass twice on this build; every pair of
/// reported values must agree within the metric's bound.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut ok = true;
    for (name, _) in spec::WORKLOADS {
        let first = child_pass(args, name, false)?;
        let second = child_pass(args, name, false)?;
        let (Some(first), Some(second)) = (first, second) else {
            ok = false;
            continue;
        };
        for (m, bound) in spec::end_to_end() {
            let (a, b) = (first[&m.name], second[&m.name]);
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let within = worse.abs() <= bound;
            ok &= within;
            rows.push(format!(
                "{name:<22} {:<16} {a:>16.4} {b:>16.4} {:>+9.2} % {:>6.0} %  {}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDS" }
            ));
        }
    }
    println!("== check-repeat: two sets of runs of the same build (positive = second is worse)");
    println!(
        "{:<22} {:<16} {:>16} {:>16} {:>11} {:>8}",
        "workload", "metric", "first", "second", "difference", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("graphh-benchmark: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match (&args.workload, args.check_repeat) {
        (Some(name), _) => single_pass(&args, name),
        (None, true) => check_repeat(&args),
        (None, false) => all_workloads(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("graphh-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
