//! One pass of one workload: set-up, the untimed reference, the trials of
//! its driver, verification, and — on a traced pass — the traced run and
//! the layer probes.
//!
//! The load is a batch job, so the loop is closed with one client: one
//! cluster or one engine run at a time, and the harness thread sleeps while
//! a run is in flight.
//!
//! Two things keep the timings steady on a shared host (the README's
//! *Steadiness* section has the measurements behind both):
//!
//! * every repetition runs on one CPU ([`OneCpu`]; the node processes
//!   inherit it): the servers time-share it, and a run then depends on one
//!   core's neighbours instead of on two cores' at once;
//! * a timing is reported as the *fastest* repetition ([`Fastest`]), per
//!   program run: other tenants only ever add time, in bursts of seconds
//!   to minutes, so the fastest of many short repetitions is the program's
//!   own cost, while their median follows the neighbours.

use crate::cluster::{self, LaunchSpec, PhaseSpan};
use crate::inputs::{GraphKind, Inputs};
use crate::layers::{self, counter_family, LayerInputs, PhaseTotals};
use crate::stats::{median, minimum};
use crate::trace::{Recorder, Span};
use crate::verify::bit_identical;
use crate::workload::{Driver, Job, Kernel, Workload, SERVERS};
use graphh::obs::{global_counters, TraceConfig, Tracer};
use graphh::prelude::*;
use graphh::runtime::decode_values;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Trials of an untraced pass: never fewer, however short `--seconds` is.
const MIN_TRIALS: usize = 5;
/// Untraced trials of a traced pass (the base of `obs.trace_overhead_pct`),
/// and its traced runs.
const TRACED_PASS_TRIALS: usize = 3;
/// Set-up repetitions of the `engine` driver (the `cluster` driver sets up
/// once per trial instead): at least this many, and more while they fit in
/// this share of `--seconds`, so that a 5 ms grid set-up is the fastest of a
/// hundred and not of three.
const MIN_ENGINE_SETUPS: usize = 3;
const MAX_ENGINE_SETUPS: usize = 100;
const ENGINE_SETUP_SHARE: f64 = 0.15;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub node_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// What a pass measured. `end_to_end` is the value reported per metric and
/// `trials` every trial's sample behind it; `per_layer` is filled by a
/// traced pass only.
pub struct PassOutput {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The CPUs the pass took turns on (empty: it ran unpinned).
    pub cpus: Vec<usize>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub trials: Samples,
    pub per_layer: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// One CPU at a time: [`OneCpu::next`] restricts the harness thread — and
/// with it every thread and process started from it afterwards — to the
/// next of the CPUs it was allowed on at the start, so successive
/// repetitions take turns on them. Each CPU has its own neighbours on the
/// host, busy at different times (measured: nearly independent), so taking
/// turns about doubles the chance that some repetition runs undisturbed.
struct OneCpu {
    /// Empty when the kernel would not say (the pass then runs unpinned).
    cpus: Vec<usize>,
    turn: usize,
}

/// Affinity masks of up to 1024 CPUs.
const MASK_WORDS: usize = 16;

impl OneCpu {
    fn new() -> OneCpu {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is live, writable and `MASK_WORDS * 8` bytes
        // long, which is the size passed; pid 0 is the calling thread.
        let known = unsafe { sched_getaffinity(0, MASK_WORDS * 8, allowed.as_mut_ptr()) } == 0;
        let cpus = (0..MASK_WORDS * 64)
            .filter(|cpu| known && allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        OneCpu { cpus, turn: 0 }
    }

    fn next(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.turn % self.cpus.len()];
        self.turn += 1;
        let mut only = [0u64; MASK_WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is live and `MASK_WORDS * 8` bytes long. A refusal
        // leaves the previous CPU in place, which is still one CPU.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, only.as_ptr()) };
    }
}

/// The fastest repetition of each program run of a workload, kept per run
/// because a trial of several runs (the BFS sources) is rarely undisturbed
/// from end to end while each of its runs often is.
#[derive(Default)]
struct Fastest(Vec<f64>);

impl Fastest {
    fn keep(&mut self, job_s: &[f64]) {
        if self.0.is_empty() {
            self.0 = job_s.to_vec();
        }
        for (best, &now) in self.0.iter_mut().zip(job_s) {
            *best = best.min(now);
        }
    }

    /// Seconds of one trial made of every run's fastest repetition.
    fn total_s(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// A directory under `benchmark/out/` that is removed when the pass ends,
/// however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out_dir: &Path) -> std::io::Result<Self> {
        let path = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// This process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn counters_now() -> BTreeMap<String, u64> {
    global_counters().snapshot().into_iter().collect()
}

/// What the process-wide counters gained since `before`.
fn counters_since(before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters_now()
        .into_iter()
        .map(|(name, now)| {
            let was = before.get(&name).copied().unwrap_or(0);
            (name, now.saturating_sub(was))
        })
        .collect()
}

type Samples = BTreeMap<&'static str, Vec<f64>>;

fn record(samples: &mut Samples, metric: &'static str, value: f64) {
    samples.entry(metric).or_default().push(value);
}

/// One measured trial, before it becomes metric samples.
struct Trial {
    setup_s: Option<f64>,
    /// Seconds of each program run of the trial, in job order.
    job_s: Vec<f64>,
    supersteps: u64,
    wire_bytes: u64,
    peak_rss_mb: Option<f64>,
    counters: BTreeMap<String, u64>,
}

/// One in-process trial: every job of the workload, timed around
/// `GraphHEngine::run`, then compared with the reference bit for bit.
fn engine_trial(
    engine_for: &dyn Fn(Tracer) -> GraphHEngine,
    partitioned: &PartitionedGraph,
    jobs: &[Job],
    references: &[RunResult],
    traced: bool,
) -> Result<(Trial, PhaseTotals), String> {
    let before = counters_now();
    let mut trial = Trial {
        setup_s: None,
        job_s: Vec::with_capacity(jobs.len()),
        supersteps: 0,
        wire_bytes: 0,
        peak_rss_mb: None,
        counters: BTreeMap::new(),
    };
    let mut phases = PhaseTotals::default();
    for (job, reference) in jobs.iter().zip(references) {
        let tracer = if traced { Tracer::new() } else { Tracer::off() };
        let engine = engine_for(tracer.clone());
        let program = job.program();
        let started = Instant::now();
        let result = engine.run(partitioned, program.as_ref());
        trial.job_s.push(started.elapsed().as_secs_f64());
        let result = result.map_err(|e| format!("{job:?}: {e}"))?;
        if !bit_identical(&result.values, &reference.values) {
            return Err(format!(
                "{job:?}: values differ from the sequential reference"
            ));
        }
        if result.supersteps_run != reference.supersteps_run {
            return Err(format!(
                "{job:?}: ran {} supersteps, the reference {}",
                result.supersteps_run, reference.supersteps_run
            ));
        }
        trial.supersteps += u64::from(result.supersteps_run);
        trial.wire_bytes += result.metrics.total_network_bytes();
        if traced {
            let spans: Vec<PhaseSpan> = tracer
                .drain()
                .into_iter()
                .map(|s| PhaseSpan {
                    name: s.name.to_string(),
                    tid: s.tid,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect();
            for sid in 0..SERVERS {
                phases.add(&layers::phase_totals(&spans, 1 + sid));
            }
        }
    }
    trial.counters = counters_since(&before);
    Ok((trial, phases.scaled(1.0 / f64::from(SERVERS))))
}

/// One multi-process trial: a full launch, then node 0's replica (already
/// checked byte-identical to node 1's) against the reference.
fn cluster_trial(
    opts: &Options,
    rec: &Recorder,
    spec: &LaunchSpec,
    scratch: &Path,
    index: usize,
    reference: &RunResult,
) -> Result<(Trial, PhaseTotals), String> {
    let launch = cluster::launch(&opts.node_bin, spec, scratch, index)?;
    rec.closed_span("launch.setup", launch.started, launch.established);
    rec.closed_span("launch.run", launch.established, launch.exited);
    let values = decode_values(&launch.values_file).map_err(|e| format!("decode --out: {e}"))?;
    if !bit_identical(&values, &reference.values) {
        return Err("node replicas differ from the sequential reference".into());
    }
    if launch.supersteps != u64::from(reference.supersteps_run) {
        return Err(format!(
            "nodes ran {} supersteps, the reference {}",
            launch.supersteps, reference.supersteps_run
        ));
    }
    if launch.wire_bytes != reference.metrics.total_network_bytes() {
        return Err(format!(
            "nodes sent {} bytes, the reference {}",
            launch.wire_bytes,
            reference.metrics.total_network_bytes()
        ));
    }
    let mut phases = PhaseTotals::default();
    for (sid, spans) in launch.traces.iter().enumerate() {
        phases.add(&layers::phase_totals(spans, 1 + sid as u32));
    }
    let trial = Trial {
        setup_s: Some((launch.established - launch.started).as_secs_f64()),
        job_s: vec![(launch.exited - launch.established).as_secs_f64()],
        supersteps: launch.supersteps,
        wire_bytes: launch.wire_bytes,
        peak_rss_mb: Some(launch.max_rss_kb as f64 / 1024.0),
        counters: launch.counters,
    };
    Ok((trial, phases.scaled(1.0 / f64::from(SERVERS))))
}

pub fn run(opts: &Options) -> Result<PassOutput, String> {
    let workload = opts.workload;
    let mut one_cpu = OneCpu::new();
    one_cpu.next();
    let rec = Recorder::new(opts.trace);
    let root = rec.span("workload");
    let scratch =
        Scratch::new(&opts.out_dir).map_err(|e| format!("create scratch directory: {e}"))?;
    let mut errors: Vec<String> = Vec::new();
    let mut samples = Samples::new();

    // Set-up. The `engine` driver's set-up *is* this (generate + partition),
    // repeated so `setup_s` is the fastest of several; the `cluster` driver
    // only needs the graph for the reference and pays its real set-up in
    // every launch.
    let is_engine = matches!(workload.driver, Driver::Engine { .. });
    let (mut generate_s, mut spe_s) = (Vec::new(), Vec::new());
    let mut built = None;
    let setting_up = Instant::now();
    loop {
        let done = generate_s.len();
        let enough = if is_engine {
            done >= MAX_ENGINE_SETUPS
                || (done >= MIN_ENGINE_SETUPS
                    && setting_up.elapsed().as_secs_f64() >= opts.seconds * ENGINE_SETUP_SHARE)
        } else {
            done >= 1
        };
        if enough {
            break;
        }
        drop(built.take());
        one_cpu.next();
        let _span = rec.span("setup");
        let started = Instant::now();
        let inputs = Inputs::build(workload.graph, opts.seed, workload.tiles, &rec);
        if is_engine {
            record(&mut samples, "setup_s", started.elapsed().as_secs_f64());
        }
        generate_s.push(inputs.generate_s);
        spe_s.push(inputs.spe_s);
        built = Some(inputs);
    }
    let inputs = built.expect("at least one set-up");
    let edges = inputs.graph.num_edges();
    let jobs = workload.jobs(opts.seed, &inputs.graph);
    if jobs.is_empty() {
        return Err("the seed picked no source".into());
    }
    let config = workload.config(&inputs.partitioned);

    // The untimed reference every trial is compared with, and one structural
    // check per kernel on it.
    let references: Vec<RunResult> = {
        let _span = rec.span("reference");
        let sequential = GraphHEngine::new(config.clone());
        jobs.iter()
            .map(|job| {
                sequential
                    .run(&inputs.partitioned, job.program().as_ref())
                    .map_err(|e| format!("reference {job:?}: {e}"))
            })
            .collect::<Result<_, _>>()?
    };
    {
        let _span = rec.span("verify");
        for (job, reference) in jobs.iter().zip(&references) {
            if let Err(e) = job.check(&inputs.graph, &reference.values) {
                errors.push(format!("reference {job:?}: {e}"));
            }
        }
    }
    let reference_ok = errors.is_empty();

    let engine_for = |tracer: Tracer| {
        GraphHEngine::with_executor(
            config.clone(),
            Arc::new(ThreadedExecutor::with_trace(TraceConfig { tracer })),
        )
    };
    let launch_spec = |trace: bool| match (workload.kernel, workload.graph) {
        (Kernel::PageRank { supersteps }, GraphKind::Rmat { scale, edge_factor }) => LaunchSpec {
            program: "pagerank",
            scale,
            edge_factor,
            seed: opts.seed,
            tiles: workload.tiles,
            supersteps,
            trace,
        },
        _ => unreachable!("the cluster workload is PageRank on RMAT"),
    };
    let mut launches = 0;
    let mut one_trial = |traced: bool| {
        if is_engine {
            engine_trial(&engine_for, &inputs.partitioned, &jobs, &references, traced)
        } else {
            launches += 1;
            cluster_trial(
                opts,
                &rec,
                &launch_spec(traced),
                &scratch.0,
                launches,
                &references[0],
            )
        }
    };

    if is_engine {
        // Let caches fill and lazy set-up finish; the first trial is discarded.
        let _span = rec.span("warm-up");
        one_trial(false)?;
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_counters: Option<BTreeMap<String, u64>> = None;
    let mut fastest = Fastest::default();
    let mut supersteps = 1.0;
    let measuring = Instant::now();
    loop {
        let done = attempted as usize;
        let enough = if opts.trace {
            done >= TRACED_PASS_TRIALS
        } else {
            done >= MIN_TRIALS && measuring.elapsed().as_secs_f64() >= opts.seconds
        };
        if enough {
            break;
        }
        attempted += 1;
        one_cpu.next();
        let span = rec.span("trial");
        let outcome = one_trial(false);
        drop(span);
        match outcome {
            Ok((trial, _)) => {
                // Equal on every trial: each one ran as many as the reference.
                supersteps = trial.supersteps.max(1) as f64;
                fastest.keep(&trial.job_s);
                if let Some(setup_s) = trial.setup_s {
                    record(&mut samples, "setup_s", setup_s);
                }
                record(&mut samples, "run_s", trial.job_s.iter().sum());
                record(&mut samples, "wire_bytes", trial.wire_bytes as f64);
                record(
                    &mut samples,
                    "disk_read_bytes",
                    counter_family(&trial.counters, "storage.s", ".bytes_read") as f64,
                );
                if let Some(rss) = trial.peak_rss_mb {
                    record(&mut samples, "peak_rss_mb", rss);
                }
                first_counters.get_or_insert(trial.counters);
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("trial {attempted}: {e}"));
            }
        }
    }
    if is_engine {
        record(&mut samples, "peak_rss_mb", peak_rss_mb());
    }
    if !reference_ok {
        failed = attempted;
    }

    // What the pass reports: timings as the fastest repetition (the rates
    // follow from it), counts and memory as the median over the trials.
    let mut end_to_end = BTreeMap::new();
    let run_s = fastest.total_s();
    if failed < attempted {
        end_to_end.insert("setup_s", minimum(&samples["setup_s"]));
        end_to_end.insert("run_s", run_s);
        end_to_end.insert("superstep_ms", run_s / supersteps * 1e3);
        end_to_end.insert("medges_per_s", edges as f64 * supersteps / run_s / 1e6);
        for metric in ["wire_bytes", "disk_read_bytes", "peak_rss_mb"] {
            end_to_end.insert(metric, median(&samples[metric]));
        }
    }

    let mut per_layer = BTreeMap::new();
    if opts.trace && failed == 0 {
        // The traced runs; the fastest one stands for them, like `run_s`.
        let mut traced: Option<(f64, PhaseTotals)> = None;
        for _ in 0..TRACED_PASS_TRIALS {
            one_cpu.next();
            let outcome = {
                let _span = rec.span("traced-run");
                one_trial(true)
            };
            match outcome {
                Ok((trial, phases)) => {
                    let traced_s: f64 = trial.job_s.iter().sum();
                    if traced.is_none_or(|(best, _)| traced_s < best) {
                        traced = Some((traced_s, phases));
                    }
                }
                Err(e) => {
                    attempted += 1;
                    failed += 1;
                    errors.push(format!("traced run: {e}"));
                }
            }
        }
        if let (Some((traced_run_s, phases)), 0) = (traced, failed) {
            let _span = rec.span("layers");
            per_layer = layers::measure(
                &rec,
                &LayerInputs {
                    inputs: &inputs,
                    config: &config,
                    jobs: &jobs,
                    references: &references,
                    counters: first_counters.as_ref().expect("a trial succeeded"),
                    generate_s: minimum(&generate_s),
                    spe_s: minimum(&spe_s),
                    run_s,
                    traced_run_s,
                    phases,
                    scratch: &scratch.0,
                },
            );
        }
    }
    drop(root);
    Ok(PassOutput {
        attempted,
        failed,
        errors,
        cpus: one_cpu.cpus,
        end_to_end,
        trials: samples,
        per_layer,
        spans: rec.spans(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_each_runs_own_minimum() {
        let mut fastest = Fastest::default();
        fastest.keep(&[3.0, 1.0]);
        fastest.keep(&[2.0, 4.0]);
        fastest.keep(&[2.5, 0.5]);
        assert_eq!(fastest.0, vec![2.0, 0.5]);
        // Faster than any single trial (the best was 2.0 + 4.0 = 3.0 + 1.0).
        assert_eq!(fastest.total_s(), 2.5);
    }
}
