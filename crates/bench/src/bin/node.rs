//! `graphh-node` — one GraphH server as one OS process.
//!
//! Runs a single simulated server of a `--servers`-node cluster over the TCP
//! broadcast plane: every process rebuilds the same deterministic workload
//! from the same CLI parameters, connects to its peers over loopback (or any
//! network), and executes the identical superstep loop the in-process
//! executors run — every broadcast crossing the wire through the real
//! `MessageCodec` *and* the length-prefixed frame protocol. Results are
//! bit-identical to the sequential reference executor; the `multiprocess`
//! integration test and the CI smoke job assert exactly that.
//!
//! ```text
//! # 2-server PageRank over loopback (run in two shells / background jobs):
//! graphh-node --id 0 --servers 2 --listen 127.0.0.1:4750 \
//!     --peers 127.0.0.1:4750,127.0.0.1:4751 --program pagerank --out v0.bin
//! graphh-node --id 1 --servers 2 --listen 127.0.0.1:4751 \
//!     --peers 127.0.0.1:4750,127.0.0.1:4751 --program pagerank --out v1.bin
//! cmp v0.bin v1.bin   # byte-identical replicas
//! ```
//!
//! Workload flags (must match on every node): `--program NAME` (any program
//! in the [`graphh_core::registry`] — run `--list-programs` to see them),
//! `--program-arg key=value` (repeatable, per-program options such as
//! `source=7`), `--direction auto|pull|push` (override of the engine's
//! per-superstep push/pull choice — never changes results or wire bytes, see
//! docs/ALGORITHMS.md),
//! `--scale`, `--edge-factor`, `--seed`, `--tiles`, `--supersteps`,
//! `--threads-per-server`, `--compressor none|raw|snappy|zlib-1|zlib-3|varint-delta`
//! (message compressor; defaults to the paper's snappy — compression never
//! changes decoded values, only wire bytes). Runtime flags: `--id`, `--servers`, `--listen`,
//! `--peers` (comma-separated, indexed by server id; required for more than
//! one server), `--out`, `--establish-timeout-secs`. The transport is always
//! [`graphh_runtime::PollPlane`] (one event-loop thread per process) and the
//! protocol always the fault-tolerant `GHHR` one (docs/WIRE.md).
//!
//! The peer table is the only address book: every server listens at the
//! address `--peers` gives its id, for the whole run, so a replacement for a
//! dead process is started with the same `--listen` address (the same
//! command line).
//!
//! Observability flags (see `docs/OBSERVABILITY.md`): `--trace-out FILE`
//! enables phase tracing and writes a Chrome trace-event JSON file loadable
//! in `chrome://tracing` / Perfetto (the set-up's `generate` and `partition`
//! on lane 0, then the worker's phases); `--metrics-out FILE` writes this node's
//! run summary plus a snapshot of every process-wide counter as JSON. Neither
//! flag changes results or wire bytes.
//!
//! Fault tolerance (see `docs/WIRE.md` §9) needs no flag: a transient peer
//! failure parks the link, the survivor redials (or accepts a redial) with
//! the `GHHR` resume handshake, and retained frames are replayed. Starting
//! up is the same path — every link begins down and `--establish-timeout-secs`
//! is how long they have to come up — so this process binds its listener
//! first (peers' dials wait in its backlog while the workload builds) and
//! prints `cluster established` when the plane's event loop says so. A
//! process killed mid-run is restarted with the same command line and
//! resumes from its live peers' state (`docs/WIRE.md` §9.4); it then prints
//! `resuming from a peer's state at superstep N`. A run that loses more than
//! one process at once fails, unless the survivors still hold every frame
//! since superstep 0.
//! `--reconnect-deadline-secs N` (default 30) bounds how long a peer that
//! vanished *without a goodbye* may stay away before the run fails; a clean
//! exit is seen at once. `--superstep-delay-ms N` is a chaos-test aid that
//! widens the window for killing a node mid-run (never changes values).

use graphh_bench::multiprocess::{encode_values, NodeWorkload};
use graphh_cluster::ClusterConfig;
use graphh_compress::Codec;
use graphh_core::exec::ExecutionPlan;
use graphh_core::registry::PROGRAMS;
use graphh_core::{DirectionMode, GraphHConfig};
use graphh_obs::{chrome_trace_json, global_counters, Tracer};
use graphh_pool::WorkerPool;
use graphh_runtime::establish::DEFAULT_ESTABLISH_TIMEOUT;
use graphh_runtime::{run_worker, BroadcastPlane, PollPlane, ResilienceConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct Args {
    id: u32,
    servers: u32,
    listen: String,
    peers: Vec<SocketAddr>,
    direction: DirectionMode,
    workload: NodeWorkload,
    threads_per_server: Option<u32>,
    /// Outer `None` = flag absent (keep the paper default); inner value is
    /// the configured message compressor (`None` = uncompressed).
    compressor: Option<Option<Codec>>,
    out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    establish_timeout: Duration,
    /// How long a lost peer may stay away before the run fails terminally.
    reconnect_deadline: Duration,
    /// Chaos-test aid: artificial pause at the top of each superstep.
    superstep_delay: Option<Duration>,
}

/// The usage text and the program list: to stdout with exit 0 when `asked`
/// for (`--help`, `--list-programs`), to stderr with exit 2 after a bad
/// command line.
fn usage(asked: bool) -> ! {
    use std::fmt::Write;
    let mut text = String::from(
        "usage: graphh-node --id I --servers P --listen ADDR \
         [--peers A0,A1,...] \
         [--program NAME] [--program-arg K=V]... \
         [--direction auto|pull|push] [--scale S] \
         [--edge-factor F] [--seed N] [--tiles T] [--supersteps N] \
         [--threads-per-server T] \
         [--compressor none|raw|snappy|zlib-1|zlib-3|varint-delta] \
         [--out FILE] [--trace-out FILE] \
         [--metrics-out FILE] [--establish-timeout-secs N] \
         [--reconnect-deadline-secs N] [--superstep-delay-ms N] [--list-programs]\n\
         programs:\n",
    );
    for spec in PROGRAMS {
        let _ = writeln!(text, "  {:18} {}", spec.name, spec.summary);
        for (key, doc) in spec.options {
            let _ = writeln!(text, "      {key}= {doc}");
        }
    }
    if asked {
        print!("{text}");
        std::process::exit(0);
    }
    eprint!("{text}");
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut id = None;
    let mut servers = None;
    let mut listen = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut workload = NodeWorkload {
        program: "pagerank".into(),
        program_args: Vec::new(),
        scale: 8,
        edge_factor: 6,
        seed: 2017,
        tiles: 9,
        supersteps: 10,
    };
    let mut direction = DirectionMode::Auto;
    let mut threads_per_server = None;
    let mut compressor = None;
    let mut out = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut establish_timeout = DEFAULT_ESTABLISH_TIMEOUT;
    let mut reconnect_deadline = ResilienceConfig::default().reconnect_deadline;
    let mut superstep_delay = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" || flag == "--list-programs" {
            usage(true);
        }
        // Fetched by the arm that wants it, so an unknown flag is reported
        // as unknown whether or not anything follows it.
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--id" => id = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--servers" => servers = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--listen" => listen = Some(value()?),
            "--peers" => {
                peers = value()?
                    .split(',')
                    .map(|a| a.trim().parse().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?;
            }
            "--direction" => direction = value()?.parse()?,
            "--program" => workload.program = value()?,
            "--program-arg" => workload.program_args.push(value()?),
            "--scale" => workload.scale = value()?.parse().map_err(|e| bad(&e))?,
            "--edge-factor" => workload.edge_factor = value()?.parse().map_err(|e| bad(&e))?,
            "--seed" => workload.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--tiles" => workload.tiles = value()?.parse().map_err(|e| bad(&e))?,
            "--supersteps" => workload.supersteps = value()?.parse().map_err(|e| bad(&e))?,
            "--threads-per-server" => {
                threads_per_server = Some(value()?.parse().map_err(|e| bad(&e))?)
            }
            "--compressor" => compressor = Some(parse_compressor(&value()?)?),
            "--out" => out = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            "--metrics-out" => metrics_out = Some(value()?),
            "--establish-timeout-secs" => {
                establish_timeout = Duration::from_secs(value()?.parse().map_err(|e| bad(&e))?)
            }
            "--reconnect-deadline-secs" => {
                reconnect_deadline = Duration::from_secs(value()?.parse().map_err(|e| bad(&e))?)
            }
            "--superstep-delay-ms" => {
                superstep_delay = Some(Duration::from_millis(
                    value()?.parse().map_err(|e| bad(&e))?,
                ))
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let id = id.ok_or("--id is required")?;
    let servers = servers.ok_or("--servers is required")?;
    let listen = listen.ok_or("--listen is required")?;
    if peers.is_empty() && servers > 1 {
        return Err("--peers is required for clusters with more than one server".into());
    }
    Ok(Args {
        id,
        servers,
        listen,
        peers,
        direction,
        workload,
        threads_per_server,
        compressor,
        out,
        trace_out,
        metrics_out,
        establish_timeout,
        reconnect_deadline,
        superstep_delay,
    })
}

/// Parse a `--compressor` value: `none` disables compression; every other
/// value is a codec's canonical [`Codec::name`].
fn parse_compressor(value: &str) -> Result<Option<Codec>, String> {
    if value == "none" {
        return Ok(None);
    }
    Codec::ALL
        .into_iter()
        .find(|c| c.name() == value)
        .map(Some)
        .ok_or_else(|| {
            format!(
                "bad value for --compressor: {value} (none|raw|snappy|zlib-1|zlib-3|varint-delta)"
            )
        })
}

fn run(args: Args) -> Result<(), String> {
    let started = Instant::now();

    // Bind the listener before the (potentially slow) deterministic workload
    // build, so peers' connect retries succeed as early as possible.
    let bound = PollPlane::bind(args.id, args.servers, args.listen.as_str())
        .map_err(|e| format!("bind listener: {e}"))?;
    eprintln!(
        "graphh-node {}/{}: listening on {}",
        args.id,
        args.servers,
        bound.local_addr().map_err(|e| e.to_string())?,
    );

    let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(args.servers))
        .with_direction_mode(args.direction);
    if let Some(threads) = args.threads_per_server {
        config = config.with_threads_per_server(threads);
    }
    if let Some(compressor) = args.compressor {
        config.message_compressor = compressor;
    }
    config.validate().map_err(|e| e.to_string())?;

    // Tracing is opt-in: without --trace-out the disabled tracer adds zero
    // allocations and zero clock reads to the set-up and the superstep loop.
    // It starts before the workload is built, so the set-up is in the trace.
    let tracer = if args.trace_out.is_some() {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = args.workload.build(&pool, &tracer)?;
    let plan = ExecutionPlan::prepare(&config, &partitioned, program.as_ref())
        .map_err(|e| format!("prepare plan: {e}"))?;
    drop(pool); // the run uses the per-server pool inside `ServerState`

    let peer_addrs: Vec<SocketAddr> = if args.servers == 1 {
        vec![bound.local_addr().map_err(|e| e.to_string())?]
    } else {
        args.peers.clone()
    };

    let resilience = ResilienceConfig {
        reconnect_deadline: args.reconnect_deadline,
    };
    let mut plane = bound
        .establish_resilient(&peer_addrs, args.establish_timeout, resilience)
        .map_err(|e| format!("establish cluster: {e}"))?;
    eprintln!(
        "graphh-node {}/{}: cluster established ({} peers)",
        args.id,
        args.servers,
        args.servers - 1,
    );
    if let Some(superstep) = plane.resumes_at() {
        eprintln!(
            "graphh-node {}/{}: resuming from a peer's state at superstep {superstep}",
            args.id, args.servers,
        );
    }

    // One worker per process: lockstep comes from the broadcast plane's
    // end-of-superstep framing. It returns once every peer is done with
    // this process, which may still be asked for its state meanwhile.
    let sid = plane.server_id();
    let output = run_worker(
        &config,
        &plan,
        &partitioned,
        program.as_ref(),
        sid,
        &mut plane,
        &tracer,
        args.superstep_delay,
    )
    .map_err(|e| format!("worker failed: {e}"))?;

    let sent: u64 = output.metrics.iter().map(|m| m.network_sent_bytes).sum();
    let received: u64 = output
        .metrics
        .iter()
        .map(|m| m.network_received_bytes)
        .sum();
    println!(
        "graphh-node {}/{}: {} supersteps={} program={} vertices={} \
         net_sent_bytes={sent} net_received_bytes={received} wall_seconds={:.3}",
        args.id,
        args.servers,
        program.name(),
        output.supersteps_run,
        args.workload.program,
        output.values.len(),
        started.elapsed().as_secs_f64(),
    );

    if let Some(path) = &args.out {
        std::fs::write(path, encode_values(&output.values))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("graphh-node {}: wrote {path}", args.id);
    }

    if let Some(path) = &args.trace_out {
        let trace = chrome_trace_json(
            &format!("graphh-node-{sid}"),
            std::process::id(),
            &tracer.drain(),
        );
        std::fs::write(path, trace).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("graphh-node {}: wrote trace {path}", args.id);
    }

    if let Some(path) = &args.metrics_out {
        // This process holds exactly one server's metrics, so the summary is
        // hand-assembled here (the cluster-wide reduction needs every
        // server's output and lives in the in-process executors).
        let metrics = node_metrics_json(
            &args,
            sid,
            program.name(),
            output.supersteps_run,
            output.values.len(),
            sent,
            received,
            started.elapsed().as_secs_f64(),
        );
        std::fs::write(path, metrics).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("graphh-node {}: wrote metrics {path}", args.id);
    }
    Ok(())
}

/// One node's run summary + the process-wide counter snapshot, as JSON.
#[allow(clippy::too_many_arguments)]
fn node_metrics_json(
    args: &Args,
    sid: u32,
    program: &str,
    supersteps_run: u32,
    vertices: usize,
    net_sent_bytes: u64,
    net_received_bytes: u64,
    wall_seconds: f64,
) -> String {
    // Counters register lazily on first touch, so a fault-free run would
    // otherwise omit the `fabric.*` family from the snapshot. Pre-register
    // it: a zero row in every run's JSON beats a key that appears only when
    // something went wrong.
    for name in ["fabric.reconnects", "fabric.replayed_frames"] {
        global_counters().counter(name);
    }
    format!(
        concat!(
            "{{\n",
            "  \"server\": {},\n",
            "  \"servers\": {},\n",
            "  \"plane\": \"Poll\",\n",
            "  \"direction\": \"{}\",\n",
            "  \"program\": \"{}\",\n",
            "  \"supersteps_run\": {},\n",
            "  \"vertices\": {},\n",
            "  \"net_sent_bytes\": {},\n",
            "  \"net_received_bytes\": {},\n",
            "  \"wall_seconds\": {:.6},\n",
            "  \"counters\": {}\n",
            "}}\n"
        ),
        sid,
        args.servers,
        args.direction.as_str(),
        graphh_obs::json::escape(program),
        supersteps_run,
        vertices,
        net_sent_bytes,
        net_received_bytes,
        wall_seconds,
        global_counters().snapshot_json(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("graphh-node: {message}");
            usage(false);
        }
    };
    if let Err(message) = run(args) {
        eprintln!("graphh-node: {message}");
        std::process::exit(1);
    }
}
