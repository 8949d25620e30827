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
//! `--peers` (comma-separated, indexed by server id), `--out`,
//! `--establish-timeout-secs`. The transport is always
//! [`graphh_runtime::PollPlane`] (one event-loop thread per process) and the
//! protocol always the fault-tolerant `GHHR` one (docs/WIRE.md).
//!
//! Instead of enumerating every peer, a node may start by **seed discovery**
//! (see `docs/WIRE.md` §10): `--seed HOST:PORT` (repeatable) names any
//! cluster member, listening already or soon; the node announces itself to
//! the seeds and to every address it learns, and has the full `server id →
//! address` book from their `GHHM` replies while its links come up — one
//! establishment, bounded as a whole by `--establish-timeout-secs`. `--peers`
//! and seed addresses are mutually exclusive — the static table and the
//! discovered book are alternative sources of truth. (`--seed` keeps its
//! workload meaning too: a bare integer is the graph-generator RNG seed, a
//! `host:port` value is a membership seed — the two value shapes never
//! overlap.) In a seed-discovered
//! cluster a replacement process for a dead id may bind a *different* port:
//! it announces itself with a bumped incarnation, the book update gossips to
//! every survivor, and redials converge on the new address mid-run.
//!
//! Observability flags (see `docs/OBSERVABILITY.md`): `--trace-out FILE`
//! enables phase tracing and writes a Chrome trace-event JSON file loadable
//! in `chrome://tracing` / Perfetto; `--metrics-out FILE` writes this node's
//! run summary plus a snapshot of every process-wide counter as JSON. Neither
//! flag changes results or wire bytes.
//!
//! Fault tolerance (see `docs/WIRE.md` §9) needs no flag: a transient peer
//! failure parks the link, the survivor redials (or accepts a redial) with
//! the `GHHR` resume handshake, and retained frames are replayed. Starting
//! up is the same path — every link begins down and `--establish-timeout-secs`
//! is how long each has to come up once, seed discovery included — so this
//! process binds its listener
//! first (peers' dials wait in its backlog while the workload builds) and
//! prints `cluster established` when the plane's event loop says so.
//! `--checkpoint-dir DIR` snapshots replica values + superstep cursor every
//! `--checkpoint-every N` supersteps (GHHC files, atomic rename); on startup
//! an existing checkpoint for this server id is loaded automatically and the
//! run resumes at its cursor while peers replay the delta — so a node process
//! can be killed and restarted mid-run without changing the final values.
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
use graphh_runtime::{
    run_worker, validate_peer_table, BroadcastPlane, CheckpointSink, MetricsSlice, PollPlane,
    ResilienceConfig, WorkerOptions,
};
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

struct Args {
    id: u32,
    servers: u32,
    listen: String,
    peers: Vec<SocketAddr>,
    /// Membership seed addresses (`--seed HOST:PORT`, repeatable) — the
    /// address book is discovered from them instead of given by `--peers`.
    seeds: Vec<SocketAddr>,
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
    /// Directory for periodic GHHC checkpoints (implies auto-resume from an
    /// existing checkpoint on startup).
    checkpoint_dir: Option<String>,
    /// Checkpoint cadence in supersteps.
    checkpoint_every: u32,
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
         (--peers A0,A1,... | --seed HOST:PORT...) \
         [--program NAME] [--program-arg K=V]... \
         [--direction auto|pull|push] [--scale S] \
         [--edge-factor F] [--seed N] [--tiles T] [--supersteps N] \
         [--threads-per-server T] \
         [--compressor none|raw|snappy|zlib-1|zlib-3|varint-delta] \
         [--out FILE] [--trace-out FILE] \
         [--metrics-out FILE] [--establish-timeout-secs N] \
         [--checkpoint-dir DIR] [--checkpoint-every N] \
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
    let mut seeds: Vec<SocketAddr> = Vec::new();
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
    let mut establish_timeout = Duration::from_secs(10);
    let mut checkpoint_dir = None;
    let mut checkpoint_every = 1;
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
            // `--seed` is overloaded by value shape: a `host:port` socket
            // address is a membership seed node (repeatable, docs/WIRE.md
            // §10); a bare integer keeps its original meaning as the
            // graph-generator RNG seed. The domains are disjoint — an
            // integer never parses as a socket address and vice versa.
            "--seed" => {
                let value = value()?;
                if let Ok(addr) = value.parse::<SocketAddr>() {
                    seeds.push(addr);
                } else {
                    workload.seed = value.parse().map_err(|_| {
                        format!(
                            "bad value for --seed: {value} (expected a membership \
                             seed HOST:PORT or an integer RNG seed)"
                        )
                    })?;
                }
            }
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
            "--checkpoint-dir" => checkpoint_dir = Some(value()?),
            "--checkpoint-every" => checkpoint_every = value()?.parse().map_err(|e| bad(&e))?,
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
    if peers.is_empty() && seeds.is_empty() && servers > 1 {
        return Err("--peers or --seed is required for clusters with more than one server".into());
    }
    Ok(Args {
        id,
        servers,
        listen,
        peers,
        seeds,
        direction,
        workload,
        threads_per_server,
        compressor,
        out,
        trace_out,
        metrics_out,
        establish_timeout,
        checkpoint_dir,
        checkpoint_every,
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

    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = args.workload.build(&pool)?;
    let plan = ExecutionPlan::prepare(&config, &partitioned, program.as_ref())
        .map_err(|e| format!("prepare plan: {e}"))?;
    drop(pool); // the run uses the per-server pool inside `ServerState`

    let peer_addrs: Vec<SocketAddr> = if args.servers == 1 && args.seeds.is_empty() {
        vec![bound.local_addr().map_err(|e| e.to_string())?]
    } else {
        args.peers.clone()
    };
    validate_peer_table(
        args.id,
        args.servers,
        &peer_addrs,
        &args.seeds,
        bound.local_addr().ok(),
    )
    .map_err(|e| format!("invalid peer configuration: {e}"))?;

    // Checkpoint auto-resume: an existing GHHC snapshot for this server id
    // means a previous incarnation of this process died mid-run — restart at
    // its cursor and let peers replay the delta (hence `resuming_from`: our
    // receive cursors open at the checkpointed superstep, and the resume
    // handshake asks every peer for exactly the frames we lost).
    let checkpoint_sink = args
        .checkpoint_dir
        .as_ref()
        .map(|dir| CheckpointSink::new(dir, args.checkpoint_every));
    let resumed = match &checkpoint_sink {
        Some(sink) => sink
            .load(args.id)
            .map_err(|e| format!("load checkpoint: {e}"))?,
        None => None,
    };
    let start_superstep = resumed.as_ref().map_or(0, |c| c.next_superstep);

    // Given seeds the peer table is empty and the book is discovered while
    // the links come up; a restart announces itself under its server id
    // (above the incarnation of its predecessor's address, if the cluster
    // still lists that), so peers redial the *new* address mid-run.
    let resilience = ResilienceConfig {
        reconnect_deadline: args.reconnect_deadline,
        resume_from: start_superstep,
        seeds: args.seeds.clone(),
    };
    let discovered = !args.seeds.is_empty();
    let mut plane = bound
        .establish_resilient(&peer_addrs, args.establish_timeout, resilience)
        .map_err(|e| format!("establish cluster: {e}"))?;
    if discovered {
        eprintln!(
            "graphh-node {}/{}: address book discovered (version {}, incarnation {})",
            args.id,
            args.servers,
            plane.book().version(),
            plane.book().own_incarnation(),
        );
    }
    eprintln!(
        "graphh-node {}/{}: cluster established ({} peers{}{})",
        args.id,
        args.servers,
        args.servers - 1,
        if discovered { ", seed-discovered" } else { "" },
        if resumed.is_some() {
            format!(", resumed at superstep {start_superstep}")
        } else {
            String::new()
        },
    );

    // One worker per process: lockstep comes from the broadcast plane's
    // end-of-superstep framing.
    let (metrics_tx, metrics_rx) = channel::<MetricsSlice>();
    let sid = plane.server_id();
    // Tracing is opt-in: without --trace-out the disabled tracer adds zero
    // allocations and zero clock reads to the superstep loop.
    let tracer = if args.trace_out.is_some() {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let options = WorkerOptions {
        start_superstep,
        initial_values: resumed.as_ref().map(|c| c.values.clone()),
        initial_frontier: resumed.map(|c| c.frontier),
        checkpoint: checkpoint_sink,
        superstep_delay: args.superstep_delay,
    };
    let output = run_worker(
        &config,
        &plan,
        &partitioned,
        program.as_ref(),
        sid,
        &mut plane,
        &metrics_tx,
        &tracer,
        options,
    )
    .map_err(|e| format!("worker failed: {}", e.error))?;
    drop(metrics_tx);

    let slices: Vec<MetricsSlice> = metrics_rx.into_iter().collect();
    let sent: u64 = slices.iter().map(|s| s.metrics.network_sent_bytes).sum();
    let received: u64 = slices
        .iter()
        .map(|s| s.metrics.network_received_bytes)
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
        // This process holds exactly one server's metric slices, so the
        // summary is hand-assembled here (the cluster-wide reduction needs
        // every server's slices and lives in the in-process executors).
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
    // Counters register lazily on first touch, so a fault-free (or
    // static-table) run would otherwise omit the whole
    // `fabric.*` / `membership.*` families from the snapshot. Pre-register
    // them all: a zero row in every run's JSON beats a key that appears only
    // when something went wrong.
    for name in [
        "fabric.reconnects",
        "fabric.replayed_frames",
        "fabric.checkpoint_bytes",
        "membership.announces",
        "membership.gossip_deltas",
        "membership.book_version",
        "membership.adoptions",
    ] {
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
