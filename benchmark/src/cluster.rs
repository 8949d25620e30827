//! The `cluster` driver: one trial is one full launch of two `graphh-node`
//! processes on loopback, because users pay set-up on every launch.
//!
//! Child-process hygiene lives here: free ports per launch (with a retry
//! when a node loses the race for one), a hard per-trial time-out, nodes
//! killed when the harness panics or the trial times out, and a fresh
//! directory per launch, so no launch reads another's files.

use graphh::obs::JsonValue;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nodes per launch.
const SERVERS: usize = crate::workload::SERVERS as usize;

/// A node that has not finished by then is killed and the trial failed.
const TRIAL_TIMEOUT: Duration = Duration::from_secs(60);

/// Launches lost to a port race are repeated, up to this many times.
const BIND_RETRIES: usize = 3;

/// What every node of a launch is told to run.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    pub program: &'static str,
    pub scale: u32,
    pub edge_factor: u32,
    pub seed: u64,
    pub tiles: u32,
    pub supersteps: u32,
    /// Pass the node's existing `--trace-out` flag.
    pub trace: bool,
}

/// One span of a node's `--trace-out` file (or of an in-process tracer).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    pub name: String,
    pub tid: u32,
    pub start_us: u64,
    pub dur_us: u64,
}

/// What one successful launch measured and produced.
#[derive(Debug)]
pub struct Launch {
    /// The first spawn, the last node's `cluster established` line and the
    /// last node's exit: `setup_s` is the first interval, `run_s` the second.
    pub started: Instant,
    pub established: Instant,
    pub exited: Instant,
    pub supersteps: u64,
    /// `net_sent_bytes` summed over the nodes.
    pub wire_bytes: u64,
    /// The nodes' `--metrics-out` counters, same names summed.
    pub counters: BTreeMap<String, u64>,
    /// Largest `ru_maxrss` over the nodes, in KiB.
    pub max_rss_kb: u64,
    /// Node 0's `--out` file (every node's is byte-identical to it).
    pub values_file: Vec<u8>,
    /// Per node, its `--trace-out` spans (empty unless `spec.trace`).
    pub traces: Vec<Vec<PhaseSpan>>,
}

/// The prefix of the kernel's `struct rusage` up to the field read here
/// (64-bit Linux: two `timeval`s, then `long`s).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a node ended, as its waiter thread saw it.
struct Exit {
    at: Instant,
    /// Raw wait status; 0 is a clean `exit(0)`.
    status: i32,
    max_rss_kb: u64,
}

/// Block until `pid` ends and reap it, keeping its peak RSS — the one
/// thing `std::process::Child::wait` does not return.
fn wait_for(pid: u32) -> Exit {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and at least as large
    // as the kernel's `int` and `struct rusage` (144 bytes on 64-bit Linux);
    // `pid` is a child of this process that nothing else waits for.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    Exit {
        at: Instant::now(),
        status: if reaped == pid as i32 { status } else { -1 },
        max_rss_kb: usage.maxrss.max(0) as u64,
    }
}

/// What a node's stderr reader hands back at end of stream.
struct StderrLog {
    established_at: Option<Instant>,
    text: String,
}

/// One running node. Dropping it kills the process unless its exit was
/// already seen, so a panic or an early return leaves no orphan.
struct Node {
    child: Child,
    exit_seen: bool,
    waiter: Option<JoinHandle<()>>,
    stderr: Option<JoinHandle<StderrLog>>,
}

impl Drop for Node {
    fn drop(&mut self) {
        if !self.exit_seen {
            // The waiter thread reaps; this only has to end the process.
            let _ = self.child.kill();
        }
        if let Some(waiter) = self.waiter.take() {
            let _ = waiter.join();
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// Why a launch produced no sample.
#[derive(Debug)]
pub enum LaunchError {
    /// A node could not bind its port; the launch is repeated, not failed.
    PortRace(String),
    /// The trial failed: non-zero exit, time-out, no `cluster established`
    /// line, replicas that differ, unreadable outputs.
    Failed(String),
}

/// Two loopback ports that were free a moment ago.
fn free_ports() -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..SERVERS)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

fn node_args(spec: &LaunchSpec, id: usize, ports: &[u16], dir: &Path) -> Vec<String> {
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let file = |stem: &str| dir.join(format!("{stem}{id}")).display().to_string();
    let mut args: Vec<String> = [
        ("--id", id.to_string()),
        ("--servers", SERVERS.to_string()),
        ("--listen", peers[id].clone()),
        ("--peers", peers.join(",")),
        ("--program", spec.program.to_string()),
        ("--scale", spec.scale.to_string()),
        ("--edge-factor", spec.edge_factor.to_string()),
        ("--seed", spec.seed.to_string()),
        ("--tiles", spec.tiles.to_string()),
        ("--supersteps", spec.supersteps.to_string()),
        ("--threads-per-server", "1".to_string()),
        ("--out", file("values")),
        ("--metrics-out", file("metrics")),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect();
    if spec.trace {
        args.extend(["--trace-out".to_string(), file("trace")]);
    }
    args
}

fn parse_metrics(path: &Path) -> Result<(u64, u64, BTreeMap<String, u64>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let json = JsonValue::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let field = |key: &str| {
        json.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{}: no integer field {key}", path.display()))
    };
    let mut counters = BTreeMap::new();
    if let Some(JsonValue::Object(fields)) = json.get("counters") {
        for (name, value) in fields {
            counters.insert(name.clone(), value.as_u64().unwrap_or(0));
        }
    }
    Ok((field("supersteps_run")?, field("net_sent_bytes")?, counters))
}

/// The complete (`"ph": "X"`) events of a Chrome trace file.
pub fn parse_trace(text: &str) -> Result<Vec<PhaseSpan>, String> {
    let json = JsonValue::parse(text)?;
    let events = json
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace has no traceEvents array")?;
    Ok(events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(|e| {
            Some(PhaseSpan {
                name: e.get("name")?.as_str()?.to_string(),
                tid: e.get("tid")?.as_u64()? as u32,
                start_us: e.get("ts")?.as_u64()?,
                dur_us: e.get("dur")?.as_u64()?,
            })
        })
        .collect())
}

/// Launch the cluster once in the fresh directory `dir` and measure it.
fn launch_once(node_bin: &Path, spec: &LaunchSpec, dir: &Path) -> Result<Launch, LaunchError> {
    let failed = LaunchError::Failed;
    std::fs::create_dir_all(dir).map_err(|e| failed(format!("create {}: {e}", dir.display())))?;
    let ports = free_ports().map_err(|e| failed(format!("pick ports: {e}")))?;
    let (exit_tx, exit_rx) = channel::<(usize, Exit)>();

    let started = Instant::now();
    let mut nodes: Vec<Node> = Vec::with_capacity(SERVERS);
    for id in 0..SERVERS {
        let mut child = Command::new(node_bin)
            .args(node_args(spec, id, &ports, dir))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| failed(format!("spawn {}: {e}", node_bin.display())))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let stderr = std::thread::spawn(move || {
            let mut log = StderrLog {
                established_at: None,
                text: String::new(),
            };
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if log.established_at.is_none() && line.contains("cluster established") {
                    log.established_at = Some(Instant::now());
                }
                log.text.push_str(&line);
                log.text.push('\n');
            }
            log
        });
        let pid = child.id();
        let exit_tx = exit_tx.clone();
        let waiter = std::thread::spawn(move || {
            let _ = exit_tx.send((id, wait_for(pid)));
        });
        nodes.push(Node {
            child,
            exit_seen: false,
            waiter: Some(waiter),
            stderr: Some(stderr),
        });
    }
    drop(exit_tx);

    // The harness thread sleeps here while the run is in flight.
    let deadline = started + TRIAL_TIMEOUT;
    let mut exits: Vec<Option<Exit>> = (0..SERVERS).map(|_| None).collect();
    let mut timed_out = false;
    while exits.iter().any(Option::is_none) {
        let received = if timed_out {
            // Killed nodes end at once; their waiters still report.
            exit_rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            exit_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        };
        match received {
            Ok((id, exit)) => {
                nodes[id].exit_seen = true;
                exits[id] = Some(exit);
            }
            Err(RecvTimeoutError::Timeout) => {
                timed_out = true;
                for node in nodes.iter_mut().filter(|n| !n.exit_seen) {
                    let _ = node.child.kill();
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let logs: Vec<StderrLog> = nodes
        .iter_mut()
        .map(|n| {
            n.stderr
                .take()
                .expect("joined once")
                .join()
                .expect("stderr reader")
        })
        .collect();
    drop(nodes);

    let all_stderr = || {
        logs.iter()
            .enumerate()
            .map(|(id, log)| format!("--- node {id} stderr ---\n{}", log.text))
            .collect::<String>()
    };
    if timed_out {
        return Err(failed(format!(
            "timed out after {TRIAL_TIMEOUT:?}\n{}",
            all_stderr()
        )));
    }
    let exits: Vec<Exit> = exits.into_iter().flatten().collect();
    if exits.len() != SERVERS {
        return Err(failed(
            "a waiter thread ended without reporting an exit".into(),
        ));
    }
    if let Some(id) = exits.iter().position(|e| e.status != 0) {
        let message = format!(
            "node {id} ended with wait status {}\n{}",
            exits[id].status,
            all_stderr()
        );
        return Err(if logs.iter().any(|l| l.text.contains("bind listener")) {
            LaunchError::PortRace(message)
        } else {
            failed(message)
        });
    }
    let established: Vec<Instant> = logs.iter().filter_map(|l| l.established_at).collect();
    if established.len() != SERVERS {
        return Err(failed(format!(
            "missing `cluster established` line\n{}",
            all_stderr()
        )));
    }
    let established_at = *established.iter().max().expect("two nodes");
    let exit_at = exits.iter().map(|e| e.at).max().expect("two nodes");

    let read = |stem: &str, id: usize| {
        let path = dir.join(format!("{stem}{id}"));
        std::fs::read(&path).map_err(|e| failed(format!("read {}: {e}", path.display())))
    };
    let values_file = read("values", 0)?;
    for id in 1..SERVERS {
        if read("values", id)? != values_file {
            return Err(failed(format!(
                "replica of node {id} differs from node 0's"
            )));
        }
    }
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let (mut supersteps, mut wire_bytes) = (0, 0);
    let mut traces = Vec::new();
    for id in 0..SERVERS {
        let (steps, sent, node_counters) =
            parse_metrics(&dir.join(format!("metrics{id}"))).map_err(failed)?;
        if id > 0 && steps != supersteps {
            return Err(failed(format!(
                "nodes disagree on the superstep count: {supersteps} vs {steps}"
            )));
        }
        supersteps = steps;
        wire_bytes += sent;
        for (name, value) in node_counters {
            *counters.entry(name).or_insert(0) += value;
        }
        if spec.trace {
            let text = String::from_utf8(read("trace", id)?).map_err(|e| failed(e.to_string()))?;
            traces.push(parse_trace(&text).map_err(failed)?);
        }
    }
    Ok(Launch {
        started,
        established: established_at,
        exited: exit_at.max(established_at),
        supersteps,
        wire_bytes,
        counters,
        max_rss_kb: exits.iter().map(|e| e.max_rss_kb).max().unwrap_or(0),
        values_file,
        traces,
    })
}

/// One trial: launch in a fresh sub-directory of `scratch` (removed again
/// afterwards), repeating launches that lost a port race.
pub fn launch(
    node_bin: &Path,
    spec: &LaunchSpec,
    scratch: &Path,
    trial: usize,
) -> Result<Launch, String> {
    let mut last = String::new();
    for attempt in 0..BIND_RETRIES {
        let dir: PathBuf = scratch.join(format!("trial{trial}-{attempt}"));
        let result = launch_once(node_bin, spec, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Ok(launch) => return Ok(launch),
            Err(LaunchError::Failed(message)) => return Err(message),
            Err(LaunchError::PortRace(message)) => last = message,
        }
    }
    Err(format!(
        "no free port after {BIND_RETRIES} launches: {last}"
    ))
}
