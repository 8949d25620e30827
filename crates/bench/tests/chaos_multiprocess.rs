//! The multiprocess chaos driver: a real 3-process cluster must survive a
//! `SIGKILL` mid-run.
//!
//! Three `graphh-node` OS processes run PageRank over loopback TCP, with no
//! fault-tolerance flag. A while after the victim node prints `cluster
//! established` (so the superstep loop is live), the test `kill -9`s it —
//! no goodbye, no flush, exactly what a crashed machine looks like to its
//! peers — and then restarts the same command line, so the replacement
//! listens at the port the peer table gives its id. The links come back up
//! with the `GHHR` resume handshake, the survivors send the new process
//! their state and replay the frames it lost, and the cluster finishes the
//! run. The new process must say it resumed from a peer's state past
//! superstep 0, so the restart cannot pass by plain replay. Victim 2 (the highest id) redials both survivors itself; victim 1
//! redials server 0 and is redialed by server 2, so both dial directions
//! are exercised.
//!
//! The demanded outcome is the strongest one: the final `GHHV` value files
//! of all three servers must be byte-identical to each other *and* to the
//! in-process sequential reference executor — not "recovered", but exactly
//! the bits an unfaulted run produces.

use graphh_bench::multiprocess::NodeWorkload;
use graphh_cluster::ClusterConfig;
use graphh_core::{GraphHConfig, GraphHEngine, SequentialExecutor};
use graphh_obs::Tracer;
use graphh_pool::WorkerPool;
use graphh_runtime::decode_values;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVERS: u32 = 3;

fn free_loopback_ports(n: usize) -> Vec<u16> {
    // Bind ephemeral listeners to reserve distinct ports, then release them
    // for the node processes. The tiny reuse race is retried by the caller.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

fn workload() -> NodeWorkload {
    NodeWorkload {
        program: "pagerank".into(),
        program_args: Vec::new(),
        scale: 7,
        edge_factor: 5,
        seed: 2017,
        tiles: 7,
        supersteps: 8,
    }
}

fn spawn_node(workload: &NodeWorkload, id: u32, ports: &[u16], out: &Path) -> Child {
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    Command::new(env!("CARGO_BIN_EXE_graphh-node"))
        .args([
            "--id",
            &id.to_string(),
            "--servers",
            &SERVERS.to_string(),
            "--listen",
            &format!("127.0.0.1:{}", ports[id as usize]),
            "--peers",
            &peers,
            "--program",
            &workload.program,
            "--scale",
            &workload.scale.to_string(),
            "--edge-factor",
            &workload.edge_factor.to_string(),
            "--seed",
            &workload.seed.to_string(),
            "--tiles",
            &workload.tiles.to_string(),
            "--supersteps",
            &workload.supersteps.to_string(),
            "--establish-timeout-secs",
            "60",
            "--reconnect-deadline-secs",
            "60",
            // Widen each superstep so the kill reliably lands mid-run.
            "--superstep-delay-ms",
            "120",
            "--out",
            &out.display().to_string(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn graphh-node")
}

/// Forward `child`'s stderr to ours, and pass its lines on.
fn stderr_lines(child: &mut Child) -> Receiver<String> {
    let (tx, rx) = channel();
    let stderr = child.stderr.take().expect("piped stderr");
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            eprintln!("{line}");
            let _ = tx.send(line);
        }
    });
    rx
}

/// Run the cluster once with a mid-run `SIGKILL` + restart of `victim`,
/// returning the replicas and the superstep the restart resumed at (`None`
/// without a peer's state); `Err` when any node exits nonzero (e.g. it lost
/// the port-reservation race) so the caller can retry with fresh ports.
fn try_chaos_run(victim: u32, attempt: u32) -> Result<(Vec<Vec<u8>>, Option<u32>), String> {
    let w = workload();
    let tag = format!("graphh-chaos-{}-v{victim}-a{attempt}", std::process::id());
    let dir = std::env::temp_dir();
    let outs: Vec<PathBuf> = (0..SERVERS)
        .map(|id| dir.join(format!("{tag}-s{id}.bin")))
        .collect();
    let ports = free_loopback_ports(SERVERS as usize);
    let mut children: Vec<Child> = (0..SERVERS)
        .map(|id| spawn_node(&w, id, &ports, &outs[id as usize]))
        .collect();
    let stderr: Vec<Receiver<String>> = children.iter_mut().map(stderr_lines).collect();

    // The victim's `cluster established` line is the signal that the
    // superstep loop is about to run — the window where a crash actually
    // costs in-flight state.
    let deadline = Instant::now() + Duration::from_secs(60);
    let established = |line: String| line.contains("cluster established");
    while !stderr[victim as usize].try_iter().any(established) {
        if Instant::now() >= deadline {
            for child in &mut children {
                let _ = child.kill();
            }
            return Err("victim never established".into());
        }
        for child in &mut children {
            if let Ok(Some(status)) = child.try_wait() {
                for child in &mut children {
                    let _ = child.kill();
                }
                return Err(format!("a node exited early ({status}) before the kill"));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Land a few supersteps into the run (each is at least 120 ms long).
    std::thread::sleep(Duration::from_millis(400));

    // kill -9: no goodbye, no flush — a crash, not an exit.
    let v = victim as usize;
    children[v]
        .kill()
        .map_err(|e| format!("kill victim: {e}"))?;
    let _ = children[v].wait();

    // Restart the identical command line: the node rejoins with the resume
    // handshake and resumes from its peers' state while they replay the
    // delta.
    children[v] = spawn_node(&w, victim, &ports, &outs[v]);
    let restarted = stderr_lines(&mut children[v]);

    let mut ok = true;
    for child in &mut children {
        ok &= child.wait().expect("wait for graphh-node").success();
    }
    if !ok {
        for path in &outs {
            let _ = std::fs::remove_file(path);
        }
        return Err("a graphh-node process exited nonzero".into());
    }
    let resumed_at = restarted.iter().find_map(|line| {
        let (_, at) = line.split_once("resuming from a peer's state at superstep ")?;
        at.parse().ok()
    });
    let files = outs
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let _ = std::fs::remove_file(path);
            Ok(bytes)
        })
        .collect::<Result<_, String>>()?;
    Ok((files, resumed_at))
}

#[test]
fn kill9_mid_run_restart_at_the_same_port_matches_sequential_byte_for_byte() {
    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = workload()
        .build(&pool, &Tracer::off())
        .expect("reference workload");
    let reference = GraphHEngine::with_executor(
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS)),
        Arc::new(SequentialExecutor::new()),
    )
    .run(&partitioned, program.as_ref())
    .expect("sequential reference run");

    for victim in [1, 2] {
        // Retry a couple of times: the free-port reservation is inherently
        // racy on a shared machine, and a stolen port makes a node exit
        // nonzero.
        let mut raw = None;
        for attempt in 0..3 {
            match try_chaos_run(victim, attempt) {
                Ok(files) => {
                    raw = Some(files);
                    break;
                }
                Err(e) if attempt < 2 => {
                    eprintln!("victim {victim}: chaos attempt {attempt} failed ({e}); retrying")
                }
                Err(e) => panic!("victim {victim}: chaos cluster never completed: {e}"),
            }
        }
        let (raw, resumed_at) = raw.unwrap();
        // The kill lands a few supersteps in: the restart went through a
        // peer's state, not plain replay from superstep 0.
        assert!(
            resumed_at.is_some_and(|at| at > 0),
            "victim {victim}: the restart resumed at {resumed_at:?}, not from a peer's state"
        );

        // The GHHV files themselves must be byte-identical across all
        // replicas — the kill and replay must not perturb even the encoding.
        for (sid, bytes) in raw.iter().enumerate().skip(1) {
            assert_eq!(
                bytes, &raw[0],
                "victim {victim}: server {sid}'s GHHV file differs from server 0's"
            );
        }
        for (sid, bytes) in raw.iter().enumerate() {
            let values = decode_values(bytes).expect("decode GHHV");
            assert_eq!(values.len(), reference.values.len(), "server {sid}");
            for (v, (x, y)) in values.iter().zip(&reference.values).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "victim {victim}: server {sid} vertex {v} diverged after kill -9 + restart \
                     ({x} vs {y})"
                );
            }
        }
    }
}
