//! The multiprocess chaos driver: a real 3-process cluster must survive a
//! `SIGKILL` mid-run.
//!
//! Three `graphh-node` OS processes run PageRank over loopback TCP with
//! superstep-granular `GHHC` checkpoints. Once
//! the victim node has written its first checkpoint (proof the run is past
//! establishment and mid-superstep-loop), the driver `kill -9`s it — no
//! goodbye, no flush, exactly what a crashed machine looks like to its peers
//! — and then restarts the same command line. The restarted process loads
//! its checkpoint, redials with the `GHHR` resume handshake, peers replay
//! the frames it lost, and the cluster finishes the run.
//!
//! The demanded outcome is the strongest one: the final `GHHV` value files
//! of all three servers must be byte-identical to each other *and* to the
//! in-process sequential reference executor — not "recovered", but exactly
//! the bits an unfaulted run produces.

use graphh_bench::multiprocess::{decode_values, NodeWorkload};
use graphh_cluster::ClusterConfig;
use graphh_core::{GraphHConfig, GraphHEngine, SequentialExecutor};
use graphh_pool::WorkerPool;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVERS: u32 = 3;
/// The node the driver kills and restarts. Highest id: it dials every peer
/// on restart, so the rejoin exercises the dial side of the resume
/// handshake against both survivors at once.
const VICTIM: u32 = 2;

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

fn spawn_node(
    workload: &NodeWorkload,
    id: u32,
    ports: &[u16],
    ckpt_dir: &Path,
    out: &Path,
) -> Child {
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
            "--checkpoint-dir",
            &ckpt_dir.display().to_string(),
            "--checkpoint-every",
            "1",
            "--reconnect-deadline-secs",
            "60",
            // Widen each superstep so the kill reliably lands mid-run.
            "--superstep-delay-ms",
            "120",
            "--out",
            &out.display().to_string(),
        ])
        .spawn()
        .expect("spawn graphh-node")
}

/// Run the cluster once with a mid-run `SIGKILL` + restart of the victim;
/// `Err` when any node exits nonzero (e.g. it lost the port-reservation
/// race) so the caller can retry with fresh ports.
fn try_chaos_run(attempt: u32) -> Result<Vec<Vec<u8>>, String> {
    let w = workload();
    let tag = format!("graphh-chaos-{}-a{attempt}", std::process::id());
    let dir = std::env::temp_dir();
    let ckpt_dir = dir.join(format!("{tag}-ckpt"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("create {ckpt_dir:?}: {e}"))?;
    let outs: Vec<PathBuf> = (0..SERVERS)
        .map(|id| dir.join(format!("{tag}-s{id}.bin")))
        .collect();
    let ports = free_loopback_ports(SERVERS as usize);
    let mut children: Vec<Child> = (0..SERVERS)
        .map(|id| spawn_node(&w, id, &ports, &ckpt_dir, &outs[id as usize]))
        .collect();

    // The victim's first checkpoint is the signal that the cluster is
    // established and the superstep loop is live — the window where a crash
    // actually costs in-flight state.
    let victim_ckpt = ckpt_dir.join(format!("ckpt-s{VICTIM}.ghhc"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !victim_ckpt.exists() {
        if Instant::now() >= deadline {
            for child in &mut children {
                let _ = child.kill();
            }
            return Err("victim never wrote its first checkpoint".into());
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
    // Land inside a superstep, not on the checkpoint boundary just crossed.
    std::thread::sleep(Duration::from_millis(60));

    // kill -9: no goodbye, no flush — a crash, not an exit.
    children[VICTIM as usize]
        .kill()
        .map_err(|e| format!("kill victim: {e}"))?;
    let _ = children[VICTIM as usize].wait();

    // Restart the identical command line: the node auto-loads its checkpoint
    // and rejoins with the resume handshake while peers replay the delta.
    children[VICTIM as usize] = spawn_node(&w, VICTIM, &ports, &ckpt_dir, &outs[VICTIM as usize]);

    let mut ok = true;
    for child in &mut children {
        ok &= child.wait().expect("wait for graphh-node").success();
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if !ok {
        for path in &outs {
            let _ = std::fs::remove_file(path);
        }
        return Err("a graphh-node process exited nonzero".into());
    }
    outs.iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let _ = std::fs::remove_file(path);
            Ok(bytes)
        })
        .collect()
}

/// Spawn one node that bootstraps from a membership seed instead of a
/// static `--peers` table. `listen_port` is the node's own port — for the
/// replacement incarnation it is deliberately *different* from the port the
/// dead process occupied.
fn spawn_node_seeded(
    workload: &NodeWorkload,
    id: u32,
    listen_port: u16,
    seed_port: u16,
    ckpt_dir: &Path,
    out: &Path,
) -> Child {
    Command::new(env!("CARGO_BIN_EXE_graphh-node"))
        .args([
            "--id",
            &id.to_string(),
            "--servers",
            &SERVERS.to_string(),
            "--listen",
            &format!("127.0.0.1:{listen_port}"),
            "--seed",
            &format!("127.0.0.1:{seed_port}"),
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
            "--checkpoint-dir",
            &ckpt_dir.display().to_string(),
            "--checkpoint-every",
            "1",
            "--reconnect-deadline-secs",
            "60",
            "--superstep-delay-ms",
            "120",
            "--out",
            &out.display().to_string(),
        ])
        .spawn()
        .expect("spawn graphh-node (seeded)")
}

/// The membership run: cluster bootstrapped from seeds only, victim killed
/// with `SIGKILL` and restarted on a **different port**. Node 1 is the victim
/// so both redial directions are exercised: the replacement dials node 0
/// itself, while node 2 must *learn the new address through gossip* (node 0
/// serves the adoption announce, the book delta rides the ack cadence to
/// node 2, and node 2's reconnect loop re-consults the book before redialing).
fn try_membership_run(attempt: u32) -> Result<Vec<Vec<u8>>, String> {
    const VICTIM: u32 = 1;
    let w = workload();
    let tag = format!("graphh-member-{}-a{attempt}", std::process::id());
    let dir = std::env::temp_dir();
    let ckpt_dir = dir.join(format!("{tag}-ckpt"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("create {ckpt_dir:?}: {e}"))?;
    let outs: Vec<PathBuf> = (0..SERVERS)
        .map(|id| dir.join(format!("{tag}-s{id}.bin")))
        .collect();
    // One extra port: the replacement incarnation's fresh address.
    let ports = free_loopback_ports(SERVERS as usize + 1);
    let seed_port = ports[0]; // node 0 doubles as the seed node
    let mut children: Vec<Child> = (0..SERVERS)
        .map(|id| {
            spawn_node_seeded(
                &w,
                id,
                ports[id as usize],
                seed_port,
                &ckpt_dir,
                &outs[id as usize],
            )
        })
        .collect();

    let victim_ckpt = ckpt_dir.join(format!("ckpt-s{VICTIM}.ghhc"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !victim_ckpt.exists() {
        if Instant::now() >= deadline {
            for child in &mut children {
                let _ = child.kill();
            }
            return Err("victim never wrote its first checkpoint".into());
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
    std::thread::sleep(Duration::from_millis(60));

    children[VICTIM as usize]
        .kill()
        .map_err(|e| format!("kill victim: {e}"))?;
    let _ = children[VICTIM as usize].wait();

    // The replacement: same server id, same checkpoint directory, same seed —
    // but a brand-new listen port. Nobody tells the survivors; the address
    // book has to carry the adoption.
    children[VICTIM as usize] = spawn_node_seeded(
        &w,
        VICTIM,
        ports[SERVERS as usize],
        seed_port,
        &ckpt_dir,
        &outs[VICTIM as usize],
    );

    let mut ok = true;
    for child in &mut children {
        ok &= child.wait().expect("wait for graphh-node").success();
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if !ok {
        for path in &outs {
            let _ = std::fs::remove_file(path);
        }
        return Err("a graphh-node process exited nonzero".into());
    }
    outs.iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let _ = std::fs::remove_file(path);
            Ok(bytes)
        })
        .collect()
}

#[test]
fn seed_discovered_cluster_adopts_replacement_at_new_port_byte_for_byte() {
    let mut raw = None;
    for attempt in 0..3 {
        match try_membership_run(attempt) {
            Ok(files) => {
                raw = Some(files);
                break;
            }
            Err(e) if attempt < 2 => {
                eprintln!("membership attempt {attempt} failed ({e}); retrying")
            }
            Err(e) => panic!("membership cluster never completed: {e}"),
        }
    }
    let raw = raw.unwrap();

    for (sid, bytes) in raw.iter().enumerate().skip(1) {
        assert_eq!(
            bytes, &raw[0],
            "server {sid}'s GHHV file differs from server 0's after the replacement"
        );
    }

    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = workload().build(&pool).expect("reference workload");
    let reference = GraphHEngine::with_executor(
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS)),
        Arc::new(SequentialExecutor::new()),
    )
    .run(&partitioned, program.as_ref())
    .expect("sequential reference run");

    for (sid, bytes) in raw.iter().enumerate() {
        let values = decode_values(bytes).expect("decode GHHV");
        assert_eq!(values.len(), reference.values.len(), "server {sid}");
        for (v, (x, y)) in values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "server {sid} vertex {v} diverged after replacement at a new port ({x} vs {y})"
            );
        }
    }
}

#[test]
fn kill9_mid_run_restart_matches_sequential_byte_for_byte() {
    // Retry a couple of times: the free-port reservation is inherently racy
    // on a shared machine, and a stolen port makes a node exit nonzero.
    let mut raw = None;
    for attempt in 0..3 {
        match try_chaos_run(attempt) {
            Ok(files) => {
                raw = Some(files);
                break;
            }
            Err(e) if attempt < 2 => eprintln!("chaos attempt {attempt} failed ({e}); retrying"),
            Err(e) => panic!("chaos cluster never completed: {e}"),
        }
    }
    let raw = raw.unwrap();

    // The GHHV files themselves must be byte-identical across all replicas —
    // the kill and replay must not perturb even the encoding.
    for (sid, bytes) in raw.iter().enumerate().skip(1) {
        assert_eq!(
            bytes, &raw[0],
            "server {sid}'s GHHV file differs from server 0's after the kill"
        );
    }

    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = workload().build(&pool).expect("reference workload");
    let reference = GraphHEngine::with_executor(
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS)),
        Arc::new(SequentialExecutor::new()),
    )
    .run(&partitioned, program.as_ref())
    .expect("sequential reference run");

    for (sid, bytes) in raw.iter().enumerate() {
        let values = decode_values(bytes).expect("decode GHHV");
        assert_eq!(values.len(), reference.values.len(), "server {sid}");
        for (v, (x, y)) in values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "server {sid} vertex {v} diverged after kill -9 + restart ({x} vs {y})"
            );
        }
    }
}
