//! Multi-process determinism: launch real `graphh-node` OS processes over
//! loopback TCP and pin their replicas bit-identical to each other *and* to
//! the in-process sequential reference executor — for PageRank, SSSP, WCC and
//! BFS (from a source where the engine never pushes and from one where it
//! switches).
//!
//! This is the strongest statement the transport makes: the same superstep
//! loop, wire codec and frame protocol, with the simulated servers living in
//! separate address spaces — each with exactly one event-loop thread driving
//! its peer sockets — produces byte-for-byte the values of the
//! single-threaded reference.

use graphh_bench::multiprocess::{decode_values, NodeWorkload};
use graphh_cluster::ClusterConfig;
use graphh_core::{GraphHConfig, GraphHEngine, SequentialExecutor};
use graphh_pool::WorkerPool;
use std::net::TcpListener;
use std::process::{Child, Command};
use std::sync::Arc;

const SERVERS: u32 = 2;

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

fn spawn_node(
    workload: &NodeWorkload,
    extra_args: &[&str],
    id: u32,
    ports: &[u16],
    out: &std::path::Path,
) -> Child {
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_graphh-node"));
    for arg in &workload.program_args {
        cmd.args(["--program-arg", arg]);
    }
    cmd.args(extra_args);
    cmd.args([
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
        "30",
        "--out",
        &out.display().to_string(),
    ])
    .spawn()
    .expect("spawn graphh-node")
}

/// Run the cluster once; `Err` when any node exits nonzero (e.g. it lost the
/// port-reservation race) so the caller can retry with fresh ports.
fn try_cluster_run(
    workload: &NodeWorkload,
    extra_args: &[&str],
    attempt: u32,
) -> Result<Vec<Vec<f64>>, String> {
    let dir = std::env::temp_dir();
    let ports = free_loopback_ports(SERVERS as usize);
    let outs: Vec<std::path::PathBuf> = (0..SERVERS)
        .map(|id| {
            dir.join(format!(
                "graphh-mp-{}-{}-p{}-a{attempt}-s{id}.bin",
                std::process::id(),
                workload.program,
                ports[0]
            ))
        })
        .collect();
    let children: Vec<Child> = (0..SERVERS)
        .map(|id| spawn_node(workload, extra_args, id, &ports, &outs[id as usize]))
        .collect();
    let mut ok = true;
    for mut child in children {
        ok &= child.wait().expect("wait for graphh-node").success();
    }
    if !ok {
        return Err("a graphh-node process exited nonzero".into());
    }
    let values = outs
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let _ = std::fs::remove_file(path);
            decode_values(&bytes)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(values)
}

fn assert_cluster_matches_sequential(workload: NodeWorkload) {
    assert_cluster_matches_sequential_with_args(workload, &[]);
}

/// [`assert_cluster_matches_sequential`] with extra `graphh-node` CLI flags
/// (e.g. `--compressor zlib-1`). The sequential reference keeps the default
/// config: config knobs passed this way must never change decoded values.
fn assert_cluster_matches_sequential_with_args(workload: NodeWorkload, extra_args: &[&str]) {
    // Retry a couple of times: the free-port reservation is inherently racy
    // on a shared machine, and a stolen port makes a node exit nonzero.
    let mut replicas = None;
    for attempt in 0..3 {
        match try_cluster_run(&workload, extra_args, attempt) {
            Ok(values) => {
                replicas = Some(values);
                break;
            }
            Err(e) if attempt < 2 => eprintln!("cluster attempt {attempt} failed ({e}); retrying"),
            Err(e) => panic!("multi-process cluster never came up: {e}"),
        }
    }
    let replicas = replicas.unwrap();

    let pool = WorkerPool::with_host_parallelism();
    let (partitioned, program) = workload.build(&pool).expect("reference workload");
    let reference = GraphHEngine::with_executor(
        GraphHConfig::paper_default(ClusterConfig::paper_testbed(SERVERS)),
        Arc::new(SequentialExecutor::new()),
    )
    .run(&partitioned, program.as_ref())
    .expect("sequential reference run");

    for (sid, values) in replicas.iter().enumerate() {
        assert_eq!(
            values.len(),
            reference.values.len(),
            "{}: server {sid} value count",
            workload.program
        );
        for (v, (x, y)) in values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{}: server {sid} vertex {v} diverged across processes ({x} vs {y})",
                workload.program
            );
        }
    }
}

fn workload(program: &str) -> NodeWorkload {
    NodeWorkload {
        program: program.into(),
        program_args: Vec::new(),
        scale: 7,
        edge_factor: 5,
        seed: 2017,
        tiles: 7,
        supersteps: 8,
    }
}

#[test]
fn two_process_poll_pagerank_matches_sequential() {
    assert_cluster_matches_sequential(workload("pagerank"));
}

#[test]
fn two_process_poll_sssp_matches_sequential() {
    assert_cluster_matches_sequential(workload("sssp"));
}

#[test]
fn two_process_poll_wcc_matches_sequential() {
    assert_cluster_matches_sequential(workload("wcc"));
}

// The formerly orphaned BFS kernel, end-to-end through the registry and the
// `--program` flag — from the default source, whose fan-out is dense enough
// on this small graph that every superstep pulls, and from a source passed
// as `--program-arg source=V`, so the push path and the per-superstep
// direction decision run inside real separate processes.

#[test]
fn two_process_poll_bfs_matches_sequential() {
    assert_cluster_matches_sequential(workload("bfs"));
}

#[test]
fn two_process_poll_dopt_bfs_switches_direction_and_matches_sequential() {
    let mut w = workload("bfs");
    // From a vertex with one out-edge the engine pushes twice, pulls three
    // times and pushes the tail on this small graph, and every process must
    // switch at the same superstep to stay bit-identical to the sequential
    // reference.
    let (partitioned, _) = w.build(&WorkerPool::new(1)).expect("workload");
    let source = partitioned.out_degrees.iter().position(|&d| d == 1);
    w.program_args = vec![format!("source={}", source.expect("a quiet vertex"))];
    assert_cluster_matches_sequential(w);
}

// The broadcast wire path end-to-end across real processes, under every
// `--compressor` value: reals (PageRank: byte planes, the head compressed or
// stored) and integers (BFS: varint codes) are packed and compressed on one
// node and unpacked on the other — decoded values must still be bit-identical
// to the sequential reference (which runs the default config: the wire
// layout and its compressor never change values, only wire bytes).

#[test]
fn two_process_poll_pagerank_and_bfs_match_sequential_under_every_compressor() {
    for compressor in ["none", "raw", "snappy", "zlib-1", "zlib-3", "varint-delta"] {
        for program in ["pagerank", "bfs"] {
            assert_cluster_matches_sequential_with_args(
                workload(program),
                &["--compressor", compressor],
            );
        }
    }
}

/// A traversal source past the end of the graph is refused when the plan is
/// made — the node names the id and the vertex count and exits non-zero,
/// instead of running to an all-`+∞` result with exit status 0.
#[test]
fn a_source_past_the_end_is_a_nonzero_exit_naming_the_vertex() {
    for program in ["bfs", "sssp"] {
        let w = workload(program);
        let out = std::env::temp_dir().join(format!(
            "graphh-mp-{}-{program}-bad-source.bin",
            std::process::id()
        ));
        let output = Command::new(env!("CARGO_BIN_EXE_graphh-node"))
            .args(["--id", "0", "--servers", "1", "--listen", "127.0.0.1:0"])
            .args(["--program", program, "--program-arg", "source=4000000000"])
            .args(["--scale", &w.scale.to_string()])
            .args(["--edge-factor", &w.edge_factor.to_string()])
            .args([
                "--seed",
                &w.seed.to_string(),
                "--tiles",
                &w.tiles.to_string(),
            ])
            .args(["--out", &out.display().to_string()])
            .output()
            .expect("run graphh-node");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{program}: {stderr}");
        assert!(
            stderr.contains("vertex 4000000000") && stderr.contains("128 vertices"),
            "{program}: {stderr}"
        );
        assert!(!out.exists(), "{program}: no values may be written");
    }
}

/// A graph size the id types cannot hold is refused before anything is
/// allocated for it: exit 1 naming the flag, not a `SIGABRT` from a 96 GB
/// allocation.
#[test]
fn a_scale_past_32_bits_is_a_nonzero_exit_naming_the_flag() {
    for (flags, named) in [
        (&["--scale", "32"][..], "--scale 32"),
        (&["--scale", "40"], "--scale 40"),
        (&["--scale", "30", "--edge-factor", "8"], "--edge-factor 8"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_graphh-node"))
            .args(["--id", "0", "--servers", "1", "--listen", "127.0.0.1:0"])
            .args(flags)
            .output()
            .expect("run graphh-node");
        let stderr = String::from_utf8_lossy(&output.stderr);
        // An abort has no exit code at all.
        assert_eq!(output.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
}

/// Usage that was asked for is an answer (stdout, exit 0); usage after a bad
/// command line is a complaint (stderr, exit 2).
#[test]
fn help_is_an_answer_and_a_bad_flag_is_a_complaint() {
    let run = |flag: &str| {
        Command::new(env!("CARGO_BIN_EXE_graphh-node"))
            .arg(flag)
            .output()
            .expect("run graphh-node")
    };
    for flag in ["--help", "-h", "--list-programs"] {
        let output = run(flag);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(output.stderr.is_empty(), "{flag}");
        assert!(stdout.starts_with("usage: graphh-node"), "{flag}: {stdout}");
        for spec in graphh_core::registry::PROGRAMS {
            assert!(stdout.contains(spec.name), "{flag}: {stdout}");
        }
        // The engine's two choices are not options of any program.
        assert!(!stdout.contains("alpha") && !stdout.contains("beta"));
    }
    let output = run("--frobnicate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    assert!(
        stderr.contains("unknown flag --frobnicate") && stderr.contains("usage: graphh-node"),
        "{stderr}"
    );
}
