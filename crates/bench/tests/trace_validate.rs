//! A real traced run must leave behind loadable observability artifacts.
//!
//! Launches a 2-process `graphh-node` cluster over the event-driven poll
//! plane with `--trace-out` and `--metrics-out`, then validates every emitted
//! file against the schemas in `docs/OBSERVABILITY.md` using the repo's own
//! JSON parser (`graphh_obs::JsonValue`) — no external tools. Also asserts
//! the trace actually contains the superstep phase spans and that the poll
//! plane's counters made it into the metrics snapshot.
//!
//! The `ci_*` tests re-run the same validators on files named by the
//! `GRAPHH_TRACE_JSON` / `GRAPHH_METRICS_JSON` environment variables; the CI
//! smoke job points them at the artifacts of its own traced node before
//! uploading them. Without the variables they pass trivially.

use graphh_bench::trace_check::{validate_chrome_trace, validate_node_metrics};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command};

const SERVERS: u32 = 2;

fn free_loopback_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

struct NodeArtifacts {
    trace: PathBuf,
    metrics: PathBuf,
}

fn spawn_traced_node(id: u32, ports: &[u16], artifacts: &NodeArtifacts) -> Child {
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
            "pagerank",
            "--scale",
            "7",
            "--edge-factor",
            "5",
            "--seed",
            "2017",
            "--tiles",
            "7",
            "--supersteps",
            "6",
            "--establish-timeout-secs",
            "30",
            "--trace-out",
            &artifacts.trace.display().to_string(),
            "--metrics-out",
            &artifacts.metrics.display().to_string(),
        ])
        .spawn()
        .expect("spawn graphh-node")
}

fn try_traced_cluster(attempt: u32) -> Result<Vec<NodeArtifacts>, String> {
    let dir = std::env::temp_dir();
    let artifacts: Vec<NodeArtifacts> = (0..SERVERS)
        .map(|id| {
            let stem = format!("graphh-trace-{}-a{attempt}-s{id}", std::process::id());
            NodeArtifacts {
                trace: dir.join(format!("{stem}.trace.json")),
                metrics: dir.join(format!("{stem}.metrics.json")),
            }
        })
        .collect();
    let ports = free_loopback_ports(SERVERS as usize);
    let children: Vec<Child> = (0..SERVERS)
        .map(|id| spawn_traced_node(id, &ports, &artifacts[id as usize]))
        .collect();
    let mut ok = true;
    for mut child in children {
        ok &= child.wait().expect("wait for graphh-node").success();
    }
    if !ok {
        return Err("a graphh-node process exited nonzero".into());
    }
    Ok(artifacts)
}

#[test]
fn traced_poll_cluster_emits_valid_trace_and_metrics_files() {
    // Retry the port-reservation race exactly as the multiprocess suite does.
    let mut artifacts = None;
    for attempt in 0..3 {
        match try_traced_cluster(attempt) {
            Ok(a) => {
                artifacts = Some(a);
                break;
            }
            Err(e) if attempt < 2 => eprintln!("cluster attempt {attempt} failed ({e}); retrying"),
            Err(e) => panic!("traced multi-process cluster never came up: {e}"),
        }
    }

    for (sid, node) in artifacts.unwrap().iter().enumerate() {
        let trace = std::fs::read_to_string(&node.trace)
            .unwrap_or_else(|e| panic!("read {:?}: {e}", node.trace));
        let stats = validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("server {sid} trace invalid: {e}"));
        // The full worker phase taxonomy (docs/OBSERVABILITY.md §2) must be
        // present: this run crossed a real TCP plane, so the plane-flush
        // and collect-decode phases are exercised too.
        for phase in [
            "tile-compute",
            "encode-publish",
            "plane-flush",
            "collect-decode",
            "apply",
        ] {
            assert!(
                stats.names.iter().any(|n| n == phase),
                "server {sid} trace is missing the {phase} span; has {:?}",
                stats.names
            );
        }
        // The set-up too: the node's generate and partition, then the
        // server's build.
        for setup in ["generate", "partition", "server-build"] {
            assert!(
                stats.names.iter().any(|n| n == setup),
                "server {sid} trace is missing the {setup} span; has {:?}",
                stats.names
            );
        }
        assert!(
            stats.superstep_spans >= 6,
            "server {sid}: expected at least one span per superstep"
        );

        let metrics = std::fs::read_to_string(&node.metrics)
            .unwrap_or_else(|e| panic!("read {:?}: {e}", node.metrics));
        let stats = validate_node_metrics(&metrics)
            .unwrap_or_else(|e| panic!("server {sid} metrics invalid: {e}"));
        assert_eq!(stats.server, sid as u64);
        assert_eq!(stats.supersteps_run, 6);
        // The poll plane's transport counters and the storage/cache counters
        // must appear in the snapshot of a poll-plane run.
        for prefix in ["poll.", "storage.", "cache.", "buffer_pool."] {
            assert!(
                stats.counter_names.iter().any(|n| n.starts_with(prefix)),
                "server {sid} metrics have no {prefix}* counter; has {:?}",
                stats.counter_names
            );
        }

        let _ = std::fs::remove_file(&node.trace);
        let _ = std::fs::remove_file(&node.metrics);
    }
}

/// CI hook: validate an externally produced trace file (no-op when the
/// variable is unset, so plain `cargo test` is unaffected).
#[test]
fn ci_trace_file_is_valid() {
    if let Ok(path) = std::env::var("GRAPHH_TRACE_JSON") {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read GRAPHH_TRACE_JSON={path}: {e}"));
        let stats = validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{path} invalid: {e}"));
        assert!(stats.superstep_spans > 0, "{path} has no superstep spans");
    }
}

/// CI hook: validate an externally produced metrics file (no-op when the
/// variable is unset).
#[test]
fn ci_metrics_file_is_valid() {
    if let Ok(path) = std::env::var("GRAPHH_METRICS_JSON") {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read GRAPHH_METRICS_JSON={path}: {e}"));
        let stats = validate_node_metrics(&json).unwrap_or_else(|e| panic!("{path} invalid: {e}"));
        assert!(
            !stats.counter_names.is_empty(),
            "{path} has an empty counter snapshot"
        );
    }
}
