//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository root
//! is [`benchmark_json`] written to a file; a self-test keeps the two equal.

use graphh::prelude::Codec;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
    }
}

/// `(name, why)` of every workload. The reasons are the one-line form of
/// the README's workload section.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pr-cluster",
        "2 graphh-node processes over loopback TCP, PageRank: every tile gathered and a dense compressed broadcast every superstep",
    ),
    (
        "sssp-grid",
        "in-process SSSP over a grid: hundreds of near-empty supersteps, so barrier, plane, pool and Bloom fixed costs are nearly all of it",
    ),
    (
        "pr-outofcore",
        "in-process PageRank with a cache of a quarter of the tiles: storage, tile decode and cache admit/evict dominate",
    ),
    (
        "bfs-rmat",
        "in-process direction-optimizing BFS from seeded sources: push/pull switching and the sparse/dense message choice",
    ),
];

/// `(metric, bound)` of every end-to-end metric: `bound` is the share of
/// the parent's median by which the metric may worsen.
///
/// `fail_share` of the issue is not a metric here: the contract wants
/// metrics that are never 0 and carries failures as `failed`/`attempted`.
pub fn end_to_end() -> Vec<(MetricSpec, f64)> {
    vec![
        (metric("setup_s", "s", Better::Lower), 0.25),
        (metric("run_s", "s", Better::Lower), 0.25),
        (metric("superstep_ms", "ms", Better::Lower), 0.25),
        (metric("medges_per_s", "Medges/s", Better::Higher), 0.25),
        (metric("wire_bytes", "bytes", Better::Lower), 0.25),
        (metric("disk_read_bytes", "bytes", Better::Lower), 0.05),
        (metric("peak_rss_mb", "MB", Better::Lower), 0.2),
    ]
}

/// The codecs the `compress` layer is probed with.
pub const PROBED_CODECS: [Codec; 4] = [
    Codec::Snappy,
    Codec::Zlib1,
    Codec::Zlib3,
    Codec::VarintDelta,
];

/// The two inputs each codec is probed on: a serialized tile and a plain
/// (pre-compression) dense broadcast message.
pub const PROBED_INPUTS: [&str; 2] = ["tile", "msg"];

/// The worker-lane phases of the node's existing `--trace-out` spans, as
/// `(span name, metric suffix)`.
pub const PHASES: [(&str, &str); 6] = [
    ("tile-compute", "tile_compute_s"),
    ("encode-publish", "encode_publish_s"),
    ("plane-flush", "plane_flush_s"),
    ("collect-decode", "collect_decode_s"),
    ("apply", "apply_s"),
    ("barrier-wait", "barrier_wait_s"),
];

/// Every per-layer metric; the crate names are the layers.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut m = vec![
        metric("graph.generate_s", "s", Lower),
        metric("graph.generate_medges_per_s", "Medges/s", Higher),
        metric("partition.spe_s", "s", Lower),
        metric("partition.spe_medges_per_s", "Medges/s", Higher),
        metric("partition.tile_encode_mb_per_s", "MB/s", Higher),
        metric("partition.tile_decode_mb_per_s", "MB/s", Higher),
        metric("partition.tiles", "count", Lower),
        metric("partition.tile_bytes", "bytes", Lower),
        metric("storage.mem_put_mb_per_s", "MB/s", Higher),
        metric("storage.mem_get_mb_per_s", "MB/s", Higher),
        metric("storage.disk_get_mb_per_s", "MB/s", Higher),
        metric("storage.mmap_read_mb_per_s", "MB/s", Higher),
        metric("storage.bytes_read", "bytes", Lower),
        metric("storage.read_ops", "count", Lower),
        metric("storage.bytes_written", "bytes", Lower),
    ];
    for codec in PROBED_CODECS {
        for input in PROBED_INPUTS {
            let base = format!("compress.{}.{input}", codec.name());
            m.push(metric(format!("{base}_compress_mb_per_s"), "MB/s", Higher));
            m.push(metric(
                format!("{base}_decompress_mb_per_s"),
                "MB/s",
                Higher,
            ));
            m.push(metric(format!("{base}_ratio"), "ratio", Higher));
        }
    }
    m.extend([
        metric("compress.calls", "count", Lower),
        metric("compress.bytes_in", "bytes", Lower),
        metric("compress.bytes_out", "bytes", Lower),
        metric("compress.scratch_reuse_ratio", "ratio", Higher),
        metric("cache.hit_raw_us", "us", Lower),
        metric("cache.hit_compressed_us", "us", Lower),
        metric("cache.admit_us", "us", Lower),
        metric("cache.miss_service_us", "us", Lower),
        metric("cache.hits", "count", Higher),
        metric("cache.misses", "count", Lower),
        metric("cache.evictions", "count", Lower),
        metric("cache.hit_ratio", "ratio", Higher),
        metric("cluster.dense_encode_mb_per_s", "MB/s", Higher),
        metric("cluster.dense_decode_mb_per_s", "MB/s", Higher),
        metric("cluster.sparse_encode_mb_per_s", "MB/s", Higher),
        metric("cluster.sparse_decode_mb_per_s", "MB/s", Higher),
        metric("cluster.messages", "count", Lower),
        metric("cluster.dense_share", "ratio", Higher),
        metric("cluster.wire_bytes_per_superstep", "bytes", Lower),
        // A calibrated cost model reads 1.0; "lower" only names the side
        // the seed's 4-28x overshoot has to come down from.
        metric("cluster.simulated_over_measured", "ratio", Lower),
        metric("pool.dispatch_us", "us", Lower),
        metric("core.plan_prepare_s", "s", Lower),
        metric("core.server_build_s", "s", Lower),
        metric("core.tile_phase_medges_per_s", "Medges/s", Higher),
        metric("core.tile_phase_ms", "ms", Lower),
        metric("core.apply_mupdates_per_s", "Mupdates/s", Higher),
        metric("core.merge_mupdates_per_s", "Mupdates/s", Higher),
        metric("core.edges_processed", "count", Lower),
        metric("core.tiles_processed", "count", Lower),
        metric("core.tiles_skipped", "count", Higher),
        metric("core.skip_ratio", "ratio", Higher),
        metric("core.vertices_updated", "count", Lower),
        metric("core.supersteps", "count", Lower),
        metric("core.push_supersteps", "count", Higher),
        metric("runtime.frame_encode_mb_per_s", "MB/s", Higher),
        metric("runtime.frame_decode_mb_per_s", "MB/s", Higher),
        metric("runtime.channel_superstep_us", "us", Lower),
        metric("runtime.tcp_superstep_us", "us", Lower),
        metric("runtime.tcp_mb_per_s", "MB/s", Higher),
        metric("runtime.tcp_resilient_superstep_us", "us", Lower),
        metric("runtime.tcp_resilient_mb_per_s", "MB/s", Higher),
        metric("runtime.establish_ms", "ms", Lower),
        metric("runtime.checkpoint_write_ms", "ms", Lower),
        metric("runtime.checkpoint_bytes", "bytes", Lower),
        metric("runtime.buffer_pool_hit_ratio", "ratio", Higher),
        metric("runtime.reconnects", "count", Lower),
        metric("runtime.replayed_frames", "count", Lower),
    ]);
    for (_, suffix) in PHASES {
        m.push(metric(format!("runtime.phase.{suffix}"), "s", Lower));
    }
    m.extend([
        metric("runtime.phase.unattributed_s", "s", Lower),
        metric("runtime.phase.lane_wall_s", "s", Lower),
        metric("obs.trace_overhead_pct", "%", Lower),
    ]);
    m
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let array = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let described = |m: &MetricSpec| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end = end_to_end()
        .iter()
        .map(|(m, bound)| format!("{{{}, \"bound\": {bound}}}", described(m)))
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|m| format!("{{{}}}", described(m)))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        array(workloads),
        array(end_to_end),
        array(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));

        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(name, _)| name.to_string())
            .chain(e2e.iter().map(|(m, _)| m.name.clone()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for name in names {
            assert!(well_formed(&name, 64, "_.-"), "bad name {name:?}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name.clone()), "name {name:?} used twice");
        }
        for m in e2e.iter().map(|(m, _)| m).chain(&layers) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "bad unit {:?}", m.unit);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        let setup = &e2e.iter().find(|(m, _)| m.name == "setup_s").unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        let widest = e2e.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert!(widest <= 0.25 && setup.1 == widest);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = graphh::obs::JsonValue::parse(&on_disk).expect("valid JSON");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(parsed.get(key).is_some(), "missing key {key}");
        }
    }
}
