//! The per-crate layer budget: every layer measured from outside, by
//! timing calls into its public functions.
//!
//! Work counts are exact: they come from the untimed `SequentialExecutor`
//! reference and from the counters the run under test published. Timings
//! are medians of [`REPS`] repetitions over inputs harvested from the
//! workload itself (its tile blobs, a dense broadcast of its final values),
//! except generate and SPE, which are the fastest of the pass's set-up
//! repetitions like `setup_s` itself. The TCP probes use `PollPlane`, the
//! transport ROADMAP keeps.

use crate::cluster::PhaseSpan;
use crate::inputs::Inputs;
use crate::spec::{PHASES, PROBED_CODECS};
use crate::stats::median;
use crate::trace::Recorder;
use crate::verify::bit_identical;
use crate::workload::{Job, SERVERS};
use graphh::cache::{CacheMode, EdgeCache, EdgeCacheConfig};
use graphh::cluster::{
    BroadcastEncoding, BroadcastMessage, CommunicationMode, MessageCodec, ServerMetrics,
};
use graphh::compress::CompressorScratch;
use graphh::core::exec::{merge_updates_in_place, ExecutionPlan, ServerState};
use graphh::pool::WorkerPool;
use graphh::prelude::*;
use graphh::runtime::{
    encode_message_into, BroadcastPlane, ChannelPlane, Checkpoint, CheckpointSink, FrameDecoder,
    PollPlane, ResilienceConfig,
};
use graphh::storage::mmap::MmapTileReader;
use graphh::storage::{IoMeter, MeteredBackend, StorageBackend};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions behind every probe timing.
const REPS: usize = 10;

/// Tiles the partition and storage probes move per repetition.
const SAMPLE_TILES: usize = 8;

/// Payload of the plane bandwidth probes.
const PLANE_PAYLOAD_BYTES: usize = 1 << 20;

/// Median seconds of [`REPS`] calls of `f`.
fn time_reps(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e6
}

/// `part / whole`, or `empty` when nothing was counted.
fn share(part: u64, whole: u64, empty: f64) -> f64 {
    if whole == 0 {
        empty
    } else {
        part as f64 / whole as f64
    }
}

/// Sum of the counters named `<prefix><anything><suffix>` — the per-server
/// families such as `storage.s0.bytes_read`.
pub fn counter_family(counters: &BTreeMap<String, u64>, prefix: &str, suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|(_, value)| value)
        .sum()
}

/// Per-phase seconds of one worker lane, the lane's wall time (first
/// superstep span to last) and what the phases leave unattributed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    pub phases: [f64; PHASES.len()],
    pub lane_wall_s: f64,
}

impl PhaseTotals {
    pub fn unattributed_s(&self) -> f64 {
        self.lane_wall_s - self.phases.iter().sum::<f64>()
    }

    pub fn add(&mut self, other: &PhaseTotals) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases) {
            *mine += theirs;
        }
        self.lane_wall_s += other.lane_wall_s;
    }

    pub fn scaled(mut self, factor: f64) -> PhaseTotals {
        self.phases.iter_mut().for_each(|p| *p *= factor);
        self.lane_wall_s *= factor;
        self
    }
}

/// Fold the superstep-phase spans of worker lane `tid`.
pub fn phase_totals(spans: &[PhaseSpan], tid: u32) -> PhaseTotals {
    let mut totals = PhaseTotals::default();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for span in spans.iter().filter(|s| s.tid == tid) {
        if let Some(slot) = PHASES.iter().position(|(name, _)| *name == span.name) {
            totals.phases[slot] += span.dur_us as f64 / 1e6;
            first = first.min(span.start_us);
            last = last.max(span.start_us + span.dur_us);
        }
    }
    totals.lane_wall_s = last.saturating_sub(first) as f64 / 1e6;
    totals
}

/// Everything the probes read; all of it exists before they start.
pub struct LayerInputs<'a> {
    pub inputs: &'a Inputs,
    pub config: &'a GraphHConfig,
    pub jobs: &'a [Job],
    pub references: &'a [RunResult],
    /// Counters one untraced trial published (summed over the nodes).
    pub counters: &'a BTreeMap<String, u64>,
    /// Fastest of the set-up repetitions.
    pub generate_s: f64,
    pub spe_s: f64,
    /// The untraced `run_s` as reported, and the fastest traced run's.
    pub run_s: f64,
    pub traced_run_s: f64,
    /// Mean over the worker lanes of that traced run.
    pub phases: PhaseTotals,
    /// A directory the storage and checkpoint probes may fill.
    pub scratch: &'a Path,
}

/// What a harness-side superstep loop over real `ServerState`s measured.
struct SuperstepProbe {
    tile_phase_s: Vec<f64>,
    edges: u64,
    merge_s: f64,
    merged: u64,
    apply_s: f64,
    applied: u64,
    dense_messages: u64,
    messages: u64,
    values: Vec<f64>,
}

/// The sequential executor's loop with a clock around each stage: tile
/// phase, merge and apply are timed per call, every message's encoding
/// choice is counted. Values must come out bit-identical to the reference.
fn superstep_probe(
    li: &LayerInputs<'_>,
    plan: &ExecutionPlan,
    program: &dyn GabProgram,
) -> SuperstepProbe {
    let partitioned = &li.inputs.partitioned;
    let mut servers: Vec<ServerState> = (0..SERVERS)
        .map(|sid| ServerState::build(li.config, plan, partitioned, sid))
        .collect();
    let mut probe = SuperstepProbe {
        tile_phase_s: Vec::new(),
        edges: 0,
        merge_s: 0.0,
        merged: 0,
        apply_s: 0.0,
        applied: 0,
        dense_messages: 0,
        messages: 0,
        values: Vec::new(),
    };
    let mut frontier = plan.initial_frontier();
    let mut updates: Vec<(u32, f64)> = Vec::new();
    for superstep in 0..plan.max_supersteps {
        updates.clear();
        let view = plan.frontier_view(program, &frontier);
        for server in &mut servers {
            let started = Instant::now();
            let phase = server
                .run_tile_phase(program, plan, superstep, &view, li.config.use_bloom_filter)
                .expect("tile phase on generated input");
            probe.tile_phase_s.push(started.elapsed().as_secs_f64());
            probe.edges += phase.metrics.edges_processed;
            for message in &phase.messages {
                probe.messages += 1;
                let encoding = message.choose_encoding(plan.message_codec.mode());
                probe.dense_messages += u64::from(encoding == BroadcastEncoding::Dense);
                updates.extend(message.updates.iter().copied());
            }
        }
        let started = Instant::now();
        merge_updates_in_place(&mut updates);
        probe.merge_s += started.elapsed().as_secs_f64();
        probe.merged += updates.len() as u64;
        let started = Instant::now();
        for server in &mut servers {
            server.apply_updates(&updates);
        }
        probe.apply_s += started.elapsed().as_secs_f64();
        probe.applied += updates.len() as u64 * u64::from(SERVERS);
        frontier.clear();
        frontier.extend(updates.iter().map(|&(v, _)| v));
        if frontier.is_empty() {
            break;
        }
    }
    probe.values = std::mem::take(&mut servers[0].values);
    probe
}

/// Run `supersteps` BSP rounds on both endpoints (each broadcasting
/// `payload` per round unless it is empty) and return endpoint 0's seconds.
fn drive_pair(
    mut a: Box<dyn BroadcastPlane>,
    mut b: Box<dyn BroadcastPlane>,
    supersteps: u32,
    payload: &[u8],
) -> f64 {
    fn rounds(plane: &mut dyn BroadcastPlane, supersteps: u32, payload: &[u8]) {
        for step in 0..supersteps {
            if !payload.is_empty() {
                plane.broadcast(step, payload).expect("probe broadcast");
            }
            plane.end_superstep(step).expect("probe end_superstep");
            black_box(plane.collect(step).expect("probe collect"));
            plane.acknowledge(step).expect("probe acknowledge");
        }
    }
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || {
            rounds(b.as_mut(), supersteps, payload);
            b
        });
        let started = Instant::now();
        rounds(a.as_mut(), supersteps, payload);
        let elapsed = started.elapsed().as_secs_f64();
        // Both endpoints stay open until both are done, then close together.
        drop(peer.join().expect("probe peer thread"));
        elapsed
    })
}

fn channel_pair() -> (Box<dyn BroadcastPlane>, Box<dyn BroadcastPlane>) {
    let mut planes = ChannelPlane::connect(SERVERS);
    let b = planes.pop().expect("two endpoints");
    let a = planes.pop().expect("two endpoints");
    (Box::new(a), Box::new(b))
}

/// Bind two loopback endpoints and establish them against each other.
fn tcp_pair(resilient: bool) -> (Box<dyn BroadcastPlane>, Box<dyn BroadcastPlane>) {
    let bound: Vec<_> = (0..SERVERS)
        .map(|id| PollPlane::bind(id, SERVERS, "127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = bound
        .iter()
        .map(|b| b.local_addr().expect("bound address"))
        .collect();
    let timeout = Duration::from_secs(10);
    let mut planes: Vec<Box<dyn BroadcastPlane>> = std::thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .map(|endpoint| {
                let addrs = &addrs;
                scope.spawn(move || {
                    if resilient {
                        endpoint.establish_resilient(addrs, timeout, ResilienceConfig::default())
                    } else {
                        endpoint.establish_with_timeout(addrs, timeout)
                    }
                    .expect("establish loopback pair")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| Box::new(h.join().expect("establish thread")) as Box<dyn BroadcastPlane>)
            .collect()
    });
    let b = planes.pop().expect("two endpoints");
    let a = planes.pop().expect("two endpoints");
    (a, b)
}

/// `(superstep latency in us, bandwidth in MB/s)` of a plane pair.
fn plane_latency_and_bandwidth(
    make: impl Fn() -> (Box<dyn BroadcastPlane>, Box<dyn BroadcastPlane>),
    with_bandwidth: bool,
) -> (f64, f64) {
    const EMPTY_ROUNDS: u32 = 2000;
    const PAYLOAD_ROUNDS: u32 = 24;
    let (a, b) = make();
    let latency_us = drive_pair(a, b, EMPTY_ROUNDS, &[]) / f64::from(EMPTY_ROUNDS) * 1e6;
    if !with_bandwidth {
        return (latency_us, 0.0);
    }
    let payload = vec![0x5au8; PLANE_PAYLOAD_BYTES];
    let (a, b) = make();
    let seconds = drive_pair(a, b, PAYLOAD_ROUNDS, &payload);
    (
        latency_us,
        mb_per_s(PLANE_PAYLOAD_BYTES * PAYLOAD_ROUNDS as usize, seconds),
    )
}

/// Measure every per-layer metric of one workload.
pub fn measure(rec: &Recorder, li: &LayerInputs<'_>) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    // A counter the run never touched is absent from the snapshot: 0.
    let counter = |name: &str| li.counters.get(name).copied().unwrap_or(0);
    let graph = &li.inputs.graph;
    let partitioned = &li.inputs.partitioned;
    let medges = graph.num_edges() as f64 / 1e6;
    let program = li.jobs[0].program();
    let reference = &li.references[0];

    // Inputs harvested from the workload: its largest tile, a sample of its
    // tile blobs, and the dense broadcast of its final values over that
    // tile's range (for PageRank, exactly the last superstep's message).
    let largest = partitioned
        .tiles
        .iter()
        .max_by_key(|t| t.serialized_size())
        .expect("at least one tile");
    let largest_blob = largest.to_bytes();
    let sample: Vec<&Tile> = partitioned.tiles.iter().take(SAMPLE_TILES).collect();
    let blobs: Vec<Vec<u8>> = sample.iter().map(|t| t.to_bytes()).collect();
    let blob_bytes: usize = blobs.iter().map(Vec::len).sum();
    let keys: Vec<String> = (0..blobs.len()).map(|i| format!("tiles/{i}")).collect();
    let dense_message = BroadcastMessage::new(
        largest.target_start,
        largest.target_end,
        largest
            .targets()
            .map(|v| (v, reference.values[v as usize]))
            .collect(),
    );
    let sparse_message = BroadcastMessage::new(
        largest.target_start,
        largest.target_end,
        dense_message.updates.iter().copied().step_by(16).collect(),
    );

    {
        let _span = rec.span("layer.graph");
        put("graph.generate_s", li.generate_s);
        put("graph.generate_medges_per_s", medges / li.generate_s);
    }

    {
        let _span = rec.span("layer.partition");
        put("partition.spe_s", li.spe_s);
        put("partition.spe_medges_per_s", medges / li.spe_s);
        let encode_s = time_reps(|| {
            for tile in &sample {
                black_box(tile.to_bytes());
            }
        });
        let decode_s = time_reps(|| {
            for blob in &blobs {
                black_box(Tile::from_bytes(blob).expect("own blob"));
            }
        });
        put(
            "partition.tile_encode_mb_per_s",
            mb_per_s(blob_bytes, encode_s),
        );
        put(
            "partition.tile_decode_mb_per_s",
            mb_per_s(blob_bytes, decode_s),
        );
        put("partition.tiles", f64::from(partitioned.num_tiles()));
        put(
            "partition.tile_bytes",
            partitioned.total_tile_bytes() as f64,
        );
    }

    {
        let _span = rec.span("layer.storage");
        // What `ServerState` stages its tiles on.
        let memory = MeteredBackend::new(MemoryBackend::new(), IoMeter::shared());
        let put_s = time_reps(|| {
            for (key, blob) in keys.iter().zip(&blobs) {
                memory.put(key, blob).expect("memory put");
            }
        });
        let get_s = time_reps(|| {
            for key in &keys {
                black_box(memory.get(key).expect("memory get"));
            }
        });
        let root = li.scratch.join("disk");
        let disk = LocalDiskBackend::new(&root).expect("scratch directory");
        for (key, blob) in keys.iter().zip(&blobs) {
            disk.put(key, blob).expect("disk put");
        }
        let disk_get_s = time_reps(|| {
            for key in &keys {
                black_box(disk.get(key).expect("disk get"));
            }
        });
        // Off the run path today; a baseline for ROADMAP's "real mmap" item.
        // Every byte is touched so a lazy mapping would be charged too.
        let mapped = MmapTileReader::new(&root, IoMeter::shared());
        let mmap_s = time_reps(|| {
            for key in &keys {
                let file = mapped.read(key).expect("mmap read");
                black_box(file.bytes().iter().map(|&b| u64::from(b)).sum::<u64>());
            }
        });
        put("storage.mem_put_mb_per_s", mb_per_s(blob_bytes, put_s));
        put("storage.mem_get_mb_per_s", mb_per_s(blob_bytes, get_s));
        put(
            "storage.disk_get_mb_per_s",
            mb_per_s(blob_bytes, disk_get_s),
        );
        put("storage.mmap_read_mb_per_s", mb_per_s(blob_bytes, mmap_s));
        put(
            "storage.bytes_read",
            counter_family(li.counters, "storage.s", ".bytes_read") as f64,
        );
        put(
            "storage.read_ops",
            counter_family(li.counters, "storage.s", ".read_ops") as f64,
        );
        put(
            "storage.bytes_written",
            counter_family(li.counters, "storage.s", ".bytes_written") as f64,
        );
    }

    let msg_plain = dense_message.encode(BroadcastEncoding::Dense);
    {
        let _span = rec.span("layer.compress");
        for codec in PROBED_CODECS {
            for (input, data) in [("tile", &largest_blob), ("msg", &msg_plain)] {
                let mut scratch = CompressorScratch::new();
                let (mut packed, mut unpacked) = (Vec::new(), Vec::new());
                let compress_s =
                    time_reps(|| codec.compress_into_with(data, &mut packed, &mut scratch));
                let decompress_s = time_reps(|| {
                    codec
                        .decompress_into(&packed, &mut unpacked)
                        .expect("own bytes");
                });
                assert_eq!(&unpacked, data, "{} must round-trip", codec.name());
                let base = format!("compress.{}.{input}", codec.name());
                put(
                    &format!("{base}_compress_mb_per_s"),
                    mb_per_s(data.len(), compress_s),
                );
                put(
                    &format!("{base}_decompress_mb_per_s"),
                    mb_per_s(data.len(), decompress_s),
                );
                put(
                    &format!("{base}_ratio"),
                    data.len() as f64 / packed.len() as f64,
                );
            }
        }
        let calls = counter("compress.calls");
        put("compress.calls", calls as f64);
        put("compress.bytes_in", counter("compress.bytes_in") as f64);
        put("compress.bytes_out", counter("compress.bytes_out") as f64);
        put(
            "compress.scratch_reuse_ratio",
            share(counter("compress.scratch_reuses"), calls, 0.0),
        );
    }

    {
        let _span = rec.span("layer.cache");
        const LOOKUPS: u32 = 1000;
        let decoded = Arc::new(Tile::from_bytes(&largest_blob).expect("own blob"));
        let cache_of = |codec| {
            EdgeCache::new(
                EdgeCacheConfig {
                    capacity_bytes: u64::MAX,
                    mode: CacheMode::Fixed(codec),
                },
                largest_blob.len() as u64,
            )
        };
        let raw = cache_of(Codec::Raw);
        raw.admit(largest.tile_id, &largest_blob, &decoded, 1);
        let hit_raw_s = time_reps(|| {
            for stamp in 0..LOOKUPS {
                black_box(raw.lookup(largest.tile_id, u64::from(stamp) + 2));
            }
        });
        // zlib-1 is what `Auto` picks whenever the tiles do not fit.
        let packed = cache_of(Codec::Zlib1);
        let admit_s = time_reps(|| {
            black_box(packed.admit(largest.tile_id, &largest_blob, &decoded, 1));
        });
        let hit_packed_s = time_reps(|| {
            black_box(packed.lookup(largest.tile_id, 2));
        });
        let disk = MeteredBackend::new(MemoryBackend::new(), IoMeter::shared());
        disk.put("tile", &largest_blob).expect("memory put");
        let miss_s = time_reps(|| {
            let blob = disk.get("tile").expect("memory get");
            let tile = Arc::new(Tile::from_bytes(&blob).expect("own blob"));
            black_box(packed.admit(largest.tile_id, &blob, &tile, 3));
        });
        put("cache.hit_raw_us", hit_raw_s / f64::from(LOOKUPS) * 1e6);
        put("cache.hit_compressed_us", hit_packed_s * 1e6);
        put("cache.admit_us", admit_s * 1e6);
        put("cache.miss_service_us", miss_s * 1e6);
        let hits = counter_family(li.counters, "cache.s", ".hits");
        let misses = counter_family(li.counters, "cache.s", ".misses");
        put("cache.hits", hits as f64);
        put("cache.misses", misses as f64);
        put(
            "cache.evictions",
            counter_family(li.counters, "cache.s", ".evictions") as f64,
        );
        put("cache.hit_ratio", share(hits, hits + misses, 1.0));
    }

    let plan = {
        let _span = rec.span("core.plan_prepare");
        let prepare =
            || ExecutionPlan::prepare(li.config, partitioned, program.as_ref()).expect("plan");
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                black_box(prepare());
                started.elapsed().as_secs_f64()
            })
            .collect();
        put("core.plan_prepare_s", median(&samples));
        prepare()
    };

    // The wire bytes of the dense message as the run would ship them.
    let mut wire = Vec::new();
    {
        let _span = rec.span("layer.cluster");
        let compressor = li.config.message_compressor;
        for (class, mode, message) in [
            ("dense", CommunicationMode::Dense, &dense_message),
            ("sparse", CommunicationMode::Sparse, &sparse_message),
        ] {
            let codec = MessageCodec::new(mode, compressor);
            let (mut enc_scratch, mut dec_scratch) = (Vec::new(), Vec::new());
            let mut comp = CompressorScratch::new();
            let mut metrics = ServerMetrics::default();
            let mut encoding = None;
            let encode_s = time_reps(|| {
                encoding = Some(codec.encode_into_with(
                    message,
                    &mut metrics,
                    &mut enc_scratch,
                    &mut wire,
                    &mut comp,
                ));
            });
            let plain_bytes =
                message.encoded_size(encoding.expect("encoded at least once")) as usize;
            let decode_s = time_reps(|| {
                let mut sum = 0.0;
                codec
                    .decode_each(&wire, &mut metrics, &mut dec_scratch, |_, value| {
                        sum += value
                    })
                    .expect("own wire bytes");
                black_box(sum);
            });
            put(
                &format!("cluster.{class}_encode_mb_per_s"),
                mb_per_s(plain_bytes, encode_s),
            );
            put(
                &format!("cluster.{class}_decode_mb_per_s"),
                mb_per_s(plain_bytes, decode_s),
            );
        }
        // `wire` now holds the sparse message; re-encode the dense one for
        // the frame probes below.
        MessageCodec::new(CommunicationMode::Dense, compressor).encode_into_with(
            &dense_message,
            &mut ServerMetrics::default(),
            &mut Vec::new(),
            &mut wire,
            &mut CompressorScratch::new(),
        );
    }

    {
        let _span = rec.span("layer.pool");
        const DISPATCHES: u32 = 200;
        // Two threads, so a dispatch really wakes a worker; the benchmark's
        // one-thread servers run their tile loop inline.
        let pool = WorkerPool::new(2);
        let dispatch_s = time_reps(|| {
            for _ in 0..DISPATCHES {
                black_box(pool.fork_join_ordered(2, |i| i));
            }
        });
        put("pool.dispatch_us", dispatch_s / f64::from(DISPATCHES) * 1e6);
    }

    {
        let _span = rec.span("layer.core");
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                black_box(ServerState::build(li.config, &plan, partitioned, 0));
                started.elapsed().as_secs_f64()
            })
            .collect();
        put("core.server_build_s", median(&samples));

        let probe = superstep_probe(li, &plan, program.as_ref());
        assert!(
            bit_identical(&probe.values, &reference.values),
            "the harness's superstep loop must reproduce the reference"
        );
        let tile_phase_total: f64 = probe.tile_phase_s.iter().sum();
        put(
            "core.tile_phase_medges_per_s",
            probe.edges as f64 / 1e6 / tile_phase_total,
        );
        put("core.tile_phase_ms", median(&probe.tile_phase_s) * 1e3);
        put(
            "core.apply_mupdates_per_s",
            probe.applied as f64 / 1e6 / probe.apply_s,
        );
        put(
            "core.merge_mupdates_per_s",
            probe.merged as f64 / 1e6 / probe.merge_s,
        );
        put(
            "cluster.dense_share",
            share(probe.dense_messages, probe.messages, 0.0),
        );

        // Exact work counts, summed over the workload's jobs.
        let mut totals = ServerMetrics::default();
        let (mut supersteps, mut updated, mut wire_bytes, mut simulated_s) =
            (0u64, 0u64, 0u64, 0.0);
        for run in li.references {
            supersteps += u64::from(run.supersteps_run);
            wire_bytes += run.metrics.total_network_bytes();
            simulated_s += run.total_seconds();
            for report in &run.metrics.supersteps {
                updated += report.total_vertices_updated;
                for server in &report.servers {
                    totals.merge(server);
                }
            }
        }
        let tiles_seen = totals.tiles_processed + totals.tiles_skipped;
        put("core.edges_processed", totals.edges_processed as f64);
        put("core.tiles_processed", totals.tiles_processed as f64);
        put("core.tiles_skipped", totals.tiles_skipped as f64);
        put(
            "core.skip_ratio",
            share(totals.tiles_skipped, tiles_seen, 0.0),
        );
        put("core.vertices_updated", updated as f64);
        put("core.supersteps", supersteps as f64);
        put(
            "core.push_supersteps",
            counter("exec.direction.push") as f64,
        );
        put("cluster.messages", totals.network_messages as f64);
        put(
            "cluster.wire_bytes_per_superstep",
            wire_bytes as f64 / supersteps.max(1) as f64,
        );
        put("cluster.simulated_over_measured", simulated_s / li.run_s);
    }

    {
        let _span = rec.span("layer.runtime");
        let mut framed = Vec::new();
        let frame_encode_s = time_reps(|| {
            framed.clear();
            encode_message_into(0, 0, &wire, &mut framed).expect("payload under the frame cap");
        });
        let frame_decode_s = time_reps(|| {
            let mut decoder = FrameDecoder::new();
            decoder.push(&framed);
            black_box(decoder.next_frame().expect("own frame"));
        });
        put(
            "runtime.frame_encode_mb_per_s",
            mb_per_s(wire.len(), frame_encode_s),
        );
        put(
            "runtime.frame_decode_mb_per_s",
            mb_per_s(wire.len(), frame_decode_s),
        );

        let (channel_us, _) = plane_latency_and_bandwidth(channel_pair, false);
        let (tcp_us, tcp_mb) = plane_latency_and_bandwidth(|| tcp_pair(false), true);
        let (resilient_us, resilient_mb) = plane_latency_and_bandwidth(|| tcp_pair(true), true);
        put("runtime.channel_superstep_us", channel_us);
        put("runtime.tcp_superstep_us", tcp_us);
        put("runtime.tcp_mb_per_s", tcp_mb);
        put("runtime.tcp_resilient_superstep_us", resilient_us);
        put("runtime.tcp_resilient_mb_per_s", resilient_mb);
        put(
            "runtime.establish_ms",
            time_reps(|| drop(black_box(tcp_pair(false)))) * 1e3,
        );

        let sink = CheckpointSink::new(li.scratch.join("ckpt"), 1);
        let checkpoint = Checkpoint {
            server: 0,
            next_superstep: reference.supersteps_run,
            frontier: Vec::new(),
            values: reference.values.clone(),
        };
        let mut bytes = 0;
        let write_s = time_reps(|| bytes = sink.write(&checkpoint).expect("checkpoint write"));
        put("runtime.checkpoint_write_ms", write_s * 1e3);
        put("runtime.checkpoint_bytes", bytes as f64);

        let pool_hits = counter("buffer_pool.hits");
        put(
            "runtime.buffer_pool_hit_ratio",
            share(pool_hits, pool_hits + counter("buffer_pool.misses"), 0.0),
        );
        put("runtime.reconnects", counter("fabric.reconnects") as f64);
        put(
            "runtime.replayed_frames",
            counter("fabric.replayed_frames") as f64,
        );
        for ((_, suffix), seconds) in PHASES.iter().zip(li.phases.phases) {
            put(&format!("runtime.phase.{suffix}"), seconds);
        }
        put("runtime.phase.unattributed_s", li.phases.unattributed_s());
        put("runtime.phase.lane_wall_s", li.phases.lane_wall_s);
    }

    put(
        "obs.trace_overhead_pct",
        (li.traced_run_s / li.run_s - 1.0) * 100.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u32, start_us: u64, dur_us: u64) -> PhaseSpan {
        PhaseSpan {
            name: name.into(),
            tid,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn phases_plus_unattributed_sum_to_the_lane_wall() {
        let spans = vec![
            span("server-build", 1, 0, 500),
            span("tile-compute", 1, 1_000, 2_000),
            span("encode-publish", 1, 3_100, 900),
            span("barrier-wait", 1, 4_500, 500),
            span("tile-compute", 2, 0, 9_000),
        ];
        let totals = phase_totals(&spans, 1);
        assert_eq!(totals.lane_wall_s, 0.004);
        assert_eq!(totals.phases[0], 0.002);
        let sum: f64 = totals.phases.iter().sum::<f64>() + totals.unattributed_s();
        assert!((sum - totals.lane_wall_s).abs() < 1e-12);
        assert!((totals.unattributed_s() - 0.0006).abs() < 1e-12);
    }

    #[test]
    fn counter_families_sum_over_servers() {
        let counters: BTreeMap<String, u64> = [
            ("storage.s0.bytes_read", 5),
            ("storage.s1.bytes_read", 7),
            ("storage.s1.bytes_written", 100),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(counter_family(&counters, "storage.s", ".bytes_read"), 12);
    }
}
