//! The per-server worker: one OS thread owning one simulated server's state.
//!
//! Each worker runs the identical superstep loop:
//!
//! 1. **compute** — [`ServerState::run_tile_phase`] over its own tiles, against
//!    its own vertex-replica array and edge cache (the exact code the
//!    sequential executor runs),
//! 2. **publish** — encode each tile's updates through the configured
//!    [`graphh_cluster::MessageCodec`] and push the wire bytes onto the
//!    broadcast plane,
//! 3. **exchange** — collect every peer's wire messages for the superstep and
//!    decode them (charging real decompression time),
//! 4. **apply** — merge own + received updates
//!    ([`graphh_core::exec::UpdateRuns`]: each message is an ascending run over
//!    its own tile's range, so no vertex is updated twice and ordering the runs
//!    by first id and concatenating their ids is the sorted next frontier) and
//!    apply them to the local replica — neither depends on message arrival
//!    order, which is what keeps threaded results bit-identical to sequential
//!    ones; two messages whose ids overlap are a corrupt broadcast, and the
//!    worker aborts the run,
//! 5. **decide** — every replica now holds the same merged update set, so
//!    every worker independently reaches the same continue/stop decision.
//!
//! There is no separate barrier: `collect(s)` returning *is* the barrier —
//! every peer's end-of-superstep marker for `s` has arrived, and a faster
//! peer's `s + 1` frames wait in the collector's stash until this worker
//! gets there.

use crate::buffer::{BufferPool, PooledBuf};
use crate::checkpoint::{Checkpoint, CheckpointSink};
use crate::plane::{BroadcastPlane, PlaneError};
use graphh_cluster::ServerMetrics;
use graphh_compress::{Codec, CompressorScratch};
use graphh_core::exec::{ExecutionPlan, ServerState, UpdateRuns};
use graphh_core::gab::{Direction, GabProgram};
use graphh_core::{EngineError, GraphHConfig};
use graphh_graph::ids::{ServerId, VertexId};
use graphh_obs::{global_counters, Tracer};
use graphh_partition::PartitionedGraph;

/// One encode lane: the buffers and compressor state one message of the
/// publish phase encodes into. Each message index owns its own lane, so the
/// server pool's workers can encode+compress messages concurrently without
/// sharing buffers; the serial ship loop then walks the lanes in index order,
/// which keeps the wire byte stream — and the float summation of the metered
/// compression time — identical to the sequential reference.
struct EncodeLane {
    /// Pre-compression encode scratch ([`graphh_cluster::MessageCodec::encode_into_with`]).
    enc_scratch: PooledBuf,
    /// Wire bytes of this lane's message.
    wire: PooledBuf,
    /// Persistent LZSS compressor state, reused for the whole run.
    comp: CompressorScratch,
    /// Compression seconds this lane's message was charged (per-message value,
    /// summed in index order by the ship loop).
    compress_seconds: f64,
}

impl EncodeLane {
    fn checkout(pool: &BufferPool) -> Self {
        Self {
            enc_scratch: pool.checkout(),
            wire: pool.checkout(),
            comp: CompressorScratch::new(),
            compress_seconds: 0.0,
        }
    }
}

/// The buffers one worker's superstep loop reuses across supersteps.
///
/// Every superstep used to allocate these afresh — the merged update set, the
/// frontier, and the byte buffers for the codec path (per-lane encode
/// scratch + wire bytes, shared decompression scratch). They are now cleared
/// and refilled in place, and each lane carries a persistent
/// [`CompressorScratch`], so a steady-state superstep's publish/exchange path
/// performs no heap allocation on either the uncompressed *or* the compressed
/// codec path (asserted by `tests/alloc_count.rs`). The byte buffers come
/// from a [`BufferPool`] so they return to the pool when the run ends.
struct SuperstepBuffers {
    /// This superstep's `(vertex, value)` updates (own + received), one run
    /// per message until merged.
    all_updates: UpdateRuns,
    /// Vertex ids updated in the previous superstep (drives tile skipping).
    previously_updated: Vec<VertexId>,
    /// One lane per concurrently encoded message, grown to the widest
    /// superstep seen (tile counts are fixed per run, so this settles after
    /// the first superstep). Mutexes are uncontended by construction — lane
    /// `i` is touched only by whichever pool thread claimed index `i` — they
    /// exist to keep the fan-out safe without `unsafe` shared mutation.
    lanes: Vec<std::sync::Mutex<EncodeLane>>,
    /// Decompression scratch for the receive path.
    dec_scratch: PooledBuf,
    /// Handle for growing `lanes`.
    buffer_pool: BufferPool,
}

impl SuperstepBuffers {
    fn checkout(pool: &BufferPool, initial_frontier: Vec<VertexId>) -> Self {
        Self {
            all_updates: UpdateRuns::new(),
            previously_updated: initial_frontier,
            lanes: Vec::new(),
            dec_scratch: pool.checkout(),
            buffer_pool: pool.clone(),
        }
    }

    /// Reset the per-superstep state, keeping every allocation.
    fn begin_superstep(&mut self) {
        self.all_updates.clear();
    }

    /// Make sure at least `n` encode lanes exist (allocates only when a
    /// superstep publishes more messages than any before it).
    fn ensure_lanes(&mut self, n: usize) {
        while self.lanes.len() < n {
            self.lanes.push(std::sync::Mutex::new(EncodeLane::checkout(
                &self.buffer_pool,
            )));
        }
    }

    /// Flush every lane's accumulated `compress.*` statistics into the global
    /// counter registry (run end only: the registry locks).
    fn publish_observability(&mut self) {
        for lane in &mut self.lanes {
            lane.get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .comp
                .publish_observability();
        }
    }
}

/// What a worker thread hands back when the run finishes.
#[derive(Debug)]
pub struct WorkerOutput {
    /// The server this worker simulated.
    pub server: ServerId,
    /// Final vertex values of this server's replica.
    pub values: Vec<f64>,
    /// Codec its edge cache selected.
    pub cache_codec: Codec,
    /// Peak accounted memory in bytes.
    pub peak_memory: u64,
    /// Supersteps executed.
    pub supersteps_run: u32,
    /// This server's metered work, one entry per superstep it executed from
    /// [`WorkerOptions::start_superstep`] on. Each entry's `vertices_updated`
    /// is the superstep's cluster-wide update count — the same on every
    /// server, which applies the same merged update set.
    pub metrics: Vec<ServerMetrics>,
}

/// A worker failure, tagged with whether it is the *root cause* or a
/// secondary effect of another worker's abort (peers observing the abort
/// frame, or the aborted worker's endpoint already gone). The executor
/// reports a root-cause error when one exists.
#[derive(Debug)]
pub struct WorkerError {
    /// The underlying engine error.
    pub error: EngineError,
    /// True when this error only reports another worker's abort.
    pub secondary: bool,
}

/// Reject a checkpoint restore the plan cannot run — it is file bytes: a
/// replica that is not one value per vertex, a frontier that is not strictly
/// ascending inside the graph, a cursor past the run's last superstep.
fn check_restore(plan: &ExecutionPlan, options: &WorkerOptions) -> Result<(), WorkerError> {
    let n = plan.num_vertices;
    let values = options
        .initial_values
        .as_ref()
        .map_or(n, |v| v.len() as u64);
    let frontier = options.initial_frontier.as_deref().unwrap_or_default();
    let why = if values != n {
        format!("{values} replica values for a {n}-vertex graph")
    } else if let Some(pair) = frontier.windows(2).find(|pair| pair[0] >= pair[1]) {
        let (a, b) = (pair[0], pair[1]);
        format!("frontier lists vertex {a} before vertex {b}; it must be strictly ascending")
    } else if let Some(v) = frontier.last().filter(|&&v| u64::from(v) >= n) {
        format!("frontier vertex {v} outside the {n}-vertex graph")
    } else if options.start_superstep > plan.max_supersteps {
        let (s, max) = (options.start_superstep, plan.max_supersteps);
        format!("cursor at superstep {s}, past the run's {max} supersteps")
    } else {
        return Ok(());
    };
    Err(WorkerError {
        error: EngineError::BadInput(format!("checkpoint restore: {why}")),
        secondary: false,
    })
}

fn plane_error(e: PlaneError) -> WorkerError {
    WorkerError {
        // A vanished peer is a symptom too: with no barrier to park at, a
        // worker already publishing superstep `s + 1` can find a peer that
        // failed in `s` gone before it reads that peer's abort frame.
        secondary: matches!(e, PlaneError::Aborted(_) | PlaneError::Disconnected),
        error: EngineError::BadInput(format!("broadcast plane failure: {e}")),
    }
}

/// Optional behaviors of [`run_worker`] beyond the plain superstep loop.
/// [`Default`] is a fresh start at superstep 0, no checkpoints, no delay.
#[derive(Default)]
pub struct WorkerOptions {
    /// First superstep to execute. Non-zero when resuming from a checkpoint:
    /// the worker re-enters the loop at this cursor with the checkpointed
    /// values/frontier and relies on peers replaying the delta.
    pub start_superstep: u32,
    /// Replica values to start from (checkpoint restore). `None` = the
    /// initial values [`ServerState::build`] computes.
    pub initial_values: Option<Vec<f64>>,
    /// Frontier the first executed superstep starts from (checkpoint
    /// restore). `None` = [`ExecutionPlan::initial_frontier`].
    pub initial_frontier: Option<Vec<VertexId>>,
    /// Periodic checkpoint writer. When set, the worker snapshots replica
    /// values + superstep cursor after every due superstep and only
    /// acknowledges durability ([`BroadcastPlane::acknowledge`]) for
    /// checkpointed supersteps — so peers retain exactly the replay delta a
    /// restart would need. When unset, every superstep is acknowledged as it
    /// completes (in-memory state is durable enough for transient cuts).
    pub checkpoint: Option<CheckpointSink>,
    /// Artificial pause at the top of each superstep. A test aid that widens
    /// the window for killing a process mid-run; it never changes values.
    pub superstep_delay: Option<std::time::Duration>,
}

/// Run server `sid` to completion on the calling thread.
///
/// Phase spans go to `tracer`: the worker records on lane `1 + sid`; its
/// server's pool jobs land on lanes `100 * (1 + sid) + worker_index` (see
/// `docs/OBSERVABILITY.md`). With the tracer off ([`Tracer::off`]) every span
/// call is a no-op that reads no clock and allocates nothing — the contract
/// `tests/alloc_count.rs` pins. `options` carries checkpoint-resumed starts
/// ([`WorkerOptions::start_superstep`] plus the restored values/frontier,
/// which must fit the plan: a checkpoint is file bytes) and periodic
/// checkpoint writing.
///
/// On *any* exit that is not a clean finish — an `Err` return or a panic
/// (e.g. a user `GabProgram` indexing out of bounds) — the peers are
/// unblocked by an abort frame on the plane: the only place a peer can be
/// parked is `collect`, and an abort fails every collect.
#[allow(clippy::too_many_arguments)]
pub fn run_worker(
    config: &GraphHConfig,
    plan: &ExecutionPlan,
    partitioned: &PartitionedGraph,
    program: &dyn GabProgram,
    sid: ServerId,
    plane: &mut dyn BroadcastPlane,
    tracer: &Tracer,
    options: WorkerOptions,
) -> Result<WorkerOutput, WorkerError> {
    if let Err(e) = check_restore(plan, &options) {
        plane.abort();
        return Err(e);
    }
    let num_servers = config.cluster.num_servers;
    let mut rec = tracer.thread(1 + sid);
    let load = rec.begin();
    let mut server = ServerState::build(config, plan, partitioned, sid);
    server.set_tracer(tracer.clone(), 100 * (1 + sid));
    rec.end(load, "server-build", "load");
    // Checkpoint restore: replace the freshly built replica with the
    // snapshotted one. Supersteps are deterministic, so re-entering the loop
    // at the snapshot cursor with these values/frontier recomputes the exact
    // run the original process would have continued.
    if let Some(values) = options.initial_values {
        server.values = values;
    }
    let start_superstep = options.start_superstep;
    let initial_frontier = options
        .initial_frontier
        .unwrap_or_else(|| plan.initial_frontier());
    // Cleared and refilled in place every superstep — the broadcast hot path
    // of a steady-state superstep allocates nothing on the uncompressed
    // codec path.
    let pool = BufferPool::new();
    let mut bufs = SuperstepBuffers::checkout(&pool, initial_frontier);
    let mut supersteps_run = start_superstep;
    // Direction decision counters, fetched once before the loop (the registry
    // lookup locks; the per-superstep adds are relaxed atomics). Only server 0
    // counts, so the totals match the sequential executor's.
    let counters = global_counters();
    let dir_pull = counters.counter("exec.direction.pull");
    let dir_push = counters.counter("exec.direction.push");

    let checkpoint_sink = options.checkpoint;
    let superstep_delay = options.superstep_delay;
    // A resumed run whose restored frontier is already empty terminated in
    // its previous life — running even one superstep would diverge from the
    // original run, so the loop is skipped entirely.
    let resumed_after_termination = start_superstep > 0 && bufs.previously_updated.is_empty();
    let mut per_superstep = Vec::new();

    let rec = &mut rec;
    let body = std::panic::AssertUnwindSafe(|| -> Result<u32, WorkerError> {
        let loop_end = if resumed_after_termination {
            start_superstep
        } else {
            plan.max_supersteps
        };
        // A checkpoint at cursor `s` is the durability promise for `s - 1`,
        // and the ack that said so may have died with the process that made
        // it: repeat it, or — with no superstep left to run — every peer
        // retains the final ones until it exits.
        if let Some(durable) = start_superstep.checked_sub(1) {
            plane.acknowledge(durable).map_err(plane_error)?;
        }
        for superstep in start_superstep..loop_end {
            if let Some(delay) = superstep_delay {
                std::thread::sleep(delay);
            }
            // Every worker derives the same view from its replicated frontier,
            // so all workers run the same direction at the same superstep.
            let view = plan.frontier_view(program, &bufs.previously_updated);
            if sid == 0 {
                match view.direction {
                    Direction::Push => dir_push.add(1),
                    _ => dir_pull.add(1),
                }
            }
            let compute = rec.begin();
            let phase = server
                .run_tile_phase(program, plan, superstep, &view, config.use_bloom_filter)
                .map_err(|error| WorkerError {
                    error,
                    secondary: false,
                })?;
            rec.end_superstep_dir(
                compute,
                "tile-compute",
                "superstep",
                superstep,
                view.direction.as_str(),
            );
            let mut metrics = phase.metrics;

            // Publish this superstep's messages through the real wire path.
            // Encode+compress fans out over the server's persistent compute
            // pool (each message index encodes into its own lane), then the
            // serial ship loop walks the lanes in index order — so the byte
            // stream on the plane, and the index-ordered float summation of
            // the compression charge, are identical to a serial encode no
            // matter how the pool schedules the lanes.
            bufs.begin_superstep();
            let publish = rec.begin();
            bufs.ensure_lanes(phase.messages.len());
            let lanes = &bufs.lanes;
            let messages = &phase.messages;
            server
                .pool()
                .fork_join_ordered_named(messages.len(), "encode-compress", |i| {
                    let mut lane = lanes[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let lane = &mut *lane;
                    let mut charged = ServerMetrics::default();
                    plan.message_codec.encode_into_with(
                        &messages[i],
                        &mut charged,
                        &mut lane.enc_scratch,
                        &mut lane.wire,
                        &mut lane.comp,
                    );
                    lane.compress_seconds = charged.compress_seconds;
                });
            for (i, message) in phase.messages.iter().enumerate() {
                let lane = bufs.lanes[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                metrics.compress_seconds += lane.compress_seconds;
                let fanout = u64::from(num_servers - 1);
                metrics.network_sent_bytes += lane.wire.len() as u64 * fanout;
                metrics.network_messages += fanout;
                plane
                    .broadcast(superstep, &lane.wire)
                    .map_err(plane_error)?;
                // The sender applies its own updates without a decode round
                // trip (the wire format is lossless, and the sequential
                // executor charges no decompression to the sender either).
                bufs.all_updates.extend_run(&message.updates);
            }
            rec.end_superstep(publish, "encode-publish", "superstep", superstep);
            let flush = rec.begin();
            plane.end_superstep(superstep).map_err(plane_error)?;
            rec.end_superstep(flush, "plane-flush", "superstep", superstep);

            // Exchange: decode everything the peers published, streaming the
            // updates straight into the shared buffer (no per-message vector).
            let exchange = rec.begin();
            for wire in plane.collect(superstep).map_err(plane_error)? {
                metrics.network_received_bytes += wire.len() as u64;
                let all_updates = &mut bufs.all_updates;
                let header = plan
                    .message_codec
                    .decode_each(&wire, &mut metrics, &mut bufs.dec_scratch, |v, val| {
                        all_updates.push(v, val);
                    })
                    .map_err(|e| WorkerError {
                        error: EngineError::BadInput(format!("corrupt broadcast: {e}")),
                        secondary: false,
                    })?;
                all_updates.end_run();
                // `decode_each` bounds every vertex id by the message's *own*
                // advertised range; that range is itself wire bytes, so bound
                // it by the graph before the ids can index the replica array
                // in `apply_updates`. (On either error the partially filled
                // buffer is never applied: the worker aborts the run.)
                if u64::from(header.range_end) > plan.num_vertices {
                    return Err(WorkerError {
                        error: EngineError::BadInput(format!(
                            "corrupt broadcast: range end {} exceeds vertex count {}",
                            header.range_end, plan.num_vertices
                        )),
                        secondary: false,
                    });
                }
            }
            rec.end_superstep(exchange, "collect-decode", "superstep", superstep);

            // Deterministic apply: no vertex is updated twice, so the replica
            // and the next frontier (the updated ids, ascending) are
            // independent of message arrival order. Every server owns its
            // tiles' ranges and `decode_each` hands each message's ids over
            // ascending, so two messages that overlap were sent by a corrupt
            // peer — and applying either value of a vertex both update could
            // leave this replica apart from the others without a word.
            let apply = rec.begin();
            if let Err(vertex) = bufs.all_updates.merge(&mut bufs.previously_updated) {
                return Err(WorkerError {
                    error: EngineError::BadInput(format!(
                        "corrupt broadcast: two messages overlap at vertex {vertex} \
                         in superstep {superstep}"
                    )),
                    secondary: false,
                });
            }
            server.apply_updates(bufs.all_updates.as_slice());
            rec.end_superstep(apply, "apply", "superstep", superstep);
            metrics.vertices_updated = bufs.all_updates.as_slice().len() as u64;
            metrics.peak_memory_bytes = server.peak_memory();
            per_superstep.push(metrics);
            supersteps_run = superstep + 1;

            // Durability + ack. With a checkpoint sink, a snapshot is written
            // on due supersteps and only then is the superstep acknowledged —
            // an ack is a promise that a restart will not need this
            // superstep's frames replayed. Without one, in-memory state is
            // durable enough for transient cuts, so every superstep acks.
            match &checkpoint_sink {
                Some(sink) if sink.due(superstep) => {
                    sink.write(&Checkpoint {
                        server: sid,
                        next_superstep: superstep + 1,
                        frontier: bufs.previously_updated.clone(),
                        values: server.values.clone(),
                    })
                    .map_err(|e| WorkerError {
                        error: EngineError::BadInput(format!("checkpoint write: {e}")),
                        secondary: false,
                    })?;
                    plane.acknowledge(superstep).map_err(plane_error)?;
                }
                Some(_) => {}
                None => plane.acknowledge(superstep).map_err(plane_error)?,
            }

            // Every worker applied the same update set, so all make the same
            // continue/stop decision and stay in lockstep.
            if bufs.previously_updated.is_empty() {
                break;
            }
        }
        Ok(supersteps_run)
    });

    // catch_unwind so a panicking worker (not just an erroring one) still
    // releases its peers; the panic is re-raised by the executor after join.
    // (AssertUnwindSafe implements FnOnce, so it is passed directly — wrapping
    // it in another closure would capture the inner closure field and lose
    // the unwind-safety assertion.)
    let result = std::panic::catch_unwind(body);

    match result {
        Ok(Ok(supersteps_run)) => {
            server.publish_observability();
            bufs.publish_observability();
            Ok(WorkerOutput {
                server: sid,
                values: std::mem::take(&mut server.values),
                cache_codec: server.cache_codec(),
                peak_memory: server.peak_memory(),
                supersteps_run,
                metrics: per_superstep,
            })
        }
        Ok(Err(e)) => {
            plane.abort();
            Err(e)
        }
        Err(payload) => {
            plane.abort();
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::WireMessage;
    use graphh_cluster::{BroadcastMessage, ClusterConfig, CommunicationMode};
    use graphh_core::PageRank;
    use graphh_graph::generators::path_graph;
    use graphh_partition::{Spe, SpeConfig};

    /// A plane that hands the worker one attacker-controlled wire message,
    /// if given one, and records the markers and acks it is told, in order.
    #[derive(Default)]
    struct TestPlane {
        payload: Option<WireMessage>,
        calls: Vec<(&'static str, u32)>,
    }

    impl BroadcastPlane for TestPlane {
        fn num_servers(&self) -> u32 {
            2
        }
        fn server_id(&self) -> ServerId {
            0
        }
        fn broadcast(&mut self, _superstep: u32, _wire: &[u8]) -> Result<(), PlaneError> {
            Ok(())
        }
        fn end_superstep(&mut self, superstep: u32) -> Result<(), PlaneError> {
            self.calls.push(("end", superstep));
            Ok(())
        }
        fn collect(&mut self, _superstep: u32) -> Result<Vec<WireMessage>, PlaneError> {
            Ok(self.payload.take().into_iter().collect())
        }
        fn acknowledge(&mut self, superstep: u32) -> Result<(), PlaneError> {
            self.calls.push(("ack", superstep));
            Ok(())
        }
        fn abort(&mut self) {}
    }

    /// `PageRank(3)` over `path_graph(10)` on one server, started with
    /// `options` on a [`TestPlane`]: the result and the plane's calls.
    fn run_path_graph(
        options: WorkerOptions,
    ) -> (Result<WorkerOutput, WorkerError>, Vec<(&'static str, u32)>) {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        assert_eq!(plan.max_supersteps, 3);
        let mut plane = TestPlane::default();
        let tracer = Tracer::off();
        let result = run_worker(
            &config, &plan, &p, &program, 0, &mut plane, &tracer, options,
        );
        (result, plane.calls)
    }

    /// A checkpoint at cursor `s` promised `s - 1` durable, so a worker
    /// resumed there says so before anything else — even when nothing is left
    /// to run, which used to leave every peer retaining the final supersteps —
    /// and a fresh start acknowledges nothing before it has ended superstep 0.
    #[test]
    fn a_resumed_worker_repeats_the_ack_its_checkpoint_stands_for() {
        let calls_of = |options| {
            let (result, calls) = run_path_graph(options);
            result.unwrap();
            calls
        };
        let resumed_at = |start_superstep, initial_frontier| WorkerOptions {
            start_superstep,
            initial_frontier,
            ..WorkerOptions::default()
        };
        // The cursor is past the last superstep: zero iterations, one ack.
        assert_eq!(calls_of(resumed_at(3, None)), [("ack", 2)]);
        // The run had terminated (empty frontier) before the process died.
        assert_eq!(calls_of(resumed_at(2, Some(Vec::new()))), [("ack", 1)]);
        // Mid-run: the repeated ack comes first, then the loop's own.
        let mid_run = calls_of(resumed_at(1, None));
        assert_eq!(mid_run[..3], [("ack", 0), ("end", 1), ("ack", 1)]);
        // A fresh start has nothing to repeat.
        let fresh = calls_of(WorkerOptions::default());
        assert_eq!(fresh[..2], [("end", 0), ("ack", 0)]);
    }

    /// Why a restore that does not fit the plan was refused — as the run's
    /// root cause, not as a symptom of another server's failure.
    fn refused_restore(options: WorkerOptions) -> String {
        let err = run_path_graph(options)
            .0
            .expect_err("the restore must be refused");
        assert!(!err.secondary);
        err.error.to_string()
    }

    /// A replica of any other length is refused — even with a frontier that
    /// keeps the run away from the missing ids, which used to return a
    /// 5-value replica for the 10-vertex graph.
    #[test]
    fn a_restored_replica_must_hold_one_value_per_vertex() {
        for len in [5, 11] {
            let why = refused_restore(WorkerOptions {
                start_superstep: 1,
                initial_values: Some(vec![0.0; len]),
                initial_frontier: Some(Vec::new()),
                ..WorkerOptions::default()
            });
            assert!(
                why.contains(&format!("{len} replica values for a 10-vertex")),
                "{why}"
            );
        }
    }

    /// A frontier id past the graph used to panic indexing the out-degrees.
    #[test]
    fn a_restored_frontier_must_ascend_inside_the_graph() {
        for (frontier, named) in [
            (vec![99], "frontier vertex 99 outside"),
            (vec![4, 1], "vertex 4 before vertex 1"),
            (vec![3, 3], "vertex 3 before vertex 3"),
        ] {
            let why = refused_restore(WorkerOptions {
                start_superstep: 1,
                initial_frontier: Some(frontier),
                ..WorkerOptions::default()
            });
            assert!(why.contains(named), "{why}");
        }
    }

    /// A cursor past the last superstep used to run nothing and return `Ok`.
    #[test]
    fn a_restored_cursor_may_not_pass_the_last_superstep() {
        let why = refused_restore(WorkerOptions {
            start_superstep: 4,
            ..WorkerOptions::default()
        });
        assert!(why.contains("superstep 4, past the run's 3"), "{why}");
    }

    /// The superstep buffers must be *reused*, not reallocated: after a
    /// superstep rolls over, the same allocations hold the next superstep's
    /// data (this is the clear-and-reuse contract the allocation-counting
    /// test in `tests/alloc_count.rs` measures end to end).
    #[test]
    fn superstep_buffers_reuse_their_allocations_across_supersteps() {
        let pool = BufferPool::new();
        let mut bufs = SuperstepBuffers::checkout(&pool, vec![0, 1, 2, 3]);
        bufs.ensure_lanes(2);
        assert_eq!(bufs.lanes.len(), 2);
        let wire_ptr = {
            let mut lane = bufs.lanes[0].lock().unwrap();
            lane.wire.extend_from_slice(&[0u8; 64]);
            lane.wire.as_ptr()
        };
        let frontier_ptr = bufs.previously_updated.as_ptr();
        let frontier_cap = bufs.previously_updated.capacity();

        // Both buffers of the merge — the updates as they arrived, and the
        // frontier their ids are concatenated into — are cleared and
        // refilled, superstep after superstep, never replaced.
        let mut updates_ptr = None;
        for (first, second) in [((2, 2.0), (0, 1.0)), ((3, 4.0), (1, 3.0))] {
            bufs.begin_superstep();
            assert!(bufs.all_updates.as_slice().is_empty());
            // Two messages, the later one first in range.
            bufs.all_updates.extend_run(&[first]);
            bufs.all_updates.extend_run(&[second]);
            let ptr = bufs.all_updates.as_slice().as_ptr();
            assert_eq!(
                *updates_ptr.get_or_insert(ptr),
                ptr,
                "update buffer must be cleared, not replaced"
            );
            bufs.all_updates
                .merge(&mut bufs.previously_updated)
                .unwrap();
            assert_eq!(bufs.all_updates.as_slice(), [first, second]);
            assert_eq!(bufs.previously_updated, [second.0, first.0]);
            assert_eq!(
                bufs.previously_updated.as_ptr(),
                frontier_ptr,
                "frontier must be refilled in place, not reallocated"
            );
            assert_eq!(bufs.previously_updated.capacity(), frontier_cap);
        }
        // A later superstep with no more messages than before keeps the same
        // lanes (and their buffers) rather than growing or replacing them.
        bufs.ensure_lanes(2);
        assert_eq!(bufs.lanes.len(), 2);
        {
            let mut lane = bufs.lanes[0].lock().unwrap();
            lane.wire.clear();
            lane.wire.extend_from_slice(&[1u8; 32]);
            assert_eq!(lane.wire.as_ptr(), wire_ptr, "wire scratch must be reused");
        }

        // Dropping the buffers returns the byte scratch to the pool.
        drop(bufs);
        assert_eq!(pool.pooled(), 1, "only the written buffer is worth pooling");
    }

    /// A sparse message can be internally consistent (ids inside its own
    /// advertised range, strictly increasing) while the range itself lies far
    /// past the graph — `decode` cannot know the vertex count, so the worker
    /// must bound the range before `apply_updates` indexes the replica.
    #[test]
    fn oversized_broadcast_range_is_an_error_not_a_panic() {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let evil = BroadcastMessage {
            range_start: 0,
            range_end: 1 << 30,
            updates: vec![(123_456_789, 1.0)],
        };
        // The plain layout, and the default's wrapped one.
        for compressor in [None, Some(Codec::Snappy)] {
            let mut config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
            config.communication = CommunicationMode::Sparse;
            config.message_compressor = compressor;
            let program = PageRank::new(3);
            let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();

            let (wire, _) = plan
                .message_codec
                .encode(&evil, &mut ServerMetrics::default());
            let mut plane = TestPlane {
                payload: Some(wire.into()),
                ..TestPlane::default()
            };
            let err = run_worker(
                &config,
                &plan,
                &p,
                &program,
                0,
                &mut plane,
                &Tracer::off(),
                WorkerOptions::default(),
            )
            .expect_err("oversized range must abort cleanly");
            let rendered = err.error.to_string();
            assert!(rendered.contains("exceeds vertex count"), "{rendered}");
            assert!(!err.secondary);
        }
    }

    /// A peer message whose range overlaps this server's own tile is well
    /// formed on its own, but it updates a vertex this server updated too.
    /// Sorting the two and keeping either would split the replicas silently
    /// (each server holds its own updates first), so it is a corrupt
    /// broadcast.
    #[test]
    fn a_vertex_updated_by_two_messages_is_an_error() {
        let g = path_graph(10);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 2)).unwrap();
        let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let program = PageRank::new(3);
        let plan = ExecutionPlan::prepare(&config, &p, &program).unwrap();
        // Superstep 0 of PageRank moves vertex 0, the path's head, from
        // 1/10 to the teleport share.
        let overlapping = BroadcastMessage::new(0, 10, vec![(0, 0.5)]);
        let (wire, _) = plan
            .message_codec
            .encode(&overlapping, &mut ServerMetrics::default());
        let mut plane = TestPlane {
            payload: Some(wire.into()),
            ..TestPlane::default()
        };
        let err = run_worker(
            &config,
            &plan,
            &p,
            &program,
            0,
            &mut plane,
            &Tracer::off(),
            WorkerOptions::default(),
        )
        .expect_err("an id two messages update must abort the run");
        let rendered = err.error.to_string();
        assert!(
            rendered.contains("two messages overlap at vertex 0 in superstep 0"),
            "{rendered}"
        );
        assert!(!err.secondary);
        assert!(
            !plane.calls.contains(&("ack", 0)),
            "the superstep must not be acknowledged: {:?}",
            plane.calls
        );
    }
}
