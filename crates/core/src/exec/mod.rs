//! Execution machinery shared by every [`Executor`].
//!
//! The engine's per-superstep work factors into pieces that are identical no
//! matter how the simulated servers are scheduled:
//!
//! * [`ExecutionPlan`] — everything derived from the config + partitioned graph
//!   before the first superstep (initial values and the validated initial
//!   frontier, tile assignment, cost model),
//! * [`ServerState`] — one server's long-lived state (a metered "disk" over
//!   the partitioned graph's tile store, vertex replica, edge cache, its
//!   peak memory, and shared handles on what the partitioned graph keeps for
//!   every run once the first has built it: each assigned tile's staged
//!   blob and its [`SourceSet`] and, for push-capable runs, the out-edge
//!   transpose of all its tiles — [`PushTranspose`] — with the push
//!   accumulator over its target slots),
//! * [`ServerState::run_tile_phase`] — the compute phase of one superstep on
//!   one server: fill the quotients a fold over `ValuePerOutEdge` reads,
//!   skip the tiles no frontier vertex is a source of, fetch the rest, and
//!   hand each to the program's
//!   [`GabProgram::gather_tile`] — the
//!   engine's loop over the tile's CSR slices, compiled per program, which
//!   passes over targets whose value the program calls final — producing
//!   the tile-granular [`BroadcastMessage`]s to publish; or, in a push
//!   superstep, walk only the frontier's out-edges in the server's
//!   transpose, in one pass on the server's thread. Which
//!   of the two a superstep of a push-capable program runs is the engine's
//!   choice ([`ExecutionPlan::frontier_view`]): Beamer's rule over the
//!   replicated frontier, which no program and no option tunes,
//! * [`UpdateRuns`] / [`ServerState::apply_updates`] — the deterministic
//!   barrier: every message is an ascending run over its own tile's range,
//!   so a superstep's updates name each vertex at most once — the order they
//!   are applied in cannot change a replica — and the runs' ids, ordered by
//!   first id and concatenated, are the next frontier, ascending whatever
//!   order the messages arrived in. Every executor applies the same update
//!   set and produces bit-identical replicas.
//!
//! [`WorkerStep`] strings these together into one server's superstep —
//! compute, encode, receive, apply — with no transport inside. Two drivers
//! step it. The in-process loop ([`sequential`]) steps every server of a run
//! in two pool phases a superstep: [`sequential::SequentialExecutor`] on the
//! calling thread (the reference), [`sequential::ThreadedExecutor`] over a
//! pool sized to the host's CPUs. `graphh-runtime`'s `run_worker` steps one
//! server over a TCP broadcast plane, one per `graphh-node` process. Both
//! hand their servers' [`WorkerOutput`]s to [`reduce`], which makes the
//! [`RunResult`].

mod reduce;
pub mod sequential;
mod step;

pub use self::reduce::reduce;
pub use self::step::{WorkerOutput, WorkerStep};
use crate::engine::{GraphHConfig, RunResult};
use crate::gab::{
    Declaration, Direction, DirectionMode, Edges, FrontierStats, GabProgram, InitContext,
    TileUpdates, VertexContext,
};
use crate::{EngineError, Result};
use graphh_cache::{CacheStats, EdgeCache, EdgeCacheConfig};
use graphh_cluster::{BroadcastMessage, CostModel, MessageCodec, ServerMetrics};
use graphh_compress::Codec;
use graphh_graph::ids::{ServerId, TileId, VertexId};
use graphh_obs::{global_counters, Tracer};
use graphh_partition::{PartitionedGraph, PushTranspose, SourceSet, Tile, TileAssignment};
use graphh_storage::{IoMeter, IoSnapshot, MemoryBackend, MeteredBackend, StorageBackend};
use std::sync::Arc;

/// Frontier density (fraction of all vertices) at or above which the per-tile
/// source-set probe is skipped. (The name is from when the set was a Bloom
/// filter; `benchmark/` reads it.)
///
/// Probing costs O(frontier) per tile. When the frontier is dense — PageRank
/// updates essentially every vertex every superstep — no tile can realistically
/// be skipped, so the probe is pure O(tiles × frontier) overhead; below the
/// threshold (frontier algorithms like SSSP/BFS) probing pays for itself many
/// times over and `tiles_skipped` semantics are unchanged.
pub const BLOOM_DENSE_FRONTIER_FRACTION: f64 = 0.25;

/// The §IV-A permanent arrays of a server under All-in-All, in bytes: the
/// replica of every vertex value and the message array, 8 bytes a vertex
/// each, and the out- and in-degree arrays, 4 bytes a vertex each.
fn permanent_array_bytes(num_vertices: u64) -> u64 {
    (8 + 8 + 4 + 4) * num_vertices
}

/// α of the Beamer direction heuristic: push only while the frontier's
/// out-edges are under `1/α` of all edges (see [`FrontierStats::beamer`]; 14
/// in the original paper).
pub const DIRECTION_ALPHA: u64 = 14;

/// β of the Beamer direction heuristic: push only while the frontier holds
/// under `1/β` of all vertices (24 in the original paper).
pub const DIRECTION_BETA: u64 = 24;

/// An execution strategy for the GraphH engine.
///
/// Implementations must be observationally equivalent: given the same config,
/// graph and program, `execute` must return bit-identical `values` (the
/// differential tests in `graphh-runtime` and `tests/determinism.rs` enforce
/// this). Only wall-clock behaviour may differ.
pub trait Executor: Send + Sync {
    /// Short name used in reports ("sequential", "threaded", ...).
    fn name(&self) -> &'static str;

    /// Run `program` over `partitioned` under `config`.
    fn execute(
        &self,
        config: &GraphHConfig,
        partitioned: &PartitionedGraph,
        program: &dyn GabProgram,
    ) -> Result<RunResult>;
}

/// Immutable state shared by all servers of one run.
#[derive(Debug)]
pub struct ExecutionPlan {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Out-degree of every vertex.
    pub out_degrees: Arc<Vec<u32>>,
    /// Initial value of every vertex.
    pub initial_values: Arc<Vec<f64>>,
    /// Tile → server assignment.
    pub assignment: TileAssignment,
    /// Superstep cap (config and program limits combined).
    pub max_supersteps: u32,
    /// Wire codec for broadcast messages.
    pub message_codec: MessageCodec,
    /// Metered-work → simulated-seconds conversion.
    pub cost_model: CostModel,
    /// Compute threads per server for the tile phase (the paper's `T`),
    /// resolved from the config (explicit knob, else the machine's worker
    /// count).
    pub threads_per_server: u32,
    /// Total out-edges in the graph (the denominator of every frontier-
    /// density decision).
    pub total_out_edges: u64,
    /// The run's direction override (from the config).
    pub direction_mode: DirectionMode,
    /// Whether this run can ever take the push path: the program's gather
    /// is a min fold *and* the override does not pin pull. Servers only
    /// build push indexes when this is set.
    pub push_capable: bool,
    /// The program's validated [`GabProgram::initial_frontier`]: `None` when
    /// every vertex changed at initialisation (superstep 0 runs everything).
    initial_frontier: Option<Vec<VertexId>>,
}

impl ExecutionPlan {
    /// Validate the input and precompute everything supersteps share.
    pub fn prepare(
        config: &GraphHConfig,
        partitioned: &PartitionedGraph,
        program: &dyn GabProgram,
    ) -> Result<Self> {
        config.validate()?;
        let num_vertices = partitioned.num_vertices();
        if num_vertices == 0 {
            return Err(EngineError::BadInput("graph has no vertices".into()));
        }
        if num_vertices > u64::from(u32::MAX) {
            return Err(EngineError::BadInput(
                "stand-in graphs must have fewer than 2^32 vertices".into(),
            ));
        }
        let out_degrees: Arc<Vec<u32>> = Arc::new(partitioned.out_degrees.clone());
        let init_ctx = InitContext { num_vertices };
        let initial_values: Arc<Vec<f64>> = Arc::new(
            (0..num_vertices as u32)
                .map(|v| program.initial_value(v, &init_ctx))
                .collect(),
        );
        let initial_frontier = program.initial_frontier(num_vertices);
        if let Some(ids) = &initial_frontier {
            if let Some(&id) = ids.iter().find(|&&id| u64::from(id) >= num_vertices) {
                return Err(EngineError::BadInput(format!(
                    "program {:?} starts from vertex {id}, but the graph has only \
                     {num_vertices} vertices (ids 0..{num_vertices})",
                    program.name()
                )));
            }
            if let Some(pair) = ids.windows(2).find(|pair| pair[0] >= pair[1]) {
                return Err(EngineError::BadInput(format!(
                    "program {:?} lists its initial frontier out of order or twice \
                     (vertex {} before vertex {}); it must be ascending and distinct",
                    program.name(),
                    pair[0],
                    pair[1]
                )));
            }
        }
        if config.direction_mode == DirectionMode::ForcePush && !program.supports_push() {
            let why = match program.declaration(num_vertices).fold {
                Some(_) => "its gather is an ordered sum, which a push would reorder",
                None => "it has a custom gather, not a min fold",
            };
            return Err(EngineError::BadInput(format!(
                "direction: force-push requested but program {:?} is pull-only ({why})",
                program.name()
            )));
        }
        let assignment =
            TileAssignment::round_robin(partitioned.num_tiles(), config.cluster.num_servers);
        let max_supersteps = config
            .max_supersteps
            .unwrap_or(u32::MAX)
            .min(program.max_supersteps());
        let total_out_edges = out_degrees.iter().map(|&d| u64::from(d)).sum();
        Ok(Self {
            num_vertices,
            out_degrees,
            initial_values,
            assignment,
            max_supersteps,
            message_codec: MessageCodec::new(config.communication, config.message_compressor),
            cost_model: CostModel::new(config.cluster),
            // `validate` rejected an explicit 0; the fallback machine spec
            // could still be hand-built with 0 workers, so floor it.
            threads_per_server: config
                .threads_per_server
                .unwrap_or(config.cluster.machine.workers)
                .max(1),
            total_out_edges,
            direction_mode: config.direction_mode,
            push_capable: program.supports_push()
                && config.direction_mode != DirectionMode::ForcePull,
            initial_frontier,
        })
    }

    /// Vertex ids active before superstep 0: what the program's
    /// [`GabProgram::initial_frontier`] listed, or every vertex.
    pub fn initial_frontier(&self) -> Vec<VertexId> {
        match &self.initial_frontier {
            Some(ids) => ids.clone(),
            None => (0..self.num_vertices as u32).collect(),
        }
    }

    /// Whether `superstep` runs every target of every tile regardless of the
    /// frontier: superstep 0 of a program whose every vertex changed at
    /// initialisation.
    fn runs_everything(&self, superstep: u32) -> bool {
        superstep == 0 && self.initial_frontier.is_none()
    }

    /// The replicated frontier stats for one superstep's frontier.
    ///
    /// Pure integer folds over replicated inputs (the merged update set and
    /// the shared out-degree array) — every executor and every server
    /// computes the identical value, and the hot loop allocates nothing.
    fn frontier_stats(&self, frontier: &[VertexId]) -> FrontierStats {
        let mut frontier_out_edges = 0u64;
        for &v in frontier {
            frontier_out_edges += u64::from(self.out_degrees[v as usize]);
        }
        FrontierStats {
            frontier_size: frontier.len() as u64,
            frontier_out_edges,
            num_vertices: self.num_vertices,
            total_out_edges: self.total_out_edges,
        }
    }

    /// The direction the next superstep runs: the override if one is set
    /// (`prepare` rejected force-push on a program that cannot push), else
    /// Beamer's rule for a push-capable program and pull for every other.
    ///
    /// Deterministic by construction: a pure function of the plan and the
    /// replicated stats, so sequential, threaded and multi-process runs pick
    /// the same direction at the same superstep.
    fn resolve_direction(&self, stats: &FrontierStats) -> Direction {
        match self.direction_mode {
            DirectionMode::ForcePull => Direction::Pull,
            DirectionMode::ForcePush => Direction::Push,
            DirectionMode::Auto if self.push_capable => {
                stats.beamer(DIRECTION_ALPHA, DIRECTION_BETA)
            }
            DirectionMode::Auto => Direction::Pull,
        }
    }

    /// Bundle one superstep's frontier with its stats and the resolved
    /// direction — computed **once per superstep per executor** and handed
    /// to every server's [`ServerState::run_tile_phase`].
    ///
    /// `_program` is unused — the plan already knows whether the program can
    /// push; the parameter stays only because `benchmark/` passes it
    /// and may not change.
    pub fn frontier_view<'a>(
        &self,
        _program: &dyn GabProgram,
        frontier: &'a [VertexId],
    ) -> FrontierView<'a> {
        let stats = self.frontier_stats(frontier);
        let direction = self.resolve_direction(&stats);
        FrontierView {
            vertices: frontier,
            stats,
            direction,
        }
    }
}

/// One superstep's replicated frontier, its [`FrontierStats`], and the
/// engine's resolved [`Direction`] decision.
///
/// Built by [`ExecutionPlan::frontier_view`]; both the dense-frontier rule of
/// tile skipping and the push/pull branch read from here instead of
/// recomputing density.
#[derive(Debug, Clone, Copy)]
pub struct FrontierView<'a> {
    /// Vertices updated in the previous superstep, ascending (the merge at
    /// the barrier orders them).
    pub vertices: &'a [VertexId],
    /// Replicated stats over `vertices`.
    pub stats: FrontierStats,
    /// The resolved tile-loop direction.
    pub direction: Direction,
}

impl FrontierView<'_> {
    /// Whether the frontier is dense enough that the per-tile source-set probe
    /// is pure overhead (the `BLOOM_DENSE_FRONTIER_FRACTION` rule). Kept as the
    /// exact multiply-compare the engine has always used, so the skip
    /// decision is bit-compatible with earlier releases.
    pub fn is_dense(&self) -> bool {
        self.stats.frontier_size as f64
            >= self.stats.num_vertices as f64 * BLOOM_DENSE_FRONTIER_FRACTION
    }
}

/// The first position at or after `from` whose element is not below `v`, in
/// ascending `sorted`: doubling steps, then a binary search of the last one —
/// O(log distance), so a short frontier crosses a long source list quickly
/// and a dense one pays a step or two per vertex.
fn gallop_to(sorted: &[VertexId], from: usize, v: VertexId) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step < sorted.len() && sorted[lo + step] < v {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step + 1).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&s| s < v)
}

/// What a push superstep folds contributions into: a sparse set over the
/// server's target slots ([`PushTranspose::num_slots`]). `touched` holds
/// every slot reached this superstep with its combined value, in the order
/// first reached; `index[slot]` is where that slot's entry sits, valid only
/// when the entry there names the slot back — so clearing `touched` resets
/// the set, and a superstep costs what it touches, not the server's target
/// count. Allocated with the server and kept across supersteps.
#[derive(Debug)]
struct PushAccumulator {
    index: Vec<u32>,
    touched: Vec<(u32, f64)>,
}

impl PushAccumulator {
    fn new(num_slots: usize) -> Self {
        Self {
            index: vec![0; num_slots],
            touched: Vec::new(),
        }
    }

    /// Fold `contribution` into `slot`'s minimum.
    #[inline]
    fn add(&mut self, slot: u32, contribution: f64) {
        let at = &mut self.index[slot as usize];
        match self.touched.get_mut(*at as usize) {
            Some((owner, value)) if *owner == slot => {
                *value = value.min(contribution);
            }
            _ => {
                *at = self.touched.len() as u32;
                self.touched.push((slot, contribution));
            }
        }
    }

    /// Resident bytes, for memory accounting.
    fn memory_bytes(&self) -> u64 {
        4 * self.index.capacity() as u64 + 16 * self.touched.capacity() as u64
    }
}

/// One push superstep over a server's transpose, the whole server in one
/// pass:
///
/// 1. walk the frontier (ascending) once against the transpose's sources
///    (ascending), galloping to each frontier vertex;
/// 2. fold the contribution of every out-edge of every frontier vertex
///    found there into its target's slot — the program's declared
///    [`Fold`](crate::gab::Fold), a min, so the order cannot change the bits;
/// 3. sort the touched slots — tile order, then target order — cut them
///    into per-tile runs, apply each run's targets and emit one message per
///    tile with updates, in tile order, as the pull loop does.
///
/// A tile no contribution reached is skipped: no frontier vertex has an
/// edge into it. The cost is O(|F| log |S| + frontier out-edges + touched · log
/// touched), nothing per tile but the cut. The accumulator is left empty.
fn scatter_server(
    transpose: &PushTranspose,
    acc: &mut PushAccumulator,
    declared: Declaration,
    active: &[VertexId],
    ctx: &VertexContext<'_>,
) -> TilePhaseOutput {
    let fold = declared.fold.expect("the plan pushes only a min fold");
    let operands = fold.operands(ctx);
    let sources = transpose.sources();
    let mut metrics = ServerMetrics::default();
    let (mut si, mut tile) = (0usize, 0usize);
    for &source in active {
        si = gallop_to(sources, si, source);
        match sources.get(si) {
            None => break,
            Some(&found) if found != source => continue,
            Some(_) => {}
        }
        let (targets, weights) = transpose.out_edges(si);
        metrics.edges_processed += targets.len() as u64;
        let x = operands[source as usize];
        for (target, w) in Edges::new(targets, weights) {
            let slot = transpose.slot_of(target, &mut tile);
            let slot = slot.expect("every target of a transpose has a slot");
            acc.add(slot, fold.edge.of(x, w));
        }
        si += 1;
    }

    acc.touched.sort_unstable_by_key(|&(slot, _)| slot);
    let mut messages = Vec::new();
    let mut rest = acc.touched.as_slice();
    for k in 0..transpose.num_tiles() {
        let tile_end = transpose.tile_slots(k).end;
        let (run, tail) = rest.split_at(rest.partition_point(|&(slot, _)| slot < tile_end));
        rest = tail;
        if run.is_empty() {
            metrics.tiles_skipped += 1;
            continue;
        }
        metrics.tiles_processed += 1;
        let mut updates = Vec::new();
        for &(slot, accum) in run {
            let target = transpose.target_of(k, slot);
            if let Some(new) = declared.updated(accum, ctx.values[target as usize]) {
                updates.push((target, new));
            }
        }
        metrics.messages_produced += updates.len() as u64;
        if !updates.is_empty() {
            let (start, end) = transpose.tile_range(k);
            messages.push(BroadcastMessage::new(start, end, updates));
        }
    }
    acc.touched.clear();
    TilePhaseOutput { metrics, messages }
}

/// One simulated server's long-lived state.
pub struct ServerState {
    /// Server id.
    pub id: ServerId,
    /// Tiles assigned to this server, in processing order.
    pub tiles: Vec<TileId>,
    /// The server's local disk: the partitioned graph's tile store, behind
    /// this server's own [`IoMeter`], so every byte the engine actually moves
    /// is metered — one read per cache miss, and the writes that stage the
    /// server's tiles, which only the first run over the partitioned graph
    /// makes; see [`ServerState::io_snapshot`].
    disk: MeteredBackend<Arc<MemoryBackend>>,
    /// Storage key of each assigned tile, parallel to `tiles`, precomputed so
    /// the cache-miss path does no string formatting.
    tile_keys: Vec<String>,
    /// Local replica of every vertex value (All-in-All policy).
    pub values: Vec<f64>,
    /// The [`Operand::ValuePerOutEdge`](crate::gab::Operand) array of
    /// `values` for the current superstep: one slot per vertex, or nothing
    /// (and no allocation) for a program whose fold does not read it.
    prepared: Vec<f64>,
    /// Edge cache over idle memory.
    cache: EdgeCache,
    /// Per-tile source sets, parallel to `tiles`: what the skip probes. The
    /// partitioned graph's own, shared.
    source_sets: Vec<Arc<SourceSet>>,
    /// The push side, `None` unless the plan is push-capable: the out-edge
    /// transpose of all of `tiles` (the partitioned graph's own, shared) and
    /// the accumulator push supersteps fold into.
    push: Option<(Arc<PushTranspose>, PushAccumulator)>,
    /// The most this server has held so far, in bytes.
    peak_memory: u64,
    /// This server's persistent compute-thread pool (the paper's `T` worker
    /// threads): created once here, reused by every tile phase of every
    /// superstep — no thread is spawned inside the superstep loop.
    pool: graphh_pool::WorkerPool,
}

/// Output of one server's compute phase for one superstep.
pub struct TilePhaseOutput {
    /// Metered work and cache stats.
    pub metrics: ServerMetrics,
    /// One message per processed tile that produced updates, in tile order.
    pub messages: Vec<BroadcastMessage>,
}

/// What one pull-phase worker produces for one tile. Outcomes are reduced in
/// tile order, which is what keeps the parallel phase bit-identical to the
/// sequential reference.
struct TileOutcome {
    /// This tile's share of the superstep metrics.
    metrics: ServerMetrics,
    /// The broadcast message, if the tile produced updates.
    message: Option<BroadcastMessage>,
    /// The decoded tile, when it missed a cache that was still accepting
    /// tiles and should be offered to it by the post-join pass.
    admit: Option<Arc<Tile>>,
    /// Decoded in-memory size, charged to the peak while the phase holds it
    /// (0 if skipped).
    tile_memory_bytes: u64,
}

impl ServerState {
    /// Build server `sid`'s state: open its local disk on the partitioned
    /// graph's tile store and take its tiles' source sets — staging the tiles
    /// and building the sets the graph does not hold yet, and keeping them
    /// there for the next run — and size the edge cache from the idle memory.
    /// A push-capable plan also takes the transpose of its tile list, the
    /// same way.
    pub fn build(
        config: &GraphHConfig,
        plan: &ExecutionPlan,
        partitioned: &PartitionedGraph,
        sid: ServerId,
    ) -> Self {
        let num_vertices = plan.num_vertices;
        let machine = config.cluster.machine;
        let tiles = plan.assignment.tiles_of(sid);
        let disk = MeteredBackend::new(Arc::clone(partitioned.tile_store()), IoMeter::shared());
        let mut tile_keys = Vec::with_capacity(tiles.len());
        let mut source_sets = Vec::with_capacity(tiles.len());
        let mut total_tile_bytes = 0u64;
        for &tid in &tiles {
            total_tile_bytes += partitioned.tiles[tid as usize].serialized_size();
            source_sets.push(Arc::clone(partitioned.source_set(tid)));
            tile_keys.push(partitioned.stage_tile(&disk, tid).to_owned());
        }
        // Idle memory = machine memory minus the permanent vertex arrays.
        let idle = machine
            .memory_bytes
            .saturating_sub(permanent_array_bytes(num_vertices));
        let capacity = config.cache_capacity.unwrap_or(idle);
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: capacity,
                mode: config.cache_mode,
            },
            total_tile_bytes,
        );
        // Push-capable runs read a resident out-edge transpose of the
        // assigned tiles (the push loop never touches disk or cache). The
        // partitioned graph keeps the one the first such run built for this
        // tile list, so only that run pays for it; pull-only runs never do.
        let push = plan.push_capable.then(|| {
            let transpose = partitioned.push_transpose(&tiles);
            let acc = PushAccumulator::new(transpose.num_slots());
            (transpose, acc)
        });
        let mut server = ServerState {
            id: sid,
            tiles,
            disk,
            tile_keys,
            values: plan.initial_values.to_vec(),
            prepared: Vec::new(),
            cache,
            source_sets,
            push,
            peak_memory: 0,
            pool: graphh_pool::WorkerPool::new(plan.threads_per_server as usize),
        };
        server.peak_memory = server.held_bytes();
        server
    }

    /// The codec the edge cache selected.
    pub fn cache_codec(&self) -> Codec {
        self.cache.codec()
    }

    /// The most this server has held so far, in bytes: everything it holds
    /// at any point, plus, in a tile phase, the tiles that phase decodes,
    /// on top of the cache as the phase found it.
    pub fn peak_memory(&self) -> u64 {
        self.peak_memory
    }

    /// What this server holds now, in bytes: the §IV-A permanent arrays, its
    /// tiles' source sets, their push transpose and the push accumulator,
    /// the prepared array and the edge cache's contents.
    fn held_bytes(&self) -> u64 {
        let source_sets: u64 = self.source_sets.iter().map(|set| set.memory_bytes()).sum();
        let push = self.push.as_ref().map_or(0, |(transpose, acc)| {
            transpose.memory_bytes() + acc.memory_bytes()
        });
        permanent_array_bytes(self.values.len() as u64)
            + source_sets
            + push
            + 8 * self.prepared.capacity() as u64
            + self.cache.stats().used_bytes
    }

    /// Current edge-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Real bytes/ops moved through this server's local-disk backend so far.
    ///
    /// This is *actual-storage* accounting, kept apart from the simulated
    /// [`ServerMetrics`] disk counters, and the reads agree: a cache miss is
    /// exactly one metered `get` (admission works from the decoded tile), so
    /// `read_ops` equals the cache's `misses`. The writes are the tiles this
    /// server staged in [`ServerState::build`]: its whole share in the first
    /// run over a partitioned graph, nothing in a run whose graph already
    /// holds them.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.disk.meter().snapshot()
    }

    /// Route this server's pool-job spans into `tracer`, with the pool's
    /// worker threads on lanes `tid_base + worker_index`.
    pub(crate) fn set_tracer(&self, tracer: Tracer, tid_base: u32) {
        self.pool.set_tracer(tracer, tid_base);
    }

    /// This server's persistent compute-thread pool. Exposed so phases other
    /// than tile compute (the encode-compress phase of [`WorkerStep::encode`])
    /// fan out over the same resident threads instead of spawning their own.
    pub(crate) fn pool(&self) -> &graphh_pool::WorkerPool {
        &self.pool
    }

    /// Fold this server's storage-meter totals and edge-cache statistics into
    /// the global counter registry (under `storage.s{id}.*` / `cache.s{id}.*`).
    ///
    /// Call once at the end of a run: counts *add* (they are monotone totals
    /// across every run in the process), gauges overwrite.
    pub(crate) fn publish_observability(&self) {
        let registry = global_counters();
        let sid = self.id;
        let io = self.io_snapshot();
        registry
            .counter(&format!("storage.s{sid}.bytes_read"))
            .add(io.bytes_read);
        registry
            .counter(&format!("storage.s{sid}.bytes_written"))
            .add(io.bytes_written);
        registry
            .counter(&format!("storage.s{sid}.read_ops"))
            .add(io.read_ops);
        registry
            .counter(&format!("storage.s{sid}.write_ops"))
            .add(io.write_ops);
        let cache = self.cache_stats();
        registry
            .counter(&format!("cache.s{sid}.hits"))
            .add(cache.hits);
        registry
            .counter(&format!("cache.s{sid}.misses"))
            .add(cache.misses);
        registry
            .counter(&format!("cache.s{sid}.refused"))
            .add(cache.refused);
        registry
            .counter(&format!("cache.s{sid}.resident_tiles"))
            .set(cache.resident_tiles);
        registry
            .counter(&format!("cache.s{sid}.used_bytes"))
            .set(cache.used_bytes);
    }

    /// The compute phase of one superstep on this server, in the direction
    /// the executor resolved for it (`frontier.direction`), after filling
    /// the per-vertex array the declared fold reads
    /// ([`Declaration::fill_operand`]):
    ///
    /// * **pull** — walk the assigned tiles (skipping those no frontier
    ///   vertex is a source of), gather/apply every target against the local
    ///   replica,
    /// * **push** — sweep the sorted frontier once against the server's
    ///   resident out-edge transpose ([`PushTranspose`]), fold every
    ///   out-edge's contribution into the server's accumulator, apply per
    ///   tile, touching neither the edge cache nor the local disk.
    ///
    /// Both run the program's one [`Fold`](crate::gab::Fold), only a min
    /// pushes, and both emit updates in ascending target order per tile and
    /// messages in tile order, so the broadcast bytes are identical in either
    /// direction (`docs/ALGORITHMS.md`; the forced-push vs forced-pull suites
    /// in `tests/determinism.rs` pin it).
    ///
    /// A pull superstep's tiles are processed by this server's
    /// **persistent** [`graphh_pool::WorkerPool`] (the paper's `T`
    /// intra-server compute threads), built once in [`ServerState::build`]
    /// and reused every superstep — short supersteps pay a condvar wake, not
    /// a thread spawn. A push superstep is one pass on the calling thread:
    /// it reads only the frontier's out-edges. Determinism for any thread
    /// count is by construction:
    ///
    /// * each tile reads the *previous* superstep's replica (never this
    ///   phase's output), so tiles are data-independent,
    /// * every tile produces its own [`ServerMetrics`] / update buffer, and
    ///   the per-tile outputs are reduced **in tile order** after the join —
    ///   including the floating-point codec-time sums,
    /// * the edge cache never evicts, whether it still accepts tiles is read
    ///   once before the fork (state left by the previous phase), and missed
    ///   tiles are offered to it in a post-join pass in tile order — so the
    ///   resident set, and therefore every later superstep's hit/miss
    ///   sequence, is schedule-independent.
    pub fn run_tile_phase(
        &mut self,
        program: &dyn GabProgram,
        plan: &ExecutionPlan,
        superstep: u32,
        frontier: &FrontierView<'_>,
        use_bloom: bool,
    ) -> Result<TilePhaseOutput> {
        let declared = program.declaration(plan.num_vertices);
        declared.fill_operand(&self.values, &plan.out_degrees, &mut self.prepared);
        let ctx = VertexContext {
            values: &self.values,
            out_degrees: &plan.out_degrees,
            superstep,
            prepared: &self.prepared,
        };
        if frontier.direction == Direction::Push {
            let (transpose, acc) = self.push.as_mut().expect("a push-capable plan");
            let phase = scatter_server(transpose, acc, declared, frontier.vertices, &ctx);
            self.peak_memory = self.peak_memory.max(self.held_bytes());
            return Ok(phase);
        }
        let threads = plan.threads_per_server as usize;
        let run_everything = plan.runs_everything(superstep);
        let outcomes = self.pull_outcomes(program, run_everything, frontier, use_bloom, &ctx);
        let held_before_admissions = self.held_bytes();

        // Deterministic reduction, in tile order: fold metrics (fixing the
        // floating-point summation order), collect messages, and offer the
        // tiles that missed to the cache — which of them fit is therefore the
        // same for any thread count.
        let mut metrics = ServerMetrics::default();
        let mut messages = Vec::new();
        let mut transient = Vec::with_capacity(self.tiles.len());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome?;
            metrics.merge(&outcome.metrics);
            if let Some(tile) = outcome.admit {
                metrics.compress_seconds += self.cache.offer(self.tiles[i], &tile);
            }
            if let Some(message) = outcome.message {
                messages.push(message);
            }
            transient.push(outcome.tile_memory_bytes);
        }

        // Transient tile memory: up to `threads` tiles are decoded
        // concurrently, so charge the sum of the `threads` largest (with one
        // thread this is exactly the sequential per-tile maximum). The phase
        // held them before it offered any to the cache.
        transient.sort_unstable_by(|a, b| b.cmp(a));
        let concurrent_tile_bytes: u64 = transient.iter().take(threads.max(1)).sum();
        self.peak_memory = self
            .peak_memory
            .max(held_before_admissions + concurrent_tile_bytes)
            .max(self.held_bytes());

        Ok(TilePhaseOutput { metrics, messages })
    }

    /// The pull path: source-set probe, cache lookup / disk fetch, then the
    /// program's [`GabProgram::gather_tile`] over the tile's CSR slices —
    /// the one virtual call of a tile.
    fn pull_outcomes(
        &self,
        program: &dyn GabProgram,
        run_everything: bool,
        frontier: &FrontierView<'_>,
        use_bloom: bool,
        vertex_ctx: &VertexContext<'_>,
    ) -> Vec<Result<TileOutcome>> {
        // Skip the O(frontier)-per-tile probe outright when the frontier is
        // dense: nothing would be skipped, and the probe itself becomes the
        // hot loop. The rule reads the shared frontier stats, so it is
        // identical across executors and thread counts.
        let probe_sources = use_bloom && !run_everything && !frontier.is_dense();
        let previously_updated = frontier.vertices;
        let tiles = &self.tiles;
        let cache = &self.cache;
        let disk = &self.disk;
        let tile_keys = &self.tile_keys;
        let source_sets = &self.source_sets;
        // Read once, before any worker runs: while the cache still accepts
        // tiles a miss keeps its decoded tile for the post-join pass; once it
        // is full nothing outlives the worker that decoded it.
        let cache_accepting = !cache.is_full();

        self.pool.fork_join_ordered(tiles.len(), |i| {
            let tile_id = tiles[i];
            let mut metrics = ServerMetrics::default();

            // Tile skipping: a tile with no updated source vertex cannot
            // change any target value.
            if probe_sources && !source_sets[i].intersects(previously_updated) {
                metrics.tiles_skipped += 1;
                return Ok(TileOutcome {
                    metrics,
                    message: None,
                    admit: None,
                    tile_memory_bytes: 0,
                });
            }

            // Fetch the tile: edge cache first, local disk on a miss.
            let mut admit = None;
            let tile: Arc<Tile> = match cache.lookup(tile_id, 0) {
                Some(fetch) => {
                    metrics.cache_hits += 1;
                    metrics.decompress_seconds += fetch.decompress_seconds;
                    fetch.tile
                }
                None => {
                    metrics.cache_misses += 1;
                    let blob = disk
                        .get(&tile_keys[i])
                        .expect("assigned tile must be on local disk");
                    metrics.disk_read_bytes += blob.len() as u64;
                    metrics.disk_read_ops += 1;
                    let tile = Arc::new(Tile::from_bytes(&blob)?);
                    // Admission is deferred to the post-join pass so the
                    // cache fills in tile order on one thread.
                    admit = cache_accepting.then(|| Arc::clone(&tile));
                    tile
                }
            };

            // Process the tile against the local replica array.
            let TileUpdates {
                updates: tile_updates,
                edges_processed,
            } = program.gather_tile(&tile, run_everything, vertex_ctx);
            metrics.edges_processed += edges_processed;
            metrics.tiles_processed += 1;
            metrics.messages_produced += tile_updates.len() as u64;

            let message = (!tile_updates.is_empty())
                .then(|| BroadcastMessage::new(tile.target_start, tile.target_end, tile_updates));
            Ok(TileOutcome {
                metrics,
                message,
                admit,
                tile_memory_bytes: tile.memory_bytes(),
            })
        })
    }

    /// The barrier's apply half: fold `updates` (each vertex at most once, so
    /// in any order) into this server's replica.
    pub fn apply_updates(&mut self, updates: &[(VertexId, f64)]) {
        for &(v, value) in updates {
            self.values[v as usize] = value;
        }
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("id", &self.id)
            .field("tiles", &self.tiles.len())
            .field("values", &self.values.len())
            .finish()
    }
}

/// Sort updates by vertex id and keep one update per id, in place: the
/// brute-force merge [`UpdateRuns::merge`] is tested against. Tiles
/// partition the target-vertex space, so each vertex appears at most once;
/// when one does not, *which* of its values survives is unspecified (the
/// sort is unstable) — the executors merge through [`UpdateRuns`], which
/// reports such input instead.
pub fn merge_updates_in_place(all_updates: &mut Vec<(VertexId, f64)>) {
    all_updates.sort_unstable_by_key(|&(v, _)| v);
    all_updates.dedup_by_key(|&mut (v, _)| v);
}

/// One superstep's updates at the barrier, appended a message at a time, and
/// the frontier they make: the updated vertex ids, ascending.
///
/// Each message is an ascending run of ids inside its own tile's range, and
/// tiles partition the vertex range. So the runs name distinct vertices —
/// the order a replica applies them in cannot change it, and they stay where
/// they arrived — and ordering the runs by first id and concatenating their
/// ids *is* the sorted frontier: a copy of four bytes per update instead of
/// O(n log n) comparisons of sixteen. The updates then make the replica,
/// and the frontier is the ids, that [`merge_updates_in_place`]'s output
/// makes, bit for bit. [`UpdateRuns::merge`] checks strict ascent as it
/// copies; runs that fail it overlap, which only a corrupt message makes,
/// and the merge refuses them. The update buffer, the run list and the
/// caller's frontier are kept across supersteps: a steady-state merge
/// allocates nothing.
#[derive(Debug, Default)]
pub struct UpdateRuns {
    /// The updates, in arrival order.
    updates: Vec<(VertexId, f64)>,
    /// `[start, end)` of every non-empty run in `updates`, in arrival order.
    runs: Vec<(usize, usize)>,
}

impl UpdateRuns {
    /// An empty set with nothing allocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the updates, keeping every allocation.
    pub fn clear(&mut self) {
        self.updates.clear();
        self.runs.clear();
    }

    /// Append one update to the run being received.
    pub fn push(&mut self, vertex: VertexId, value: f64) {
        self.updates.push((vertex, value));
    }

    /// Close the run being received: the updates pushed since the last
    /// `end_run` are one message's.
    pub fn end_run(&mut self) {
        let start = self.runs.last().map_or(0, |&(_, end)| end);
        if start < self.updates.len() {
            self.runs.push((start, self.updates.len()));
        }
    }

    /// Append one message's updates as a run.
    pub fn extend_run(&mut self, run: &[(VertexId, f64)]) {
        self.updates.extend_from_slice(run);
        self.end_run();
    }

    /// The updates to apply, in arrival order. After a successful
    /// [`Self::merge`] no vertex appears twice, so the order cannot change a
    /// replica.
    pub fn as_slice(&self) -> &[(VertexId, f64)] {
        &self.updates
    }

    /// Close the open run and refill `frontier` with the updated ids,
    /// ascending.
    ///
    /// `Err(v)` when the runs, ordered by first id, do not ascend strictly:
    /// `v` is the first id that is not above the one before it, so a run
    /// repeats an id or reaches into another run's range. The updates and
    /// the frontier are then not a set a replica may apply.
    pub fn merge(&mut self, frontier: &mut Vec<VertexId>) -> std::result::Result<(), VertexId> {
        self.end_run();
        let updates = &self.updates;
        self.runs
            .sort_unstable_by_key(|&(start, _)| (updates[start].0, start));
        frontier.clear();
        let mut verdict = Ok(());
        for &(start, end) in &self.runs {
            // This run's ids and the id before them must ascend strictly.
            let from = frontier.len().saturating_sub(1);
            frontier.extend(updates[start..end].iter().map(|&(v, _)| v));
            if let Some(pair) = frontier[from..].windows(2).find(|pair| pair[0] >= pair[1]) {
                verdict = Err(pair[1]);
                break;
            }
        }
        self.runs.clear();
        verdict
    }
}

#[cfg(test)]
mod kernel_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::PageRank;
    use graphh_cluster::ClusterConfig;
    use graphh_graph::generators::{GraphGenerator, RmatGenerator};
    use graphh_partition::{Spe, SpeConfig};

    #[test]
    fn merge_updates_sorts_and_dedups() {
        let mut merged = vec![(5, 1.0), (1, 2.0), (5, 3.0), (0, 4.0)];
        merge_updates_in_place(&mut merged);
        assert_eq!(merged, vec![(0, 4.0), (1, 2.0), (5, 1.0)]);
    }

    /// A deterministic xorshift stream for the randomized merge tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// What a superstep's messages look like: `0..num_vertices` cut into
    /// `num_runs` ranges (some empty), each keeping about one id in `keep`
    /// in ascending order, with arbitrary value bits (NaNs and `-0.0`
    /// included).
    fn disjoint_runs(
        rng: &mut Rng,
        num_vertices: u32,
        num_runs: usize,
        keep: usize,
    ) -> Vec<Vec<(VertexId, f64)>> {
        let mut cuts: Vec<u32> = (1..num_runs)
            .map(|_| rng.below(num_vertices as usize + 1) as u32)
            .chain([0, num_vertices])
            .collect();
        cuts.sort_unstable();
        let mut run_over = |start, end| {
            let mut run = Vec::new();
            for v in start..end {
                if rng.below(keep) == 0 {
                    run.push((v, f64::from_bits(rng.next())));
                }
            }
            run
        };
        cuts.windows(2)
            .map(|range| run_over(range[0], range[1]))
            .collect()
    }

    /// Append `runs` in order and merge them through [`UpdateRuns`], which
    /// must leave the updates where they arrived. On `Ok`, they make the
    /// same replica, value bits and all, and the same frontier as
    /// [`merge_updates_in_place`]'s output, or the test fails.
    fn merge_both_ways(runs: &[Vec<(VertexId, f64)>]) -> std::result::Result<(), VertexId> {
        let mut merger = UpdateRuns::new();
        for run in runs {
            merger.extend_run(run);
        }
        let arrived = merger.as_slice().to_vec();
        let mut frontier = Vec::new();
        let verdict = merger.merge(&mut frontier);
        let bits = |updates: &[(VertexId, f64)]| -> Vec<(VertexId, u64)> {
            updates.iter().map(|&(v, x)| (v, x.to_bits())).collect()
        };
        assert!(bits(merger.as_slice()) == bits(&arrived));
        if verdict.is_ok() {
            let mut sorted = arrived;
            merge_updates_in_place(&mut sorted);
            let ids: Vec<VertexId> = sorted.iter().map(|&(v, _)| v).collect();
            assert_eq!(frontier, ids);
            let replica = |updates: &[(VertexId, f64)]| -> Vec<u64> {
                let mut values = vec![0u64; 5_001];
                for &(v, x) in updates {
                    values[v as usize] = x.to_bits();
                }
                values
            };
            assert!(replica(merger.as_slice()) == replica(&sorted));
        }
        verdict
    }

    /// Range-disjoint ascending runs in any order — the only input the
    /// engine makes — are left where they arrived, and their ids concatenate
    /// into exactly the frontier the sort produces.
    #[test]
    fn ordered_merge_concatenates_disjoint_runs_into_the_sort_bit_for_bit() {
        assert_eq!(merge_both_ways(&[]), Ok(()));
        assert_eq!(merge_both_ways(&[vec![(3, 1.0), (9, -0.0)]]), Ok(()));
        let singles: Vec<Vec<(VertexId, f64)>> = (0..100).rev().map(|v| vec![(v, 0.5)]).collect();
        assert_eq!(merge_both_ways(&singles), Ok(()));

        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..300 {
            let num_runs = [1, 2, 7, 64, 65, 300][round % 6];
            let keep = 1 + rng.below(4);
            let mut runs = disjoint_runs(&mut rng, 5_000, num_runs, keep);
            // Sorted already, reversed, and shuffled.
            assert_eq!(merge_both_ways(&runs), Ok(()), "round {round}");
            runs.reverse();
            assert_eq!(merge_both_ways(&runs), Ok(()), "round {round}");
            rng.shuffle(&mut runs);
            assert_eq!(merge_both_ways(&runs), Ok(()), "round {round}");
        }
    }

    /// Whether every run ascends strictly and no two runs' `[first, last]`
    /// spans meet: what the ordered merge must accept, computed pair by pair.
    fn range_disjoint(runs: &[Vec<(VertexId, f64)>]) -> bool {
        let spans: Vec<(VertexId, VertexId)> = runs
            .iter()
            .filter(|run| !run.is_empty())
            .map(|run| (run[0].0, run[run.len() - 1].0))
            .collect();
        runs.iter()
            .all(|run| run.windows(2).all(|pair| pair[0].0 < pair[1].0))
            && spans
                .iter()
                .enumerate()
                .all(|(i, a)| spans[i + 1..].iter().all(|b| a.1 < b.0 || b.1 < a.0))
    }

    /// Runs that interleave (an id moved into another message's range) or
    /// overlap (an id in two messages) are refused, naming the first id
    /// that breaks the ascent — what only a corrupt peer sends.
    #[test]
    fn ordered_merge_refuses_runs_that_interleave_or_repeat_an_id() {
        let interleaved = [vec![(0, 1.0), (2, 2.0), (4, 3.0)], vec![(1, 4.0), (3, 5.0)]];
        assert_eq!(merge_both_ways(&interleaved), Err(1));
        let reaching = [vec![(6, 1.0), (9, 2.0)], vec![(0, 3.0), (7, 4.0)]];
        assert_eq!(merge_both_ways(&reaching), Err(6));
        let descending = [vec![(5, 1.0), (4, 2.0)]];
        assert_eq!(merge_both_ways(&descending), Err(4));
        let twice = [vec![(7, 1.0)], vec![(7, 2.0)]];
        assert_eq!(merge_both_ways(&twice), Err(7));

        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for round in 0..300 {
            let num_runs = 2 + rng.below(70);
            let mut runs = disjoint_runs(&mut rng, 2_000, num_runs, 2);
            let from = loop {
                let i = rng.below(runs.len());
                if !runs[i].is_empty() {
                    break i;
                }
            };
            let at = rng.below(runs[from].len());
            let (moved, value) = runs[from][at];
            let into = rng.below(runs.len());
            let duplicate = round % 2 == 0;
            if !duplicate {
                runs[from].remove(at);
            }
            let slot = runs[into].partition_point(|&(v, _)| v < moved);
            runs[into].insert(slot, (moved, -value));
            rng.shuffle(&mut runs);
            // Moving an id within its own run, or into a run adjacent in
            // range, can leave the runs disjoint; a repeated id never does.
            let disjoint = range_disjoint(&runs);
            assert!(!(duplicate && disjoint), "round {round}");
            assert_eq!(merge_both_ways(&runs).is_ok(), disjoint, "round {round}");
        }
    }

    /// From every start, to every value: the gallop lands where a linear
    /// scan would.
    #[test]
    fn gallop_lands_on_the_first_element_not_below_the_value() {
        let sorted: Vec<VertexId> = (0..200).map(|i| i * i / 7 + 3 * i).collect();
        for from in 0..=sorted.len() {
            let floor = from.checked_sub(1).map_or(0, |before| sorted[before] + 1);
            for v in floor..sorted[sorted.len() - 1] + 2 {
                let linear = from + sorted[from..].iter().take_while(|&&s| s < v).count();
                assert_eq!(gallop_to(&sorted, from, v), linear, "from {from} to {v}");
            }
        }
        assert_eq!(gallop_to(&[], 0, 5), 0);
    }

    #[test]
    fn plan_rejects_empty_graph() {
        let g =
            graphh_graph::Graph::from_edges(0, graphh_graph::EdgeList::new_unweighted()).unwrap();
        let p = Spe::partition(&g, &SpeConfig::new("x", 1)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        assert!(ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).is_err());
    }

    /// A traversal's source is outside input (`--program-arg source=N`): the
    /// plan names an id past the end instead of running to an all-∞ result,
    /// and holds the program to an ascending, distinct list.
    #[test]
    fn plan_rejects_an_initial_frontier_outside_the_graph_or_out_of_order() {
        use crate::algorithms::{Bfs, Sssp};
        use crate::gab::{Apply, Final, Update};

        struct StartsFrom(Vec<VertexId>);
        impl GabProgram for StartsFrom {
            fn name(&self) -> &'static str {
                "starts-from"
            }
            fn initial_value(&self, _v: VertexId, _ctx: &InitContext) -> f64 {
                0.0
            }
            fn declaration(&self, _num_vertices: u64) -> Declaration {
                Declaration {
                    fold: None,
                    apply: Apply::KeepUnlessInfinite,
                    update: Update::Moved(0.0),
                    finality: Final::Never,
                }
            }
            fn gather(&self, _t: VertexId, _e: &mut Edges<'_>, _ctx: &VertexContext<'_>) -> f64 {
                f64::INFINITY
            }
            fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<VertexId>> {
                Some(self.0.clone())
            }
        }

        let g = RmatGenerator::new(6, 4).generate(1);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
        let n = p.num_vertices();
        let past_the_end: [Box<dyn GabProgram>; 4] = [
            Box::new(Bfs::new(n as u32)),
            Box::new(Sssp::new(4_000_000_000)),
            Box::new(Bfs::new(u32::MAX)),
            Box::new(StartsFrom(vec![0, n as u32])),
        ];
        for program in &past_the_end {
            let err = ExecutionPlan::prepare(&cfg, &p, program.as_ref()).unwrap_err();
            assert!(matches!(err, EngineError::BadInput(_)), "{err}");
            let text = err.to_string();
            let id = program.initial_frontier(n).unwrap().pop().unwrap();
            assert!(
                text.contains(&format!("vertex {id}")) && text.contains(&format!("{n} vertices")),
                "{text}"
            );
        }
        for bad in [vec![3, 1], vec![2, 2]] {
            let err = ExecutionPlan::prepare(&cfg, &p, &StartsFrom(bad)).unwrap_err();
            assert!(err.to_string().contains("ascending and distinct"), "{err}");
        }
        // The last vertex is a legal source, the empty list a legal (one
        // empty superstep) start, and the plan hands back what it was given.
        let last = ExecutionPlan::prepare(&cfg, &p, &Bfs::new(n as u32 - 1)).unwrap();
        assert_eq!(last.initial_frontier(), [n as u32 - 1]);
        assert!(!last.runs_everything(0));
        let nothing = ExecutionPlan::prepare(&cfg, &p, &StartsFrom(vec![])).unwrap();
        assert!(nothing.initial_frontier().is_empty());
        let everything = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap();
        assert_eq!(everything.initial_frontier().len() as u64, n);
        assert!(everything.runs_everything(0) && !everything.runs_everything(1));
    }

    #[test]
    fn plan_resolves_tile_threads_from_knob_then_machine_workers() {
        let g = RmatGenerator::new(6, 4).generate(1);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        // Default: the machine's worker count (the paper's T).
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1).with_workers(3));
        let plan = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap();
        assert_eq!(plan.threads_per_server, 3);
        // Explicit knob wins over the machine spec.
        let pinned = cfg.clone().with_threads_per_server(2);
        assert_eq!(
            ExecutionPlan::prepare(&pinned, &p, &PageRank::new(1))
                .unwrap()
                .threads_per_server,
            2
        );
        // 0 is a config bug and surfaces as a clear error, not a clamp.
        let zero = cfg.with_threads_per_server(0);
        let err = ExecutionPlan::prepare(&zero, &p, &PageRank::new(1)).unwrap_err();
        assert!(err.to_string().contains("threads_per_server"), "{err}");
    }

    #[test]
    fn plan_rejects_zero_server_cluster_without_panicking() {
        let g = RmatGenerator::new(6, 4).generate(1);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 4)).unwrap();
        let mut cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        cfg.cluster.num_servers = 0; // bypasses the constructor assert on purpose
        let err = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap_err();
        assert!(err.to_string().contains("num_servers"), "{err}");
    }

    #[test]
    fn direction_decision_is_a_pure_function_of_the_replicated_frontier() {
        use crate::algorithms::{Bfs, Sssp};

        let g = RmatGenerator::new(7, 4).generate(9);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 5)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(2));
        let bfs = Bfs::new(0);
        let plan = ExecutionPlan::prepare(&cfg, &p, &bfs).unwrap();
        assert!(plan.push_capable);

        // Same frontier → same stats → same decision, on every call and on an
        // independently prepared plan (what a second process would compute).
        let quietest = (0..plan.num_vertices as u32)
            .min_by_key(|&v| plan.out_degrees[v as usize])
            .unwrap();
        let sparse: Vec<VertexId> = vec![quietest];
        let dense: Vec<VertexId> = (0..plan.num_vertices as u32).collect();
        let plan2 = ExecutionPlan::prepare(&cfg, &p, &bfs).unwrap();
        for frontier in [&sparse, &dense] {
            let a = plan.frontier_view(&bfs, frontier);
            let b = plan2.frontier_view(&bfs, frontier);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.direction, b.direction);
            assert_eq!(a.direction, plan.frontier_view(&bfs, frontier).direction);
        }
        assert_eq!(plan.frontier_view(&bfs, &sparse).direction, Direction::Push);
        assert_eq!(plan.frontier_view(&bfs, &dense).direction, Direction::Pull);

        // The override wins over the frontier, and pinning pull builds no
        // transposes.
        let force_pull = cfg.clone().with_direction_mode(DirectionMode::ForcePull);
        let plan_pull = ExecutionPlan::prepare(&force_pull, &p, &bfs).unwrap();
        assert!(!plan_pull.push_capable);
        assert_eq!(
            plan_pull.frontier_view(&bfs, &sparse).direction,
            Direction::Pull
        );
        let force_push = cfg.clone().with_direction_mode(DirectionMode::ForcePush);
        let plan_push = ExecutionPlan::prepare(&force_push, &p, &bfs).unwrap();
        assert_eq!(
            plan_push.frontier_view(&bfs, &dense).direction,
            Direction::Push
        );

        // A min fold is all a program says: SSSP gets the same decisions as
        // BFS, a pull-only program pulls whatever the frontier.
        let sssp = Sssp::new(0);
        let plan_sssp = ExecutionPlan::prepare(&cfg, &p, &sssp).unwrap();
        assert_eq!(
            plan_sssp.frontier_view(&sssp, &sparse).direction,
            Direction::Push
        );
        let pagerank = PageRank::new(1);
        let plan_pr = ExecutionPlan::prepare(&cfg, &p, &pagerank).unwrap();
        assert!(!plan_pr.push_capable);
        assert_eq!(
            plan_pr.frontier_view(&pagerank, &sparse).direction,
            Direction::Pull
        );

        // Force-push on a genuinely pull-only program is a plan-time error.
        let err = ExecutionPlan::prepare(&force_push, &p, &pagerank).unwrap_err();
        assert!(err.to_string().contains("pull-only"), "{err}");
    }

    #[test]
    fn frontier_stats_sum_out_edges_over_the_frontier() {
        let g = RmatGenerator::new(6, 4).generate(2);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 3)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
        let plan = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap();
        let frontier: Vec<VertexId> = vec![1, 4, 7];
        let stats = plan.frontier_stats(&frontier);
        assert_eq!(stats.frontier_size, 3);
        assert_eq!(
            stats.frontier_out_edges,
            frontier
                .iter()
                .map(|&v| u64::from(plan.out_degrees[v as usize]))
                .sum::<u64>()
        );
        assert_eq!(stats.num_vertices, plan.num_vertices);
        assert_eq!(stats.total_out_edges, plan.total_out_edges);
        let empty = plan.frontier_stats(&[]);
        assert_eq!((empty.frontier_size, empty.frontier_out_edges), (0, 0));
    }

    /// Each server stages exactly its own tiles, byte for byte under the
    /// tiles' keys, in the partitioned graph's store and is charged for them
    /// — once: a later build over the graph, or over a clone of it, writes
    /// nothing and shares the same source sets.
    #[test]
    fn server_state_stages_assigned_tiles() {
        let g = RmatGenerator::new(7, 4).generate(3);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 6)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
        let plan = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap();
        let store = p.tile_store();
        let mut staged_keys = Vec::new();
        let mut servers = Vec::new();
        for sid in 0..3 {
            let server = ServerState::build(&cfg, &plan, &p, sid);
            let own = server.tiles.iter().map(|&t| &p.tiles[t as usize]);
            let io = server.io_snapshot();
            assert_eq!(
                (io.bytes_written, io.write_ops),
                (
                    own.map(Tile::serialized_size).sum(),
                    server.tiles.len() as u64
                ),
                "server {sid} is charged for its own tiles"
            );
            assert_eq!((io.bytes_read, io.read_ops), (0, 0));
            // The store now holds the tiles of servers 0..=sid, no other.
            staged_keys.extend(server.tile_keys.iter().cloned());
            staged_keys.sort();
            assert_eq!(store.list(""), staged_keys, "after server {sid}");
            servers.push(server);
        }
        assert_eq!(staged_keys.len() as u32, p.num_tiles());
        for tile in &p.tiles {
            let key = Tile::storage_key(&p.graph_name, tile.tile_id);
            assert_eq!(
                store.get(&key).unwrap(),
                tile.to_bytes(),
                "tile {}",
                tile.tile_id
            );
        }
        let clone = p.clone();
        for graph in [&p, &clone] {
            for (sid, first) in servers.iter().enumerate() {
                let again = ServerState::build(&cfg, &plan, graph, sid as ServerId);
                assert_eq!(again.io_snapshot(), IoSnapshot::default(), "server {sid}");
                assert_eq!(again.tile_keys, first.tile_keys);
                let shared = again.source_sets.iter().zip(&first.source_sets);
                assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)));
            }
        }
        let s0 = &servers[0];
        assert_eq!(s0.values.len() as u64, plan.num_vertices);
        assert!(s0.peak_memory() > 0);
    }
}
