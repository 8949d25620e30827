//! Execution machinery shared by every [`Executor`].
//!
//! The engine's per-superstep work factors into pieces that are identical no
//! matter how the simulated servers are scheduled:
//!
//! * [`ExecutionPlan`] — everything derived from the config + partitioned graph
//!   before the first superstep (initial values and the validated initial
//!   frontier, tile assignment, cost model),
//! * [`ServerState`] — one server's long-lived state (tiles on "disk", vertex
//!   replica, edge cache, per-tile source sets, memory accounting and, for
//!   push-capable runs, each tile's out-edge transpose — built through one
//!   per-server scratch in time proportional to the tile's edges),
//! * [`ServerState::run_tile_phase`] — the compute phase of one superstep on
//!   one server: skip the tiles no frontier vertex is a source of, fetch the
//!   rest, and hand each to the program's [`GabProgram::gather_tile`] — the
//!   engine's loop over the tile's CSR slices, compiled per program, which
//!   passes over targets whose value the program calls final — producing
//!   the tile-granular [`BroadcastMessage`]s to publish; or, in a push
//!   superstep, walk only the frontier's out-edges in the transposes. Which
//!   of the two a superstep of a push-capable program runs is the engine's
//!   choice ([`ExecutionPlan::frontier_view`]): Beamer's rule over the
//!   replicated frontier, which no program and no option tunes,
//! * [`merge_updates_in_place`] / [`ServerState::apply_updates`] — the
//!   deterministic barrier: updates are sorted by vertex id before
//!   application, so every executor applies them in the same order and
//!   produces bit-identical replicas.
//!
//! An [`Executor`] strings these together: [`sequential::SequentialExecutor`]
//! on one thread (the reference), `graphh-runtime`'s `ThreadedExecutor` on one
//! OS thread per server with a real channel broadcast plane.

pub mod sequential;
mod source_set;

use self::source_set::SourceSet;
use crate::engine::{GraphHConfig, RunResult};
use crate::gab::{
    Direction, DirectionMode, Edges, FrontierStats, GabProgram, InitContext, TileUpdates,
    VertexContext,
};
use crate::{EngineError, Result};
use graphh_cache::{CacheStats, EdgeCache, EdgeCacheConfig};
use graphh_cluster::{BroadcastMessage, CostModel, MemoryTracker, MessageCodec, ServerMetrics};
use graphh_compress::Codec;
use graphh_graph::ids::{ServerId, TileId, VertexId};
use graphh_obs::{global_counters, Tracer};
use graphh_partition::{PartitionedGraph, Tile, TileAssignment};
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
    /// In-degree of every vertex.
    pub in_degrees: Arc<Vec<u32>>,
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
    /// Whether this run can ever take the push path: the program has a push
    /// side *and* the override does not pin pull. Servers only build push
    /// indexes when this is set.
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
        let in_degrees: Arc<Vec<u32>> = Arc::new(partitioned.in_degrees.clone());
        let init_ctx = InitContext {
            num_vertices,
            out_degrees: &out_degrees,
            in_degrees: &in_degrees,
        };
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
            return Err(EngineError::BadInput(format!(
                "direction: force-push requested but program {:?} is pull-only \
                 (it implements no scatter/combine side)",
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
            in_degrees,
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
    /// (`prepare` rejected force-push without a push side), else Beamer's
    /// rule for a push-capable program and pull for every other.
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
    /// `_program` is unused — the plan already knows whether the program has
    /// a push side; the parameter stays only because `benchmark/` passes it
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
    /// the barrier sorts them).
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

/// Per-tile transpose of the in-edge CSR for the push loop: the same edges,
/// grouped by **source** instead of target.
///
/// Tiles store only in-edges (sources grouped by target), which is exactly
/// what `gather` wants and exactly what `scatter` cannot use. The transpose
/// is built once per assigned tile at server build time (only for
/// push-capable runs), stays resident, and is searched for each vertex of
/// the sorted frontier in turn. Sources are ascending; a source's
/// out-targets are ascending; duplicate edges keep their tile order — so
/// the push loop's emit order is deterministic for any thread count.
struct PushIndex {
    /// First / one-past-last target vertex of the tile (mirrors the tile).
    target_start: VertexId,
    target_end: VertexId,
    /// Distinct source vertices with at least one edge into the tile,
    /// ascending.
    sources: Vec<VertexId>,
    /// CSR offsets into `targets` / `weights`, length `sources.len() + 1`.
    offsets: Vec<u64>,
    /// Out-targets (within this tile) grouped by source.
    targets: Vec<VertexId>,
    /// Edge weights; `None` for unweighted graphs (unit weight).
    weights: Option<Vec<f32>>,
}

/// What [`PushIndex::build`] counts in: one `u32` per vertex and one bit per
/// vertex, all zero between builds. A server allocates it once, builds every
/// assigned tile's transpose through it and drops it before the first
/// superstep, so a build costs O(tile edges + |V|/64) instead of allocating
/// and walking the tile's whole source span.
struct TransposeScratch {
    /// `next[s]`: while counting, the edges out of `s` seen so far; while
    /// scattering, the slot the next edge out of `s` goes to.
    next: Vec<u32>,
    /// Bit `s` set: `s` is a source of the tile being built.
    seen: Vec<u64>,
}

impl TransposeScratch {
    fn new(num_vertices: u64) -> Self {
        Self {
            next: vec![0; num_vertices as usize],
            seen: vec![0; num_vertices.div_ceil(64) as usize],
        }
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

impl PushIndex {
    /// A stable counting-sort transpose: count each source's edges and mark
    /// it in the bitmap, read the distinct sources off the bitmap words
    /// (ascending for free) while prefix-summing their counts into CSR
    /// offsets, then walk the targets in ascending order dropping every
    /// in-edge into its source's next free slot. Walking targets ascending is
    /// what makes each source's out-targets ascending and keeps duplicate
    /// `(source, target)` edges in tile order. Leaves `scratch` all-zero.
    fn build(tile: &Tile, scratch: &mut TransposeScratch) -> Self {
        let (tile_sources, tile_weights) = (tile.sources(), tile.weights());
        let num_edges = u32::try_from(tile_sources.len())
            .expect("a tile holds fewer than 2^32 edges (its slots are counted in u32)");
        let TransposeScratch { next, seen } = scratch;
        for &source in tile_sources {
            next[source as usize] += 1;
            seen[(source >> 6) as usize] |= 1 << (source & 63);
        }
        let mut sources = Vec::new();
        let mut offsets = vec![0u64];
        let mut placed = 0u32;
        for (word_index, word) in seen.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let source = (word_index as u32) << 6 | bits.trailing_zeros();
                bits &= bits - 1;
                placed += std::mem::replace(&mut next[source as usize], placed);
                sources.push(source);
                offsets.push(u64::from(placed));
            }
        }
        debug_assert_eq!(placed, num_edges);
        let mut targets = vec![0; num_edges as usize];
        let mut weights = tile_weights.map(|_| vec![0.0f32; num_edges as usize]);
        for (target, span) in tile.targets().zip(tile.offsets().windows(2)) {
            for edge in span[0] as usize..span[1] as usize {
                let slot = &mut next[tile_sources[edge] as usize];
                targets[*slot as usize] = target;
                if let (Some(out), Some(tile_weights)) = (&mut weights, tile_weights) {
                    out[*slot as usize] = tile_weights[edge];
                }
                *slot += 1;
            }
        }
        for &source in &sources {
            next[source as usize] = 0;
        }
        PushIndex {
            target_start: tile.target_start,
            target_end: tile.target_end,
            sources,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of target slots the tile covers.
    fn num_targets(&self) -> usize {
        (self.target_end - self.target_start) as usize
    }

    /// Out-edges of the source at position `si`, as `(target, weight)`.
    fn out_edges(&self, si: usize) -> Edges<'_> {
        let lo = self.offsets[si] as usize;
        let hi = self.offsets[si + 1] as usize;
        Edges::new(
            &self.targets[lo..hi],
            self.weights.as_ref().map(|w| &w[lo..hi]),
        )
    }

    /// Every edge as `(source, target, weight)`, in index order.
    #[cfg(test)]
    fn edges(&self) -> Vec<(VertexId, VertexId, f32)> {
        (0..self.sources.len())
            .flat_map(|si| {
                let source = self.sources[si];
                self.out_edges(si).map(move |(t, w)| (source, t, w))
            })
            .collect()
    }

    /// Out-degree (into this tile) of the source at position `si`.
    fn out_degree(&self, si: usize) -> u64 {
        self.offsets[si + 1] - self.offsets[si]
    }

    /// The push loop over one tile: every vertex of `active` (ascending) that
    /// is a source here scatters its out-edges, contributions fold per target
    /// with the program's `combine`, and touched targets are applied in
    /// ascending order — the order the pull loop walks them, so updates (and
    /// therefore wire bytes) line up. `None` when no active vertex is a
    /// source of the tile: the pull path's skip, read off the search itself.
    fn scatter_tile(
        &self,
        program: &dyn GabProgram,
        active: &[VertexId],
        ctx: &VertexContext<'_>,
    ) -> Option<TileUpdates> {
        let num_targets = self.num_targets();
        let target_start = self.target_start;
        // Per-tile accumulator slots, indexed by target offset, allocated at
        // the first frontier vertex that is a source here — most tiles of a
        // sparse push superstep have none. (The zero-allocation gate covers
        // the broadcast codec path, not tile compute.)
        let mut acc: Vec<f64> = Vec::new();
        let mut touched: Vec<bool> = Vec::new();
        let mut edges_processed = 0u64;

        // Both the frontier (sorted by the barrier merge) and the index's
        // sources are ascending: walk the frontier, galloping through the
        // sources to each vertex — a push frontier is far shorter than a
        // tile's source list.
        let mut si = 0usize;
        for &source in active {
            si = gallop_to(&self.sources, si, source);
            match self.sources.get(si) {
                None => break,
                Some(&found) if found != source => continue,
                Some(_) => {}
            }
            if acc.is_empty() {
                acc.resize(num_targets, 0.0);
                touched.resize(num_targets, false);
            }
            edges_processed += self.out_degree(si);
            let value = ctx.values[source as usize];
            let mut edges = self.out_edges(si);
            program.scatter(source, value, &mut edges, &mut |target, contribution| {
                let slot = (target - target_start) as usize;
                if touched[slot] {
                    acc[slot] = program.combine(acc[slot], contribution);
                } else {
                    acc[slot] = contribution;
                    touched[slot] = true;
                }
            });
            si += 1;
        }
        // Every indexed source has an edge, so no edge means no source.
        if edges_processed == 0 {
            return None;
        }

        let mut updates: Vec<(VertexId, f64)> = Vec::new();
        for slot in 0..num_targets {
            if !touched[slot] {
                continue;
            }
            let target = target_start + slot as VertexId;
            let current = ctx.values[target as usize];
            let new = program.apply(target, acc[slot], current, ctx);
            if program.is_update(current, new) {
                updates.push((target, new));
            }
        }
        Some(TileUpdates {
            updates,
            edges_processed,
        })
    }

    /// Resident footprint, for the memory tracker.
    fn memory_bytes(&self) -> u64 {
        self.sources.len() as u64 * 4
            + self.offsets.len() as u64 * 8
            + self.targets.len() as u64 * 4
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
    }
}

/// One simulated server's long-lived state.
pub struct ServerState {
    /// Server id.
    pub id: ServerId,
    /// Tiles assigned to this server, in processing order.
    pub tiles: Vec<TileId>,
    /// Serialized tiles as stored on the server's local disk — a real
    /// [`StorageBackend`] behind an [`IoMeter`], so every byte the engine
    /// actually moves (staging writes, one read per cache miss) is metered;
    /// see [`ServerState::io_snapshot`].
    disk: MeteredBackend<MemoryBackend>,
    /// Storage key of each assigned tile, parallel to `tiles`, precomputed so
    /// the cache-miss path does no string formatting.
    tile_keys: Vec<String>,
    /// Local replica of every vertex value (All-in-All policy).
    pub values: Vec<f64>,
    /// Edge cache over idle memory.
    cache: EdgeCache,
    /// Per-tile source sets, parallel to `tiles`: what the skip probes.
    source_sets: Vec<SourceSet>,
    /// Per-tile out-edge transposes for the push loop, parallel to `tiles`.
    /// Empty unless the plan is push-capable.
    push_indexes: Vec<PushIndex>,
    /// Memory accounting.
    memory: MemoryTracker,
    /// This server's persistent compute-thread pool (the paper's `T` worker
    /// threads): created once here, reused by every tile phase of every
    /// superstep — no thread is spawned inside the superstep loop.
    pool: graphh_pool::WorkerPool,
}

/// Output of one server's compute phase for one superstep.
pub struct TilePhaseOutput {
    /// Metered work, cache stats and peak memory folded in.
    pub metrics: ServerMetrics,
    /// One message per processed tile that produced updates, in tile order.
    pub messages: Vec<BroadcastMessage>,
}

/// What one tile-phase worker produces for one tile. Outcomes are reduced in
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
    /// Decoded in-memory size, for transient-memory accounting (0 if skipped).
    tile_memory_bytes: u64,
}

impl ServerState {
    /// Build server `sid`'s state: stage its tiles on its local disk, build
    /// their source sets, size the edge cache from the idle memory, register the
    /// permanent arrays with the memory tracker.
    pub fn build(
        config: &GraphHConfig,
        plan: &ExecutionPlan,
        partitioned: &PartitionedGraph,
        sid: ServerId,
    ) -> Self {
        let num_vertices = plan.num_vertices;
        let machine = config.cluster.machine;
        let tiles = plan.assignment.tiles_of(sid);
        let disk = MeteredBackend::new(MemoryBackend::new(), IoMeter::shared());
        let mut tile_keys = Vec::with_capacity(tiles.len());
        let mut source_sets = Vec::with_capacity(tiles.len());
        let mut total_tile_bytes = 0u64;
        for &tid in &tiles {
            let tile = &partitioned.tiles[tid as usize];
            total_tile_bytes += tile.serialized_size();
            source_sets.push(SourceSet::build(tile.sources(), num_vertices));
            tile_keys.push(
                partitioned
                    .persist_tile(&disk, tid)
                    .expect("staging a tile on the in-memory local disk cannot fail"),
            );
        }
        // Idle memory = machine memory minus the permanent vertex arrays.
        let permanent = 8 * num_vertices * 2 + 4 * num_vertices * 2;
        let idle = machine.memory_bytes.saturating_sub(permanent);
        let capacity = config.cache_capacity.unwrap_or(idle);
        let cache = EdgeCache::new(
            EdgeCacheConfig {
                capacity_bytes: capacity,
                mode: config.cache_mode,
            },
            total_tile_bytes,
        );
        let mut memory = MemoryTracker::new(machine.memory_bytes);
        // Vertex-state + message memory is permanent; register it once.
        memory.set_component("vertex-values", 8 * num_vertices);
        memory.set_component("message-buffer", 8 * num_vertices);
        memory.set_component("degree-arrays", 4 * num_vertices * 2);
        let source_set_bytes: u64 = source_sets.iter().map(SourceSet::memory_bytes).sum();
        memory.set_component("source-sets", source_set_bytes);
        // Push-capable runs keep a resident out-edge transpose per assigned
        // tile (the push loop never touches disk or cache); pull-only runs
        // pay nothing.
        let push_indexes: Vec<PushIndex> = if plan.push_capable {
            let mut scratch = TransposeScratch::new(num_vertices);
            tiles
                .iter()
                .map(|&tid| PushIndex::build(&partitioned.tiles[tid as usize], &mut scratch))
                .collect()
        } else {
            Vec::new()
        };
        if !push_indexes.is_empty() {
            let push_bytes: u64 = push_indexes.iter().map(PushIndex::memory_bytes).sum();
            memory.set_component("push-index", push_bytes);
        }
        ServerState {
            id: sid,
            tiles,
            disk,
            tile_keys,
            values: plan.initial_values.to_vec(),
            cache,
            source_sets,
            push_indexes,
            memory,
            pool: graphh_pool::WorkerPool::new(plan.threads_per_server as usize),
        }
    }

    /// The codec the edge cache selected.
    pub fn cache_codec(&self) -> Codec {
        self.cache.codec()
    }

    /// Peak accounted memory so far.
    pub fn peak_memory(&self) -> u64 {
        self.memory.peak()
    }

    /// Current edge-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Real bytes/ops moved through this server's local-disk backend so far.
    ///
    /// This is *actual-storage* accounting, kept apart from the simulated
    /// [`ServerMetrics`] disk counters, and the two agree: a cache miss is
    /// exactly one metered `get` (admission works from the decoded tile), so
    /// `read_ops` equals the cache's `misses`.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.disk.meter().snapshot()
    }

    /// Route this server's pool-job spans into `tracer`, with the pool's
    /// worker threads on lanes `tid_base + worker_index`.
    pub fn set_tracer(&self, tracer: Tracer, tid_base: u32) {
        self.pool.set_tracer(tracer, tid_base);
    }

    /// This server's persistent compute-thread pool. Exposed so the runtime's
    /// worker loop can fan phases other than tile compute (the encode-compress
    /// publish phase) over the same resident threads instead of spawning its
    /// own.
    pub fn pool(&self) -> &graphh_pool::WorkerPool {
        &self.pool
    }

    /// Fold this server's storage-meter totals and edge-cache statistics into
    /// the global counter registry (under `storage.s{id}.*` / `cache.s{id}.*`).
    ///
    /// Call once at the end of a run: counts *add* (they are monotone totals
    /// across every run in the process), gauges overwrite.
    pub fn publish_observability(&self) {
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
    /// the executor resolved for this superstep (`frontier.direction`):
    ///
    /// * **pull** — walk the assigned tiles (skipping those no frontier
    ///   vertex is a source of), gather/apply every target against the local
    ///   replica,
    /// * **push** — sweep the sorted frontier against each tile's resident
    ///   out-edge transpose (`PushIndex`), scatter/combine/apply, touching
    ///   neither the edge cache nor the local disk.
    ///
    /// Both paths emit updates in ascending target order per tile and
    /// messages in tile order, so for programs honouring the combine-order
    /// contract the broadcast bytes are identical in either direction
    /// (`docs/ALGORITHMS.md` has the proof sketch; the forced-push vs
    /// forced-pull suites in `tests/determinism.rs` pin it).
    ///
    /// Tiles are processed by this server's **persistent**
    /// [`graphh_pool::WorkerPool`] (the paper's `T` intra-server compute
    /// threads), built once in [`ServerState::build`] and reused every
    /// superstep — short supersteps pay a condvar wake, not a thread spawn.
    /// Determinism for any thread count is by construction:
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
        let threads = plan.threads_per_server as usize;
        let outcomes: Vec<Result<TileOutcome>> = match frontier.direction {
            Direction::Push => self.push_outcomes(program, plan, superstep, frontier),
            Direction::Pull => self.pull_outcomes(program, plan, superstep, frontier, use_bloom),
        };

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
        // thread this is exactly the sequential per-tile maximum).
        transient.sort_unstable_by(|a, b| b.cmp(a));
        let concurrent_tile_bytes: u64 = transient.iter().take(threads.max(1)).sum();
        self.memory.with_transient(concurrent_tile_bytes, |_| ());

        self.memory
            .set_component("edge-cache", self.cache.stats().used_bytes);
        metrics.peak_memory_bytes = self.memory.peak();

        Ok(TilePhaseOutput { metrics, messages })
    }

    /// The pull path: source-set probe, cache lookup / disk fetch, then the
    /// program's [`GabProgram::gather_tile`] over the tile's CSR slices —
    /// the one virtual call of a tile.
    fn pull_outcomes(
        &self,
        program: &dyn GabProgram,
        plan: &ExecutionPlan,
        superstep: u32,
        frontier: &FrontierView<'_>,
        use_bloom: bool,
    ) -> Vec<Result<TileOutcome>> {
        let run_everything = plan.runs_everything(superstep);
        // Skip the O(frontier)-per-tile probe outright when the frontier is
        // dense: nothing would be skipped, and the probe itself becomes the
        // hot loop. The rule reads the shared frontier stats, so it is
        // identical across executors and thread counts.
        let probe_sources = use_bloom && !run_everything && !frontier.is_dense();
        let previously_updated = frontier.vertices;

        let vertex_ctx = VertexContext {
            values: &self.values,
            out_degrees: &plan.out_degrees,
            in_degrees: &plan.in_degrees,
            num_vertices: plan.num_vertices,
            superstep,
        };
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
            } = program.gather_tile(&tile, run_everything, &vertex_ctx);
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

    /// The push path: sweep the sorted frontier against each tile's resident
    /// [`PushIndex`], scatter each frontier source's out-edges, fold
    /// contributions per target with the program's order-insensitive
    /// `combine`, then apply in ascending target order.
    ///
    /// Determinism for any thread count mirrors the pull path: tiles are
    /// data-independent (they read the *previous* superstep's replica), each
    /// produces its own metrics/updates, and outcomes reduce in tile order.
    /// Within a tile the accumulation order is fixed — frontier sources
    /// ascending, each source's targets ascending — and `combine` must be
    /// order-insensitive anyway, so the per-target accumulator is
    /// schedule-independent too. The path touches neither the edge cache nor
    /// the disk: the transpose is resident, so a push superstep moves zero
    /// storage bytes and leaves the edge cache untouched.
    fn push_outcomes(
        &self,
        program: &dyn GabProgram,
        plan: &ExecutionPlan,
        superstep: u32,
        frontier: &FrontierView<'_>,
    ) -> Vec<Result<TileOutcome>> {
        debug_assert_eq!(
            self.push_indexes.len(),
            self.tiles.len(),
            "push direction resolved without push indexes (plan not push-capable?)"
        );
        let vertex_ctx = VertexContext {
            values: &self.values,
            out_degrees: &plan.out_degrees,
            in_degrees: &plan.in_degrees,
            num_vertices: plan.num_vertices,
            superstep,
        };
        let indexes = &self.push_indexes;
        let active = frontier.vertices;

        self.pool.fork_join_ordered(indexes.len(), |i| {
            let index = &indexes[i];
            let mut metrics = ServerMetrics::default();
            let Some(TileUpdates {
                updates: tile_updates,
                edges_processed,
            }) = index.scatter_tile(program, active, &vertex_ctx)
            else {
                metrics.tiles_skipped += 1;
                return Ok(TileOutcome {
                    metrics,
                    message: None,
                    admit: None,
                    tile_memory_bytes: 0,
                });
            };
            metrics.edges_processed += edges_processed;
            metrics.tiles_processed += 1;
            metrics.messages_produced += tile_updates.len() as u64;

            let message = (!tile_updates.is_empty())
                .then(|| BroadcastMessage::new(index.target_start, index.target_end, tile_updates));
            Ok(TileOutcome {
                metrics,
                message,
                admit: None,
                // Accumulator scratch: 8 bytes + 1 flag per target slot.
                tile_memory_bytes: index.num_targets() as u64 * 9,
            })
        })
    }

    /// The barrier's apply half: fold `updates` (pre-sorted by vertex id) into
    /// this server's replica.
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

/// Deterministically merge per-tile update lists into the barrier's apply
/// order: sorted by vertex id. Tiles partition the target-vertex space, so
/// each vertex appears at most once; the dedup is a safety net that keeps the
/// first occurrence if an engine ever violates that. In place, so the
/// superstep loop can clear-and-reuse one update vector across supersteps.
pub fn merge_updates_in_place(all_updates: &mut Vec<(VertexId, f64)>) {
    all_updates.sort_unstable_by_key(|&(v, _)| v);
    all_updates.dedup_by_key(|&mut (v, _)| v);
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

    /// The transpose is the tile's edges stably sorted by `(source, target)`:
    /// unsorted adjacency lists, duplicate edges with different weights, a
    /// target with no in-edges and a source far from the rest all included.
    #[test]
    fn push_index_is_the_stable_transpose_of_the_tile() {
        let lists = vec![
            vec![(9, 1.0), (2, 2.0), (9, 3.0)],
            vec![],
            vec![(2, 4.0), (700, 5.0), (2, 6.0), (3, 7.0)],
            vec![(9, 8.0)],
        ];
        let mut scratch = TransposeScratch::new(701);
        for weighted in [true, false] {
            let tile = Tile::from_adjacency(0, 40, &lists, weighted);
            let mut expected: Vec<(VertexId, VertexId, f32)> = tile
                .targets()
                .flat_map(|t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
                .collect();
            expected.sort_by_key(|&(source, target, _)| (source, target));
            let index = PushIndex::build(&tile, &mut scratch);
            assert_eq!(index.sources, [2, 3, 9, 700]);
            assert_eq!(index.edges(), expected, "weighted {weighted}");
            assert_eq!(index.out_degree(0), 3);
        }
        let empty = Tile::from_adjacency(0, 5, &[vec![], vec![]], false);
        let empty = PushIndex::build(&empty, &mut scratch);
        assert!(empty.sources.is_empty() && empty.targets.is_empty());
        assert_eq!(empty.offsets, [0]);
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

        struct StartsFrom(Vec<VertexId>);
        impl GabProgram for StartsFrom {
            fn name(&self) -> &'static str {
                "starts-from"
            }
            fn initial_value(&self, _v: VertexId, _ctx: &InitContext<'_>) -> f64 {
                0.0
            }
            fn gather(&self, _t: VertexId, _e: &mut Edges<'_>, _ctx: &VertexContext<'_>) -> f64 {
                0.0
            }
            fn apply(&self, _t: VertexId, _a: f64, current: f64, _ctx: &VertexContext<'_>) -> f64 {
                current
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

        // `supports_push` is all a program says: SSSP gets the same decisions
        // as BFS, a pull-only program pulls whatever the frontier.
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

    #[test]
    fn server_state_stages_assigned_tiles() {
        let g = RmatGenerator::new(7, 4).generate(3);
        let p = Spe::partition(&g, &SpeConfig::with_tile_count("t", &g, 6)).unwrap();
        let cfg = GraphHConfig::paper_default(ClusterConfig::paper_testbed(3));
        let plan = ExecutionPlan::prepare(&cfg, &p, &PageRank::new(1)).unwrap();
        let total_tiles: usize = (0..3)
            .map(|sid| ServerState::build(&cfg, &plan, &p, sid).tiles.len())
            .sum();
        assert_eq!(total_tiles as u32, p.num_tiles());
        let s0 = ServerState::build(&cfg, &plan, &p, 0);
        assert_eq!(s0.values.len() as u64, plan.num_vertices);
        assert!(s0.peak_memory() > 0);
    }
}
