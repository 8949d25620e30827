//! The GAB (Gather–Apply–Broadcast) programming abstraction (paper §III-C.2).
//!
//! A GAB program updates a vertex with two user functions:
//!
//! * `gather` — walk the vertex's in-edges, reading the *source* vertices' current
//!   values from the local replica array, and fold them into an accumulator,
//! * `apply` — combine the accumulator with the vertex's current value to produce the
//!   new value.
//!
//! Broadcasting the new value to the other replicas is the engine's job, which is why
//! (unlike GAS) the user only writes two functions. Values are `f64`; that covers
//! every algorithm in the paper (ranks, distances, component labels) and keeps the
//! wire encoding uniform.
//!
//! Programs implement the per-vertex hooks; the tile loops are the engine's. A
//! vertex's edges arrive as [`Edges`] — a slice of the tile's CSR, iterated with
//! static dispatch — and the pull loop over a whole tile is the trait's one provided
//! method, [`GabProgram::gather_tile`]: compiled once per program, so the hooks it
//! calls inline, and reached through `&dyn GabProgram` once per tile.
//!
//! Two optional hooks tell that loop what it may leave out, without changing
//! a value: [`GabProgram::initial_frontier`] (a traversal starts from its
//! source, not from every vertex) and [`GabProgram::is_final`] (a pull
//! superstep skips targets whose value is settled — the bottom-up step of
//! direction-optimizing BFS).
//!
//! One more lets a program do per-vertex work once instead of once per edge:
//! [`GabProgram::prepare`] fills a per-server buffer from the replica before
//! each pull superstep's tiles, and `gather` reads it as
//! [`VertexContext::prepared`] (PageRank divides each rank by its out-degree
//! there, and its gather only sums). It is a pure function of the replica, so
//! it cannot change a value either.
//!
//! ## Direction-aware programs
//!
//! Beyond the paper, a program may also provide a **push side**
//! ([`GabProgram::scatter`] over out-edges with an order-insensitive
//! [`GabProgram::combine`]). [`GabProgram::supports_push`] then means "either
//! direction, the engine's call": every superstep the engine reads the
//! globally-replicated [`FrontierStats`] and runs the pull (gather) or the
//! push (scatter) tile loop ([`FrontierStats::beamer`]). Both loops produce
//! bit-identical broadcasts for programs honouring the combine-order
//! contract, so the choice can change no value; `docs/ALGORITHMS.md` spells
//! out the exact rules.

use graphh_graph::ids::VertexId;
use graphh_partition::Tile;

/// One vertex's edges: the neighbour ids (in-edge sources for `gather`,
/// out-edge targets for `scatter`) with their weights, as slices of the CSR
/// they live in. Iterates as `(neighbour, weight)` in CSR order — every edge
/// of an unweighted graph weighs 1 — so a hook's `for (src, w) in edges` is a
/// loop over two slices, not a virtual call per edge.
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    neighbours: &'a [VertexId],
    weights: Option<&'a [f32]>,
}

impl<'a> Edges<'a> {
    /// The edges to or from `neighbours`; `weights`, when present, pairs up
    /// with them.
    ///
    /// # Panics
    /// Panics if `weights` is present and of another length.
    pub fn new(neighbours: &'a [VertexId], weights: Option<&'a [f32]>) -> Self {
        if let Some(weights) = weights {
            assert_eq!(weights.len(), neighbours.len(), "one weight per neighbour");
        }
        Self {
            neighbours,
            weights,
        }
    }
}

impl Iterator for Edges<'_> {
    type Item = (VertexId, f32);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, f32)> {
        let (&neighbour, rest) = self.neighbours.split_first()?;
        self.neighbours = rest;
        let weight = match &mut self.weights {
            None => 1.0,
            Some(weights) => {
                let (&weight, rest) = weights.split_first()?;
                *weights = rest;
                weight
            }
        };
        Some((neighbour, weight))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.neighbours.len(), Some(self.neighbours.len()))
    }
}

impl ExactSizeIterator for Edges<'_> {}

/// What [`GabProgram::gather_tile`] produces for one tile.
#[derive(Debug)]
pub struct TileUpdates {
    /// `(target, new value)` for every target whose value changed, ascending.
    pub updates: Vec<(VertexId, f64)>,
    /// In-edges folded (the in-degrees of the targets that ran; a target
    /// whose value [`GabProgram::is_final`] does not run).
    pub edges_processed: u64,
}

/// Which tile loop a superstep runs: the engine's per-superstep decision
/// (see [`crate::exec::ExecutionPlan::frontier_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Gather over in-edges: every active target folds its in-neighbours.
    Pull,
    /// Scatter over out-edges: every frontier source emits contributions.
    Push,
}

impl Direction {
    /// Stable lower-case label ("pull" / "push") for counters, span args
    /// and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Pull => "pull",
            Direction::Push => "push",
        }
    }
}

/// The run-level override of the engine's direction choice (config field /
/// `--direction` CLI flag). The choice changes no value, so this is not a
/// tuning knob: the determinism suites prove push ≡ pull through the two
/// forced modes, and [`DirectionMode::ForcePull`] is the escape for a server
/// that cannot hold the resident out-edge transposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionMode {
    /// The engine picks per superstep from the replicated frontier stats
    /// (always pull for a program without a push side).
    #[default]
    Auto,
    /// Run every superstep on the pull path; no transpose is built.
    ForcePull,
    /// Run every superstep on the push path (rejected at plan time for
    /// programs without a push side).
    ForcePush,
}

impl DirectionMode {
    /// Stable lower-case label ("auto" / "pull" / "push").
    pub fn as_str(self) -> &'static str {
        match self {
            DirectionMode::Auto => "auto",
            DirectionMode::ForcePull => "pull",
            DirectionMode::ForcePush => "push",
        }
    }
}

impl std::str::FromStr for DirectionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(DirectionMode::Auto),
            "pull" => Ok(DirectionMode::ForcePull),
            "push" => Ok(DirectionMode::ForcePush),
            other => Err(format!(
                "unknown direction mode {other:?} (expected auto, pull or push)"
            )),
        }
    }
}

/// Globally-replicated frontier bookkeeping for one superstep.
///
/// Every executor computes this from the *same* merged update set (the
/// frontier is replicated on every server, like the vertex values), so the
/// stats — and every decision derived from them (the dense-frontier rule of
/// tile skipping, direction choice) — are identical on every server of an
/// in-process run and in every `graphh-node` process at the same superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierStats {
    /// Vertices updated in the previous superstep.
    pub frontier_size: u64,
    /// Sum of out-degrees over the frontier (edges a push superstep scans).
    pub frontier_out_edges: u64,
    /// Vertices in the graph.
    pub num_vertices: u64,
    /// Edges in the graph (edges a pull superstep scans at worst).
    pub total_out_edges: u64,
}

impl FrontierStats {
    /// The Beamer-style direction heuristic (direction-optimizing BFS):
    /// push while the frontier is sparse, pull once it covers enough of the
    /// graph that scanning everything is cheaper than chasing out-edges.
    ///
    /// Pure integer arithmetic over replicated stats — bit-identical on
    /// every executor. Chooses [`Direction::Push`] iff the frontier's
    /// out-edges are under `1/alpha` of all edges **and** the frontier holds
    /// under `1/beta` of all vertices; [`Direction::Pull`] otherwise.
    pub fn beamer(&self, alpha: u64, beta: u64) -> Direction {
        let sparse_edges = self.frontier_out_edges.saturating_mul(alpha) < self.total_out_edges;
        let sparse_vertices = self.frontier_size.saturating_mul(beta) < self.num_vertices;
        if sparse_edges && sparse_vertices {
            Direction::Push
        } else {
            Direction::Pull
        }
    }
}

/// Context available while computing initial values.
#[derive(Debug, Clone, Copy)]
pub struct InitContext<'a> {
    /// Number of vertices in the graph.
    pub num_vertices: u64,
    /// Out-degree of every vertex (the array PageRank asks the engine to load).
    pub out_degrees: &'a [u32],
    /// In-degree of every vertex.
    pub in_degrees: &'a [u32],
}

/// Context available to `gather` and `apply`.
#[derive(Debug, Clone, Copy)]
pub struct VertexContext<'a> {
    /// Current values of *all* vertices (the local replica array).
    pub values: &'a [f64],
    /// Out-degree of every vertex.
    pub out_degrees: &'a [u32],
    /// In-degree of every vertex.
    pub in_degrees: &'a [u32],
    /// Number of vertices in the graph.
    pub num_vertices: u64,
    /// Current superstep (0-based).
    pub superstep: u32,
    /// What [`GabProgram::prepare`] filled from `values` for this superstep,
    /// one slot per vertex. Empty for a program that prepares nothing, and in
    /// a push superstep, which runs no gather.
    pub prepared: &'a [f64],
}

/// A vertex-centric program in the GAB model.
pub trait GabProgram: Send + Sync {
    /// Human-readable program name (used in logs and experiment output).
    fn name(&self) -> &'static str;

    /// Initial value of vertex `v`.
    fn initial_value(&self, v: VertexId, ctx: &InitContext<'_>) -> f64;

    /// Fold the in-edges of `target` into an accumulator. `in_edges` yields
    /// `(source vertex, edge weight)` pairs; source values are read from
    /// `ctx.values`.
    fn gather(&self, target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64;

    /// Produce the new value of `target` from the accumulator and its current value.
    fn apply(&self, target: VertexId, accum: f64, current: f64, ctx: &VertexContext<'_>) -> f64;

    /// Whether `new` counts as an update relative to `old` — only updates are
    /// broadcast and keep the program running. The default treats any change
    /// as one.
    fn is_update(&self, old: f64, new: f64) -> bool {
        (new - old).abs() > 0.0
    }

    /// Hard cap on supersteps (the program also stops as soon as no vertex updates).
    fn max_supersteps(&self) -> u32 {
        u32::MAX
    }

    /// The vertices whose value changed at initialisation — the frontier
    /// superstep 0 starts from.
    ///
    /// `None` (the default) means *every* vertex did: superstep 0 runs every
    /// target of every tile, in-edges or not (PageRank-style programs, WCC,
    /// label propagation). `Some(ids)` means only these did, and superstep 0
    /// is an ordinary superstep over that frontier — tiles none of them
    /// feeds are skipped, and the engine may push from them (a traversal
    /// returns its source). The ids must be ascending, distinct and below
    /// `num_vertices`; the plan rejects anything else.
    ///
    /// **Contract:** a vertex none of whose in-neighbours is listed would
    /// not be updated by superstep 0 (`+∞` everywhere but the source, under a
    /// min-fold, qualifies) — so running only what the list feeds changes no
    /// value.
    fn initial_frontier(&self, num_vertices: u64) -> Option<Vec<VertexId>> {
        let _ = num_vertices;
        None
    }

    /// Whether a vertex holding `value` is settled for the rest of the run.
    ///
    /// **Contract:** once true of a vertex's value, no later superstep
    /// updates that vertex. The pull loop then skips the vertex without
    /// touching its in-edges (the bottom-up step of direction-optimizing
    /// BFS). Synchronous BFS qualifies — the first finite level a vertex
    /// receives is its hop distance; SSSP distances and WCC labels keep
    /// falling and do **not**. The default claims nothing, and for programs
    /// that keep it the test compiles out of [`Self::gather_tile`].
    fn is_final(&self, value: f64) -> bool {
        let _ = value;
        false
    }

    /// Refill `prepared` — handed to `gather` and `apply` as
    /// [`VertexContext::prepared`] — from the replica `values`, one slot per
    /// vertex. The engine calls it once per server before every pull
    /// superstep's tiles, so work a gather would repeat on every out-edge of a
    /// source is done once per vertex. `prepared` is the same buffer every
    /// superstep: whatever the last call left in it, empty before the first.
    ///
    /// **Contract:** `prepared` is a pure function of `values` and
    /// `out_degrees`; every server computes the same array from the same
    /// replica, so preparing cannot change a value. The default leaves the
    /// buffer empty, so a program that keeps it allocates nothing.
    ///
    /// A program that wraps another and forwards its `gather` must forward
    /// `prepare` too: the default compiles, but leaves the wrapped gather an
    /// empty [`VertexContext::prepared`] to read.
    fn prepare(&self, values: &[f64], out_degrees: &[u32], prepared: &mut Vec<f64>) {
        let _ = (values, out_degrees, prepared);
    }

    /// Whether the program implements the push side ([`Self::scatter`] /
    /// [`Self::combine`]) — the opt-in to "either direction, the engine's
    /// call", whose price is the combine contract below. Defaults to
    /// `false`: the engine never builds push indexes or runs the push loop
    /// for a pull-only program.
    fn supports_push(&self) -> bool {
        false
    }

    /// Push-side emit: `source` (a frontier vertex whose value changed last
    /// superstep) walks its out-edges and `emit(target, contribution)`s a
    /// candidate accumulator value per out-neighbour. Contributions to the
    /// same target are folded with [`Self::combine`], then handed to
    /// [`Self::apply`] exactly like a gathered accumulator.
    ///
    /// **Contract:** for push/pull bit-identity, `scatter` must emit for
    /// target `t` exactly what `gather(t, ..)` would compute from the edge
    /// `source -> t` alone, and `combine` must be order-insensitive and
    /// exact (e.g. `f64::min` — monotone min-style programs qualify, sums
    /// generally do not). See `docs/ALGORITHMS.md`.
    ///
    /// The default panics: the engine only calls it when
    /// [`Self::supports_push`] is `true` (force-push on a pull-only program
    /// is rejected at plan time with a clear error instead).
    fn scatter(
        &self,
        source: VertexId,
        value: f64,
        out_edges: &mut Edges<'_>,
        emit: &mut dyn FnMut(VertexId, f64),
    ) {
        let _ = (value, out_edges, emit);
        unreachable!(
            "program {:?} advertises no push side (supports_push() is false) \
             but scatter() was called for source {source}",
            self.name()
        );
    }

    /// Fold two emitted contributions for the same target. Must be
    /// order-insensitive and exact; the default is `f64::min` (the right
    /// fold for every monotone min-style program: BFS, SSSP, WCC).
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    /// The engine's pull loop over one tile — **not a hook; do not
    /// override.** For every target in ascending order: skip it if it has no
    /// in-edge in this tile (unless `run_everything`) or its value
    /// [`Self::is_final`], [`Self::gather`] its slice of the tile's CSR,
    /// [`Self::apply`], and keep the new value if [`Self::is_update`] says so.
    ///
    /// It lives on the trait because a provided method is compiled per
    /// implementor: the three hooks are static calls here and inline into
    /// the loop, and the engine pays one virtual call per tile instead of
    /// three per target and one per edge — without a type parameter on
    /// anything that holds a `&dyn GabProgram`.
    fn gather_tile(
        &self,
        tile: &Tile,
        run_everything: bool,
        ctx: &VertexContext<'_>,
    ) -> TileUpdates {
        let (sources, weights) = (tile.sources(), tile.weights());
        let mut updates = Vec::with_capacity(tile.num_targets() as usize);
        let mut edges_processed = 0u64;
        for (target, span) in tile.targets().zip(tile.offsets().windows(2)) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            if lo == hi && !run_everything {
                continue;
            }
            let current = ctx.values[target as usize];
            if self.is_final(current) {
                continue;
            }
            let mut in_edges = Edges::new(&sources[lo..hi], weights.map(|w| &w[lo..hi]));
            let accum = self.gather(target, &mut in_edges, ctx);
            let new = self.apply(target, accum, current, ctx);
            edges_processed += (hi - lo) as u64;
            if self.is_update(current, new) {
                updates.push((target, new));
            }
        }
        // The updates travel on in a `BroadcastMessage`; a frontier program
        // that changed three vertices should not carry room for the tile.
        updates.shrink_to_fit();
        TileUpdates {
            updates,
            edges_processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial program: every vertex becomes the count of its in-edges.
    struct CountInEdges;

    impl GabProgram for CountInEdges {
        fn name(&self) -> &'static str {
            "count-in-edges"
        }
        fn initial_value(&self, _v: VertexId, _ctx: &InitContext<'_>) -> f64 {
            0.0
        }
        fn gather(
            &self,
            _target: VertexId,
            in_edges: &mut Edges<'_>,
            _ctx: &VertexContext<'_>,
        ) -> f64 {
            in_edges.count() as f64
        }
        fn apply(&self, _t: VertexId, accum: f64, _current: f64, _ctx: &VertexContext<'_>) -> f64 {
            accum
        }
        fn max_supersteps(&self) -> u32 {
            1
        }
    }

    #[test]
    fn default_update_semantics() {
        let p = CountInEdges;
        assert!(p.is_update(0.0, 1.0));
        assert!(!p.is_update(1.0, 1.0));
        assert_eq!(p.initial_frontier(4), None);
        assert!(!p.is_final(0.0) && !p.is_final(f64::INFINITY));
        assert_eq!(p.max_supersteps(), 1);
        let mut prepared = Vec::new();
        p.prepare(&[1.0, 2.0], &[1, 1], &mut prepared);
        assert!(prepared.is_empty(), "the default prepares nothing");
    }

    #[test]
    fn default_push_hooks_keep_programs_pull_only() {
        let p = CountInEdges;
        assert!(!p.supports_push());
        assert_eq!(p.combine(3.0, 2.0), 2.0);
    }

    #[test]
    fn beamer_heuristic_switches_on_frontier_sparsity() {
        let sparse = FrontierStats {
            frontier_size: 3,
            frontier_out_edges: 40,
            num_vertices: 1024,
            total_out_edges: 6144,
        };
        assert_eq!(sparse.beamer(14, 24), Direction::Push);
        let dense = FrontierStats {
            frontier_size: 900,
            frontier_out_edges: 5500,
            num_vertices: 1024,
            total_out_edges: 6144,
        };
        assert_eq!(dense.beamer(14, 24), Direction::Pull);
        // Edge sparsity alone is not enough: a wide, low-degree frontier pulls.
        let wide = FrontierStats {
            frontier_size: 600,
            frontier_out_edges: 100,
            num_vertices: 1024,
            total_out_edges: 6144,
        };
        assert_eq!(wide.beamer(14, 24), Direction::Pull);
    }

    #[test]
    fn direction_mode_parses_and_round_trips() {
        for (text, mode) in [
            ("auto", DirectionMode::Auto),
            ("pull", DirectionMode::ForcePull),
            ("push", DirectionMode::ForcePush),
        ] {
            assert_eq!(text.parse::<DirectionMode>().unwrap(), mode);
            assert_eq!(mode.as_str(), text);
        }
        assert!("sideways".parse::<DirectionMode>().is_err());
        assert_eq!(DirectionMode::default(), DirectionMode::Auto);
        assert_eq!(Direction::Push.as_str(), "push");
        assert_eq!(Direction::Pull.as_str(), "pull");
    }

    #[test]
    fn gather_sees_edge_iterator() {
        let p = CountInEdges;
        let values = vec![0.0; 4];
        let out_degrees = vec![0u32; 4];
        let in_degrees = vec![0u32; 4];
        let ctx = VertexContext {
            values: &values,
            out_degrees: &out_degrees,
            in_degrees: &in_degrees,
            num_vertices: 4,
            superstep: 0,
            prepared: &[],
        };
        let mut edges = Edges::new(&[0, 2], None);
        assert_eq!(p.gather(1, &mut edges, &ctx), 2.0);
    }

    #[test]
    fn edges_pair_neighbours_with_weights_and_know_their_length() {
        let mut unweighted = Edges::new(&[4, 9, 4], None);
        assert_eq!(unweighted.len(), 3);
        assert_eq!(unweighted.next(), Some((4, 1.0)));
        assert_eq!(unweighted.size_hint(), (2, Some(2)));
        assert_eq!(unweighted.collect::<Vec<_>>(), [(9, 1.0), (4, 1.0)]);
        let weighted = Edges::new(&[4, 9], Some(&[0.5, 2.5]));
        assert_eq!(weighted.collect::<Vec<_>>(), [(4, 0.5), (9, 2.5)]);
        assert_eq!(Edges::new(&[], Some(&[])).next(), None);
    }

    #[test]
    #[should_panic(expected = "one weight per neighbour")]
    fn edges_reject_weights_that_do_not_pair_up() {
        let _ = Edges::new(&[1, 2], Some(&[1.0]));
    }
}
