//! The GAB (Gather–Apply–Broadcast) programming abstraction (paper §III-C.2).
//!
//! A GAB program updates a vertex with two user functions:
//!
//! * `gather` — fold the vertex's in-edges, reading the *source* vertices'
//!   current values from the local replica array, into an accumulator,
//! * `apply` — combine the accumulator with the vertex's current value to produce the
//!   new value.
//!
//! Broadcasting the new value to the other replicas is the engine's job, which is why
//! (unlike GAS) the user only writes two functions. Values are `f64`; that covers
//! every algorithm in the paper (ranks, distances, component labels) and keeps the
//! wire encoding uniform.
//!
//! A program says *what* a vertex folds and applies; the engine does the
//! rest. A program is a [`Declaration`]: its gather as a [`Fold`], its
//! `apply` as an [`Apply`], its update test as an [`Update`] and which values
//! are settled as a [`Final`] — data, no closure. A gather that is no fold
//! (label propagation's mode) overrides [`GabProgram::gather`] instead. The
//! tile loops are the engine's: a vertex's edges arrive as [`Edges`], a slice
//! of the tile's CSR, and the pull loop over a tile is the trait's one
//! provided method, [`GabProgram::gather_tile`]: compiled once per program,
//! so the declaration is a constant there, and reached through
//! `&dyn GabProgram` once per tile. Every loop applies through
//! [`Declaration::updated`].
//!
//! [`GabProgram::initial_frontier`] (a traversal starts from its source) and
//! [`Final::Finite`] (BFS's bottom-up step skips settled targets) tell the
//! pull loop what it may leave out, without changing a value.
//!
//! ## Direction
//!
//! Beyond the paper, the engine may run a superstep as a **push**: every
//! frontier vertex folds its out-edges' contributions into their targets.
//! That gives the pull's bits exactly when the fold is a [`Reduce::Min`],
//! which is exact and order-insensitive, so push is derived: a program can
//! push exactly when its fold is a min (`<dyn GabProgram>::supports_push`),
//! and both loops run the one fold. For such a program the engine picks the
//! loop every superstep from the replicated [`FrontierStats`]
//! ([`FrontierStats::beamer`]); the choice changes no value.
//! `docs/ALGORITHMS.md` spells out the exact rules.

use graphh_graph::ids::VertexId;
use graphh_partition::Tile;

/// One vertex's edges: the neighbour ids (in-edge sources for a gather,
/// out-edge targets for a push) with their weights, as slices of the CSR
/// they live in. Iterates as `(neighbour, weight)` in CSR order — every edge
/// of an unweighted graph weighs 1 — so a fold's loop over them is a loop
/// over two slices, not a virtual call per edge.
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

/// A gather declared as a fold: every in-edge contributes `edge.of(x, w)`,
/// `x` its source's value in the `from` array and `w` its weight, and a
/// target's contributions reduce by `reduce`. The engine runs it in both tile
/// loops, and pushes exactly the folds that are a min ([`Fold::pushes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    /// The array a source's value is read from.
    pub from: Operand,
    /// What one edge contributes.
    pub edge: Contribution,
    /// How a target's contributions reduce.
    pub reduce: Reduce,
}

/// Where a [`Fold`] reads source values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// [`VertexContext::values`], the replica.
    Values,
    /// `value / out_degree`, or 0 for a vertex with no out-edge: what
    /// [`Declaration::fill_operand`] makes of the replica every superstep.
    ValuePerOutEdge,
}

/// What an edge contributes from its source's value `x` and its weight `w`
/// (1 on an unweighted graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contribution {
    /// `x`.
    Value,
    /// `x + w`.
    ValuePlusWeight,
    /// `x + 1`.
    ValuePlusOne,
    /// `w`.
    Weight,
}

impl Contribution {
    /// The contribution of an edge of weight `w` from a source holding `x`.
    #[inline(always)]
    pub fn of(self, x: f64, w: f32) -> f64 {
        match self {
            Contribution::Value => x,
            Contribution::ValuePlusWeight => x + f64::from(w),
            Contribution::ValuePlusOne => x + 1.0,
            Contribution::Weight => f64::from(w),
        }
    }
}

/// How a [`Fold`] reduces a target's contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// `+0.0 + c₁ + c₂ + …` in CSR order, the float summation order: pull
    /// only, since a push would add the terms in another order.
    Sum,
    /// `f64::min` from `+∞`: exact and order-insensitive, so a push that
    /// folds each out-edge's contribution into its target gets the pull's
    /// bits.
    Min,
    /// A min the pull loop cuts short: the first finite contribution, `+∞`
    /// if none, the in-edges after it left unread. **Contract:** for every
    /// target the pull loop runs (not [`Final`]) it is the
    /// least — BFS's bottom-up step, where every visited in-neighbour of an
    /// unreached target is at the previous level. A push takes the min.
    FirstFinite,
}

impl Fold {
    /// Whether the engine may push this fold: exactly when it is a min.
    pub fn pushes(self) -> bool {
        matches!(self.reduce, Reduce::Min | Reduce::FirstFinite)
    }

    /// The array the fold reads source values from.
    #[inline(always)]
    pub fn operands<'a>(self, ctx: &VertexContext<'a>) -> &'a [f64] {
        match self.from {
            Operand::Values => ctx.values,
            Operand::ValuePerOutEdge => ctx.prepared,
        }
    }

    /// Fold one target's in-edges, as the pull loop does.
    #[inline(always)]
    pub fn gather(self, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let operands = self.operands(ctx);
        let mut contributions = in_edges.map(|(src, w)| self.edge.of(operands[src as usize], w));
        match self.reduce {
            Reduce::Sum => contributions.fold(0.0, |sum, c| sum + c),
            Reduce::Min => contributions.fold(f64::INFINITY, f64::min),
            Reduce::FirstFinite => contributions
                .find(|c| c.is_finite())
                .unwrap_or(f64::INFINITY),
        }
    }
}

/// The paper's `apply`: a target's new value from its accumulator `a` and
/// its current value `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Apply {
    /// `base + scale·a` (PageRank: `(1 − d)/|V| + d·a`).
    Affine { base: f64, scale: f64 },
    /// `a.min(c)`.
    MinWithCurrent,
    /// `a`.
    Replace,
    /// `c` if `a` is infinite, else `a` (label propagation's "no label").
    KeepUnlessInfinite,
}

impl Apply {
    /// The new value from accumulator `a` and current value `c`.
    #[inline(always)]
    pub fn of(self, a: f64, c: f64) -> f64 {
        match self {
            Apply::Affine { base, scale } => base + scale * a,
            Apply::MinWithCurrent => a.min(c),
            Apply::Replace => a,
            Apply::KeepUnlessInfinite if a.is_infinite() => c,
            Apply::KeepUnlessInfinite => a,
        }
    }
}

/// When a new value is an update: broadcast, and keeping the program running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// `|new − old| > tolerance`; `Moved(0.0)` counts any change.
    Moved(f64),
    /// `new < old`.
    Decreased,
}

impl Update {
    /// Whether `new` is an update of `old`.
    #[inline(always)]
    pub fn holds(self, old: f64, new: f64) -> bool {
        match self {
            Update::Moved(tolerance) => (new - old).abs() > tolerance,
            Update::Decreased => new < old,
        }
    }
}

/// Which values are settled: the pull loop skips such a target without
/// touching its in-edges. **Contract:** no later superstep updates a final
/// value. Synchronous BFS qualifies — the first finite level a vertex
/// receives is its hop distance; SSSP distances and WCC labels keep falling
/// and do **not**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Final {
    /// No value is.
    Never,
    /// Every finite value is.
    Finite,
}

impl Final {
    /// Whether a vertex holding `value` is settled.
    #[inline(always)]
    pub fn holds(self, value: f64) -> bool {
        self == Final::Finite && value.is_finite()
    }
}

/// A vertex program as data: everything the engine runs but a custom gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Declaration {
    /// The gather, which alone decides whether the program can push; `None`
    /// for a custom [`GabProgram::gather`], which only the pull loop runs.
    pub fold: Option<Fold>,
    /// What a target's accumulator and current value make.
    pub apply: Apply,
    /// When the new value is an update.
    pub update: Update,
    /// Which values the pull loop may skip.
    pub finality: Final,
}

impl Declaration {
    /// Apply, then test for an update: the target's new value if it is one.
    /// Every loop that applies calls this.
    #[inline(always)]
    pub fn updated(self, accum: f64, current: f64) -> Option<f64> {
        let new = self.apply.of(accum, current);
        self.update.holds(current, new).then_some(new)
    }

    /// Refill `prepared` from the replica when the fold reads
    /// [`Operand::ValuePerOutEdge`]; leave it untouched otherwise.
    pub fn fill_operand(self, values: &[f64], out_degrees: &[u32], prepared: &mut Vec<f64>) {
        if self.fold.map(|fold| fold.from) == Some(Operand::ValuePerOutEdge) {
            let quotient = |(&x, &d): (&f64, &u32)| if d > 0 { x / f64::from(d) } else { 0.0 };
            prepared.clear();
            prepared.extend(values.iter().zip(out_degrees).map(quotient));
        }
    }
}

/// What [`GabProgram::gather_tile`] produces for one tile.
#[derive(Debug)]
pub struct TileUpdates {
    /// `(target, new value)` for every target whose value changed, ascending.
    pub updates: Vec<(VertexId, f64)>,
    /// In-edges offered to [`GabProgram::gather`] (the in-degrees of the
    /// targets that ran, whether or not the gather read them all; a target
    /// whose value is [`Final`] does not run).
    pub edges_processed: u64,
}

/// Which tile loop a superstep runs: the engine's per-superstep decision
/// (see [`crate::exec::ExecutionPlan::frontier_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Gather over in-edges: every active target folds its in-neighbours.
    Pull,
    /// Fold over out-edges: every frontier source's contributions reach
    /// their targets.
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
    /// (always pull for a program whose gather is not a min fold).
    #[default]
    Auto,
    /// Run every superstep on the pull path; no transpose is built.
    ForcePull,
    /// Run every superstep on the push path (rejected at plan time for
    /// programs whose gather is not a min fold).
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
pub struct InitContext {
    /// Number of vertices in the graph.
    pub num_vertices: u64,
}

/// Context available to `gather`.
#[derive(Debug, Clone, Copy)]
pub struct VertexContext<'a> {
    /// Current values of *all* vertices (the local replica array).
    pub values: &'a [f64],
    /// Out-degree of every vertex.
    pub out_degrees: &'a [u32],
    /// Current superstep (0-based).
    pub superstep: u32,
    /// The [`Operand::ValuePerOutEdge`] array, empty unless the fold reads it.
    pub prepared: &'a [f64],
}

/// A vertex-centric program in the GAB model.
pub trait GabProgram: Send + Sync {
    /// Human-readable program name (used in logs and experiment output).
    fn name(&self) -> &'static str;

    /// Initial value of vertex `v`.
    fn initial_value(&self, v: VertexId, ctx: &InitContext) -> f64;

    /// The program as data on a graph of `num_vertices` vertices, which only
    /// [`Apply::Affine`]'s constants may depend on. A wrapper that forwards
    /// its gather must forward the fold.
    fn declaration(&self, num_vertices: u64) -> Declaration;

    /// Fold the in-edges of `target`, `(source, weight)` pairs, into an
    /// accumulator. The default runs the declared [`Fold`] and panics without
    /// one; only a gather that is no fold (label propagation's mode)
    /// overrides it. The engine counts every in-edge it offered in
    /// `edges_processed`, read or not.
    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let fold = self.declaration(ctx.values.len() as u64).fold;
        let fold = fold.expect("a program that declares no fold implements gather");
        fold.gather(in_edges, ctx)
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

    /// The engine's pull loop over one tile — **not a hook; do not
    /// override.** For every target in ascending order: skip it if it has no
    /// in-edge in this tile (unless `run_everything`) or its value is
    /// [`Final`], fold its slice of the tile's CSR — the declared [`Fold`],
    /// or the custom [`Self::gather`] — and keep what
    /// [`Declaration::updated`] makes of the accumulator.
    ///
    /// It lives on the trait because a provided method is compiled per
    /// implementor: the declaration, read once per tile, is a constant here
    /// and inlines into the loop, so the engine pays one virtual call per
    /// tile — without a type parameter on anything that holds a
    /// `&dyn GabProgram`.
    fn gather_tile(
        &self,
        tile: &Tile,
        run_everything: bool,
        ctx: &VertexContext<'_>,
    ) -> TileUpdates {
        let declared = self.declaration(ctx.values.len() as u64);
        let (sources, weights) = (tile.sources(), tile.weights());
        let mut updates = Vec::with_capacity(tile.num_targets() as usize);
        let mut edges_processed = 0u64;
        for (target, span) in tile.targets().zip(tile.offsets().windows(2)) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            if lo == hi && !run_everything {
                continue;
            }
            let current = ctx.values[target as usize];
            if declared.finality.holds(current) {
                continue;
            }
            let mut in_edges = Edges::new(&sources[lo..hi], weights.map(|w| &w[lo..hi]));
            let accum = match declared.fold {
                Some(fold) => fold.gather(&mut in_edges, ctx),
                None => self.gather(target, &mut in_edges, ctx),
            };
            edges_processed += (hi - lo) as u64;
            if let Some(new) = declared.updated(accum, current) {
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

impl dyn GabProgram + '_ {
    /// Whether the engine may run a superstep of this program as a push:
    /// exactly when its gather is a declared min fold ([`Fold::pushes`]).
    /// Derived from the declaration (the same at any vertex count), so no
    /// program can claim it.
    pub fn supports_push(&self) -> bool {
        self.declaration(1).fold.is_some_and(Fold::pushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A custom gather, its accumulator kept, any change an update, nothing
    /// final.
    const CUSTOM: Declaration = Declaration {
        fold: None,
        apply: Apply::Replace,
        update: Update::Moved(0.0),
        finality: Final::Never,
    };

    /// A trivial program: every vertex becomes the count of its in-edges.
    struct CountInEdges;

    impl GabProgram for CountInEdges {
        fn name(&self) -> &'static str {
            "count-in-edges"
        }
        fn initial_value(&self, _v: VertexId, _ctx: &InitContext) -> f64 {
            0.0
        }
        fn declaration(&self, _num_vertices: u64) -> Declaration {
            CUSTOM
        }
        fn gather(
            &self,
            _target: VertexId,
            in_edges: &mut Edges<'_>,
            _ctx: &VertexContext<'_>,
        ) -> f64 {
            in_edges.count() as f64
        }
        fn max_supersteps(&self) -> u32 {
            1
        }
    }

    #[test]
    fn default_update_semantics() {
        let p = CountInEdges;
        let declared = p.declaration(4);
        assert!(declared.update.holds(0.0, 1.0));
        assert!(!declared.update.holds(1.0, 1.0));
        assert_eq!(p.initial_frontier(4), None);
        assert!(!declared.finality.holds(0.0) && !declared.finality.holds(f64::INFINITY));
        assert_eq!(p.max_supersteps(), 1);
        let mut prepared = Vec::new();
        declared.fill_operand(&[1.0, 2.0], &[1, 1], &mut prepared);
        assert!(prepared.is_empty(), "a custom gather gets no operand array");
    }

    #[test]
    fn a_custom_gather_is_pull_only() {
        let p = CountInEdges;
        assert_eq!(p.declaration(4).fold, None);
        assert!(!(&p as &dyn GabProgram).supports_push());
    }

    /// A program that declares only a fold: its gather and whether it can
    /// push both come from the declaration.
    struct Declared(Fold);

    impl GabProgram for Declared {
        fn name(&self) -> &'static str {
            "declared"
        }
        fn initial_value(&self, _v: VertexId, _ctx: &InitContext) -> f64 {
            0.0
        }
        fn declaration(&self, _num_vertices: u64) -> Declaration {
            Declaration {
                fold: Some(self.0),
                ..CUSTOM
            }
        }
    }

    #[test]
    fn a_declared_fold_gathers_and_only_a_min_pushes() {
        let inf = f64::INFINITY;
        let values = [inf, 2.0, 5.0, inf];
        let prepared = [0.5, 0.25, 4.0, 8.0];
        let ctx = VertexContext {
            values: &values,
            out_degrees: &[1; 4],
            superstep: 0,
            prepared: &prepared,
        };
        let (sources, weights) = ([0, 2, 1, 3], [1.5, 0.25, 3.0, 2.0]);
        let fold = |from, edge, reduce| Fold { from, edge, reduce };
        let (min, first_finite) = (Reduce::Min, Reduce::FirstFinite);
        use {Contribution::*, Operand::*};
        for (declared, weighted, want, unread) in [
            (fold(ValuePerOutEdge, Value, Reduce::Sum), true, 12.75, 0),
            (fold(Values, Weight, Reduce::Sum), true, 6.75, 0),
            (fold(Values, Weight, Reduce::Sum), false, 4.0, 0),
            (fold(Values, ValuePlusWeight, min), true, 5.0, 0),
            (fold(Values, ValuePlusWeight, min), false, 3.0, 0),
            (fold(Values, Value, min), true, 2.0, 0),
            (fold(Values, ValuePlusOne, first_finite), true, 6.0, 2),
        ] {
            let mut edges = Edges::new(&sources, weighted.then_some(&weights[..]));
            let program = Declared(declared);
            assert_eq!(program.gather(0, &mut edges, &ctx), want, "{declared:?}");
            assert_eq!(edges.len(), unread, "{declared:?}");
            let program: &dyn GabProgram = &program;
            assert_eq!(program.supports_push(), declared.reduce != Reduce::Sum);
        }
        // No in-edges: the identities, +0.0 and +∞.
        let sum =
            fold(ValuePerOutEdge, Value, Reduce::Sum).gather(&mut Edges::new(&[], None), &ctx);
        assert_eq!(sum.to_bits(), 0.0f64.to_bits());
        let least = fold(Values, Value, min).gather(&mut Edges::new(&[], None), &ctx);
        assert_eq!(least, inf);
    }

    #[test]
    #[should_panic(expected = "a program that declares no fold implements gather")]
    fn a_program_without_a_fold_or_a_gather_cannot_gather() {
        struct Nothing;
        impl GabProgram for Nothing {
            fn name(&self) -> &'static str {
                "nothing"
            }
            fn initial_value(&self, _v: VertexId, _ctx: &InitContext) -> f64 {
                0.0
            }
            fn declaration(&self, _num_vertices: u64) -> Declaration {
                CUSTOM
            }
        }
        let ctx = VertexContext {
            values: &[0.0],
            out_degrees: &[0],
            superstep: 0,
            prepared: &[],
        };
        Nothing.gather(0, &mut Edges::new(&[0], None), &ctx);
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
        let ctx = VertexContext {
            values: &values,
            out_degrees: &out_degrees,
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
