//! The vertex-centric programs the paper evaluates (PageRank, SSSP) plus the other
//! standard analytics GraphH supports (WCC, BFS, degree centrality, label
//! propagation), all expressed in the GAB model (Algorithms 6 and 7 of the paper).
//!
//! Every program is a [`Declaration`], and all but label propagation write no
//! code: PageRank and degree centrality sum a [`Fold`], in CSR order; SSSP,
//! WCC and BFS take a minimum, which is exact and order-insensitive in `f64`
//! — so the engine may also push them, and picks the direction of every
//! superstep of theirs from the replicated frontier (see
//! `docs/ALGORITHMS.md`). Push is derived from the min.

use crate::gab::{
    Apply, Contribution, Declaration, Edges, Final, Fold, GabProgram, InitContext, Operand, Reduce,
    Update, VertexContext,
};
use graphh_graph::ids::VertexId;

/// A min program: its fold over the replica is kept where it is below the
/// target's value, and only a decrease is an update.
fn least(edge: Contribution, reduce: Reduce, finality: Final) -> Declaration {
    Declaration {
        fold: Some(Fold {
            from: Operand::Values,
            edge,
            reduce,
        }),
        apply: Apply::MinWithCurrent,
        update: Update::Decreased,
        finality,
    }
}

/// PageRank with damping factor 0.85 (Algorithm 6).
///
/// The fold sums `value(u) / out_degree(u)` over in-neighbours `u`, which the
/// engine divides once per vertex per superstep, not once per edge: the same
/// bits. `apply` is affine, `(1 − d)/|V| + d·acc`.
/// The program runs for a fixed number of supersteps (the paper runs 21 and
/// reports the mean of the last 20) or until no rank moves by more than the
/// tolerance.
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Damping factor (0.85 in the paper).
    pub damping: f64,
    /// Number of supersteps to run.
    pub supersteps: u32,
    /// Rank change below which a vertex does not count as updated.
    pub tolerance: f64,
}

impl PageRank {
    /// The paper's configuration: damping 0.85, 21 supersteps.
    pub fn new(supersteps: u32) -> Self {
        Self {
            damping: 0.85,
            supersteps,
            tolerance: 0.0,
        }
    }

    /// PageRank that stops when every rank changes by less than `tolerance`.
    pub fn with_tolerance(supersteps: u32, tolerance: f64) -> Self {
        Self {
            damping: 0.85,
            supersteps,
            tolerance,
        }
    }
}

impl GabProgram for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn initial_value(&self, _v: VertexId, ctx: &InitContext) -> f64 {
        1.0 / ctx.num_vertices as f64
    }

    /// A vertex with no out-edge contributes nothing (no dangling-mass
    /// redistribution); it is no edge's source either, so its 0 is never
    /// summed on consistent input.
    fn declaration(&self, num_vertices: u64) -> Declaration {
        Declaration {
            fold: Some(Fold {
                from: Operand::ValuePerOutEdge,
                edge: Contribution::Value,
                reduce: Reduce::Sum,
            }),
            apply: Apply::Affine {
                base: (1.0 - self.damping) / num_vertices as f64,
                scale: self.damping,
            },
            update: Update::Moved(self.tolerance),
            finality: Final::Never,
        }
    }

    fn max_supersteps(&self) -> u32 {
        self.supersteps
    }
}

/// Single-source shortest paths (Algorithm 7). Vertex values are tentative distances;
/// unreachable vertices stay at `f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct Sssp {
    /// The source vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP from `source`.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }
}

impl GabProgram for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn initial_value(&self, v: VertexId, _ctx: &InitContext) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn declaration(&self, _num_vertices: u64) -> Declaration {
        least(Contribution::ValuePlusWeight, Reduce::Min, Final::Never)
    }

    fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<VertexId>> {
        // Only the source moved at initialisation; everything else is reached through
        // the update propagation.
        Some(vec![self.source])
    }
}

/// Weakly connected components via label propagation: every vertex starts with its
/// own id and repeatedly adopts the minimum label among itself and its in-neighbours.
///
/// For a weakly-connected-components result on a directed graph the input should be
/// symmetrised (both edge directions present), which is how the experiment harness
/// prepares WCC inputs.
#[derive(Debug, Clone, Default)]
pub struct Wcc;

impl Wcc {
    /// A WCC program.
    pub fn new() -> Self {
        Self
    }
}

impl GabProgram for Wcc {
    fn name(&self) -> &'static str {
        "wcc"
    }

    fn initial_value(&self, v: VertexId, _ctx: &InitContext) -> f64 {
        f64::from(v)
    }

    fn declaration(&self, _num_vertices: u64) -> Declaration {
        least(Contribution::Value, Reduce::Min, Final::Never)
    }
}

/// Breadth-first search levels from a source vertex; unreachable vertices stay at
/// `f64::INFINITY`.
///
/// This is direction-optimizing BFS (Beamer et al., SC'12): the engine pushes
/// from the source and through the sparse head and tail of the traversal, and
/// pulls — skipping every vertex whose level is [`Final`], and
/// stopping each other vertex's fold at its first visited in-neighbour —
/// through the dense middle. The levels are the same either way. The engine's
/// `edges_processed` counts the in-edges offered to a fold, not the ones it
/// read before it stopped.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// The source vertex.
    pub source: VertexId,
}

impl Bfs {
    /// BFS from `source`.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }
}

impl GabProgram for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn initial_value(&self, v: VertexId, _ctx: &InitContext) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// The fold is the first visited in-neighbour's level plus one, `+∞` if
    /// there is none: Beamer's bottom-up step. In a synchronous BFS every
    /// visited in-neighbour of an unsettled target is at the previous level,
    /// so the first one is the `min` over all of them; a settled target may
    /// see a larger answer, which `apply`'s `min` discards. A level is the
    /// hop distance from its first discovery, so every finite level is final.
    fn declaration(&self, _num_vertices: u64) -> Declaration {
        let first_parent = Reduce::FirstFinite;
        least(Contribution::ValuePlusOne, first_parent, Final::Finite)
    }

    fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }
}

/// The name [`Bfs`] had while direction switching was a second program. Kept
/// only because `benchmark/` builds its BFS jobs through it and may not change.
pub type DirectionOptimizingBfs = Bfs;

/// Synchronous label propagation with deterministic min-tie-break: every vertex
/// starts with its own id and each round adopts the most frequent label among
/// its in-neighbours, ties broken by the smallest label.
///
/// The mode computation needs *all* of a vertex's in-neighbour labels at once
/// (a histogram is not a fold), so the program keeps a custom
/// [`GabProgram::gather`] and declares no [`Fold`]: it is pull-only, and a
/// force-push run is rejected at plan time. Synchronous LPA can oscillate on bipartite
/// structures, so the round count is capped (default 20).
#[derive(Debug, Clone)]
pub struct LabelPropagation {
    /// Hard cap on propagation rounds.
    pub max_rounds: u32,
}

impl Default for LabelPropagation {
    fn default() -> Self {
        Self { max_rounds: 20 }
    }
}

impl LabelPropagation {
    /// Label propagation with the default 20-round cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label propagation capped at `max_rounds` rounds.
    pub fn with_rounds(max_rounds: u32) -> Self {
        Self { max_rounds }
    }
}

impl GabProgram for LabelPropagation {
    fn name(&self) -> &'static str {
        "labelprop"
    }

    fn initial_value(&self, v: VertexId, _ctx: &InitContext) -> f64 {
        f64::from(v)
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        // Tile target ranges partition the vertex space, so this iterator is
        // the vertex's complete in-neighbour set: the histogram is exact.
        let mut labels: Vec<f64> = in_edges.map(|(src, _)| ctx.values[src as usize]).collect();
        if labels.is_empty() {
            return f64::INFINITY; // sentinel: apply keeps the current label
        }
        labels.sort_unstable_by(f64::total_cmp);
        let mut best = labels[0];
        let mut best_count = 0usize;
        let mut i = 0;
        while i < labels.len() {
            let label = labels[i];
            let mut j = i + 1;
            while j < labels.len() && labels[j] == label {
                j += 1;
            }
            // Strict `>`: on a tie the earlier (smaller, since sorted) label wins.
            if j - i > best_count {
                best = label;
                best_count = j - i;
            }
            i = j;
        }
        best
    }

    fn declaration(&self, _num_vertices: u64) -> Declaration {
        Declaration {
            fold: None,
            apply: Apply::KeepUnlessInfinite,
            update: Update::Moved(0.0),
            finality: Final::Never,
        }
    }

    fn max_supersteps(&self) -> u32 {
        self.max_rounds
    }
}

/// In-degree centrality: a single-superstep program whose result is each vertex's
/// (weighted) in-degree. Used by tests and as the simplest possible GAB example.
#[derive(Debug, Clone, Default)]
pub struct DegreeCentrality;

impl DegreeCentrality {
    /// A degree-centrality program.
    pub fn new() -> Self {
        Self
    }
}

impl GabProgram for DegreeCentrality {
    fn name(&self) -> &'static str {
        "degree-centrality"
    }

    fn initial_value(&self, _v: VertexId, _ctx: &InitContext) -> f64 {
        0.0
    }

    fn declaration(&self, _num_vertices: u64) -> Declaration {
        Declaration {
            fold: Some(Fold {
                from: Operand::Values,
                edge: Contribution::Weight,
                reduce: Reduce::Sum,
            }),
            apply: Apply::Replace,
            update: Update::Moved(0.0),
            finality: Final::Never,
        }
    }

    fn max_supersteps(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(values: &'a [f64], out: &'a [u32]) -> VertexContext<'a> {
        VertexContext {
            values,
            out_degrees: out,
            superstep: 0,
            prepared: &[],
        }
    }

    /// PageRank's context: `ctx` plus the operand array its fold reads.
    fn prepared_ctx<'a>(
        pr: &PageRank,
        values: &'a [f64],
        out: &'a [u32],
        prepared: &'a mut Vec<f64>,
    ) -> VertexContext<'a> {
        let declared = pr.declaration(values.len() as u64);
        declared.fill_operand(values, out, prepared);
        VertexContext {
            prepared,
            ..ctx(values, out)
        }
    }

    #[test]
    fn pagerank_gather_divides_by_out_degree() {
        let pr = PageRank::new(10);
        let values = vec![0.25, 0.25, 0.25, 0.25];
        let out = vec![2, 1, 5, 0];
        let mut prepared = Vec::new();
        let c = prepared_ctx(&pr, &values, &out, &mut prepared);
        let mut edges = Edges::new(&[0, 1], None);
        let accum = pr.gather(3, &mut edges, &c);
        assert!((accum - (0.25 / 2.0 + 0.25 / 1.0)).abs() < 1e-12);
        let declared = pr.declaration(4);
        let new = declared.apply.of(accum, 0.25);
        assert!((new - (0.15 / 4.0 + 0.85 * accum)).abs() < 1e-12);
        // Any change is an update, unless a tolerance says how much it takes.
        let update = declared.update;
        assert!(update.holds(0.25, 0.25 + 1e-15) && !update.holds(0.25, 0.25));
        let tolerant = PageRank::with_tolerance(10, 1e-3).declaration(4).update;
        assert!(tolerant.holds(0.25, 0.252) && !tolerant.holds(0.25, 0.2505));
    }

    #[test]
    fn pagerank_ignores_dangling_sources() {
        let pr = PageRank::new(1);
        let values = vec![1.0, 1.0];
        let out = vec![0, 1];
        let mut prepared = Vec::new();
        let c = prepared_ctx(&pr, &values, &out, &mut prepared);
        // Source 0 has out-degree 0 (inconsistent input, but must not divide by zero).
        let mut edges = Edges::new(&[0], None);
        assert_eq!(pr.gather(1, &mut edges, &c), 0.0);
    }

    #[test]
    fn sssp_relaxes_minimum_distance() {
        let sssp = Sssp::new(0);
        let values = vec![0.0, 5.0, f64::INFINITY];
        let out = vec![0; 3];
        let c = ctx(&values, &out);
        let mut edges = Edges::new(&[0, 1], Some(&[2.0, 1.0]));
        let accum = sssp.gather(2, &mut edges, &c);
        assert_eq!(accum, 2.0);
        let declared = sssp.declaration(3);
        assert_eq!(declared.apply.of(accum, f64::INFINITY), 2.0);
        assert!(declared.update.holds(f64::INFINITY, 2.0));
        assert!(!declared.update.holds(2.0, 2.0));
        let init = InitContext { num_vertices: 3 };
        assert_eq!(sssp.initial_value(0, &init), 0.0);
        assert!(sssp.initial_value(1, &init).is_infinite());
    }

    #[test]
    fn wcc_adopts_minimum_label() {
        let wcc = Wcc::new();
        let values = vec![0.0, 1.0, 2.0];
        let out = vec![0; 3];
        let c = ctx(&values, &out);
        let mut edges = Edges::new(&[0, 1], None);
        assert_eq!(wcc.gather(2, &mut edges, &c), 0.0);
        assert_eq!(wcc.declaration(3).apply.of(0.0, 2.0), 0.0);
    }

    #[test]
    fn bfs_counts_hops_not_weights() {
        let bfs = Bfs::new(0);
        let values = vec![0.0, f64::INFINITY];
        let out = vec![0; 2];
        let c = ctx(&values, &out);
        let mut edges = Edges::new(&[0], Some(&[100.0]));
        assert_eq!(bfs.gather(1, &mut edges, &c), 1.0);
    }

    #[test]
    fn bfs_gather_stops_at_the_first_visited_in_neighbour() {
        let bfs = Bfs::new(0);
        let inf = f64::INFINITY;
        let values = vec![inf, 2.0, inf, 2.0, inf];
        let out = vec![0; 5];
        let c = ctx(&values, &out);
        // Two unvisited sources, then the first visited one: the last two
        // in-edges are left unread.
        let mut edges = Edges::new(&[0, 2, 1, 3, 4], None);
        assert_eq!(bfs.gather(4, &mut edges, &c), 3.0);
        assert_eq!(edges.len(), 2);
        // No visited in-neighbour: every in-edge read, `+∞` returned.
        let mut edges = Edges::new(&[0, 2, 4], None);
        assert_eq!(bfs.gather(4, &mut edges, &c), inf);
        assert_eq!(edges.len(), 0);
        let mut edges = Edges::new(&[], None);
        assert_eq!(bfs.gather(4, &mut edges, &c), inf);
        // A settled target's larger answer loses to its own level.
        let mut edges = Edges::new(&[1], None);
        let apply = bfs.declaration(5).apply;
        assert_eq!(apply.of(bfs.gather(3, &mut edges, &c), 2.0), 2.0);
    }

    #[test]
    fn label_propagation_takes_the_mode_with_min_tie_break() {
        let lp = LabelPropagation::new();
        assert_eq!(lp.max_supersteps(), 20);
        let values = vec![5.0, 2.0, 5.0, 2.0, 9.0];
        let out = vec![0; 5];
        let c = ctx(&values, &out);
        // Labels {5, 2, 5}: 5 wins on count.
        let mut edges = Edges::new(&[0, 1, 2], None);
        assert_eq!(lp.gather(4, &mut edges, &c), 5.0);
        // Labels {5, 2, 5, 2}: tied 2-2, the smaller label wins.
        let mut edges = Edges::new(&[0, 1, 2, 3], None);
        assert_eq!(lp.gather(4, &mut edges, &c), 2.0);
        // No in-neighbours: the sentinel keeps the current label.
        let mut edges = Edges::new(&[], None);
        let sentinel = lp.gather(4, &mut edges, &c);
        let declared = lp.declaration(5);
        assert_eq!(declared.apply.of(sentinel, 9.0), 9.0);
        assert_eq!(declared.fold, None);
    }

    #[test]
    fn degree_centrality_sums_weights_in_one_superstep() {
        let dc = DegreeCentrality::new();
        assert_eq!(dc.max_supersteps(), 1);
        let values = vec![0.0; 3];
        let out = vec![0; 3];
        let c = ctx(&values, &out);
        let mut edges = Edges::new(&[0, 1], Some(&[1.5, 2.5]));
        assert_eq!(dc.gather(2, &mut edges, &c), 4.0);
    }
}
