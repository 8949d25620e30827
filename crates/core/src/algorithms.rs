//! The vertex-centric programs the paper evaluates (PageRank, SSSP) plus the other
//! standard analytics GraphH supports (WCC, BFS, degree centrality, label
//! propagation), all expressed in the GAB model (Algorithms 6 and 7 of the paper).
//!
//! The monotone min-combine programs (SSSP, WCC, BFS) also implement the *push*
//! side of the model ([`GabProgram::scatter`] / [`GabProgram::combine`]): their
//! gather is a minimum over in-neighbour contributions, which is exact and
//! order-insensitive in `f64`, so pull and push supersteps produce bit-identical
//! values (see `docs/ALGORITHMS.md`) — and the engine picks the direction of
//! every superstep of theirs from the replicated frontier. None of them says
//! anything about direction beyond `supports_push`.

use crate::gab::{Edges, GabProgram, InitContext, VertexContext};
use graphh_graph::ids::VertexId;

/// PageRank with damping factor 0.85 (Algorithm 6).
///
/// `gather` sums `value(u) / out_degree(u)` over in-neighbours `u`; `apply` applies
/// the damping. The program runs for a fixed number of supersteps (the paper runs 21
/// and reports the mean of the last 20) or until no rank moves by more than the
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

    fn initial_value(&self, _v: VertexId, ctx: &InitContext<'_>) -> f64 {
        1.0 / ctx.num_vertices as f64
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let mut accum = 0.0;
        for (src, _w) in in_edges {
            let d = ctx.out_degrees[src as usize];
            if d > 0 {
                accum += ctx.values[src as usize] / f64::from(d);
            }
        }
        accum
    }

    fn apply(&self, _target: VertexId, accum: f64, _current: f64, ctx: &VertexContext<'_>) -> f64 {
        (1.0 - self.damping) / ctx.num_vertices as f64 + self.damping * accum
    }

    fn is_update(&self, old: f64, new: f64) -> bool {
        (new - old).abs() > self.tolerance
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

    fn initial_value(&self, v: VertexId, _ctx: &InitContext<'_>) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let mut best = f64::INFINITY;
        for (src, w) in in_edges {
            let candidate = ctx.values[src as usize] + f64::from(w);
            if candidate < best {
                best = candidate;
            }
        }
        best
    }

    fn apply(&self, _target: VertexId, accum: f64, current: f64, _ctx: &VertexContext<'_>) -> f64 {
        accum.min(current)
    }

    fn is_update(&self, old: f64, new: f64) -> bool {
        new < old
    }

    fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<VertexId>> {
        // Only the source moved at initialisation; everything else is reached through
        // the update propagation.
        Some(vec![self.source])
    }

    fn supports_push(&self) -> bool {
        true
    }

    fn scatter(
        &self,
        _source: VertexId,
        value: f64,
        out_edges: &mut Edges<'_>,
        emit: &mut dyn FnMut(VertexId, f64),
    ) {
        for (target, w) in out_edges {
            emit(target, value + f64::from(w));
        }
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

    fn initial_value(&self, v: VertexId, _ctx: &InitContext<'_>) -> f64 {
        f64::from(v)
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let mut best = f64::INFINITY;
        for (src, _) in in_edges {
            best = best.min(ctx.values[src as usize]);
        }
        best
    }

    fn apply(&self, _target: VertexId, accum: f64, current: f64, _ctx: &VertexContext<'_>) -> f64 {
        accum.min(current)
    }

    fn is_update(&self, old: f64, new: f64) -> bool {
        new < old
    }

    fn supports_push(&self) -> bool {
        true
    }

    fn scatter(
        &self,
        _source: VertexId,
        value: f64,
        out_edges: &mut Edges<'_>,
        emit: &mut dyn FnMut(VertexId, f64),
    ) {
        for (target, _w) in out_edges {
            emit(target, value);
        }
    }
}

/// Breadth-first search levels from a source vertex; unreachable vertices stay at
/// `f64::INFINITY`.
///
/// This is direction-optimizing BFS (Beamer et al., SC'12): the engine pushes
/// from the source and through the sparse head and tail of the traversal, and
/// pulls — skipping every vertex whose level [`GabProgram::is_final`] — through
/// the dense middle. The levels are the same either way.
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

    fn initial_value(&self, v: VertexId, _ctx: &InitContext<'_>) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> f64 {
        let mut best = f64::INFINITY;
        for (src, _) in in_edges {
            best = best.min(ctx.values[src as usize] + 1.0);
        }
        best
    }

    fn apply(&self, _target: VertexId, accum: f64, current: f64, _ctx: &VertexContext<'_>) -> f64 {
        accum.min(current)
    }

    fn is_update(&self, old: f64, new: f64) -> bool {
        new < old
    }

    fn initial_frontier(&self, _num_vertices: u64) -> Option<Vec<VertexId>> {
        Some(vec![self.source])
    }

    fn is_final(&self, value: f64) -> bool {
        // Synchronous BFS assigns the hop distance on first discovery.
        value.is_finite()
    }

    fn supports_push(&self) -> bool {
        true
    }

    fn scatter(
        &self,
        _source: VertexId,
        value: f64,
        out_edges: &mut Edges<'_>,
        emit: &mut dyn FnMut(VertexId, f64),
    ) {
        for (target, _w) in out_edges {
            emit(target, value + 1.0);
        }
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
/// (a histogram is not a binary combine), so the program is pull-only: it
/// keeps the default [`GabProgram::supports_push`], and a force-push run is
/// rejected at plan time. Synchronous LPA can oscillate on bipartite
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

    fn initial_value(&self, v: VertexId, _ctx: &InitContext<'_>) -> f64 {
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

    fn apply(&self, _target: VertexId, accum: f64, current: f64, _ctx: &VertexContext<'_>) -> f64 {
        if accum.is_infinite() {
            current
        } else {
            accum
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

    fn initial_value(&self, _v: VertexId, _ctx: &InitContext<'_>) -> f64 {
        0.0
    }

    fn gather(&self, _target: VertexId, in_edges: &mut Edges<'_>, _ctx: &VertexContext<'_>) -> f64 {
        in_edges.map(|(_, w)| f64::from(w)).sum()
    }

    fn apply(&self, _target: VertexId, accum: f64, _current: f64, _ctx: &VertexContext<'_>) -> f64 {
        accum
    }

    fn max_supersteps(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(values: &'a [f64], out: &'a [u32], ind: &'a [u32]) -> VertexContext<'a> {
        VertexContext {
            values,
            out_degrees: out,
            in_degrees: ind,
            num_vertices: values.len() as u64,
            superstep: 0,
        }
    }

    #[test]
    fn pagerank_gather_divides_by_out_degree() {
        let pr = PageRank::new(10);
        let values = vec![0.25, 0.25, 0.25, 0.25];
        let out = vec![2, 1, 5, 0];
        let ind = vec![0; 4];
        let c = ctx(&values, &out, &ind);
        let mut edges = Edges::new(&[0, 1], None);
        let accum = pr.gather(3, &mut edges, &c);
        assert!((accum - (0.25 / 2.0 + 0.25 / 1.0)).abs() < 1e-12);
        let new = pr.apply(3, accum, 0.25, &c);
        assert!((new - (0.15 / 4.0 + 0.85 * accum)).abs() < 1e-12);
        // Any change is an update, unless a tolerance says how much it takes.
        assert!(pr.is_update(0.25, 0.25 + 1e-15) && !pr.is_update(0.25, 0.25));
        let tolerant = PageRank::with_tolerance(10, 1e-3);
        assert!(tolerant.is_update(0.25, 0.252) && !tolerant.is_update(0.25, 0.2505));
    }

    #[test]
    fn pagerank_ignores_dangling_sources() {
        let pr = PageRank::new(1);
        let values = vec![1.0, 1.0];
        let out = vec![0, 1];
        let ind = vec![1, 0];
        let c = ctx(&values, &out, &ind);
        // Source 0 has out-degree 0 (inconsistent input, but must not divide by zero).
        let mut edges = Edges::new(&[0], None);
        assert_eq!(pr.gather(1, &mut edges, &c), 0.0);
    }

    #[test]
    fn sssp_relaxes_minimum_distance() {
        let sssp = Sssp::new(0);
        let values = vec![0.0, 5.0, f64::INFINITY];
        let out = vec![0; 3];
        let ind = vec![0; 3];
        let c = ctx(&values, &out, &ind);
        let mut edges = Edges::new(&[0, 1], Some(&[2.0, 1.0]));
        let accum = sssp.gather(2, &mut edges, &c);
        assert_eq!(accum, 2.0);
        assert_eq!(sssp.apply(2, accum, f64::INFINITY, &c), 2.0);
        assert!(sssp.is_update(f64::INFINITY, 2.0));
        assert!(!sssp.is_update(2.0, 2.0));
        assert_eq!(
            sssp.initial_value(
                0,
                &InitContext {
                    num_vertices: 3,
                    out_degrees: &out,
                    in_degrees: &ind
                }
            ),
            0.0
        );
        assert!(sssp
            .initial_value(
                1,
                &InitContext {
                    num_vertices: 3,
                    out_degrees: &out,
                    in_degrees: &ind
                }
            )
            .is_infinite());
    }

    #[test]
    fn wcc_adopts_minimum_label() {
        let wcc = Wcc::new();
        let values = vec![0.0, 1.0, 2.0];
        let out = vec![0; 3];
        let ind = vec![0; 3];
        let c = ctx(&values, &out, &ind);
        let mut edges = Edges::new(&[0, 1], None);
        assert_eq!(wcc.gather(2, &mut edges, &c), 0.0);
        assert_eq!(wcc.apply(2, 0.0, 2.0, &c), 0.0);
    }

    #[test]
    fn bfs_counts_hops_not_weights() {
        let bfs = Bfs::new(0);
        let values = vec![0.0, f64::INFINITY];
        let out = vec![0; 2];
        let ind = vec![0; 2];
        let c = ctx(&values, &out, &ind);
        let mut edges = Edges::new(&[0], Some(&[100.0]));
        assert_eq!(bfs.gather(1, &mut edges, &c), 1.0);
    }

    #[test]
    fn min_programs_scatter_what_gather_would_see() {
        // For every min-combine kernel, scatter(source→target) must emit
        // exactly the contribution gather(target) derives from that source —
        // this is the per-edge identity the push/pull bit-equality rests on.
        let values = vec![3.0, f64::INFINITY];
        let out = vec![1, 0];
        let ind = vec![0, 1];
        let c = ctx(&values, &out, &ind);

        let cases: Vec<(Box<dyn GabProgram>, f32)> = vec![
            (Box::new(Sssp::new(0)), 2.5),
            (Box::new(Wcc::new()), 1.0),
            (Box::new(Bfs::new(0)), 7.0),
        ];
        for (program, weight) in cases {
            assert!(program.supports_push(), "{}", program.name());
            let mut pushed = Vec::new();
            let weights = [weight];
            let mut edges = Edges::new(&[1], Some(&weights));
            program.scatter(0, values[0], &mut edges, &mut |t, contribution| {
                pushed.push((t, contribution))
            });
            let mut in_edges = Edges::new(&[0], Some(&weights));
            let gathered = program.gather(1, &mut in_edges, &c);
            assert_eq!(pushed, vec![(1u32, gathered)], "{}", program.name());
        }
    }

    #[test]
    fn label_propagation_takes_the_mode_with_min_tie_break() {
        let lp = LabelPropagation::new();
        assert_eq!(lp.max_supersteps(), 20);
        let values = vec![5.0, 2.0, 5.0, 2.0, 9.0];
        let out = vec![0; 5];
        let ind = vec![0; 5];
        let c = ctx(&values, &out, &ind);
        // Labels {5, 2, 5}: 5 wins on count.
        let mut edges = Edges::new(&[0, 1, 2], None);
        assert_eq!(lp.gather(4, &mut edges, &c), 5.0);
        // Labels {5, 2, 5, 2}: tied 2-2, the smaller label wins.
        let mut edges = Edges::new(&[0, 1, 2, 3], None);
        assert_eq!(lp.gather(4, &mut edges, &c), 2.0);
        // No in-neighbours: the sentinel keeps the current label.
        let mut edges = Edges::new(&[], None);
        let sentinel = lp.gather(4, &mut edges, &c);
        assert_eq!(lp.apply(4, sentinel, 9.0, &c), 9.0);
        assert!(!lp.supports_push());
    }

    #[test]
    fn degree_centrality_sums_weights_in_one_superstep() {
        let dc = DegreeCentrality::new();
        assert_eq!(dc.max_supersteps(), 1);
        let values = vec![0.0; 3];
        let out = vec![0; 3];
        let ind = vec![0; 3];
        let c = ctx(&values, &out, &ind);
        let mut edges = Edges::new(&[0, 1], Some(&[1.5, 2.5]));
        assert_eq!(dc.gather(2, &mut edges, &c), 4.0);
    }
}
