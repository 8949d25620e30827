//! Oracle for the two loops of a tile phase: [`GabProgram::gather_tile`] and
//! a server's push pass (`exec::scatter_server`, through
//! [`ServerState::run_tile_phase`]) against the loops they replaced, bit for
//! bit.
//!
//! The references below are the old engine loops: per target (per edge, for
//! push) through `&mut dyn Iterator` over [`Tile::in_edges`], one tile at a
//! time, running the gathers and scatters the programs wrote by hand before
//! they declared folds ([`old_gather`], [`old_scatter`]) and the `apply`,
//! `is_update`, `is_final` and `prepare` hooks they wrote before they
//! declared those ([`old_apply`], [`old_is_update`], [`old_is_final`],
//! [`old_prepare`]). They share nothing with the kernels — not
//! `Tile::offsets`, not the program's
//! [`Declaration`](crate::gab::Declaration), not the server's
//! `PushTranspose` or its accumulator — so agreeing on updates, their order,
//! the edge count and the tile counts means the declarations, the slicing,
//! the slot map and the cut into per-tile runs are right, for every registry
//! program, weighted or not, `run_everything` or not.
//!
//! The reference pull loop also knows nothing of finality: it gathers every
//! target, so agreeing on the updates is the check that a program's claim is
//! honest (a skipped target would not have moved) and the edge count is
//! compared with the in-degrees of the targets left to run. BFS's gather,
//! which stops at the first visited in-neighbour, is held to a full `min`
//! fold over every in-edge of every target left to run. PageRank's gather —
//! a sum of the quotients the engine divides once per vertex
//! ([`Operand::ValuePerOutEdge`](crate::gab::Operand)) — is held to the
//! division on every edge it replaced. (The transpose itself,
//! `PushTranspose`, is held to a stable sort of the tiles' edges where it is
//! built, in `graphh-partition`.)

use super::{ExecutionPlan, ServerState};
use crate::engine::GraphHConfig;
use crate::gab::{
    Direction, DirectionMode, Edges, GabProgram, InitContext, TileUpdates, VertexContext,
};
use crate::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_cluster::{ClusterConfig, ServerMetrics};
use graphh_graph::ids::VertexId;
use graphh_graph::{EdgeList, Graph};
use graphh_partition::{PartitionedGraph, Spe, SpeConfig, Tile};
use graphh_storage::MemoryBackend;

const NUM_VERTICES: usize = 12;

/// Four tiles over vertices `0..12`: one with zero-in-degree targets (0, 3),
/// a hub (1, with a self-loop, in-edges from all of `0..10`) and a target
/// whose three in-edges are the same `(source, target)` pair under different
/// weights (2); a single-vertex tile; one more with a gap and a target (7)
/// whose weighted distance from the hub falls twice; and a tile of two
/// targets and no edge. Vertex 1 has the most out-edges and feeds the first
/// three tiles; vertices 10 and 11 feed none.
fn tiles(weighted: bool) -> Vec<Tile> {
    let hub = (0..10).map(|s| (s, 0.25 + s as f32)).collect();
    let first = vec![
        vec![],
        hub,
        vec![(1, 2.0), (1, 0.5), (1, 7.0)],
        vec![],
        vec![(9, 1.0), (0, 3.5)],
        vec![(2, 1.25)],
    ];
    let single = vec![vec![(1, 0.5), (5, 1.0)]];
    // Vertex 7 is reached from the hub directly (9.0) a round before the
    // shorter way round through 6 — a weighted distance that falls again.
    let last = vec![
        vec![(6, 1.0), (1, 9.0)],
        vec![],
        vec![(8, 2.0), (7, 1.0), (4, 0.75)],
    ];
    vec![
        Tile::from_adjacency(0, 0, &first, weighted),
        Tile::from_adjacency(1, 6, &single, weighted),
        Tile::from_adjacency(2, 7, &last, weighted),
        Tile::from_adjacency(3, 10, &[vec![], vec![]], weighted),
    ]
}

/// The tiles as a partitioned graph — persisted with their degree arrays and
/// loaded back — for [`ServerState`]s to run over.
fn partitioned(weighted: bool) -> PartitionedGraph {
    let empty = Graph::from_edges(NUM_VERTICES as u64, EdgeList::new_unweighted()).unwrap();
    let mut graph = Spe::partition(&empty, &SpeConfig::new("oracle", 1)).unwrap();
    graph.tiles = tiles(weighted);
    (graph.out_degrees, graph.in_degrees) = degrees(&graph.tiles);
    let store = MemoryBackend::new();
    graph.persist(&store).unwrap();
    PartitionedGraph::load(&store, "oracle").unwrap()
}

/// The gathers PageRank, SSSP, WCC, BFS and degree centrality wrote before
/// they declared folds, by program name; `None` for a program that kept its
/// own gather (label propagation).
fn old_gather(program: &str, in_edges: &mut Edges<'_>, ctx: &VertexContext<'_>) -> Option<f64> {
    Some(match program {
        "pagerank" => {
            let mut accum = 0.0;
            for (src, _w) in in_edges {
                accum += ctx.prepared[src as usize];
            }
            accum
        }
        "sssp" => {
            let mut best = f64::INFINITY;
            for (src, w) in in_edges {
                let candidate = ctx.values[src as usize] + f64::from(w);
                if candidate < best {
                    best = candidate;
                }
            }
            best
        }
        "wcc" => {
            let mut best = f64::INFINITY;
            for (src, _) in in_edges {
                best = best.min(ctx.values[src as usize]);
            }
            best
        }
        "bfs" => in_edges
            .map(|(src, _)| ctx.values[src as usize])
            .find(|level| level.is_finite())
            .map_or(f64::INFINITY, |level| level + 1.0),
        "degree-centrality" => in_edges.map(|(_, w)| f64::from(w)).sum(),
        _ => return None,
    })
}

/// The scatters SSSP, WCC and BFS wrote before push was derived from their
/// min folds, by program name; `false`, emitting nothing, for a program that
/// had none. What they emitted was folded with `f64::min`.
fn old_scatter(
    program: &str,
    value: f64,
    out_edges: &mut Edges<'_>,
    emit: &mut dyn FnMut(VertexId, f64),
) -> bool {
    match program {
        "sssp" => {
            for (target, w) in out_edges {
                emit(target, value + f64::from(w));
            }
        }
        "wcc" => {
            for (target, _w) in out_edges {
                emit(target, value);
            }
        }
        "bfs" => {
            for (target, _w) in out_edges {
                emit(target, value + 1.0);
            }
        }
        _ => return false,
    }
    true
}

/// The `apply` hooks the registry programs wrote before they declared one,
/// by program name, PageRank's at the registry's damping.
fn old_apply(program: &str, accum: f64, current: f64, ctx: &VertexContext<'_>) -> f64 {
    match program {
        "pagerank" => (1.0 - 0.85) / ctx.values.len() as f64 + 0.85 * accum,
        "sssp" | "wcc" | "bfs" => accum.min(current),
        "labelprop" if accum.is_infinite() => current,
        "labelprop" | "degree-centrality" => accum,
        _ => unreachable!("{program} is not a registry program"),
    }
}

/// The `is_update` hooks of the min programs; PageRank's at the registry's
/// tolerance, 0, is the trait's default, which the rest kept.
fn old_is_update(program: &str, old: f64, new: f64) -> bool {
    match program {
        "sssp" | "wcc" | "bfs" => new < old,
        _ => (new - old).abs() > 0.0,
    }
}

/// The `is_final` hooks: BFS's, and the trait's default for the rest.
fn old_is_final(program: &str, value: f64) -> bool {
    program == "bfs" && value.is_finite()
}

/// The `prepare` hooks: PageRank's, and the trait's default, which left the
/// buffer alone, for the rest.
fn old_prepare(program: &str, values: &[f64], out_degrees: &[u32], prepared: &mut Vec<f64>) {
    if program != "pagerank" {
        return;
    }
    prepared.clear();
    prepared.extend(values.iter().zip(out_degrees).map(|(&value, &d)| {
        if d > 0 {
            value / f64::from(d)
        } else {
            0.0
        }
    }));
}

/// What the old hooks made of a target's accumulator: its new value, if it
/// was an update.
fn old_update(program: &str, accum: f64, current: f64, ctx: &VertexContext<'_>) -> Option<f64> {
    let new = old_apply(program, accum, current, ctx);
    old_is_update(program, current, new).then_some(new)
}

/// A program's old gather, or its own for a program that kept one.
fn reference_gather(
    program: &dyn GabProgram,
    target: VertexId,
    in_edges: &mut Edges<'_>,
    ctx: &VertexContext<'_>,
) -> f64 {
    old_gather(program.name(), in_edges, ctx)
        .unwrap_or_else(|| program.gather(target, in_edges, ctx))
}

/// The pull loop before the slice kernels.
fn reference_gather_tile(
    program: &dyn GabProgram,
    tile: &Tile,
    run_everything: bool,
    ctx: &VertexContext<'_>,
) -> TileUpdates {
    let mut updates = Vec::new();
    let mut edges_processed = 0u64;
    for target in tile.targets() {
        let in_degree = tile.in_degree(target);
        if in_degree == 0 && !run_everything {
            continue;
        }
        let mut walked = tile.in_edges(target);
        let in_edges: &mut dyn Iterator<Item = (VertexId, f32)> = &mut walked;
        // An unweighted tile reports unit weights; spelling them out checks
        // that `Edges` without weights means the same.
        let (sources, weights): (Vec<VertexId>, Vec<f32>) = in_edges.unzip();
        let accum = reference_gather(
            program,
            target,
            &mut Edges::new(&sources, Some(&weights)),
            ctx,
        );
        edges_processed += u64::from(in_degree);
        if let Some(new) = old_update(program.name(), accum, ctx.values[target as usize], ctx) {
            updates.push((target, new));
        }
    }
    TileUpdates {
        updates,
        edges_processed,
    }
}

/// The tile's edges as `(source, target, weight)`, stably sorted by source.
fn stable_transpose(tile: &Tile) -> Vec<(VertexId, VertexId, f32)> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = tile
        .targets()
        .flat_map(|t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
        .collect();
    edges.sort_by_key(|&(source, ..)| source);
    edges
}

/// The push loop, without the transpose: the tile's edges stably sorted by
/// source, those out of `active` scattered one edge at a time.
fn reference_scatter_tile(
    program: &dyn GabProgram,
    tile: &Tile,
    active: &[VertexId],
    ctx: &VertexContext<'_>,
) -> Option<TileUpdates> {
    let mut edges = stable_transpose(tile);
    edges.retain(|(s, ..)| active.contains(s));
    if edges.is_empty() {
        return None;
    }
    let mut acc: Vec<Option<f64>> = vec![None; tile.num_targets() as usize];
    for &(source, target, weight) in &edges {
        let mut out_edge = Edges::new(
            std::slice::from_ref(&target),
            Some(std::slice::from_ref(&weight)),
        );
        let value = ctx.values[source as usize];
        let scattered = old_scatter(
            program.name(),
            value,
            &mut out_edge,
            &mut |t, contribution| {
                let slot = &mut acc[(t - tile.target_start) as usize];
                *slot = Some(slot.map_or(contribution, |a| a.min(contribution)));
            },
        );
        assert!(scattered, "{} had no scatter", program.name());
    }
    let mut updates = Vec::new();
    for (target, accum) in tile.targets().zip(acc) {
        let Some(accum) = accum else { continue };
        if let Some(new) = old_update(program.name(), accum, ctx.values[target as usize], ctx) {
            updates.push((target, new));
        }
    }
    Some(TileUpdates {
        updates,
        edges_processed: edges.len() as u64,
    })
}

fn bits(result: &TileUpdates) -> (Vec<(VertexId, u64)>, u64) {
    let updates = result.updates.iter().map(|&(v, x)| (v, x.to_bits()));
    (updates.collect(), result.edges_processed)
}

/// Degrees of the graph the tiles spell.
fn degrees(tiles: &[Tile]) -> (Vec<u32>, Vec<u32>) {
    let (mut out, mut ind) = (vec![0u32; NUM_VERTICES], vec![0u32; NUM_VERTICES]);
    for tile in tiles {
        for &s in tile.sources() {
            out[s as usize] += 1;
        }
        for t in tile.targets() {
            ind[t as usize] += tile.in_degree(t);
        }
    }
    (out, ind)
}

/// Run every registry program for a few BSP rounds over the tiles, calling
/// `check` on every round with the tiles, the replica and the frontier that
/// round starts from. The context's operand array is what the engine fills
/// from the declaration
/// ([`Declaration::fill_operand`](crate::gab::Declaration::fill_operand)).
fn for_every_program_and_round(
    mut check: impl FnMut(&dyn GabProgram, &[Tile], &[VertexId], &VertexContext<'_>),
) {
    for weighted in [false, true] {
        let tiles = tiles(weighted);
        let (out_degrees, _) = degrees(&tiles);
        for spec in PROGRAMS {
            let program = spec
                .build(&ProgramContext::new(&out_degrees), &ProgramOptions::new())
                .expect("default options");
            let program = program.as_ref();
            let init = InitContext {
                num_vertices: NUM_VERTICES as u64,
            };
            let declared = program.declaration(NUM_VERTICES as u64);
            let mut values: Vec<f64> = (0..NUM_VERTICES as u32)
                .map(|v| program.initial_value(v, &init))
                .collect();
            let initial = program.initial_frontier(NUM_VERTICES as u64);
            let starts_everywhere = initial.is_none();
            let mut frontier = initial.unwrap_or_else(|| (0..NUM_VERTICES as u32).collect());
            let mut prepared = Vec::new();
            for superstep in 0..4 {
                declared.fill_operand(&values, &out_degrees, &mut prepared);
                let ctx = VertexContext {
                    values: &values,
                    out_degrees: &out_degrees,
                    superstep,
                    prepared: &prepared,
                };
                let run_everything = superstep == 0 && starts_everywhere;
                check(program, &tiles, &frontier, &ctx);
                let mut updates = Vec::new();
                for tile in &tiles {
                    updates.extend(program.gather_tile(tile, run_everything, &ctx).updates);
                }
                frontier = updates.iter().map(|&(v, _)| v).collect();
                for (v, value) in updates {
                    values[v as usize] = value;
                }
            }
        }
    }
}

#[test]
fn gather_tile_is_the_old_per_target_loop_bit_for_bit() {
    let (mut compared, mut final_edges) = (0, 0);
    for_every_program_and_round(|program, tiles, _frontier, ctx| {
        for (tile, run_everything) in tiles.iter().flat_map(|t| [(t, false), (t, true)]) {
            let got = program.gather_tile(tile, run_everything, ctx);
            let want = reference_gather_tile(program, tile, run_everything, ctx);
            let context = format!(
                "{} tile {} superstep {} run_everything {run_everything}",
                program.name(),
                tile.tile_id,
                ctx.superstep
            );
            assert_eq!(bits(&got).0, bits(&want).0, "{context}");
            // Every in-edge but those of the targets the program calls final.
            let settled: u64 = tile
                .targets()
                .filter(|&t| old_is_final(program.name(), ctx.values[t as usize]))
                .map(|t| u64::from(tile.in_degree(t)))
                .sum();
            assert_eq!(got.edges_processed, tile.num_edges() - settled, "{context}");
            assert_eq!(got.edges_processed + settled, want.edges_processed);
            compared += got.updates.len();
            final_edges += settled;
        }
    });
    assert!(compared > 100, "the rounds must produce updates to compare");
    assert!(
        final_edges > 50,
        "the BFS rounds must settle targets to skip"
    );
}

/// Every registry program's declared fold is the gather and the scatter it
/// replaced, bit for bit, on every target of every tile of every round,
/// weighted and unweighted, through the tile's own slices:
///
/// * pull — the fold's accumulator is the old gather's, and so is the update
///   the declaration makes of it. The one difference is the sign of an
///   empty sum: the fold's `Sum` starts at `+0.0`, PageRank's old loop did
///   too, and degree centrality's `Iterator::sum` started at `-0.0`. Over no
///   in-edge degree centrality now gathers `+0.0`, which `apply` keeps and
///   the update test does not count against the initial `0.0` — the same
///   update (none) and the same value;
/// * push — for a min fold, every in-edge pushed alone contributes what the
///   old scatter emitted for it, and the contributions folded in reverse
///   are the pull fold's answer for every target the pull loop runs. A
///   program with no min fold had no scatter, and one without a fold had a
///   gather of its own.
///
/// The tiles hold zero-in-degree targets, the hub, single-edge targets and a
/// duplicated weighted `(source, target)` pair; each must be compared.
#[test]
fn declared_folds_are_the_old_gathers_and_scatters_bit_for_bit() {
    let (mut empty, mut single, mut hub, mut duplicate, mut pushed) = (0, 0, 0, 0, 0);
    for_every_program_and_round(|program, tiles, _frontier, ctx| {
        let name = program.name();
        let declared = program.declaration(NUM_VERTICES as u64);
        let Some(fold) = declared.fold else {
            let mut nothing = Edges::new(&[], None);
            assert_eq!(old_gather(name, &mut nothing, ctx), None, "{name}");
            return;
        };
        let had_scatter = old_scatter(name, 0.0, &mut Edges::new(&[], None), &mut |_, _| {});
        assert_eq!(had_scatter, fold.pushes(), "{name}");
        for tile in tiles {
            let spans = tile.offsets().windows(2);
            for (target, span) in tile.targets().zip(spans) {
                let (lo, hi) = (span[0] as usize, span[1] as usize);
                let sources = &tile.sources()[lo..hi];
                let weights = tile.weights().map(|w| &w[lo..hi]);
                let edges = || Edges::new(sources, weights);
                let got = fold.gather(&mut edges(), ctx);
                let want = old_gather(name, &mut edges(), ctx).expect("a hand-written gather");
                let context = format!(
                    "{name} tile {} target {target} superstep {}",
                    tile.tile_id, ctx.superstep
                );
                if sources.is_empty() && want == 0.0 {
                    assert_eq!(got.to_bits(), 0.0f64.to_bits(), "{context}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{context}");
                }
                let current = ctx.values[target as usize];
                let update = |accum| declared.updated(accum, current).map(f64::to_bits);
                assert_eq!(update(got), update(want), "{context}");

                match sources.len() {
                    0 => empty += 1,
                    1 => single += 1,
                    _ if target == 1 => hub += 1,
                    _ => {}
                }
                duplicate += usize::from(target == 2 && tile.is_weighted());
                if !fold.pushes() {
                    continue;
                }
                let x = fold.operands(ctx);
                let mut least = f64::INFINITY;
                let in_edges: Vec<(VertexId, f32)> = edges().collect();
                for &(source, w) in in_edges.iter().rev() {
                    let mut emitted = Vec::new();
                    let alone = std::slice::from_ref(&target);
                    let mut alone = Edges::new(alone, Some(std::slice::from_ref(&w)));
                    old_scatter(name, x[source as usize], &mut alone, &mut |t, c| {
                        emitted.push((t, c.to_bits()))
                    });
                    let contribution = fold.edge.of(x[source as usize], w);
                    assert_eq!(emitted, [(target, contribution.to_bits())], "{context}");
                    least = least.min(contribution);
                    pushed += 1;
                }
                if !declared.finality.holds(current) {
                    assert_eq!(least.to_bits(), got.to_bits(), "{context}");
                }
            }
        }
    });
    assert!(
        empty > 50 && single > 20 && hub > 20 && duplicate > 10 && pushed > 300,
        "{empty} empty, {single} single-edge, {hub} hub and {duplicate} duplicate-pair \
         targets, {pushed} edges pushed"
    );
}

/// Every registry program's declared `apply`, update test and finality are
/// the hooks they replaced, bit for bit, on every target of every tile of
/// every round, weighted and unweighted: for the accumulator the program
/// gathers there and for the values beside it where the shapes differ (the
/// target's own value, ±0, +∞, one more). And the
/// [`Operand::ValuePerOutEdge`](crate::gab::Operand) array the engine fills
/// every round is what PageRank's `prepare` made, and nothing for the rest.
#[test]
fn declared_apply_update_and_finality_are_the_old_hooks_bit_for_bit() {
    let (mut applied, mut updates, mut settled, mut quotients) = (0, 0, 0, 0);
    let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for_every_program_and_round(|program, tiles, _frontier, ctx| {
        let name = program.name();
        let declared = program.declaration(NUM_VERTICES as u64);
        let mut prepared = Vec::new();
        old_prepare(name, ctx.values, ctx.out_degrees, &mut prepared);
        let round = format!("{name} superstep {}", ctx.superstep);
        assert_eq!(bits(ctx.prepared), bits(&prepared), "{round}");
        quotients += prepared.len();
        for tile in tiles {
            let spans = tile.offsets().windows(2);
            for (target, span) in tile.targets().zip(spans) {
                let (lo, hi) = (span[0] as usize, span[1] as usize);
                let weights = tile.weights().map(|w| &w[lo..hi]);
                let mut in_edges = Edges::new(&tile.sources()[lo..hi], weights);
                let gathered = program.gather(target, &mut in_edges, ctx);
                let current = ctx.values[target as usize];
                let context = format!("{round} tile {} target {target}", tile.tile_id);
                let is_final = old_is_final(name, current);
                assert_eq!(declared.finality.holds(current), is_final, "{context}");
                settled += usize::from(is_final);
                for accum in [gathered, current, 0.0, -0.0, f64::INFINITY, gathered + 1.0] {
                    let new = declared.apply.of(accum, current);
                    let old = old_apply(name, accum, current, ctx);
                    assert_eq!(new.to_bits(), old.to_bits(), "{context} accum {accum}");
                    let moved = old_is_update(name, current, old);
                    assert_eq!(declared.update.holds(current, new), moved, "{context}");
                    let got = declared.updated(accum, current).map(f64::to_bits);
                    let want = old_update(name, accum, current, ctx).map(f64::to_bits);
                    assert_eq!(got, want, "{context} accum {accum}");
                    applied += 1;
                    updates += usize::from(moved);
                }
            }
        }
    });
    assert!(
        applied > 3_000 && updates > 1_000 && settled > 30 && quotients > 50,
        "{applied} applied, {updates} updates, {settled} final values, {quotients} quotients"
    );
}

/// PageRank's gather before its quotients were divided once per vertex: a
/// division on every in-edge, skipping sources without out-edges.
fn reference_pagerank_gather(in_edges: &[VertexId], ctx: &VertexContext<'_>) -> f64 {
    let mut accum = 0.0;
    for &src in in_edges {
        let d = ctx.out_degrees[src as usize];
        if d > 0 {
            accum += ctx.values[src as usize] / f64::from(d);
        }
    }
    accum
}

/// PageRank sums the quotients the engine divided once per vertex; the loop
/// it replaced divided on every edge. The same divisions, summed in the same
/// order: the same bits, for every target of every round.
#[test]
fn pagerank_prepared_gather_is_the_per_edge_division_bit_for_bit() {
    let mut compared = 0;
    for_every_program_and_round(|program, tiles, _frontier, ctx| {
        if program.name() != "pagerank" {
            return;
        }
        for (tile, target) in tiles.iter().flat_map(|t| t.targets().map(move |v| (t, v))) {
            let (sources, weights): (Vec<VertexId>, Vec<f32>) = tile.in_edges(target).unzip();
            let got = program.gather(target, &mut Edges::new(&sources, Some(&weights)), ctx);
            let want = reference_pagerank_gather(&sources, ctx);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "tile {} target {target} superstep {}",
                tile.tile_id,
                ctx.superstep
            );
            compared += sources.len();
        }
    });
    assert!(compared > 50, "{compared} edges compared");
}

/// BFS's gather stops at the first visited in-neighbour; a full `min` fold
/// over every in-edge is the answer it must still give, bit for bit, for
/// every target the pull loop runs in every round — and some target must
/// leave in-edges unread, or the early exit never fired.
#[test]
fn bfs_first_parent_gather_is_the_full_min_fold_bit_for_bit() {
    let (mut compared, mut unread) = (0, 0);
    for_every_program_and_round(|program, tiles, _frontier, ctx| {
        if program.name() != "bfs" {
            return;
        }
        let finality = program.declaration(NUM_VERTICES as u64).finality;
        for (tile, target) in tiles.iter().flat_map(|t| t.targets().map(move |v| (t, v))) {
            if finality.holds(ctx.values[target as usize]) {
                continue;
            }
            let (sources, weights): (Vec<VertexId>, Vec<f32>) = tile.in_edges(target).unzip();
            let mut in_edges = Edges::new(&sources, Some(&weights));
            let got = program.gather(target, &mut in_edges, ctx);
            let want = sources
                .iter()
                .map(|&s| ctx.values[s as usize] + 1.0)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "tile {} target {target} superstep {}",
                tile.tile_id,
                ctx.superstep
            );
            compared += 1;
            unread += in_edges.len();
        }
    });
    assert!(compared > 20, "{compared} targets compared");
    assert!(unread > 0, "no gather stopped before its last in-edge");
}

/// No program but synchronous BFS may call a value final:
/// SSSP distances and WCC labels keep falling after they turn finite.
#[test]
fn only_the_bfs_kernels_claim_final_values() {
    for spec in PROGRAMS {
        let program = spec
            .build(&ProgramContext::new(&[1, 1]), &ProgramOptions::new())
            .expect("default options");
        let finality = program.declaration(2).finality;
        let claims = [0.0, 1.0, 7.5, f64::INFINITY].map(|x| finality.holds(x));
        let is_bfs = spec.name == "bfs";
        assert_eq!(claims, [is_bfs, is_bfs, is_bfs, false], "{}", spec.name);
    }
}

/// What the reference loop makes of one server's tiles: the messages (tile
/// range, update bits), in tile order, and the counters of the tile phase.
fn reference_server_pass(
    program: &dyn GabProgram,
    tiles: &[&Tile],
    active: &[VertexId],
    ctx: &VertexContext<'_>,
) -> (Messages, [u64; 4]) {
    let mut messages = Vec::new();
    let mut counters = [0u64; 4];
    for tile in tiles {
        let Some(result) = reference_scatter_tile(program, tile, active, ctx) else {
            counters[1] += 1;
            continue;
        };
        counters[0] += 1;
        counters[2] += result.edges_processed;
        counters[3] += result.updates.len() as u64;
        if !result.updates.is_empty() {
            messages.push(((tile.target_start, tile.target_end), bits(&result).0));
        }
    }
    (messages, counters)
}

/// One server's messages: tile range and update bits, in message order.
type Messages = Vec<((VertexId, VertexId), Vec<(VertexId, u64)>)>;

/// `tiles_processed`, `tiles_skipped`, `edges_processed`,
/// `messages_produced`.
fn counters(metrics: &ServerMetrics) -> [u64; 4] {
    [
        metrics.tiles_processed,
        metrics.tiles_skipped,
        metrics.edges_processed,
        metrics.messages_produced,
    ]
}

/// Every server's push pass, on one server or two, with one compute thread
/// or two, is the old per-edge loop run tile by tile over that server's
/// tiles: the same messages, in the same order, with the same update bits,
/// and the same tile and edge counters. The frontiers are every round's
/// own, thinner ones that miss tiles, the hub alone (it feeds three tiles),
/// a vertex that feeds only the first tile, one that feeds no tile, and
/// nothing.
#[test]
fn the_server_push_pass_is_the_old_per_edge_loop_bit_for_bit() {
    let (mut compared, mut skipped) = (0, 0);
    let graphs = [partitioned(false), partitioned(true)];
    for_every_program_and_round(|program, tiles, frontier, ctx| {
        if !program.supports_push() {
            return;
        }
        let weighted = tiles[0].is_weighted();
        let graph = &graphs[usize::from(weighted)];
        assert_eq!(graph.tiles, tiles);
        let frontiers = [
            frontier.to_vec(),
            frontier.iter().copied().step_by(2).collect(),
            frontier.iter().copied().take(1).collect(),
            vec![1],
            vec![3],
            vec![10],
            vec![3, 10, 11],
            Vec::new(),
        ];
        for (num_servers, threads) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(num_servers))
                .with_threads_per_server(threads)
                .with_direction_mode(DirectionMode::ForcePush);
            let plan = ExecutionPlan::prepare(&config, graph, program).unwrap();
            for sid in 0..num_servers {
                let mut server = ServerState::build(&config, &plan, graph, sid);
                server.values = ctx.values.to_vec();
                let own: Vec<&Tile> = server.tiles.iter().map(|&t| &tiles[t as usize]).collect();
                for active in &frontiers {
                    let view = plan.frontier_view(program, active);
                    assert_eq!(view.direction, Direction::Push);
                    let phase = server
                        .run_tile_phase(program, &plan, ctx.superstep, &view, true)
                        .unwrap();
                    let got: Messages = phase
                        .messages
                        .iter()
                        .map(|m| {
                            let updates = m.updates.iter().map(|&(v, x)| (v, x.to_bits()));
                            ((m.range_start, m.range_end), updates.collect())
                        })
                        .collect();
                    let (want, want_counters) = reference_server_pass(program, &own, active, ctx);
                    let context = format!(
                        "{} weighted {weighted} server {sid} of {num_servers}, T = {threads}, \
                         superstep {} frontier {active:?}",
                        program.name(),
                        ctx.superstep
                    );
                    assert_eq!(got, want, "{context}");
                    assert_eq!(counters(&phase.metrics), want_counters, "{context}");
                    assert_eq!(server.values, ctx.values, "{context}");
                    compared += want.iter().map(|(_, u)| u.len()).sum::<usize>();
                    skipped += want_counters[1];
                }
            }
        }
    });
    assert!(
        compared > 500 && skipped > 500,
        "{compared} updates, {skipped} skips"
    );
}
