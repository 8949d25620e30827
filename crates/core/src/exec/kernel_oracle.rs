//! Oracle for the two tile loops: [`GabProgram::gather_tile`] and
//! `exec::scatter_tile` against the loops they replaced, bit for bit.
//!
//! The references below are the old engine loops: per target (per edge, for
//! push) through `&mut dyn Iterator` over [`Tile::in_edges`], with `apply` and
//! `is_update` called through the `&dyn GabProgram`. They share nothing with
//! the slice kernels — not `Tile::offsets`, not `PushIndex` — so agreeing on
//! updates, their order and the edge count means the slicing is right, for
//! every registry program, weighted or not, `run_everything` or not.
//!
//! The reference pull loop also knows nothing of [`GabProgram::is_final`]: it
//! gathers every target, so agreeing on the updates is the check that a
//! program's claim is honest (a skipped target would not have moved) and the
//! edge count is compared with the in-degrees of the targets left to run.
//! BFS's gather, which stops at the first visited in-neighbour, is held to
//! a full `min` fold over every in-edge of every target left to run.
//! PageRank's gather — a sum of what its [`GabProgram::prepare`] divided once
//! per vertex — is held to the division on every edge it replaced. (The
//! transpose itself, `PushIndex`, is held to a stable sort of the tile's
//! edges where it is built, in `graphh-partition`.)

use super::scatter_tile;
use crate::gab::{Edges, GabProgram, InitContext, TileUpdates, VertexContext};
use crate::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_graph::ids::VertexId;
use graphh_partition::{PushIndex, Tile};

const NUM_VERTICES: usize = 10;

/// Four tiles over vertices `0..10`: one with zero-in-degree targets (0, 3),
/// a hub (1, with a self-loop) and a target whose three in-edges are the same
/// `(source, target)` pair under different weights (2); a single-vertex tile;
/// one more with a gap and a target (7) whose weighted distance from the hub
/// falls twice; and an empty tile past the end.
fn tiles(weighted: bool) -> Vec<Tile> {
    let hub = (0..NUM_VERTICES as u32)
        .map(|s| (s, 0.25 + s as f32))
        .collect();
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
        Tile::from_adjacency(3, 10, &[], weighted),
    ]
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
        let accum = program.gather(target, &mut Edges::new(&sources, Some(&weights)), ctx);
        let current = ctx.values[target as usize];
        let new = program.apply(target, accum, current, ctx);
        edges_processed += u64::from(in_degree);
        if program.is_update(current, new) {
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
        program.scatter(source, value, &mut out_edge, &mut |t, contribution| {
            let slot = &mut acc[(t - tile.target_start) as usize];
            *slot = Some(slot.map_or(contribution, |a| program.combine(a, contribution)));
        });
    }
    let mut updates = Vec::new();
    for (target, accum) in tile.targets().zip(acc) {
        let Some(accum) = accum else { continue };
        let current = ctx.values[target as usize];
        let new = program.apply(target, accum, current, ctx);
        if program.is_update(current, new) {
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
/// `check` on every tile of every round with the replica and the frontier
/// that round starts from.
fn for_every_program_and_round(
    mut check: impl FnMut(&dyn GabProgram, &Tile, &[VertexId], &VertexContext<'_>),
) {
    for weighted in [false, true] {
        let tiles = tiles(weighted);
        let (out_degrees, in_degrees) = degrees(&tiles);
        for spec in PROGRAMS {
            let program = spec
                .build(&ProgramContext::new(&out_degrees), &ProgramOptions::new())
                .expect("default options");
            let program = program.as_ref();
            let init = InitContext {
                num_vertices: NUM_VERTICES as u64,
                out_degrees: &out_degrees,
                in_degrees: &in_degrees,
            };
            let mut values: Vec<f64> = (0..NUM_VERTICES as u32)
                .map(|v| program.initial_value(v, &init))
                .collect();
            let initial = program.initial_frontier(NUM_VERTICES as u64);
            let starts_everywhere = initial.is_none();
            let mut frontier = initial.unwrap_or_else(|| (0..NUM_VERTICES as u32).collect());
            let mut prepared = Vec::new();
            for superstep in 0..4 {
                program.prepare(&values, &out_degrees, &mut prepared);
                let ctx = VertexContext {
                    values: &values,
                    out_degrees: &out_degrees,
                    in_degrees: &in_degrees,
                    num_vertices: NUM_VERTICES as u64,
                    superstep,
                    prepared: &prepared,
                };
                let run_everything = superstep == 0 && starts_everywhere;
                let mut updates = Vec::new();
                for tile in &tiles {
                    check(program, tile, &frontier, &ctx);
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
    for_every_program_and_round(|program, tile, _frontier, ctx| {
        for run_everything in [false, true] {
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
                .filter(|&t| program.is_final(ctx.values[t as usize]))
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

/// PageRank's gather before [`GabProgram::prepare`]: a division on every
/// in-edge, skipping sources without out-edges.
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

/// PageRank sums the quotients its `prepare` divided once per vertex; the
/// loop it replaced divided on every edge. The same divisions, summed in the
/// same order: the same bits, for every target of every round.
#[test]
fn pagerank_prepared_gather_is_the_per_edge_division_bit_for_bit() {
    let mut compared = 0;
    for_every_program_and_round(|program, tile, _frontier, ctx| {
        if program.name() != "pagerank" {
            return;
        }
        for target in tile.targets() {
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
    for_every_program_and_round(|program, tile, _frontier, ctx| {
        if program.name() != "bfs" {
            return;
        }
        for target in tile.targets() {
            if program.is_final(ctx.values[target as usize]) {
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
        let claims = [0.0, 1.0, 7.5, f64::INFINITY].map(|x| program.is_final(x));
        let is_bfs = spec.name == "bfs";
        assert_eq!(claims, [is_bfs, is_bfs, is_bfs, false], "{}", spec.name);
    }
}

#[test]
fn scatter_tile_is_the_old_per_edge_loop_bit_for_bit() {
    let (mut compared, mut skipped) = (0, 0);
    for_every_program_and_round(|program, tile, frontier, ctx| {
        if !program.supports_push() {
            return;
        }
        let index = &PushIndex::for_tiles([tile], NUM_VERTICES as u64)[0];
        // The round's own frontier, and thinner ones that miss some tiles.
        let halves = [
            frontier.to_vec(),
            frontier.iter().copied().step_by(2).collect(),
            frontier.iter().copied().take(1).collect(),
            Vec::new(),
        ];
        for active in &halves {
            let got = scatter_tile(index, program, active, ctx);
            let want = reference_scatter_tile(program, tile, active, ctx);
            assert_eq!(
                got.as_ref().map(bits),
                want.as_ref().map(bits),
                "{} tile {} superstep {} frontier {active:?}",
                program.name(),
                tile.tile_id,
                ctx.superstep
            );
            compared += got.as_ref().map_or(0, |g| g.updates.len());
            skipped += usize::from(got.is_none());
        }
    });
    assert!(
        compared > 50 && skipped > 50,
        "{compared} updates, {skipped} skips"
    );
}
