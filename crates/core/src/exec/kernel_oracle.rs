//! Oracle for the two tile loops: [`GabProgram::gather_tile`] and
//! `PushIndex::scatter_tile` against the loops they replaced, bit for bit.
//!
//! The references below are the old engine loops: per target (per edge, for
//! push) through `&mut dyn Iterator` over [`Tile::in_edges`], with `apply` and
//! `is_update` called through the `&dyn GabProgram`. They share nothing with
//! the slice kernels — not `Tile::offsets`, not `PushIndex` — so agreeing on
//! updates, their order and the edge count means the slicing is right, for
//! every registry program, weighted or not, `run_everything` or not.

use super::PushIndex;
use crate::gab::{Edges, GabProgram, InitContext, TileUpdates, VertexContext};
use crate::registry::{ProgramContext, ProgramOptions, PROGRAMS};
use graphh_graph::ids::VertexId;
use graphh_partition::Tile;

const NUM_VERTICES: usize = 10;

/// Four tiles over vertices `0..10`: one with zero-in-degree targets (0, 3),
/// a hub (1, with a self-loop) and a target whose three in-edges are the same
/// `(source, target)` pair under different weights (2); a single-vertex tile;
/// one more with a gap; and an empty tile past the end.
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
    let last = vec![vec![(6, 1.0)], vec![], vec![(8, 2.0), (7, 1.0), (4, 0.75)]];
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

/// The push loop, without the transpose: the tile's edges stably sorted by
/// source, those out of `active` scattered one edge at a time.
fn reference_scatter_tile(
    program: &dyn GabProgram,
    tile: &Tile,
    active: &[VertexId],
    ctx: &VertexContext<'_>,
) -> Option<TileUpdates> {
    let mut edges: Vec<(VertexId, VertexId, f32)> = tile
        .targets()
        .flat_map(|t| tile.in_edges(t).map(move |(s, w)| (s, t, w)))
        .filter(|(s, ..)| active.contains(s))
        .collect();
    if edges.is_empty() {
        return None;
    }
    edges.sort_by_key(|&(source, ..)| source);
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
            let mut frontier: Vec<VertexId> = (0..NUM_VERTICES as u32).collect();
            for superstep in 0..4 {
                let ctx = VertexContext {
                    values: &values,
                    out_degrees: &out_degrees,
                    in_degrees: &in_degrees,
                    num_vertices: NUM_VERTICES as u64,
                    superstep,
                };
                let run_everything = superstep == 0 && program.run_all_vertices_initially();
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
    let mut compared = 0;
    for_every_program_and_round(|program, tile, _frontier, ctx| {
        for run_everything in [false, true] {
            let got = program.gather_tile(tile, run_everything, ctx);
            let want = reference_gather_tile(program, tile, run_everything, ctx);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{} tile {} superstep {} run_everything {run_everything}",
                program.name(),
                tile.tile_id,
                ctx.superstep
            );
            compared += got.updates.len();
        }
    });
    assert!(compared > 100, "the rounds must produce updates to compare");
}

#[test]
fn scatter_tile_is_the_old_per_edge_loop_bit_for_bit() {
    let (mut compared, mut skipped) = (0, 0);
    for_every_program_and_round(|program, tile, frontier, ctx| {
        if !program.supports_push() {
            return;
        }
        let index = PushIndex::build(tile);
        // The round's own frontier, and thinner ones that miss some tiles.
        let halves = [
            frontier.to_vec(),
            frontier.iter().copied().step_by(2).collect(),
            frontier.iter().copied().take(1).collect(),
            Vec::new(),
        ];
        for active in &halves {
            let got = index.scatter_tile(program, active, ctx);
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
