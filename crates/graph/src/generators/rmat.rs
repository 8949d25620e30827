//! R-MAT (recursive matrix) generator.
//!
//! R-MAT graphs reproduce the heavy-tailed degree distributions of web and social
//! graphs, which is the property the paper's skew-sensitive mechanisms (tile size
//! bounds, PowerGraph vertex cuts, sparse/dense broadcast) react to.
//!
//! # Sampling on raw draws
//!
//! Each level of an edge picks a quadrant from one uniform draw `r` against
//! the cumulative probabilities `a`, `a + b` and `a + b + c`. The generator
//! never forms `r`: the unit-interval `f64` the `rand` stand-in hands out is
//! exactly `(x >> 11) · 2⁻⁵³` for the raw 64-bit draw `x` (a value below
//! 2⁵³ converts to `f64` without rounding, and scaling by a power of two is
//! exact). So `r >= t` holds iff `x >> 11 >= t · 2⁵³`, and since the left side
//! is an integer, iff `x >> 11 >= ceil(t · 2⁵³)` — where `t · 2⁵³` is again an
//! exact scaling. The three ceilings are computed once per generator, and a
//! level's quadrant is the number of them the shifted draw reaches. The edge
//! lists are the float rule's edge for edge (the tests keep that rule as
//! the oracle).
//!
//! # Sampling in lanes
//!
//! An edge is `scale` consecutive draws, so edge `i` starts at draw
//! `i · scale` of the seeded stream, and the vendored generator can seek
//! there in 256 state updates (`ChaCha8Rng::advance`: xoshiro's update is
//! linear over GF(2), so `k` updates are a sum of the first 256 states,
//! chosen by `x^k` modulo its characteristic polynomial). The `m` edges are
//! cut into `L` runs of `⌊m / L⌋`: lane `l` is a clone of the seeded
//! generator advanced to edge `l · ⌊m / L⌋`, and one body, generic over `L`,
//! samples every lane's next edge level by level in lockstep, so the `L`
//! generators' updates are one instruction stream over `L` independent
//! states. The `m mod L` edges left over continue from where the last lane
//! stopped, which is where they start in the stream. One pass over the two
//! finished columns then counts the degrees. Every run writes the edges the
//! one-lane loop would, so the edge list does not depend on `L`.
//!
//! `generate` picks `L` once per call: eight lanes, compiled for AVX-512F
//! (one 512-bit register holds a state word of all eight generators), when
//! `is_x86_feature_detected!` finds it, and one lane, the same body,
//! everywhere else. Nothing else selects the width. The tests hold every
//! width this host runs, and a portable three, to the float rule's oracle.

use super::GraphGenerator;
use crate::builder::GraphBuilder;
use crate::edge::{Edge, EdgeList};
use crate::ids::VertexId;
use crate::Graph;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Kronecker/R-MAT generator: `2^scale` vertices, `edge_factor * 2^scale` edges.
#[derive(Debug, Clone)]
pub struct RmatGenerator {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex.
    pub edge_factor: u32,
    /// Quadrant probability a (top-left). Defaults follow the Graph500 values.
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Drop duplicate edges and self loops.
    pub simplify: bool,
}

impl RmatGenerator {
    /// Graph500-style parameters (a=0.57, b=0.19, c=0.19, d=0.05).
    pub fn new(scale: u32, edge_factor: u32) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            simplify: false,
        }
    }

    /// Override the quadrant probabilities (`d` is implied as `1 - a - b - c`).
    pub fn with_probabilities(mut self, a: f64, b: f64, c: f64) -> Self {
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
        self.a = a;
        self.b = b;
        self.c = c;
        self
    }

    /// Enable de-duplication and self-loop removal.
    pub fn simplified(mut self) -> Self {
        self.simplify = true;
        self
    }

    /// Number of vertices this generator will produce.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edges this generator will attempt to produce (before simplification).
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * u64::from(self.edge_factor)
    }

    /// The unsimplified edge list's two id columns, sampled in the widest
    /// lanes this host runs (see the module docs).
    fn sample(&self, seed: u64) -> (Vec<VertexId>, Vec<VertexId>) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the one feature `sample_avx512` is compiled for,
            // AVX-512F, is the one `is_x86_feature_detected!` just found.
            return unsafe { self.sample_avx512(seed) };
        }
        self.sample_lanes::<1>(seed)
    }

    /// Eight lanes compiled for AVX-512F, where one register holds a state
    /// word of all eight generators.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn sample_avx512(&self, seed: u64) -> (Vec<VertexId>, Vec<VertexId>) {
        self.sample_lanes::<8>(seed)
    }

    /// The edge list in `L` lanes: lane `l` starts from the seeded generator
    /// advanced to edge `l · ⌊m / L⌋` and samples that many edges, all lanes
    /// in lockstep; the `m mod L` edges left over continue from where the
    /// last lane stopped. Always inlined, so that the AVX-512F instance is
    /// compiled for that feature.
    #[inline(always)]
    fn sample_lanes<const L: usize>(&self, seed: u64) -> (Vec<VertexId>, Vec<VertexId>) {
        let quadrants = Quadrants::new(self);
        let m = self.num_edges() as usize;
        let per_lane = m / L;
        let seeded = ChaCha8Rng::seed_from_u64(seed);
        let mut lanes: [ChaCha8Rng; L] = std::array::from_fn(|l| {
            let mut lane = seeded.clone();
            lane.advance((l * per_lane) as u64 * u64::from(self.scale));
            lane
        });
        let mut srcs = vec![0; m];
        let mut dsts = vec![0; m];
        let (lane_srcs, left_srcs) = srcs.split_at_mut(L * per_lane);
        let (lane_dsts, left_dsts) = dsts.split_at_mut(L * per_lane);
        sample_in_lockstep(&mut lanes, quadrants, self.scale, lane_srcs, lane_dsts);
        let last = std::array::from_mut(&mut lanes[L - 1]);
        sample_in_lockstep(last, quadrants, self.scale, left_srcs, left_dsts);
        (srcs, dsts)
    }

    /// The graph of the sampled columns: deduplicated and without self
    /// loops if simplified, otherwise as sampled, its degrees counted in one
    /// pass.
    fn build(&self, srcs: Vec<VertexId>, dsts: Vec<VertexId>) -> Graph {
        let built = if self.simplify {
            let mut builder = GraphBuilder::new()
                .with_num_vertices(self.num_vertices())
                .dedup(true)
                .drop_self_loops(true);
            for (src, dst) in srcs.into_iter().zip(dsts) {
                builder.add_edge(Edge::new(src, dst));
            }
            builder.build()
        } else {
            Graph::from_edges(self.num_vertices(), EdgeList::from_columns(srcs, dsts))
        };
        built.expect("rmat edges are in range by construction")
    }
}

/// Fill `srcs` and `dsts` as `L` equal runs, run `l` sampled from
/// `lanes[l]`. An edge is `scale` raw draws, high bit first, each choosing a
/// quadrant `q` (bit 1 the source's bit, bit 0 the target's), packed two
/// bits a level and split into the two ids once. Every lane draws the same
/// level at the same time, so the lanes' generator updates are one
/// instruction stream over `L` states. Always inlined, like its caller.
#[inline(always)]
fn sample_in_lockstep<const L: usize>(
    lanes: &mut [ChaCha8Rng; L],
    quadrants: Quadrants,
    scale: u32,
    srcs: &mut [VertexId],
    dsts: &mut [VertexId],
) {
    let per_lane = srcs.len() / L;
    for e in 0..per_lane {
        let mut z = [0u64; L];
        for _ in 0..scale {
            for (z, lane) in z.iter_mut().zip(lanes.iter_mut()) {
                *z = *z << 2 | quadrants.of(lane.next_u64());
            }
        }
        // Every lane split before any is stored: at eight lanes on an
        // AVX-512 Xeon this sampled about a fifth faster than splitting
        // each lane as it is stored.
        let src: [u64; L] = std::array::from_fn(|l| even_bits(z[l] >> 1));
        let dst: [u64; L] = std::array::from_fn(|l| even_bits(z[l]));
        for l in 0..L {
            srcs[l * per_lane + e] = src[l] as VertexId;
            dsts[l * per_lane + e] = dst[l] as VertexId;
        }
    }
}

/// The quadrant boundaries `a`, `a + b`, `a + b + c` as thresholds on a raw
/// draw shifted right by 11 (see the module docs). They ascend whenever `b`
/// and `c` are non-negative numbers, which [`RmatGenerator::with_probabilities`]
/// asserts; then the count of thresholds reached is the quadrant.
#[derive(Debug, Clone, Copy)]
struct Quadrants([u64; 3]);

impl Quadrants {
    fn new(gen: &RmatGenerator) -> Self {
        let ab = gen.a + gen.b;
        let abc = ab + gen.c;
        Self([
            draw_threshold(gen.a),
            draw_threshold(ab),
            draw_threshold(abc),
        ])
    }

    /// The quadrant (0..=3) raw draw `x` picks.
    #[inline]
    fn of(&self, x: u64) -> u64 {
        let y = x >> 11;
        let [a, ab, abc] = self.0;
        u64::from(y >= a) + u64::from(y >= ab) + u64::from(y >= abc)
    }
}

/// The least `k` with `k · 2⁻⁵³ >= t`, i.e. `ceil(t · 2⁵³)`. The cast
/// saturates: a negative `t` is reached by every draw (0), a `t >= 1` by none
/// (at least 2⁵³, past every `x >> 11`).
fn draw_threshold(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// Bits 0, 2, 4, … of `z` packed into the low half.
#[inline]
fn even_bits(z: u64) -> u64 {
    let mut x = z & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0x0000_0000_ffff_ffff
}

impl GraphGenerator for RmatGenerator {
    fn generate(&self, seed: u64) -> Graph {
        let (srcs, dsts) = self.sample(seed);
        self.build(srcs, dsts)
    }

    fn describe(&self) -> String {
        format!(
            "rmat(scale={}, edge_factor={}, a={}, b={}, c={})",
            self.scale, self.edge_factor, self.a, self.b, self.c
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeHistogram;
    use rand::Rng;

    /// One level of the float rule: a three-way `if` on the uniform `r`.
    fn float_quadrant(gen: &RmatGenerator, r: f64) -> u64 {
        if r < gen.a {
            0
        } else if r < gen.a + gen.b {
            1
        } else if r < gen.a + gen.b + gen.c {
            2
        } else {
            3
        }
    }

    /// The generator as it stood before the integer sampler, the degrees
    /// counted while sampling and the pre-sized edge list: an `f64` per
    /// level through [`float_quadrant`], every edge through `GraphBuilder`.
    /// Kept as the oracle the live one is compared with.
    fn reference_generate(gen: &RmatGenerator, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new()
            .with_num_vertices(gen.num_vertices())
            .dedup(gen.simplify)
            .drop_self_loops(gen.simplify);
        for _ in 0..gen.num_edges() {
            let (mut src, mut dst) = (0u64, 0u64);
            for level in (0..gen.scale).rev() {
                let q = float_quadrant(gen, rng.gen());
                src |= (q >> 1) << level;
                dst |= (q & 1) << level;
            }
            builder.add_edge(Edge::new(src as VertexId, dst as VertexId));
        }
        builder.build().unwrap()
    }

    #[test]
    fn matches_the_branchy_reference_edge_for_edge() {
        let cases = [
            (10, 8, 0.57, 0.19, 0.19),
            (7, 16, 0.45, 0.15, 0.15),
            (12, 3, 0.25, 0.25, 0.25),
            (9, 5, 0.9, 0.0, 0.05),
            (6, 4, 0.1, 0.6, 0.0),
            (1, 9, 0.57, 0.19, 0.19),
            (0, 3, 0.57, 0.19, 0.19),
        ];
        for (scale, edge_factor, a, b, c) in cases {
            for seed in [0, 1, 2017, u64::MAX] {
                let plain = RmatGenerator::new(scale, edge_factor).with_probabilities(a, b, c);
                for gen in [plain.clone(), plain.simplified()] {
                    let (got, want) = (gen.generate(seed), reference_generate(&gen, seed));
                    let what = format!("{} seed {seed} simplify {}", gen.describe(), gen.simplify);
                    assert_eq!(got.num_vertices(), want.num_vertices(), "{what}");
                    assert_eq!(got.edges().sources(), want.edges().sources(), "{what}");
                    assert_eq!(got.edges().targets(), want.edges().targets(), "{what}");
                    assert_eq!(got.is_weighted(), want.is_weighted(), "{what}");
                    assert_eq!(got.in_degrees(), want.in_degrees(), "{what}");
                    assert_eq!(got.out_degrees(), want.out_degrees(), "{what}");
                }
            }
        }
    }

    /// The reference oracle's cases plus edge counts that leave edges over
    /// at eight lanes (1, 3, 7, 9, 17, 18, 20), each at four seeds, plain
    /// and simplified.
    fn lane_cases() -> Vec<(RmatGenerator, u64)> {
        let mut cases = vec![
            (10, 8, 0.57, 0.19, 0.19),
            (7, 16, 0.45, 0.15, 0.15),
            (12, 3, 0.25, 0.25, 0.25),
            (9, 5, 0.9, 0.0, 0.05),
            (6, 4, 0.1, 0.6, 0.0),
            (1, 9, 0.57, 0.19, 0.19),
            (0, 3, 0.57, 0.19, 0.19),
        ];
        for (scale, edge_factor) in [(0, 1), (0, 7), (0, 9), (0, 17), (2, 5)] {
            cases.push((scale, edge_factor, 0.57, 0.19, 0.19));
        }
        let mut gens = Vec::new();
        for (scale, edge_factor, a, b, c) in cases {
            let plain = RmatGenerator::new(scale, edge_factor).with_probabilities(a, b, c);
            for seed in [0, 1, 2017, u64::MAX] {
                gens.push((plain.clone(), seed));
                gens.push((plain.clone().simplified(), seed));
            }
        }
        gens
    }

    fn assert_is_the_reference(got: &Graph, gen: &RmatGenerator, seed: u64, lanes: &str) {
        let want = reference_generate(gen, seed);
        let what = format!(
            "{} seed {seed} simplify {} in {lanes}",
            gen.describe(),
            gen.simplify
        );
        assert_eq!(got.num_vertices(), want.num_vertices(), "{what}");
        assert_eq!(got.edges().sources(), want.edges().sources(), "{what}");
        assert_eq!(got.edges().targets(), want.edges().targets(), "{what}");
        assert_eq!(got.is_weighted(), want.is_weighted(), "{what}");
        assert_eq!(got.in_degrees(), want.in_degrees(), "{what}");
        assert_eq!(got.out_degrees(), want.out_degrees(), "{what}");
    }

    /// One lane, what every host without AVX-512F runs, and a portable
    /// three, whose runs and leftovers fall elsewhere than eight's.
    #[test]
    fn every_portable_lane_width_matches_the_branchy_reference() {
        for (gen, seed) in lane_cases() {
            let (srcs, dsts) = gen.sample_lanes::<1>(seed);
            assert_is_the_reference(&gen.build(srcs, dsts), &gen, seed, "one lane");
            let (srcs, dsts) = gen.sample_lanes::<3>(seed);
            assert_is_the_reference(&gen.build(srcs, dsts), &gen, seed, "three lanes");
        }
    }

    /// The eight AVX-512F lanes, through the dispatch `generate` takes.
    #[test]
    fn the_avx512_lanes_match_the_branchy_reference() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            for (gen, seed) in lane_cases() {
                let (srcs, dsts) = gen.sample(seed);
                assert_is_the_reference(&gen.build(srcs, dsts), &gen, seed, "AVX-512F lanes");
            }
            return;
        }
        eprintln!("skipped: no AVX-512F on this CPU, so generate samples in one lane");
    }

    /// Hands out the one raw draw it holds.
    struct Replay(u64);

    impl RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// At each threshold, one below it and at both ends of the draw range,
    /// the integer rule picks the quadrant the `f64` the same draw becomes
    /// picks.
    #[test]
    fn the_integer_quadrant_rule_is_the_float_rule_at_every_threshold() {
        let sets = [
            (0.57, 0.19, 0.19),
            (0.5, 0.2, 0.2),
            (0.9, 0.0, 0.05),
            (0.1, 0.6, 0.0),
            (0.3, 0.0, 0.0),
            (0.25, 0.25, 0.25),
            (1e-300, 0.5, 0.499_999_999_999_999_9),
        ];
        for (a, b, c) in sets {
            let gen = RmatGenerator::new(4, 1).with_probabilities(a, b, c);
            let quadrants = Quadrants::new(&gen);
            let mut draws = vec![0, 1, u64::MAX, u64::MAX - 1];
            for t in quadrants.0 {
                let at = t << 11;
                let next = at.wrapping_add(1 << 11);
                draws.extend([at, at.wrapping_sub(1), next.wrapping_sub(1), next]);
            }
            for x in draws {
                let want = float_quadrant(&gen, Replay(x).gen());
                assert_eq!(quadrants.of(x), want, "a={a} b={b} c={c}, draw {x:#x}");
            }
        }
    }

    #[test]
    fn thresholds_saturate_outside_the_unit_interval() {
        assert_eq!(draw_threshold(-0.5), 0);
        assert_eq!(draw_threshold(0.0), 0);
        assert_eq!(draw_threshold(0.5), 1 << 52);
        assert_eq!(draw_threshold(1.0), 1 << 53);
        assert_eq!(draw_threshold(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn even_bits_splits_an_interleaved_pair() {
        assert_eq!(even_bits(0b1011_0110), 0b0110);
        assert_eq!(even_bits(0b1011_0110 >> 1), 0b1101);
        assert_eq!(even_bits(u64::MAX), u64::from(u32::MAX));
        assert_eq!(even_bits(u64::MAX >> 1 & !1), u64::from(u32::MAX) & !1);
    }

    #[test]
    fn rmat_produces_requested_size() {
        let g = RmatGenerator::new(10, 8).generate(42);
        assert_eq!(g.num_vertices(), 1024);
        assert_eq!(g.num_edges(), 8 * 1024);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = RmatGenerator::new(12, 8).generate(42);
        // Top 1% of vertices should own far more than 1% of in-edges.
        let share = DegreeHistogram::top_percent_share(g.in_degrees(), 1.0);
        assert!(share > 0.10, "expected skew, top 1% share = {share}");
    }

    #[test]
    fn simplified_rmat_has_no_self_loops_or_duplicates() {
        let g = RmatGenerator::new(8, 4).simplified().generate(3);
        let mut seen = std::collections::HashSet::new();
        for e in g.edges().iter() {
            assert_ne!(e.src, e.dst);
            assert!(seen.insert((e.src, e.dst)));
        }
        assert!(g.num_edges() <= 4 * 256);
    }

    #[test]
    #[should_panic]
    fn invalid_probabilities_rejected() {
        let _ = RmatGenerator::new(4, 2).with_probabilities(0.6, 0.3, 0.3);
    }
}
