//! RMAT graph generator (Chakrabarti, Zhan, Faloutsos — SDM 2004).
//!
//! The paper's synthetic workloads are RMAT graphs: "a scale-n RMAT graph
//! has 2^n vertices and 2^(n+4) edges" (§8), i.e. an edge factor of 16.
//!
//! The edge list is one xoshiro256++ stream, `scale` draws per edge and
//! one more per weighted edge. Where the CPU has AVX2 it is written as
//! [`LANES`] lanes: [`Rng::lanes`] jumps the stream to the start of each
//! eighth of the list, and two `u64×4` vectors run the eight descents
//! side by side. The lanes write the edges the single stream writes, in
//! the same slots; the unit tests hold them to the scalar descent.

use chaos_sim::Rng;

use crate::types::{Edge, InputGraph};

/// Configuration of an RMAT generation run.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// Scale: the graph has `2^scale` vertices.
    pub scale: u32,
    /// Edges per vertex; the paper uses 16.
    pub edge_factor: u32,
    /// Quadrant probabilities `(a, b, c)`; `d = 1 - a - b - c`.
    pub probs: (f64, f64, f64),
    /// Whether to attach uniform random weights in `(0, 1)`.
    pub weighted: bool,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// The standard Graph500-style parameters used by X-Stream and Chaos:
    /// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), edge factor 16.
    pub fn paper(scale: u32) -> Self {
        Self {
            scale,
            edge_factor: 16,
            probs: (0.57, 0.19, 0.19),
            weighted: false,
            seed: 0xC4A05,
        }
    }

    /// Same as [`RmatConfig::paper`] but with random edge weights, for the
    /// weighted algorithms (SSSP, MCST).
    pub fn paper_weighted(scale: u32) -> Self {
        Self {
            weighted: true,
            ..Self::paper(scale)
        }
    }

    /// Number of vertices this configuration generates.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edges this configuration generates.
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * self.edge_factor as u64
    }

    /// Generates the graph.
    ///
    /// # Panics
    ///
    /// Panics with [`RmatConfig::try_generate`]'s message where that fails.
    pub fn generate(&self) -> InputGraph {
        self.try_generate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the graph, or says why it cannot.
    ///
    /// # Errors
    ///
    /// The probabilities are malformed (negative, not finite, or summing
    /// above one), `scale >= 48`, or the edge list does not fit in memory.
    pub fn try_generate(&self) -> Result<InputGraph, String> {
        let (a, b, c) = self.probs;
        // `d = 1 - a - b - c` is never formed: in floating point it is
        // negative for legal distributions such as (0.3, 0.3, 0.4).
        if !(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0 + 1e-9) {
            return Err(format!("bad RMAT probabilities {:?}", self.probs));
        }
        if self.scale >= 48 {
            return Err("scale too large to materialize".into());
        }
        let n = self.num_vertices();
        let m = n
            .checked_mul(u64::from(self.edge_factor))
            .and_then(|m| usize::try_from(m).ok())
            .ok_or("edge count overflows")?;
        let mut edges = Vec::new();
        edges
            .try_reserve_exact(m)
            .map_err(|e| format!("cannot hold {m} edges in memory: {e}"))?;
        let descent = Descent {
            scale: self.scale,
            // The same sums, in the same order, as the ladder
            // `r < a`, `r < a + b`, `r < a + b + c` compares against.
            thresholds: [a, a + b, a + b + c].map(threshold),
            weighted: self.weighted,
        };
        fill(Rng::new(self.seed), &mut edges, m, descent);
        Ok(InputGraph::new(n, edges, self.weighted))
    }
}

/// `2^53`: [`Rng::f64`] is `x * 2^-53` for a uniform integer `x < 2^53`.
const UNIT: u64 = 1 << 53;

/// The `t` for which `x < t` is `(x as f64) * 2^-53 < p` for every integer
/// `x < 2^53`. Conversion and scaling by a power of two are both exact, so
/// the `f64` comparison is `x < p * 2^53` over the reals, and for an
/// integer `x` that is `x < ceil(p * 2^53)`; `p >= 1` admits every `x`.
fn threshold(p: f64) -> u64 {
    (p * UNIT as f64).ceil().min(UNIT as f64) as u64
}

/// Edges the AVX2 kernel draws side by side: two vectors of four lanes.
const LANES: usize = 8;

/// What one edge is drawn from: `scale` levels of quadrant descent, then
/// one weight draw if `weighted`.
#[derive(Debug, Clone, Copy)]
struct Descent {
    scale: u32,
    thresholds: [u64; 3],
    weighted: bool,
}

impl Descent {
    /// Draws of the stream per edge.
    fn draws(self) -> u64 {
        u64::from(self.scale) + u64::from(self.weighted)
    }

    fn edge(self, rng: &mut Rng) -> Edge {
        let (src, dst) = sample_edge(rng, self.scale, self.thresholds);
        let weight = if self.weighted {
            weight(rng.next_u64())
        } else {
            1.0
        };
        Edge { src, dst, weight }
    }
}

/// The weight drawn as `bits`: `rng.f64() as f32`, by [`Rng::f64`]'s own
/// expression, kept strictly positive and effectively distinct so the MST
/// oracle comparison is unambiguous.
fn weight(bits: u64) -> f32 {
    (((bits >> 11) as f64 * (1.0 / UNIT as f64)) as f32).max(f32::MIN_POSITIVE)
}

/// Appends `count` edges to `edges`: the descents of `rng`'s stream, one
/// after the other. On `x86_64` with AVX2 the first `count - count % 8`
/// are drawn as [`LANES`] lanes, lane `l` from draw `l·⌊count/8⌋·draws`,
/// and the scalar descent finishes the tail from where the last lane
/// ends; elsewhere the scalar descent draws them all.
fn fill(rng: Rng, edges: &mut Vec<Edge>, count: usize, d: Descent) {
    #[cfg(target_arch = "x86_64")]
    if count >= LANES && is_x86_feature_detected!("avx2") {
        let stride = count / LANES;
        let [lanes @ .., tail] = rng.lanes::<{ LANES + 1 }>(stride as u64 * d.draws());
        edges.reserve(count);
        let body = &mut edges.spare_capacity_mut()[..stride * LANES];
        // SAFETY: `avx2::fill` is compiled with `avx2` enabled and has no
        // other requirement; `avx2` was just detected on this CPU.
        unsafe { avx2::fill(&lanes, body, d) };
        // SAFETY: `avx2::fill` wrote every slot of `body`, the first
        // `stride·LANES` slots past the length, which `reserve` made room for.
        unsafe { edges.set_len(edges.len() + stride * LANES) };
        return fill_scalar(tail, edges, count % LANES, d);
    }
    fill_scalar(rng, edges, count, d)
}

/// [`fill`] by the scalar descent alone, whatever the CPU.
fn fill_scalar(mut rng: Rng, edges: &mut Vec<Edge>, count: usize, d: Descent) {
    // An exact-size iterator: reserved room is filled without a capacity
    // check per edge.
    edges.extend((0..count).map(|_| d.edge(&mut rng)));
}

/// The descent at SIMD width: two `u64×4` vectors hold eight xoshiro256++
/// states word by word, and each level draws for all eight lanes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    use chaos_sim::Rng;

    use super::{weight, Descent, Edge, LANES};

    /// `x` rotated left by `L` bits in each lane; `R` is `64 - L`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x))
    }

    /// [`Rng::next_u64`] in each lane of `s`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn next(s: &mut [__m256i; 4]) -> __m256i {
        let result = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(s[0], s[3])), s[0]);
        let t = _mm256_slli_epi64::<17>(s[1]);
        s[2] = _mm256_xor_si256(s[2], s[0]);
        s[3] = _mm256_xor_si256(s[3], s[1]);
        s[1] = _mm256_xor_si256(s[1], s[2]);
        s[0] = _mm256_xor_si256(s[0], s[3]);
        s[2] = _mm256_xor_si256(s[2], t);
        s[3] = rotl::<45, 19>(s[3]);
        result
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn words(x: __m256i) -> [u64; 4] {
        [
            _mm256_extract_epi64::<0>(x) as u64,
            _mm256_extract_epi64::<1>(x) as u64,
            _mm256_extract_epi64::<2>(x) as u64,
            _mm256_extract_epi64::<3>(x) as u64,
        ]
    }

    /// Writes every slot of `out`: lane `l` draws slots `l·stride ..
    /// (l+1)·stride` from `lanes[l]`, `stride = out.len() / LANES`, by
    /// the scalar descent's arithmetic.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is a positive multiple of [`LANES`] long: the
    /// caller's `set_len` relies on every slot being written.
    #[target_feature(enable = "avx2")]
    pub(super) fn fill(lanes: &[Rng; LANES], out: &mut [MaybeUninit<Edge>], d: Descent) {
        assert!(
            !out.is_empty() && out.len().is_multiple_of(LANES),
            "{} slots are not whole rows of {LANES} lanes",
            out.len()
        );
        let stride = out.len() / LANES;
        let state = lanes.each_ref().map(Rng::state);
        let mut s = [[_mm256_setzero_si256(); 4]; 2];
        for (v, quad) in s.iter_mut().enumerate() {
            for (w, word) in quad.iter_mut().enumerate() {
                let lane = |k: usize| state[4 * v + k][w] as i64;
                *word = _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0));
            }
        }
        // `x >= t` is `x > t - 1`; the signed compare is exact because
        // `x < 2^53` and `0 <= t <= 2^53`.
        let [t0, t1, t2] = d.thresholds.map(|t| _mm256_set1_epi64x(t as i64 - 1));
        let rows: [&mut [MaybeUninit<Edge>]; LANES] = {
            let mut rows = out.chunks_exact_mut(stride);
            std::array::from_fn(|_| rows.next().expect("LANES rows of `stride` slots"))
        };
        for i in 0..stride {
            let mut src = [_mm256_setzero_si256(); 2];
            let mut dst = src;
            for _ in 0..d.scale {
                for v in 0..2 {
                    let x = _mm256_srli_epi64::<11>(next(&mut s[v]));
                    // All ones where the draw reached the threshold. The
                    // quadrant's `src` bit is "reached t1", its `dst` bit
                    // the parity of the thresholds reached; subtracting
                    // all ones sets the bit the shift cleared.
                    let [r0, r1, r2] = [t0, t1, t2].map(|t| _mm256_cmpgt_epi64(x, t));
                    let parity = _mm256_xor_si256(_mm256_xor_si256(r0, r1), r2);
                    src[v] = _mm256_sub_epi64(_mm256_slli_epi64::<1>(src[v]), r1);
                    dst[v] = _mm256_sub_epi64(_mm256_slli_epi64::<1>(dst[v]), parity);
                }
            }
            for v in 0..2 {
                let weights = if d.weighted {
                    words(next(&mut s[v])).map(weight)
                } else {
                    [1.0; 4]
                };
                let (src, dst) = (words(src[v]), words(dst[v]));
                for k in 0..4 {
                    rows[4 * v + k][i].write(Edge {
                        src: src[k],
                        dst: dst[k],
                        weight: weights[k],
                    });
                }
            }
        }
    }
}

/// Draws one edge by recursive quadrant descent, one draw per level. The
/// number of thresholds the draw has reached *is* the quadrant — 0
/// top-left, 1 top-right (`dst` bit), 2 bottom-left (`src` bit), 3
/// bottom-right — so the random outcome never steers a branch.
fn sample_edge(rng: &mut Rng, scale: u32, t: [u64; 3]) -> (u64, u64) {
    let (mut src, mut dst) = (0u64, 0u64);
    for _ in 0..scale {
        let x = rng.next_u64() >> 11;
        let q = u64::from(x >= t[0]) + u64::from(x >= t[1]) + u64::from(x >= t[2]);
        src = (src << 1) | (q >> 1);
        dst = (dst << 1) | (q & 1);
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: the `f64` ladder the generator ran up to PR 16, kept
    /// verbatim. The contract of [`RmatConfig::generate`] is this edge list.
    fn ladder_edge(rng: &mut Rng, scale: u32, (a, b, c): (f64, f64, f64)) -> (u64, u64) {
        let mut src = 0u64;
        let mut dst = 0u64;
        for _ in 0..scale {
            src <<= 1;
            dst <<= 1;
            let r = rng.f64();
            if r < a {
                // top-left: neither bit set
            } else if r < a + b {
                dst |= 1;
            } else if r < a + b + c {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        (src, dst)
    }

    fn ladder_generate(cfg: &RmatConfig) -> Vec<Edge> {
        let mut rng = Rng::new(cfg.seed);
        (0..cfg.num_edges())
            .map(|_| {
                let (src, dst) = ladder_edge(&mut rng, cfg.scale, cfg.probs);
                let weight = if cfg.weighted {
                    (rng.f64() as f32).max(f32::MIN_POSITIVE)
                } else {
                    1.0
                };
                Edge { src, dst, weight }
            })
            .collect()
    }

    /// Endpoints and weight *bits*: a descent that consumed one draw too
    /// many or too few shifts every later weight.
    fn bits(edges: &[Edge]) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        edges.iter().map(|e| (e.src, e.dst, e.weight.to_bits()))
    }

    /// The paper's probabilities and five others: `a < 0.5` (so `p * 2^53`
    /// is not an integer), `d = 0` twice (one of them rejected up to PR 16),
    /// `a = 1`, and a flat distribution.
    const PROBS: [(f64, f64, f64); 6] = [
        (0.57, 0.19, 0.19),
        (0.45, 0.15, 0.15),
        (0.3, 0.3, 0.4),
        (0.55, 0.3, 0.15),
        (1.0, 0.0, 0.0),
        (0.25, 0.25, 0.25),
    ];
    const SEEDS: [u64; 4] = [0xC4A05, 0, 1, u64::MAX];

    fn assert_equals_ladder(cfg: &RmatConfig) {
        let g = cfg.generate();
        assert_eq!(g.num_vertices, cfg.num_vertices());
        assert_eq!(g.weighted, cfg.weighted);
        assert!(bits(&g.edges).eq(bits(&ladder_generate(cfg))), "{cfg:?}");
    }

    #[test]
    fn edge_lists_equal_the_ladder_oracle() {
        for scale in [0, 1, 7, 13] {
            for seed in SEEDS {
                for weighted in [false, true] {
                    for probs in PROBS {
                        assert_equals_ladder(&RmatConfig {
                            probs,
                            weighted,
                            seed,
                            ..RmatConfig::paper(scale)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn a_million_edges_of_twenty_levels_equal_the_ladder_oracle() {
        // One diagonal through the same seeds, weightedness and
        // probabilities rather than their product (an unoptimised ladder
        // needs a second per million edges).
        for (i, probs) in PROBS.into_iter().enumerate() {
            assert_equals_ladder(&RmatConfig {
                scale: 20,
                edge_factor: 1,
                probs,
                weighted: i % 2 == 1,
                seed: SEEDS[i % SEEDS.len()],
            });
        }
    }

    #[test]
    fn descent_consumes_the_ladders_draws() {
        for probs in PROBS {
            let (a, b, c) = probs;
            let t = [a, a + b, a + b + c].map(threshold);
            let mut ours = Rng::new(17);
            let mut oracle = ours.clone();
            for _ in 0..10_000 {
                assert_eq!(
                    sample_edge(&mut ours, 47, t),
                    ladder_edge(&mut oracle, 47, probs)
                );
            }
            assert_eq!(ours.next_u64(), oracle.next_u64());
        }
    }

    /// Every length up to 40, and each side of every multiple of eight up
    /// to 512: lanes of zero to 64 edges, with and without a tail.
    fn fill_lengths() -> impl Iterator<Item = usize> {
        (0..=40).chain((1..=64).flat_map(|k| [8 * k - 1, 8 * k, 8 * k + 1]))
    }

    #[test]
    fn lanes_write_the_scalar_descents_edges() {
        // On an AVX2 host `fill` takes the lanes from eight edges up;
        // elsewhere both sides are the scalar descent.
        for (i, probs) in PROBS.into_iter().enumerate() {
            let (a, b, c) = probs;
            for weighted in [false, true] {
                let d = Descent {
                    scale: 11,
                    thresholds: [a, a + b, a + b + c].map(threshold),
                    weighted,
                };
                for first in [0, 12_345] {
                    let mut rng = Rng::new(SEEDS[i % SEEDS.len()]);
                    rng.advance(first * d.draws());
                    for len in fill_lengths() {
                        let (mut lanes, mut scalar) = (Vec::new(), Vec::new());
                        fill(rng.clone(), &mut lanes, len, d);
                        fill_scalar(rng.clone(), &mut scalar, len, d);
                        assert_eq!(lanes.len(), len);
                        assert!(
                            bits(&lanes).eq(bits(&scalar)),
                            "{probs:?}, weighted {weighted}, first edge {first}, {len} edges"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn threshold_is_exact_at_the_boundary() {
        let mut rng = Rng::new(53);
        let mut ps = vec![0.0, 1.0, 1.0 + f64::EPSILON, f64::MIN_POSITIVE, 0.5, 0.57];
        for binade in 0..12u64 {
            for _ in 0..200 {
                // A uniformly random mantissa in [2^-(binade+1), 2^-binade).
                ps.push(f64::from_bits(
                    ((1022 - binade) << 52) | (rng.next_u64() >> 12),
                ));
            }
        }
        for p in ps {
            let t = threshold(p);
            assert!(t <= UNIT);
            for x in t.saturating_sub(2)..=(t + 2).min(UNIT - 1) {
                let r = x as f64 * (1.0 / UNIT as f64); // `Rng::f64`'s expression
                assert_eq!(r < p, x < t, "p={p:e} x={x} t={t}");
            }
        }
    }

    #[test]
    fn every_twentieths_triple_with_d_zero_generates() {
        // A scale-1 graph is one level per edge, so (src, dst) is the
        // quadrant drawn. Up to PR 16, 70 of these 231 triples panicked:
        // `1.0 - a - b - c` came out as a negative rounding residue.
        let mut rejected_before = 0;
        for i in 0..=20u32 {
            for j in 0..=20 - i {
                let k = 20 - i - j;
                let probs = (
                    f64::from(i) / 20.0,
                    f64::from(j) / 20.0,
                    f64::from(k) / 20.0,
                );
                rejected_before += u32::from(1.0 - probs.0 - probs.1 - probs.2 < 0.0);
                let cfg = RmatConfig {
                    scale: 1,
                    edge_factor: 2000,
                    probs,
                    weighted: false,
                    seed: u64::from(i * 21 + j),
                };
                let g = cfg.generate();
                let mut freq = [0.0f64; 4];
                for e in &g.edges {
                    freq[(e.src * 2 + e.dst) as usize] += 1.0 / g.edges.len() as f64;
                }
                assert_eq!(freq[3], 0.0, "{probs:?} drew the fourth quadrant");
                for (f, p) in freq.iter().zip([probs.0, probs.1, probs.2]) {
                    assert!(
                        (f - p).abs() < 0.04,
                        "{probs:?}: quadrant frequencies {freq:?}"
                    );
                }
            }
        }
        assert_eq!(rejected_before, 70);
    }

    fn fnv1a(g: &InputGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&g.num_vertices.to_le_bytes());
        for e in &g.edges {
            eat(&e.src.to_le_bytes());
            eat(&e.dst.to_le_bytes());
            eat(&e.weight.to_bits().to_le_bytes());
        }
        h
    }

    #[test]
    fn the_papers_inputs_are_pinned() {
        // Computed at PR 16's commit (7b9957d), before the descent changed:
        // every figure and every oracle comparison runs on these graphs.
        assert_eq!(
            fnv1a(&RmatConfig::paper(10).generate()),
            0x5703_b535_d6b1_467f
        );
        assert_eq!(
            fnv1a(&RmatConfig::paper_weighted(8).generate()),
            0x14dc_1f8d_feed_1f37
        );
    }

    #[test]
    fn unusable_parameters_are_errors_not_panics_or_aborts() {
        let with = |f: fn(&mut RmatConfig)| {
            let mut cfg = RmatConfig::paper(4);
            f(&mut cfg);
            cfg.try_generate().expect_err("must be rejected")
        };
        assert!(with(|c| c.probs.1 = -0.1).contains("bad RMAT probabilities"));
        assert!(with(|c| c.probs.0 = f64::NAN).contains("bad RMAT probabilities"));
        assert!(with(|c| c.probs.2 = f64::INFINITY).contains("bad RMAT probabilities"));
        assert!(with(|c| c.probs = (0.5, 0.3, 0.3)).contains("bad RMAT probabilities"));
        assert!(with(|c| c.scale = 48).contains("scale too large"));
        // 2^44 edges: the allocation is refused, which `Vec::with_capacity`
        // turned into an abort.
        assert!(with(|c| c.scale = 40).contains("cannot hold"));
        assert!(with(|c| (c.scale, c.edge_factor) = (47, u32::MAX)).contains("overflows"));
    }

    #[test]
    #[should_panic(expected = "scale too large to materialize")]
    fn generate_panics_with_the_error_message() {
        RmatConfig::paper(48).generate();
    }

    #[test]
    fn counts_match_spec() {
        let g = RmatConfig::paper(8).generate();
        assert_eq!(g.num_vertices, 256);
        assert_eq!(g.num_edges(), 256 * 16);
        assert!(!g.weighted);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = RmatConfig::paper(6).generate();
        let b = RmatConfig::paper(6).generate();
        assert_eq!(a.edges.len(), b.edges.len());
        assert!(a.edges.iter().zip(&b.edges).all(|(x, y)| x == y));
        let mut cfg = RmatConfig::paper(6);
        cfg.seed ^= 1;
        let c = cfg.generate();
        assert!(a.edges.iter().zip(&c.edges).any(|(x, y)| x != y));
    }

    #[test]
    fn skewed_towards_low_ids() {
        // With a = 0.57 the low-id quadrant dominates, so low vertices see
        // far more edges than high vertices.
        let g = RmatConfig::paper(10).generate();
        let deg = g.out_degrees();
        let lo: u64 = deg[..512].iter().sum();
        let hi: u64 = deg[512..].iter().sum();
        assert!(lo > 2 * hi, "expected skew, got lo={lo} hi={hi}");
    }

    #[test]
    fn weighted_weights_are_positive_and_varied() {
        let g = RmatConfig::paper_weighted(6).generate();
        assert!(g.weighted);
        assert!(g.edges.iter().all(|e| e.weight > 0.0 && e.weight < 1.0));
        let first = g.edges[0].weight;
        assert!(g.edges.iter().any(|e| e.weight != first));
    }

    #[test]
    fn edges_within_vertex_range() {
        let g = RmatConfig::paper(7).generate();
        assert!(g.edges.iter().all(|e| e.src < 128 && e.dst < 128));
    }
}
