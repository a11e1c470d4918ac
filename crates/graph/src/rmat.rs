//! RMAT graph generator (Chakrabarti, Zhan, Faloutsos — SDM 2004).
//!
//! The paper's synthetic workloads are RMAT graphs: "a scale-n RMAT graph
//! has 2^n vertices and 2^(n+4) edges" (§8), i.e. an edge factor of 16.

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
        // The same sums, in the same order, as the ladder
        // `r < a`, `r < a + b`, `r < a + b + c` compares against.
        let thresholds = [a, a + b, a + b + c].map(threshold);
        let mut rng = Rng::new(self.seed);
        // An exact-size iterator: the reserved vector is filled without a
        // capacity check per edge.
        edges.extend((0..m).map(|_| {
            let (src, dst) = sample_edge(&mut rng, self.scale, thresholds);
            let weight = if self.weighted {
                // Strictly positive, effectively distinct weights so the
                // MST oracle comparison is unambiguous.
                (rng.f64() as f32).max(f32::MIN_POSITIVE)
            } else {
                1.0
            };
            Edge { src, dst, weight }
        }));
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
