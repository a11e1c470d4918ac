//! Synthetic web-graph generator: the Data Commons stand-in.
//!
//! The paper's real-world workload is the 2014 Web Data Commons hyperlink
//! graph (1.7 G pages, 64 G links). We cannot ship that dataset, so this
//! module generates a graph with the structural properties that matter for
//! the Figure 9 experiment: a heavily skewed (power-law) out-degree
//! distribution, host-level locality (most links stay within a host block),
//! and preferential attachment of cross-host links to popular pages. These
//! are the properties that drive the per-partition load imbalance that the
//! strong-scaling experiment stresses.

use chaos_sim::Rng;

use crate::types::{Edge, InputGraph};

/// Configuration for the synthetic web graph.
#[derive(Debug, Clone)]
pub struct WebGraphConfig {
    /// Number of pages (vertices).
    pub pages: u64,
    /// Average pages per host; hosts are contiguous id blocks.
    pub pages_per_host: u64,
    /// Power-law exponent for out-degrees (Data Commons measures ~2.2).
    pub gamma: f64,
    /// Mean out-degree (Data Commons: ~38 links/page; scaled runs use less).
    pub mean_out_degree: f64,
    /// Maximum out-degree clamp.
    pub max_out_degree: u64,
    /// Fraction of links that stay within the host block.
    pub intra_host_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WebGraphConfig {
    /// A scaled-down Data-Commons-shaped configuration with roughly
    /// `pages * 16` edges, comparable in density to the RMAT workloads.
    pub fn scaled(pages: u64) -> Self {
        Self {
            pages,
            pages_per_host: 64,
            gamma: 2.2,
            mean_out_degree: 16.0,
            max_out_degree: (pages / 4).max(8),
            intra_host_fraction: 0.8,
            seed: 0x00DA_7AC0,
        }
    }

    /// Generates the graph.
    ///
    /// # Panics
    ///
    /// Panics with [`WebGraphConfig::try_generate`]'s message where that
    /// fails.
    pub fn generate(&self) -> InputGraph {
        self.try_generate().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the graph, or says why it cannot.
    ///
    /// # Errors
    ///
    /// `pages`, `pages_per_host` or `max_out_degree` is zero, or not even
    /// one link per page fits in memory.
    pub fn try_generate(&self) -> Result<InputGraph, String> {
        if self.pages == 0 || self.pages_per_host == 0 || self.max_out_degree == 0 {
            return Err("need at least one page, one page per host and one link per page".into());
        }
        let mut rng = Rng::new(self.seed);
        let n = self.pages;
        let hosts = n.div_ceil(self.pages_per_host);
        // Every page has at least one out-link, so this is a lower bound on
        // the edge count: a page count that cannot be held is refused here,
        // before the loop, not by an abort somewhere inside it.
        let mut edges = Vec::new();
        if !usize::try_from(n).is_ok_and(|n| edges.try_reserve_exact(n).is_ok()) {
            return Err(format!("cannot hold the links of {n} pages in memory"));
        }
        for src in 0..n {
            let deg = self.sample_degree(&mut rng);
            let host = src / self.pages_per_host;
            let host_lo = host * self.pages_per_host;
            let host_hi = (host_lo + self.pages_per_host).min(n);
            for _ in 0..deg {
                let dst = if rng.chance(self.intra_host_fraction) && host_hi - host_lo > 1 {
                    // Intra-host link, uniform within the host block.
                    rng.range(host_lo, host_hi)
                } else {
                    // Cross-host link with preferential attachment: pick a
                    // host, then a page skewed towards the "front page"
                    // (low offsets within the host get most in-links).
                    let h = rng.below(hosts);
                    let lo = h * self.pages_per_host;
                    let hi = (lo + self.pages_per_host).min(n);
                    let span = hi - lo;
                    // Squaring a uniform variable skews towards 0.
                    let u = rng.f64();
                    lo + ((u * u * span as f64) as u64).min(span - 1)
                };
                edges.push(Edge::new(src, dst));
            }
        }
        Ok(InputGraph::new(n, edges, false))
    }

    /// Discrete bounded Pareto sample with the configured mean.
    fn sample_degree(&self, rng: &mut Rng) -> u64 {
        // Bounded Pareto via inverse transform on [1, max]; rescale so the
        // realized mean is close to `mean_out_degree`.
        let alpha = self.gamma - 1.0;
        let u = rng.f64().max(1e-12);
        let raw = u.powf(-1.0 / alpha); // Pareto(1, alpha)
        let scaled = raw * self.mean_out_degree * (alpha - 1.0).max(0.1) / alpha;
        (scaled.round() as u64).clamp(1, self.max_out_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let g = WebGraphConfig::scaled(4096).generate();
        assert_eq!(g.num_vertices, 4096);
        let m = g.num_edges() as f64;
        let mean = m / 4096.0;
        assert!(mean > 4.0 && mean < 64.0, "mean degree {mean} out of range");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = WebGraphConfig::scaled(8192).generate();
        let mut deg = g.out_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of pages should hold well above 1% of the links.
        let total: u64 = deg.iter().sum();
        let top: u64 = deg[..deg.len() / 100].iter().sum();
        assert!(
            top as f64 > 0.05 * total as f64,
            "top1%={top} total={total}"
        );
    }

    #[test]
    fn most_links_are_intra_host() {
        let cfg = WebGraphConfig::scaled(4096);
        let g = cfg.generate();
        let intra = g
            .edges
            .iter()
            .filter(|e| e.src / cfg.pages_per_host == e.dst / cfg.pages_per_host)
            .count();
        let frac = intra as f64 / g.edges.len() as f64;
        assert!(frac > 0.6, "intra-host fraction {frac}");
    }

    #[test]
    fn unusable_parameters_are_errors_not_panics_or_aborts() {
        let with = |f: fn(&mut WebGraphConfig)| {
            let mut cfg = WebGraphConfig::scaled(64);
            f(&mut cfg);
            cfg.try_generate().expect_err("must be rejected")
        };
        assert!(with(|c| c.pages = 0).contains("at least one page"));
        assert!(with(|c| c.pages_per_host = 0).contains("at least one page"));
        assert!(with(|c| c.max_out_degree = 0).contains("at least one page"));
        assert!(with(|c| c.pages = 1 << 50).contains("cannot hold"));
    }

    #[test]
    fn deterministic() {
        let a = WebGraphConfig::scaled(1024).generate();
        let b = WebGraphConfig::scaled(1024).generate();
        assert_eq!(a.edges.len(), b.edges.len());
        assert!(a.edges.iter().zip(&b.edges).all(|(x, y)| x == y));
    }
}
