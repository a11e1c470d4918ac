//! Shared algorithm parameters.

use chaos_gas::{EdgeRecord, GasProgram};

/// Names of the ten algorithms in the order of Table 1.
pub const ALGO_NAMES: [&str; 10] = [
    "BFS", "WCC", "MCST", "MIS", "SSSP", "SCC", "PR", "Cond", "SpMV", "BP",
];

/// Knobs shared by all algorithm constructors (root vertex for traversals,
/// iteration counts for the fixed-point algorithms, RNG seed for the
/// randomized ones).
#[derive(Debug, Clone, Copy)]
pub struct AlgoParams {
    /// Root vertex for BFS / SSSP.
    pub root: u64,
    /// Pagerank iteration count (the paper runs 5 on RMAT-36, §9.3).
    pub pr_iterations: u32,
    /// Belief-propagation iteration count.
    pub bp_iterations: u32,
    /// Seed for MIS priorities, BP priors, conductance/SpMV hash values.
    pub seed: u64,
}

impl Default for AlgoParams {
    fn default() -> Self {
        Self {
            root: 0,
            pr_iterations: 5,
            bp_iterations: 5,
            seed: 0xC0FFEE,
        }
    }
}

/// Whether an algorithm requires the undirected expansion of the input
/// (the first five rows of Table 1).
pub fn needs_undirected(name: &str) -> bool {
    matches!(name, "BFS" | "WCC" | "MCST" | "MIS" | "SSSP")
}

/// Whether an algorithm requires edge weights: whether its program holds
/// its edges in a record that keeps them ([`GasProgram::HeldEdge`]).
/// False for a name that is not in [`ALGO_NAMES`].
pub fn needs_weights(name: &str) -> bool {
    fn holds_weights<P: GasProgram>(_: &P) -> bool {
        <P::HeldEdge as EdgeRecord>::WEIGHTED
    }
    ALGO_NAMES.contains(&name)
        && crate::with_algo!(name, &AlgoParams::default(), |p| holds_weights(&p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_algorithms() {
        assert_eq!(ALGO_NAMES.len(), 10);
        assert_eq!(ALGO_NAMES.iter().filter(|n| needs_undirected(n)).count(), 5);
        let weighted: Vec<&str> = ALGO_NAMES
            .into_iter()
            .filter(|n| needs_weights(n))
            .collect();
        assert_eq!(weighted, ["MCST", "SSSP", "SpMV"]);
        assert!(!needs_weights("pr"));
    }
}
