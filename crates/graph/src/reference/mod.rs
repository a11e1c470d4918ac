//! Independent single-threaded reference implementations ("oracles").
//!
//! Each of the ten evaluation algorithms in the paper has a textbook
//! counterpart here, written against the CSR [`crate::types::Adjacency`]
//! view rather than the streaming machinery, so the distributed engine and
//! its oracle share no code. The integration tests run both and compare.

mod bp;
mod connectivity;
mod mis;
mod mst;
mod numeric;
mod paths;

pub use bp::belief_propagation;
pub use bp::{message_from_belief, prior as bp_prior, AGREEMENT};
pub use connectivity::{strongly_connected_components, weakly_connected_components};
pub use mis::luby_priority;
pub use mis::{is_maximal_independent_set, luby_mis};
pub use mst::minimum_spanning_forest_weight;
pub use numeric::{conductance, conductance_counts, pagerank, spmv};
pub use paths::{bfs_levels, dijkstra, UNREACHABLE_DIST, UNREACHED};
