//! Edge-centric Gather-Apply-Scatter programming model (§2 of the paper).
//!
//! Chaos adopts the PowerLyra-simplified GAS model: updates are scattered
//! only over outgoing edges and gathered only over incoming edges. The state
//! of the computation lives entirely in per-vertex values; updates are the
//! only intermediate data. The runtime may replicate a vertex across
//! machines during gather (work stealing), so the user-supplied functions
//! must be order-independent (§2).
//!
//! One deliberate deviation from the paper's Figure 3 pseudo-code: instead
//! of calling `Apply` once per replica accumulator, programs provide a
//! commutative [`GasProgram::merge`] that folds replica accumulators
//! together, after which `Apply` runs once. The two formulations are
//! equivalent for order-independent programs (the paper's requirement), and
//! the merge form keeps each algorithm's `apply` a plain function of one
//! accumulator. The master/stealer accumulator-exchange protocol is
//! unchanged.

pub mod active;
pub mod executor;
pub mod program;
pub mod record;

pub use active::{ActiveSet, ActivityModel};
pub use executor::{run_sequential, SequentialResult};
pub use program::{
    Control, Direction, GasProgram, IterationAggregates, UpdateSink, CUSTOM_AGGREGATES,
};
pub use record::{
    BareEdge, EdgeRecord, EdgeRef, LocalUpdate, PackedEdge, Record, Update, UpdateRef,
};
