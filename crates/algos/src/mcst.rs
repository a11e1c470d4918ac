//! Minimum Cost Spanning Trees: distributed Borůvka (hook and contract).
//!
//! The paper lists MCST among the X-Stream algorithms and notes that "in an
//! extended version of the model, edges may also be rewritten" for it; we
//! instead express Borůvka purely with label propagation so the edge set
//! stays immutable. Each Borůvka round runs four sub-phases, all ordinary
//! GAS iterations:
//!
//! 1. **MinEdge** — every vertex learns the minimum-weight edge leaving its
//!    component that is incident to *it* (gather filters out
//!    same-component traffic using the destination's state).
//! 2. **Reduce** — the per-vertex candidates are folded to a per-component
//!    minimum by min-propagation along (intra-component) edges.
//! 3. **Contract** — components hook along their chosen edges; merged
//!    groups agree on a new label (the minimum component id) by label
//!    propagation that may travel through chosen edges. The endpoints of
//!    chosen edges also account each edge's weight exactly once into the
//!    running MSF total (mutual hooks counted by the smaller component).
//! 4. **Commit** — everyone adopts the new label as its component and
//!    clears its candidate.
//!
//! Rounds repeat until no component has an outgoing edge, at which point
//! the accumulated total is the weight of the minimum spanning forest.
//! Edge weights must be distinct (the standard Borůvka assumption; the
//! generators in `chaos-graph` guarantee it).

use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates, Record};
use chaos_graph::{Edge, VertexId};

/// Candidate weight meaning "no outgoing edge".
const NO_EDGE: f32 = f32::INFINITY;

/// Per-vertex MCST state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct McstState {
    /// Current component id (minimum vertex id of the component).
    pub comp: u64,
    /// Tentative merged-group label during contraction.
    pub label: u64,
    /// Weight of the best known outgoing edge of this component.
    pub cand_w: f32,
    /// Component on the other side of the best outgoing edge.
    pub cand_target: u64,
    /// Edge weight pending aggregation into the MSF total (one iteration).
    pub count_w: f32,
    /// Whether this vertex already counted its component's chosen edge.
    pub counted: bool,
    /// The vertex's component is *finished*: after the Reduce fixpoint it
    /// had no outgoing cross-component edge, so it can never merge again,
    /// this vertex can never change again, and (because every edge
    /// incident to a finished component is internal to it) every edge at
    /// this vertex is permanently dead. Set at Commit, monotone.
    pub done: bool,
    /// Whether the last apply changed this vertex's broadcast-relevant
    /// value (candidate during Reduce, label during Contract). Drives the
    /// delta gating: within a fixpoint sub-phase, a vertex whose value did
    /// not change has nothing new to say — every neighbor already folded
    /// its value when it was acquired (min-propagation is monotone and
    /// idempotent), so only the wavefront rebroadcasts.
    pub fresh: bool,
}

impl Record for McstState {
    const ENCODED_BYTES: usize = 35;
    fn encode(&self, out: &mut Vec<u8>) {
        self.comp.encode(out);
        self.label.encode(out);
        self.cand_w.encode(out);
        self.cand_target.encode(out);
        self.count_w.encode(out);
        self.counted.encode(out);
        self.done.encode(out);
        self.fresh.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        Self {
            comp: u64::decode(buf),
            label: u64::decode(&buf[8..]),
            cand_w: f32::decode(&buf[16..]),
            cand_target: u64::decode(&buf[20..]),
            count_w: f32::decode(&buf[28..]),
            counted: bool::decode(&buf[32..]),
            done: bool::decode(&buf[33..]),
            fresh: bool::decode(&buf[34..]),
        }
    }
}

/// Message flooded over edges; field meaning depends on the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McstMsg {
    /// Sender's component.
    pub comp: u64,
    /// Sender's contraction label.
    pub label: u64,
    /// Sender's candidate weight.
    pub cand_w: f32,
    /// Sender's candidate target component.
    pub cand_target: u64,
    /// Weight of the edge this message traveled over.
    pub edge_w: f32,
}

impl Record for McstMsg {
    const ENCODED_BYTES: usize = 32;
    fn encode(&self, out: &mut Vec<u8>) {
        self.comp.encode(out);
        self.label.encode(out);
        self.cand_w.encode(out);
        self.cand_target.encode(out);
        self.edge_w.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        Self {
            comp: u64::decode(buf),
            label: u64::decode(&buf[8..]),
            cand_w: f32::decode(&buf[16..]),
            cand_target: u64::decode(&buf[20..]),
            edge_w: f32::decode(&buf[28..]),
        }
    }
}

/// Accumulator used by all phases.
#[derive(Debug, Clone, Copy)]
pub struct McstAccum {
    /// Minimum `(weight, component)` candidate.
    pub best: (f32, u64),
    /// Minimum label seen over eligible edges.
    pub min_label: u64,
    /// Chosen-edge weight to count (0 when none).
    pub count_w: f32,
}

impl Default for McstAccum {
    fn default() -> Self {
        Self {
            best: (NO_EDGE, u64::MAX),
            min_label: u64::MAX,
            count_w: 0.0,
        }
    }
}

fn better(a: (f32, u64), b: (f32, u64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    MinEdge,
    Reduce,
    Contract,
    Commit,
}

/// Borůvka MCST; the MSF total is the sum of `custom[0]` over all
/// iterations (see [`Mcst::total_weight`]).
#[derive(Debug, Clone)]
pub struct Mcst {
    phase: Phase,
    /// Iteration at which the current sub-phase began. The first
    /// iteration of a fixpoint sub-phase broadcasts from every eligible
    /// vertex (seeding propagation and the chosen-edge counting);
    /// subsequent iterations broadcast only from the `fresh` wavefront.
    /// Maintained in `end_iteration`, which the coordinator runs once
    /// and hands to every machine, so the value is cluster-consistent.
    phase_start: u32,
}

impl Mcst {
    /// Creates the program.
    pub fn new() -> Self {
        Self {
            phase: Phase::MinEdge,
            phase_start: 0,
        }
    }

    /// Sums the per-iteration chosen-edge weights into the MSF total.
    pub fn total_weight(iterations: &[IterationAggregates]) -> f64 {
        iterations.iter().map(|a| a.custom[0]).sum()
    }
}

impl Default for Mcst {
    fn default() -> Self {
        Self::new()
    }
}

impl GasProgram for Mcst {
    type VertexState = McstState;
    type Update = McstMsg;
    type Accum = McstAccum;
    type HeldEdge = chaos_gas::PackedEdge;

    fn name(&self) -> &'static str {
        "MCST"
    }

    fn needs_undirected(&self) -> bool {
        true
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> McstState {
        McstState {
            comp: v,
            label: v,
            cand_w: NO_EDGE,
            cand_target: v,
            count_w: 0.0,
            counted: false,
            done: false,
            fresh: false,
        }
    }

    fn scatter(&self, _v: VertexId, state: &McstState, edge: &Edge, iter: u32) -> Option<McstMsg> {
        if edge.src == edge.dst || state.done {
            // Self-loops are never spanning-tree edges; finished
            // components have nothing left to say (their messages were
            // no-ops: filtered by MinEdge's cross-component test, and
            // label-min'ed against an identical label in Contract).
            return None;
        }
        let msg = McstMsg {
            comp: state.comp,
            label: state.label,
            cand_w: state.cand_w,
            cand_target: state.cand_target,
            edge_w: edge.weight,
        };
        // Within a fixpoint sub-phase, only the first iteration floods
        // from everyone; afterwards the wavefront (`fresh`) suffices:
        // every non-fresh vertex's value was already delivered and folded
        // (the gathers are idempotent min-folds), so the per-iteration
        // state sequence is identical to full flooding.
        let start = iter == self.phase_start;
        match self.phase {
            Phase::MinEdge => Some(msg),
            Phase::Contract => (start || state.fresh).then_some(msg),
            Phase::Reduce => (state.cand_w < NO_EDGE && (start || state.fresh)).then_some(msg),
            Phase::Commit => None,
        }
    }

    // Too large to be inlined across crates unasked: outlined, the engine's
    // gather loop makes one call per update.
    #[inline]
    fn gather(&self, acc: &mut McstAccum, _dst: VertexId, dst: &McstState, m: &McstMsg) {
        match self.phase {
            Phase::MinEdge => {
                // Cross-component edges only.
                if m.comp != dst.comp {
                    let cand = (m.edge_w, m.comp);
                    if better(cand, acc.best) {
                        acc.best = cand;
                    }
                }
            }
            Phase::Reduce => {
                // Same-component candidate propagation.
                if m.comp == dst.comp && m.cand_w < NO_EDGE {
                    let cand = (m.cand_w, m.cand_target);
                    if better(cand, acc.best) {
                        acc.best = cand;
                    }
                }
            }
            Phase::Contract => {
                let chosen_by_sender = m.cand_w == m.edge_w && m.cand_target == dst.comp;
                let chosen_by_us = dst.cand_w == m.edge_w && dst.cand_target == m.comp;
                if m.comp == dst.comp || chosen_by_sender || chosen_by_us {
                    acc.min_label = acc.min_label.min(m.label);
                }
                if chosen_by_us {
                    // We are the endpoint of our component's chosen edge.
                    // Mutual hooks are counted by the smaller component.
                    let mutual = chosen_by_sender;
                    if !mutual || dst.comp < m.comp {
                        acc.count_w = m.edge_w;
                    }
                }
            }
            Phase::Commit => {}
        }
    }

    fn merge(&self, into: &mut McstAccum, from: &McstAccum) {
        if better(from.best, into.best) {
            into.best = from.best;
        }
        into.min_label = into.min_label.min(from.min_label);
        if from.count_w > 0.0 {
            into.count_w = from.count_w;
        }
    }

    fn apply(&self, _v: VertexId, state: &mut McstState, acc: &McstAccum, _iter: u32) -> bool {
        // A count contribution lives for exactly one aggregation.
        state.count_w = 0.0;
        let changed = match self.phase {
            Phase::MinEdge => {
                state.counted = false;
                if acc.best.0 < NO_EDGE {
                    state.cand_w = acc.best.0;
                    state.cand_target = acc.best.1;
                    state.label = state.comp.min(state.cand_target);
                    true
                } else {
                    state.cand_w = NO_EDGE;
                    state.cand_target = state.comp;
                    state.label = state.comp;
                    false
                }
            }
            Phase::Reduce => {
                if better(acc.best, (state.cand_w, state.cand_target)) {
                    state.cand_w = acc.best.0;
                    state.cand_target = acc.best.1;
                    state.label = state.comp.min(state.cand_target);
                    true
                } else {
                    false
                }
            }
            Phase::Contract => {
                if acc.count_w > 0.0 && !state.counted {
                    state.count_w = acc.count_w;
                    state.counted = true;
                }
                if acc.min_label < state.label {
                    state.label = acc.min_label;
                    true
                } else {
                    false
                }
            }
            Phase::Commit => {
                // `cand_w` still holds the Reduce-fixpoint value (Contract
                // never touches it): `NO_EDGE` here means the component had
                // no outgoing edge, will never merge again, and is done.
                state.done = state.cand_w == NO_EDGE;
                state.comp = state.label;
                state.cand_w = NO_EDGE;
                state.cand_target = state.comp;
                false
            }
        };
        state.fresh = changed;
        changed
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Shrinking
    }

    fn is_active(&self, _v: VertexId, state: &McstState, iter: u32) -> bool {
        let start = iter == self.phase_start;
        match self.phase {
            // Commit is pure apply: nobody scatters, every chunk skips.
            Phase::Commit => false,
            // Fixpoint sub-phases: full flood at phase start, wavefront
            // afterwards (mirrors the `scatter` gating exactly).
            Phase::Reduce => !state.done && state.cand_w < NO_EDGE && (start || state.fresh),
            Phase::Contract => !state.done && (start || state.fresh),
            Phase::MinEdge => !state.done,
        }
    }

    fn edge_dead(&self, _v: VertexId, state: &McstState, edge: &Edge, _iter: u32) -> bool {
        // A finished component's edges are all internal to it (an edge
        // leaving it would be an outgoing cross edge, contradicting
        // "finished") and can never carry a useful message again.
        state.done || edge.src == edge.dst
    }

    fn shrinks_now(&self, _iter: u32) -> bool {
        // `done` is monotone and valid from the moment it is set, so the
        // dead scan is meaningful in every phase.
        true
    }

    fn aggregate(&self, state: &McstState) -> [f64; 4] {
        [
            state.count_w as f64,
            if state.cand_w < NO_EDGE { 1.0 } else { 0.0 },
            0.0,
            0.0,
        ]
    }

    fn end_iteration(&mut self, iter: u32, agg: &IterationAggregates) -> Control {
        let before = self.phase;
        match self.phase {
            Phase::MinEdge => {
                if agg.custom[1] as u64 == 0 {
                    // No component has an outgoing edge: the forest is done.
                    return Control::Done;
                }
                self.phase = Phase::Reduce;
            }
            Phase::Reduce => {
                if agg.vertices_changed == 0 {
                    self.phase = Phase::Contract;
                }
            }
            Phase::Contract => {
                if agg.vertices_changed == 0 {
                    self.phase = Phase::Commit;
                }
            }
            Phase::Commit => {
                self.phase = Phase::MinEdge;
            }
        }
        if self.phase != before {
            // The next iteration is the new sub-phase's flood iteration.
            self.phase_start = iter + 1;
        }
        Control::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::builder;
    use chaos_graph::reference::minimum_spanning_forest_weight;
    use chaos_graph::types::InputGraph;

    fn check(g: &InputGraph) {
        let res = run_sequential(Mcst::new(), g, 1_000_000);
        let got = Mcst::total_weight(&res.iterations);
        let want = minimum_spanning_forest_weight(g);
        assert!(
            (got - want).abs() <= 1e-4 * want.max(1.0),
            "got {got} want {want}"
        );
        // Contraction must leave one component label per tree.
        let comps: std::collections::HashSet<u64> = res.states.iter().map(|s| s.comp).collect();
        let oracle_comps: std::collections::HashSet<u64> =
            chaos_graph::reference::weakly_connected_components(g)
                .into_iter()
                .collect();
        assert_eq!(comps.len(), oracle_comps.len());
    }

    #[test]
    fn triangle() {
        let mk = |w: &[(u64, u64, f32)]| {
            let mut es = Vec::new();
            for &(a, b, wt) in w {
                es.push(chaos_graph::Edge::weighted(a, b, wt));
                es.push(chaos_graph::Edge::weighted(b, a, wt));
            }
            InputGraph::new(3, es, true)
        };
        check(&mk(&[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]));
        check(&mk(&[(0, 1, 3.0), (1, 2, 1.0), (2, 0, 2.0)]));
    }

    #[test]
    fn spanning_tree_of_connected_graphs() {
        for seed in 0..4 {
            check(&builder::connected_weighted(40, 60, seed));
        }
    }

    #[test]
    fn forest_of_disconnected_graph() {
        // Two separate weighted components.
        let mut a = builder::connected_weighted(10, 5, 1);
        let b = builder::connected_weighted(10, 5, 2);
        let mut edges = a.edges.clone();
        for e in &b.edges {
            edges.push(chaos_graph::Edge::weighted(
                e.src + 10,
                e.dst + 10,
                e.weight + 100.0, // Keep weights distinct across halves.
            ));
        }
        a = InputGraph::new(20, edges, true);
        check(&a);
    }

    #[test]
    fn single_vertex_and_empty() {
        check(&InputGraph::new(1, vec![], true));
        check(&InputGraph::new(4, vec![], true));
    }

    #[test]
    fn state_and_msg_records_roundtrip() {
        let s = McstState {
            comp: 5,
            label: 3,
            cand_w: 1.5,
            cand_target: 9,
            count_w: 0.25,
            counted: true,
            done: true,
            fresh: true,
        };
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), McstState::ENCODED_BYTES);
        assert_eq!(McstState::decode(&buf), s);

        let m = McstMsg {
            comp: 1,
            label: 2,
            cand_w: 0.5,
            cand_target: 4,
            edge_w: 0.75,
        };
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), McstMsg::ENCODED_BYTES);
        assert_eq!(McstMsg::decode(&buf), m);
    }
}
