//! Writing your own algorithm against the GAS API.
//!
//! Implements *k-hop reachability counting* — for every vertex, how many
//! vertices can reach it within k hops — as a fresh [`GasProgram`], then
//! validates the distributed run against the bundled sequential executor.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use chaos::prelude::*;
use chaos_graph::VertexId;

/// Vertex state: `(reachers_found, newly_found_last_round)`.
type State = (u64, u64);

/// Counts, per vertex, the vertices within `k` in-hops (including itself).
///
/// Each round every vertex floods the number of *new* reachers it learned
/// about last round; receivers accumulate. This over-counts on graphs with
/// multiple paths — exactly like the classic "semi-naive" Datalog
/// evaluation it mimics — so we run it on trees/DAG-ish graphs here; the
/// point of the example is the API, not the algorithm.
#[derive(Clone)]
struct KHopMass {
    k: u32,
}

impl GasProgram for KHopMass {
    type VertexState = State;
    type Update = u64;
    type Accum = u64;
    type HeldEdge = chaos::gas::BareEdge;

    fn name(&self) -> &'static str {
        "KHopMass"
    }

    fn init(&self, _v: VertexId, _out_degree: u64) -> State {
        (1, 1) // Every vertex reaches itself in zero hops.
    }

    fn scatter(&self, _v: VertexId, s: &State, _e: &Edge, _iter: u32) -> Option<u64> {
        (s.1 > 0).then_some(s.1)
    }

    fn gather(&self, acc: &mut u64, _dst: VertexId, _s: &State, payload: &u64) {
        *acc += payload;
    }

    fn merge(&self, into: &mut u64, from: &u64) {
        *into += from;
    }

    fn apply(&self, _v: VertexId, s: &mut State, acc: &u64, _iter: u32) -> bool {
        s.0 += acc;
        s.1 = *acc;
        *acc > 0
    }

    fn end_iteration(&mut self, iter: u32, agg: &IterationAggregates) -> Control {
        if iter + 1 >= self.k || agg.vertices_changed == 0 {
            Control::Done
        } else {
            Control::Continue
        }
    }
}

fn main() {
    // A 4-ary out-tree of depth 6: every vertex's k-hop mass is exact.
    let mut edges = Vec::new();
    let n: u64 = (4u64.pow(7) - 1) / 3; // 5461 vertices
    for v in 1..n {
        edges.push(Edge::new((v - 1) / 4, v));
    }
    let graph = InputGraph::new(n, edges, false);
    let program = KHopMass { k: 3 };

    // Reference run: the sequential executor from chaos-gas.
    let seq = run_sequential(program.clone(), &graph, 10);

    // Distributed run on 8 simulated machines.
    let mut cfg = ChaosConfig::new(8);
    cfg.mem_budget = 8 * 1024; // force many partitions
    let (report, states) = run_chaos(cfg, program, &graph);

    assert_eq!(states, seq.states, "distributed == sequential");
    // The root saw only itself; depth-3 vertices saw their 3 ancestors.
    assert_eq!(states[0].0, 1);
    println!(
        "k-hop mass over {} vertices on 8 machines: {:.3} simulated s, {} partitions, OK",
        n,
        report.seconds(),
        report.partitions
    );
    println!("distributed result matches the sequential GAS executor exactly");
}
