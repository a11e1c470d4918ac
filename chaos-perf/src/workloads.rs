//! The five workloads: what each runs, how its inputs are made from the
//! seed, and how its output is checked.
//!
//! A *repetition* runs `inner` independent sub-inputs back to back; for
//! each one it generates the graph, builds the cluster (both timed as
//! set-up), runs it (the timed region) and checks the final vertex states.
//! Sub-input `k` of seed `s` uses RMAT seed and fault-plan seed
//! `s * 64 + k`. The engine's own RNG seed (`ChaosConfig::seed`: chunk
//! placement, steal victims) is configuration, not input, and stays at its
//! default: varying it moves event counts by ±5% on the small cells and
//! would drown the input's own variation.

use std::time::Instant;

use chaos_algos::{bfs::Bfs, pagerank::Pagerank};
use chaos_core::{ChaosConfig, Cluster, FaultPlan, FaultPlanConfig, RunReport};
use chaos_gas::{GasProgram, Record};
use chaos_graph::{reference, InputGraph, RmatConfig};
use chaos_sim::KIB;
use chaos_storage::ScratchDir;

use crate::host::cpu_seconds;
use crate::trace::Tracer;

/// Which engine paths a cell turns on beyond the plain in-memory run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Memory,
    /// Chunk payloads go through real files under a scratch directory.
    Spill,
    /// Checkpointing, scrubbing and a generated fault plan.
    Faulted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// PageRank for a fixed number of iterations, directed input.
    Pagerank(u32),
    /// BFS from vertex 0 (RMAT's hub), undirected input.
    Bfs,
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub name: &'static str,
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub mode: Mode,
    /// RMAT scale: `2^scale` vertices, 16 edges per vertex.
    pub scale: u32,
    pub machines: usize,
    pub chunk_bytes: u64,
    /// Sub-inputs per repetition. Short cells run several, so that a
    /// repetition is long enough to time and so that input-dependent work
    /// (BFS depth, where a fault lands) averages out, and short so that a
    /// burst of host interference spoils one run, not a whole repetition.
    /// The two cells that stream the most (`pr_dense`, `pr_faulted`) are
    /// many small graphs, not few large ones: measured side by side, their
    /// floors spread half as much from run to run at scale 13 as at 15.
    pub inner: u64,
}

pub const CELLS: [Cell; 5] = [
    Cell {
        name: "pr_dense",
        why: "dense streaming: GAS kernels and the compute engine's loop do nearly all the work; no index, no skip, no file",
        algorithm: Algorithm::Pagerank(50),
        mode: Mode::Memory,
        scale: 13,
        machines: 4,
        chunk_bytes: 32 * KIB,
        inner: 8,
    },
    Cell {
        name: "bfs_selective",
        why: "five iterations: half ingest (bin, sort, index, seal), half chunk skips and ranged block serves; same storage as pr_dense, opposite use",
        algorithm: Algorithm::Bfs,
        mode: Mode::Memory,
        scale: 15,
        machines: 8,
        chunk_bytes: 32 * KIB,
        inner: 8,
    },
    Cell {
        name: "pr_events",
        why: "32 machines over a tiny graph in 8 KiB chunks: ~10 records per event, so event queue, executor dispatch, fabric rate servers and barrier rounds dominate; kernels do little",
        algorithm: Algorithm::Pagerank(15),
        mode: Mode::Memory,
        scale: 13,
        machines: 32,
        chunk_bytes: 8 * KIB,
        inner: 4,
    },
    Cell {
        name: "pr_spill",
        why: "the out-of-core path: every chunk is encoded, written to a real file, CRC-sealed, read back, verified and decoded; only cell that computes a CRC",
        algorithm: Algorithm::Pagerank(5),
        mode: Mode::Spill,
        scale: 15,
        machines: 4,
        chunk_bytes: 32 * KIB,
        inner: 2,
    },
    Cell {
        name: "pr_faulted",
        why: "crashes, torn checkpoints, device, fabric and corruption windows: 2PC checkpoints, abort and redo, retry ladders, scrub; must equal the fault-free run",
        algorithm: Algorithm::Pagerank(40),
        mode: Mode::Faulted,
        scale: 13,
        machines: 8,
        chunk_bytes: 32 * KIB,
        inner: 16,
    },
];

impl Cell {
    pub fn named(name: &str) -> Option<Cell> {
        CELLS.iter().copied().find(|c| c.name == name)
    }

    /// The same cell cut down for API-drift detection at CI speed: a
    /// scale-10 graph, one sub-input, a tenth of the PageRank iterations.
    pub fn smoke(mut self) -> Cell {
        self.scale = 10;
        self.inner = 1;
        if let Algorithm::Pagerank(iters) = &mut self.algorithm {
            *iters = (*iters / 10).max(4);
        }
        self
    }

    /// The cell without its spill directory or fault plan: what the
    /// spilled and the faulted run must be bit-identical to.
    fn plain_twin(mut self) -> Cell {
        self.mode = Mode::Memory;
        self
    }

    pub fn input_seed(&self, seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(64).wrapping_add(k)
    }

    pub fn undirected(&self) -> bool {
        self.algorithm == Algorithm::Bfs
    }

    /// Generates and shapes sub-input `input_seed`.
    pub fn graph(&self, input_seed: u64, tr: &mut Tracer) -> InputGraph {
        let mut rmat = RmatConfig::paper(self.scale);
        rmat.seed = input_seed;
        let g = tr.span("graph.generate", |_| {
            let g = rmat.generate();
            let edges = g.num_edges();
            (g, edges)
        });
        if self.undirected() {
            tr.span("graph.to_undirected", |_| {
                let u = g.to_undirected();
                let edges = u.num_edges();
                (u, edges)
            })
        } else {
            g
        }
    }

    fn config(&self, input_seed: u64, scratch: Option<&ScratchDir>) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(self.machines);
        cfg.chunk_bytes = self.chunk_bytes;
        cfg.mem_budget = 256 * KIB;
        cfg.spill_dir = scratch.map(|d| d.path().to_path_buf());
        if self.mode == Mode::Faulted {
            cfg.checkpoint = true;
            cfg.scrub = true;
            cfg.faults = FaultPlan::generate(input_seed, &FaultPlanConfig::soak(self.machines));
        }
        cfg
    }
}

/// A program together with its oracle.
pub trait Checked {
    type Program: GasProgram;

    fn program(&self) -> Self::Program;

    /// Whether a run over `g` that ended in `states` computed what the
    /// independent reference implementation computes.
    fn correct(
        &self,
        g: &InputGraph,
        states: &[<Self::Program as GasProgram>::VertexState],
        report: &RunReport,
    ) -> bool;
}

/// `|a - b| <= tol * max(|b|, 1)`.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

pub struct CheckedPagerank(pub u32);

impl Checked for CheckedPagerank {
    type Program = Pagerank;

    fn program(&self) -> Pagerank {
        Pagerank::new(self.0)
    }

    fn correct(&self, g: &InputGraph, states: &[(f32, u32)], report: &RunReport) -> bool {
        let want = reference::pagerank(g, self.0);
        report.iterations == self.0
            && states.len() == want.len()
            && states
                .iter()
                .zip(&want)
                .all(|(s, w)| close(f64::from(s.0), *w, 1e-4))
    }
}

pub struct CheckedBfs;

impl Checked for CheckedBfs {
    type Program = Bfs;

    fn program(&self) -> Bfs {
        Bfs::new(0)
    }

    fn correct(&self, g: &InputGraph, states: &[u32], _report: &RunReport) -> bool {
        // The oracle and the program both mark unreached vertices with
        // `u32::MAX`, so levels compare exactly.
        states == reference::bfs_levels(g, 0).as_slice()
    }
}

/// FNV-1a over the storage encoding of the final vertex states: what a run
/// computed, independent of layout and execution.
pub fn digest_states<S: Record>(states: &[S]) -> u64 {
    let mut buf = Vec::with_capacity(S::ENCODED_BYTES);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in states {
        buf.clear();
        s.encode(&mut buf);
        for &b in &buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One sub-input's run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub setup_s: f64,
    pub new_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub edges: u64,
    pub digest: u64,
    pub report: RunReport,
}

/// Sets up and runs sub-input `input_seed` of `cell` once. Returns the
/// outcome and the final states.
fn run_once<C: Checked>(
    cell: &Cell,
    checked: &C,
    input_seed: u64,
    tr: &mut Tracer,
) -> (RunOutcome, Vec<<C::Program as GasProgram>::VertexState>) {
    let setup = Instant::now();
    let graph = cell.graph(input_seed, tr);
    let edges = graph.num_edges();
    let scratch = (cell.mode == Mode::Spill).then(|| {
        ScratchDir::new("chaos-perf").expect("scratch directory inside the build directory")
    });
    let cfg = cell.config(input_seed, scratch.as_ref());
    let new = Instant::now();
    let mut cluster = tr.span("core.cluster_new", |_| {
        let c = Cluster::new(cfg, checked.program(), &graph)
            .expect("the cell's configuration is valid");
        (c, edges)
    });
    let new_s = new.elapsed().as_secs_f64();
    drop(graph);
    let setup_s = setup.elapsed().as_secs_f64();

    let (allocs0, bytes0) = crate::host::alloc_counts();
    let cpu0 = cpu_seconds();
    let wall = Instant::now();
    let report = tr.span("core.cluster_run", |_| {
        let r = cluster.run();
        let events = r.events;
        (r, events)
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (allocs1, bytes1) = crate::host::alloc_counts();

    let states = cluster.final_states();
    let digest = tr.span("digest", |_| (digest_states(&states), states.len() as u64));
    let outcome = RunOutcome {
        setup_s,
        new_s,
        wall_s,
        cpu_s,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        edges,
        digest,
        report,
    };
    (outcome, states)
}

/// One sub-input's run together with the final vertex states it left.
pub type Checkable<C> = (
    RunOutcome,
    Vec<<<C as Checked>::Program as GasProgram>::VertexState>,
);

/// One repetition: every sub-input set up and run, in order.
pub fn repetition<C: Checked>(
    cell: &Cell,
    checked: &C,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<Checkable<C>> {
    (0..cell.inner)
        .map(|k| run_once(cell, checked, cell.input_seed(seed, k), tr))
        .collect()
}

/// Whether `run`, a run of sub-input `k`, computed the right thing: the
/// oracle agrees with its final states and, for the spilled and the
/// faulted cell, the in-memory fault-free twin ends bit-identical. This is
/// the expensive check, made once per sub-input on the first repetition
/// and after the timed region (so the oracle's memory is not in
/// `peak_rss_mb`); later repetitions are held to that first one's digest.
pub fn verify<C: Checked>(
    cell: &Cell,
    checked: &C,
    seed: u64,
    k: u64,
    run: &Checkable<C>,
    tr: &mut Tracer,
) -> bool {
    let input_seed = cell.input_seed(seed, k);
    let (outcome, states) = run;
    let agrees = tr.span("oracle", |tr| {
        let g = cell.graph(input_seed, tr);
        (checked.correct(&g, states, &outcome.report), g.num_edges())
    });
    agrees
        && (cell.mode == Mode::Memory
            || run_once(
                &cell.plain_twin(),
                checked,
                input_seed,
                &mut Tracer::new(false),
            )
            .0
            .digest
                == outcome.digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_named_once_and_found() {
        for (i, c) in CELLS.iter().enumerate() {
            assert!(CELLS[..i].iter().all(|o| o.name != c.name));
            assert_eq!(Cell::named(c.name).unwrap().name, c.name);
            assert!(c.why.len() <= 200 && !c.why.contains('\n'));
            assert!(c.inner >= 1 && c.inner <= 64);
        }
        assert!(Cell::named("nope").is_none());
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let cell = Cell::named("bfs_selective").unwrap().smoke();
        let mut tr = Tracer::new(false);
        let a = cell.graph(cell.input_seed(1, 0), &mut tr);
        let b = cell.graph(cell.input_seed(1, 0), &mut tr);
        let c = cell.graph(cell.input_seed(2, 0), &mut tr);
        assert!(a.edges == b.edges && a.edges != c.edges);
        assert_ne!(cell.input_seed(1, 1), cell.input_seed(1, 0));
    }

    #[test]
    fn digest_tells_states_apart() {
        assert_ne!(digest_states(&[1u32, 2, 3]), digest_states(&[1u32, 2, 4]));
        assert_eq!(
            digest_states(&[(1.5f32, 2u32)]),
            digest_states(&[(1.5f32, 2u32)])
        );
    }
}
