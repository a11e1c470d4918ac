//! Shared experiment plumbing: scales, graph cache, run helpers, tables.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use chaos_algos::{needs_undirected, needs_weights, with_algo, AlgoParams};
use chaos_core::{run_chaos, ChaosConfig, FaultAccount, RunReport};
use chaos_graph::{InputGraph, RmatConfig, WebGraphConfig};

/// Experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// RMAT scale on one machine; weak scaling adds `log2(m)`.
    pub base_scale: u32,
    /// Chunk size in bytes (the paper's 4 MiB, scaled down with the graph).
    pub chunk_bytes: u64,
    /// Per-machine vertex memory budget.
    pub mem_budget: u64,
    /// Machine counts swept.
    pub machines: &'static [usize],
    /// Run the expensive algorithms (MCST, SCC, SSSP, MIS) in the
    /// all-algorithm figures.
    pub all_algorithms: bool,
}

impl Scale {
    /// Default sizing: completes `figures all` in minutes.
    pub fn quick() -> Self {
        Self {
            base_scale: 12,
            chunk_bytes: 32 * 1024,
            mem_budget: 256 * 1024,
            machines: &[1, 2, 4, 8, 16, 32],
            all_algorithms: true,
        }
    }

    /// `--full` sizing: closer to the paper's relative magnitudes.
    pub fn full() -> Self {
        Self {
            base_scale: 14,
            chunk_bytes: 64 * 1024,
            mem_budget: 1 << 20,
            machines: &[1, 2, 4, 8, 16, 32],
            all_algorithms: true,
        }
    }
}

/// Cache of RMAT graphs keyed on (scale, undirected, weighted).
type GraphCache = Rc<RefCell<HashMap<(u32, bool, bool), Rc<InputGraph>>>>;
/// Cache of web graphs keyed on (pages, undirected).
type WebGraphCache = Rc<RefCell<HashMap<(u64, bool), Rc<InputGraph>>>>;

/// Cached-graph experiment driver.
pub struct Harness {
    /// Active sizing.
    pub scale: Scale,
    /// Algorithm knobs (PR/BP iterations, seeds, roots).
    pub params: AlgoParams,
    graphs: GraphCache,
    webgraphs: WebGraphCache,
    /// External dataset replacing the RMAT generator when set (see
    /// [`Harness::set_dataset`]): the loaded edge list, memoized per
    /// (undirected, weighted) shaping.
    dataset: RefCell<Option<Rc<InputGraph>>>,
    dataset_shaped: RefCell<HashMap<(bool, bool), Rc<InputGraph>>>,
    start: Instant,
    /// Order-sensitive mix of the final-state digests of the runs since
    /// the last [`Harness::take_states_digest`] (the one total the reports
    /// do not carry); `None` before the first.
    digest: Cell<Option<u64>>,
    /// Every run's report in drive order, labeled `algo/m<machines>`: the
    /// `--metrics-json` dump and the fault account are read from here.
    reports: RefCell<Vec<(String, RunReport)>>,
}

/// FNV-1a over the storage encodings of the final vertex states — a
/// deterministic fingerprint of *what* a run computed, independent of how
/// the data was laid out. Identical across builds, chunk layouts and
/// fault schedules; `scripts/bench_smoke.sh` compares a fault-seeded
/// `cellstats` run's against the fault-free one's.
pub fn digest_states<S: chaos_gas::Record>(states: &[S]) -> u64 {
    let mut buf = Vec::new();
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

/// The generated graph, or one `error:` line naming `what` was asked for
/// and exit status 1. A generator limit (scale 48, an edge list beyond
/// memory) is the caller's argument, not a bug to unwind from, and neither
/// a figure nor a probe has anything to do without its input.
pub fn graph_or_exit(
    what: impl std::fmt::Display,
    graph: Result<InputGraph, String>,
) -> InputGraph {
    graph.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}

impl Harness {
    /// Creates a harness with the given sizing.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            params: AlgoParams::default(),
            graphs: Rc::new(RefCell::new(HashMap::new())),
            webgraphs: Rc::new(RefCell::new(HashMap::new())),
            dataset: RefCell::new(None),
            dataset_shaped: RefCell::new(HashMap::new()),
            start: Instant::now(),
            digest: Cell::new(None),
            reports: RefCell::new(Vec::new()),
        }
    }

    /// Elapsed wall-clock seconds since harness creation.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Combined fingerprint of the final vertex states of every run since
    /// the last call (see [`digest_states`]), or `None` if there was no
    /// run; restarts the fingerprint. Layout-invariant.
    pub fn take_states_digest(&self) -> Option<u64> {
        self.digest.take()
    }

    /// The summed fault account of every run so far: aborts, redone
    /// iterations, device retries, faulted time, checkpoint cost and the
    /// integrity counts — all simulated quantities. Zero everywhere under
    /// empty fault plans with checkpointing off.
    pub fn fault_account(&self) -> FaultAccount {
        let mut total = FaultAccount::default();
        for (_, rep) in self.reports.borrow().iter() {
            total.absorb(&rep.faults);
        }
        total
    }

    /// RMAT graph at `scale`, shaped for the named algorithm (undirected
    /// expansion and/or weights per Table 1), memoized for the life of the
    /// harness.
    pub fn rmat_for(&self, scale: u32, algo: &str) -> Rc<InputGraph> {
        let undirected = needs_undirected(algo);
        let weighted = needs_weights(algo);
        if self.dataset.borrow().is_some() {
            return self.dataset_for(undirected, weighted);
        }
        let key = (scale, undirected, weighted);
        if let Some(g) = self.graphs.borrow().get(&key) {
            return Rc::clone(g);
        }
        let cfg = if weighted {
            RmatConfig::paper_weighted(scale)
        } else {
            RmatConfig::paper(scale)
        };
        let mut g = graph_or_exit(format_args!("RMAT scale {scale}"), cfg.try_generate());
        if undirected {
            g = g.to_undirected();
        }
        let g = Rc::new(g);
        self.graphs.borrow_mut().insert(key, Rc::clone(&g));
        g
    }

    /// Replaces the RMAT generator with an external edge-list dataset for
    /// every subsequent run: the binary web-graph format written by
    /// [`chaos_graph::io::write_binary`], falling back to the plain
    /// `src dst [weight]` text format. Experiments keep their machine
    /// sweeps but run every cell on this one graph (shaped per algorithm:
    /// undirected expansion, and synthesized deterministic weights when a
    /// weighted algorithm meets an unweighted dataset).
    ///
    /// # Errors
    ///
    /// Returns the loader's message when the file parses as neither
    /// format.
    pub fn set_dataset(&self, path: &std::path::Path) -> Result<(), String> {
        let g = chaos_graph::io::read_binary(path)
            .or_else(|_| chaos_graph::io::read_text(path))
            .map_err(|e| format!("cannot load dataset {}: {e}", path.display()))?;
        eprintln!(
            "[dataset] {}: {} vertices, {} edges{}",
            path.display(),
            g.num_vertices,
            g.num_edges(),
            if g.weighted { ", weighted" } else { "" },
        );
        *self.dataset.borrow_mut() = Some(Rc::new(g));
        self.dataset_shaped.borrow_mut().clear();
        Ok(())
    }

    /// The loaded dataset shaped for an algorithm class, memoized.
    fn dataset_for(&self, undirected: bool, weighted: bool) -> Rc<InputGraph> {
        if let Some(g) = self.dataset_shaped.borrow().get(&(undirected, weighted)) {
            return Rc::clone(g);
        }
        let base = Rc::clone(self.dataset.borrow().as_ref().expect("dataset loaded"));
        let mut g = (*base).clone();
        if weighted && !g.weighted {
            // Deterministic synthetic weights in (0, 1], a function of the
            // endpoints only — independent of edge order and of how the
            // dataset was stored.
            for e in &mut g.edges {
                let h = chaos_sim::rng::mix2(e.src, e.dst);
                e.weight = (h % 1000 + 1) as f32 / 1000.0;
            }
            g.weighted = true;
        }
        if undirected {
            g = g.to_undirected();
        }
        let g = Rc::new(g);
        self.dataset_shaped
            .borrow_mut()
            .insert((undirected, weighted), Rc::clone(&g));
        g
    }

    /// Synthetic web graph (the Data Commons stand-in), memoized.
    pub fn webgraph(&self, pages: u64, undirected: bool) -> Rc<InputGraph> {
        let key = (pages, undirected);
        if let Some(g) = self.webgraphs.borrow().get(&key) {
            return Rc::clone(g);
        }
        let mut g = graph_or_exit(
            format_args!("web graph of {pages} pages"),
            WebGraphConfig::scaled(pages).try_generate(),
        );
        if undirected {
            g = g.to_undirected();
        }
        let g = Rc::new(g);
        self.webgraphs.borrow_mut().insert(key, Rc::clone(&g));
        g
    }

    /// Base engine config for `machines`, with the harness chunk/memory
    /// sizing applied.
    pub fn config(&self, machines: usize) -> ChaosConfig {
        let mut cfg = ChaosConfig::new(machines);
        cfg.chunk_bytes = self.scale.chunk_bytes;
        cfg.mem_budget = self.scale.mem_budget;
        cfg
    }

    /// Runs the named algorithm on `graph` under `cfg`.
    pub fn run(&self, algo: &str, cfg: ChaosConfig, graph: &InputGraph) -> RunReport {
        let cfg_machines = cfg.machines;
        let (rep, digest) = with_algo!(algo, &self.params, |p| {
            let (rep, states) = run_chaos(cfg, p, graph);
            (rep, digest_states(&states))
        });
        // Order-sensitive mix of the per-run digests (runs are driven in a
        // fixed order per experiment).
        let prev = self.digest.get().unwrap_or(0xcbf2_9ce4_8422_2325);
        self.digest.set(Some(mix_digest(prev, digest)));
        self.reports
            .borrow_mut()
            .push((format!("{algo}/m{}", cfg_machines), rep.clone()));
        rep
    }

    /// Writes every run driven so far (label + report + per-iteration
    /// selectivity) to `out` as stable JSON — see [`metrics_json`] — and
    /// returns how many runs it wrote.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_metrics_json(&self, out: &mut impl std::io::Write) -> std::io::Result<usize> {
        let reports = self.reports.borrow();
        out.write_all(metrics_json(&reports).as_bytes())?;
        Ok(reports.len())
    }

    /// The algorithm set for all-algorithm figures, cheap ones first.
    pub fn algorithms(&self) -> Vec<&'static str> {
        if self.scale.all_algorithms {
            vec![
                "BFS", "WCC", "MCST", "MIS", "SSSP", "SCC", "PR", "Cond", "SpMV", "BP",
            ]
        } else {
            vec!["BFS", "WCC", "PR", "Cond", "SpMV", "BP"]
        }
    }

    /// A column header: `first`, one `m=<machines>` column per machine
    /// count of the sweep, then `extra`.
    pub fn machine_header(&self, first: &str, extra: &[&str]) -> Vec<String> {
        let mut cells = vec![first.to_string()];
        cells.extend(self.scale.machines.iter().map(|m| format!("m={m}")));
        cells.extend(extra.iter().map(ToString::to_string));
        cells
    }

    /// Weak scaling: `algo` once per machine count of the sweep, on
    /// RMAT-(base + log2 m) under `cfg(m)`, in sweep order.
    pub fn weak_series(
        &self,
        algo: &str,
        mut cfg: impl FnMut(usize) -> ChaosConfig,
    ) -> Vec<RunReport> {
        self.scale
            .machines
            .iter()
            .map(|&m| {
                let scale = self.scale.base_scale + (m as f64).log2().round() as u32;
                let g = self.rmat_for(scale, algo);
                self.run(algo, cfg(m), &g)
            })
            .collect()
    }

    /// Strong scaling: `algo` on the one graph `g` once per machine count
    /// of the sweep under `cfg(m)`, in sweep order.
    pub fn strong_series(
        &self,
        algo: &str,
        g: &InputGraph,
        mut cfg: impl FnMut(usize) -> ChaosConfig,
    ) -> Vec<RunReport> {
        self.scale
            .machines
            .iter()
            .map(|&m| self.run(algo, cfg(m), g))
            .collect()
    }
}

/// Serializes labeled run reports as JSON with a fixed key order, so two
/// runs of the same build produce byte-identical dumps (a "stable JSON"
/// diff target for tooling; all quantities here are simulated). Each run
/// object lists [`RunReport::counters`], each selectivity entry
/// [`chaos_core::IterSelectivity::counters`]. Hand-rolled — the workspace
/// takes no serialization dependency for one fixed shape.
pub fn metrics_json(reports: &[(String, RunReport)]) -> String {
    let comma = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, (label, rep)) in reports.iter().enumerate() {
        out += &format!("    {{\n      \"label\": \"{label}\",\n");
        for (k, v) in rep.counters() {
            out += &format!("      \"{k}\": {v},\n");
        }
        out += "      \"selectivity\": [\n";
        for (j, s) in rep.selectivity.iter().enumerate() {
            out += &format!("        {{\"iter\": {j}");
            for (k, v) in s.counters() {
                out += &format!(", \"{k}\": {v}");
            }
            out += &format!("}}{}\n", comma(j, rep.selectivity.len()));
        }
        out += &format!("      ]\n    }}{}\n", comma(i, reports.len()));
    }
    out + "  ]\n}\n"
}

/// SplitMix64-style combine of two digests.
fn mix_digest(a: u64, b: u64) -> u64 {
    let mut x = a.rotate_left(5) ^ b;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// What one experiment (or one probe of `ablations`) reports: a banner
/// (`id: title`), then its lines in print order. Cells are rendered
/// strings; by convention the first row is the column header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The experiment id, or the probe's name.
    pub id: String,
    /// One-line description printed after the id.
    pub title: String,
    /// Body lines in print order.
    pub lines: Vec<Line>,
}

/// One line of a [`Table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// Cells right-aligned in 10 columns, one space apart.
    Row(Vec<String>),
    /// Printed verbatim.
    Text(String),
}

impl Table {
    /// An empty table.
    pub fn new(id: &str, title: impl Into<String>) -> Self {
        Self {
            id: id.to_string(),
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, cells: Vec<String>) {
        self.lines.push(Line::Row(cells));
    }

    /// Appends a row of fixed labels (a column header).
    pub fn header(&mut self, cells: &[&str]) {
        self.push(cells.iter().map(ToString::to_string).collect());
    }

    /// Appends a text line; a leading `\n` prints a blank line first.
    pub fn note(&mut self, text: impl Into<String>) {
        self.lines.push(Line::Text(text.into()));
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Line::Row(cells) => {
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{c:>10}")?;
                }
                Ok(())
            }
            Line::Text(text) => f.write_str(text),
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = "=".repeat(66);
        writeln!(f, "\n{rule}\n{}: {}\n{rule}", self.id, self.title)?;
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// The runtimes of `reps`, in order.
pub fn runtimes(reps: &[RunReport]) -> Vec<f64> {
    reps.iter().map(|r| r.runtime as f64).collect()
}

/// A row: `label`, then each of `values` divided by `base` with `digits`
/// decimals.
pub fn series_row(label: &str, values: &[f64], base: f64, digits: usize) -> Vec<String> {
    let mut cells = vec![label.to_string()];
    cells.extend(values.iter().map(|v| format!("{:.*}", digits, v / base)));
    cells
}
