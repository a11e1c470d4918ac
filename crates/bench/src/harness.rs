//! Shared experiment plumbing: scales, graph cache, run helpers, printing.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use chaos_algos::{needs_undirected, needs_weights, with_algo, AlgoParams};
use chaos_core::{run_chaos, ChaosConfig, FaultAccount, QueueKind, RunReport, Streaming};
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
    /// Streaming mode for every run. `Selective` and `Reference` produce
    /// bit-identical figure output (the reference mode merely streams
    /// skipped chunks host-side to enforce the activity contract), so
    /// `scripts/bench_smoke.sh` byte-compares across this flag too.
    pub streaming: Streaming,
    /// Clustered-layout bin count override (`None` keeps the config
    /// default). `Some(1)` is the unclustered arrival-order layout; the
    /// per-figure "states digest" lines are byte-identical across layouts
    /// (`bench_smoke.sh` compares them), while timings and skip counts
    /// legitimately differ.
    pub cluster_bins: Option<u32>,
    /// Block-index granularity override (`None` keeps the config default,
    /// `Some(0)` disables block indexing — chunk-granularity serves).
    /// Like the bin count, a layout knob: the "states digest" lines are
    /// byte-identical across values while skip counts differ.
    pub block_records: Option<u32>,
    /// Event-queue store for every run. A pure host-side choice: figure
    /// output is bit-identical across queue kinds.
    pub queue: QueueKind,
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
            streaming: Streaming::Selective,
            cluster_bins: None,
            block_records: None,
            queue: QueueKind::default(),
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
            streaming: Streaming::Selective,
            cluster_bins: None,
            block_records: None,
            queue: QueueKind::default(),
        }
    }

    /// The same sizing with a different streaming mode.
    pub fn with_streaming(mut self, streaming: Streaming) -> Self {
        self.streaming = streaming;
        self
    }

    /// The same sizing with a clustered-layout bin override.
    pub fn with_cluster_bins(mut self, bins: Option<u32>) -> Self {
        self.cluster_bins = bins;
        self
    }

    /// The same sizing with a block-index granularity override.
    pub fn with_block_records(mut self, block_records: Option<u32>) -> Self {
        self.block_records = block_records;
        self
    }

    /// The same sizing with a different event-queue store.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
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
    records: Cell<u64>,
    skipped: Cell<u64>,
    skipped_mid: Cell<u64>,
    blocks_skipped: Cell<u64>,
    skipped_intra: Cell<u64>,
    digest: Cell<u64>,
    faults: RefCell<FaultAccount>,
    /// Every run's report in drive order, labeled `algo/m<machines>`, for
    /// the `--metrics-json` dump.
    reports: RefCell<Vec<(String, RunReport)>>,
}

/// FNV-1a over the storage encodings of the final vertex states — a
/// deterministic fingerprint of *what* a run computed, independent of how
/// the data was laid out. Identical across streaming modes and cluster-bin
/// layouts; `scripts/bench_smoke.sh` byte-compares the printed digests
/// across layouts.
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

/// Checks that every `--option` among `args` is one the binary knows, so
/// a misspelt or removed flag stops the run instead of being ignored.
///
/// # Errors
///
/// Names the first unknown option.
pub fn check_options(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(a) => Err(format!("unknown option {a}")),
        None => Ok(()),
    }
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
            records: Cell::new(0),
            skipped: Cell::new(0),
            skipped_mid: Cell::new(0),
            blocks_skipped: Cell::new(0),
            skipped_intra: Cell::new(0),
            digest: Cell::new(0xcbf2_9ce4_8422_2325),
            faults: RefCell::new(FaultAccount::default()),
            reports: RefCell::new(Vec::new()),
        }
    }

    /// Elapsed wall-clock seconds since harness creation.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Edge + update records streamed by every run this harness drove so
    /// far (the numerator of the bench-smoke throughput metric). The count
    /// is a simulated quantity, so printing it keeps figure output
    /// byte-comparable.
    pub fn records_streamed(&self) -> u64 {
        self.records.get()
    }

    /// Edge records selective streaming consumed without reading, summed
    /// over every run so far (also a simulated, mode-invariant quantity:
    /// the reference mode makes identical skip decisions).
    pub fn records_skipped(&self) -> u64 {
        self.skipped.get()
    }

    /// The mid-wavefront share of [`Harness::records_skipped`]: records
    /// skipped while the partition's frontier was non-empty — the
    /// clustered layout's direct contribution.
    pub fn records_skipped_mid(&self) -> u64 {
        self.skipped_mid.get()
    }

    /// Blocks skipped *inside* served chunks by their block indexes,
    /// summed over every run so far — the sub-chunk selectivity the
    /// key-sorted interiors buy (simulated, mode-invariant; zero with
    /// `--block-records 0`).
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped.get()
    }

    /// Records in those skipped blocks: edges neither read nor streamed
    /// even though their chunk was served.
    pub fn records_skipped_intra(&self) -> u64 {
        self.skipped_intra.get()
    }

    /// Combined fingerprint of the final vertex states of every run so
    /// far (see [`digest_states`]); layout- and mode-invariant.
    pub fn states_digest(&self) -> u64 {
        self.digest.get()
    }

    /// The summed fault account of every run so far: aborts, redone
    /// iterations, device retries, faulted time and checkpoint cost — all
    /// simulated quantities. Zero everywhere under empty fault plans with
    /// checkpointing off.
    pub fn fault_account(&self) -> FaultAccount {
        self.faults.borrow().clone()
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
        cfg.streaming = self.scale.streaming;
        cfg.queue = self.scale.queue;
        if let Some(bins) = self.scale.cluster_bins {
            cfg.cluster_bins = bins;
        }
        if let Some(br) = self.scale.block_records {
            cfg.block_records = br;
        }
        cfg
    }

    /// Runs the named algorithm on `graph` under `cfg`.
    pub fn run(&self, algo: &str, cfg: ChaosConfig, graph: &InputGraph) -> RunReport {
        let cfg_machines = cfg.machines;
        let (rep, digest) = with_algo!(algo, &self.params, |p| {
            let (rep, states) = run_chaos(cfg, p, graph);
            (rep, digest_states(&states))
        });
        self.records.set(self.records.get() + rep.records_streamed);
        self.skipped.set(self.skipped.get() + rep.records_skipped());
        self.skipped_mid
            .set(self.skipped_mid.get() + rep.records_skipped_mid());
        self.blocks_skipped
            .set(self.blocks_skipped.get() + rep.blocks_skipped());
        self.skipped_intra
            .set(self.skipped_intra.get() + rep.records_skipped_intra());
        {
            let mut fa = self.faults.borrow_mut();
            fa.aborts += rep.faults.aborts;
            fa.iterations_redone += rep.faults.iterations_redone;
            fa.device_retries += rep.faults.device_retries;
            fa.faulted_time += rep.faults.faulted_time;
            fa.checkpoint_bytes += rep.faults.checkpoint_bytes;
            fa.checkpoint_time += rep.faults.checkpoint_time;
            fa.corruption_detected += rep.faults.corruption_detected;
            fa.corruption_repaired += rep.faults.corruption_repaired;
            fa.frames_scrubbed += rep.faults.frames_scrubbed;
            fa.checksum_bytes += rep.faults.checksum_bytes;
        }
        // Order-sensitive mix of the per-run digests (runs are driven in a
        // fixed order per experiment).
        self.digest
            .set(mix_digest(self.digest.get(), digest));
        self.reports
            .borrow_mut()
            .push((format!("{algo}/m{}", cfg_machines), rep.clone()));
        rep
    }

    /// Writes every run driven so far (label + report + per-iteration
    /// selectivity) to `path` as stable JSON — see [`metrics_json`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying file I/O error.
    pub fn write_metrics_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, metrics_json(&self.reports.borrow()))?;
        eprintln!(
            "[metrics-json] wrote {} run(s) to {}",
            self.reports.borrow().len(),
            path.display()
        );
        Ok(())
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
}

/// Serializes labeled run reports as JSON with a fixed key order, so two
/// runs of the same build produce byte-identical dumps (a "stable JSON"
/// diff target for tooling; all quantities here are simulated).
/// Hand-rolled — the workspace takes no serialization dependency for one
/// fixed shape.
pub fn metrics_json(reports: &[(String, RunReport)]) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, (label, rep)) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{label}\",\n"));
        for (k, v) in [
            ("runtime_ns", rep.runtime),
            ("preprocess_ns", rep.preprocess_time),
            ("iterations", u64::from(rep.iterations)),
            ("partitions", rep.partitions as u64),
            ("steals", rep.steals),
            ("events", rep.events),
            ("records_streamed", rep.records_streamed),
            ("chunks_skipped", rep.chunks_skipped()),
            ("records_skipped", rep.records_skipped()),
            ("chunks_skipped_mid", rep.chunks_skipped_mid()),
            ("records_skipped_mid", rep.records_skipped_mid()),
            ("blocks_skipped", rep.blocks_skipped()),
            ("records_skipped_intra", rep.records_skipped_intra()),
            ("edges_tombstoned", rep.edges_tombstoned()),
            ("compactions", rep.compactions()),
            ("cluster_bins", u64::from(rep.cluster_bins)),
            ("device_bytes", rep.total_device_bytes()),
            ("aborts", rep.faults.aborts),
            ("iterations_redone", rep.faults.iterations_redone),
            ("device_retries", rep.faults.device_retries),
            ("faulted_time_ns", rep.faults.faulted_time),
            ("checkpoint_bytes", rep.faults.checkpoint_bytes),
            ("checkpoint_time_ns", rep.faults.checkpoint_time),
            ("corruption_detected", rep.faults.corruption_detected),
            ("corruption_repaired", rep.faults.corruption_repaired),
            ("frames_scrubbed", rep.faults.frames_scrubbed),
            ("checksum_bytes", rep.faults.checksum_bytes),
        ] {
            out.push_str(&format!("      \"{k}\": {v},\n"));
        }
        out.push_str("      \"selectivity\": [\n");
        for (j, s) in rep.selectivity.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"iter\": {j}, \"active_vertices\": {}, \"total_vertices\": {}, \
                 \"chunks_skipped\": {}, \"records_skipped\": {}, \
                 \"chunks_skipped_mid\": {}, \"records_skipped_mid\": {}, \
                 \"blocks_skipped\": {}, \"records_skipped_intra\": {}, \
                 \"blocks_skipped_mid\": {}, \"records_skipped_intra_mid\": {}, \
                 \"edge_records_streamed\": {}, \"edges_tombstoned\": {}, \
                 \"compactions\": {}}}{}\n",
                s.active_vertices,
                s.total_vertices,
                s.chunks_skipped,
                s.records_skipped,
                s.chunks_skipped_mid,
                s.records_skipped_mid,
                s.blocks_skipped,
                s.records_skipped_intra,
                s.blocks_skipped_mid,
                s.records_skipped_intra_mid,
                s.edge_records_streamed,
                s.edges_tombstoned,
                s.compactions,
                if j + 1 < rep.selectivity.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// SplitMix64-style combine of two digests.
fn mix_digest(a: u64, b: u64) -> u64 {
    let mut x = a.rotate_left(5) ^ b;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// Prints a header for one experiment.
pub fn banner(id: &str, what: &str) {
    println!("\n==================================================================");
    println!("{id}: {what}");
    println!("==================================================================");
}

/// Formats a row of fixed-width cells.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>10}"))
        .collect::<Vec<_>>()
        .join(" ")
}
