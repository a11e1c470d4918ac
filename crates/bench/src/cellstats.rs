//! The `cellstats` binary: a one-cell microprobe that runs a single
//! (algorithm, machines, scale) cell and prints its simulated account —
//! for sizing host-side optimizations without a full figure sweep. The
//! binary prints what [`main`] returns; `tests/cellstats_golden.rs` at
//! the root pins it for six cells.
//!
//! ```text
//! cellstats [ALGO [MACHINES [SCALE]]] \
//!     [--iters] [--metrics-json <path>] [--fault-seed N] [--scrub]
//! ```
//!
//! The positionals default to `PR 4 14`. Stdout is a function of the cell
//! alone, so two runs print the same bytes: the cell, one `key=value` line
//! per counter group of the run (`run:`, `selectivity:`, `storage:`,
//! `faults:` — the keys of the `--metrics-json` run object), the `states
//! digest` line, and the end-of-run chunk window-width histogram.
//! `--iters` adds one `iter <i>:` line per iteration with its selectivity
//! counters — the shape of a frontier collapsing or a Borůvka contraction
//! eating the edge set. `--metrics-json <path>` dumps the run's report
//! plus per-iteration selectivity as stable JSON.
//!
//! Host measurements go to stderr: a `wall` line (seconds, events and
//! records per second) and a `memory:` line with the process's resident-set
//! high-water mark (`VmHWM`) over graph generation, over `Cluster::new` and
//! over the run, each step measured on its own by restarting the mark
//! through `/proc/self/clear_refs` (`n/a` where `/proc` offers neither).
//!
//! `--fault-seed N` turns on checkpointing and injects the seed-`N`
//! generated fault plan (crashes + torn writes + device + fabric +
//! corruption windows); the `faults:` line shows what the recovery
//! protocol absorbed. `--scrub` enables the between-iteration integrity
//! scrub pass. The `states digest` line is a layout- and fault-invariant
//! fingerprint of the final vertex states — `scripts/bench_smoke.sh`
//! compares it between corruption-seeded and fault-free runs.
//!
//! An unknown algorithm or option, a missing or bad value, an extra
//! positional, a graph past the generator's limits, a configuration
//! `Cluster::new` rejects or a path that cannot be written is one
//! `error:` line and exit 1, with nothing run (the option rules are
//! `chaos_bench::cli`'s).

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use chaos_algos::{needs_undirected, needs_weights, with_algo, AlgoParams, ALGO_NAMES};
use chaos_core::{ChaosConfig, Cluster, FaultPlan, FaultPlanConfig, RunReport};
use chaos_graph::RmatConfig;

use crate::cli::{self, parse, Args, Flag, Options, Value};

const OPTIONS: &Options = &[
    ("--iters", Flag),
    ("--metrics-json", Value),
    ("--scrub", Flag),
    ("--fault-seed", Value),
];

/// One cell: `cellstats`' geometry (32 KiB chunks, 256 KiB memory budget)
/// on an RMAT graph of `scale`, weighted and undirected as `algo` needs.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// A Table 1 short code.
    pub algo: &'a str,
    /// Simulated machines.
    pub machines: usize,
    /// RMAT scale.
    pub scale: u32,
    /// Checkpointing and the seed-`N` generated fault plan.
    pub fault_seed: Option<u64>,
    /// The between-iteration integrity scrub.
    pub scrub: bool,
}

impl Cell<'_> {
    /// Runs the cell, calling `step` after graph generation, after
    /// `Cluster::new` and after the run. Returns the report and the
    /// digest of the final vertex states.
    ///
    /// # Errors
    ///
    /// A graph past the generator's limits or a configuration
    /// `Cluster::new` rejects.
    ///
    /// # Panics
    ///
    /// Panics if `algo` is not in [`ALGO_NAMES`].
    pub fn run(&self, step: &mut dyn FnMut(&str)) -> Result<(RunReport, u64), String> {
        let (algo, scale, machines) = (self.algo, self.scale, self.machines);
        let rmat = if needs_weights(algo) {
            RmatConfig::paper_weighted(scale)
        } else {
            RmatConfig::paper(scale)
        };
        let mut g = rmat
            .try_generate()
            .map_err(|e| format!("scale {scale}: {e}"))?;
        if needs_undirected(algo) {
            g = g.to_undirected();
        }
        step("graph");
        let mut cfg = ChaosConfig::new(machines);
        cfg.chunk_bytes = 32 * 1024;
        cfg.mem_budget = 256 * 1024;
        if let Some(seed) = self.fault_seed {
            cfg.checkpoint = true;
            cfg.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines));
        }
        cfg.scrub = self.scrub;
        Ok(with_algo!(algo, &AlgoParams::default(), |p| {
            let mut cluster = Cluster::new(cfg, p, &g)?;
            step("Cluster::new");
            let rep = cluster.run();
            step("run");
            (rep, crate::harness::digest_states(&cluster.final_states()))
        }))
    }
}

/// Runs `cellstats` with `args` (the arguments after the program name)
/// and returns its stdout; host measurements go to stderr.
///
/// # Errors
///
/// The one `error:` line's text: an unknown algorithm or option, a bad
/// value, a rejected cell, or a `--metrics-json` path that cannot be
/// written.
pub fn main(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let args = Args::parse(OPTIONS, args)?;
    let positionals = args.at_most(3)?;
    let algo = positionals.first().map_or("PR", String::as_str);
    if !ALGO_NAMES.contains(&algo) {
        return Err(format!(
            "unknown algorithm {algo:?}; one of {}",
            ALGO_NAMES.join(", ")
        ));
    }
    let machines: usize = positionals.get(1).map_or(Ok(4), |s| parse("machines", s))?;
    let scale: u32 = positionals.get(2).map_or(Ok(14), |s| parse("scale", s))?;
    let cell = Cell {
        algo,
        machines,
        scale,
        fault_seed: args.get("--fault-seed")?,
        scrub: args.flag("--scrub"),
    };
    let mut metrics = match args.value("--metrics-json") {
        Some(path) => Some((cli::create(path)?, path)),
        None => None,
    };

    let mut hwm = HighWater::default();
    let t0 = Instant::now();
    let (rep, digest) = cell.run(&mut |name| hwm.step(name))?;
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("memory: VmHWM {}", hwm.steps.join(", "));
    eprintln!(
        "wall {wall:.3}s, {:.0} events/s, {:.0} records/s",
        rep.events as f64 / wall,
        rep.records_streamed as f64 / wall,
    );
    let mut out = String::new();
    // Writing to a `String` cannot fail.
    let _ = writeln!(out, "{algo} m={machines} scale={scale}");
    let _ = write!(out, "{rep}");
    let _ = writeln!(out, "states digest: {digest:016x}");
    // The layout's direct observable: how narrow the stored chunk windows
    // are relative to their partition's span.
    let h = &rep.window_widths;
    let parts: Vec<String> = chaos_core::WindowHistogram::labels()
        .iter()
        .zip(h.buckets.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(l, n)| format!("{l}: {n}"))
        .collect();
    let _ = writeln!(
        out,
        "window widths ({} indexed chunks{}{}): {}",
        h.chunks(),
        if h.empty > 0 {
            format!(", {} compacted-empty", h.empty)
        } else {
            String::new()
        },
        if h.unindexed > 0 {
            format!(", {} unindexed", h.unindexed)
        } else {
            String::new()
        },
        parts.join(", "),
    );
    if args.flag("--iters") {
        for (i, s) in rep.selectivity.iter().enumerate() {
            let _ = writeln!(out, "iter {i}: {s}");
        }
    }
    if let Some((file, path)) = &mut metrics {
        let dump = crate::metrics_json(&[(format!("{algo}/m{machines}"), rep)]);
        file.write_all(dump.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
    Ok(out)
}

/// The resident-set high-water mark step by step: each step's `VmHWM` is
/// read when it ends and the mark restarted at the current resident set,
/// so the next reading covers the next step alone.
#[derive(Default)]
struct HighWater {
    /// `"<step> <MB>"` per finished step, `"<step> n/a"` where `/proc`
    /// has no `VmHWM` or could not restart the mark before the step.
    steps: Vec<String>,
    /// Whether a restart failed, which leaves later readings cumulative.
    stale: bool,
}

impl HighWater {
    fn step(&mut self, name: &str) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|t| {
                let line = t.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<u64>().ok()
            })
            .filter(|_| !self.stale);
        self.steps.push(match kb {
            Some(kb) => format!("{name} {:.1} MB", kb as f64 / 1024.0),
            None => format!("{name} n/a"),
        });
        self.stale |= std::fs::write("/proc/self/clear_refs", "5").is_err();
    }
}
