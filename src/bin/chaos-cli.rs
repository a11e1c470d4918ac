//! `chaos-cli` — run Chaos from the command line.
//!
//! ```text
//! chaos-cli gen --scale 14 --weighted --out graph.bin
//! chaos-cli run --algo PR --scale 14 --machines 8 --iters 5
//! chaos-cli run --algo BFS --graph graph.bin --machines 16 --hdd
//! chaos-cli list
//! ```
//!
//! Graphs are loaded from the binary or text edge-list formats of
//! `chaos::graph::io`, or generated on the fly with `--scale` (RMAT) /
//! `--web-pages` (the Data-Commons-shaped generator).
//!
//! `run` prints the derived headline (simulated runtime, device I/O,
//! bandwidth, network traffic, utilization), then one `key=value` line per
//! counter group of the run — `run:`, `selectivity:`, `storage:`,
//! `faults:`, the keys of the `--metrics-json` run object — and the final
//! aggregates. Stdout is a function of the command line alone.
//!
//! Options follow the command. An unknown option, a missing or bad value,
//! a positional after the command or an invalid configuration is one
//! `error:` line and exit 1, with nothing run (the option rules are
//! `chaos::bench::cli`'s; the last of a repeated option wins).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use chaos::algos::{needs_undirected, needs_weights, with_algo, AlgoParams, ALGO_NAMES};
use chaos::bench::cli::{self, Args, Flag, Options, Value};
use chaos::core::{ChaosConfig, Cluster, FaultPlan, FaultPlanConfig};
use chaos::graph::{io as graph_io, InputGraph, RmatConfig, WebGraphConfig};

/// Every option any subcommand reads; the rules are `chaos::bench::cli`'s.
const OPTIONS: &Options = &[
    ("--out", Value),
    ("--scale", Value),
    ("--web-pages", Value),
    ("--weighted", Flag),
    ("--text", Flag),
    ("--algo", Value),
    ("--graph", Value),
    ("--dataset", Value),
    ("--machines", Value),
    ("--chunk-kb", Value),
    ("--mem-kb", Value),
    ("--iters", Value),
    ("--hdd", Flag),
    ("--one-gige", Flag),
    ("--checkpoint", Flag),
    ("--alpha", Value),
    ("--seed", Value),
    ("--fault-seed", Value),
    ("--scrub", Flag),
    ("--metrics-json", Value),
];

/// A size option given in KiB, in bytes.
fn kib(args: &Args, name: &str, default: u64) -> Result<u64, String> {
    let k = args.get_or(name, default)?;
    k.checked_mul(1024)
        .ok_or_else(|| format!("{name} {k}: more than 2^64 bytes"))
}

fn usage() {
    eprintln!(
        "chaos-cli — scale-out graph processing from (simulated) secondary storage

USAGE:
  chaos-cli list
  chaos-cli gen  --out <file> [--scale N | --web-pages N] [--weighted] [--text]
  chaos-cli run  --algo <NAME> [graph source] [cluster options]

GRAPH SOURCE (one of):
  --graph <file>      load a binary or text edge list (auto-detected)
  --dataset <file>    alias for --graph (matches the figures harness)
  --scale <N>         generate RMAT-N (default 12)
  --web-pages <N>     generate an N-page web graph

CLUSTER OPTIONS:
  --machines <M>      simulated machines (default 4)
  --chunk-kb <K>      chunk size in KiB (default 64)
  --mem-kb <K>        per-machine vertex memory budget in KiB (default 1024)
  --iters <I>         iterations for PR/BP (default 5)
  --hdd               magnetic disks instead of SSDs
  --one-gige          1 GigE fabric instead of 40 GigE
  --checkpoint        checkpoint vertex values at gather barriers
  --alpha <A>         work-stealing bias (default 1.0; 0 disables, inf always)
  --seed <S>          RNG seed
  --fault-seed <S>    inject the seed-S generated fault plan (crashes +
                      torn writes + device faults + fabric stragglers +
                      corruption windows; implies --checkpoint; final
                      states stay identical)
  --scrub             verify every stored frame between iterations
                      (integrity scrub pass; adds read traffic only)
  --metrics-json <f>  dump the run's report as stable JSON to <f>

ALGORITHMS: {}",
        ALGO_NAMES.join(", ")
    );
}

fn load_or_generate(args: &Args, algo: Option<&str>) -> Result<InputGraph, String> {
    let weighted_needed = algo.map(needs_weights).unwrap_or(args.flag("--weighted"));
    let mut g = if let Some(path) = args.value("--graph").or_else(|| args.value("--dataset")) {
        let p = PathBuf::from(path);
        graph_io::read_binary(&p)
            .or_else(|_| graph_io::read_text(&p))
            .map_err(|e| format!("cannot read {path}: {e}"))?
    } else if let Some(pages) = args.get::<u64>("--web-pages")? {
        WebGraphConfig::scaled(pages)
            .try_generate()
            .map_err(|e| format!("--web-pages {pages}: {e}"))?
    } else {
        let scale: u32 = args.get_or("--scale", 12)?;
        let rmat = if weighted_needed {
            RmatConfig::paper_weighted(scale)
        } else {
            RmatConfig::paper(scale)
        };
        rmat.try_generate()
            .map_err(|e| format!("--scale {scale}: {e}"))?
    };
    if weighted_needed && !g.weighted {
        return Err("this algorithm needs edge weights; use a weighted graph".into());
    }
    if let Some(a) = algo {
        if needs_undirected(a) {
            g = g.to_undirected();
        }
    }
    Ok(g)
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(args.value("--out").ok_or("gen needs --out <file>")?);
    let g = load_or_generate(args, None)?;
    let res = if args.flag("--text") {
        graph_io::write_text(&g, &out)
    } else {
        graph_io::write_binary(&g, &out)
    };
    res.map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} vertices / {} edges ({}weighted) to {}",
        g.num_vertices,
        g.num_edges(),
        if g.weighted { "" } else { "un" },
        out.display()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let algo = args.value("--algo").ok_or("run needs --algo <NAME>")?;
    if !ALGO_NAMES.contains(&algo) {
        return Err(format!(
            "unknown algorithm {algo:?}; one of {}",
            ALGO_NAMES.join(", ")
        ));
    }
    let algo: &str = algo;
    let g = load_or_generate(args, Some(algo))?;
    let machines: usize = args.get_or("--machines", 4)?;
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = kib(args, "--chunk-kb", 64)?;
    cfg.mem_budget = kib(args, "--mem-kb", 1024)?;
    cfg.steal_alpha = args.get_or("--alpha", 1.0f64)?;
    cfg.checkpoint = args.flag("--checkpoint");
    cfg.seed = args.get_or("--seed", cfg.seed)?;
    if let Some(seed) = args.get::<u64>("--fault-seed")? {
        cfg.checkpoint = true;
        cfg.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines));
    }
    cfg.scrub = args.flag("--scrub");
    if args.flag("--hdd") {
        cfg = cfg.with_hdd();
    }
    if args.flag("--one-gige") {
        cfg = cfg.with_one_gige();
    }
    cfg.validate()?;
    let iters: u32 = args.get_or("--iters", 5)?;
    if iters == 0 {
        return Err("--iters 0: need at least one iteration".into());
    }
    let mut metrics = match args.value("--metrics-json") {
        Some(path) => Some((cli::create(path)?, path)),
        None => None,
    };
    let params = AlgoParams {
        pr_iterations: iters,
        bp_iterations: iters,
        ..AlgoParams::default()
    };

    let fabric = if args.flag("--one-gige") {
        "1GigE"
    } else {
        "40GigE"
    };
    let banner = format!(
        "running {algo} on {} vertices / {} edges over {machines} machines ({}, {fabric})...",
        g.num_vertices,
        g.num_edges(),
        cfg.device.name,
    );
    // Built before anything is printed: a graph the engine cannot hold is
    // an error line, not a partial run.
    let report = with_algo!(algo, &params, |p| {
        let mut cluster = Cluster::new(cfg, p, &g)?;
        println!("{banner}");
        cluster.run()
    });
    println!(
        "simulated runtime   {:>10.3} s (preprocess {:.3} s)",
        report.seconds(),
        report.preprocess_time as f64 / 1e9
    );
    println!(
        "device I/O          {:>10.1} MB",
        report.total_device_bytes() as f64 / 1e6
    );
    println!(
        "aggregate bandwidth {:>10.1} MB/s",
        report.aggregate_bandwidth() / 1e6
    );
    println!(
        "network traffic     {:>10.1} MB",
        report.fabric.remote_bytes as f64 / 1e6
    );
    println!(
        "device utilization  {:>10.1} %",
        100.0 * report.mean_device_utilization()
    );
    print!("{report}");
    if let Some(agg) = report.iteration_aggs.last() {
        println!(
            "final aggregates    updates={} changed={}",
            agg.updates_produced, agg.vertices_changed
        );
    }
    if let Some((file, path)) = &mut metrics {
        let dump = chaos::bench::metrics_json(&[(format!("{algo}/m{machines}"), report)]);
        file.write_all(dump.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    // The first argument is the command (`--help` included); options follow.
    let Some(cmd) = argv.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    let result = Args::parse(OPTIONS, argv).and_then(|args| {
        args.at_most(0)?;
        match cmd.as_str() {
            "list" => {
                for a in ALGO_NAMES {
                    println!(
                        "{a:<6} {}{}",
                        if needs_undirected(a) {
                            "undirected "
                        } else {
                            "directed "
                        },
                        if needs_weights(a) { "weighted" } else { "" }
                    );
                }
                Ok(())
            }
            "gen" => cmd_gen(&args),
            "run" => cmd_run(&args),
            "help" | "--help" | "-h" => {
                usage();
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `chaos-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}
