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

use std::path::PathBuf;
use std::process::ExitCode;

use chaos::algos::{needs_undirected, needs_weights, with_algo, AlgoParams, ALGO_NAMES};
use chaos::core::{run_chaos, ChaosConfig, FaultPlan, FaultPlanConfig, Streaming};
use chaos::graph::{io as graph_io, InputGraph, RmatConfig, WebGraphConfig};

/// Every option any subcommand reads; anything else starting with `--` is
/// an error, not a silent no-op.
const OPTIONS: &[&str] = &[
    "--out",
    "--scale",
    "--web-pages",
    "--weighted",
    "--text",
    "--algo",
    "--graph",
    "--dataset",
    "--machines",
    "--chunk-kb",
    "--mem-kb",
    "--iters",
    "--hdd",
    "--one-gige",
    "--checkpoint",
    "--alpha",
    "--streaming",
    "--cluster-bins",
    "--seed",
    "--fault-seed",
    "--scrub",
    "--metrics-json",
];

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }
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
  --streaming <S>     scatter streaming: selective (default), reference
                      (dense oracle, bit-identical report), or dense
  --cluster-bins <N>  source-clustered layout bins per partition
                      (default 16; 1 = unclustered arrival order;
                      results are identical for any value)
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
    } else if let Some(pages) = args.value("--web-pages") {
        let pages: u64 = pages.parse().map_err(|_| "bad --web-pages".to_string())?;
        WebGraphConfig::scaled(pages)
            .try_generate()
            .map_err(|e| format!("--web-pages {pages}: {e}"))?
    } else {
        let scale: u32 = args.parsed("--scale", 12)?;
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
        return Err(format!("unknown algorithm {algo:?}; one of {}", ALGO_NAMES.join(", ")));
    }
    let algo: &str = algo;
    let g = load_or_generate(args, Some(algo))?;
    let machines: usize = args.parsed("--machines", 4)?;
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = args.parsed("--chunk-kb", 64u64)? * 1024;
    cfg.mem_budget = args.parsed("--mem-kb", 1024u64)? * 1024;
    cfg.steal_alpha = args.parsed("--alpha", 1.0f64)?;
    cfg.checkpoint = args.flag("--checkpoint");
    cfg.streaming = args.parsed("--streaming", Streaming::Selective)?;
    cfg.cluster_bins = args.parsed("--cluster-bins", cfg.cluster_bins)?;
    cfg.seed = args.parsed("--seed", cfg.seed)?;
    if let Some(seed) = args.value("--fault-seed") {
        let seed: u64 = seed.parse().map_err(|_| "bad --fault-seed".to_string())?;
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
    let mut params = AlgoParams::default();
    params.pr_iterations = args.parsed("--iters", 5u32)?;
    params.bp_iterations = params.pr_iterations;

    println!(
        "running {algo} on {} vertices / {} edges over {machines} machines ({}, {})...",
        g.num_vertices,
        g.num_edges(),
        cfg.device.name,
        if args.flag("--one-gige") { "1GigE" } else { "40GigE" },
    );
    let report = with_algo!(algo, &params, |p| run_chaos(cfg, p, &g).0);
    println!("simulated runtime   {:>10.3} s (preprocess {:.3} s)",
        report.seconds(), report.preprocess_time as f64 / 1e9);
    println!("iterations          {:>10}", report.iterations);
    println!("partitions          {:>10}", report.partitions);
    println!("steals              {:>10}", report.steals);
    println!("device I/O          {:>10.1} MB", report.total_device_bytes() as f64 / 1e6);
    println!("aggregate bandwidth {:>10.1} MB/s", report.aggregate_bandwidth() / 1e6);
    println!("network traffic     {:>10.1} MB", report.fabric.remote_bytes as f64 / 1e6);
    println!("device utilization  {:>10.1} %", 100.0 * report.mean_device_utilization());
    if report.chunks_skipped() > 0 || report.compactions() > 0 {
        println!(
            "selective streaming {:>10} chunks skipped ({} records; {} mid-wavefront); \
             {} compactions dropped {} edges",
            report.chunks_skipped(),
            report.records_skipped(),
            report.records_skipped_mid(),
            report.compactions(),
            report.edges_tombstoned(),
        );
    }
    let fa = &report.faults;
    if fa.aborts > 0 || fa.device_retries > 0 || fa.faulted_time > 0 {
        println!(
            "fault recovery      {:>10} aborts ({} iterations redone), {} device retries, \
             {:.3} s lost to faults",
            fa.aborts,
            fa.iterations_redone,
            fa.device_retries,
            fa.faulted_time as f64 / 1e9,
        );
    }
    if fa.checkpoint_bytes > 0 {
        println!(
            "checkpointing       {:>10.1} MB in {:.3} s",
            fa.checkpoint_bytes as f64 / 1e6,
            fa.checkpoint_time as f64 / 1e9,
        );
    }
    if fa.corruption_detected > 0 || fa.frames_scrubbed > 0 {
        println!(
            "data integrity      {:>10} corruptions detected ({} repaired), \
             {} frames scrubbed",
            fa.corruption_detected,
            fa.corruption_repaired,
            fa.frames_scrubbed,
        );
    }
    if fa.checksum_bytes > 0 {
        println!(
            "checksum overhead   {:>10.1} KB of frame bytes",
            fa.checksum_bytes as f64 / 1e3,
        );
    }
    if let Some(agg) = report.iteration_aggs.last() {
        println!("final aggregates    updates={} changed={}", agg.updates_produced, agg.vertices_changed);
    }
    if let Some(path) = args.value("--metrics-json") {
        let label = format!("{algo}/m{machines}");
        let dump = chaos::bench::metrics_json(&[(label, report)]);
        std::fs::write(path, dump).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        usage();
        return ExitCode::FAILURE;
    };
    let args = Args(argv);
    // `argv[0]` is the command (`--help` included); options follow it.
    let options = chaos::bench::harness::check_options(&args.0[1..], OPTIONS);
    let result = options.and_then(|()| match cmd.as_str() {
        "list" => {
            for a in ALGO_NAMES {
                println!(
                    "{a:<6} {}{}",
                    if needs_undirected(a) { "undirected " } else { "directed " },
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
