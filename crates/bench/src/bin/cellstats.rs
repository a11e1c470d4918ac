//! One-cell microprobe: runs a single (algorithm, machines, scale) cell
//! and prints wall time, event count, record throughput and the
//! selective-streaming account — for sizing host-side optimizations
//! without a full figure sweep.
//!
//! ```text
//! cellstats PR 4 14 [selective|reference|dense] \
//!     [--bins N] [--block-records N] [--queue calendar|heap] \
//!     [--iters] [--metrics-json <path>] [--fault-seed N] [--scrub]
//! ```
//!
//! `--bins N` overrides the clustered-layout bin count (1 = unclustered
//! arrival-order layout). `--block-records N` overrides the sub-chunk
//! block-index granularity (0 = chunk-granularity serves). `--queue`
//! selects the event-queue store (host-side only — the simulated columns
//! never move). `--iters` adds a per-iteration table:
//! active-vertex fraction, chunks/records and blocks/records skipped
//! (split into empty-frontier and mid-wavefront skips), and
//! tombstone/compaction counts — the shape of a frontier collapsing or a
//! Borůvka contraction eating the edge set. `--metrics-json <path>` dumps
//! the run's report plus per-iteration selectivity as stable JSON.
//! `--fault-seed N` turns on checkpointing and injects the seed-`N`
//! generated fault plan (crashes + torn writes + device + fabric +
//! corruption windows); the fault account and integrity lines show what
//! the recovery protocol absorbed. `--scrub` enables the between-
//! iteration integrity scrub pass. The `states digest` line is a
//! layout- and fault-invariant fingerprint of the final vertex states —
//! `scripts/bench_smoke.sh` compares it between corruption-seeded and
//! fault-free runs. Any other `--option` is an error: one `error:` line,
//! exit 1, nothing run.

use std::time::Instant;

use chaos_algos::{needs_undirected, needs_weights, with_algo, AlgoParams};
use chaos_core::{run_chaos, ChaosConfig, FaultPlan, FaultPlanConfig, QueueKind, Streaming};
use chaos_graph::RmatConfig;

const OPTIONS: &[&str] = &[
    "--iters",
    "--bins",
    "--block-records",
    "--metrics-json",
    "--queue",
    "--scrub",
    "--fault-seed",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = chaos_bench::harness::check_options(&args, OPTIONS) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let per_iter = args.iter().any(|a| a == "--iters");
    args.retain(|a| a != "--iters");
    let mut bins: Option<u32> = None;
    if let Some(i) = args.iter().position(|a| a == "--bins") {
        bins = match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(b) if b > 0 => Some(b),
            _ => panic!("--bins needs a positive integer (1 = unclustered)"),
        };
        args.drain(i..=i + 1);
    }
    let mut block_records: Option<u32> = None;
    if let Some(i) = args.iter().position(|a| a == "--block-records") {
        block_records = Some(
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--block-records needs a record count (0 = chunk-granularity)"),
        );
        args.drain(i..=i + 1);
    }
    let mut metrics_json: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--metrics-json") {
        metrics_json = Some(
            args.get(i + 1)
                .cloned()
                .expect("--metrics-json needs an output path"),
        );
        args.drain(i..=i + 1);
    }
    let mut queue = QueueKind::default();
    if let Some(i) = args.iter().position(|a| a == "--queue") {
        queue = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--queue needs calendar or heap");
        args.drain(i..=i + 1);
    }
    let scrub = args.iter().any(|a| a == "--scrub");
    args.retain(|a| a != "--scrub");
    let mut fault_seed: Option<u64> = None;
    if let Some(i) = args.iter().position(|a| a == "--fault-seed") {
        fault_seed = Some(
            args.get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--fault-seed needs an integer seed"),
        );
        args.drain(i..=i + 1);
    }
    let algo = args.first().map(|s| s.as_str()).unwrap_or("PR").to_string();
    let machines: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let scale: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(14);
    let streaming: Streaming = args
        .get(3)
        .map(|s| s.parse().expect("bad streaming mode"))
        .unwrap_or(Streaming::Selective);

    let cfg_rmat = if needs_weights(&algo) {
        RmatConfig::paper_weighted(scale)
    } else {
        RmatConfig::paper(scale)
    };
    let mut g =
        chaos_bench::harness::graph_or_exit(format_args!("scale {scale}"), cfg_rmat.try_generate());
    if needs_undirected(&algo) {
        g = g.to_undirected();
    }
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = 32 * 1024;
    cfg.mem_budget = 256 * 1024;
    cfg.streaming = streaming;
    cfg.queue = queue;
    if let Some(b) = bins {
        cfg.cluster_bins = b;
    }
    if let Some(br) = block_records {
        cfg.block_records = br;
    }
    if let Some(seed) = fault_seed {
        cfg.checkpoint = true;
        cfg.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines));
    }
    cfg.scrub = scrub;
    let t0 = Instant::now();
    let params = AlgoParams::default();
    let (rep, digest) = with_algo!(algo.as_str(), &params, |p| {
        let (rep, states) = run_chaos(cfg, p, &g);
        (rep, chaos_bench::harness::digest_states(&states))
    });
    let wall = t0.elapsed().as_secs_f64();
    // `cluster_bins` is the run's *effective* layout — dense-activity
    // programs keep the single-bin arrival order whatever was requested.
    println!(
        "{algo} m={machines} scale={scale} streaming={streaming} bins={}: \
         wall {:.3}s, events {}, records {}, iters {}, {:.0} events/s, {:.0} records/s",
        rep.cluster_bins,
        wall,
        rep.events,
        rep.records_streamed,
        rep.iterations,
        rep.events as f64 / wall,
        rep.records_streamed as f64 / wall,
    );
    let fa = &rep.faults;
    println!(
        "faults: {} aborts, {} iterations redone, {} device retries, \
         {:.3}s lost to faults; {} checkpoint bytes in {:.3}s",
        fa.aborts,
        fa.iterations_redone,
        fa.device_retries,
        fa.faulted_time as f64 / 1e9,
        fa.checkpoint_bytes,
        fa.checkpoint_time as f64 / 1e9,
    );
    println!(
        "integrity: {} corruptions detected, {} repaired, {} frames scrubbed, \
         {} checksum bytes",
        fa.corruption_detected,
        fa.corruption_repaired,
        fa.frames_scrubbed,
        fa.checksum_bytes,
    );
    println!("states digest: {digest:016x}");
    let streamed_plus_skipped = rep.records_streamed + rep.records_skipped();
    let skipped_empty = rep.records_skipped() - rep.records_skipped_mid();
    println!(
        "selectivity: {} chunks ({} records, {:.1}% of edge+update traffic) skipped \
         [{} records on empty frontiers, {} mid-wavefront]; \
         {} compactions dropped {} edges",
        rep.chunks_skipped(),
        rep.records_skipped(),
        100.0 * rep.records_skipped() as f64 / streamed_plus_skipped.max(1) as f64,
        skipped_empty,
        rep.records_skipped_mid(),
        rep.compactions(),
        rep.edges_tombstoned(),
    );
    // Sub-chunk selectivity: blocks the block indexes proved inactive
    // inside chunks that were otherwise served (zero with
    // `--block-records 0` or under dense activity).
    println!(
        "block selectivity: {} blocks skipped inside served chunks \
         ({} records never read or streamed)",
        rep.blocks_skipped(),
        rep.records_skipped_intra(),
    );
    // The layout's direct observable: how narrow the stored chunk windows
    // are relative to their partition's span.
    let h = &rep.window_widths;
    let parts: Vec<String> = chaos_core::WindowHistogram::labels()
        .iter()
        .zip(h.buckets.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(l, n)| format!("{l}: {n}"))
        .collect();
    println!(
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
    if per_iter {
        println!(
            "{:>5} {:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
            "iter",
            "active%",
            "chunks-skp",
            "records-skp",
            "skp-empty",
            "skp-mid",
            "blocks-skp",
            "skp-intra",
            "tombstoned",
            "compactions"
        );
        for (i, s) in rep.selectivity.iter().enumerate() {
            println!(
                "{i:>5} {:>7.1}% {:>10} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
                100.0 * s.active_fraction(),
                s.chunks_skipped,
                s.records_skipped,
                s.records_skipped - s.records_skipped_mid,
                s.records_skipped_mid,
                s.blocks_skipped,
                s.records_skipped_intra,
                s.edges_tombstoned,
                s.compactions,
            );
        }
    }
    if let Some(path) = metrics_json {
        let label = format!("{algo}/m{machines}");
        let dump = chaos_bench::metrics_json(&[(label, rep)]);
        std::fs::write(&path, dump).expect("write metrics json");
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
}
