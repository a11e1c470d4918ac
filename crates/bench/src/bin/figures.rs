//! CLI driving the table/figure harnesses.
//!
//! ```text
//! figures list                      # show experiment ids
//! figures fig7                      # one experiment at the quick scale
//! figures all                       # everything, quick scale
//! figures all --full                # everything, larger scale
//! ```
//!
//! `--streaming {selective|reference|dense}` selects the scatter
//! streaming mode. `selective` (default) and `reference` produce
//! bit-identical output — the reference mode is the dense-streaming
//! oracle that additionally verifies every skipped chunk scatters to
//! nothing; `bench_smoke.sh` byte-compares across this flag too.
//!
//! `--cluster-bins N` overrides the clustered edge layout's bin count
//! (1 = the unclustered arrival-order layout). Timings and skip counts
//! legitimately differ across layouts; the figures' "states digest"
//! lines do not, and `bench_smoke.sh` compares them.
//!
//! `--queue {calendar|heap}` selects the event-queue store — host-side
//! only: stdout is bit-identical across both (`bench_smoke.sh`
//! byte-compares them).
//!
//! `--block-records N` overrides the sub-chunk block-index granularity
//! (0 = chunk-granularity serves, the pre-block behavior). Like the bin
//! count a layout knob: skip counts differ, states digests do not.
//!
//! `--dataset <path>` replaces the RMAT generator with an external edge
//! list (binary web-graph format, or `src dst [weight]` text) for every
//! run; experiments keep their machine sweeps on that one graph.
//!
//! `--metrics-json <path>` dumps every run's report plus per-iteration
//! selectivity as stable JSON after the experiments finish.
//!
//! Any other `--option` is an error: one `error:` line, exit 1, nothing
//! run.

use std::process::ExitCode;

use chaos_bench::harness::check_options;
use chaos_bench::{run_experiment, Harness, Scale, EXPERIMENTS};
use chaos_core::{QueueKind, Streaming};

const OPTIONS: &[&str] = &[
    "--streaming",
    "--cluster-bins",
    "--block-records",
    "--queue",
    "--dataset",
    "--metrics-json",
    "--full",
];

/// Prints the summed fault account to stderr (stdout carries the figure
/// and nothing else).
fn fault_stats(h: &Harness) {
    let fa = h.fault_account();
    eprintln!(
        "fault account:  aborts={} redone={} device-retries={} faulted-ns={} \
         ckpt-bytes={} ckpt-ns={}",
        fa.aborts,
        fa.iterations_redone,
        fa.device_retries,
        fa.faulted_time,
        fa.checkpoint_bytes,
        fa.checkpoint_time,
    );
    eprintln!(
        "integrity:      corruption-detected={} repaired={} frames-scrubbed={} \
         checksum-bytes={}",
        fa.corruption_detected,
        fa.corruption_repaired,
        fa.frames_scrubbed,
        fa.checksum_bytes,
    );
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_options(&args, OPTIONS) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut streaming = Streaming::Selective;
    // Loop so a repeated flag is fully consumed (last one wins) instead of
    // its value leaking through as an experiment id.
    let mut cluster_bins: Option<u32> = None;
    while let Some(i) = args.iter().position(|a| a == "--cluster-bins") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("--cluster-bins needs a positive integer (1 = unclustered)");
            return ExitCode::FAILURE;
        };
        cluster_bins = match spec.parse() {
            Ok(b) if b > 0 => Some(b),
            _ => {
                eprintln!("bad --cluster-bins value {spec:?}");
                return ExitCode::FAILURE;
            }
        };
        args.drain(i..=i + 1);
    }
    let mut block_records: Option<u32> = None;
    while let Some(i) = args.iter().position(|a| a == "--block-records") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("--block-records needs a record count (0 = chunk-granularity serves)");
            return ExitCode::FAILURE;
        };
        block_records = match spec.parse() {
            Ok(b) => Some(b),
            Err(_) => {
                eprintln!("bad --block-records value {spec:?}");
                return ExitCode::FAILURE;
            }
        };
        args.drain(i..=i + 1);
    }
    let mut dataset: Option<String> = None;
    while let Some(i) = args.iter().position(|a| a == "--dataset") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--dataset needs a path to a binary or text edge list");
            return ExitCode::FAILURE;
        };
        dataset = Some(path.clone());
        args.drain(i..=i + 1);
    }
    let mut metrics_json: Option<String> = None;
    while let Some(i) = args.iter().position(|a| a == "--metrics-json") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--metrics-json needs an output path");
            return ExitCode::FAILURE;
        };
        metrics_json = Some(path.clone());
        args.drain(i..=i + 1);
    }
    while let Some(i) = args.iter().position(|a| a == "--streaming") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("--streaming needs a value: selective, reference or dense");
            return ExitCode::FAILURE;
        };
        streaming = match spec.parse() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        args.drain(i..=i + 1);
    }
    let mut queue = QueueKind::default();
    while let Some(i) = args.iter().position(|a| a == "--queue") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!("--queue needs a value: calendar or heap");
            return ExitCode::FAILURE;
        };
        queue = match spec.parse() {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        args.drain(i..=i + 1);
    }
    let full = args.iter().any(|a| a == "--full");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let scale = if full { Scale::full() } else { Scale::quick() }
        .with_streaming(streaming)
        .with_cluster_bins(cluster_bins)
        .with_block_records(block_records)
        .with_queue(queue);

    match ids.first().copied() {
        None | Some("list") => {
            println!("experiments (run with `figures <id>` or `figures all [--full]`):");
            for (id, what) in EXPERIMENTS {
                println!("  {id:<10} {what}");
            }
        }
        Some(first) => {
            let h = Harness::new(scale);
            if let Some(path) = &dataset {
                if let Err(e) = h.set_dataset(std::path::Path::new(path)) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if first == "all" {
                for (id, _) in EXPERIMENTS {
                    run_experiment(id, &h);
                    eprintln!("[{:7.1}s elapsed]", h.elapsed());
                }
                println!("\nall experiments done in {:.1}s wall clock", h.elapsed());
            } else {
                for id in ids {
                    run_experiment(id, &h);
                }
            }
            fault_stats(&h);
            if let Some(path) = &metrics_json {
                if let Err(e) = h.write_metrics_json(std::path::Path::new(path)) {
                    eprintln!("error: cannot write metrics to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
