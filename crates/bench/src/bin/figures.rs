//! CLI driving the table/figure harnesses.
//!
//! ```text
//! figures list                      # show experiment ids
//! figures fig7                      # one experiment at the quick scale
//! figures fig7 fig13                # several, in the order given
//! figures all                       # everything, quick scale
//! figures all --full                # everything, larger scale
//! ```
//!
//! `--dataset <path>` replaces the RMAT generator with an external edge
//! list (binary web-graph format, or `src dst [weight]` text) for every
//! run; experiments keep their machine sweeps on that one graph.
//!
//! `--metrics-json <path>` dumps every run's report plus per-iteration
//! selectivity as stable JSON after the experiments finish.
//!
//! Stdout carries the tables and nothing else, so two runs print the same
//! bytes; timings and the summed fault account (`fault account:
//! key=value ...`, every `FaultAccount` counter) go to stderr.
//!
//! Every experiment id is checked before the first one runs. An unknown
//! id or option, a missing or bad value, or a path that cannot be written
//! is one `error:` line and exit 1, with nothing run (the option rules
//! are `chaos_bench::cli`'s).

use std::process::ExitCode;

use chaos_bench::cli::{self, Args, Flag, Options, Value};
use chaos_bench::{run_experiment, Harness, Scale, EXPERIMENTS};

const OPTIONS: &Options = &[
    ("--dataset", Value),
    ("--metrics-json", Value),
    ("--full", Flag),
];

fn run() -> Result<(), String> {
    let args = Args::parse(OPTIONS, std::env::args().skip(1))?;
    let all = args.positionals() == ["all"];
    let ids: Vec<&str> = match args.positionals() {
        [] => Vec::new(),
        [only] if only == "list" => Vec::new(),
        _ if all => EXPERIMENTS.iter().map(|(id, _)| *id).collect(),
        ids => ids.iter().map(String::as_str).collect(),
    };
    if ids.is_empty() {
        println!("experiments (run with `figures <id>` or `figures all [--full]`):");
        for (id, what) in EXPERIMENTS {
            println!("  {id:<10} {what}");
        }
        return Ok(());
    }
    if let Some(id) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|(e, _)| e == *id))
    {
        return Err(format!("unknown experiment {id:?}; try `figures list`"));
    }
    let mut metrics = match args.value("--metrics-json") {
        Some(path) => Some((cli::create(path)?, path)),
        None => None,
    };
    let scale = if args.flag("--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let h = Harness::new(scale);
    if let Some(path) = args.value("--dataset") {
        h.set_dataset(std::path::Path::new(path))?;
    }
    for id in ids {
        for table in run_experiment(id, &h) {
            print!("{table}");
        }
        if all {
            eprintln!("[{:7.1}s elapsed]", h.elapsed());
        }
    }
    if all {
        eprintln!("all experiments done in {:.1}s wall clock", h.elapsed());
    }
    eprintln!("fault account: {}", h.fault_account());
    if let Some((file, path)) = &mut metrics {
        let runs = h
            .write_metrics_json(file)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[metrics-json] wrote {runs} run(s) to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::exit_code(run())
}
