//! `chaos-perf`: the repository's benchmark.
//!
//! ```text
//! chaos-perf --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! chaos-perf suite [--seed N] [--smoke] [--out FILE]
//! chaos-perf compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in one
//! process, a result object as the last line of standard output. `suite`
//! runs that same command [`suite::ROUNDS`] times per workload, interleaved,
//! then once traced, and writes one file; `compare` sets two such files
//! side by side. See `README.md` beside this crate.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

use metrics::RUN_SECONDS;

use workloads::{Cell, CELLS};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// `--flag value` pairs and bare switches, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let text = self.0.remove(at + 1);
        self.0.remove(at);
        text.parse()
            .map(Some)
            .map_err(|_| format!("bad value {text:?} for {flag}"))
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

/// Where a run leaves files: `perf/` beside the build profile directory
/// the executable sits in (`target/perf`, or `.bench_build/perf` under the
/// driver), so nothing is written outside the checkout. The file backend's
/// scratch directories go under it too, through `TMPDIR` — set once, before
/// anything reads it, however many threads ask.
fn perf_dir() -> Result<&'static Path, String> {
    static DIR: OnceLock<Result<PathBuf, String>> = OnceLock::new();
    DIR.get_or_init(|| {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
        let dir = exe
            .parent()
            .and_then(|profile| profile.parent())
            .ok_or("the executable has no build directory above it")?
            .join("perf");
        let tmp = dir.join("tmp");
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        std::env::set_var("TMPDIR", &tmp);
        Ok(dir)
    })
    .as_deref()
    .map_err(Clone::clone)
}

fn one_workload(mut flags: Flags) -> Result<ExitCode, String> {
    let name: String = flags
        .value("--workload")?
        .ok_or("--workload NAME is required")?;
    let seed = flags.value("--seed")?.unwrap_or(1);
    let seconds: f64 = flags.value("--seconds")?.unwrap_or(RUN_SECONDS);
    let trace = match flags.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let smoke = flags.switch("--smoke");
    flags.done()?;
    if !(seconds > 0.0 && seconds <= 170.0) {
        return Err(format!("--seconds must be in (0, 170], not {seconds}"));
    }
    let cell = Cell::named(&name).ok_or_else(|| {
        let names: Vec<&str> = CELLS.iter().map(|c| c.name).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let args = run::Args {
        cell: if smoke { cell.smoke() } else { cell },
        seed,
        seconds,
        trace,
        smoke,
    };
    let outcome = run::run(&args, perf_dir()?)?;
    println!("{}", outcome.result);
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => {
            args.remove(0);
            perf_dir().and_then(|dir| suite::suite(Flags(args), dir))
        }
        Some("compare") => compare::compare(&args[1..]),
        _ => one_workload(Flags(args)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("chaos-perf: {message}");
            ExitCode::from(2)
        }
    }
}
