//! One-cell microprobe: `cellstats [ALGO [MACHINES [SCALE]]] [--iters]
//! [--metrics-json <path>] [--fault-seed N] [--scrub]`. Its options and
//! output are documented on `chaos_bench::cellstats`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let run = chaos_bench::cellstats::main(std::env::args().skip(1));
    chaos_bench::cli::exit_code(run.map(|out| print!("{out}")))
}
