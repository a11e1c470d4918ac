//! Golden `chaos-cli run` stdout: three runs at `cellstats`' geometry
//! (scale 10, 4 machines, 32 KiB chunks, 256 KiB memory budget) — PR and
//! MCST under the seed-2 generated fault plan with scrub, BFS clean —
//! pinned byte for byte in `tests/golden/cli_run.txt`, each after a
//! `$ chaos-cli run ...` line naming its arguments. Every line is a
//! simulated quantity or derived from one, so the file is
//! host-independent; it pins the headline and the `key=value` counter
//! lines `RunReport`'s `Display` derives from the counter declarations.
//!
//! On a mismatch the test writes the fresh output to
//! `target/golden/cli_run.txt` and fails, naming the first differing line
//! (`common::golden_diff`). To regenerate after an intended change:
//! `cargo test --test cli_golden`, then copy `target/golden/cli_run.txt`
//! over `tests/golden/cli_run.txt` and say in the change what moved.

mod common;

use std::process::Command;

const GEOMETRY: &str = "--scale 10 --machines 4 --chunk-kb 32 --mem-kb 256";

#[test]
fn chaos_cli_run_matches_the_golden_file() {
    let mut fresh = String::new();
    for algo in [
        "--algo PR --fault-seed 2 --scrub",
        "--algo BFS",
        "--algo MCST --fault-seed 2 --scrub",
    ] {
        let args = format!("{algo} {GEOMETRY}");
        let run = Command::new(env!("CARGO_BIN_EXE_chaos-cli"))
            .arg("run")
            .args(args.split(' '))
            .output()
            .expect("chaos-cli starts");
        assert!(
            run.status.success(),
            "chaos-cli run {args} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        fresh += &format!("$ chaos-cli run {args}\n");
        fresh += &String::from_utf8(run.stdout).expect("stdout is UTF-8");
    }
    if let Some(diff) = common::golden_diff("cli_run.txt", &fresh) {
        panic!("chaos-cli run stdout {diff}");
    }
}
