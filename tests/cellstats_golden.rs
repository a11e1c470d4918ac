//! Golden `cellstats` stdout: the six cells `tests/golden/metrics.json`
//! pins as JSON — `cellstats {PR,BFS,MCST} 4 10`, clean and with
//! `--fault-seed 2 --scrub` — pinned byte for byte in
//! `tests/golden/cellstats.txt`, each after a `$ cellstats ...` line
//! naming its arguments. The output is what the binary prints
//! (`chaos_bench::cellstats::main`); every line of it is a simulated
//! quantity or derived from one, so the file is host-independent. BFS
//! and PR hold their edges as 8-byte `BareEdge`s and MCST as 12-byte
//! `PackedEdge`s, so the file covers both records.
//!
//! On a mismatch the test writes the fresh output to
//! `target/golden/cellstats.txt` and fails, naming the first differing
//! line. To regenerate after an intended change:
//! `cargo test --test cellstats_golden; cp target/golden/cellstats.txt tests/golden/`
//! and say in the change what moved.

mod common;

#[test]
fn cellstats_stdout_matches_the_golden_file() {
    let mut fresh = String::new();
    for algo in ["PR", "BFS", "MCST"] {
        for faults in ["", " --fault-seed 2 --scrub"] {
            let args = format!("{algo} 4 10{faults}");
            let out = chaos::bench::cellstats::main(args.split(' ').map(String::from))
                .unwrap_or_else(|e| panic!("cellstats {args}: {e}"));
            fresh += &format!("$ cellstats {args}\n{out}");
        }
    }
    if let Some(diff) = common::golden_diff("cellstats.txt", &fresh) {
        panic!("cellstats stdout {diff}");
    }
}
