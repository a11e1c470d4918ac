//! The frozen benchmark package `chaos-perf/` is outside the workspace, so
//! nothing else in tier-1 notices when a crate-root export it names moves.
//! This type-checks it against the working tree.

use std::path::Path;
use std::process::Command;

#[test]
fn chaos_perf_still_compiles_against_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Its own target directory: the outer `cargo test` holds the lock on
    // the workspace's.
    let check = Command::new(env!("CARGO"))
        .args(["check", "--offline", "--quiet", "--manifest-path"])
        .arg(root.join("chaos-perf/Cargo.toml"))
        .arg("--target-dir")
        .arg(root.join("target/chaos-perf-check"))
        .output()
        .expect("cargo starts");
    assert!(
        check.status.success(),
        "chaos-perf no longer compiles:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
}
