//! `cellstats` turns the RMAT generator's size limits into one error line
//! and exit status 1, never a panic (exit 101) or an allocation abort
//! (exit 134) — `chaos-cli`'s contract (`tests/cli.rs` at the root), here
//! because Cargo hands a test the path of its own package's binaries only.

use std::process::Command;

fn scale_fails_cleanly(scale: &str) {
    let run = Command::new(env!("CARGO_BIN_EXE_cellstats"))
        .args(["PR", "4", scale])
        .output()
        .expect("cellstats starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "scale {scale}: {stderr}");
    assert!(!stderr.contains("panicked at"), "scale {scale}: {stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(errors.len(), 1, "scale {scale}: {stderr}");
    assert!(errors[0].contains(&format!("scale {scale}")), "{stderr}");
    assert!(run.stdout.is_empty(), "scale {scale} ran a cell");
}

#[test]
fn scale_at_the_generators_limit_is_an_error() {
    scale_fails_cleanly("48");
}

#[test]
fn scale_beyond_memory_is_an_error_not_an_abort() {
    scale_fails_cleanly("40");
}
