//! `cellstats` and `figures` turn the RMAT generator's size limits and
//! unknown options into one error line and exit status 1, never a panic
//! (exit 101), an allocation abort (exit 134) or a run that ignores the
//! option — `chaos-cli`'s contract (`tests/cli.rs` at the root), here
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

/// `bin args` must stop before running anything, naming `option`.
fn unknown_option_is_rejected(bin: &str, args: &[&str], option: &str) {
    let run = Command::new(bin).args(args).output().expect("binary starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("error: unknown option {option}"),
        "{args:?}"
    );
    assert!(run.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn unknown_options_are_errors_not_ignored() {
    for (bin, cell) in [
        (env!("CARGO_BIN_EXE_cellstats"), &["PR", "4", "8"][..]),
        (env!("CARGO_BIN_EXE_figures"), &["fig5"][..]),
    ] {
        for (flags, option) in [
            (&["--backend", "par"][..], "--backend"),
            (&["--batching", "off"][..], "--batching"),
            (&["--no-such-flag"][..], "--no-such-flag"),
        ] {
            unknown_option_is_rejected(bin, &[cell, flags].concat(), option);
        }
    }
}
