//! `cellstats` and `figures` turn the RMAT generator's size limits,
//! unknown options and malformed arguments into one error line and exit
//! status 1, never a panic (exit 101), an allocation abort (exit 134), a
//! partial run or a run that ignores or misreads the argument —
//! `chaos-cli`'s contract (`tests/cli.rs` at the root), here because Cargo
//! hands a test the path of its own package's binaries only.

use std::process::Command;

/// `bin args` must exit 1 with exactly one `error:` line, containing
/// `names`, and print nothing to stdout.
fn fails_cleanly(bin: &str, args: &[&str], names: &str) {
    let run = Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains(names), "{args:?}: {stderr}");
    assert!(run.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn scale_at_the_generators_limit_is_an_error() {
    fails_cleanly(
        env!("CARGO_BIN_EXE_cellstats"),
        &["PR", "4", "48"],
        "scale 48",
    );
}

#[test]
fn scale_beyond_memory_is_an_error_not_an_abort() {
    fails_cleanly(
        env!("CARGO_BIN_EXE_cellstats"),
        &["PR", "4", "40"],
        "scale 40",
    );
}

/// One case per malformed invocation: the arguments, and what the error
/// line must name.
#[test]
fn malformed_invocations_are_errors() {
    let cellstats = env!("CARGO_BIN_EXE_cellstats");
    for (args, names) in [
        (&["PR", "four", "8"][..], "\"four\""),
        (&["PR", "4", "1x"][..], "\"1x\""),
        (&["PR", "4", "8", "--bins", "0"][..], "--bins"),
        (&["PR", "4", "8", "--fault-seed", "x"][..], "--fault-seed"),
        (&["PR", "4", "8", "--fault-seed"][..], "--fault-seed"),
        (&["XYZ", "4", "8"][..], "\"XYZ\""),
        (&["PR", "0", "8"][..], "machine"),
        (&["PR", "4", "8", "selective"][..], "\"selective\""),
        (
            &["PR", "4", "8", "--metrics-json", "/nonexistent/x.json"][..],
            "/nonexistent/x.json",
        ),
    ] {
        fails_cleanly(cellstats, args, names);
    }
    let figures = env!("CARGO_BIN_EXE_figures");
    for (args, names) in [
        (&["fig5", "fig99"][..], "\"fig99\""),
        (&["fig5", "--full", "1"][..], "\"1\""),
        (
            &["fig5", "--metrics-json", "/nonexistent/x.json"][..],
            "/nonexistent/x.json",
        ),
    ] {
        fails_cleanly(figures, args, names);
    }
}

/// `bin args` must stop before running anything, naming `option`.
fn unknown_option_is_rejected(bin: &str, args: &[&str], option: &str) {
    let run = Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts");
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
            (&["--streaming", "reference"][..], "--streaming"),
            (&["--backend", "par"][..], "--backend"),
            (&["--batching", "off"][..], "--batching"),
            (&["--no-such-flag"][..], "--no-such-flag"),
            (&["--queue", "heap"][..], "--queue"),
            (&["--cluster-bins", "1"][..], "--cluster-bins"),
            (&["--bins", "1"][..], "--bins"),
            (&["--block-records", "0"][..], "--block-records"),
        ] {
            unknown_option_is_rejected(bin, &[cell, flags].concat(), option);
        }
    }
}
