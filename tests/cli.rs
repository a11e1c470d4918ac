//! `chaos-cli` turns the graph generators' size limits and unknown options
//! into one error line and its usual failure exit, never a panic (exit
//! 101), an allocation abort (exit 134) or a run that ignores the option.

use std::process::Command;

/// Runs `chaos-cli gen` with `flags`; the output file must never appear.
fn gen_fails_cleanly(flags: &[&str], names: &str) {
    let name = format!(
        "chaos-cli-test-{}{}.bin",
        std::process::id(),
        flags.concat()
    );
    let out = std::env::temp_dir().join(name);
    let run = Command::new(env!("CARGO_BIN_EXE_chaos-cli"))
        .arg("gen")
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("chaos-cli starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{flags:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{flags:?}: {stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(errors.len(), 1, "{flags:?}: {stderr}");
    assert!(errors[0].contains(names), "{flags:?}: {stderr}");
    assert!(!out.exists(), "{flags:?} wrote a graph");
}

#[test]
fn scale_at_the_generators_limit_is_an_error() {
    gen_fails_cleanly(&["--scale", "48"], "--scale 48");
}

#[test]
fn scale_beyond_memory_is_an_error_not_an_abort() {
    gen_fails_cleanly(&["--scale", "40"], "--scale 40");
}

#[test]
fn zero_web_pages_is_an_error() {
    gen_fails_cleanly(&["--web-pages", "0"], "--web-pages 0");
}

/// `chaos-cli run` with `flags` appended must stop before running anything.
fn unknown_option_is_rejected(flags: &[&str], option: &str) {
    let run = Command::new(env!("CARGO_BIN_EXE_chaos-cli"))
        .args(["run", "--algo", "PR", "--scale", "8"])
        .args(flags)
        .output()
        .expect("chaos-cli starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{flags:?}: {stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(errors, [format!("error: unknown option {option}")], "{stderr}");
    assert!(run.stdout.is_empty(), "{flags:?} ran the cell");
}

#[test]
fn unknown_options_are_errors_not_ignored() {
    unknown_option_is_rejected(&["--backend", "par"], "--backend");
    unknown_option_is_rejected(&["--batching", "off"], "--batching");
    unknown_option_is_rejected(&["--no-such-flag"], "--no-such-flag");
}
