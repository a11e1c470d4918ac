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
    assert_eq!(
        errors,
        [format!("error: unknown option {option}")],
        "{stderr}"
    );
    assert!(run.stdout.is_empty(), "{flags:?} ran the cell");
}

/// `chaos-cli run` with `flags` must end in one `error:` line containing
/// `names` and exit 1, having printed nothing — not a panic (101) and not
/// a run with a wrapped, defaulted or silently ignored value.
fn run_fails_cleanly(flags: &[&str], names: &str) {
    let run = Command::new(env!("CARGO_BIN_EXE_chaos-cli"))
        .args(["run", "--algo", "PR", "--scale", "8"])
        .args(flags)
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
    assert!(run.stdout.is_empty(), "{flags:?} ran the cell");
}

#[test]
fn zero_memory_budget_is_an_error() {
    run_fails_cleanly(&["--mem-kb", "0"], "memory budget");
}

#[test]
fn zero_iterations_is_an_error() {
    run_fails_cleanly(&["--iters", "0"], "--iters 0");
}

#[test]
fn nan_steal_alpha_is_an_error() {
    run_fails_cleanly(&["--alpha", "NaN"], "steal alpha");
}

/// 2^54 + 64 KiB is 64 KiB modulo 2^64 bytes: a wrapping multiply would
/// run with 64 KiB chunks.
#[test]
fn chunk_size_beyond_u64_is_an_error() {
    run_fails_cleanly(&["--chunk-kb", "18014398509482048"], "--chunk-kb");
}

/// 2^54 + 1 KiB wraps to a 1 KiB budget.
#[test]
fn memory_budget_beyond_u64_is_an_error() {
    run_fails_cleanly(&["--mem-kb", "18014398509481985"], "--mem-kb");
}

/// A value option at the end of the line has no value; the parent read it
/// as absent and ran with the default.
#[test]
fn value_option_without_its_value_is_an_error() {
    run_fails_cleanly(&["--machines"], "--machines");
    run_fails_cleanly(&["--seed"], "--seed");
    run_fails_cleanly(&["--seed", "--hdd"], "--seed");
}

#[test]
fn stray_positional_is_an_error() {
    run_fails_cleanly(&["extra"], "\"extra\"");
}

#[test]
fn unknown_options_are_errors_not_ignored() {
    unknown_option_is_rejected(&["--backend", "par"], "--backend");
    unknown_option_is_rejected(&["--batching", "off"], "--batching");
    unknown_option_is_rejected(&["--no-such-flag"], "--no-such-flag");
    unknown_option_is_rejected(&["--queue", "heap"], "--queue");
    unknown_option_is_rejected(&["--cluster-bins", "1"], "--cluster-bins");
    unknown_option_is_rejected(&["--bins", "1"], "--bins");
    unknown_option_is_rejected(&["--block-records", "0"], "--block-records");
    unknown_option_is_rejected(&["--streaming", "reference"], "--streaming");
}

/// Vertex id 2^64 − 1 leaves no room for a vertex count; wrapped to zero,
/// it made an empty graph the engine indexed out of bounds.
#[test]
fn vertex_id_at_u64_max_is_an_error() {
    run_on_graph_fails_cleanly("max-id.txt", b"18446744073709551615 0\n", "line 1");
}

/// Writes `bytes` to a temporary graph file and runs PR on it.
fn run_on_graph_fails_cleanly(suffix: &str, bytes: &[u8], names: &str) {
    let name = format!("chaos-cli-test-{}-{suffix}", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, bytes).expect("write the graph");
    let graph = path.to_str().expect("utf-8 temp path");
    run_fails_cleanly(&["--graph", graph], names);
    std::fs::remove_file(&path).ok();
}

/// 2^32 + 1 vertices do not fit the compact edge format's 4-byte ids; the
/// parent sized per-partition state by the count first and aborted on an
/// allocation of tens of GB.
#[test]
fn vertex_count_past_compact_ids_is_an_error() {
    run_on_graph_fails_cleanly("wide.txt", b"0 1\n4294967296 0\n", "4294967297 vertices");
}

/// A binary header may claim any vertex count, with no edge to back it.
#[test]
fn binary_header_claiming_2_pow_40_vertices_is_an_error() {
    let mut bytes = b"CHAOSEL1".to_vec();
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&[0, 8]);
    run_on_graph_fails_cleanly("wide.bin", &bytes, "1099511627776 vertices");
}
