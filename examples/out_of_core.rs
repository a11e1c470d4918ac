//! Genuinely out-of-core: chunk payloads on real files.
//!
//! The simulated cluster normally keeps chunk payloads in host memory (the
//! virtual clock charges I/O time either way). With `spill_dir` set, every
//! storage engine writes its edge, reverse-edge, update and input chunks
//! through the record codec into real files — one file per (partition,
//! structure) per machine, the layout of §7 of the paper — and decodes
//! them on every read. This example runs WCC both ways and checks the
//! results and simulated times are identical, then shows what landed on
//! disk.
//!
//! Run with: `cargo run --release --example out_of_core`

use chaos::prelude::*;
use chaos::storage::ScratchDir;

fn main() {
    let graph = RmatConfig::paper(12).generate().to_undirected();
    let scratch = ScratchDir::new("chaos-out-of-core").expect("scratch dir");

    let mut mem_cfg = ChaosConfig::new(4);
    mem_cfg.mem_budget = 64 * 1024;
    let mut file_cfg = mem_cfg.clone();
    file_cfg.spill_dir = Some(scratch.path().to_path_buf());

    let (mem_report, mem_states) = run_chaos(mem_cfg, Wcc::new(), &graph);
    let (file_report, file_states) = run_chaos(file_cfg, Wcc::new(), &graph);

    assert_eq!(mem_states, file_states, "backends agree on results");
    assert_eq!(
        mem_report.runtime, file_report.runtime,
        "virtual time is independent of the backend"
    );

    let mut files = 0usize;
    let mut bytes = 0u64;
    for entry in walk(scratch.path()) {
        files += 1;
        bytes += entry;
    }
    println!(
        "WCC on {} vertices / {} edges over 4 machines: {:.3} simulated s",
        graph.num_vertices,
        graph.num_edges(),
        mem_report.seconds()
    );
    println!(
        "file backend wrote {files} backing files, {:.1} MB on disk, identical results \
         and identical simulated time",
        bytes as f64 / 1e6
    );
    let components: std::collections::HashSet<u64> = mem_states.iter().map(|s| s.0).collect();
    println!("components found: {}", components.len());
}

fn walk(dir: &std::path::Path) -> Vec<u64> {
    let mut sizes = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).expect("readable dir") {
            let e = e.expect("dir entry");
            let meta = e.metadata().expect("metadata");
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                sizes.push(meta.len());
            }
        }
    }
    sizes
}
