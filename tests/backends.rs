//! Storage-backend equivalence: real files vs in-memory payloads.

mod common;

use chaos::core::Layout;
use chaos::graph::reference;
use chaos::prelude::*;
use chaos::storage::ScratchDir;
use common::{close, directed_graph, run_with_layout, test_config, undirected_graph};

/// Runs `program` in memory and on real files, its edges laid out in
/// `layout`; everything simulated and every final state must agree.
/// Returns the file run's report.
fn assert_file_backend_matches_memory<P: GasProgram>(
    mem_cfg: ChaosConfig,
    layout: Layout,
    program: P,
    g: &InputGraph,
) -> RunReport
where
    P::VertexState: PartialEq + std::fmt::Debug,
{
    let scratch = ScratchDir::new("chaos-test-backend").expect("scratch");
    let mut file_cfg = mem_cfg.clone();
    file_cfg.spill_dir = Some(scratch.path().to_path_buf());

    let (mem_rep, mem_states) = run_with_layout(mem_cfg, program.clone(), g, layout);
    let (file_rep, file_states) = run_with_layout(file_cfg, program, g, layout);

    assert_eq!(mem_states, file_states);
    assert_eq!(
        mem_rep.runtime, file_rep.runtime,
        "virtual time must not depend on the backend"
    );
    assert_eq!(mem_rep.events, file_rep.events);
    assert_eq!(mem_rep.selectivity_total(), file_rep.selectivity_total());
    file_rep
}

#[test]
fn file_backend_matches_memory_backend_exactly() {
    let g = undirected_graph(8);
    assert_file_backend_matches_memory(test_config(3), Layout::DEFAULT, Wcc::new(), &g);
    // BFS serves block runs as ranged file reads, which verify by the CRC
    // runs (64 records) enclosing them: blocks smaller than a run, blocks
    // that do not divide one, and no blocks at all.
    for block_records in [16, 24, 0] {
        let layout = Layout {
            block_records,
            ..Layout::DEFAULT
        };
        let rep = assert_file_backend_matches_memory(test_config(3), layout, Bfs::new(0), &g);
        assert_eq!(
            rep.selectivity_total().blocks_skipped > 0,
            block_records > 0,
            "ranged reads ran"
        );
    }
}

#[test]
fn file_backend_writes_real_files() {
    let g = undirected_graph(7);
    let scratch = ScratchDir::new("chaos-test-files").expect("scratch");
    let mut cfg = test_config(2);
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    let (_, _) = run_chaos(cfg, Bfs::new(0), &g);
    let mut found_nonempty = false;
    for machine in 0..2 {
        let dir = scratch.path().join(format!("machine-{machine}"));
        assert!(dir.is_dir(), "machine dir exists");
        for entry in std::fs::read_dir(&dir).expect("readable") {
            let entry = entry.expect("entry");
            if entry.metadata().expect("meta").len() > 0 {
                found_nonempty = true;
            }
        }
    }
    assert!(found_nonempty, "some chunk data must have hit disk");
}

#[test]
fn spill_path_survives_memory_pressure() {
    // A mid-size Pagerank squeezed into a tiny vertex-memory budget: many
    // streaming partitions, every structure (edges, updates, vertices)
    // round-tripping through real files via `chaos_storage::file`, and the
    // final ranks must still match the exact oracle.
    let machines = 4;
    let g = directed_graph(10);
    let scratch = ScratchDir::new("chaos-test-spill-pressure").expect("scratch");
    let mut cfg = test_config(machines);
    cfg.mem_budget = 1024; // ~1/8 of the vertex set per partition
    cfg.chunk_bytes = 4 * 1024;
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    let oracle = reference::pagerank(&g, 5);
    let (report, states) = run_chaos(cfg, Pagerank::new(5), &g);
    assert!(
        report.partitions >= 2 * machines,
        "the budget must force real partition pressure, got {}",
        report.partitions
    );
    assert_eq!(states.len() as u64, g.num_vertices);
    for (v, (got, want)) in states.iter().zip(oracle.iter()).enumerate() {
        assert!(
            close(got.0 as f64, *want, 1e-3),
            "v{v}: {} vs {want}",
            got.0
        );
    }

    // The chunks really hit the files: every machine spilled data, and the
    // aggregate at least covers one copy of the partitioned edge set
    // (20 bytes per edge record).
    let mut total = 0u64;
    for machine in 0..machines {
        let dir = scratch.path().join(format!("machine-{machine}"));
        assert!(dir.is_dir(), "machine {machine} dir exists");
        let mut machine_bytes = 0u64;
        for entry in std::fs::read_dir(&dir).expect("readable") {
            machine_bytes += entry.expect("entry").metadata().expect("meta").len();
        }
        assert!(machine_bytes > 0, "machine {machine} spilled nothing");
        total += machine_bytes;
    }
    assert!(
        total >= g.num_edges() * 20,
        "spilled {total} bytes < one edge-set copy ({})",
        g.num_edges() * 20
    );
}

#[test]
fn file_backend_supports_reverse_edges() {
    // SCC materializes the destination-keyed edge copy; make sure it round
    // trips through files too.
    let g = chaos::graph::builder::cycle(64);
    let scratch = ScratchDir::new("chaos-test-rev").expect("scratch");
    let mut cfg = test_config(2);
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    let (_, states) = run_chaos(cfg, Scc::new(), &g);
    // The coloring algorithm labels an SCC by its max-id root: one SCC, one
    // label, everyone assigned.
    assert!(states.iter().all(|s| s.1 == states[0].1), "one big SCC");
    assert_ne!(states[0].1, u64::MAX, "everyone assigned");
}
