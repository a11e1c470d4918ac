//! Qualitative shape assertions: the paper's headline claims must hold on
//! the simulated cluster at test scale. These pin the *direction and rough
//! magnitude* of every major evaluation result so a regression in the cost
//! model or the protocol shows up as a test failure, not just a changed
//! figure.

mod common;

use chaos::prelude::*;
use common::directed_graph;

fn sized_config(machines: usize) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = 32 * 1024;
    cfg.mem_budget = 256 * 1024;
    cfg
}

#[test]
fn strong_scaling_gives_real_speedup() {
    let g = directed_graph(13);
    let (t1, _) = run_chaos(sized_config(1), Pagerank::new(4), &g);
    let (t8, _) = run_chaos(sized_config(8), Pagerank::new(4), &g);
    let speedup = t1.runtime as f64 / t8.runtime as f64;
    assert!(
        speedup > 2.5,
        "8 machines speedup {speedup:.2} (paper: near-linear region)"
    );
}

#[test]
fn weak_scaling_stays_bounded() {
    // Paper: 32x the problem on 32 machines costs 1.61x on average; at our
    // scaled size the factor at 8 machines must stay well under 2.5.
    let (t1, _) = run_chaos(sized_config(1), Pagerank::new(4), &directed_graph(12));
    let (t8, _) = run_chaos(sized_config(8), Pagerank::new(4), &directed_graph(15));
    let factor = t8.runtime as f64 / t1.runtime as f64;
    assert!(factor < 2.5, "weak-scaling factor {factor:.2}");
}

#[test]
fn hdd_costs_about_the_bandwidth_ratio() {
    let g = directed_graph(13);
    let (ssd, _) = run_chaos(sized_config(4), Pagerank::new(3), &g);
    let (hdd, _) = run_chaos(sized_config(4).with_hdd(), Pagerank::new(3), &g);
    let ratio = hdd.runtime as f64 / ssd.runtime as f64;
    assert!(
        (1.4..3.2).contains(&ratio),
        "HDD/SSD ratio {ratio:.2}, paper ~2 (inverse bandwidth)"
    );
}

#[test]
fn slow_network_collapses_scaling() {
    let g = directed_graph(13);
    let (fast, _) = run_chaos(sized_config(8), Pagerank::new(3), &g);
    let (slow, _) = run_chaos(sized_config(8).with_one_gige(), Pagerank::new(3), &g);
    let ratio = slow.runtime as f64 / fast.runtime as f64;
    assert!(
        ratio > 2.0,
        "1GigE should bottleneck an 8-machine run (ratio {ratio:.2})"
    );
    // But a single machine barely cares (everything is local).
    let (fast1, _) = run_chaos(sized_config(1), Pagerank::new(3), &g);
    let (slow1, _) = run_chaos(sized_config(1).with_one_gige(), Pagerank::new(3), &g);
    let ratio1 = slow1.runtime as f64 / fast1.runtime as f64;
    assert!(ratio1 < 1.2, "single machine ratio {ratio1:.2}");
}

#[test]
fn aggregate_bandwidth_scales_with_machines() {
    // Figure 14: aggregate achieved bandwidth grows near-linearly under
    // weak scaling.
    let (r1, _) = run_chaos(sized_config(1), Pagerank::new(3), &directed_graph(12));
    let (r8, _) = run_chaos(sized_config(8), Pagerank::new(3), &directed_graph(15));
    let ratio = r8.aggregate_bandwidth() / r1.aggregate_bandwidth();
    assert!(
        ratio > 4.0,
        "8 machines should deliver >4x the aggregate bandwidth (got {ratio:.1}x)"
    );
}

#[test]
fn oversubscribed_window_is_correct_and_no_faster() {
    let g = directed_graph(12);
    let oracle = chaos::graph::reference::pagerank(&g, 3);
    let mut cfg = sized_config(4);
    cfg.batch_window = 32; // window far above the machine count
    let (rep, states) = run_chaos(cfg, Pagerank::new(3), &g);
    for (got, want) in states.iter().zip(oracle.iter()) {
        assert!(((got.0 as f64 - want) / want.max(1.0)).abs() < 1e-3);
    }
    let (rep10, _) = {
        let mut c = sized_config(4);
        c.batch_window = 10;
        run_chaos(c, Pagerank::new(3), &g)
    };
    // Past the sweet spot the window must not help (paper: it slowly hurts).
    assert!(rep.runtime as f64 >= 0.95 * rep10.runtime as f64);
}

#[test]
fn webgraph_end_to_end() {
    let g = chaos::graph::WebGraphConfig::scaled(4096).generate();
    let und = g.to_undirected();
    let (_, levels) = run_chaos(sized_config(4), Bfs::new(0), &und);
    let oracle = chaos::graph::reference::bfs_levels(&und, 0);
    for (got, want) in levels.iter().zip(oracle.iter()) {
        let want = if *want == chaos::graph::reference::UNREACHED {
            u32::MAX
        } else {
            *want
        };
        assert_eq!(*got, want);
    }
}

#[test]
fn preprocessing_is_a_small_fraction_of_multi_iteration_runs() {
    // §3: pre-processing is one pass over the edge list; for a 5-iteration
    // Pagerank it must be well under half the total runtime.
    let g = directed_graph(13);
    let (rep, _) = run_chaos(sized_config(4), Pagerank::new(5), &g);
    let frac = rep.preprocess_time as f64 / rep.runtime as f64;
    assert!(
        (0.02..0.45).contains(&frac),
        "preprocess fraction {frac:.2}"
    );
}

#[test]
fn spill_checkpoint_failure_compose() {
    // The file backend, checkpointing and failure recovery interact: run
    // all three together.
    let g = directed_graph(9);
    let scratch = chaos::storage::ScratchDir::new("chaos-compose").expect("scratch");
    let mut cfg = sized_config(3);
    cfg.checkpoint = true;
    let (_, clean) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    cfg.faults = FaultPlan::crash(1, 2, 0);
    let (_, recovered) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(clean, recovered);
}
