//! End-to-end correctness: every Table 1 algorithm, run on the full
//! distributed engine at several cluster sizes, must match its independent
//! oracle from `chaos_graph::reference`.

mod common;

use chaos::graph::reference;
use chaos::prelude::*;
use common::{close, directed_graph, test_config, undirected_graph, weighted_graph};

const MACHINES: [usize; 3] = [1, 3, 8];

#[test]
fn bfs_matches_oracle() {
    let g = undirected_graph(9);
    let oracle = reference::bfs_levels(&g, 0);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Bfs::new(0), &g);
        for (v, (got, want)) in states.iter().zip(oracle.iter()).enumerate() {
            let want = if *want == reference::UNREACHED {
                u32::MAX
            } else {
                *want
            };
            assert_eq!(*got, want, "m={m} vertex {v}");
        }
    }
}

#[test]
fn wcc_matches_oracle() {
    let g = undirected_graph(9);
    let oracle = reference::weakly_connected_components(&g);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Wcc::new(), &g);
        let got: Vec<u64> = states.iter().map(|s| s.0).collect();
        assert_eq!(got, oracle, "m={m}");
    }
}

#[test]
fn sssp_matches_dijkstra() {
    let g = weighted_graph(1000, 4000, 7);
    let oracle = reference::dijkstra(&g, 0);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Sssp::new(0), &g);
        for (v, (got, want)) in states.iter().zip(oracle.iter()).enumerate() {
            if want.is_infinite() {
                assert!(got.0.is_infinite(), "m={m} v{v}");
            } else {
                assert!(
                    close(got.0 as f64, *want as f64, 1e-4),
                    "m={m} v{v}: {} vs {want}",
                    got.0
                );
            }
        }
    }
}

#[test]
fn mcst_matches_kruskal() {
    let g = weighted_graph(600, 2500, 3);
    let want = reference::minimum_spanning_forest_weight(&g);
    for m in MACHINES {
        let (report, _) = run_chaos(test_config(m), Mcst::new(), &g);
        let got = Mcst::total_weight(&report.iteration_aggs);
        assert!(close(got, want, 1e-4), "m={m}: {got} vs {want}");
    }
}

#[test]
fn mis_matches_luby_exactly() {
    let g = undirected_graph(8);
    let seed = 0xC0FFEE;
    let oracle = reference::luby_mis(&g, seed);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Mis::new(seed), &g);
        let got: Vec<bool> = states
            .iter()
            .map(|s| s.0 == chaos::algos::mis::IN)
            .collect();
        assert!(reference::is_maximal_independent_set(&g, &got), "m={m}");
        assert_eq!(got, oracle, "m={m}");
    }
}

#[test]
fn pagerank_matches_oracle() {
    let g = directed_graph(9);
    let oracle = reference::pagerank(&g, 5);
    for m in MACHINES {
        let (report, states) = run_chaos(test_config(m), Pagerank::new(5), &g);
        assert_eq!(report.iterations, 5);
        for (v, (got, want)) in states.iter().zip(oracle.iter()).enumerate() {
            assert!(close(got.0 as f64, *want, 1e-3), "m={m} v{v}");
        }
    }
}

#[test]
fn scc_matches_tarjan() {
    let g = directed_graph(8);
    let want =
        chaos::algos::scc::normalize_partition(&reference::strongly_connected_components(&g));
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Scc::new(), &g);
        let got: Vec<u64> = states.iter().map(|s| s.1).collect();
        assert_eq!(chaos::algos::scc::normalize_partition(&got), want, "m={m}");
    }
}

#[test]
fn conductance_matches_count_exactly() {
    let g = directed_graph(9);
    let seed = 0xFACE;
    let want = reference::conductance_counts(&g, |v| chaos::algos::conductance::in_set(v, seed));
    for m in MACHINES {
        let (report, _) = run_chaos(test_config(m), Conductance::new(seed), &g);
        let got = Conductance::counts(report.iteration_aggs.last().expect("one iteration"));
        assert_eq!(got, want, "m={m}");
    }
}

#[test]
fn spmv_matches_oracle() {
    let g = chaos::graph::builder::gnm(800, 6000, true, 11);
    let seed = 42;
    let x: Vec<f64> = (0..g.num_vertices)
        .map(|v| chaos::algos::spmv::input_entry(v, seed))
        .collect();
    let want = reference::spmv(&g, &x);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), Spmv::new(seed), &g);
        for (v, (got, w)) in states.iter().zip(want.iter()).enumerate() {
            assert!(close(got.1 as f64, *w, 1e-3), "m={m} v{v}");
        }
    }
}

#[test]
fn bp_matches_oracle() {
    let g = directed_graph(8);
    let seed = 9;
    let want = reference::belief_propagation(&g, seed, 4);
    for m in MACHINES {
        let (_, states) = run_chaos(test_config(m), BeliefPropagation::new(seed, 4), &g);
        for (v, (got, w)) in states.iter().zip(want.iter()).enumerate() {
            assert!((got - w).abs() < 1e-6, "m={m} v{v}: {got} vs {w}");
        }
    }
}

#[test]
fn all_ten_run_via_dispatch_macro() {
    use chaos::algos::with_algo;
    let params = AlgoParams::default();
    for name in ALGO_NAMES {
        let needs_u = chaos::algos::needs_undirected(name);
        let needs_w = chaos::algos::needs_weights(name);
        let g = if needs_w {
            let g = weighted_graph(256, 1000, 5);
            if needs_u {
                g
            } else {
                chaos::graph::builder::gnm(256, 2000, true, 5)
            }
        } else if needs_u {
            undirected_graph(7)
        } else {
            directed_graph(7)
        };
        let report = with_algo!(name, &params, |p| run_chaos(test_config(3), p, &g).0);
        assert!(report.iterations > 0, "{name} ran no iterations");
        assert!(report.runtime > 0, "{name} took no time");
    }
}
