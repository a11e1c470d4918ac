//! Every metric the benchmark reports, declared once: name, unit and
//! which direction is better — and how long one run measures.
//! `BENCHMARK.json` at the repository root carries the same for the
//! driver; a unit test keeps the two equal.

/// Seconds one run measures for: `BENCHMARK.json`'s `run_seconds`, the
/// default of `--seconds`, and what every run of `suite` uses, so that a
/// suite's numbers and the driver's are the same measurement.
pub const RUN_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may get worse before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Reported per workload, same names everywhere. No throughput with a
/// moving numerator is end to end: records/s fell when a change *avoided*
/// work, so it is a layer metric and wall time at a fixed input is the
/// headline.
///
/// The three times are floors — each sub-input's best repetition, summed —
/// because interference from the host only ever adds time. Where a
/// workload's floor spread more than a third of its bound from run to run,
/// its working set was shrunk (see `workloads::CELLS`), not the bound
/// widened.
pub const END_TO_END: [EndToEnd; 4] = [
    // Host wall of the `Cluster::run` calls.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // The thread's CPU time over the same region.
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Graph generation + shaping + scratch directory + `Cluster::new`.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // `VmHWM` of the workload's process after the timed repetitions,
    // before the oracle and the probes run.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

use Better::{Higher, Lower};

/// `(name, unit, better)`; the part of the name before the first `.` is
/// the layer, which is the crate (`host` is the machine the run was on).
/// Counts come exact from `RunReport`, `*_ns_*`/`*_mb_per_s` from probes,
/// `*.est_s` is probe cost times the workload's own count.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("sim.events", "count", Lower),
    ("sim.queue_ns_per_op", "ns", Lower),
    ("sim.est_s", "s", Lower),
    ("runtime.dispatch_ns_per_event", "ns", Lower),
    ("net.remote_msgs", "count", Lower),
    ("net.local_msgs", "count", Lower),
    ("net.remote_mb", "MB", Lower),
    ("net.send_ns_per_msg", "ns", Lower),
    ("net.est_s", "s", Lower),
    ("net.sim_degraded_ms", "ms", Lower),
    ("storage.device_read_mb", "MB", Lower),
    ("storage.device_write_mb", "MB", Lower),
    ("storage.device_reads", "count", Lower),
    ("storage.device_writes", "count", Lower),
    ("storage.device_util", "ratio", Higher),
    ("storage.checksum_kb", "kB", Lower),
    ("storage.serve_whole_ns_per_chunk", "ns", Lower),
    ("storage.serve_ranged_ns_per_record", "ns", Lower),
    ("storage.serve_skip_ns_per_chunk", "ns", Lower),
    ("storage.append_ns_per_record", "ns", Lower),
    ("storage.index_build_ns_per_record", "ns", Lower),
    ("storage.frame_seal_mb_per_s", "MB/s", Higher),
    ("storage.frame_verify_mb_per_s", "MB/s", Higher),
    ("storage.file_append_mb_per_s", "MB/s", Higher),
    ("storage.file_read_mb_per_s", "MB/s", Higher),
    ("storage.device_op_ns", "ns", Lower),
    ("storage.est_s", "s", Lower),
    ("storage.file_est_s", "s", Lower),
    ("storage.frame_est_s", "s", Lower),
    ("graph.rmat_edges_per_s", "1/s", Higher),
    ("graph.undirected_s", "s", Lower),
    ("graph.partition_edges_per_s", "1/s", Higher),
    ("gas.scatter_ns_per_edge", "ns", Lower),
    ("gas.gather_ns_per_update", "ns", Lower),
    ("gas.encode_mb_per_s", "MB/s", Higher),
    ("gas.decode_mb_per_s", "MB/s", Higher),
    ("gas.activeset_query_ns", "ns", Lower),
    ("gas.est_s", "s", Lower),
    ("algos.iterations", "count", Lower),
    ("algos.oracle_ok", "ratio", Higher),
    ("core.sim_runtime_s", "s", Lower),
    ("core.sim_preprocess_s", "s", Lower),
    ("core.cluster_new_s", "s", Lower),
    ("core.records_streamed", "count", Lower),
    ("core.records_per_s", "1/s", Higher),
    ("core.ns_per_record", "ns", Lower),
    ("core.ns_per_event", "ns", Lower),
    ("core.records_skipped_chunk", "count", Higher),
    ("core.records_skipped_block", "count", Higher),
    ("core.skip_ratio", "ratio", Higher),
    ("core.steals", "count", Lower),
    ("core.partitions", "count", Lower),
    ("core.gp_frac", "ratio", Higher),
    ("core.copy_merge_frac", "ratio", Lower),
    ("core.barrier_frac", "ratio", Lower),
    ("core.aborts", "count", Lower),
    ("core.iterations_redone", "count", Lower),
    ("core.device_retries", "count", Lower),
    ("core.corruption_detected", "count", Lower),
    ("core.corruption_repaired", "count", Lower),
    ("core.frames_scrubbed", "count", Lower),
    ("core.checkpoint_mb", "MB", Lower),
    ("core.sim_checkpoint_s", "s", Lower),
    ("core.sim_faulted_s", "s", Lower),
    ("core.residual_s", "s", Lower),
    ("core.residual_frac", "ratio", Lower),
    ("host.wall_s", "s", Lower),
    ("host.wall_med_s", "s", Lower),
    ("host.wall_iqr_pct", "%", Lower),
    ("host.reps", "count", Higher),
    ("host.trace_overhead_pct", "%", Lower),
    ("host.allocs", "count", Lower),
    ("host.alloc_mb", "MB", Lower),
    ("host.nproc", "count", Higher),
];

/// Counters that a deterministic run repeats exactly: `compare` lists
/// every one that differs between two result files.
pub const EXACT: &[&str] = &[
    "core.sim_runtime_s",
    "core.sim_preprocess_s",
    "sim.events",
    "core.records_streamed",
    "core.records_skipped_chunk",
    "core.records_skipped_block",
    "core.steals",
    "algos.iterations",
    "net.remote_msgs",
    "net.local_msgs",
    "net.remote_mb",
    "storage.device_read_mb",
    "storage.device_write_mb",
    "storage.device_reads",
    "storage.device_writes",
    "storage.checksum_kb",
    "core.aborts",
    "core.iterations_redone",
    "core.device_retries",
    "core.corruption_detected",
    "core.corruption_repaired",
    "core.frames_scrubbed",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn well_formed(name: &str, unit: &str) {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(
            !name.is_empty() && name.len() <= 64 && ok(name, "_.-"),
            "{name}"
        );
        assert!(
            name.chars().next().unwrap().is_ascii_alphanumeric(),
            "{name}"
        );
        assert!(
            !unit.is_empty() && unit.len() <= 16 && ok(unit, "_/%.-"),
            "{unit}"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END {
            well_formed(m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name));
        }
        for &(name, unit, _) in PER_LAYER {
            well_formed(name, unit);
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for &name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }

    /// Profiles are per workspace, so this package repeats the root's
    /// release profile; the benchmark must measure the product as built.
    #[test]
    fn release_profile_is_the_root_manifests() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap();
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let ours = section(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(
            ours,
            section(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        );
    }

    /// `BENCHMARK.json` is the driver's copy of the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let field = |v: &Json, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();
        assert_eq!(doc.get("run_seconds").unwrap().num(), Some(RUN_SECONDS));
        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(got.entries().len(), 4);
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").unwrap().num(), Some(want.bound));
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, &(name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(got.entries().len(), 3);
            assert_eq!(
                (field(got, "name"), field(got, "unit")),
                (name.to_string(), unit.to_string())
            );
            assert_eq!(field(got, "better"), better.as_str());
        }
        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), crate::workloads::CELLS.len());
        for (got, cell) in workloads.iter().zip(crate::workloads::CELLS) {
            assert_eq!(got.entries().len(), 2);
            assert_eq!(field(got, "name"), cell.name);
            assert_eq!(field(got, "why"), cell.why);
        }
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["chaos-perf"]);
    }
}
