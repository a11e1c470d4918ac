//! One workload, one process: repetitions for `--seconds`, then the
//! result line the driver reads.
//!
//! Untraced (`--trace 0`) the result carries the end-to-end metrics.
//! Traced (`--trace 1`) the untraced repetitions run for half the time —
//! end-to-end numbers never come from traced code — then one repetition
//! runs with spans on and the layer probes run, sized from the workload's
//! counts; the result carries the per-layer metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use chaos_gas::{ActivityModel, GasProgram};
use chaos_graph::SizeModel;
use chaos_net::FabricConfig;

use crate::host::peak_rss_mb;
use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{best, iqr_pct, median};
use crate::trace::{chrome_trace, self_time_ns, Tracer};
use crate::workloads::{
    repetition, verify, Algorithm, Cell, Checkable, Checked, CheckedBfs, CheckedPagerank, Mode,
    RunOutcome, CELLS,
};

pub struct Args {
    pub cell: Cell,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One repetition, no warm-up: API-drift detection, not measurement.
    pub smoke: bool,
}

/// What a run hands back: the result object and whether anything failed.
pub struct Outcome {
    pub result: Json,
    pub failed: u64,
}

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Repetitions a run may lose to panics before it gives up.
const MAX_LOST_REPS: u32 = 10;

pub fn run(args: &Args, perf_dir: &Path) -> Result<Outcome, String> {
    match args.cell.algorithm {
        Algorithm::Pagerank(iterations) => drive(args, &CheckedPagerank(iterations), perf_dir),
        Algorithm::Bfs => drive(args, &CheckedBfs, perf_dir),
    }
}

/// One sub-input's times in one repetition.
#[derive(Clone, Copy)]
struct Times {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// One repetition: the times of each sub-input, in order.
type Rep = Vec<Times>;

/// Each repetition's total of one time over its sub-inputs.
fn totals(reps: &[Rep], pick: fn(&Times) -> f64) -> Vec<f64> {
    reps.iter().map(|r| r.iter().map(pick).sum()).collect()
}

/// The best repetition of each sub-input, summed. Interference from the
/// host only ever adds time and comes in bursts, so each sub-input's floor
/// is taken on its own: a burst then spoils one short run, not the whole
/// repetition it falls in.
fn sum_of_bests(reps: &[Rep], pick: fn(&Times) -> f64) -> f64 {
    let inner = reps.first().map_or(0, Vec::len);
    (0..inner)
        .map(|k| best(&reps.iter().map(|r| pick(&r[k])).collect::<Vec<_>>()))
        .sum()
}

/// Counts runs and failures across repetitions.
///
/// The first repetition that completes is the *reference*: every later
/// run of a sub-input must reproduce its digest and simulated runtime, and
/// the reference itself is checked against the oracle once, after the
/// timed region.
struct Tally<C: Checked> {
    /// `Cluster::run` calls made.
    attempted: u64,
    /// Runs lost to a panic, or that differ from the reference.
    failed: u64,
    reference: Option<Vec<Checkable<C>>>,
    /// Per sub-input, the runs that reproduced the reference — and so are
    /// wrong if it is.
    matched: Vec<u64>,
}

impl<C: Checked> Tally<C> {
    /// Runs one repetition. A panicking run is caught and counted, never
    /// takes the harness down.
    fn rep(&mut self, inner: u64, run: impl FnOnce() -> Vec<Checkable<C>>) -> Option<Rep> {
        self.attempted += inner;
        let Ok(runs) = catch_unwind(AssertUnwindSafe(run)) else {
            self.failed += inner;
            return None;
        };
        let rep = runs
            .iter()
            .map(|(r, _)| Times {
                setup_s: r.setup_s,
                wall_s: r.wall_s,
                cpu_s: r.cpu_s,
            })
            .collect();
        let Some(reference) = &self.reference else {
            self.matched.iter_mut().for_each(|m| *m += 1);
            self.reference = Some(runs);
            return Some(rep);
        };
        for (k, ((got, _), (want, _))) in runs.iter().zip(reference).enumerate() {
            if (got.digest, got.report.runtime) == (want.digest, want.report.runtime) {
                self.matched[k] += 1;
            } else {
                self.failed += 1;
            }
        }
        Some(rep)
    }
}

fn drive<C: Checked>(args: &Args, checked: &C, perf_dir: &Path) -> Result<Outcome, String> {
    let cell = &args.cell;
    let mut tr = Tracer::new(args.trace);
    let mut tally: Tally<C> = Tally {
        attempted: 0,
        failed: 0,
        reference: None,
        matched: vec![0; cell.inner as usize],
    };
    let mut untraced = Tracer::new(false);
    let one_rep = |tally: &mut Tally<C>, tr: &mut Tracer| {
        tally.rep(cell.inner, || repetition(cell, checked, args.seed, tr))
    };

    if !args.smoke {
        one_rep(&mut tally, &mut untraced); // warm-up, discarded
    }
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let enough = if args.smoke { 1 } else { MIN_REPS };
    let mut reps: Vec<Rep> = Vec::new();
    let mut lost = 0;
    let clock = Instant::now();
    while reps.len() < enough || (!args.smoke && clock.elapsed().as_secs_f64() < budget) {
        match one_rep(&mut tally, &mut untraced) {
            Some(rep) => reps.push(rep),
            None => lost += 1,
        }
        // Panics are counted, not fatal — but a cell that keeps panicking
        // would never reach `enough`, and has nothing to report.
        if lost == MAX_LOST_REPS {
            return Err(format!(
                "{}: {lost} repetitions panicked, {} completed",
                cell.name,
                reps.len()
            ));
        }
    }
    // Read before the oracle, the twin runs and the probes allocate.
    let peak_rss = peak_rss_mb();
    let traced_wall_s = if args.trace {
        one_rep(&mut tally, &mut tr).map(|r| r.iter().map(|t| t.wall_s).sum())
    } else {
        None
    };

    let reference = tally
        .reference
        .take()
        .expect("at least one repetition completed");
    for (k, run) in reference.iter().enumerate() {
        if !verify(cell, checked, args.seed, k as u64, run, &mut tr) {
            tally.failed += tally.matched[k];
        }
    }
    let runs: Vec<&RunOutcome> = reference.iter().map(|(outcome, _)| outcome).collect();
    if cell.mode == Mode::Faulted && !args.smoke {
        // The workload exists to exercise recovery: plans that inject
        // nothing observable make the whole run a failure.
        let hit = |f: fn(&RunOutcome) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() >= 1;
        if !(hit(|r| r.report.faults.aborts) && hit(|r| r.report.faults.corruption_detected)) {
            tally.failed = tally.attempted;
        }
    }
    let failed = tally.failed;
    let walls = totals(&reps, |t| t.wall_s);
    let setups = totals(&reps, |t| t.setup_s);

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let host = HostTimes {
            wall_s: sum_of_bests(&reps, |t| t.wall_s),
            wall_med_s: median(&walls),
            wall_iqr_pct: iqr_pct(&walls),
            reps: reps.len() as f64,
            traced_wall_s: traced_wall_s
                .ok_or_else(|| format!("{}: the traced repetition panicked", cell.name))?,
            oracle_ok: failed == 0,
        };
        let values = layer_metrics(cell, checked, args.seed, &runs, &host, &mut tr);
        print_layer_table(cell, &values, &tr);
        write_trace(perf_dir, cell, &tr)?;
        PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was never computed"))
                    .1;
                println!(
                    "{name:<36} {value:>18.6} {unit:<6} {} is better",
                    better.as_str()
                );
                (name, unit, value)
            })
            .collect()
    } else {
        println!(
            "# {}: {} reps; wall median {:.4} s, IQR {:.2}%; setup median {:.4} s, IQR {:.2}%",
            cell.name,
            reps.len(),
            median(&walls),
            iqr_pct(&walls),
            median(&setups),
            iqr_pct(&setups)
        );
        let values = [
            sum_of_bests(&reps, |t| t.wall_s),
            sum_of_bests(&reps, |t| t.cpu_s),
            sum_of_bests(&reps, |t| t.setup_s),
            peak_rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| {
                println!(
                    "{:<12} {value:>12.6} {:<3} {} is better, may worsen by {:.0}%",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound * 100.0
                );
                (m.name, m.unit, value)
            })
            .collect()
    };

    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    Ok(Outcome { result, failed })
}

struct HostTimes {
    wall_s: f64,
    wall_med_s: f64,
    wall_iqr_pct: f64,
    reps: f64,
    traced_wall_s: f64,
    oracle_ok: bool,
}

const MB: f64 = 1e6;

/// Counts from the traced repetition's reports, probes sized from them,
/// and the estimates that attribute the host wall to layers.
fn layer_metrics<C: Checked>(
    cell: &Cell,
    checked: &C,
    seed: u64,
    runs: &[&RunOutcome],
    host: &HostTimes,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunOutcome) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunOutcome) -> f64| sum(f) / runs.len() as f64;
    macro_rules! devices {
        ($field:ident) => {
            sum(&|r| r.report.devices.iter().map(|d| d.$field).sum::<u64>() as f64)
        };
    }

    let events = sum(&|r| r.report.events as f64);
    let remote_msgs = sum(&|r| r.report.fabric.remote_messages as f64);
    let local_msgs = sum(&|r| r.report.fabric.local_messages as f64);
    let msgs = remote_msgs + local_msgs;
    let msg_bytes = sum(&|r| (r.report.fabric.remote_bytes + r.report.fabric.local_bytes) as f64)
        / msgs.max(1.0);
    let reads = devices!(reads);
    let writes = devices!(writes);
    let cache_hits = devices!(cache_hits);
    let read_mb = devices!(bytes_read) / MB;
    let write_mb = devices!(bytes_written) / MB;
    let cache_mb = devices!(cache_bytes) / MB;
    let records = sum(&|r| r.report.records_streamed as f64);
    let updates = sum(&|r| {
        r.report
            .iteration_aggs
            .iter()
            .map(|a| a.updates_produced)
            .sum::<u64>() as f64
    });
    let edge_records = (records - updates).max(0.0);
    let edges_in = sum(&|r| r.edges as f64);
    let skipped_chunk = sum(&|r| r.report.records_skipped() as f64);
    let skipped_block = sum(&|r| r.report.records_skipped_intra() as f64);
    let chunks_skipped = sum(&|r| r.report.chunks_skipped() as f64);
    let tracked = sum(&|r| {
        r.report
            .selectivity
            .iter()
            .map(|s| s.edge_records_streamed)
            .sum::<u64>() as f64
    });
    // Edge records streamed in iterations that had at least one partial
    // (block-ranged) serve: an upper bound on records served that way.
    let ranged = sum(&|r| {
        r.report
            .selectivity
            .iter()
            .filter(|s| s.blocks_skipped > 0)
            .map(|s| s.edge_records_streamed)
            .sum::<u64>() as f64
    });
    let fractions = |i: usize| mean(&|r| r.report.mean_breakdown_fractions()[i]);
    let program = checked.program();
    let selective = program.activity() != ActivityModel::Dense;
    let partitions = runs[0].report.partitions;

    // Probes, at this workload's geometry.
    let fabric = FabricConfig::forty_gige(cell.machines);
    let queue_ns =
        layers::sim::queue_ns_per_op(tr, cell.machines, fabric.local_delivery, fabric.propagation);
    let dispatch_ns = layers::runtime::dispatch_ns_per_event(tr, cell.machines, msg_bytes as u64);
    let send_ns = layers::net::send_ns_per_msg(
        tr,
        cell.machines,
        msg_bytes as u64,
        remote_msgs / msgs.max(1.0),
    );
    let record_bytes = SizeModel::for_graph(1 << cell.scale, false).edge_bytes();
    let st = layers::storage::probe(tr, cell.chunk_bytes, record_bytes);
    let input_seed = cell.input_seed(seed, 0);
    let gr = layers::graph::probe(tr, cell.scale, input_seed, partitions);
    let graph = cell.graph(input_seed, &mut Tracer::new(false));
    let gas = layers::gas::probe(tr, &program, &graph, partitions);

    // Estimates: probe cost times this workload's count of the operation.
    let ns = 1e-9;
    // An event is a queue push and pop; a message is a fabric send. The
    // executor's own dispatch has no estimate: a null actor's event through
    // it (`runtime.dispatch_ns_per_event`, queue and fabric included) costs
    // no more than these two on their own.
    let sim_est = queue_ns * 2.0 * events * ns;
    let net_est = send_ns * msgs * ns;
    let storage_est = ns
        * (st.device_op_ns * (reads + writes + cache_hits)
            + st.serve_whole_ns_per_chunk * (reads + cache_hits)
            + st.serve_skip_ns_per_chunk * chunks_skipped
            + st.serve_ranged_ns_per_record * ranged
            + st.append_ns_per_record * edges_in
            + st.index_build_ns_per_record * if selective { edges_in } else { 0.0 });
    // Spilled payloads go through the file backend: encode, write and
    // CRC-seal on the way out; read, verify and decode on the way back.
    // `frame_est` is the part of that spent sealing and verifying frames.
    let (file_est, frame_est) = if cell.mode == Mode::Spill {
        let back_mb = read_mb + cache_mb;
        (
            write_mb / st.file_append_mb_per_s + back_mb / st.file_read_mb_per_s,
            write_mb / st.frame_seal_mb_per_s + back_mb / st.frame_verify_mb_per_s,
        )
    } else {
        (0.0, 0.0)
    };
    let gas_est =
        ns * (gas.scatter_ns_per_edge * edge_records + gas.gather_ns_per_update * updates);
    let residual = host.wall_s - (sim_est + net_est + storage_est + file_est + gas_est);

    let skipped = skipped_chunk + skipped_block;
    vec![
        ("sim.events", events),
        ("sim.queue_ns_per_op", queue_ns),
        ("sim.est_s", sim_est),
        ("runtime.dispatch_ns_per_event", dispatch_ns),
        ("net.remote_msgs", remote_msgs),
        ("net.local_msgs", local_msgs),
        (
            "net.remote_mb",
            sum(&|r| r.report.fabric.remote_bytes as f64) / MB,
        ),
        ("net.send_ns_per_msg", send_ns),
        ("net.est_s", net_est),
        (
            "net.sim_degraded_ms",
            sum(&|r| r.report.fabric.degraded_time as f64) / 1e6,
        ),
        ("storage.device_read_mb", read_mb),
        ("storage.device_write_mb", write_mb),
        ("storage.device_reads", reads),
        ("storage.device_writes", writes),
        (
            "storage.device_util",
            mean(&|r| r.report.mean_device_utilization()),
        ),
        (
            "storage.checksum_kb",
            sum(&|r| r.report.faults.checksum_bytes as f64) / 1e3,
        ),
        (
            "storage.serve_whole_ns_per_chunk",
            st.serve_whole_ns_per_chunk,
        ),
        (
            "storage.serve_ranged_ns_per_record",
            st.serve_ranged_ns_per_record,
        ),
        (
            "storage.serve_skip_ns_per_chunk",
            st.serve_skip_ns_per_chunk,
        ),
        ("storage.append_ns_per_record", st.append_ns_per_record),
        (
            "storage.index_build_ns_per_record",
            st.index_build_ns_per_record,
        ),
        ("storage.frame_seal_mb_per_s", st.frame_seal_mb_per_s),
        ("storage.frame_verify_mb_per_s", st.frame_verify_mb_per_s),
        ("storage.file_append_mb_per_s", st.file_append_mb_per_s),
        ("storage.file_read_mb_per_s", st.file_read_mb_per_s),
        ("storage.device_op_ns", st.device_op_ns),
        ("storage.est_s", storage_est),
        ("storage.file_est_s", file_est),
        ("storage.frame_est_s", frame_est),
        ("graph.rmat_edges_per_s", gr.rmat_edges_per_s),
        ("graph.undirected_s", gr.undirected_s),
        ("graph.partition_edges_per_s", gr.partition_edges_per_s),
        ("gas.scatter_ns_per_edge", gas.scatter_ns_per_edge),
        ("gas.gather_ns_per_update", gas.gather_ns_per_update),
        ("gas.encode_mb_per_s", gas.encode_mb_per_s),
        ("gas.decode_mb_per_s", gas.decode_mb_per_s),
        ("gas.activeset_query_ns", gas.activeset_query_ns),
        ("gas.est_s", gas_est),
        ("algos.iterations", sum(&|r| f64::from(r.report.iterations))),
        ("algos.oracle_ok", f64::from(u8::from(host.oracle_ok))),
        ("core.sim_runtime_s", sum(&|r| r.report.runtime as f64) * ns),
        (
            "core.sim_preprocess_s",
            sum(&|r| r.report.preprocess_time as f64) * ns,
        ),
        ("core.cluster_new_s", sum(&|r| r.new_s)),
        ("core.records_streamed", records),
        ("core.records_per_s", records / host.wall_s),
        ("core.ns_per_record", host.wall_s / ns / records.max(1.0)),
        ("core.ns_per_event", host.wall_s / ns / events.max(1.0)),
        ("core.records_skipped_chunk", skipped_chunk),
        ("core.records_skipped_block", skipped_block),
        ("core.skip_ratio", skipped / (tracked + skipped).max(1.0)),
        ("core.steals", sum(&|r| r.report.steals as f64)),
        ("core.partitions", partitions as f64),
        ("core.gp_frac", fractions(0) + fractions(1)),
        (
            "core.copy_merge_frac",
            fractions(2) + fractions(3) + fractions(4),
        ),
        ("core.barrier_frac", fractions(5)),
        ("core.aborts", sum(&|r| r.report.faults.aborts as f64)),
        (
            "core.iterations_redone",
            sum(&|r| r.report.faults.iterations_redone as f64),
        ),
        (
            "core.device_retries",
            sum(&|r| r.report.faults.device_retries as f64),
        ),
        (
            "core.corruption_detected",
            sum(&|r| r.report.faults.corruption_detected as f64),
        ),
        (
            "core.corruption_repaired",
            sum(&|r| r.report.faults.corruption_repaired as f64),
        ),
        (
            "core.frames_scrubbed",
            sum(&|r| r.report.faults.frames_scrubbed as f64),
        ),
        (
            "core.checkpoint_mb",
            sum(&|r| r.report.faults.checkpoint_bytes as f64) / MB,
        ),
        (
            "core.sim_checkpoint_s",
            sum(&|r| r.report.faults.checkpoint_time as f64) * ns,
        ),
        (
            "core.sim_faulted_s",
            sum(&|r| r.report.faults.faulted_time as f64) * ns,
        ),
        ("core.residual_s", residual),
        ("core.residual_frac", residual / host.wall_s),
        ("host.wall_s", host.wall_s),
        ("host.wall_med_s", host.wall_med_s),
        ("host.wall_iqr_pct", host.wall_iqr_pct),
        ("host.reps", host.reps),
        (
            "host.trace_overhead_pct",
            100.0 * (host.traced_wall_s - host.wall_s) / host.wall_s,
        ),
        ("host.allocs", sum(&|r| r.allocs as f64)),
        ("host.alloc_mb", sum(&|r| r.alloc_bytes as f64) / MB),
        (
            "host.nproc",
            std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        ),
    ]
}

/// The attribution table: each layer's estimate and its share of the host
/// wall, closed by `core.residual_s` so that the column sums to the wall
/// (the indented frames row is part of the row above it, not a term).
fn print_layer_table(cell: &Cell, values: &[(&'static str, f64)], tr: &Tracer) {
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
    let wall = get("host.wall_s");
    println!(
        "# {}: host wall {wall:.4} s attributed to layers",
        cell.name
    );
    println!(
        "# {:<20} {:>14} {:>10} {:>10} {:>7}",
        "layer", "count", "ns/op", "est_s", "share"
    );
    let rows = [
        ("sim", "sim.est_s", 2.0 * get("sim.events")),
        (
            "net",
            "net.est_s",
            get("net.remote_msgs") + get("net.local_msgs"),
        ),
        (
            "storage",
            "storage.est_s",
            get("storage.device_reads") + get("storage.device_writes"),
        ),
        (
            "storage (files)",
            "storage.file_est_s",
            get("storage.device_reads") + get("storage.device_writes"),
        ),
        (
            "  of which frames",
            "storage.frame_est_s",
            get("storage.device_reads") + get("storage.device_writes"),
        ),
        ("gas", "gas.est_s", get("core.records_streamed")),
        (
            "core (residual)",
            "core.residual_s",
            get("core.records_streamed"),
        ),
    ];
    for (layer, metric, count) in rows {
        let est = get(metric);
        println!(
            "# {layer:<20} {count:>14.0} {:>10.1} {est:>10.4} {:>6.1}%",
            est * 1e9 / count.max(1.0),
            100.0 * est / wall
        );
    }
    println!("# spans of the traced pass (self time excludes child spans):");
    for (id, s) in tr.spans().iter().enumerate() {
        println!(
            "#   {:<24} {:>10.3} ms  self {:>10.3} ms  count {}",
            s.name,
            (s.end_ns - s.start_ns) as f64 / 1e6,
            self_time_ns(tr.spans(), id) as f64 / 1e6,
            s.count
        );
    }
}

fn write_trace(perf_dir: &Path, cell: &Cell, tr: &Tracer) -> Result<(), String> {
    let path = perf_dir.join(format!("trace-{}.json", cell.name));
    let tid = CELLS.iter().position(|c| c.name == cell.name).unwrap_or(0);
    std::fs::write(&path, chrome_trace(cell.name, tid, tr.spans()).to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# trace written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong answer must be counted, whoever gives it: here the oracle.
    struct NeverRight;

    impl Checked for NeverRight {
        type Program = <CheckedBfs as Checked>::Program;

        fn program(&self) -> Self::Program {
            CheckedBfs.program()
        }

        fn correct(
            &self,
            _: &chaos_graph::InputGraph,
            _: &[u32],
            _: &chaos_core::RunReport,
        ) -> bool {
            false
        }
    }

    /// A program that cannot even be built: every run panics.
    struct Panics;

    impl Checked for Panics {
        type Program = <CheckedBfs as Checked>::Program;

        fn program(&self) -> Self::Program {
            panic!("injected by the test")
        }

        fn correct(
            &self,
            _: &chaos_graph::InputGraph,
            _: &[u32],
            _: &chaos_core::RunReport,
        ) -> bool {
            true
        }
    }

    #[test]
    fn wrong_results_and_panics_are_counted_not_fatal() {
        let dir = crate::perf_dir().unwrap();
        let mut args = Args {
            cell: Cell::named("bfs_selective").unwrap().smoke(),
            seed: 1,
            seconds: 0.01,
            trace: false,
            smoke: false,
        };
        args.cell.inner = 2;
        let outcome = drive(&args, &NeverRight, dir).unwrap();
        // Warm-up plus three repetitions of two sub-inputs, all wrong.
        assert_eq!(outcome.failed, 8);
        assert_eq!(outcome.result.get("attempted").unwrap().num(), Some(8.0));
        assert_eq!(outcome.result.get("correct"), Some(&Json::Bool(false)));
        assert!(
            drive(&args, &Panics, dir).is_err(),
            "nothing but panics is a harness error"
        );
    }

    /// Every workload, cut down to smoke size, end to end through the
    /// same code the driver runs: catches drift in any API the benchmark
    /// calls.
    #[test]
    fn smoke_runs_of_all_workloads_report_everything_and_fail_nothing() {
        let dir = crate::perf_dir().unwrap();
        for cell in CELLS {
            for trace in [false, true] {
                let args = Args {
                    cell: cell.smoke(),
                    seed: 1,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let outcome = run(&args, dir).unwrap();
                let r = &outcome.result;
                assert_eq!(outcome.failed, 0, "{}", cell.name);
                assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{}", cell.name);
                assert!(r.get("attempted").unwrap().num().unwrap() >= 1.0);
                let metrics = r.get("metrics").unwrap();
                let names: Vec<&str> = metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
                if trace {
                    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
                    assert_eq!(names, want, "{}", cell.name);
                    let get =
                        |n: &str| metrics.get(n).unwrap().get("value").unwrap().num().unwrap();
                    let parts =
                        ["sim", "net", "storage", "gas"].map(|l| get(&format!("{l}.est_s")));
                    let total = parts.iter().sum::<f64>()
                        + get("storage.file_est_s")
                        + get("core.residual_s");
                    assert!(
                        (total - get("host.wall_s")).abs() < 1e-9,
                        "{}: estimates must sum to wall",
                        cell.name
                    );
                    assert!(dir.join(format!("trace-{}.json", cell.name)).exists());
                } else {
                    let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
                    assert_eq!(names, want, "{}", cell.name);
                }
                for (name, m) in metrics.entries() {
                    let v = m.get("value").unwrap().num().unwrap();
                    assert!(v.is_finite(), "{}: {name} = {v}", cell.name);
                    assert!(trace || v > 0.0, "{}: {name} must never be 0", cell.name);
                }
            }
        }
    }
}
