//! A single-machine X-Stream-style streaming engine.
//!
//! X-Stream (Roy, Mihailovic, Zwaenepoel — SOSP 2013) processes a graph
//! from one machine's secondary storage using streaming partitions and
//! edge-centric scatter/gather. Compared to single-machine Chaos it has no
//! client-server split (the engine reads its files directly), uses direct
//! I/O (no page cache) and pays no per-request network or messaging
//! overhead. Table 1 of the Chaos paper compares the two; this module is
//! that baseline.
//!
//! The implementation deliberately shares no machinery with `chaos-core`:
//! it is a plain loop over streaming partitions with an explicit device
//! time model, which also makes it an independent oracle for the
//! distributed engine's results.

use chaos_gas::{Control, Direction, GasProgram, IterationAggregates, Update};
use chaos_graph::{partition_edges, InputGraph, PartitionSpec, SizeModel};
use chaos_sim::{Resource, Time};
use chaos_storage::DeviceProfile;

/// Configuration of the single-machine engine.
#[derive(Debug, Clone)]
pub struct XStreamConfig {
    /// Storage device profile.
    pub device: DeviceProfile,
    /// Memory budget for one partition's vertex set.
    pub mem_budget: u64,
    /// I/O unit; X-Stream issues large sequential slab requests (multi-MB
    /// direct I/O), amortizing per-request latency far better than chunked
    /// client-server access.
    pub chunk_bytes: u64,
    /// CPU cores.
    pub cores: u32,
    /// CPU nanoseconds per record at one core (matches the Chaos config so
    /// Table 1 isolates the architectural differences).
    pub ns_per_record: u64,
}

impl Default for XStreamConfig {
    fn default() -> Self {
        Self {
            device: DeviceProfile::ssd(),
            mem_budget: 1 << 30,
            chunk_bytes: 1024 * 1024,
            cores: 16,
            ns_per_record: 50,
        }
    }
}

/// Result of an X-Stream run.
#[derive(Debug, Clone)]
pub struct XStreamReport {
    /// Total simulated runtime, pre-processing included.
    pub runtime: Time,
    /// Pre-processing (partition binning) time.
    pub preprocess_time: Time,
    /// Iterations executed.
    pub iterations: u32,
    /// Per-iteration aggregates.
    pub iteration_aggs: Vec<IterationAggregates>,
    /// Total bytes moved through the device.
    pub device_bytes: u64,
}

impl XStreamReport {
    /// Runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.runtime as f64 / 1e9
    }
}

/// The engine.
pub struct XStream {
    cfg: XStreamConfig,
}

impl XStream {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: XStreamConfig) -> Self {
        Self { cfg }
    }

    /// Runs `program` over `graph` to convergence; returns the report and
    /// the final vertex states.
    ///
    /// # Panics
    ///
    /// Panics if the program fails to converge within a very generous
    /// iteration bound (1 million), indicating a diverging algorithm.
    pub fn run<P: GasProgram>(
        &self,
        mut program: P,
        graph: &InputGraph,
    ) -> (XStreamReport, Vec<P::VertexState>) {
        let sizes = SizeModel::for_graph(graph.num_vertices, graph.weighted);
        let vstate = program.vertex_state_bytes().max(1);
        let update_bytes = sizes.update_bytes(program.update_payload_bytes());
        let edge_bytes = sizes.edge_bytes();
        let spec =
            PartitionSpec::for_memory(graph.num_vertices.max(1), vstate, self.cfg.mem_budget, 1);
        let mut device = Resource::new(self.cfg.device.bandwidth, self.cfg.device.latency);
        let cpu_rate = self.cfg.cores as u64 * 1_000_000_000;
        let mut cpu = Resource::new(cpu_rate, 0);
        let chunk = self.cfg.chunk_bytes;
        let mut clock: Time = 0;

        // Overlapped streaming of `bytes` + `records` of CPU work: both the
        // device and the CPU pipeline through double buffering, so the
        // segment takes max(io, compute) (X-Stream's in-memory buffers).
        let stream = |clock: &mut Time,
                      device: &mut Resource,
                      cpu: &mut Resource,
                      bytes: u64,
                      records: u64| {
            if bytes == 0 && records == 0 {
                return;
            }
            let requests = bytes.div_ceil(chunk).max(1);
            let io_done = {
                let mut t = *clock;
                for i in 0..requests {
                    let this = chunk.min(bytes - i * chunk.min(bytes));
                    t = device.serve(*clock, this.max(1));
                }
                t
            };
            let compute_done = cpu.serve(*clock, records * self.cfg.ns_per_record);
            *clock = io_done.max(compute_done);
        };

        // Pre-processing: one pass over the input edge list (read input,
        // bin, write edge files; §3 of the Chaos paper describes the same
        // pass).
        let input_bytes = sizes.input_bytes(graph.num_edges());
        let reverse = program.uses_reverse_edges();
        let pp_write = input_bytes * if reverse { 2 } else { 1 };
        stream(
            &mut clock,
            &mut device,
            &mut cpu,
            input_bytes,
            graph.num_edges(),
        );
        stream(&mut clock, &mut device, &mut cpu, pp_write, 0);
        let degrees = graph.out_degrees();
        // Vertex init + write vertex files.
        let vertex_bytes_total = graph.num_vertices * vstate;
        stream(
            &mut clock,
            &mut device,
            &mut cpu,
            vertex_bytes_total,
            graph.num_vertices,
        );
        let preprocess_time = clock;

        let parts = partition_edges(graph, &spec);
        let rparts: Vec<Vec<chaos_graph::Edge>> = if reverse {
            let mut r = vec![Vec::new(); spec.num_partitions];
            for e in &graph.edges {
                r[spec.partition_of(e.dst)].push(*e);
            }
            r
        } else {
            Vec::new()
        };
        let mut states: Vec<P::VertexState> = (0..graph.num_vertices)
            .map(|v| program.init(v, degrees[v as usize]))
            .collect();

        let mut iteration_aggs = Vec::new();
        let mut updates_binned: Vec<Vec<Update<P::Update>>> = vec![Vec::new(); spec.num_partitions];

        for iter in 0.. {
            assert!(iter < 1_000_000, "{} failed to converge", program.name());
            let mut agg = IterationAggregates::default();
            let dir = program.direction();

            // Scatter phase: per partition, read vertices + edges, write
            // updates.
            for p in 0..spec.num_partitions {
                let edges = match dir {
                    Direction::Out => &parts[p],
                    Direction::In => &rparts[p],
                };
                let mut produced_here = 0u64;
                for e in edges {
                    let (v, target) = match dir {
                        Direction::Out => (e.src, e.dst),
                        Direction::In => (e.dst, e.src),
                    };
                    if let Some(payload) = program.scatter(v, &states[v as usize], e, iter) {
                        produced_here += 1;
                        updates_binned[spec.partition_of(target)].push(Update {
                            dst: target,
                            payload,
                        });
                    }
                }
                agg.updates_produced += produced_here;
                let vp = spec.len(p) * vstate;
                let ep = edges.len() as u64 * edge_bytes;
                stream(&mut clock, &mut device, &mut cpu, vp, 0); // load vertices
                stream(&mut clock, &mut device, &mut cpu, ep, edges.len() as u64);
                stream(
                    &mut clock,
                    &mut device,
                    &mut cpu,
                    produced_here * update_bytes,
                    0,
                ); // write updates
            }

            // Gather + apply phase: per partition, read vertices + updates,
            // apply, write vertices.
            for p in 0..spec.num_partitions {
                let base = spec.range(p).start;
                let n = spec.len(p) as usize;
                let mut accums: Vec<P::Accum> = (0..n).map(|_| P::Accum::default()).collect();
                let ups = std::mem::take(&mut updates_binned[p]);
                for u in &ups {
                    let off = (u.dst - base) as usize;
                    program.gather(&mut accums[off], u.dst, &states[u.dst as usize], &u.payload);
                }
                for (off, acc) in accums.iter().enumerate() {
                    let v = base + off as u64;
                    if program.apply(v, &mut states[v as usize], acc, iter) {
                        agg.vertices_changed += 1;
                    }
                    let c = program.aggregate(&states[v as usize]);
                    for (slot, x) in agg.custom.iter_mut().zip(c.iter()) {
                        *slot += x;
                    }
                }
                let vp = spec.len(p) * vstate;
                let ub = ups.len() as u64 * update_bytes;
                stream(&mut clock, &mut device, &mut cpu, vp, 0); // load vertices
                stream(&mut clock, &mut device, &mut cpu, ub, ups.len() as u64);
                stream(&mut clock, &mut device, &mut cpu, vp, n as u64); // apply + write back
            }

            let control = program.end_iteration(iter, &agg);
            iteration_aggs.push(agg);
            if control == Control::Done {
                break;
            }
        }

        let report = XStreamReport {
            runtime: clock,
            preprocess_time,
            iterations: iteration_aggs.len() as u32,
            iteration_aggs,
            device_bytes: device.bytes_served(),
        };
        (report, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_algos::bfs::Bfs;
    use chaos_algos::pagerank::Pagerank;
    use chaos_graph::{reference, RmatConfig};

    #[test]
    fn bfs_matches_oracle_and_times_are_sane() {
        let g = RmatConfig::paper(10).generate().to_undirected();
        let xs = XStream::new(XStreamConfig::default());
        let (report, states) = xs.run(Bfs::new(0), &g);
        let oracle = reference::bfs_levels(&g, 0);
        for (s, o) in states.iter().zip(oracle.iter()) {
            let o = if *o == reference::UNREACHED {
                u32::MAX
            } else {
                *o
            };
            assert_eq!(*s, o);
        }
        assert!(report.runtime > report.preprocess_time);
        assert!(report.preprocess_time > 0);
        assert!(report.device_bytes > sizesum(&g));
    }

    fn sizesum(g: &chaos_graph::InputGraph) -> u64 {
        chaos_graph::SizeModel::for_graph(g.num_vertices, g.weighted).input_bytes(g.num_edges())
    }

    #[test]
    fn pagerank_matches_oracle() {
        let g = RmatConfig::paper(9).generate();
        let xs = XStream::new(XStreamConfig::default());
        let (_, states) = xs.run(Pagerank::new(5), &g);
        let oracle = reference::pagerank(&g, 5);
        for (s, o) in states.iter().zip(oracle.iter()) {
            assert!((s.0 as f64 - o).abs() <= 1e-3 * o.max(1.0));
        }
    }

    #[test]
    fn hdd_is_slower_than_ssd() {
        let g = RmatConfig::paper(10).generate();
        let (ssd, _) = XStream::new(XStreamConfig::default()).run(Pagerank::new(3), &g);
        let hdd_cfg = XStreamConfig {
            device: DeviceProfile::hdd(),
            ..Default::default()
        };
        let (hdd, _) = XStream::new(hdd_cfg).run(Pagerank::new(3), &g);
        assert!(hdd.runtime > ssd.runtime);
    }

    #[test]
    fn multiple_partitions_do_not_change_results() {
        let g = RmatConfig::paper(9).generate();
        let big = XStream::new(XStreamConfig::default());
        let small = XStream::new(XStreamConfig {
            mem_budget: 1024,
            ..Default::default()
        });
        let (_, a) = big.run(Pagerank::new(4), &g);
        let (_, b) = small.run(Pagerank::new(4), &g);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.0 - y.0).abs() < 1e-6);
        }
    }
}
