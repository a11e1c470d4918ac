//! Capacity-scaling model (§9.3 of the paper).
//!
//! The paper's headline capacity result — BFS over a trillion-edge RMAT-36
//! (16 TB of input) in ~9 hours, 5 Pagerank iterations in ~19 hours — runs
//! for days of simulated I/O and cannot be usefully replayed event by
//! event. Chaos is I/O-bound by design (§5.4, §10.1), so capacity runtime
//! extrapolates linearly in total device traffic once the per-edge I/O
//! volume is measured. This module does exactly that: it takes a *measured*
//! run at a feasible scale, extracts bytes-of-I/O-per-edge and
//! achieved aggregate bandwidth, and predicts runtime and I/O volume at the
//! target scale. The Figure/§9.3 harness validates the linearity claim by
//! measuring several scales before extrapolating.

use chaos_sim::Time;

use crate::metrics::RunReport;

/// A capacity extrapolation anchored at a measured run.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    /// Edges of the measured run.
    pub measured_edges: u64,
    /// Device bytes moved by the measured run.
    pub measured_io: u64,
    /// Measured runtime.
    pub measured_runtime: Time,
    /// Achieved aggregate storage bandwidth (bytes/s).
    pub aggregate_bandwidth: f64,
}

/// Prediction for a target scale.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPrediction {
    /// Target edge count.
    pub edges: u64,
    /// Predicted total device I/O in bytes.
    pub io_bytes: u64,
    /// Predicted runtime in nanoseconds.
    pub runtime: Time,
}

impl CapacityModel {
    /// Anchors the model at a measured run.
    ///
    /// # Panics
    ///
    /// Panics if the measured run did no I/O (nothing to extrapolate).
    pub fn from_report(report: &RunReport, edges: u64) -> Self {
        let io = report.total_device_bytes();
        assert!(io > 0 && edges > 0, "measured run must have done I/O");
        Self {
            measured_edges: edges,
            measured_io: io,
            measured_runtime: report.runtime,
            aggregate_bandwidth: report.aggregate_bandwidth(),
        }
    }

    /// Bytes of device I/O per input edge.
    pub fn io_per_edge(&self) -> f64 {
        self.measured_io as f64 / self.measured_edges as f64
    }

    /// Predicts I/O volume and runtime at `target_edges`, optionally with a
    /// different machine count and device bandwidth (both scale the
    /// achieved aggregate bandwidth linearly, per Figures 11 and 14).
    pub fn predict(
        &self,
        target_edges: u64,
        machine_ratio: f64,
        bandwidth_ratio: f64,
    ) -> CapacityPrediction {
        let io = self.io_per_edge() * target_edges as f64;
        let bw = self.aggregate_bandwidth * machine_ratio * bandwidth_ratio;
        CapacityPrediction {
            edges: target_edges,
            io_bytes: io as u64,
            runtime: (io / bw * 1e9) as Time,
        }
    }
}

/// Relative error between a prediction and a measurement, for validating
/// linearity across scales.
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        return f64::INFINITY;
    }
    (predicted - measured).abs() / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(io: u64, runtime: Time) -> RunReport {
        RunReport {
            runtime,
            preprocess_time: 0,
            iterations: 1,
            iteration_aggs: vec![],
            breakdowns: vec![],
            devices: vec![chaos_storage::device::DeviceStats {
                bytes_read: io / 2,
                bytes_written: io - io / 2,
                ..Default::default()
            }],
            device_busy: vec![runtime],
            fabric: Default::default(),
            steals: 0,
            partitions: 1,
            events: 0,
            records_streamed: 0,
            selectivity: vec![],
            window_widths: Default::default(),
            cluster_bins: 1,
            faults: Default::default(),
            abort_log: vec![],
        }
    }

    #[test]
    fn linear_extrapolation() {
        let report = fake_report(1_000_000, 1_000_000_000); // 1MB in 1s
        let model = CapacityModel::from_report(&report, 1000);
        assert_eq!(model.io_per_edge(), 1000.0);
        // 10x edges at the same bandwidth: 10x the runtime.
        let p = model.predict(10_000, 1.0, 1.0);
        assert_eq!(p.io_bytes, 10_000_000);
        assert!((p.runtime as f64 - 10e9).abs() < 1e6);
        // Doubling machines halves it again.
        let p2 = model.predict(10_000, 2.0, 1.0);
        assert!((p2.runtime as f64 - 5e9).abs() < 1e6);
        // HDD at half the bandwidth doubles it.
        let p3 = model.predict(10_000, 1.0, 0.5);
        assert!((p3.runtime as f64 - 20e9).abs() < 1e6);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(110.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
    }
}
