//! Virtual time, unit helpers and FIFO rate-server resources.

/// Simulated time in nanoseconds since the start of the run.
///
/// A `u64` nanosecond clock covers ~584 years of simulated time, far beyond
/// any experiment in the paper (the longest, 5 iterations of Pagerank on
/// RMAT-36, runs 19 hours).
pub type Time = u64;

/// One nanosecond, the base unit of [`Time`].
pub const NANOS: Time = 1;
/// Nanoseconds per microsecond.
pub const MICROS: Time = 1_000;
/// Nanoseconds per millisecond.
pub const MILLIS: Time = 1_000_000;
/// Nanoseconds per second.
pub const SECS: Time = 1_000_000_000;

/// Bytes per kibibyte.
pub const KIB: u64 = 1024;
/// Bytes per mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// Bytes per gibibyte.
pub const GIB: u64 = 1024 * 1024 * 1024;

/// A FIFO rate server: models a device that serves one request at a time at
/// a fixed byte rate, with a fixed per-request setup latency.
///
/// This is the core queueing abstraction behind the storage-device model
/// (SSD/HDD), the per-NIC transmit/receive pipes and the per-machine CPU.
/// A request issued at time `t` for `bytes` bytes completes at
/// `max(t, busy_until) + latency + bytes / rate`.
///
/// The server intentionally does not model preemption or fair sharing:
/// Chaos storage engines serve a chunk request *in its entirety* before the
/// next one precisely to preserve sequential device access (§6.2 of the
/// paper), so FIFO is the faithful model.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Service rate in bytes per second.
    rate_bytes_per_sec: u64,
    /// Fixed per-request latency in nanoseconds.
    latency: Time,
    /// Time at which the server becomes free.
    busy_until: Time,
    /// Total bytes served, for utilization accounting.
    bytes_served: u64,
    /// Total busy time accumulated, for utilization accounting.
    busy_time: Time,
}

impl Resource {
    /// Creates a rate server with the given service rate and per-request
    /// setup latency.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_sec` is zero; a zero-rate device can never
    /// complete a request and would silently wedge the simulation.
    pub fn new(rate_bytes_per_sec: u64, latency: Time) -> Self {
        assert!(rate_bytes_per_sec > 0, "resource rate must be positive");
        Self {
            rate_bytes_per_sec,
            latency,
            busy_until: 0,
            bytes_served: 0,
            busy_time: 0,
        }
    }

    /// Returns the service rate in bytes per second.
    pub fn rate(&self) -> u64 {
        self.rate_bytes_per_sec
    }

    /// Returns the fixed per-request latency.
    pub fn latency(&self) -> Time {
        self.latency
    }

    /// Time needed to move `bytes` through the server, excluding queueing
    /// and setup latency.
    pub fn transfer_time(&self, bytes: u64) -> Time {
        // ceil(bytes * 1e9 / rate) without overflow for realistic sizes:
        // bytes < 2^44 (16 TiB) and 1e9 < 2^30 stay within u128.
        let num = (bytes as u128) * (SECS as u128);
        let den = self.rate_bytes_per_sec as u128;
        num.div_ceil(den) as Time
    }

    /// Enqueues a request of `bytes` at time `now`; returns the completion
    /// time. FIFO: the request starts when the server frees up.
    pub fn serve(&mut self, now: Time, bytes: u64) -> Time {
        let start = now.max(self.busy_until);
        let service = self.latency + self.transfer_time(bytes);
        self.busy_until = start + service;
        self.bytes_served += bytes;
        self.busy_time += service;
        self.busy_until
    }

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Total time the server has spent busy.
    pub fn busy_time(&self) -> Time {
        self.busy_time
    }

    /// Fraction of `[0, horizon]` the server was busy. Returns 0 for a zero
    /// horizon.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.busy_time.min(horizon) as f64 / horizon as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_exact_for_round_rates() {
        let r = Resource::new(400 * MIB, 0);
        // 4 MiB at 400 MiB/s = 10 ms.
        assert_eq!(r.transfer_time(4 * MIB), 10 * MILLIS);
    }

    #[test]
    fn serve_is_fifo() {
        let mut r = Resource::new(100 * MIB, MILLIS);
        let t1 = r.serve(0, 100 * MIB); // 1ms + 1s
        assert_eq!(t1, SECS + MILLIS);
        // Second request issued at t=0 queues behind the first.
        let t2 = r.serve(0, 100 * MIB);
        assert_eq!(t2, 2 * (SECS + MILLIS));
        // A request issued after the server is free starts immediately.
        let t3 = r.serve(t2 + SECS, 0);
        assert_eq!(t3, t2 + SECS + MILLIS);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut r = Resource::new(100 * MIB, 0);
        r.serve(0, 50 * MIB); // busy 0.5s
        assert!((r.utilization(SECS) - 0.5).abs() < 1e-9);
        assert_eq!(r.bytes_served(), 50 * MIB);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Resource::new(0, 0);
    }
}
