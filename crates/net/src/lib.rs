//! Network fabric model for the Chaos reproduction.
//!
//! Chaos assumes a full-bisection-bandwidth network whose per-machine link
//! bandwidth exceeds per-machine storage bandwidth (§1, §7 of the paper).
//! The fabric model captures exactly the parts of the network that decide
//! whether that assumption holds:
//!
//! - a transmit rate-server per NIC (outgoing serialization),
//! - a receive rate-server per NIC (incast absorbs here),
//! - a fixed propagation delay through the switch,
//! - no shared-core constraint (full bisection), with an optional aggregate
//!   cap for experiments that model an oversubscribed switch.
//!
//! Messages between co-located engines (same machine) bypass the fabric and
//! pay only a small local-delivery latency, mirroring the paper's deployment
//! of the computation and storage engine inside one process.

use chaos_sim::{Resource, Time};

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of machines (NIC pairs).
    pub machines: usize,
    /// Per-NIC bandwidth in bytes/second (e.g. 40 GigE = 5 GB/s).
    pub nic_bytes_per_sec: u64,
    /// One-way propagation delay through the switch.
    pub propagation: Time,
    /// Latency of delivering a message between threads of the same process.
    pub local_delivery: Time,
    /// Optional aggregate switch capacity in bytes/second; `None` models a
    /// full-bisection switch.
    pub switch_cap_bytes_per_sec: Option<u64>,
}

impl FabricConfig {
    /// 40 GigE full-bisection fabric as in the paper's rack (§8).
    pub fn forty_gige(machines: usize) -> Self {
        Self {
            machines,
            nic_bytes_per_sec: 5_000_000_000, // 40 Gb/s
            propagation: 25 * chaos_sim::MICROS,
            local_delivery: 2 * chaos_sim::MICROS,
            switch_cap_bytes_per_sec: None,
        }
    }

    /// 1 GigE fabric used in the Figure 12 slow-network experiment.
    pub fn one_gige(machines: usize) -> Self {
        Self {
            machines,
            nic_bytes_per_sec: 125_000_000, // 1 Gb/s
            propagation: 50 * chaos_sim::MICROS,
            local_delivery: 2 * chaos_sim::MICROS,
            switch_cap_bytes_per_sec: None,
        }
    }

    /// Round-trip time of an empty message, used to derive the batching
    /// amplification factor φ = 1 + R_network / R_storage (Equation 3).
    pub fn rtt(&self) -> Time {
        2 * self.propagation
    }
}

/// One fabric degradation window: remote messages touching `machine` —
/// as sender or receiver — pay `extra` additional delivery latency while
/// `from <= now < until`, modelling a slow-NIC straggler. The penalty is
/// purely *additive*: a degraded message never arrives earlier than its
/// healthy twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedWindow {
    /// The straggler machine.
    pub machine: usize,
    /// First degraded instant (inclusive).
    pub from: Time,
    /// First healthy instant (exclusive end of the window).
    pub until: Time,
    /// Extra delivery latency per affected message.
    pub extra: Time,
}

/// Per-fabric transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Total messages that crossed the switch.
    pub remote_messages: u64,
    /// Total bytes that crossed the switch.
    pub remote_bytes: u64,
    /// Total messages delivered machine-locally.
    pub local_messages: u64,
    /// Total bytes delivered machine-locally.
    pub local_bytes: u64,
    /// Remote messages that paid a degradation penalty.
    pub degraded_messages: u64,
    /// Total extra latency charged by degradation windows.
    pub degraded_time: Time,
}

/// The fabric: computes arrival times for messages and accounts bytes.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: FabricConfig,
    tx: Vec<Resource>,
    rx: Vec<Resource>,
    switch: Option<Resource>,
    degraded: Vec<DegradedWindow>,
    stats: FabricStats,
}

impl Fabric {
    /// Builds a fabric from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines == 0`.
    pub fn new(cfg: FabricConfig) -> Self {
        assert!(cfg.machines > 0, "fabric needs at least one machine");
        let tx = (0..cfg.machines)
            .map(|_| Resource::new(cfg.nic_bytes_per_sec, 0))
            .collect();
        let rx = (0..cfg.machines)
            .map(|_| Resource::new(cfg.nic_bytes_per_sec, 0))
            .collect();
        let switch = cfg
            .switch_cap_bytes_per_sec
            .map(|cap| Resource::new(cap, 0));
        Self {
            cfg,
            tx,
            rx,
            switch,
            degraded: Vec::new(),
            stats: FabricStats::default(),
        }
    }

    /// Installs the degradation windows for this run. An empty list (the
    /// default) leaves every delivery on the exact fault-free path.
    pub fn set_degraded(&mut self, windows: Vec<DegradedWindow>) {
        self.degraded = windows;
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Computes the delivery time of a `bytes`-sized message sent at `now`
    /// from machine `from` to machine `to`, updating NIC queues.
    ///
    /// Local messages (`from == to`) bypass the NICs and pay the constant
    /// `local_delivery` hop, independent of size and fabric state.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn send(&mut self, now: Time, from: usize, to: usize, bytes: u64) -> Time {
        assert!(from < self.cfg.machines && to < self.cfg.machines);
        if from == to {
            self.stats.local_messages += 1;
            self.stats.local_bytes += bytes;
            return now + self.cfg.local_delivery;
        }
        self.stats.remote_messages += 1;
        self.stats.remote_bytes += bytes;
        // Slow-NIC straggler penalty: sum the extra latency of every
        // degradation window covering `now` on either endpoint.
        let mut extra = 0;
        for w in &self.degraded {
            if (w.machine == from || w.machine == to) && w.from <= now && now < w.until {
                extra += w.extra;
            }
        }
        if extra > 0 {
            self.stats.degraded_messages += 1;
            self.stats.degraded_time += extra;
        }
        // Serialize out of the sender NIC...
        let tx_done = self.tx[from].serve(now, bytes);
        // ...optionally through a capped switch...
        let through = match &mut self.switch {
            Some(sw) => sw.serve(tx_done, bytes),
            None => tx_done,
        };
        // ...propagate, then absorb into the receiver NIC (incast queues
        // build up here), paying any straggler penalty on top.
        self.rx[to].serve(through + self.cfg.propagation, bytes) + extra
    }

    /// Aggregate bytes moved through the switch per second over `[0, horizon]`.
    pub fn aggregate_remote_throughput(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.stats.remote_bytes as f64 / (horizon as f64 / 1e9)
        }
    }

    /// Utilization of the busiest receive NIC over `[0, horizon]`.
    pub fn max_rx_utilization(&self, horizon: Time) -> f64 {
        self.rx
            .iter()
            .map(|r| r.utilization(horizon))
            .fold(0.0, f64::max)
    }
}

/// The fabric is the actor runtime's network model: the executor asks it
/// for arrival times when absorbing `Send::Net` messages.
impl chaos_runtime::Network for Fabric {
    fn send(&mut self, now: Time, from: usize, to: usize, bytes: u64) -> Time {
        Fabric::send(self, now, from, to, bytes)
    }

    fn time_quantum(&self) -> Time {
        // Most deliveries sit a small multiple of one of these two
        // constants past the clock; the smaller one is the natural
        // calendar bucket width.
        self.cfg.local_delivery.min(self.cfg.propagation).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_sim::{MIB, MICROS};

    fn fabric(machines: usize) -> Fabric {
        Fabric::new(FabricConfig {
            machines,
            nic_bytes_per_sec: 1000 * MIB,
            propagation: 10 * MICROS,
            local_delivery: MICROS,
            switch_cap_bytes_per_sec: None,
        })
    }

    #[test]
    fn local_messages_bypass_nics() {
        let mut f = fabric(2);
        let t = f.send(100, 0, 0, 10 * MIB);
        assert_eq!(t, 100 + MICROS);
        assert_eq!(f.stats().remote_messages, 0);
        assert_eq!(f.stats().local_messages, 1);
    }

    #[test]
    fn remote_message_pays_tx_prop_rx() {
        let mut f = fabric(2);
        // 1000 MiB/s, 1 MiB message => ~1.048576 ms serialization each side.
        let ser = Resource::new(1000 * MIB, 0).transfer_time(MIB);
        let t = f.send(0, 0, 1, MIB);
        assert_eq!(t, 2 * ser + 10 * MICROS);
    }

    #[test]
    fn sender_nic_serializes_messages() {
        let mut f = fabric(3);
        let ser = Resource::new(1000 * MIB, 0).transfer_time(MIB);
        let t1 = f.send(0, 0, 1, MIB);
        let t2 = f.send(0, 0, 2, MIB);
        // Second message must wait for the first to clear the TX NIC.
        assert_eq!(t2 - t1, ser);
    }

    #[test]
    fn incast_queues_at_receiver() {
        let mut f = fabric(3);
        let ser = Resource::new(1000 * MIB, 0).transfer_time(MIB);
        let t1 = f.send(0, 0, 2, MIB);
        let t2 = f.send(0, 1, 2, MIB);
        // Both arrive at machine 2; receiver RX serializes them.
        assert_eq!(t1, 2 * ser + 10 * MICROS);
        assert_eq!(t2, t1 + ser);
    }

    #[test]
    fn switch_cap_limits_aggregate() {
        let mut f = Fabric::new(FabricConfig {
            machines: 4,
            nic_bytes_per_sec: 1000 * MIB,
            propagation: 0,
            local_delivery: 0,
            switch_cap_bytes_per_sec: Some(1000 * MIB),
        });
        let a = f.send(0, 0, 1, 100 * MIB);
        let b = f.send(0, 2, 3, 100 * MIB);
        // Disjoint NIC pairs, but the capped switch serializes the flows.
        assert!(b > a);
    }

    #[test]
    fn degradation_windows_add_latency_for_either_endpoint() {
        let mut healthy = fabric(3);
        let mut f = fabric(3);
        f.set_degraded(vec![DegradedWindow {
            machine: 1,
            from: 1000,
            until: 2000,
            extra: 77,
        }]);
        // Outside the window: identical to the healthy fabric.
        assert_eq!(f.send(0, 0, 1, MIB), healthy.send(0, 0, 1, MIB));
        // Inside, both directions touching machine 1 pay the penalty...
        assert_eq!(f.send(1000, 0, 1, MIB), healthy.send(1000, 0, 1, MIB) + 77);
        assert_eq!(f.send(1500, 1, 2, MIB), healthy.send(1500, 1, 2, MIB) + 77);
        // ...while an unrelated pair and local deliveries do not.
        assert_eq!(f.send(1500, 0, 2, MIB), healthy.send(1500, 0, 2, MIB));
        assert_eq!(f.send(1500, 1, 1, 64), healthy.send(1500, 1, 1, 64));
        assert_eq!(f.stats().degraded_messages, 2);
        assert_eq!(f.stats().degraded_time, 154);
    }

    #[test]
    fn consecutive_local_sends_arrive_in_send_order_after_the_local_hop() {
        use chaos_runtime::{Actor, Ctx, Executor, SequentialExecutor, SlotTopology};

        /// On payload 0, sends three messages to its same-machine neighbour.
        struct Burst {
            seen: Vec<(Time, u64)>,
        }
        impl Actor for Burst {
            type Addr = usize;
            type Msg = u64;
            fn handle(&mut self, ctx: &mut Ctx<usize, u64>, msg: u64) {
                self.seen.push((ctx.now, msg));
                if msg == 0 {
                    // Slots 0 and 2 both live on machine 0 of 2.
                    for (payload, bytes) in [(1, 300), (2, 700), (3, 0)] {
                        ctx.send(0, 2, payload, bytes);
                    }
                }
            }
        }
        let mut actors: Vec<Burst> = (0..4).map(|_| Burst { seen: Vec::new() }).collect();
        let mut f = fabric(2);
        let mut exec: SequentialExecutor<SlotTopology, u64> =
            SequentialExecutor::new(SlotTopology::round_robin(4, 2));
        exec.post(50, 0, 0, 0);
        let mut table: Vec<chaos_runtime::DynActor<'_, usize, u64>> =
            actors.iter_mut().map(|a| a as _).collect();
        exec.run(&mut table, &mut f, Time::MAX);
        // Local delivery is state- and size-independent: one shared
        // arrival time, ties broken by send order.
        let at = 50 + f.config().local_delivery;
        assert_eq!(actors[2].seen, vec![(at, 1), (at, 2), (at, 3)]);
        assert_eq!(f.stats().local_messages, 3);
        assert_eq!(f.stats().local_bytes, 1000);
        assert_eq!(f.stats().remote_messages, 0);
        // The calendar-queue hint is the smaller latency constant.
        assert_eq!(chaos_runtime::Network::time_quantum(&f), MICROS);
    }

    #[test]
    fn throughput_accounting() {
        let mut f = fabric(2);
        f.send(0, 0, 1, 500 * MIB);
        let thr = f.aggregate_remote_throughput(chaos_sim::SECS);
        assert!((thr - (500 * MIB) as f64).abs() < 1.0);
    }
}
