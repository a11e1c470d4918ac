//! Deterministic fault injection (§6.6 and beyond).
//!
//! A [`FaultPlan`] is an ordered, seeded schedule of fault events injected
//! into a run: transient machine crashes (triggering the abort / rollback /
//! reboot / redo protocol), transient storage-device read/write fault
//! windows (the device returns a simulated error; the storage engine
//! retries with bounded exponential backoff), and fabric degradation
//! windows (a slow-NIC straggler adds latency to every message touching a
//! machine for a while).
//!
//! Everything is driven off *simulated* time and simulated protocol points
//! (barrier arrivals, commit broadcasts), never off host state, so a run
//! with a fault plan is still a pure function of (config, program, graph).
//! [`FaultPlan::generate`] derives a randomized-but-reproducible schedule
//! from a seed.

use chaos_sim::{Rng, Time, MICROS, SECS};

use crate::msg::PhaseKind;

/// When a machine crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// At an absolute simulated time. The crash lands wherever the cluster
    /// happens to be — mid-phase, mid-recovery, mid-commit — which is what
    /// makes time triggers the adversarial ones. A time that falls before
    /// the first committed checkpoint exists is deferred to the first
    /// barrier arrival that can be rolled back.
    Time(Time),
    /// When the first machine of the matching `(phase, iteration)` barrier
    /// arrives (the shape the old `FailureSpec` scripted, generalized to
    /// gather barriers). Not consumed while a prior recovery is still in
    /// flight: it fires at the next matching arrival instead, which is how
    /// a schedule expresses "this iteration fails repeatedly".
    Iteration {
        /// Iteration whose barrier is interrupted.
        iteration: u32,
        /// Which of the iteration's two barriers (scatter or gather).
        phase: PhaseKind,
    },
    /// Immediately after the coordinator broadcasts the checkpoint-commit
    /// round of the matching gather barrier — the promote-then-restore
    /// recovery path.
    Commit {
        /// Iteration whose commit round is interrupted.
        iteration: u32,
    },
}

/// One transient machine crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The machine that fails (the whole cluster rolls back; the paper's
    /// recovery protocol is global, §6.6).
    pub machine: usize,
    /// When the crash fires.
    pub trigger: CrashTrigger,
    /// Reboot time before the machine rejoins. Overlapping crashes compose
    /// by `max`: the cluster resumes when the last reboot completes.
    pub downtime: Time,
    /// Whether a checkpoint write in flight on this machine when the crash
    /// fires persists only a prefix (a *torn write*). The tear is silent:
    /// it surfaces later when the frame check of the torn chunk fails
    /// during rollback, forcing the cluster to fall back one snapshot down
    /// the depth-2 committed-checkpoint chain. Only takes effect when the
    /// crash actually rolls an iteration back (checkpointing on, a prior
    /// committed snapshot exists).
    pub torn: bool,
}

/// A transient storage-device fault window: operations of the selected
/// kinds fail with a simulated device error while `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// Machine whose device misbehaves.
    pub machine: usize,
    /// Window start (simulated time, inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Whether reads fail inside the window.
    pub reads: bool,
    /// Whether writes fail inside the window.
    pub writes: bool,
}

/// A silent-corruption window: framed reads on `machine` while
/// `from <= now < until` may fail their checksum check. Whether a given
/// read is corrupted is a pure function of `(salt, simulated time, read
/// key)` — see `chaos_storage::CorruptionWindow` — so faulted runs stay
/// reproducible. Corruption never alters stored data, only what a read
/// returns: re-reads draw fresh verdicts, repairs restore from the
/// committed checkpoint copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionFault {
    /// Machine whose device corrupts reads.
    pub machine: usize,
    /// Window start (simulated time, inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Seed-derived salt for the corruption hash (the machine index is
    /// mixed in at install time).
    pub salt: u64,
    /// Roughly one in `one_in` framed reads inside the window is corrupted
    /// (1 = every read).
    pub one_in: u64,
}

/// A fabric degradation window: every remote message sent to or from
/// `machine` while `from <= now < until` takes `extra` longer — a slow
/// NIC / straggler link. Purely additive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricFault {
    /// Machine whose NIC is slow.
    pub machine: usize,
    /// Window start (send time, inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Extra latency added to each affected message.
    pub extra: Time,
}

/// Shape parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Cluster size (crash/device/fabric targets are drawn below this).
    pub machines: usize,
    /// Number of machine crashes.
    pub crashes: usize,
    /// Number of device fault windows.
    pub device_faults: usize,
    /// Number of fabric degradation windows.
    pub fabric_faults: usize,
    /// Number of silent-corruption windows.
    pub corruption_faults: usize,
    /// Iteration triggers are drawn from `[0, max_iteration]`.
    pub max_iteration: u32,
    /// Time triggers and fault windows are drawn from `[0, horizon)`.
    pub horizon: Time,
    /// Crash downtimes are drawn from `[0, max_downtime]`.
    pub max_downtime: Time,
}

impl FaultPlanConfig {
    /// A plan shape suited to the soak tests: a couple of crashes plus a
    /// few device/fabric windows on a small cluster.
    pub fn soak(machines: usize) -> Self {
        Self {
            machines,
            crashes: 2,
            device_faults: 2,
            fabric_faults: 1,
            corruption_faults: 1,
            max_iteration: 4,
            horizon: 2 * SECS,
            max_downtime: SECS / 10,
        }
    }
}

/// An ordered, seeded schedule of fault events for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Machine crashes.
    pub crashes: Vec<CrashFault>,
    /// Storage-device fault windows.
    pub device: Vec<DeviceFault>,
    /// Fabric degradation windows.
    pub fabric: Vec<FabricFault>,
    /// Silent-corruption windows.
    pub corruption: Vec<CorruptionFault>,
}

impl FaultPlan {
    /// The empty plan (fault-free run; the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.device.is_empty()
            && self.fabric.is_empty()
            && self.corruption.is_empty()
    }

    /// A single scripted crash at a scatter barrier — the shape the old
    /// `FailureSpec` expressed.
    pub fn crash(machine: usize, iteration: u32, downtime: Time) -> Self {
        Self {
            crashes: vec![CrashFault {
                machine,
                trigger: CrashTrigger::Iteration {
                    iteration,
                    phase: PhaseKind::Scatter,
                },
                downtime,
                torn: false,
            }],
            ..Self::default()
        }
    }

    /// Adds a crash to the schedule.
    pub fn with_crash(mut self, crash: CrashFault) -> Self {
        self.crashes.push(crash);
        self
    }

    /// Adds a device fault window.
    pub fn with_device_fault(mut self, fault: DeviceFault) -> Self {
        self.device.push(fault);
        self
    }

    /// Adds a fabric degradation window.
    pub fn with_fabric_fault(mut self, fault: FabricFault) -> Self {
        self.fabric.push(fault);
        self
    }

    /// Adds a silent-corruption window.
    pub fn with_corruption_fault(mut self, fault: CorruptionFault) -> Self {
        self.corruption.push(fault);
        self
    }

    /// Derives a randomized-but-reproducible schedule from a seed.
    ///
    /// Whenever `cfg.crashes >= 1`, the first crash is an early
    /// scatter-barrier iteration trigger, which guarantees the run records
    /// at least one abort *and* at least one redone iteration (a fresh
    /// recovery episode entered from a scatter arrival always rolls back
    /// and redoes — see the coordinator's resume rules). Later crashes mix
    /// barrier, commit and absolute-time triggers. Half the schedules mark
    /// the anchor crash as a torn checkpoint write, exercising the depth-2
    /// committed-checkpoint fallback; corruption windows are drawn early
    /// and wide so they overlap the read-heavy start of a run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines == 0`.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        assert!(cfg.machines > 0, "fault plan needs at least one machine");
        let m = cfg.machines as u64;
        let mut plan = Self::default();
        let mut rng = Rng::new(seed ^ 0xFA17_F1A9);
        for i in 0..cfg.crashes {
            let machine = rng.below(m) as usize;
            let downtime = if cfg.max_downtime == 0 {
                0
            } else {
                rng.below(cfg.max_downtime + 1)
            };
            // Only the anchor crash tears: it is the one guaranteed to roll
            // an iteration back, which is what makes the tear observable.
            let torn = i == 0 && cfg.corruption_faults > 0 && rng.below(2) == 0;
            let trigger = if i == 0 {
                // Guaranteed-redo anchor: an early scatter-barrier crash.
                CrashTrigger::Iteration {
                    iteration: rng.range(1, 3) as u32,
                    phase: PhaseKind::Scatter,
                }
            } else {
                match rng.below(4) {
                    0 => CrashTrigger::Time(rng.below(cfg.horizon.max(1))),
                    1 => CrashTrigger::Commit {
                        iteration: rng.below(u64::from(cfg.max_iteration) + 1) as u32,
                    },
                    n => CrashTrigger::Iteration {
                        iteration: rng.below(u64::from(cfg.max_iteration) + 1) as u32,
                        phase: if n == 2 {
                            PhaseKind::Scatter
                        } else {
                            PhaseKind::Gather
                        },
                    },
                }
            };
            plan.crashes.push(CrashFault {
                machine,
                trigger,
                downtime,
                torn,
            });
        }
        for _ in 0..cfg.device_faults {
            let from = rng.below(cfg.horizon.max(1));
            let width = rng.range(100 * MICROS, 50_000 * MICROS);
            let kind = rng.below(3);
            plan.device.push(DeviceFault {
                machine: rng.below(m) as usize,
                from,
                until: from + width,
                reads: kind != 1,
                writes: kind != 0,
            });
        }
        for _ in 0..cfg.fabric_faults {
            let from = rng.below(cfg.horizon.max(1));
            let width = rng.range(100 * MICROS, 100_000 * MICROS);
            plan.fabric.push(FabricFault {
                machine: rng.below(m) as usize,
                from,
                until: from + width,
                extra: rng.range(10 * MICROS, 500 * MICROS),
            });
        }
        for _ in 0..cfg.corruption_faults {
            // Early and wide: the window must overlap actual read traffic
            // (preprocessing and the first iterations) to be exercised.
            let from = rng.below((cfg.horizon / 8).max(1));
            let width = rng.range(100_000 * MICROS, 500_000 * MICROS);
            plan.corruption.push(CorruptionFault {
                machine: rng.below(m) as usize,
                from,
                until: from + width,
                salt: rng.next_u64(),
                one_in: 1 + rng.below(4),
            });
        }
        plan
    }

    /// Validates the plan against a cluster configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self, machines: usize, checkpoint: bool) -> Result<(), String> {
        if self.crashes.iter().any(|c| c.torn) && !checkpoint {
            return Err("torn-write injection requires checkpointing".into());
        }
        if !self.crashes.is_empty() && !checkpoint {
            return Err("failure injection requires checkpointing".into());
        }
        for c in &self.crashes {
            if c.machine >= machines {
                return Err("failed machine out of range".into());
            }
            if let CrashTrigger::Iteration { phase, .. } = c.trigger {
                if !matches!(phase, PhaseKind::Scatter | PhaseKind::Gather) {
                    return Err("crash triggers must target scatter or gather barriers".into());
                }
            }
        }
        for d in &self.device {
            if d.machine >= machines {
                return Err("device-fault machine out of range".into());
            }
            if d.until <= d.from {
                return Err("device fault window is empty".into());
            }
        }
        for f in &self.fabric {
            if f.machine >= machines {
                return Err("fabric-fault machine out of range".into());
            }
            if f.until <= f.from {
                return Err("fabric fault window is empty".into());
            }
        }
        for c in &self.corruption {
            if c.machine >= machines {
                return Err("corruption-fault machine out of range".into());
            }
            if c.until <= c.from {
                return Err("corruption fault window is empty".into());
            }
            if c.one_in == 0 {
                return Err("corruption rate one_in must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_reproducible() {
        let cfg = FaultPlanConfig::soak(4);
        let a = FaultPlan::generate(99, &cfg);
        let b = FaultPlan::generate(99, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::generate(100, &cfg));
        assert_eq!(a.crashes.len(), 2);
        assert_eq!(a.device.len(), 2);
        assert_eq!(a.fabric.len(), 1);
        assert_eq!(a.corruption.len(), 1);
    }

    #[test]
    fn generate_draws_torn_and_corruption_schedules() {
        let cfg = FaultPlanConfig::soak(4);
        let mut torn = 0;
        for seed in 0..20 {
            let plan = FaultPlan::generate(seed, &cfg);
            assert_eq!(plan.corruption.len(), 1);
            let c = plan.corruption[0];
            assert!(c.until > c.from);
            assert!(c.one_in >= 1);
            assert!(c.machine < 4);
            torn += usize::from(plan.crashes[0].torn);
            assert!(plan.crashes[1..].iter().all(|c| !c.torn));
        }
        // Roughly half the seeds tear the anchor crash's checkpoint write;
        // the 20-seed soak matrix must contain at least one either way.
        assert!(torn >= 1, "no torn-write schedule in 20 seeds");
        assert!(torn < 20, "every schedule torn");
    }

    #[test]
    fn generate_anchors_first_crash_at_early_scatter_barrier() {
        let cfg = FaultPlanConfig::soak(4);
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, &cfg);
            match plan.crashes[0].trigger {
                CrashTrigger::Iteration { iteration, phase } => {
                    assert!((1..=2).contains(&iteration), "iteration {iteration}");
                    assert_eq!(phase, PhaseKind::Scatter);
                }
                other => panic!("first crash must be an iteration trigger, got {other:?}"),
            }
            plan.validate(4, true).unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::crash(0, 1, 0).validate(2, false).is_err());
        assert!(FaultPlan::crash(2, 1, 0).validate(2, true).is_err());
        assert!(FaultPlan::crash(1, 1, 0).validate(2, true).is_ok());
        let p = FaultPlan::none().with_device_fault(DeviceFault {
            machine: 0,
            from: 10,
            until: 10,
            reads: true,
            writes: true,
        });
        assert!(p.validate(1, false).is_err());
        let p = FaultPlan::none().with_fabric_fault(FabricFault {
            machine: 3,
            from: 0,
            until: 10,
            extra: 5,
        });
        assert!(p.validate(2, false).is_err());
        assert!(FaultPlan::none().validate(1, false).is_ok());
    }

    #[test]
    fn validate_rejects_bad_corruption_and_torn_plans() {
        let window = |machine, from, until, one_in| CorruptionFault {
            machine,
            from,
            until,
            salt: 7,
            one_in,
        };
        // Machine out of range, empty window, zero rate.
        let p = FaultPlan::none().with_corruption_fault(window(2, 0, 10, 1));
        assert!(p.validate(2, false).is_err());
        let p = FaultPlan::none().with_corruption_fault(window(0, 10, 10, 1));
        assert!(p.validate(2, false).is_err());
        let p = FaultPlan::none().with_corruption_fault(window(0, 0, 10, 0));
        assert!(p.validate(2, false).is_err());
        // Corruption alone needs no checkpointing (repair degrades to
        // waiting out the window)...
        let p = FaultPlan::none().with_corruption_fault(window(0, 0, 10, 1));
        assert!(p.validate(2, false).is_ok());
        // ...but torn checkpoint writes do, with a tear-specific error.
        let mut torn = FaultPlan::crash(0, 1, 0);
        torn.crashes[0].torn = true;
        let err = torn.validate(2, false).unwrap_err();
        assert!(err.contains("torn-write"), "got {err:?}");
        assert!(torn.validate(2, true).is_ok());
    }
}
