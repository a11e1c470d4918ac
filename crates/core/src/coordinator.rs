//! Barrier coordinator.
//!
//! Chaos has a global barrier after each scatter and each gather phase
//! (§4). The coordinator actor collects `BarrierArrive` messages, combines
//! the per-machine iteration aggregates, makes the program's
//! end-of-iteration decision — once, on its own copy, which every
//! `BarrierRelease` hands to the computation engines, so program phase
//! state is kept in one place and only the coordinator rewinds it —
//! resets edge-chunk epochs between iterations, drives the checkpoint
//! commit round, and runs transient-failure recovery (§6.6) for the fault
//! plan's crash schedule.
//!
//! # Checkpoint commit
//!
//! Checkpointing is two-phase (§6.6): computation engines copy their
//! vertex chunks into per-storage checkpoint areas before arriving at the
//! vertex-init and gather barriers (phase one), and the *coordinator*
//! broadcasts a single `CheckpointCommit` round once every machine has
//! arrived (phase two). Because the commit only starts after the barrier —
//! i.e. after every copy completed everywhere — the pending snapshot is
//! globally consistent the moment the round begins, which is what makes
//! crash-during-commit recovery possible: promote the pending snapshot and
//! resume *past* the completed iteration instead of redoing it. The extra
//! commit at the vertex-init barrier gives iteration 0 a committed
//! snapshot to roll back to, so crashes are safe from the first scatter
//! on.
//!
//! # Generations and overlapping crashes
//!
//! Every abort bumps the protocol generation; the executor drops events
//! addressed to an actor from generations older than the actor's, so all
//! in-flight traffic of the abandoned attempt — including the
//! coordinator's own pending self-events (reboot and fault timers) — dies
//! on delivery. A crash landing while a prior abort is still collecting
//! `AbortAck`s simply starts another round: acks of the superseded
//! generation are dropped, every engine re-acks under the new generation,
//! and reboot deadlines compose by `max`. The resume point is decided once
//! per recovery episode (at its first crash) and kept by later overlapping
//! crashes, which restore the same committed snapshot.

use chaos_gas::{Control, GasProgram, IterationAggregates};
use chaos_runtime::Actor;
use chaos_sim::Time;

use crate::fault::{CrashFault, CrashTrigger};
use crate::metrics::AbortRecord;
use crate::msg::{Msg, PhaseKind, CONTROL_BYTES};
use crate::runtime::{Addr, Ctx};

/// Where the cluster resumes once the current recovery episode quiesces.
#[derive(Debug, Clone, Copy)]
enum Resume {
    /// Redo an interrupted iteration from the last committed checkpoint.
    Redo {
        /// Iteration to redo.
        iter: u32,
    },
    /// The crash landed after the iteration logically completed (its
    /// commit or epoch-reset round was in flight): resume into the next
    /// iteration on the promoted snapshot.
    Advance {
        /// Iteration to resume into.
        iter: u32,
        /// Whether the completed iteration ended the computation.
        done: bool,
    },
}

/// The coordinator actor (one per cluster, co-located with machine 0).
pub struct Coordinator<P: GasProgram> {
    machines: usize,
    program: P,
    phase: PhaseKind,
    iter: u32,
    arrived: usize,
    agg: IterationAggregates,
    epoch_acks: usize,
    /// Completed-iteration aggregates.
    pub history: Vec<IterationAggregates>,
    /// Simulated time when pre-processing (incl. vertex init) completed.
    pub preprocess_end: Time,
    /// Whether the computation has converged.
    pub done: bool,
    /// Protocol generation (bumped on failure recovery).
    pub gen: u32,
    /// Remaining crash schedule (`None` = fired).
    crashes: Vec<Option<CrashFault>>,
    checkpoint: bool,
    commit_pending: usize,
    /// Outstanding `CheckpointValidateAck`s of the validation round that
    /// runs between the copy phase and the promote broadcast.
    validate_pending: usize,
    /// Whether every machine's pending snapshot passed its frame checks.
    validate_ok: bool,
    abort_acks: usize,
    /// Machine whose checkpoint write the current recovery episode's crash
    /// tore (carried in every round-1 abort of the episode, so overlapping
    /// crashes re-trigger the same probe).
    torn_machine: Option<usize>,
    /// A storage engine reported its committed snapshot torn during
    /// restore: once the current abort round quiesces, fall back one level
    /// down the checkpoint chain.
    need_depth2: bool,
    /// Program states captured before each `end_iteration`, labeled by
    /// iteration; the depth-2 fallback re-runs a completed iteration, so
    /// its end-decision must replay from the same state. Two levels kept,
    /// matching the checkpoint chain. The cluster's only program ring:
    /// engines take the program from every [`Msg::BarrierRelease`].
    prog_snaps: Vec<(u32, P)>,
    reboot_pending: bool,
    reboot_at: Time,
    resume: Resume,
    centralized: bool,
    /// Number of global barriers crossed (metrics).
    pub barriers: u64,
    /// Abort rounds broadcast (fault account).
    pub aborts: u64,
    /// Iterations rolled back and redone (fault account).
    pub iterations_redone: u64,
    /// One entry per abort broadcast, in order (fault account).
    pub abort_log: Vec<AbortRecord>,
}

impl<P: GasProgram> Coordinator<P> {
    /// Creates the coordinator; `checkpoint` enables the commit rounds,
    /// `centralized` adds the directory to the epoch-reset round.
    pub fn new(
        machines: usize,
        program: P,
        crashes: Vec<CrashFault>,
        checkpoint: bool,
        centralized: bool,
    ) -> Self {
        Self {
            machines,
            program,
            phase: PhaseKind::Preprocess,
            iter: 0,
            arrived: 0,
            agg: IterationAggregates::default(),
            epoch_acks: 0,
            history: Vec::new(),
            preprocess_end: 0,
            done: false,
            gen: 0,
            crashes: crashes.into_iter().map(Some).collect(),
            checkpoint,
            commit_pending: 0,
            validate_pending: 0,
            validate_ok: true,
            abort_acks: 0,
            torn_machine: None,
            need_depth2: false,
            prog_snaps: Vec::new(),
            reboot_pending: false,
            reboot_at: 0,
            resume: Resume::Redo { iter: 0 },
            centralized,
            barriers: 0,
            aborts: 0,
            iterations_redone: 0,
            abort_log: Vec::new(),
        }
    }

    /// The absolute times of the plan's time-triggered crashes, for the
    /// cluster to arm as initial [`Msg::FaultTimer`] self-events.
    pub fn timer_times(&self) -> Vec<Time> {
        self.crashes
            .iter()
            .flatten()
            .filter_map(|c| match c.trigger {
                CrashTrigger::Time(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    fn recovering(&self) -> bool {
        self.abort_acks > 0 || self.reboot_pending
    }

    /// Releases every computation engine into `next`, handing each the
    /// program as the end-of-iteration decisions so far left it.
    fn release(&mut self, ctx: &mut Ctx<P>, next: PhaseKind, iter: u32, done: bool) {
        for c in 0..self.machines {
            ctx.send(
                0,
                Addr::Compute(c),
                Msg::BarrierRelease {
                    next,
                    iter,
                    program: self.program.clone(),
                    done,
                },
                CONTROL_BYTES,
            );
        }
        if !done {
            self.phase = next;
            self.iter = iter;
        }
    }

    /// Records the completed gather's aggregates and runs the program's
    /// end-of-iteration decision (exactly once per completed iteration).
    fn complete_iteration(&mut self) -> bool {
        let iter = self.iter;
        let agg = std::mem::take(&mut self.agg);
        self.history.push(agg);
        self.prog_snaps.retain(|(i, _)| *i != iter);
        self.prog_snaps.push((iter, self.program.clone()));
        if self.prog_snaps.len() > 2 {
            self.prog_snaps.remove(0);
        }
        self.program.end_iteration(iter, &agg) == Control::Done
    }

    /// Finishes a gather barrier after its aggregates are final (directly,
    /// or once the checkpoint commit round completed).
    fn finish_gather(&mut self, ctx: &mut Ctx<P>) {
        if self.complete_iteration() {
            self.done = true;
            self.release(ctx, PhaseKind::Scatter, self.iter + 1, true);
        } else {
            // Edge cursors rewind before the next scatter (§7).
            self.epoch_acks = self.machines + usize::from(self.centralized);
            for s in 0..self.machines {
                ctx.send(0, Addr::Storage(s), Msg::ResetEdgeEpoch, CONTROL_BYTES);
            }
            if self.centralized {
                ctx.send(0, Addr::Directory, Msg::ResetEdgeEpoch, CONTROL_BYTES);
            }
        }
    }

    /// Starts phase two of the checkpoint with a validation round: every
    /// storage engine re-verifies its pending snapshot's frames and acks
    /// back here; only if every machine validates does the subsequent
    /// commit broadcast promote (otherwise the snapshot is dropped
    /// cluster-wide and the committed chain stands).
    fn start_commit(&mut self, ctx: &mut Ctx<P>) {
        self.commit_pending = self.machines;
        self.validate_pending = self.machines;
        self.validate_ok = true;
        for s in 0..self.machines {
            ctx.send(0, Addr::Storage(s), Msg::CheckpointValidate, CONTROL_BYTES);
        }
    }

    /// All commit acks collected: the snapshot is durable, finish the
    /// barrier it was taken at.
    fn finish_commit(&mut self, ctx: &mut Ctx<P>) {
        match self.phase {
            PhaseKind::VertexInit => {
                self.preprocess_end = ctx.now;
                self.agg = IterationAggregates::default();
                self.release(ctx, PhaseKind::Scatter, 0, false);
            }
            PhaseKind::Gather => self.finish_gather(ctx),
            _ => unreachable!("commit rounds only run at vertex-init and gather barriers"),
        }
    }

    fn on_all_arrived(&mut self, ctx: &mut Ctx<P>) {
        self.barriers += 1;
        match self.phase {
            PhaseKind::Preprocess => {
                self.agg = IterationAggregates::default();
                self.release(ctx, PhaseKind::VertexInit, 0, false);
            }
            PhaseKind::VertexInit => {
                if self.checkpoint {
                    // Commit the initial checkpoint so iteration 0 has a
                    // snapshot to roll back to.
                    self.start_commit(ctx);
                } else {
                    self.preprocess_end = ctx.now;
                    self.agg = IterationAggregates::default();
                    self.release(ctx, PhaseKind::Scatter, 0, false);
                }
            }
            PhaseKind::Scatter => {
                self.release(ctx, PhaseKind::Gather, self.iter, false);
            }
            PhaseKind::Gather => {
                if self.checkpoint {
                    // A commit-window crash must be decided *before* the
                    // commit round's messages are queued: sends are
                    // generation-stamped at drain time, so a broadcast
                    // queued ahead of the abort's bump would survive it
                    // and its acks would corrupt `commit_pending`. The
                    // abort itself promotes the pending snapshot at every
                    // storage engine (`commit: true`), so the round's
                    // effect still happens — via recovery instead.
                    self.commit_pending = self.machines;
                    if !self.try_commit_crash(ctx) {
                        self.start_commit(ctx);
                    }
                } else {
                    self.finish_gather(ctx);
                }
            }
        }
    }

    /// Whether a crash can land right now: only where a consistent
    /// snapshot exists to recover to — during scatter/gather (the last
    /// committed checkpoint), or inside a commit round (the pending
    /// snapshot, complete everywhere, is promotable).
    fn crash_eligible(&self) -> bool {
        !self.done
            && (matches!(self.phase, PhaseKind::Scatter | PhaseKind::Gather)
                || self.commit_pending > 0)
    }

    /// Fires the earliest due time-triggered crash, if any. Called from
    /// [`Msg::FaultTimer`] deliveries and, for triggers deferred while
    /// ineligible (pre-processing, vertex init before its commit), from
    /// barrier arrivals.
    fn try_time_crash(&mut self, ctx: &mut Ctx<P>) -> bool {
        if !self.crash_eligible() {
            return false;
        }
        let mut due: Option<(usize, Time)> = None;
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(CrashFault {
                trigger: CrashTrigger::Time(t),
                ..
            }) = c
            {
                if *t <= ctx.now && due.is_none_or(|(_, best)| *t < best) {
                    due = Some((i, *t));
                }
            }
        }
        match due {
            Some((i, _)) => {
                let crash = self.crashes[i].take().expect("due crash present");
                self.start_abort(ctx, crash);
                true
            }
            None => false,
        }
    }

    /// Fires a matching barrier-iteration trigger (or a deferred time
    /// trigger) on a barrier arrival. Iteration triggers are not consumed
    /// mid-recovery — no arrivals happen then anyway — so a trigger
    /// matching a redone iteration fires again on the redo's first
    /// arrival.
    fn try_barrier_crash(&mut self, ctx: &mut Ctx<P>) -> bool {
        if !self.done && !self.recovering() {
            for i in 0..self.crashes.len() {
                if let Some(CrashFault {
                    trigger: CrashTrigger::Iteration { iteration, phase },
                    ..
                }) = self.crashes[i]
                {
                    if phase == self.phase && iteration == self.iter {
                        let crash = self.crashes[i].take().expect("matched crash present");
                        self.start_abort(ctx, crash);
                        return true;
                    }
                }
            }
        }
        self.try_time_crash(ctx)
    }

    /// Fires a matching commit trigger right after the commit broadcast of
    /// the current gather barrier.
    fn try_commit_crash(&mut self, ctx: &mut Ctx<P>) -> bool {
        if self.recovering() {
            return false;
        }
        for i in 0..self.crashes.len() {
            if let Some(CrashFault {
                trigger: CrashTrigger::Commit { iteration },
                ..
            }) = self.crashes[i]
            {
                if self.phase == PhaseKind::Gather && iteration == self.iter {
                    let crash = self.crashes[i].take().expect("matched crash present");
                    self.start_abort(ctx, crash);
                    return true;
                }
            }
        }
        false
    }

    /// The generation bump just invalidated every pending self-event of
    /// the old generation; re-arm the future time triggers under the new
    /// one. (Triggers already due fire at the next eligible delivery.)
    fn rearm_timers(&mut self, ctx: &mut Ctx<P>) {
        for c in self.crashes.iter().flatten() {
            if let CrashTrigger::Time(t) = c.trigger {
                if t > ctx.now {
                    ctx.at(t, Addr::Coordinator, Msg::FaultTimer);
                }
            }
        }
    }

    fn start_abort(&mut self, ctx: &mut Ctx<P>, crash: CrashFault) {
        let fresh = !self.recovering();
        self.gen += 1;
        ctx.gen = self.gen;
        self.arrived = 0;
        self.aborts += 1;
        let mut commit = false;
        if fresh {
            // Decide the resume point once per recovery episode;
            // overlapping crashes restore the same snapshot and keep it.
            self.resume = if self.commit_pending > 0 {
                // Every copy completed before the barrier released the
                // commit round, so the pending snapshot is consistent:
                // promote it and resume past the completed barrier.
                commit = true;
                self.commit_pending = 0;
                match self.phase {
                    PhaseKind::VertexInit => {
                        self.preprocess_end = ctx.now;
                        Resume::Advance {
                            iter: 0,
                            done: false,
                        }
                    }
                    PhaseKind::Gather => {
                        let done = self.complete_iteration();
                        Resume::Advance {
                            iter: self.iter + 1,
                            done,
                        }
                    }
                    _ => unreachable!("commit rounds only run at vertex-init and gather barriers"),
                }
            } else if self.phase == PhaseKind::Gather && self.epoch_acks > 0 {
                // The iteration completed; only its epoch-reset round was
                // in flight, and the abort itself rewinds edge epochs.
                Resume::Advance {
                    iter: self.iter + 1,
                    done: false,
                }
            } else {
                Resume::Redo { iter: self.iter }
            };
            // A torn checkpoint write only matters when recovery actually
            // restores from the committed snapshot (a redo) and there is a
            // previous committed snapshot to fall back to (iter >= 1).
            self.torn_machine = match self.resume {
                Resume::Redo { iter } if crash.torn && self.checkpoint && iter >= 1 => {
                    Some(crash.machine)
                }
                _ => None,
            };
        }
        self.validate_pending = 0;
        self.epoch_acks = 0;
        self.agg = IterationAggregates::default();
        let (resume_iter, redo) = match self.resume {
            Resume::Redo { iter } => (iter, true),
            Resume::Advance { iter, .. } => (iter, false),
        };
        self.abort_log.push(AbortRecord {
            time: ctx.now,
            gen: self.gen,
            resume_iter,
            redo,
        });
        // All engines abandon the attempt; storage restores checkpoints.
        self.abort_acks = 2 * self.machines;
        for i in 0..self.machines {
            ctx.send(
                0,
                Addr::Compute(i),
                Msg::Abort {
                    gen: self.gen,
                    iter: resume_iter,
                    commit,
                    torn: None,
                    rewind: false,
                },
                CONTROL_BYTES,
            );
            ctx.send(
                0,
                Addr::Storage(i),
                Msg::Abort {
                    gen: self.gen,
                    iter: resume_iter,
                    commit,
                    torn: self.torn_machine,
                    rewind: false,
                },
                CONTROL_BYTES,
            );
        }
        // The failed machine rejoins after its configured downtime;
        // overlapping reboots compose by max.
        let rejoin = ctx.now + crash.downtime;
        self.reboot_at = if self.reboot_pending {
            self.reboot_at.max(rejoin)
        } else {
            rejoin
        };
        self.reboot_pending = true;
        ctx.at(self.reboot_at, Addr::Coordinator, Msg::RebootDone);
        self.rearm_timers(ctx);
    }

    /// The round-1 restore found a torn committed snapshot: fall back one
    /// level down the checkpoint chain. A second abort round (with
    /// `rewind`) makes every storage engine shift `committed ← prev`, put
    /// back the compactions since the last promote and restore from the
    /// older snapshot; the coordinator rewinds its program state to redo
    /// the extra iteration this costs, and the next release hands it to
    /// every computation engine.
    fn start_fallback_abort(&mut self, ctx: &mut Ctx<P>) {
        self.need_depth2 = false;
        self.torn_machine = None;
        let target = match self.resume {
            Resume::Redo { iter } => iter - 1,
            Resume::Advance { .. } => unreachable!("fallback only follows a redo"),
        };
        self.gen += 1;
        ctx.gen = self.gen;
        self.aborts += 1;
        // The iteration whose redo the torn snapshot was meant to seed is
        // rolled back one further: both it and the fallback target rerun.
        self.iterations_redone += 1;
        self.history.pop();
        if let Some((_, p)) = self.prog_snaps.iter().find(|(i, _)| *i == target) {
            self.program = p.clone();
        }
        self.resume = Resume::Redo { iter: target };
        self.abort_log.push(AbortRecord {
            time: ctx.now,
            gen: self.gen,
            resume_iter: target,
            redo: true,
        });
        self.abort_acks = 2 * self.machines;
        for i in 0..self.machines {
            for addr in [Addr::Compute(i), Addr::Storage(i)] {
                ctx.send(
                    0,
                    addr,
                    Msg::Abort {
                        gen: self.gen,
                        iter: target,
                        commit: false,
                        torn: None,
                        rewind: true,
                    },
                    CONTROL_BYTES,
                );
            }
        }
        // The generation bump invalidated the pending reboot self-event
        // along with everything else; re-arm it under the new generation.
        if self.reboot_pending {
            ctx.at(self.reboot_at, Addr::Coordinator, Msg::RebootDone);
        }
        self.rearm_timers(ctx);
    }

    /// Recovery quiesced (all acks in, reboot complete): resume.
    fn finish_recovery(&mut self, ctx: &mut Ctx<P>) {
        match self.resume {
            Resume::Redo { iter } => {
                self.iterations_redone += 1;
                self.release(ctx, PhaseKind::Scatter, iter, false);
            }
            Resume::Advance { iter, done } => {
                if done {
                    self.done = true;
                    self.release(ctx, PhaseKind::Scatter, iter, true);
                } else {
                    self.release(ctx, PhaseKind::Scatter, iter, false);
                }
            }
        }
    }
}

impl<P: GasProgram> Actor for Coordinator<P> {
    type Addr = Addr;
    type Msg = Msg<P>;

    fn generation(&self) -> u32 {
        self.gen
    }

    /// Handles one message.
    fn handle(&mut self, ctx: &mut Ctx<P>, msg: Msg<P>) {
        match msg {
            Msg::BarrierArrive { from: _, agg } => {
                if self.try_barrier_crash(ctx) {
                    return;
                }
                self.agg.absorb(&agg);
                self.arrived += 1;
                if self.arrived == self.machines {
                    self.arrived = 0;
                    self.on_all_arrived(ctx);
                }
            }
            Msg::EpochResetAck => {
                self.epoch_acks -= 1;
                if self.epoch_acks == 0 {
                    self.release(ctx, PhaseKind::Scatter, self.iter + 1, false);
                }
            }
            Msg::CheckpointValidateAck { ok } => {
                self.validate_ok &= ok;
                self.validate_pending -= 1;
                if self.validate_pending == 0 {
                    let promote = self.validate_ok;
                    for s in 0..self.machines {
                        ctx.send(
                            0,
                            Addr::Storage(s),
                            Msg::CheckpointCommit { promote },
                            CONTROL_BYTES,
                        );
                    }
                }
            }
            Msg::CheckpointCommitAck => {
                self.commit_pending -= 1;
                if self.commit_pending == 0 {
                    self.finish_commit(ctx);
                }
            }
            Msg::AbortAck { fallback } => {
                self.need_depth2 |= fallback;
                self.abort_acks -= 1;
                if self.abort_acks == 0 {
                    if self.need_depth2 {
                        self.start_fallback_abort(ctx);
                    } else if !self.reboot_pending {
                        self.finish_recovery(ctx);
                    }
                }
            }
            Msg::RebootDone => {
                self.reboot_pending = false;
                if self.abort_acks == 0 {
                    self.finish_recovery(ctx);
                }
            }
            Msg::FaultTimer => {
                self.try_time_crash(ctx);
            }
            other => panic!("coordinator got unexpected message {other:?}"),
        }
    }
}
