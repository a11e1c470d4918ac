//! Centralized chunk directory — the Figure 15 strawman.
//!
//! Instead of randomized placement and lookup, a single directory actor
//! decides where every chunk is written and which engine serves each read.
//! Every operation passes through one serialized service queue, which is
//! exactly why the design does not scale: the directory becomes the
//! bottleneck as machines are added.

use std::collections::HashMap;
use std::sync::Arc;

use chaos_gas::GasProgram;
use chaos_runtime::Actor;
use chaos_sim::{Resource, Time};

use crate::msg::{DataKind, Msg};
use crate::runtime::{Addr, Ctx, Post, RunParams};

/// The directory actor.
pub struct Directory<P: GasProgram> {
    params: Arc<RunParams>,
    ops: Resource,
    /// Per (kind, partition): available and total chunk counts per engine.
    counts: HashMap<(DataKind, usize), (Vec<u64>, Vec<u64>)>,
    rr: usize,
    _marker: std::marker::PhantomData<P>,
}

impl<P: GasProgram> Directory<P> {
    /// Creates the directory over `params.machines` storage engines;
    /// `op_ns` is the service time per operation.
    pub fn new(params: Arc<RunParams>, op_ns: u64) -> Self {
        Self {
            params,
            // One op takes `op_ns`; the Resource rate is ops/sec expressed
            // as "1 unit per op".
            ops: Resource::new(1_000_000_000 / op_ns.max(1), 0),
            counts: HashMap::new(),
            rr: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers chunks distributed during cluster setup (the input edge
    /// list is pre-spread over the devices).
    pub fn preregister(&mut self, kind: DataKind, part: usize, engine: usize) {
        let m = self.params.machines;
        let entry = self
            .counts
            .entry((kind, part))
            .or_insert_with(|| (vec![0; m], vec![0; m]));
        entry.0[engine] += 1;
        entry.1[engine] += 1;
    }

    /// Replies to machine `to` once the service queue is done at `at`.
    fn respond_at(ctx: &mut Ctx<P>, at: Time, to: usize, msg: Msg<P>) {
        let (to, inner) = (Addr::Compute(to), Box::new(msg));
        ctx.at(at, Addr::Directory, Msg::Deferred { to, inner });
    }
}

impl<P: GasProgram> Actor for Directory<P> {
    type Addr = Addr;
    type Msg = Msg<P>;

    /// Handles one message.
    fn handle(&mut self, ctx: &mut Ctx<P>, msg: Msg<P>) {
        match msg {
            Msg::DirWrite { part, kind, from } => {
                let done = self.ops.serve(ctx.now, 1);
                let engine = self.rr % self.params.machines;
                self.rr += 1;
                self.preregister(kind, part, engine);
                Self::respond_at(ctx, done, from, Msg::DirWriteResp { part, kind, engine });
            }
            Msg::DirRead { part, kind, from } => {
                let done = self.ops.serve(ctx.now, 1);
                let engine = self.counts.get_mut(&(kind, part)).and_then(|(avail, _)| {
                    let m = avail.len();
                    let start = self.rr % m;
                    (0..m)
                        .map(|i| (start + i) % m)
                        .find(|&e| avail[e] > 0)
                        .inspect(|&e| {
                            avail[e] -= 1;
                        })
                });
                self.rr += 1;
                Self::respond_at(ctx, done, from, Msg::DirReadResp { part, kind, engine });
            }
            Msg::ResetEdgeEpoch => {
                // Edge chunks become readable again for the next iteration;
                // update counts stay consumed (update sets are deleted and
                // rewritten each iteration).
                for ((kind, _), (avail, total)) in self.counts.iter_mut() {
                    if matches!(kind, DataKind::Edges | DataKind::EdgesReverse) {
                        avail.clone_from(total);
                    }
                }
                ctx.post(&self.params, 0, Addr::Coordinator, Msg::EpochResetAck);
            }
            Msg::DeleteUpdates { part } => {
                if let Some((avail, total)) = self.counts.get_mut(&(DataKind::Updates, part)) {
                    avail.iter_mut().for_each(|c| *c = 0);
                    total.iter_mut().for_each(|c| *c = 0);
                }
            }
            Msg::Deferred { to, inner } => ctx.post(&self.params, 0, to, *inner),
            other => panic!("directory got unexpected message {other:?}"),
        }
    }
}
