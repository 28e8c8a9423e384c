//! Test support shared by the workspace suites: the policy-visible
//! record of a run.
//!
//! Everything an engine tells a policy and everything the policy
//! answers passes through the two `MasterPolicy` callbacks, so a
//! wrapper logging both — with the decision instant — captures the
//! whole schedule as the policy lived it. Unlike a recorder it needs no
//! cooperation from the engine under test: it works with the sink off,
//! and in the simulator and the reactor alike.

use stargemm::core::geometry::ChunkGeom;
use stargemm::core::stream::GeometryAccess;
use stargemm::core::Job;
use stargemm::sim::{Action, ChunkId, MasterPolicy, SimCtx, SimEvent};

/// One callback of a run: what the policy decided when asked, or what
/// it was told, each with `ctx.now()` at the call.
#[derive(Debug, PartialEq)]
pub enum Callback {
    Asked(f64, Action),
    Told(f64, SimEvent),
}

/// Delegates to `inner`, logging every callback.
pub struct Logged<P> {
    inner: P,
    pub log: Vec<Callback>,
}

impl<P> Logged<P> {
    pub fn new(inner: P) -> Logged<P> {
        Logged {
            inner,
            log: Vec::new(),
        }
    }
}

impl<P: MasterPolicy> MasterPolicy for Logged<P> {
    fn next_action(&mut self, ctx: &SimCtx) -> Action {
        let action = self.inner.next_action(ctx);
        self.log.push(Callback::Asked(ctx.now(), action));
        action
    }

    fn on_event(&mut self, ev: &SimEvent, ctx: &SimCtx) {
        self.log.push(Callback::Told(ctx.now(), *ev));
        self.inner.on_event(ev, ctx);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<P: GeometryAccess> GeometryAccess for Logged<P> {
    fn chunk_geom(&self, id: ChunkId) -> Option<ChunkGeom> {
        self.inner.chunk_geom(id)
    }

    fn job_dims(&self) -> Job {
        self.inner.job_dims()
    }
}
