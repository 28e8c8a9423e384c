//! The master-side control state machine, shared by every engine.
//!
//! The paper's master is a tiny protocol automaton: ask the policy while
//! the port is free, park while a transfer is in flight, block on a
//! retrieval of a chunk still being computed, and re-ask after every
//! event. It lives once, here: [`MasterSm`] owns the [`MasterState`]
//! transitions and the action table — [`MasterSm::perform`] is the one
//! place an [`Action`] becomes ledger bookings, a transport verb and a
//! new master state, for every engine.
//!
//! An engine plugs in a [`MasterTransport`]: only what it differs in —
//! its clock, its wire, and the verbs that put work on it.
//!
//! The rest of what the master knows is shared the same way: the chunk
//! and worker-memory books are one [`StarLedger`] (`crate::ledger` —
//! every send/retrieve/finish rule, the chunk lifecycle, the crash sweep,
//! the `SimCtx` view, the stats fold) and the transfers in flight are one
//! [`LaneTable`](crate::lanes::LaneTable) (`crate::lanes`). Each engine
//! holds one of each and no table of its own, so the rules cannot drift.
//!
//! Driving pattern (one iteration of an engine's event loop):
//!
//! ```text
//! sm.pump(t)?                // policy acts while the master is Idle
//! … engine delivers one event (transfer end, compute, lifecycle) …
//! sm.on_transfer_done()      // only for send/retrieve completions
//! sm.settle(t)?              // blocked-retrieve + Waiting resolution
//! ```

use crate::error::SimError;
use crate::ledger::StarLedger;
use crate::msg::{ChunkDescr, ChunkId, Fragment, JobId};
use crate::policy::Action;

/// Worker index (matches `policy::WorkerId`).
type WorkerId = usize;

/// Control state of the master port.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MasterState {
    /// Port free; ask the policy.
    Idle,
    /// A transfer is in flight.
    Busy,
    /// Blocked on a retrieval of a chunk still being computed.
    BlockedRetrieve(ChunkId),
    /// Policy returned [`Action::Wait`]; re-ask after the next event.
    Waiting,
    /// Policy returned [`Action::Finished`].
    Done,
}

impl MasterState {
    /// Master state after issuing a transfer: free to act while the
    /// contention model still has wire capacity, parked otherwise.
    /// One-port always parks — the historical `Busy`.
    fn after_issue(can_issue: bool) -> MasterState {
        if can_issue {
            MasterState::Idle
        } else {
            MasterState::Busy
        }
    }
}

/// What an engine must provide for [`MasterSm`] to drive it. `sim`
/// implements this over `StarModel` + virtual time; the `net` reactor
/// over its wall-paced loop and in-process worker machines.
pub trait MasterTransport {
    /// Engine-specific failure type (`SimError`, `NetError`, …).
    type Error: From<SimError>;

    /// Ask the policy for its next action (engine builds the context).
    fn poll_action(&mut self) -> Action;

    /// Whether the contention model has a free lane for one more
    /// transfer.
    fn can_issue(&self) -> bool;

    /// The engine's books: which chunks are lost, computed, and where.
    fn ledger(&self) -> &StarLedger;

    /// The same books, for booking an action.
    fn ledger_mut(&mut self) -> &mut StarLedger;

    /// Rules of this transport a send must pass, checked before the
    /// ledger's own. None by default.
    fn check_send(
        &self,
        _worker: WorkerId,
        _fragment: &Fragment,
        _new_chunk: Option<&ChunkDescr>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Rules of this transport a retrieval must pass, checked before the
    /// ledger's own. None by default.
    fn check_retrieve(&self, _worker: WorkerId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Put a fragment the ledger has booked on the wire (`new_chunk`:
    /// the descriptor a C load opens its chunk with).
    fn send(
        &mut self,
        worker: WorkerId,
        fragment: Fragment,
        new_chunk: Option<ChunkDescr>,
    ) -> Result<(), Self::Error>;

    /// Begin pulling a computed `chunk` back over the wire.
    fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), Self::Error>;

    /// Record the policy's declaration that `job` is complete (free: no
    /// port time).
    fn complete_job(&mut self, job: JobId) -> Result<(), Self::Error>;
}

/// The shared master automaton: a [`MasterState`] plus the transition
/// rules, independent of any clock or wire.
#[derive(Clone, Copy, Debug)]
pub struct MasterSm {
    state: MasterState,
}

impl Default for MasterSm {
    fn default() -> Self {
        MasterSm::new()
    }
}

impl MasterSm {
    /// A fresh master, free to act.
    pub fn new() -> MasterSm {
        MasterSm {
            state: MasterState::Idle,
        }
    }

    /// Current control state.
    pub fn state(&self) -> MasterState {
        self.state
    }

    /// Whether the policy has declared the run finished.
    pub fn is_done(&self) -> bool {
        self.state == MasterState::Done
    }

    /// Asks the policy for actions while the master is free to act,
    /// performing each.
    pub fn pump<T: MasterTransport + ?Sized>(&mut self, t: &mut T) -> Result<(), T::Error> {
        while self.state == MasterState::Idle {
            let action = t.poll_action();
            self.perform(t, action)?;
        }
        Ok(())
    }

    /// The action table: checks `action` against the transport's rules
    /// and the ledger's, books it, hands the transport its verb, and
    /// moves to the state the action leaves the master in. A refused
    /// action leaves the state as it was.
    pub fn perform<T: MasterTransport + ?Sized>(
        &mut self,
        t: &mut T,
        action: Action,
    ) -> Result<(), T::Error> {
        self.state = match action {
            Action::Wait => MasterState::Waiting,
            Action::Finished => {
                t.ledger().check_finished()?;
                MasterState::Done
            }
            // `ref`: the ledger reads the fragment where the policy just
            // wrote it; copying it out first is one wide reload of narrow
            // fresh stores, a store-forwarding stall on every send.
            Action::Send {
                worker,
                ref fragment,
                new_chunk,
            } => {
                t.check_send(worker, fragment, new_chunk.as_ref())?;
                t.ledger_mut().issue_send(worker, fragment, new_chunk)?;
                t.send(worker, *fragment, new_chunk)?;
                MasterState::after_issue(t.can_issue())
            }
            Action::Retrieve { worker, chunk } => {
                t.check_retrieve(worker)?;
                if t.ledger_mut().issue_retrieve(worker, chunk)? {
                    t.start_retrieval(worker, chunk)?;
                    MasterState::after_issue(t.can_issue())
                } else {
                    MasterState::BlockedRetrieve(chunk)
                }
            }
            Action::CompleteJob { job } => {
                t.complete_job(job)?;
                MasterState::Idle
            }
        };
        Ok(())
    }

    /// Port-freeing effect of a completed send/retrieve: a master parked
    /// on a full port may act again. (Under one-port, `Busy` means
    /// exactly "the transfer is in flight", as it always did.)
    pub fn on_transfer_done(&mut self) {
        if self.state == MasterState::Busy {
            self.state = MasterState::Idle;
        }
    }

    /// Post-event resolution: a crash destroying the blocked-on chunk
    /// releases the master; the chunk completing starts the retrieval as
    /// soon as the contention model has a free lane (immediately under
    /// one-port — no other transfer can be in flight while the master is
    /// blocked). A `Waiting` master is re-asked after every event.
    pub fn settle<T: MasterTransport + ?Sized>(&mut self, t: &mut T) -> Result<(), T::Error> {
        if let MasterState::BlockedRetrieve(waiting) = self.state {
            let ledger = t.ledger();
            if ledger.chunk_is_lost(waiting)? {
                self.state = MasterState::Idle;
            } else if ledger.chunk_is_computed(waiting)? && t.can_issue() {
                let worker = ledger.chunk_worker(waiting)?;
                t.start_retrieval(worker, waiting)?;
                self.state = MasterState::after_issue(t.can_issue());
            }
        }
        if self.state == MasterState::Waiting {
            self.state = MasterState::Idle;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::{Platform, WorkerSpec};

    /// Chunk 9: one step of one A and one B block, on worker 3.
    const DESCR: ChunkDescr = ChunkDescr {
        id: 9,
        c_blocks: 1,
        steps: 1,
        a_blocks_per_step: 1,
        b_blocks_per_step: 1,
        updates_per_step: 1,
        tail: None,
    };

    const SEND_A: Action = Action::Send {
        worker: 3,
        fragment: Fragment {
            kind: crate::msg::MatKind::A,
            chunk: 9,
            step: 0,
            blocks: 1,
        },
        new_chunk: None,
    };

    const RETRIEVE: Action = Action::Retrieve {
        worker: 3,
        chunk: 9,
    };

    /// A scripted transport: canned actions, a port with `lanes_free`
    /// lanes left, the `(worker, chunk)` of every transfer it was handed,
    /// and a ledger that has opened chunk 9 on worker 3.
    struct Fake {
        actions: Vec<Action>,
        lanes_free: usize,
        wire: Vec<(WorkerId, ChunkId)>,
        ledger: StarLedger,
    }

    impl Fake {
        fn new(actions: Vec<Action>) -> Fake {
            let platform = Platform::new("fake", vec![WorkerSpec::new(1.0, 1.0, 10); 4]);
            let mut ledger = StarLedger::new(&platform, None);
            let c = Fragment::c_load(&DESCR);
            ledger.issue_send(3, &c, Some(DESCR)).unwrap();
            Fake {
                actions,
                lanes_free: 1,
                wire: Vec::new(),
                ledger,
            }
        }
    }

    impl MasterTransport for Fake {
        type Error = SimError;

        fn poll_action(&mut self) -> Action {
            self.actions.remove(0)
        }

        fn can_issue(&self) -> bool {
            self.lanes_free > 0
        }

        fn ledger(&self) -> &StarLedger {
            &self.ledger
        }

        fn ledger_mut(&mut self) -> &mut StarLedger {
            &mut self.ledger
        }

        fn send(
            &mut self,
            w: WorkerId,
            f: Fragment,
            _: Option<ChunkDescr>,
        ) -> Result<(), SimError> {
            self.start_retrieval(w, f.chunk)
        }

        fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), SimError> {
            self.lanes_free -= 1;
            self.wire.push((worker, chunk));
            Ok(())
        }

        fn complete_job(&mut self, _: JobId) -> Result<(), SimError> {
            Ok(())
        }
    }

    #[test]
    fn the_action_table_maps_each_action_to_its_state() {
        let perform = |t: &mut Fake, action| {
            let mut sm = MasterSm::new();
            sm.perform(t, action).map(|()| sm.state())
        };
        let mut t = Fake::new(vec![]);
        assert_eq!(perform(&mut t, Action::Wait), Ok(MasterState::Waiting));
        let premature = SimError::PrematureFinish {
            unretrieved_chunks: 1,
        };
        assert_eq!(perform(&mut t, Action::Finished), Err(premature));
        // Still computing: the master blocks instead of retrieving.
        assert_eq!(
            perform(&mut t, RETRIEVE),
            Ok(MasterState::BlockedRetrieve(9))
        );
        // The send takes the last free lane: the master parks.
        assert_eq!(perform(&mut t, SEND_A), Ok(MasterState::Busy));
        assert_eq!(t.wire, [(3, 9)]);
        // A computed chunk is retrieved on the spot.
        let mut t = Fake::new(vec![]);
        t.ledger.chunk_computed(9);
        assert_eq!(perform(&mut t, RETRIEVE), Ok(MasterState::Busy));
        assert_eq!(t.wire, [(3, 9)]);
    }

    #[test]
    fn pump_runs_the_policy_until_the_port_parks() {
        let mut t = Fake::new(vec![SEND_A, Action::Wait]);
        t.lanes_free = 2;
        let mut sm = MasterSm::new();
        sm.pump(&mut t).unwrap();
        // The send left a lane free, so the policy was re-asked; Wait
        // parks the machine.
        assert!(t.actions.is_empty());
        assert_eq!(sm.state(), MasterState::Waiting);
        sm.settle(&mut t).unwrap();
        assert_eq!(sm.state(), MasterState::Idle);
    }

    #[test]
    fn transfer_done_only_frees_a_busy_master() {
        let mut sm = MasterSm::new();
        sm.state = MasterState::Busy;
        sm.on_transfer_done();
        assert_eq!(sm.state(), MasterState::Idle);
        sm.state = MasterState::BlockedRetrieve(4);
        sm.on_transfer_done();
        assert_eq!(sm.state(), MasterState::BlockedRetrieve(4));
    }

    #[test]
    fn blocked_retrieve_resolves_on_compute_crash_or_stays() {
        // Each case first blocks on chunk 9 through the action table.
        let blocked = || {
            let mut t = Fake::new(vec![RETRIEVE]);
            let mut sm = MasterSm::new();
            sm.pump(&mut t).unwrap();
            (t, sm)
        };

        // Chunk completes and a lane is free: the retrieval takes it.
        let (mut t, mut sm) = blocked();
        t.ledger.chunk_computed(9);
        sm.settle(&mut t).unwrap();
        assert_eq!(t.wire, [(3, 9)]);
        assert_eq!(sm.state(), MasterState::Busy);

        // Chunk lost in a crash: master released without a retrieval.
        let (mut t, mut sm) = blocked();
        t.ledger.crash(3);
        sm.settle(&mut t).unwrap();
        assert!(t.wire.is_empty());
        assert_eq!(sm.state(), MasterState::Idle);

        // Still computing, or computed with the port saturated: stays
        // blocked.
        let (mut t, mut sm) = blocked();
        sm.settle(&mut t).unwrap();
        t.ledger.chunk_computed(9);
        t.lanes_free = 0;
        sm.settle(&mut t).unwrap();
        assert!(t.wire.is_empty(), "no free lane: cannot issue yet");
        assert_eq!(sm.state(), MasterState::BlockedRetrieve(9));
    }
}
