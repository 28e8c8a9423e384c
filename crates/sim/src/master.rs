//! The master-side control state machine, shared by every engine.
//!
//! The paper's master is a tiny protocol automaton: ask the policy while
//! the port is free, park while a transfer is in flight, block on a
//! retrieval of a chunk still being computed, and re-ask after every
//! event. That automaton used to live twice — inlined in `sim::engine`'s
//! event loop and re-implemented ad hoc in the `net` runtime —
//! which is exactly the class of sim-vs-net drift the cross-validation
//! suite exists to catch. It now lives once, here: [`MasterSm`] owns the
//! [`MasterState`] transitions, and each engine plugs in a
//! [`MasterTransport`] describing *its* clock and transport (virtual
//! time and the kernel event queue for `sim`; a wall-paced loop over
//! in-process worker machines for `net`).
//!
//! Everything else the master knows is shared the same way: the chunk
//! and worker-memory books are one [`StarLedger`] (`crate::ledger` —
//! every send/retrieve/finish rule, the crash sweep, the `SimCtx` view,
//! the stats fold) and the transfers in flight are one
//! [`LaneTable`](crate::lanes::LaneTable) (`crate::lanes` — admission,
//! re-share, projected completions, port accounting). Each engine holds
//! one of each and no table of its own, so the rules cannot drift.
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
use crate::msg::ChunkId;
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
    pub fn after_issue(can_issue: bool) -> MasterState {
        if can_issue {
            MasterState::Idle
        } else {
            MasterState::Busy
        }
    }
}

/// What an engine must provide for [`MasterSm`] to drive it: action
/// polling/execution, its ledger, and whether its wire has room. `sim`
/// implements this over `StarModel` + virtual time; the `net` reactor
/// over its wall-paced loop and in-process worker machines.
pub trait MasterTransport {
    /// Engine-specific failure type (`SimError`, `NetError`, …).
    type Error: From<SimError>;

    /// Ask the policy for its next action (engine builds the context).
    fn poll_action(&mut self) -> Action;

    /// Execute one action, returning the master state it leaves behind.
    fn perform(&mut self, action: Action) -> Result<MasterState, Self::Error>;

    /// Whether the contention model has a free lane for one more
    /// transfer.
    fn can_issue(&self) -> bool;

    /// The engine's books: which chunks are lost, computed, and where.
    fn ledger(&self) -> &StarLedger;

    /// Begin pulling a computed `chunk` back over the wire.
    fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), Self::Error>;
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
    /// executing each through the transport.
    pub fn pump<T: MasterTransport + ?Sized>(&mut self, t: &mut T) -> Result<(), T::Error> {
        while self.state == MasterState::Idle {
            let action = t.poll_action();
            self.state = t.perform(action)?;
        }
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
    use crate::msg::{ChunkDescr, Fragment};
    use stargemm_platform::{Platform, WorkerSpec};

    /// A scripted transport: canned actions, a settable port, and a
    /// ledger holding chunk 9 on worker 3.
    struct Fake {
        actions: Vec<Action>,
        performed: Vec<Action>,
        can_issue: bool,
        ledger: StarLedger,
        retrievals: Vec<(WorkerId, ChunkId)>,
        next_state: MasterState,
    }

    impl Fake {
        fn new(actions: Vec<Action>) -> Fake {
            let platform = Platform::new("fake", vec![WorkerSpec::new(1.0, 1.0, 10); 4]);
            let mut ledger = StarLedger::new(&platform, None);
            let descr = ChunkDescr {
                id: 9,
                c_blocks: 1,
                steps: 1,
                a_blocks_per_step: 1,
                b_blocks_per_step: 1,
                updates_per_step: 1,
                tail: None,
            };
            ledger
                .issue_send(3, &Fragment::c_load(&descr), Some(descr))
                .unwrap();
            Fake {
                actions,
                performed: Vec::new(),
                can_issue: true,
                ledger,
                retrievals: Vec::new(),
                next_state: MasterState::Busy,
            }
        }
    }

    impl MasterTransport for Fake {
        type Error = SimError;

        fn poll_action(&mut self) -> Action {
            self.actions.remove(0)
        }

        fn perform(&mut self, action: Action) -> Result<MasterState, SimError> {
            let state = match action {
                Action::Wait => MasterState::Waiting,
                Action::Finished => MasterState::Done,
                _ => self.next_state,
            };
            self.performed.push(action);
            Ok(state)
        }

        fn can_issue(&self) -> bool {
            self.can_issue
        }

        fn ledger(&self) -> &StarLedger {
            &self.ledger
        }

        fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), SimError> {
            self.retrievals.push((worker, chunk));
            Ok(())
        }
    }

    #[test]
    fn pump_runs_the_policy_until_the_port_parks() {
        let mut t = Fake::new(vec![
            Action::Retrieve {
                worker: 0,
                chunk: 7,
            },
            Action::Wait,
        ]);
        t.next_state = MasterState::Idle;
        let mut sm = MasterSm::new();
        sm.pump(&mut t).unwrap();
        // First action left the port Idle, so the policy was re-asked;
        // Wait parks the machine.
        assert_eq!(t.performed.len(), 2);
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
        // Chunk completes and a lane is free: retrieval starts.
        let mut t = Fake::new(vec![]);
        t.ledger.chunk_computed(9);
        let mut sm = MasterSm::new();
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert_eq!(t.retrievals, vec![(3, 9)]);
        assert_eq!(sm.state(), MasterState::Idle);

        // Chunk lost in a crash: master released without a retrieval.
        let mut t = Fake::new(vec![]);
        t.ledger.crash(3);
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert!(t.retrievals.is_empty());
        assert_eq!(sm.state(), MasterState::Idle);

        // Still computing: stays blocked.
        let mut t = Fake::new(vec![]);
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert_eq!(sm.state(), MasterState::BlockedRetrieve(9));

        // Computed but the port is saturated and stays saturated after
        // the retrieval was issued: master parks Busy.
        let mut t = Fake::new(vec![]);
        t.ledger.chunk_computed(9);
        t.can_issue = false;
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert!(t.retrievals.is_empty(), "no free lane: cannot issue yet");
        assert_eq!(sm.state(), MasterState::BlockedRetrieve(9));
    }
}
