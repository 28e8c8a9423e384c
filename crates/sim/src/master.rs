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
//! [`MasterTransport`] describing *its* clock and wire (virtual time and
//! the kernel event queue for `sim`; the wall-clock reactor lane table
//! for `net`). The engines differ only in their transport; the protocol
//! logic cannot drift.
//!
//! Driving pattern (one iteration of an engine's event loop):
//!
//! ```text
//! sm.pump(t)?                // policy acts while the master is Idle
//! … engine delivers one event (transfer end, compute, lifecycle) …
//! sm.on_transfer_done()      // only for send/retrieve completions
//! sm.settle(t)?              // blocked-retrieve + Waiting resolution
//! ```

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

/// What an engine must provide for [`MasterSm`] to drive it: action
/// polling/execution plus the few chunk/port predicates the
/// blocked-retrieve resolution needs. `sim` implements this over
/// `StarModel` + virtual time; the `net` reactor over its wall-clock
/// lane table and in-process worker machines.
pub trait MasterTransport {
    /// Engine-specific failure type (`SimError`, `NetError`, …).
    type Error;

    /// Ask the policy for its next action (engine builds the context).
    fn poll_action(&mut self) -> Action;

    /// Execute one action, returning the master state it leaves behind.
    fn perform(&mut self, action: Action) -> Result<MasterState, Self::Error>;

    /// Whether the contention model has a free lane for one more
    /// transfer.
    fn can_issue(&self) -> bool;

    /// Whether `chunk` was destroyed by a worker crash.
    fn chunk_is_lost(&self, chunk: ChunkId) -> Result<bool, Self::Error>;

    /// Whether all of `chunk`'s steps have completed.
    fn chunk_is_computed(&self, chunk: ChunkId) -> Result<bool, Self::Error>;

    /// The worker `chunk` is assigned to.
    fn chunk_worker(&self, chunk: ChunkId) -> Result<WorkerId, Self::Error>;

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
            if t.chunk_is_lost(waiting)? {
                self.state = MasterState::Idle;
            } else if t.chunk_is_computed(waiting)? && t.can_issue() {
                let worker = t.chunk_worker(waiting)?;
                t.start_retrieval(worker, waiting)?;
                self.state = if t.can_issue() {
                    MasterState::Idle
                } else {
                    MasterState::Busy
                };
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

    /// A scripted transport: canned actions, settable predicates.
    struct Fake {
        actions: Vec<Action>,
        performed: Vec<Action>,
        can_issue: bool,
        lost: bool,
        computed: bool,
        retrievals: Vec<(WorkerId, ChunkId)>,
        next_state: MasterState,
    }

    impl Fake {
        fn new(actions: Vec<Action>) -> Fake {
            Fake {
                actions,
                performed: Vec::new(),
                can_issue: true,
                lost: false,
                computed: false,
                retrievals: Vec::new(),
                next_state: MasterState::Busy,
            }
        }
    }

    impl MasterTransport for Fake {
        type Error = String;

        fn poll_action(&mut self) -> Action {
            self.actions.remove(0)
        }

        fn perform(&mut self, action: Action) -> Result<MasterState, String> {
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

        fn chunk_is_lost(&self, _chunk: ChunkId) -> Result<bool, String> {
            Ok(self.lost)
        }

        fn chunk_is_computed(&self, _chunk: ChunkId) -> Result<bool, String> {
            Ok(self.computed)
        }

        fn chunk_worker(&self, _chunk: ChunkId) -> Result<WorkerId, String> {
            Ok(3)
        }

        fn start_retrieval(&mut self, worker: WorkerId, chunk: ChunkId) -> Result<(), String> {
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
        t.computed = true;
        let mut sm = MasterSm::new();
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert_eq!(t.retrievals, vec![(3, 9)]);
        assert_eq!(sm.state(), MasterState::Idle);

        // Chunk lost in a crash: master released without a retrieval.
        let mut t = Fake::new(vec![]);
        t.lost = true;
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
        t.computed = true;
        t.can_issue = false;
        sm.state = MasterState::BlockedRetrieve(9);
        sm.settle(&mut t).unwrap();
        assert!(t.retrievals.is_empty(), "no free lane: cannot issue yet");
        assert_eq!(sm.state(), MasterState::BlockedRetrieve(9));
    }
}
