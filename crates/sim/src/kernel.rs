//! A generic, model-agnostic discrete-event kernel.
//!
//! The kernel knows nothing about matrices, workers, or ports: it owns a
//! time-ordered queue of opaque payloads, each addressed to a
//! [`ComponentId`], and guarantees
//!
//! * **deterministic ordering** — events are delivered by `(time,
//!   schedule sequence)`: ties in time are broken by the order in which
//!   the events were scheduled, so a run is a pure function of the
//!   schedule calls, never of hash or allocation order;
//! * **O(1) cancellation** — [`EventQueue::schedule`] returns an
//!   [`EventId`] that can later be [cancelled](EventQueue::cancel);
//!   cancellation invalidates the slab slot and the stale heap entry is
//!   skipped lazily on pop (generation counters make slot reuse safe).
//!   It is for events that must *never* deliver — the star model cancels
//!   the pending compute steps of a crashed worker — not for events
//!   that merely move: a lazily cancelled entry stays in the heap until
//!   popped, so re-timing by cancel-and-re-push grows the heap by one
//!   stale entry per move;
//! * **bounded progress** — an optional event cap aborts runaway models
//!   ([`KernelError::EventCapExceeded`]).
//!
//! A model that keeps some of its timers *outside* the heap — the star
//! model's transfers live in the lane table, which re-projects their
//! ends on every re-share — still gets one total order and one clock:
//! it draws the timer's tie-break from the same counter `schedule` uses
//! ([`EventQueue::take_seq`]), compares its own earliest `(time, seq)`
//! with the heap's ([`EventQueue::peek_key`]), and reports the ones it
//! delivers itself through [`EventQueue::deliver_external`], which
//! counts and clamps exactly as [`EventQueue::pop`] does.
//!
//! The hot path is allocation-light: the binary heap holds small `Copy`
//! entries (time, sequence, slot, generation) while payloads live in an
//! index slab with an intrusive free list, so scheduling and delivering
//! an event never allocates once the slab has warmed up. Throughput is
//! tracked by `exp_perf`'s `hold` / `cancel_half` / `drain` rows in
//! events/sec.
//!
//! [`engine::Simulator`](crate::engine::Simulator) drives the star-GEMM
//! model of [`crate::model`] on top of this kernel; future models
//! (multi-master platforms, contention models) reuse it unchanged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies the model component an event is addressed to. Purely a
/// routing label — the kernel never interprets it.
pub type ComponentId = usize;

/// Handle of a scheduled (and not yet delivered) event.
///
/// Stable across unrelated schedule/cancel traffic: a handle names one
/// scheduling call for ever — once the event was delivered or cancelled,
/// the handle is dead and [`EventQueue::cancel`] on it returns `None`
/// (slot reuse is disambiguated by a generation counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A delivered event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event<T> {
    /// Delivery time (the kernel clock has advanced to this instant).
    pub time: f64,
    /// Component the event is addressed to.
    pub component: ComponentId,
    /// The scheduled payload.
    pub payload: T,
}

/// Kernel-level failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// More events were delivered than the configured cap allows.
    EventCapExceeded {
        /// The configured cap.
        cap: u64,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::EventCapExceeded { cap } => {
                write!(f, "event cap exceeded ({cap} events delivered)")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Heap entry: everything needed to order and validate an event without
/// touching the payload slab.
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    time: f64,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order: `seq` is unique per queue, `total_cmp` handles the
        // full f64 range. Ties in time resolve in schedule order.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// One payload slot of the slab.
#[derive(Clone, Debug)]
enum Slot<T> {
    /// Free; part of the intrusive free list (`NO_SLOT` terminates it).
    Vacant { gen: u32, next_free: u32 },
    /// Holds a scheduled, undelivered event.
    Pending {
        gen: u32,
        component: ComponentId,
        payload: T,
    },
}

const NO_SLOT: u32 = u32::MAX;

/// The discrete-event kernel: a monotone clock plus a cancellable,
/// deterministically ordered event queue.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    slots: Vec<Slot<T>>,
    free_head: u32,
    now: f64,
    seq: u64,
    pending: usize,
    delivered: u64,
    cancelled: u64,
    heap_high_water: usize,
    max_events: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at `t = 0` with no event cap.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NO_SLOT,
            now: 0.0,
            seq: 0,
            pending: 0,
            delivered: 0,
            cancelled: 0,
            heap_high_water: 0,
            max_events: u64::MAX,
        }
    }

    /// Builder: caps the number of deliverable events; [`Self::pop`]
    /// fails once the cap is crossed.
    pub fn with_max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Current kernel time: the delivery instant of the latest event
    /// (monotone, never rewinds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of scheduled, undelivered, uncancelled events.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events cancelled before delivery.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Peak heap size observed (pending events plus stale entries left
    /// by O(1) cancellation) — the kernel's memory high-water mark.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }

    /// Schedules `payload` for `component` at absolute time `time` and
    /// returns a handle usable with [`Self::cancel`].
    ///
    /// Scheduling in the past is allowed (the event delivers "now": the
    /// clock never rewinds); the time must not be NaN.
    pub fn schedule(&mut self, time: f64, component: ComponentId, payload: T) -> EventId {
        assert!(!time.is_nan(), "cannot schedule an event at NaN");
        let slot = match self.free_head {
            NO_SLOT => {
                let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
                self.slots.push(Slot::Pending {
                    gen: 0,
                    component,
                    payload,
                });
                idx
            }
            idx => {
                let Slot::Vacant { gen, next_free } = self.slots[idx as usize] else {
                    unreachable!("free list points at a pending slot");
                };
                self.free_head = next_free;
                self.slots[idx as usize] = Slot::Pending {
                    gen,
                    component,
                    payload,
                };
                idx
            }
        };
        let gen = match &self.slots[slot as usize] {
            Slot::Pending { gen, .. } => *gen,
            Slot::Vacant { .. } => unreachable!("just filled"),
        };
        self.heap.push(Reverse(HeapEntry {
            time,
            seq: self.seq,
            slot,
            gen,
        }));
        self.seq += 1;
        self.pending += 1;
        self.heap_high_water = self.heap_high_water.max(self.heap.len());
        EventId { slot, gen }
    }

    /// Cancels a pending event, returning its payload; `None` when the
    /// handle is dead (already delivered or cancelled). O(1): the stale
    /// heap entry is discarded lazily by later pops.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        match self.slots.get(id.slot as usize) {
            Some(Slot::Pending { gen, .. }) if *gen == id.gen => {}
            _ => return None,
        }
        let vacated = Slot::Vacant {
            gen: id.gen.wrapping_add(1),
            next_free: self.free_head,
        };
        let Slot::Pending { payload, .. } =
            std::mem::replace(&mut self.slots[id.slot as usize], vacated)
        else {
            unreachable!("checked pending above");
        };
        self.free_head = id.slot;
        self.pending -= 1;
        self.cancelled += 1;
        Some(payload)
    }

    /// Whether `id` still names a pending event.
    pub fn is_pending(&self, id: EventId) -> bool {
        matches!(
            self.slots.get(id.slot as usize),
            Some(Slot::Pending { gen, .. }) if *gen == id.gen
        )
    }

    /// Delivery time of the next pending event, without delivering it
    /// (stale heap entries left by cancellations are discarded).
    pub fn peek_time(&mut self) -> Option<f64> {
        self.peek_key().map(|(time, _)| time)
    }

    /// The `(time, sequence)` key [`Self::pop`] would deliver next —
    /// what an externally kept timer compares its own key against
    /// (`f64::total_cmp` on the time, then the sequence). Stale heap
    /// entries left by cancellations are discarded.
    pub fn peek_key(&mut self) -> Option<(f64, u64)> {
        while let Some(&Reverse(entry)) = self.heap.peek() {
            if self.entry_is_live(entry) {
                return Some((entry.time, entry.seq));
            }
            self.heap.pop();
        }
        None
    }

    /// Draws the next schedule sequence number without scheduling
    /// anything: the tie-break of a timer the model keeps outside the
    /// heap. It is the number [`Self::schedule`] would have stamped on
    /// an event pushed at this point, so such a timer orders against
    /// heap events exactly as if it had been pushed.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Accounts for an event the model delivers from a timer of its own
    /// at `time`: counts it against the event cap and advances the clock
    /// exactly as [`Self::pop`] does. Returns the delivery instant
    /// (`time` clamped to now: the clock never rewinds).
    pub fn deliver_external(&mut self, time: f64) -> Result<f64, KernelError> {
        self.delivered += 1;
        if self.delivered > self.max_events {
            return Err(KernelError::EventCapExceeded {
                cap: self.max_events,
            });
        }
        self.now = time.max(self.now);
        Ok(self.now)
    }

    fn entry_is_live(&self, entry: HeapEntry) -> bool {
        matches!(
            self.slots.get(entry.slot as usize),
            Some(Slot::Pending { gen, .. }) if *gen == entry.gen
        )
    }

    /// Delivers the next event in `(time, schedule order)` and advances
    /// the clock. `Ok(None)` when the queue is empty; an error once the
    /// event cap is crossed.
    pub fn pop(&mut self) -> Result<Option<Event<T>>, KernelError> {
        loop {
            let Some(Reverse(entry)) = self.heap.pop() else {
                return Ok(None);
            };
            if !self.entry_is_live(entry) {
                continue; // cancelled: slot vacated or reused under a new generation
            }
            let vacated = Slot::Vacant {
                gen: entry.gen.wrapping_add(1),
                next_free: self.free_head,
            };
            let Slot::Pending {
                component, payload, ..
            } = std::mem::replace(&mut self.slots[entry.slot as usize], vacated)
            else {
                unreachable!("entry_is_live checked pending");
            };
            self.free_head = entry.slot;
            self.pending -= 1;
            // Past-scheduled events deliver "now": the clock never rewinds.
            let time = self.deliver_external(entry.time)?;
            return Ok(Some(Event {
                time,
                component,
                payload,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_deliver_in_time_order_with_stable_ties() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 0, "late");
        q.schedule(1.0, 0, "tie-first");
        q.schedule(1.0, 1, "tie-second");
        q.schedule(0.5, 2, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().unwrap().map(|e| e.payload)).collect();
        assert_eq!(order, ["early", "tie-first", "tie-second", "late"]);
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.delivered(), 4);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn component_routing_is_preserved() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 7, ());
        let ev = q.pop().unwrap().unwrap();
        assert_eq!(ev.component, 7);
        assert_eq!(ev.time, 1.0);
    }

    #[test]
    fn cancellation_removes_the_event_and_returns_the_payload() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, 'a');
        let b = q.schedule(2.0, 0, 'b');
        assert!(q.is_pending(b));
        assert_eq!(q.cancel(b), Some('b'));
        assert!(!q.is_pending(b));
        assert_eq!(q.cancel(b), None, "double cancel is inert");
        assert_eq!(q.pop().unwrap().map(|e| e.payload), Some('a'));
        assert_eq!(q.pop().unwrap().map(|e| e.payload), None);
        assert_eq!(q.cancelled(), 1);
        let _ = a;
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handles() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, 1u32);
        assert_eq!(q.cancel(a), Some(1));
        // The slot is reused under a bumped generation...
        let b = q.schedule(2.0, 0, 2u32);
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.gen, a.gen);
        // ...so the dead handle cannot cancel the new event.
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop().unwrap().map(|e| e.payload), Some(2));
    }

    #[test]
    fn stale_heap_entries_are_skipped_after_reuse() {
        // Cancel, reuse the slot for an EARLIER event, and make sure the
        // stale entry (still in the heap at t = 5) does not deliver the
        // new payload twice nor out of order.
        let mut q = EventQueue::new();
        let a = q.schedule(5.0, 0, "old");
        q.cancel(a);
        q.schedule(1.0, 0, "new");
        assert_eq!(q.pop().unwrap().map(|e| e.payload), Some("new"));
        assert_eq!(q.pop().unwrap().map(|e| e.payload), None);
    }

    #[test]
    fn peek_time_skips_cancelled_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, 0, ());
        q.schedule(3.0, 0, ());
        assert_eq!(q.peek_time(), Some(1.0));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(3.0));
    }

    #[test]
    fn clock_is_monotone_even_for_past_schedules() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 0, "first");
        q.pop().unwrap();
        assert_eq!(q.now(), 5.0);
        q.schedule(1.0, 0, "late-scheduled");
        let ev = q.pop().unwrap().unwrap();
        assert_eq!(ev.time, 5.0, "delivery clamps to now");
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn event_cap_trips_exactly_once_crossed() {
        let mut q = EventQueue::new().with_max_events(2);
        for t in 0..4 {
            q.schedule(t as f64, 0, t);
        }
        assert!(q.pop().is_ok());
        assert!(q.pop().is_ok());
        let err = q.pop().unwrap_err();
        assert_eq!(err, KernelError::EventCapExceeded { cap: 2 });
        assert!(err.to_string().contains("event cap"));
    }

    #[test]
    fn cancelled_events_do_not_count_against_the_cap() {
        let mut q = EventQueue::new().with_max_events(2);
        let a = q.schedule(0.0, 0, ());
        q.schedule(1.0, 0, ());
        q.schedule(2.0, 0, ());
        q.cancel(a);
        assert!(q.pop().unwrap().is_some());
        assert!(q.pop().unwrap().is_some());
        assert!(q.pop().unwrap().is_none());
    }

    #[test]
    fn an_external_timer_orders_counts_and_clamps_like_a_scheduled_event() {
        let mut q = EventQueue::new().with_max_events(3);
        q.schedule(2.0, 0, "before");
        let stamp = q.take_seq(); // the timer's tie-break, drawn here
        q.schedule(2.0, 0, "after");
        // At the same instant the timer sits between the two events.
        assert_eq!(q.peek_key(), Some((2.0, stamp - 1)));
        assert_eq!(q.pop().unwrap().map(|e| e.payload), Some("before"));
        assert_eq!(q.peek_key(), Some((2.0, stamp + 1)));
        // Delivered by the model itself: counted, and the clock moves.
        assert_eq!(q.deliver_external(2.0), Ok(2.0));
        assert_eq!(q.deliver_external(1.0), Ok(2.0), "delivery clamps to now");
        assert_eq!((q.delivered(), q.now()), (3, 2.0));
        // The cap trips on the fourth delivery, whoever makes it.
        let err = KernelError::EventCapExceeded { cap: 3 };
        assert_eq!(q.deliver_external(5.0), Err(err));
        assert_eq!(q.now(), 2.0, "a refused delivery leaves the clock alone");
    }

    #[test]
    fn queue_is_clone_for_replay() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 0, 1);
        q.schedule(2.0, 0, 2);
        let mut replay = q.clone();
        assert_eq!(q.pop().unwrap().map(|e| e.payload), Some(1));
        assert_eq!(replay.pop().unwrap().map(|e| e.payload), Some(1));
        assert_eq!(replay.pop().unwrap().map(|e| e.payload), Some(2));
    }

    #[test]
    fn free_list_keeps_the_slab_compact() {
        let mut q = EventQueue::new();
        for round in 0..100 {
            let id = q.schedule(round as f64, 0, round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop().unwrap();
            }
        }
        // Every slot is recycled: the slab never grows past the maximum
        // number of simultaneously pending events (1 here).
        assert_eq!(q.slots.len(), 1);
    }
}
