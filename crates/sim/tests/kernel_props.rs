//! Property/fuzz suite for the generic DES kernel
//! ([`stargemm_sim::EventQueue`]).
//!
//! Arbitrary interleavings of `schedule` / `cancel` / `pop` are replayed
//! against a naive shadow model (a sorted list of live events), pinning
//! the kernel's contracts:
//!
//! * deliveries never violate `(time, sequence)` order, and match the
//!   shadow's expected next event exactly (time, component, payload);
//! * generation-safe cancellation — a dead [`EventId`] (delivered or
//!   already cancelled) can never cancel again, even after its slot was
//!   reused by later schedules;
//! * the `pending + delivered + cancelled` bookkeeping stays exact at
//!   every step and adds up to the number of schedules at the end;
//! * a timer kept *outside* the heap — stamped with `take_seq`, merged
//!   against `peek_key`, reported through `deliver_external` — is
//!   indistinguishable from the same timer scheduled on the heap: same
//!   delivery order, clock, count and event-cap trip point.

use proptest::prelude::*;
use stargemm_sim::{EventId, EventQueue, KernelError};

/// One scripted operation. `schedule` times come from a small grid so
/// same-time ties (the interesting ordering case) are frequent.
#[derive(Clone, Copy, Debug)]
enum Op {
    Schedule {
        time_q: u8,
        component: u8,
    },
    /// Cancel the `pick`-th id ever issued (mod the number issued) —
    /// dead handles are picked on purpose.
    Cancel {
        pick: u8,
    },
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0u8..16, 0u8..8), 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b)| match kind {
                // Schedule twice as often as the others, so queues grow.
                0 | 1 => Op::Schedule {
                    time_q: a,
                    component: b,
                },
                2 => Op::Cancel { pick: a },
                _ => Op::Pop,
            })
            .collect()
    })
}

/// The shadow model: every live (scheduled, undelivered, uncancelled)
/// event as `(time, seq, component, payload)`.
#[derive(Default)]
struct Shadow {
    live: Vec<(f64, u64, usize, u64)>,
}

impl Shadow {
    fn next(&self) -> Option<(f64, u64, usize, u64)> {
        self.live
            .iter()
            .copied()
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    fn remove_seq(&mut self, seq: u64) -> bool {
        let before = self.live.len();
        self.live.retain(|&(_, s, _, _)| s != seq);
        before != self.live.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleavings_match_the_shadow_model(ops in arb_ops()) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut shadow = Shadow::default();
        // Every id ever issued, with the seq of its schedule call and
        // whether the shadow still considers it live.
        let mut issued: Vec<(EventId, u64)> = Vec::new();
        let mut scheduled = 0u64;
        let mut last_delivery: Option<f64> = None;
        let mut seq = 0u64;

        for op in ops {
            match op {
                Op::Schedule { time_q, component } => {
                    let time = f64::from(time_q) * 0.5;
                    let payload = seq; // unique payload per schedule
                    let id = q.schedule(time, component as usize, payload);
                    prop_assert!(q.is_pending(id));
                    shadow.live.push((time, seq, component as usize, payload));
                    issued.push((id, seq));
                    scheduled += 1;
                    seq += 1;
                }
                Op::Cancel { pick } => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, id_seq) = issued[pick as usize % issued.len()];
                    let was_live = shadow.live.iter().any(|&(_, s, _, _)| s == id_seq);
                    let got = q.cancel(id);
                    // Generation safety: the handle cancels exactly when
                    // the shadow still holds it — a dead handle never
                    // resurrects, even after slot reuse.
                    prop_assert_eq!(got.is_some(), was_live, "cancel of seq {}", id_seq);
                    if got.is_some() {
                        prop_assert!(shadow.remove_seq(id_seq));
                        prop_assert!(!q.is_pending(id));
                        prop_assert_eq!(q.cancel(id), None, "double cancel");
                    }
                }
                Op::Pop => {
                    let expect = shadow.next();
                    let got = q.pop().unwrap();
                    match (expect, got) {
                        (None, None) => {}
                        (Some((time, s, component, payload)), Some(ev)) => {
                            // Exact agreement with the shadow's minimum
                            // (time, seq) — the ordering contract.
                            prop_assert_eq!(ev.payload, payload);
                            prop_assert_eq!(ev.component, component);
                            // Past-scheduled events deliver "now": the
                            // delivery clock is monotone and never below
                            // the scheduled time.
                            prop_assert!(ev.time >= time - 1e-12);
                            if let Some(lt) = last_delivery {
                                prop_assert!(
                                    ev.time >= lt,
                                    "clock rewound: {} after {}", ev.time, lt
                                );
                            }
                            last_delivery = Some(ev.time);
                            prop_assert!(shadow.remove_seq(s));
                        }
                        (e, g) => {
                            return Err(TestCaseError::fail(format!(
                                "shadow expected {e:?}, kernel returned {g:?}"
                            )));
                        }
                    }
                }
            }
            // Bookkeeping is exact at every step.
            prop_assert_eq!(q.pending(), shadow.live.len());
            prop_assert_eq!(
                q.pending() as u64 + q.delivered() + q.cancelled(),
                scheduled
            );
        }

        // Drain: the remaining events come out in exact shadow order.
        while let Some((time, s, component, payload)) = shadow.next() {
            let ev = q.pop().unwrap().expect("shadow says more events remain");
            prop_assert_eq!(ev.payload, payload);
            prop_assert_eq!(ev.component, component);
            prop_assert!(ev.time >= time - 1e-12);
            prop_assert!(shadow.remove_seq(s));
        }
        prop_assert!(q.pop().unwrap().is_none());
        prop_assert_eq!(q.pending(), 0);
        prop_assert_eq!(q.delivered() + q.cancelled(), scheduled);
    }

    /// Cancelling everything leaves a queue that delivers nothing and
    /// counts everything as cancelled.
    #[test]
    fn cancel_all_is_exact(n in 1usize..60, times in prop::collection::vec(0u8..10, 60..61)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let ids: Vec<EventId> = (0..n)
            .map(|i| q.schedule(f64::from(times[i]), i, i))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(q.cancel(*id), Some(i));
        }
        prop_assert_eq!(q.pending(), 0);
        prop_assert_eq!(q.cancelled(), n as u64);
        prop_assert!(q.pop().unwrap().is_none());
        // All dead handles stay dead after the slab was fully recycled.
        let _fresh: Vec<EventId> = (0..n).map(|i| q.schedule(1.0, i, i)).collect();
        for id in &ids {
            prop_assert_eq!(q.cancel(*id), None);
        }
    }

    /// Timers kept outside the heap deliver exactly as if scheduled:
    /// each script runs once with every timer on the heap and once with
    /// the "external" ones in a side list, stamped by `take_seq` and
    /// delivered through `deliver_external` when their `(time, stamp)`
    /// is below `peek_key`.
    #[test]
    fn external_timers_are_indistinguishable_from_scheduled_ones(
        ops in prop::collection::vec((0u8..3, 0u8..6), 1..80),
        cap in 1u64..60,
    ) {
        // (delivery time, payload) per pop, then how the run ended.
        type Log = (Vec<(f64, u64)>, Option<KernelError>);
        let run = |external: bool| -> (Log, f64, u64) {
            let mut q: EventQueue<u64> = EventQueue::new().with_max_events(cap);
            let mut side: Vec<(f64, u64, u64)> = Vec::new(); // (time, stamp, payload)
            let mut log = Vec::new();
            let mut payload = 0u64;
            for &(kind, time_q) in &ops {
                // Times are relative to nothing: some land in the past
                // and must clamp to now.
                let time = f64::from(time_q) * 0.5;
                match kind {
                    0 => {
                        q.schedule(time, 0, payload);
                        payload += 1;
                    }
                    1 => {
                        if external {
                            side.push((time, q.take_seq(), payload));
                        } else {
                            q.schedule(time, 1, payload);
                        }
                        payload += 1;
                    }
                    _ => {
                        let ext = side
                            .iter()
                            .copied()
                            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        let ext_first = ext.is_some_and(|(time, stamp, _)| {
                            q.peek_key().is_none_or(|(t, seq)| {
                                time.total_cmp(&t).then(stamp.cmp(&seq)).is_lt()
                            })
                        });
                        let got = if ext_first {
                            let (time, stamp, payload) = ext.expect("ext_first");
                            side.retain(|&(_, s, _)| s != stamp);
                            q.deliver_external(time).map(|at| Some((at, payload)))
                        } else {
                            q.pop().map(|ev| ev.map(|ev| (ev.time, ev.payload)))
                        };
                        match got {
                            Ok(Some(delivery)) => log.push(delivery),
                            Ok(None) => {}
                            Err(e) => return ((log, Some(e)), q.now(), q.delivered()),
                        }
                    }
                }
            }
            ((log, None), q.now(), q.delivered())
        };
        prop_assert_eq!(run(true), run(false));
    }
}
