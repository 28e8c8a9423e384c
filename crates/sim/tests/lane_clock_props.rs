//! The lane table as the transfer clock, checked against the clock it
//! replaced.
//!
//! Until the table kept its own head, the simulator armed one kernel
//! event per lane and, after every re-share, cancelled and re-pushed the
//! event of each lane whose share moved (in start order). That arming is
//! kept here as the oracle: random scripts of admissions, "step" events
//! and deliveries are run once through it — a plain [`EventQueue`] with
//! cancel + re-push per moved lane — and once through the path the
//! engines use now — completions read off
//! [`LaneTable::next_completion`], stamped by
//! [`EventQueue::take_seq`], merged against [`EventQueue::peek_key`] and
//! reported through [`EventQueue::deliver_external`]. Both must deliver
//! the same `(time, kind, id)` sequence, count the same deliveries and
//! trip the event cap at the same event, under every contention model.
//! Costs and delays are small integers so exact ties — between lanes,
//! and between a lane and a step — are common.

use proptest::prelude::*;
use stargemm_obs::Dir;
use stargemm_sim::{EventId, EventQueue, KernelError, LaneTable, NetModelSpec, ObsSink};

/// Per-worker block costs `c_i`.
const COSTS: [f64; 3] = [1.0, 1.0, 2.0];

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Admit `blocks` blocks on `worker`'s link (skipped when the model
    /// is at capacity).
    Admit {
        worker: usize,
        blocks: u64,
    },
    /// Schedule a step event `delay` ahead of now.
    Step {
        delay: u8,
    },
    Deliver,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..4, 0usize..COSTS.len(), 1u64..5), 1..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, worker, n)| match kind {
                0 | 1 => Op::Admit { worker, blocks: n },
                2 => Op::Step { delay: n as u8 - 1 },
                _ => Op::Deliver,
            })
            .collect()
    })
}

fn arb_model() -> impl Strategy<Value = NetModelSpec> {
    (0u8..6, 2usize..6, 1u8..5).prop_map(|(kind, k, tenths)| {
        // Binding backbones (well under one link to about two) move
        // every lane at every membership change; without one only the
        // lanes of the link that gained or lost a transfer move, which
        // is where a re-projected lane can land on an un-moved lane's
        // end — the tie the stamp decides.
        let backbone = f64::from(tenths) * 0.45;
        match kind {
            0 => NetModelSpec::OnePort,
            1 | 2 => NetModelSpec::BoundedMultiPort { k, backbone: None },
            3 => NetModelSpec::BoundedMultiPort {
                k,
                backbone: Some(backbone),
            },
            4 => NetModelSpec::FairShare { backbone: 100.0 },
            _ => NetModelSpec::FairShare { backbone },
        }
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Transfer,
    Step,
}

/// `(delivery time, kind, lane id or step number)`.
type Delivered = (f64, Kind, u64);
/// What a run delivered, how it ended, and the kernel's delivery count.
type Outcome = (Vec<Delivered>, Option<KernelError>, u64);

fn table(model: NetModelSpec) -> LaneTable<()> {
    LaneTable::new(model, COSTS.to_vec(), None, ObsSink::off())
}

/// The replaced clock: one kernel event per lane, cancelled and
/// re-pushed whenever a re-share moves the lane.
fn run_rearming(model: NetModelSpec, ops: &[Op], cap: u64) -> Outcome {
    let mut q: EventQueue<(Kind, u64)> = EventQueue::new().with_max_events(cap);
    let mut lanes = table(model);
    // The table's stamps only tell this clock which lanes moved.
    let mut stamp = 0u64;
    let mut next_stamp = move || {
        stamp += 1;
        stamp - 1
    };
    // Per lane in flight: `(lane id, stamp armed at, its kernel event)`.
    let mut armed: Vec<(u64, u64, EventId)> = Vec::new();
    let mut rearm = |lanes: &LaneTable<()>, q: &mut EventQueue<(Kind, u64)>| {
        armed.retain(|&(id, _, _)| lanes.in_flight().iter().any(|l| l.id == id));
        for l in lanes.in_flight() {
            match armed.iter_mut().find(|(id, _, _)| *id == l.id) {
                Some((_, at, _)) if *at == l.stamp => {}
                Some((_, at, ev)) => {
                    q.cancel(*ev);
                    *ev = q.schedule(l.end, 0, (Kind::Transfer, l.id));
                    *at = l.stamp;
                }
                None => {
                    let ev = q.schedule(l.end, 0, (Kind::Transfer, l.id));
                    armed.push((l.id, l.stamp, ev));
                }
            }
        }
    };
    let mut log = Vec::new();
    let mut steps = 0u64;
    for &op in ops {
        match op {
            Op::Admit { worker, blocks } => {
                if lanes.can_admit() {
                    lanes.admit(
                        q.now(),
                        worker,
                        Dir::ToWorker,
                        0,
                        blocks,
                        (),
                        &mut next_stamp,
                    );
                    rearm(&lanes, &mut q);
                }
            }
            Op::Step { delay } => {
                q.schedule(q.now() + f64::from(delay), 1, (Kind::Step, steps));
                steps += 1;
            }
            Op::Deliver => match q.pop() {
                Ok(Some(ev)) => {
                    let (kind, id) = ev.payload;
                    log.push((ev.time, kind, id));
                    if kind == Kind::Transfer {
                        lanes.complete(id, ev.time, &mut next_stamp);
                        rearm(&lanes, &mut q);
                    }
                }
                Ok(None) => {}
                Err(e) => return (log, Some(e), q.delivered()),
            },
        }
    }
    (log, None, q.delivered())
}

/// The clock the engines use: the table's head against the heap's.
fn run_head_of_table(model: NetModelSpec, ops: &[Op], cap: u64) -> Outcome {
    let mut q: EventQueue<(Kind, u64)> = EventQueue::new().with_max_events(cap);
    let mut lanes = table(model);
    let mut log = Vec::new();
    let mut steps = 0u64;
    for &op in ops {
        match op {
            Op::Admit { worker, blocks } => {
                if lanes.can_admit() {
                    let now = q.now();
                    lanes.admit(now, worker, Dir::ToWorker, 0, blocks, (), || q.take_seq());
                }
            }
            Op::Step { delay } => {
                q.schedule(q.now() + f64::from(delay), 1, (Kind::Step, steps));
                steps += 1;
            }
            Op::Deliver => {
                let transfer = lanes
                    .next_completion()
                    .filter(|t| q.peek_key().is_none_or(|key| t.precedes(key)));
                let delivered = match transfer {
                    Some(t) => q.deliver_external(t.end).map(|at| {
                        lanes.complete(t.lane, at, || q.take_seq());
                        Some((at, Kind::Transfer, t.lane))
                    }),
                    None => q
                        .pop()
                        .map(|ev| ev.map(|ev| (ev.time, ev.payload.0, ev.payload.1))),
                };
                match delivered {
                    Ok(Some(d)) => log.push(d),
                    Ok(None) => {}
                    Err(e) => return (log, Some(e), q.delivered()),
                }
            }
        }
    }
    // Nothing was ever cancelled, and the heap held steps only.
    assert_eq!(q.cancelled(), 0);
    assert!(q.heap_high_water() as u64 <= steps);
    (log, None, q.delivered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn head_of_table_delivers_what_rearming_delivered(
        model in arb_model(),
        ops in arb_ops(),
        cap in 1u64..80,
    ) {
        let old = run_rearming(model, &ops, cap);
        let new = run_head_of_table(model, &ops, cap);
        prop_assert_eq!(new, old);
    }
}
