//! Federated simulation: per-star simulators composed under the root's
//! uplink drain.
//!
//! A [`FedModel`] runs a two-level hierarchy (a [`FedPlatform`]): the
//! root master streams each star's operand shard over that star's
//! uplink — all uplinks contending under the federation's uplink model
//! (a [`stargemm_netmodel::NetModelSpec`], the same value
//! `core::steady::federated_lp` prices its uplink rows by), integrated
//! in closed form by [`stargemm_netmodel::drain_times`] (the same
//! progressive max-min re-share the engines use, via
//! `NetModelSpec::shares_into`) — and
//! each regional star then executes its local schedule with its own
//! [`Simulator`] (own contention model, own dynamic profile, own
//! crashes). The federated makespan is `max_s(arrival_s + makespan_s)`:
//! a store-and-forward composition at shard granularity, which keeps
//! every per-star [`RunStats`] in local star time.
//!
//! With `k = 1` the root and the regional master are the same host, so
//! there is no uplink: the run **is** the single-star simulation, and
//! the returned stats are bitwise identical to calling
//! [`Simulator::new_dyn`] directly (pinned by tests).

use stargemm_netmodel::{drain_times, TransferLane};
use stargemm_platform::FedPlatform;

use crate::engine::Simulator;
use crate::error::SimError;
use crate::policy::MasterPolicy;
use crate::stats::RunStats;

/// Outcome of one federated run.
#[derive(Clone, Debug, PartialEq)]
pub struct FedRun {
    /// When each star's shard feed lands at its regional master
    /// (all zeros for `k = 1`: root and regional master coincide).
    pub arrivals: Vec<f64>,
    /// Per-star local run statistics, in star-local time (the uplink
    /// offset is *not* folded in).
    pub stars: Vec<RunStats>,
    /// Federated makespan: `max_s(arrivals[s] + stars[s].makespan)`.
    pub makespan: f64,
}

impl FedRun {
    /// Total block updates across all stars.
    pub fn total_updates(&self) -> u64 {
        self.stars.iter().map(|s| s.total_updates).sum()
    }

    /// Aggregate throughput (updates per second over the federated
    /// makespan).
    pub fn throughput(&self) -> f64 {
        self.total_updates() as f64 / self.makespan
    }
}

/// The federated execution model: uplink drain + per-star simulators.
#[derive(Clone, Debug)]
pub struct FedModel {
    fed: FedPlatform,
}

impl FedModel {
    /// A model for `fed`.
    pub fn new(fed: FedPlatform) -> Self {
        FedModel { fed }
    }

    /// The platform being modelled.
    pub fn fed(&self) -> &FedPlatform {
        &self.fed
    }

    /// When each star's shard feed (of `volumes[s]` blocks) lands at its
    /// regional master: the uplink lanes drain through the federation's
    /// contention model, FIFO in star order. For `k = 1` the answer is
    /// `[0.0]` — root and regional master coincide, nothing crosses a
    /// wire.
    ///
    /// # Panics
    /// Panics when `volumes` does not name every star.
    pub fn uplink_arrivals(&self, volumes: &[f64]) -> Vec<f64> {
        assert_eq!(volumes.len(), self.fed.len(), "one volume per star");
        if self.fed.len() == 1 {
            return vec![0.0];
        }
        let lanes: Vec<TransferLane> = self
            .fed
            .stars
            .iter()
            .enumerate()
            .map(|(s, star)| TransferLane {
                worker: s,
                link_rate: 1.0 / star.uplink_c,
            })
            .collect();
        drain_times(&lanes, volumes, &self.fed.uplink)
    }

    /// Runs one policy per star: star `s`'s feed of `volumes[s]` blocks
    /// drains over the uplinks, then the star executes `policies[s]` on
    /// its own simulator. Per-star stats stay in local time; the
    /// federated makespan folds the arrival offsets in.
    ///
    /// With `k = 1` this delegates verbatim to the single-star
    /// simulator — same stats, bit for bit.
    ///
    /// # Panics
    /// Panics when `volumes` or `policies` does not name every star.
    pub fn run(
        &self,
        volumes: &[f64],
        policies: &mut [&mut dyn MasterPolicy],
    ) -> Result<FedRun, SimError> {
        assert_eq!(policies.len(), self.fed.len(), "one policy per star");
        let arrivals = self.uplink_arrivals(volumes);
        let mut stars = Vec::with_capacity(self.fed.len());
        for (star, policy) in self.fed.stars.iter().zip(policies.iter_mut()) {
            let sim = Simulator::new_dyn(star.platform.clone());
            stars.push(sim.run(*policy)?);
        }
        let makespan = arrivals
            .iter()
            .zip(&stars)
            .map(|(&a, s)| a + s.makespan)
            .fold(0.0f64, f64::max);
        Ok(FedRun {
            arrivals,
            stars,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ChunkDescr, Fragment};
    use crate::policy::{Action, SimCtx};
    use stargemm_netmodel::NetModelSpec;
    use stargemm_platform::{DynPlatform, FedStar, Platform, WorkerSpec};

    struct Script {
        actions: Vec<Action>,
        next: usize,
    }

    impl MasterPolicy for Script {
        fn next_action(&mut self, _ctx: &SimCtx) -> Action {
            let a = self
                .actions
                .get(self.next)
                .copied()
                .unwrap_or(Action::Finished);
            self.next += 1;
            a
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    fn demo_descr() -> ChunkDescr {
        ChunkDescr {
            id: 0,
            c_blocks: 4,
            steps: 2,
            a_blocks_per_step: 2,
            b_blocks_per_step: 2,
            updates_per_step: 4,
            tail: None,
        }
    }

    fn full_script() -> Script {
        let descr = demo_descr();
        let mut actions = vec![Action::Send {
            worker: 0,
            fragment: Fragment::c_load(&descr),
            new_chunk: Some(descr),
        }];
        for s in 0..descr.steps {
            actions.push(Action::Send {
                worker: 0,
                fragment: Fragment::b_step(&descr, s),
                new_chunk: None,
            });
            actions.push(Action::Send {
                worker: 0,
                fragment: Fragment::a_step(&descr, s),
                new_chunk: None,
            });
        }
        actions.push(Action::Retrieve {
            worker: 0,
            chunk: descr.id,
        });
        Script { actions, next: 0 }
    }

    fn star(c: f64, w: f64) -> DynPlatform {
        DynPlatform::constant(Platform::new("s", vec![WorkerSpec::new(c, w, 100)]))
    }

    #[test]
    fn single_star_run_is_bitwise_the_simulator() {
        let fed = FedPlatform::single(star(1.0, 1.0));
        let model = FedModel::new(fed.clone());
        let mut policy = full_script();
        let run = model
            .run(&[123.0], &mut [&mut policy as &mut dyn MasterPolicy])
            .unwrap();
        assert_eq!(run.arrivals, vec![0.0]);

        let mut solo_policy = full_script();
        let solo = Simulator::new_dyn(fed.star(0).platform.clone())
            .run(&mut solo_policy)
            .unwrap();
        // Bitwise: RunStats is PartialEq over every field.
        assert_eq!(run.stars[0], solo);
        assert_eq!(run.makespan.to_bits(), solo.makespan.to_bits());
        assert_eq!(run.total_updates(), solo.total_updates);
    }

    #[test]
    fn two_stars_fold_uplink_arrivals_into_the_makespan() {
        let fed = FedPlatform::new(
            "f2",
            vec![
                FedStar::new(star(1.0, 1.0), 0.5),
                FedStar::new(star(1.0, 1.0), 2.0),
            ],
            NetModelSpec::OnePort,
        );
        let model = FedModel::new(fed);
        // One-port uplinks: star 0's 10-block feed lands at 5.0, star
        // 1's 10-block feed queues behind it → 5 + 20 = 25.
        let arr = model.uplink_arrivals(&[10.0, 10.0]);
        assert_eq!(arr, vec![5.0, 25.0]);

        let mut p0 = full_script();
        let mut p1 = full_script();
        let run = model
            .run(
                &[10.0, 10.0],
                &mut [
                    &mut p0 as &mut dyn MasterPolicy,
                    &mut p1 as &mut dyn MasterPolicy,
                ],
            )
            .unwrap();
        // Identical stars run identical local schedules (makespan 20.0,
        // see the engine's one_chunk_timing_is_exact).
        assert_eq!(run.stars[0], run.stars[1]);
        assert!((run.makespan - (25.0 + run.stars[1].makespan)).abs() < 1e-12);
        assert!(run.throughput() > 0.0);
    }

    #[test]
    fn multiport_uplinks_overlap_the_feeds() {
        let two_stars = |uplink| {
            FedPlatform::new(
                "f2",
                vec![
                    FedStar::new(star(1.0, 1.0), 1.0),
                    FedStar::new(star(1.0, 1.0), 1.0),
                ],
                uplink,
            )
        };
        let serial = FedModel::new(two_stars(NetModelSpec::OnePort));
        let overlap = FedModel::new(two_stars(NetModelSpec::BoundedMultiPort {
            k: 2,
            backbone: None,
        }));
        // One-port serializes (10, then 10 more); two ports overlap.
        assert_eq!(serial.uplink_arrivals(&[10.0, 10.0]), vec![10.0, 20.0]);
        assert_eq!(overlap.uplink_arrivals(&[10.0, 10.0]), vec![10.0, 10.0]);
    }
}
