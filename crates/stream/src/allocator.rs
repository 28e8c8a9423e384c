//! Weighted max-min steady-state allocation across concurrent jobs.
//!
//! `core::steady` maximizes the throughput of **one** job on the star
//! (Table 1). With several jobs sharing the port, raw maximization would
//! starve whoever has the worst communication-to-computation geometry,
//! so the multi-job allocator solves the *weighted max-min* extension
//! instead: maximize the fairness level `z` such that every active job
//! `j` with weight `ω_j` sustains at least `ω_j · z` block updates per
//! second, subject to the same one-port and per-worker rate constraints
//! (each `(job, worker)` pair keeps its own chunk side `μ_{j,i}`, hence
//! its own port cost per update `2 c_i / μ_{j,i}`). A small secondary
//! objective on the raw rates spends capacity the bottleneck job cannot
//! use.
//!
//! Like every formulation in the workspace the LP is laid through
//! [`LpProblem::le`], one row family at a time — port, per-worker
//! compute, per-job coupling, in that order, which (with the variable
//! order) fixes the solver's pivot sequence and hence the shares to the
//! bit.
//!
//! The resulting per-job **port shares** drive the deficit scheduler of
//! [`crate::multi::MultiJobMaster`].

use stargemm_lp::LpProblem;
use stargemm_platform::Platform;

/// Secondary objective weight: prefer higher total throughput among
/// allocations with the same max-min level, without disturbing it.
const EPS_THROUGHPUT: f64 = 1e-6;

/// One active job's demand as seen by the allocator.
#[derive(Clone, Debug)]
pub struct JobDemand {
    /// Per-worker chunk side `μ_{j,i}` (0 = this worker cannot serve
    /// the job).
    pub sides: Vec<usize>,
    /// Fairness weight `ω_j > 0`.
    pub weight: f64,
}

/// The allocator's solution.
#[derive(Clone, Debug)]
pub struct MultiJobAllocation {
    /// Per-job steady-state throughput (block updates per second).
    pub rates: Vec<f64>,
    /// Per-job share of the master's port implied by the rates
    /// (operand traffic only; sums to at most 1).
    pub port_shares: Vec<f64>,
    /// The weighted max-min level `z = min_j rate_j / ω_j`.
    pub level: f64,
}

/// Port seconds per update of demand `d` served on worker `i`:
/// `2 c_i / μ_{j,i}`.
fn port_cost(platform: &Platform, d: &JobDemand, i: usize) -> f64 {
    2.0 * platform.worker(i).c / d.sides[i] as f64
}

/// The weighted max-min LP and its variable layout: one `x_{j,i}` per
/// `(job, worker)` pair with a positive side, in job-major order, then
/// `z` last. `None` when a demand has a non-positive weight or no
/// usable worker.
pub fn maxmin_lp(
    platform: &Platform,
    demands: &[JobDemand],
) -> Option<(Vec<(usize, usize)>, LpProblem)> {
    let p = platform.len();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (j, d) in demands.iter().enumerate() {
        assert_eq!(d.sides.len(), p, "demand must describe every worker");
        if !(d.weight.is_finite() && d.weight > 0.0) {
            return None;
        }
        let before = pairs.len();
        pairs.extend((0..p).filter(|&i| d.sides[i] > 0).map(|i| (j, i)));
        if pairs.len() == before {
            return None; // job j has no usable worker
        }
    }
    let z = pairs.len();
    let mut objective = vec![EPS_THROUGHPUT; z + 1];
    objective[z] = 1.0;
    let mut lp = LpProblem::maximize(objective);
    let vars = || pairs.iter().copied().enumerate();

    // One-port: operand traffic of every job shares the master's port.
    lp.le(
        vars().map(|(v, (j, i))| (v, port_cost(platform, &demands[j], i))),
        1.0,
    );
    // Per-worker compute rate.
    for (i, spec) in platform.iter() {
        let on_worker = vars().filter(|&(_, (_, i2))| i2 == i);
        lp.le(on_worker.map(|(v, _)| (v, spec.w)), 1.0);
    }
    // Weighted max-min coupling: ω_j·z − Σ_i x_{j,i} ≤ 0.
    for (j, d) in demands.iter().enumerate() {
        let of_job = vars().filter(|&(_, (j2, _))| j2 == j);
        lp.le(of_job.map(|(v, _)| (v, -1.0)).chain([(z, d.weight)]), 0.0);
    }
    Some((pairs, lp))
}

/// Solves the weighted max-min LP for the given demands. Returns `None`
/// when a demand has no usable worker or the LP fails (degenerate
/// platform) — callers fall back to plain weight shares.
pub fn weighted_maxmin(platform: &Platform, demands: &[JobDemand]) -> Option<MultiJobAllocation> {
    if demands.is_empty() {
        return Some(MultiJobAllocation {
            rates: vec![],
            port_shares: vec![],
            level: 0.0,
        });
    }
    let (pairs, lp) = maxmin_lp(platform, demands)?;
    let sol = lp.solve().ok()?;

    let mut rates = vec![0.0; demands.len()];
    let mut port_shares = vec![0.0; demands.len()];
    for (v, &(j, i)) in pairs.iter().enumerate() {
        rates[j] += sol.x[v];
        port_shares[j] += sol.x[v] * port_cost(platform, &demands[j], i);
    }
    Some(MultiJobAllocation {
        rates,
        port_shares,
        level: sol.x[pairs.len()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;

    fn platform() -> Platform {
        Platform::new(
            "alloc",
            vec![WorkerSpec::new(0.2, 0.1, 60), WorkerSpec::new(0.4, 0.2, 40)],
        )
    }

    fn demand(weight: f64) -> JobDemand {
        JobDemand {
            sides: vec![4, 3],
            weight,
        }
    }

    #[test]
    fn equal_weights_split_equally() {
        let alloc = weighted_maxmin(&platform(), &[demand(1.0), demand(1.0)]).unwrap();
        assert!(alloc.level > 0.0);
        assert!(
            (alloc.rates[0] - alloc.rates[1]).abs() < 1e-6,
            "{:?}",
            alloc.rates
        );
    }

    #[test]
    fn weights_scale_the_guaranteed_rates() {
        let alloc = weighted_maxmin(&platform(), &[demand(1.0), demand(3.0)]).unwrap();
        // Both jobs are pinned at ω_j z by the shared bottleneck, so the
        // rate ratio follows the weights.
        assert!(alloc.rates[0] >= 1.0 * alloc.level - 1e-9);
        assert!(alloc.rates[1] >= 3.0 * alloc.level - 1e-9);
        assert!(
            (alloc.rates[1] / alloc.rates[0] - 3.0).abs() < 0.05,
            "{:?}",
            alloc.rates
        );
    }

    #[test]
    fn port_shares_respect_the_one_port() {
        for n in 1..5usize {
            let demands: Vec<JobDemand> = (0..n).map(|j| demand(1.0 + j as f64)).collect();
            let alloc = weighted_maxmin(&platform(), &demands).unwrap();
            let total: f64 = alloc.port_shares.iter().sum();
            assert!(total <= 1.0 + 1e-6, "n={n}: port over-subscribed {total}");
        }
    }

    #[test]
    fn single_job_matches_the_table1_view() {
        // With one job of weight 1, max-min degenerates to plain
        // throughput maximization under the same constraints; the level
        // must equal the single-job steady-state optimum on the same
        // per-worker sides.
        let p = platform();
        let alloc = weighted_maxmin(&p, &[demand(1.0)]).unwrap();
        // Hand-check: rate_i ≤ 1/w_i and Σ 2c_i/μ_i·rate_i ≤ 1.
        // Worker 0: full rate 10, port cost 0.1/update → port 1.0 alone.
        // Optimal packs worker 0 to 10/s (port full) — or better mixes.
        assert!(alloc.level > 0.0);
        let port: f64 = alloc.port_shares.iter().sum();
        assert!(port <= 1.0 + 1e-6);
        assert!((alloc.rates[0] - alloc.level).abs() < 1e-6);
    }

    #[test]
    fn the_lp_is_pinned_for_two_demands() {
        // Job 0 runs on both workers (sides 4, 3), job 1 only on worker 1
        // (side 5): variables x_{0,0}, x_{0,1}, x_{1,1}, z. Written out —
        // port, per-worker compute, per-job coupling — so a reordered
        // family or a re-associated `2c/μ` fails here, not in a golden.
        let demands = [
            demand(1.0),
            JobDemand {
                sides: vec![0, 5],
                weight: 3.0,
            },
        ];
        let (pairs, lp) = maxmin_lp(&platform(), &demands).unwrap();
        assert_eq!(pairs, [(0, 0), (0, 1), (1, 1)]);
        assert_eq!(lp.objective(), [1e-6, 1e-6, 1e-6, 1.0]);
        let rows: Vec<Vec<f64>> = (0..lp.rhs().len()).map(|i| lp.dense_row(i)).collect();
        assert_eq!(
            rows,
            [
                [0.1, 0.8 / 3.0, 0.16, 0.0],
                [0.1, 0.0, 0.0, 0.0],
                [0.0, 0.2, 0.2, 0.0],
                [-1.0, -1.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 3.0],
            ]
        );
        assert_eq!(lp.rhs(), [1.0, 1.0, 1.0, 0.0, 0.0]);
        let alloc = weighted_maxmin(&platform(), &demands).unwrap();
        assert_eq!(alloc.rates, [2.000000000000001, 5.0]);
        assert_eq!(alloc.port_shares, [0.2000000000000001, 0.8]);
        assert_eq!(alloc.level, 1.6666666666666665);
    }

    #[test]
    fn unusable_job_yields_none() {
        let bad = JobDemand {
            sides: vec![0, 0],
            weight: 1.0,
        };
        assert!(weighted_maxmin(&platform(), &[demand(1.0), bad]).is_none());
    }

    #[test]
    fn empty_demand_set_is_trivial() {
        let alloc = weighted_maxmin(&platform(), &[]).unwrap();
        assert!(alloc.rates.is_empty());
        assert_eq!(alloc.level, 0.0);
    }
}
