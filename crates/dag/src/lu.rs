//! The tiled right-looking LU task graph, plus a numeric replay that
//! executes a completion order through the real `stargemm-linalg` task
//! kernels.
//!
//! For an `n × n` block grid, elimination step `k` contributes
//!
//! - `Factor(k)` — scalar LU of the pivot block `A(k,k)`;
//! - `TrsmRow { k, j }` — `U(k,j) = L(k,k)⁻¹ A(k,j)` for `j > k`;
//! - `TrsmCol { i, k }` — `L(i,k) = A(i,k) U(k,k)⁻¹` for `i > k`;
//! - `Update { i, j, k }` — `A(i,j) ← A(i,j) − L(i,k)·U(k,j)` for
//!   `i, j > k`.
//!
//! with the dataflow dependencies of the algorithm (a task waits on the
//! step-`k−1` update of every block it reads or writes). Task count is
//! `Σ_{k<n} (n−k)² = n(n+1)(2n+1)/6` — 30 tasks for `n = 4`.
//!
//! Each task reads the *final* step-`k` values of its inputs and applies
//! exactly the kernel [`stargemm_linalg::lu::lu_factor`] applies, so a
//! replay in **any** dependency-respecting order reproduces the
//! sequential factorization bitwise — that is the numerical oracle the
//! DAG test pyramid pins the schedulers against.
//!
//! (`lu_factor` here always refers to
//! [`stargemm_linalg::lu::lu_factor`].)

use stargemm_linalg::lu::{
    lu_factor_block, lu_trsm_lower, lu_trsm_upper, lu_update, SingularPivot,
};
use stargemm_linalg::BlockMatrix;

use crate::graph::{DagJob, TaskId, TaskSpec};

/// One task of the tiled-LU graph (block indices into the `n × n` grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuTask {
    /// Factor the pivot block `A(k,k)`.
    Factor {
        /// Elimination step.
        k: usize,
    },
    /// Row-panel solve producing `U(k,j)`.
    TrsmRow {
        /// Elimination step.
        k: usize,
        /// Column of the solved block (`j > k`).
        j: usize,
    },
    /// Column-panel solve producing `L(i,k)`.
    TrsmCol {
        /// Row of the solved block (`i > k`).
        i: usize,
        /// Elimination step.
        k: usize,
    },
    /// Trailing update `A(i,j) ← A(i,j) − L(i,k)·U(k,j)`.
    Update {
        /// Row of the updated block (`i > k`).
        i: usize,
        /// Column of the updated block (`j > k`).
        j: usize,
        /// Elimination step.
        k: usize,
    },
}

/// The tiled-LU task graph for an `n × n` block grid, with the kernel of
/// each task alongside (`tasks[t]` is what DAG task `t` computes).
///
/// Every task has width 1 — one result block travels back per task.
///
/// # Panics
/// Panics when `n == 0`.
pub fn lu_dag(n: usize) -> (DagJob, Vec<LuTask>) {
    assert!(n > 0, "LU needs at least one block");
    let mut kinds: Vec<LuTask> = Vec::new();
    let mut specs: Vec<TaskSpec> = Vec::new();
    // id(kind) lookup for the steps emitted so far. Emission order per k:
    // Factor, row panel (j ascending), column panel (i ascending),
    // trailing updates (row-major) — every dependency is already emitted.
    let find = |kinds: &[LuTask], want: LuTask| -> TaskId {
        kinds
            .iter()
            .position(|&t| t == want)
            .expect("dependency emitted before its dependent")
    };
    for k in 0..n {
        let prev =
            |kinds: &[LuTask], i: usize, j: usize| find(kinds, LuTask::Update { i, j, k: k - 1 });
        let mut deps = Vec::new();
        if k > 0 {
            deps.push(prev(&kinds, k, k));
        }
        specs.push(TaskSpec::new(format!("f{k}"), 1, deps));
        kinds.push(LuTask::Factor { k });
        let factor = specs.len() - 1;
        for j in k + 1..n {
            let mut deps = vec![factor];
            if k > 0 {
                deps.push(prev(&kinds, k, j));
            }
            specs.push(TaskSpec::new(format!("r{k}.{j}"), 1, deps));
            kinds.push(LuTask::TrsmRow { k, j });
        }
        for i in k + 1..n {
            let mut deps = vec![factor];
            if k > 0 {
                deps.push(prev(&kinds, i, k));
            }
            specs.push(TaskSpec::new(format!("c{i}.{k}"), 1, deps));
            kinds.push(LuTask::TrsmCol { i, k });
        }
        for i in k + 1..n {
            let col = find(&kinds, LuTask::TrsmCol { i, k });
            for j in k + 1..n {
                let mut deps = vec![col, find(&kinds, LuTask::TrsmRow { k, j })];
                if k > 0 {
                    deps.push(prev(&kinds, i, j));
                }
                specs.push(TaskSpec::new(format!("u{i}.{j}.{k}"), 1, deps));
                kinds.push(LuTask::Update { i, j, k });
            }
        }
    }
    let dag = DagJob::new(format!("lu{n}"), specs).expect("tiled LU is a valid DAG");
    (dag, kinds)
}

/// Executes the task kernels on `a` in the given completion `order`
/// (task ids into `tasks`). With a dependency-respecting order this is
/// bitwise-identical to [`stargemm_linalg::lu::lu_factor`] on the same
/// matrix; callers assert order validity via [`DagJob::is_topological`].
///
/// # Panics
/// Panics when `a`'s block grid does not match the task indices.
pub fn lu_replay(
    a: &mut BlockMatrix,
    tasks: &[LuTask],
    order: &[TaskId],
) -> Result<(), SingularPivot> {
    let q = a.q();
    for &t in order {
        match tasks[t] {
            LuTask::Factor { k } => {
                let mut pivot = a.block(k, k).to_block();
                lu_factor_block(&mut pivot, k * q)?;
                a.set_block(k, k, &pivot);
            }
            LuTask::TrsmRow { k, j } => {
                let pivot = a.block(k, k).to_block();
                let mut b = a.block(k, j).to_block();
                lu_trsm_lower(&pivot, &mut b);
                a.set_block(k, j, &b);
            }
            LuTask::TrsmCol { i, k } => {
                let pivot = a.block(k, k).to_block();
                let mut b = a.block(i, k).to_block();
                lu_trsm_upper(&pivot, &mut b)?;
                a.set_block(i, k, &b);
            }
            LuTask::Update { i, j, k } => {
                let l_ik = a.block(i, k).to_block();
                let u_kj = a.block(k, j).to_block();
                let mut c = a.block(i, j).to_block();
                lu_update(&mut c, &l_ik, &u_kj);
                a.set_block(i, j, &c);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_linalg::lu::{lu_factor, lu_residual, random_diag_dominant};

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn task_count_is_sum_of_squares() {
        for n in 1..=5 {
            let (dag, kinds) = lu_dag(n);
            let expect = n * (n + 1) * (2 * n + 1) / 6;
            assert_eq!(dag.len(), expect, "n={n}");
            assert_eq!(kinds.len(), expect);
        }
        assert_eq!(lu_dag(4).0.len(), 30);
    }

    #[test]
    fn one_block_lu_is_a_single_factor_task() {
        let (dag, kinds) = lu_dag(1);
        assert_eq!(dag.len(), 1);
        assert_eq!(kinds[0], LuTask::Factor { k: 0 });
        assert!(dag.preds(0).is_empty());
    }

    #[test]
    fn dependencies_match_the_dataflow() {
        let (dag, kinds) = lu_dag(3);
        let id = |want| kinds.iter().position(|&t| t == want).unwrap();
        // Factor(1) waits on Update(1,1,0).
        assert_eq!(
            dag.preds(id(LuTask::Factor { k: 1 })),
            &[id(LuTask::Update { i: 1, j: 1, k: 0 })]
        );
        // Update(2,2,1) waits on TrsmCol(2,1), TrsmRow(1,2), Update(2,2,0).
        let mut want = vec![
            id(LuTask::TrsmCol { i: 2, k: 1 }),
            id(LuTask::TrsmRow { k: 1, j: 2 }),
            id(LuTask::Update { i: 2, j: 2, k: 0 }),
        ];
        want.sort_unstable();
        assert_eq!(dag.preds(id(LuTask::Update { i: 2, j: 2, k: 1 })), want);
        // Roots: exactly the first factor task.
        let roots: Vec<_> = (0..dag.len())
            .filter(|&t| dag.preds(t).is_empty())
            .collect();
        assert_eq!(roots, vec![id(LuTask::Factor { k: 0 })]);
    }

    #[test]
    fn topo_replay_matches_lu_factor_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 3, 4] {
            let (dag, kinds) = lu_dag(n);
            let a0 = random_diag_dominant(n, 3, &mut rng);
            let mut seq = a0.clone();
            lu_factor(&mut seq).unwrap();
            let mut replayed = a0.clone();
            lu_replay(&mut replayed, &kinds, dag.topo_order()).unwrap();
            assert_eq!(replayed.max_abs_diff(&seq), 0.0, "n={n}");
            assert!(lu_residual(&a0, &replayed) < 1e-9);
        }
    }

    #[test]
    fn any_valid_order_is_bitwise_identical() {
        // Reversed-within-frontier order: still topological, different
        // interleaving — must produce the same bits.
        let (dag, kinds) = lu_dag(3);
        let mut order: Vec<TaskId> = Vec::new();
        let mut unmet: Vec<usize> = (0..dag.len()).map(|t| dag.preds(t).len()).collect();
        let mut ready: Vec<TaskId> = (0..dag.len()).filter(|&t| unmet[t] == 0).collect();
        while let Some(t) = ready.pop() {
            // pop largest id first
            order.push(t);
            for &s in dag.succs(t) {
                unmet[s] -= 1;
                if unmet[s] == 0 {
                    ready.push(s);
                    ready.sort_unstable();
                }
            }
        }
        assert!(dag.is_topological(&order));
        assert_ne!(order, dag.topo_order());

        let mut rng = StdRng::seed_from_u64(23);
        let a0 = random_diag_dominant(3, 2, &mut rng);
        let mut seq = a0.clone();
        lu_factor(&mut seq).unwrap();
        let mut replayed = a0.clone();
        lu_replay(&mut replayed, &kinds, &order).unwrap();
        assert_eq!(replayed.max_abs_diff(&seq), 0.0);
    }

    #[test]
    fn singular_pivot_propagates() {
        let (dag, kinds) = lu_dag(1);
        let mut a = BlockMatrix::zeros(1, 1, 2);
        let err = lu_replay(&mut a, &kinds, dag.topo_order()).unwrap_err();
        assert_eq!(err.index, 0);
    }
}
