//! The tiled right-looking LU task graph, plus a numeric replay that
//! executes a completion order through the real `stargemm-linalg` task
//! kernel.
//!
//! The tasks are [`stargemm_linalg::lu::lu_tasks`]: for an `n × n` block
//! grid, elimination step `k` contributes
//!
//! - `Factor(k)` — scalar LU of the pivot block `A(k,k)`;
//! - `TrsmRow { k, j }` — `U(k,j) = L(k,k)⁻¹ A(k,j)` for `j > k`;
//! - `TrsmCol { i, k }` — `L(i,k) = A(i,k) U(k,k)⁻¹` for `i > k`;
//! - `Update { i, j, k }` — `A(i,j) ← A(i,j) − L(i,k)·U(k,j)` for
//!   `i, j > k`.
//!
//! Task `t` of the graph is entry `t` of that table, and its
//! predecessors are the last earlier writers of every block it reads or
//! writes, looked up in a table with one entry per block. Task count is
//! `Σ_{k<n} (n−k)² = n(n+1)(2n+1)/6` — 30 tasks for `n = 4`.
//!
//! Each task reads the *final* step-`k` values of its inputs and runs
//! through [`stargemm_linalg::lu::lu_apply`], the kernel
//! [`stargemm_linalg::lu::lu_factor`] runs, so a replay in **any**
//! dependency-respecting order reproduces the sequential factorization
//! bitwise — that is the numerical oracle the DAG test pyramid pins the
//! schedulers against.

use stargemm_linalg::lu::{lu_apply, lu_tasks, SingularPivot};
use stargemm_linalg::BlockMatrix;

use crate::graph::{DagJob, TaskId, TaskSpec};

pub use stargemm_linalg::lu::LuTask;

/// The tiled-LU task graph for an `n × n` block grid, with the kernel of
/// each task alongside (`tasks[t]` is what DAG task `t` computes).
///
/// Every task has width 1 — one result block travels back per task.
///
/// # Panics
/// Panics when `n == 0`.
pub fn lu_dag(n: usize) -> (DagJob, Vec<LuTask>) {
    assert!(n > 0, "LU needs at least one block");
    let kinds = lu_tasks(n);
    // The latest task to write each block, row-major. No block is
    // written after a task reads it, so these are all the dependencies.
    let mut last_writer: Vec<Option<TaskId>> = vec![None; n * n];
    let specs = kinds
        .iter()
        .enumerate()
        .map(|(t, &task)| {
            let (i, j) = task.writes();
            let deps = task
                .reads()
                .chain([(i, j)])
                .filter_map(|(r, c)| last_writer[r * n + c])
                .collect();
            last_writer[i * n + j] = Some(t);
            TaskSpec::new(label(task), 1, deps)
        })
        .collect();
    let dag = DagJob::new(format!("lu{n}"), specs).expect("tiled LU is a valid DAG");
    (dag, kinds)
}

/// A task's name in the graph: `f{k}`, `r{k}.{j}`, `c{i}.{k}` or
/// `u{i}.{j}.{k}`.
fn label(task: LuTask) -> String {
    match task {
        LuTask::Factor { k } => format!("f{k}"),
        LuTask::TrsmRow { k, j } => format!("r{k}.{j}"),
        LuTask::TrsmCol { i, k } => format!("c{i}.{k}"),
        LuTask::Update { i, j, k } => format!("u{i}.{j}.{k}"),
    }
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
    order.iter().try_for_each(|&t| lu_apply(a, tasks[t]))
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

    /// An oracle that shares nothing with the last-writer table: two
    /// tasks conflict when they touch one block and one of them writes
    /// it. Every conflicting pair must be ordered by the graph's
    /// transitive closure in task-id (sequential) order, and every edge
    /// must join a conflicting pair.
    #[test]
    fn the_graph_orders_exactly_the_conflicting_tasks() {
        // (written block, read blocks), spelled out from the algorithm.
        let footprint = |task: LuTask| match task {
            LuTask::Factor { k } => ((k, k), vec![]),
            LuTask::TrsmRow { k, j } => ((k, j), vec![(k, k)]),
            LuTask::TrsmCol { i, k } => ((i, k), vec![(k, k)]),
            LuTask::Update { i, j, k } => ((i, j), vec![(i, k), (k, j)]),
        };
        let conflict = |a: LuTask, b: LuTask| {
            let ((wa, ra), (wb, rb)) = (footprint(a), footprint(b));
            wa == wb || ra.contains(&wb) || rb.contains(&wa)
        };
        for n in 1..=6 {
            let (dag, kinds) = lu_dag(n);
            let len = dag.len();
            // reach[a][b]: a path a → … → b, filled in reverse id order
            // (every edge goes from a lower id to a higher one).
            let mut reach = vec![vec![false; len]; len];
            for a in (0..len).rev() {
                for &b in dag.succs(a) {
                    assert!(b > a, "n={n}: edge {a} → {b} runs backwards");
                    assert!(conflict(kinds[a], kinds[b]), "n={n}: edge {a} → {b}");
                    reach[a][b] = true;
                    let via = reach[b].clone();
                    for (r, v) in reach[a].iter_mut().zip(via) {
                        *r |= v;
                    }
                }
            }
            for b in 0..len {
                for a in 0..b {
                    if conflict(kinds[a], kinds[b]) {
                        assert!(reach[a][b], "n={n}: {:?} before {:?}", kinds[a], kinds[b]);
                    }
                }
            }
        }
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
