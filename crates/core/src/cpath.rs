//! Critical-path-aware lower bounds for DAG-structured jobs.
//!
//! The paper's jobs are bags of independent chunks, so its only oracle is
//! the steady-state throughput bound (Table 1). Once a job is a dataflow
//! DAG of block tasks (LU panels, triangular solves, trailing updates —
//! `stargemm-dag`), dependencies add a second obstruction: no schedule
//! can finish before the *critical path* of the DAG, each task costed at
//! its best-case time on the platform. This module keeps `core` free of
//! DAG types: tasks are abstract [`TaskCost`]s plus a predecessor
//! relation, so any DAG layer can ask for its oracle.
//!
//! The combined bound is
//!
//! ```text
//! max( critical path under best-case task times,
//!      one-port volume:   Σ (in+out blocks) · min_i c_i,
//!      compute volume:    Σ updates / Σ_i 1/w_i,
//!      steady state:      Σ updates / ρ* )
//! ```
//!
//! where `ρ*` is the uncapped bandwidth-centric optimum — valid because a
//! DAG task moves *at least* the operand traffic the Table 1 LP charges
//! per update. Every component lower-bounds the makespan of *any*
//! schedule, so their maximum does too.

use stargemm_platform::Platform;

use crate::steady::bandwidth_centric;

/// Platform-independent cost of one DAG task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskCost {
    /// Blocks the master must push to a worker before the task runs.
    pub in_blocks: u64,
    /// Blocks the master retrieves when the task completes.
    pub out_blocks: u64,
    /// Block updates the task performs.
    pub updates: u64,
}

impl TaskCost {
    /// Total blocks the task moves through the master's port.
    pub fn port_blocks(&self) -> u64 {
        self.in_blocks + self.out_blocks
    }
}

/// Best-case execution time of one task: transfers and compute on the
/// most favourable worker, with no contention (`min_i` of
/// `port_blocks·c_i + updates·w_i`).
///
/// # Panics
/// Panics on an empty platform.
pub fn best_task_time(platform: &Platform, task: &TaskCost) -> f64 {
    platform
        .workers()
        .iter()
        .map(|s| task.port_blocks() as f64 * s.c + task.updates as f64 * s.w)
        .fold(f64::INFINITY, f64::min)
}

/// Length of the longest dependency chain when every task takes its
/// [`best_task_time`] — no schedule can beat it, whatever the overlap.
///
/// `preds[v]` lists the direct predecessors of task `v`.
///
/// # Panics
/// Panics when `preds` and `tasks` disagree in length, a predecessor
/// index is out of range, or the relation has a cycle.
pub fn critical_path(platform: &Platform, tasks: &[TaskCost], preds: &[Vec<usize>]) -> f64 {
    assert_eq!(tasks.len(), preds.len(), "one predecessor list per task");
    let n = tasks.len();
    // Longest path ending at v, memoized over an explicit DFS stack so
    // deep chains cannot overflow the call stack.
    let mut finish = vec![f64::NAN; n];
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    for root in 0..n {
        if state[root] == 2 {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        state[root] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            let pv = &preds[v];
            if *next < pv.len() {
                let p = pv[*next];
                *next += 1;
                assert!(p < n, "task {v} depends on unknown task {p}");
                match state[p] {
                    0 => {
                        state[p] = 1;
                        stack.push((p, 0));
                    }
                    1 => panic!("dependency cycle through task {p}"),
                    _ => {}
                }
            } else {
                let longest_pred = pv.iter().map(|&p| finish[p]).fold(0.0, f64::max);
                finish[v] = longest_pred + best_task_time(platform, &tasks[v]);
                state[v] = 2;
                stack.pop();
            }
        }
    }
    finish.iter().copied().fold(0.0, f64::max)
}

/// The combined critical-path / volume / steady-state makespan lower
/// bound for a DAG job (see the module docs). Zero for an empty DAG;
/// `+∞` on a platform where no worker fits the steady-state layout.
///
/// # Panics
/// Panics on a malformed predecessor relation ([`critical_path`]).
pub fn dag_makespan_lower_bound(
    platform: &Platform,
    tasks: &[TaskCost],
    preds: &[Vec<usize>],
) -> f64 {
    if tasks.is_empty() {
        assert!(preds.is_empty(), "one predecessor list per task");
        return 0.0;
    }
    let cp = critical_path(platform, tasks, preds);
    let c_min = platform
        .workers()
        .iter()
        .map(|s| s.c)
        .fold(f64::INFINITY, f64::min);
    let port_volume: u64 = tasks.iter().map(TaskCost::port_blocks).sum();
    let port = port_volume as f64 * c_min;
    let updates: u64 = tasks.iter().map(|t| t.updates).sum();
    let inv_w: f64 = platform.workers().iter().map(|s| 1.0 / s.w).sum();
    let compute = updates as f64 / inv_w;
    let steady = updates as f64 / bandwidth_centric(platform, usize::MAX).throughput;
    cp.max(port).max(compute).max(steady)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stargemm_platform::WorkerSpec;

    fn platform() -> Platform {
        Platform::new(
            "cpath",
            vec![WorkerSpec::new(0.2, 0.1, 60), WorkerSpec::new(0.4, 0.2, 40)],
        )
    }

    fn task(w: u64) -> TaskCost {
        TaskCost {
            in_blocks: 2 * w + 1,
            out_blocks: w,
            updates: w,
        }
    }

    #[test]
    fn best_time_picks_the_cheapest_worker() {
        let t = task(2);
        // Worker 0: 7·0.2 + 2·0.1 = 1.6; worker 1: 7·0.4 + 2·0.2 = 3.2.
        assert!((best_task_time(&platform(), &t) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn chain_critical_path_is_the_sum() {
        let tasks = vec![task(1); 4];
        let preds = vec![vec![], vec![0], vec![1], vec![2]];
        let per = best_task_time(&platform(), &task(1));
        let cp = critical_path(&platform(), &tasks, &preds);
        assert!((cp - 4.0 * per).abs() < 1e-12);
    }

    #[test]
    fn diamond_takes_the_longer_branch() {
        // 0 → {1 (wide), 2 (narrow)} → 3.
        let tasks = vec![task(1), task(5), task(1), task(1)];
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let t1 = best_task_time(&platform(), &task(1));
        let t5 = best_task_time(&platform(), &task(5));
        let cp = critical_path(&platform(), &tasks, &preds);
        assert!((cp - (2.0 * t1 + t5)).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_fall_back_to_volume_bounds() {
        // 40 independent width-1 tasks: the critical path is one task,
        // but the one-port volume (4 blocks × c_min each) dominates.
        let tasks = vec![task(1); 40];
        let preds = vec![vec![]; 40];
        let b = dag_makespan_lower_bound(&platform(), &tasks, &preds);
        assert!(b >= 40.0 * 4.0 * 0.2 - 1e-12, "{b}");
        assert!(b >= critical_path(&platform(), &tasks, &preds));
    }

    #[test]
    fn empty_dag_has_zero_bound() {
        assert_eq!(dag_makespan_lower_bound(&platform(), &[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_are_rejected() {
        let tasks = vec![task(1), task(1)];
        let preds = vec![vec![1], vec![0]];
        critical_path(&platform(), &tasks, &preds);
    }

    #[test]
    fn deep_chains_do_not_overflow_the_stack() {
        let n = 200_000;
        let tasks = vec![task(1); n];
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|v| if v == 0 { vec![] } else { vec![v - 1] })
            .collect();
        let cp = critical_path(&platform(), &tasks, &preds);
        assert!(cp > 0.0);
    }
}
