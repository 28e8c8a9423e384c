//! The validated task graph a DAG job executes.
//!
//! A [`DagJob`] is a set of block tasks with a precedence relation. Each
//! task covers `width` block columns of the job's *virtual* `1 × S`
//! result matrix (`S` = the sum of all widths), so a DAG job **is** an
//! honest GEMM: every task is a `1 × width` chunk on its own disjoint
//! column range, and precedence is purely a scheduling constraint the
//! dispatcher enforces. Both execution engines therefore run DAG jobs
//! unchanged — the net runtime even moves (and verifies) real matrix
//! data.
//!
//! Construction validates the relation (no cycles, no dangling
//! references, positive widths) and precomputes a topological order, so
//! every downstream consumer can assume a well-formed DAG.

use stargemm_core::cpath::TaskCost;
use stargemm_core::Job;

/// Index of a task within its [`DagJob`].
pub type TaskId = usize;

/// Why a task set is not a valid DAG job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The task set is empty.
    Empty,
    /// A task has width zero (its label is reported).
    ZeroWidth {
        /// Label of the offending task.
        task: String,
    },
    /// A task references a dependency index outside the task set.
    BadDep {
        /// Label of the referencing task.
        task: String,
        /// The out-of-range index.
        dep: usize,
    },
    /// The precedence relation has a cycle through the reported task.
    Cycle {
        /// Label of a task on the cycle.
        task: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "a DAG job needs at least one task"),
            GraphError::ZeroWidth { task } => write!(f, "task {task:?} has width 0"),
            GraphError::BadDep { task, dep } => {
                write!(f, "task {task:?} depends on unknown task index {dep}")
            }
            GraphError::Cycle { task } => {
                write!(f, "dependency cycle through task {task:?}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// One task before validation: label, width in block columns, and the
/// indices of its direct predecessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Display label (carried into errors and reports).
    pub label: String,
    /// Block columns of the virtual result matrix this task covers.
    pub width: usize,
    /// Direct predecessors (indices into the task list).
    pub deps: Vec<TaskId>,
}

impl TaskSpec {
    /// A task with the given label, width and dependencies.
    pub fn new(label: impl Into<String>, width: usize, deps: Vec<TaskId>) -> Self {
        TaskSpec {
            label: label.into(),
            width,
            deps,
        }
    }
}

/// A validated DAG job. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagJob {
    name: String,
    labels: Vec<String>,
    widths: Vec<usize>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    topo: Vec<TaskId>,
    /// First block column of each task's region in the virtual matrix.
    col0: Vec<usize>,
}

impl DagJob {
    /// Validates `tasks` into a DAG job.
    pub fn new(name: impl Into<String>, tasks: Vec<TaskSpec>) -> Result<Self, GraphError> {
        if tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = tasks.len();
        for t in &tasks {
            if t.width == 0 {
                return Err(GraphError::ZeroWidth {
                    task: t.label.clone(),
                });
            }
            if let Some(&dep) = t.deps.iter().find(|&&d| d >= n) {
                return Err(GraphError::BadDep {
                    task: t.label.clone(),
                    dep,
                });
            }
        }
        let mut preds: Vec<Vec<TaskId>> = tasks.iter().map(|t| t.deps.clone()).collect();
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for (v, pv) in preds.iter().enumerate() {
            indeg[v] = pv.len();
            for &p in pv {
                succs[p].push(v);
            }
        }
        // Kahn's algorithm with an index-ordered frontier: deterministic
        // topological order, leftovers expose the cycle.
        let mut frontier: Vec<TaskId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        frontier.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest first
        let mut topo = Vec::with_capacity(n);
        let mut remaining = indeg;
        while let Some(v) = frontier.pop() {
            topo.push(v);
            for &s in &succs[v] {
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    // Keep the frontier sorted descending (pop = min).
                    let at = frontier
                        .binary_search_by(|x| s.cmp(x))
                        .unwrap_or_else(|at| at);
                    frontier.insert(at, s);
                }
            }
        }
        if topo.len() != n {
            let stuck = (0..n).find(|&v| remaining[v] > 0).expect("cycle member");
            return Err(GraphError::Cycle {
                task: tasks[stuck].label.clone(),
            });
        }
        let mut col0 = Vec::with_capacity(n);
        let mut col = 0usize;
        for t in &tasks {
            col0.push(col);
            col += t.width;
        }
        Ok(DagJob {
            name: name.into(),
            labels: tasks.iter().map(|t| t.label.clone()).collect(),
            widths: tasks.iter().map(|t| t.width).collect(),
            preds,
            succs,
            topo,
            col0,
        })
    }

    /// A linear chain of tasks with the given widths — the degenerate
    /// DAG that must behave exactly like a sequential chunk queue.
    ///
    /// # Panics
    /// Panics on an empty or zero-width chain (via the validator).
    pub fn chain(name: impl Into<String>, widths: &[usize]) -> Self {
        let tasks = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                TaskSpec::new(
                    format!("t{i}"),
                    w,
                    if i == 0 { vec![] } else { vec![i - 1] },
                )
            })
            .collect();
        DagJob::new(name, tasks).expect("a chain is always a valid DAG")
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Whether the DAG has no tasks (never true for a validated job).
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }

    /// Label of task `t`.
    pub fn label(&self, t: TaskId) -> &str {
        &self.labels[t]
    }

    /// Width of task `t` in block columns.
    pub fn width(&self, t: TaskId) -> usize {
        self.widths[t]
    }

    /// First block column of task `t`'s region in the virtual matrix.
    pub fn col0(&self, t: TaskId) -> usize {
        self.col0[t]
    }

    /// Direct predecessors of task `t`.
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t]
    }

    /// Direct successors of task `t`.
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succs[t]
    }

    /// The full predecessor relation (for `core::cpath`).
    pub fn preds_all(&self) -> &[Vec<TaskId>] {
        &self.preds
    }

    /// A topological order of the tasks (deterministic: smallest ready
    /// index first).
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Sum of all task widths: the virtual matrix's block-column count.
    pub fn total_width(&self) -> usize {
        self.widths.iter().sum()
    }

    /// The widest task (drives per-worker memory eligibility).
    pub fn max_width(&self) -> usize {
        self.widths.iter().copied().max().unwrap_or(0)
    }

    /// The virtual GEMM job a DAG job executes as: a `1 × total_width`
    /// result with inner dimension 1 and block side `q`. Each task is a
    /// `1 × width` chunk on its own column range of this job.
    pub fn virtual_job(&self, q: usize) -> Job {
        Job::new(1, 1, self.total_width(), q)
    }

    /// Abstract per-task costs for the `core::cpath` oracle: a width-`w`
    /// task moves `2w + 1` blocks in (C region, B row, one A block),
    /// `w` blocks out, and performs `w` block updates.
    pub fn task_costs(&self) -> Vec<TaskCost> {
        self.widths
            .iter()
            .map(|&w| TaskCost {
                in_blocks: 2 * w as u64 + 1,
                out_blocks: w as u64,
                updates: w as u64,
            })
            .collect()
    }

    /// Total block updates over all tasks.
    pub fn total_updates(&self) -> u64 {
        self.widths.iter().map(|&w| w as u64).sum()
    }

    /// Whether `order` executes every task exactly once with all
    /// predecessors first — the property every engine run must satisfy.
    pub fn is_topological(&self, order: &[TaskId]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.len()];
        for (i, &t) in order.iter().enumerate() {
            if t >= self.len() || pos[t] != usize::MAX {
                return false;
            }
            pos[t] = i;
        }
        (0..self.len()).all(|v| self.preds[v].iter().all(|&p| pos[p] < pos[v]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DagJob {
        DagJob::new(
            "diamond",
            vec![
                TaskSpec::new("a", 1, vec![]),
                TaskSpec::new("b", 2, vec![0]),
                TaskSpec::new("c", 3, vec![0]),
                TaskSpec::new("d", 1, vec![1, 2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn diamond_layout_and_relation() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.total_width(), 7);
        assert_eq!(d.max_width(), 3);
        assert_eq!(d.col0(2), 3);
        assert_eq!(d.preds(3), &[1, 2]);
        assert_eq!(d.succs(0), &[1, 2]);
        let j = d.virtual_job(4);
        assert_eq!((j.r, j.t, j.s, j.q), (1, 1, 7, 4));
        assert_eq!(d.topo_order(), &[0, 1, 2, 3]);
        assert!(d.is_topological(&[0, 2, 1, 3]));
        assert!(!d.is_topological(&[1, 0, 2, 3]));
        assert!(!d.is_topological(&[0, 1, 2]));
        assert!(!d.is_topological(&[0, 1, 2, 2]));
    }

    #[test]
    fn task_costs_follow_the_width() {
        let d = diamond();
        let costs = d.task_costs();
        assert_eq!(costs[2].in_blocks, 7);
        assert_eq!(costs[2].out_blocks, 3);
        assert_eq!(costs[2].updates, 3);
        assert_eq!(d.total_updates(), 7);
    }

    #[test]
    fn chains_are_chains() {
        let c = DagJob::chain("c", &[2, 2, 2]);
        assert_eq!(c.topo_order(), &[0, 1, 2]);
        assert_eq!(c.preds(2), &[1]);
        assert!(c.is_topological(&[0, 1, 2]));
        assert!(!c.is_topological(&[0, 2, 1]));
    }

    #[test]
    fn invalid_graphs_are_rejected() {
        assert_eq!(DagJob::new("e", vec![]).unwrap_err(), GraphError::Empty);
        assert_eq!(
            DagJob::new("z", vec![TaskSpec::new("t", 0, vec![])]).unwrap_err(),
            GraphError::ZeroWidth { task: "t".into() }
        );
        assert_eq!(
            DagJob::new("d", vec![TaskSpec::new("t", 1, vec![7])]).unwrap_err(),
            GraphError::BadDep {
                task: "t".into(),
                dep: 7
            }
        );
        let cyc = DagJob::new(
            "c",
            vec![
                TaskSpec::new("x", 1, vec![1]),
                TaskSpec::new("y", 1, vec![0]),
            ],
        )
        .unwrap_err();
        assert!(matches!(cyc, GraphError::Cycle { .. }), "{cyc:?}");
        assert!(cyc.to_string().contains("cycle"));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let err = DagJob::new("s", vec![TaskSpec::new("t", 1, vec![0])]).unwrap_err();
        assert_eq!(err, GraphError::Cycle { task: "t".into() });
    }

    #[test]
    fn duplicate_deps_are_collapsed() {
        let d = DagJob::new(
            "dup",
            vec![
                TaskSpec::new("a", 1, vec![]),
                TaskSpec::new("b", 1, vec![0, 0, 0]),
            ],
        )
        .unwrap();
        assert_eq!(d.preds(1), &[0]);
    }
}
