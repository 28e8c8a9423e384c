//! Dense tableau primal simplex with Bland's anti-cycling rule.

use std::fmt;

/// Numerical tolerance for pivoting and optimality tests.
const EPS: f64 = 1e-10;

/// `maximize cᵀx  s.t.  Ax ≤ b, x ≥ 0` with `b ≥ 0`.
///
/// Built with [`LpProblem::maximize`] and one [`LpProblem::le`] per row;
/// the three fields are the dense form the solver (and anyone printing
/// or comparing a formulation) reads.
#[derive(Clone, Debug, PartialEq)]
pub struct LpProblem {
    /// Objective coefficients, one per structural variable.
    pub objective: Vec<f64>,
    /// Constraint matrix rows (each of length `objective.len()`).
    pub constraints: Vec<Vec<f64>>,
    /// Right-hand sides (must be non-negative).
    pub rhs: Vec<f64>,
}

/// An optimal solution.
#[derive(Clone, Debug, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal structural variable values.
    pub x: Vec<f64>,
}

/// Solver failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// Problem shape is inconsistent or a RHS is negative.
    Malformed(String),
    /// The feasible region is unbounded in the objective direction.
    Unbounded,
    /// Pivot limit exceeded (should not happen with Bland's rule; kept as
    /// a defensive bound).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Malformed(msg) => write!(f, "malformed LP: {msg}"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

impl LpProblem {
    /// An LP over `objective.len()` variables maximizing `objective · x`,
    /// with no rows yet.
    pub fn maximize(objective: Vec<f64>) -> Self {
        LpProblem {
            objective,
            constraints: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Appends the row `Σ coef · x_var ≤ rhs`. Sparse in, dense out: the
    /// terms are consumed as they come (no temporary list), the row is
    /// the one allocation. A variable named twice contributes the sum of
    /// its coefficients; an empty term list is the vacuous row
    /// `0 · x ≤ rhs`.
    ///
    /// # Panics
    /// Panics on a variable index the objective does not cover.
    pub fn le(&mut self, terms: impl IntoIterator<Item = (usize, f64)>, rhs: f64) {
        let n = self.objective.len();
        let mut row = vec![0.0; n];
        for (var, coef) in terms {
            assert!(var < n, "variable {var} out of range: the LP has {n}");
            row[var] += coef;
        }
        self.constraints.push(row);
        self.rhs.push(rhs);
    }

    /// Validates shapes and signs.
    fn validate(&self) -> Result<(usize, usize), LpError> {
        let n = self.objective.len();
        let m = self.constraints.len();
        if n == 0 {
            return Err(LpError::Malformed("no variables".into()));
        }
        if m != self.rhs.len() {
            return Err(LpError::Malformed(format!(
                "{m} constraint rows but {} right-hand sides",
                self.rhs.len()
            )));
        }
        for (i, row) in self.constraints.iter().enumerate() {
            if row.len() != n {
                return Err(LpError::Malformed(format!(
                    "constraint {i} has {} coefficients, expected {n}",
                    row.len()
                )));
            }
        }
        for (i, &b) in self.rhs.iter().enumerate() {
            if !b.is_finite() || b < -EPS {
                return Err(LpError::Malformed(format!("rhs[{i}] = {b} must be >= 0")));
            }
        }
        Ok((n, m))
    }

    /// Solves the problem with the primal simplex method.
    ///
    /// With `b ≥ 0` the all-slack basis is feasible, so the method starts
    /// there and pivots with Bland's smallest-index rule until no
    /// improving column remains.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let (n, m) = self.validate()?;
        let cols = n + m + 1; // structural + slack + rhs
                              // Tableau rows 0..m: constraints; row m: objective (negated).
        let mut t = vec![vec![0.0f64; cols]; m + 1];
        for i in 0..m {
            t[i][..n].copy_from_slice(&self.constraints[i]);
            t[i][n + i] = 1.0;
            t[i][cols - 1] = self.rhs[i].max(0.0);
        }
        for (j, &obj) in self.objective.iter().enumerate() {
            t[m][j] = -obj;
        }
        // basis[i] = variable index basic in row i.
        let mut basis: Vec<usize> = (n..n + m).collect();

        // Generous defensive bound: Bland's rule terminates finitely, but
        // cap the pivot count so a numerical pathology cannot spin.
        let max_iters = 50 * (n + m + 1) * (n + m + 1);
        for _ in 0..max_iters {
            // Bland: entering column = smallest index with negative
            // reduced cost.
            let Some(pivot_col) = (0..cols - 1).find(|&j| t[m][j] < -EPS) else {
                // Optimal: extract structural values.
                let mut x = vec![0.0; n];
                for (i, &bv) in basis.iter().enumerate() {
                    if bv < n {
                        x[bv] = t[i][cols - 1];
                    }
                }
                return Ok(LpSolution {
                    objective: t[m][cols - 1],
                    x,
                });
            };
            // Ratio test; Bland tie-break on smallest basic variable index.
            let mut pivot_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = t[i][pivot_col];
                if a > EPS {
                    let ratio = t[i][cols - 1] / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && pivot_row.is_some_and(|r| basis[i] < basis[r]));
                    if better {
                        best_ratio = ratio;
                        pivot_row = Some(i);
                    }
                }
            }
            let Some(pr) = pivot_row else {
                return Err(LpError::Unbounded);
            };
            pivot(&mut t, pr, pivot_col);
            basis[pr] = pivot_col;
        }
        Err(LpError::IterationLimit)
    }
}

/// Gaussian pivot on `t[row][col]`.
fn pivot(t: &mut [Vec<f64>], row: usize, col: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
    for v in t[row].iter_mut() {
        *v /= p;
    }
    let pivot_row = t[row].clone();
    for (i, r) in t.iter_mut().enumerate() {
        if i == row {
            continue;
        }
        let factor = r[col];
        if factor.abs() > EPS {
            for (v, pv) in r.iter_mut().zip(&pivot_row) {
                *v -= factor * pv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-8, "{a} != {b}");
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        // Optimum at (2, 6) with value 36.
        let lp = LpProblem {
            objective: vec![3.0, 5.0],
            constraints: vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            rhs: vec![4.0, 12.0, 18.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn single_variable_bound() {
        // max x s.t. 2x <= 10 → x = 5.
        let lp = LpProblem {
            objective: vec![1.0],
            constraints: vec![vec![2.0]],
            rhs: vec![10.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn detects_unbounded() {
        // max x with no binding constraint on x.
        let lp = LpProblem {
            objective: vec![1.0, 0.0],
            constraints: vec![vec![0.0, 1.0]],
            rhs: vec![1.0],
        };
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_rhs_degenerate_instance_terminates() {
        // Degenerate: several zero RHS rows. Bland's rule must not cycle.
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            constraints: vec![vec![1.0, -1.0], vec![-1.0, 1.0], vec![1.0, 1.0]],
            rhs: vec![0.0, 0.0, 2.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 1.0);
    }

    #[test]
    fn zero_constraint_row_is_vacuous() {
        // A 0·x ≤ b row can never bind (and must never be pivoted on).
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            constraints: vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]],
            rhs: vec![3.0, 1.0, 2.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn le_lays_dense_rows_from_sparse_terms() {
        let mut lp = LpProblem::maximize(vec![3.0, 5.0]);
        lp.le([(0, 1.0)], 4.0);
        lp.le([(1, 2.0)], 12.0);
        // Any iterator, any order; a variable named twice sums.
        lp.le([(1, 2.0), (0, 1.0), (0, 2.0)].into_iter().rev(), 18.0);
        // No terms at all: the vacuous row of the test above.
        lp.le([], 7.0);
        assert_eq!(
            lp,
            LpProblem {
                objective: vec![3.0, 5.0],
                constraints: vec![
                    vec![1.0, 0.0],
                    vec![0.0, 2.0],
                    vec![3.0, 2.0],
                    vec![0.0, 0.0]
                ],
                rhs: vec![4.0, 12.0, 18.0, 7.0],
            }
        );
        assert_close(lp.solve().unwrap().objective, 36.0);
    }

    #[test]
    #[should_panic(expected = "variable 2 out of range: the LP has 2")]
    fn le_rejects_a_variable_the_objective_does_not_cover() {
        LpProblem::maximize(vec![1.0, 1.0]).le([(0, 1.0), (2, 1.0)], 1.0);
    }

    #[test]
    fn zero_row_with_zero_rhs_is_doubly_degenerate() {
        // 0·x ≤ 0 is satisfied with equality by every point; the basis
        // stays degenerate for the whole run and Bland's rule must still
        // terminate at the true optimum.
        let lp = LpProblem {
            objective: vec![2.0, 1.0],
            constraints: vec![vec![0.0, 0.0], vec![0.0, 0.0], vec![1.0, 1.0]],
            rhs: vec![0.0, 0.0, 4.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 8.0);
        assert_close(sol.x[0], 4.0);
    }

    #[test]
    fn no_constraints_is_unbounded() {
        // An empty constraint set leaves max x unbounded — the solver
        // must say so rather than return garbage.
        let lp = LpProblem {
            objective: vec![1.0],
            constraints: vec![],
            rhs: vec![],
        };
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_objective_is_trivially_optimal_at_the_origin() {
        let lp = LpProblem {
            objective: vec![0.0, 0.0],
            constraints: vec![vec![1.0, 1.0]],
            rhs: vec![5.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert!(sol.x.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn negative_objective_coefficients_stay_at_zero() {
        // max -x - y: the origin (all slack) is already optimal; no pivot
        // may be taken on a column with non-negative reduced cost.
        let lp = LpProblem {
            objective: vec![-1.0, -2.0],
            constraints: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            rhs: vec![3.0, 3.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.x[0], 0.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn empty_objective_is_malformed() {
        let lp = LpProblem {
            objective: vec![],
            constraints: vec![],
            rhs: vec![],
        };
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn infeasible_encoding_is_rejected_as_malformed() {
        // In the `Ax ≤ b, x ≥ 0, b ≥ 0` normal form the origin is always
        // feasible, so true infeasibility can only be smuggled in through
        // a negative RHS — which must be rejected up front, not solved.
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            constraints: vec![vec![1.0, 1.0], vec![-1.0, -1.0]],
            rhs: vec![4.0, -5.0], // x + y ≤ 4 and x + y ≥ 5: empty region
        };
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn rejects_negative_rhs() {
        let lp = LpProblem {
            objective: vec![1.0],
            constraints: vec![vec![1.0]],
            rhs: vec![-1.0],
        };
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn rejects_ragged_matrix() {
        let lp = LpProblem {
            objective: vec![1.0, 2.0],
            constraints: vec![vec![1.0]],
            rhs: vec![1.0],
        };
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn inactive_constraints_do_not_bind() {
        // max x + y s.t. x <= 1, y <= 1, x + y <= 10 (slack).
        let lp = LpProblem {
            objective: vec![1.0, 1.0],
            constraints: vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]],
            rhs: vec![1.0, 1.0, 10.0],
        };
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn solution_is_feasible_and_vertex_optimal_on_random_instances() {
        // Brute-force cross-check on random 2-variable LPs by enumerating
        // constraint-pair intersections (vertices).
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let m = rng.random_range(1..5usize);
            let objective = vec![rng.random_range(0.1..2.0), rng.random_range(0.1..2.0)];
            let constraints: Vec<Vec<f64>> = (0..m)
                .map(|_| vec![rng.random_range(0.1..2.0), rng.random_range(0.1..2.0)])
                .collect();
            let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(0.5..5.0)).collect();
            let lp = LpProblem {
                objective: objective.clone(),
                constraints: constraints.clone(),
                rhs: rhs.clone(),
            };
            let sol = lp.solve().unwrap();
            // Feasibility.
            for (row, &b) in constraints.iter().zip(&rhs) {
                let lhs: f64 = row.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
                assert!(lhs <= b + 1e-6, "violated: {lhs} > {b}");
            }
            assert!(sol.x.iter().all(|&x| x >= -1e-9));
            // Vertex enumeration upper bound. All coefficients positive →
            // bounded. Candidate vertices: axis intercepts and pairwise
            // intersections.
            let mut best = 0.0f64;
            let mut candidates: Vec<[f64; 2]> = vec![[0.0, 0.0]];
            for (row, &b) in constraints.iter().zip(&rhs) {
                candidates.push([b / row[0], 0.0]);
                candidates.push([0.0, b / row[1]]);
            }
            for i in 0..m {
                for j in i + 1..m {
                    let (a1, b1) = (&constraints[i], rhs[i]);
                    let (a2, b2) = (&constraints[j], rhs[j]);
                    let det = a1[0] * a2[1] - a1[1] * a2[0];
                    if det.abs() > 1e-9 {
                        let x = (b1 * a2[1] - b2 * a1[1]) / det;
                        let y = (a1[0] * b2 - a2[0] * b1) / det;
                        candidates.push([x, y]);
                    }
                }
            }
            for cand in candidates {
                if cand[0] < -1e-9 || cand[1] < -1e-9 {
                    continue;
                }
                let feasible = constraints
                    .iter()
                    .zip(&rhs)
                    .all(|(row, &b)| row[0] * cand[0] + row[1] * cand[1] <= b + 1e-7);
                if feasible {
                    best = best.max(objective[0] * cand[0] + objective[1] * cand[1]);
                }
            }
            assert!(
                (sol.objective - best).abs() < 1e-5,
                "simplex {} vs vertex enumeration {best}",
                sol.objective
            );
        }
    }
}
