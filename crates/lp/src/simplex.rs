//! Primal simplex with Bland's anti-cycling rule, on a tableau sized to
//! the LP: a flat dense buffer for a small LP, a sparse tableau for a
//! large one, both taking the same pivots with the same arithmetic.

use std::fmt;

/// Numerical tolerance for pivoting and optimality tests.
const EPS: f64 = 1e-10;

/// Tableaux of at most this many entries, `(m + 1) · (n + m + 1)`, are
/// pivoted on a flat dense buffer, larger ones on the sparse tableau;
/// the two agree to the bit. Measured on a 2-core x86-64 box: sparse
/// takes 0.95× flat's time on a 2 244-entry star LP of `core::steady`,
/// 0.47× at 8 580 and 0.03× at 512 workers, but 8–11× on the denser
/// weighted max-min LPs of 1 040 to 7 718 entries.
const FLAT_MAX_ENTRIES: usize = 8_192;

/// `maximize cᵀx  s.t.  Ax ≤ b, x ≥ 0` with `b ≥ 0`, built with
/// [`LpProblem::maximize`] and one [`LpProblem::le`] per row.
#[derive(Clone, Debug, PartialEq)]
pub struct LpProblem {
    objective: Vec<f64>,
    /// Row after row, each row's `(variable, coefficient)` terms sorted
    /// by variable, one per variable; row `i` ends at `row_end[i]`.
    terms: Vec<(usize, f64)>,
    row_end: Vec<usize>,
    rhs: Vec<f64>,
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
    /// No variables, a non-finite coefficient, or a negative or
    /// non-finite right-hand side.
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
    /// with no rows yet. There is room for `2n` rows of `4n` terms in
    /// all, which a star's steady-state LP and a stream allocator's LP
    /// stay within: regrowing the buffers would cost a small LP about as
    /// much as its solve.
    pub fn maximize(objective: Vec<f64>) -> Self {
        let n = objective.len();
        LpProblem {
            objective,
            terms: Vec::with_capacity(4 * n),
            row_end: Vec::with_capacity(2 * n),
            rhs: Vec::with_capacity(2 * n),
        }
    }

    /// Appends the row `Σ coef · x_var ≤ rhs`, stored sparse: its terms
    /// sorted by variable, a variable named twice holding the sum of its
    /// coefficients in call order. An empty term list is the vacuous row
    /// `0 · x ≤ rhs`.
    ///
    /// # Panics
    /// Panics on a variable index the objective does not cover.
    pub fn le(&mut self, terms: impl IntoIterator<Item = (usize, f64)>, rhs: f64) {
        let (n, start) = (self.objective.len(), self.terms.len());
        for (var, coef) in terms {
            assert!(var < n, "variable {var} out of range: the LP has {n}");
            match self.terms[start..].binary_search_by_key(&var, |t| t.0) {
                Ok(k) => self.terms[start + k].1 += coef,
                Err(k) => self.terms.insert(start + k, (var, coef)),
            }
        }
        self.row_end.push(self.terms.len());
        self.rhs.push(rhs);
    }

    /// The objective coefficients, one per variable.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The right-hand sides, one per row.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Row `i`'s `(variable, coefficient)` terms, sorted by variable.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.terms[i.checked_sub(1).map_or(0, |p| self.row_end[p])..self.row_end[i]]
    }

    /// Row `i` over every variable, `0.0` where it names none.
    pub fn dense_row(&self, i: usize) -> Vec<f64> {
        let mut row = vec![0.0; self.objective.len()];
        for &(var, coef) in self.row(i) {
            row[var] = coef;
        }
        row
    }

    /// Checks for variables, finite coefficients and finite, non-negative
    /// right-hand sides; returns `(n, m)`.
    fn validate(&self) -> Result<(usize, usize), LpError> {
        let malformed = |msg: String| Err(LpError::Malformed(msg));
        if self.objective.is_empty() {
            return malformed("no variables".into());
        }
        if let Some(j) = self.objective.iter().position(|c| !c.is_finite()) {
            let c = self.objective[j];
            return malformed(format!("objective coefficient {c} of x{j} is not finite"));
        }
        if let Some(k) = self.terms.iter().position(|(_, c)| !c.is_finite()) {
            let ((var, c), i) = (self.terms[k], self.row_end.partition_point(|&end| end <= k));
            return malformed(format!(
                "constraint {i}: coefficient {c} of x{var} is not finite"
            ));
        }
        if let Some(i) = self.rhs.iter().position(|b| !b.is_finite() || *b < -EPS) {
            return malformed(format!("rhs[{i}] = {} must be >= 0", self.rhs[i]));
        }
        Ok((self.objective.len(), self.rhs.len()))
    }

    /// Solves the problem with the primal simplex method.
    ///
    /// With `b ≥ 0` the all-slack basis is feasible, so the method starts
    /// there and pivots with Bland's smallest-index rule until no
    /// improving column remains.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let (n, m) = self.validate()?;
        if flat_fits(n, m) {
            bland(Flat::new(self), n, m)
        } else {
            bland(Sparse::new(self), n, m)
        }
    }
}

/// Whether an LP of `n` variables and `m` rows takes the flat tableau.
fn flat_fits(n: usize, m: usize) -> bool {
    (m + 1).saturating_mul(n + m + 1) <= FLAT_MAX_ENTRIES
}

/// A simplex tableau: constraint rows `0..m` over the `n` structural and
/// `m` slack columns, the negated objective as row `m`, and the
/// right-hand-side column.
trait Tableau {
    /// Bland's entering column: the first with reduced cost `< −EPS`.
    fn entering(&self) -> Option<usize>;
    /// Calls `visit(i, a, b)` with the entry `a` in column `col` and the
    /// right-hand side `b` of each constraint row `i` that may hold a
    /// non-zero there, in increasing `i`.
    fn column(&mut self, col: usize, visit: impl FnMut(usize, f64, f64));
    /// Gaussian pivot on the entry in row `row`, column `col`.
    fn pivot(&mut self, row: usize, col: usize);
    /// Row `i`'s right-hand side (row `m`'s is the objective value).
    fn rhs(&self, i: usize) -> f64;
}

/// Bland's pivots from the all-slack basis until no column improves.
fn bland(mut t: impl Tableau, n: usize, m: usize) -> Result<LpSolution, LpError> {
    // basis[i] = variable index basic in row i.
    let mut basis: Vec<usize> = (n..n + m).collect();
    // Generous defensive bound: Bland's rule terminates finitely, but
    // cap the pivot count so a numerical pathology cannot spin.
    let max_iters = 50 * (n + m + 1) * (n + m + 1);
    for _ in 0..max_iters {
        let Some(pivot_col) = t.entering() else {
            // Optimal: extract structural values.
            let mut x = vec![0.0; n];
            for (i, &bv) in basis.iter().enumerate() {
                if bv < n {
                    x[bv] = t.rhs(i);
                }
            }
            return Ok(LpSolution {
                objective: t.rhs(m),
                x,
            });
        };
        // Ratio test; Bland tie-break on smallest basic variable index.
        let mut pivot_row: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        t.column(pivot_col, |i, a, b| {
            if a > EPS {
                let ratio = b / a;
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && pivot_row.is_some_and(|r| basis[i] < basis[r]));
                if better {
                    best_ratio = ratio;
                    pivot_row = Some(i);
                }
            }
        });
        let Some(pr) = pivot_row else {
            return Err(LpError::Unbounded);
        };
        t.pivot(pr, pivot_col);
        basis[pr] = pivot_col;
    }
    Err(LpError::IterationLimit)
}

/// The tableau in one row-major buffer, `cols = n + m + 1` to a row.
struct Flat {
    t: Vec<f64>,
    cols: usize,
    m: usize,
}

impl Flat {
    fn new(lp: &LpProblem) -> Self {
        let (n, m) = (lp.objective.len(), lp.rhs.len());
        let cols = n + m + 1;
        let mut t = vec![0.0; (m + 1) * cols];
        for (i, row) in t.chunks_exact_mut(cols).enumerate() {
            if i < m {
                lp.row(i).iter().for_each(|&(j, a)| row[j] = a);
                (row[n + i], row[cols - 1]) = (1.0, lp.rhs[i].max(0.0));
            } else {
                row.iter_mut().zip(&lp.objective).for_each(|(v, c)| *v = -c);
            }
        }
        Flat { t, cols, m }
    }
}

impl Tableau for Flat {
    fn entering(&self) -> Option<usize> {
        let objective = &self.t[self.m * self.cols..self.t.len() - 1];
        objective.iter().position(|&c| c < -EPS)
    }

    fn column(&mut self, col: usize, mut visit: impl FnMut(usize, f64, f64)) {
        for (i, row) in self.t.chunks_exact(self.cols).take(self.m).enumerate() {
            visit(i, row[col], row[self.cols - 1]);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let (above, rest) = self.t.split_at_mut(row * self.cols);
        let (pivot_row, below) = rest.split_at_mut(self.cols);
        let p = pivot_row[col];
        pivot_row.iter_mut().for_each(|v| *v /= p);
        for r in above
            .chunks_exact_mut(self.cols)
            .chain(below.chunks_exact_mut(self.cols))
        {
            let factor = r[col];
            if factor.abs() > EPS {
                r.iter_mut()
                    .zip(&*pivot_row)
                    .for_each(|(v, pv)| *v -= factor * pv);
            }
        }
    }

    fn rhs(&self, i: usize) -> f64 {
        self.t[i * self.cols + self.cols - 1]
    }
}

/// Ends a column's chain of links.
const NIL: usize = usize::MAX;

/// The tableau stored sparse. Constraint row `i` is `entries[at..at +
/// len]` for `span[i] = (at, len, cap)`, sorted by column; a pivot
/// rewrites a row in place, or at the end of `entries` with twice the
/// room when its fill-in outgrows `cap`.
/// Column `j`'s rows are a chain of `(row, next)` links from `head[j]`.
/// The objective row and the right-hand side are dense.
struct Sparse {
    entries: Vec<(usize, f64)>,
    span: Vec<(usize, usize, usize)>,
    head: Vec<usize>,
    links: Vec<(usize, usize)>,
    objective: Vec<f64>,
    b: Vec<f64>,
    /// Scratch: the pivot row, a row being rewritten, a column's rows.
    pivot_row: Vec<(usize, f64)>,
    merged: Vec<(usize, f64)>,
    order: Vec<usize>,
}

/// The entry in column `col` of a row on that column's chain.
fn entry(row: &[(usize, f64)], col: usize) -> f64 {
    let at = row.binary_search_by_key(&col, |e| e.0);
    row[at.expect("a chained row holds the entry")].1
}

impl Sparse {
    fn new(lp: &LpProblem) -> Self {
        let (n, m) = (lp.objective.len(), lp.rhs.len());
        let objective = lp.objective.iter().map(|c| -c);
        let mut t = Sparse {
            entries: Vec::with_capacity(2 * (lp.terms.len() + m)),
            span: Vec::with_capacity(m),
            head: vec![NIL; n + m],
            links: Vec::with_capacity(2 * (lp.terms.len() + m)),
            objective: objective.chain(std::iter::repeat_n(0.0, m)).collect(),
            b: lp.rhs.iter().map(|b| b.max(0.0)).chain([0.0]).collect(),
            pivot_row: Vec::with_capacity(n + m),
            merged: Vec::with_capacity(n + m),
            order: Vec::with_capacity(m),
        };
        for i in 0..m {
            let at = t.entries.len();
            t.entries.extend(lp.row(i).iter().chain(&[(n + i, 1.0)]));
            t.span
                .push((at, t.entries.len() - at, t.entries.len() - at));
            for k in at..t.entries.len() {
                t.link(t.entries[k].0, i);
            }
        }
        t
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        let (at, len, _) = self.span[i];
        &self.entries[at..at + len]
    }

    /// Puts row `row` on column `col`'s chain.
    fn link(&mut self, col: usize, row: usize) {
        self.links.push((row, self.head[col]));
        self.head[col] = self.links.len() - 1;
    }

    /// Collects the rows on column `col`'s chain into `order`.
    fn rows_of(&mut self, col: usize) {
        self.order.clear();
        let mut node = self.head[col];
        while node != NIL {
            let (row, next) = self.links[node];
            self.order.push(row);
            node = next;
        }
    }
}

impl Tableau for Sparse {
    fn entering(&self) -> Option<usize> {
        self.objective.iter().position(|&c| c < -EPS)
    }

    fn column(&mut self, col: usize, mut visit: impl FnMut(usize, f64, f64)) {
        self.rows_of(col);
        self.order.sort_unstable();
        for &i in &self.order {
            visit(i, entry(self.row(i), col), self.b[i]);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let (at, len, _) = self.span[row];
        let p = entry(&self.entries[at..at + len], col);
        self.entries[at..at + len].iter_mut().for_each(|e| e.1 /= p);
        self.b[row] /= p;
        self.pivot_row.clear();
        self.pivot_row
            .extend_from_slice(&self.entries[at..at + len]);
        // A row whose entry in `col` passes EPS takes `v -= factor · pv`,
        // which leaves exactly zero there: the entry and its link go.
        self.rows_of(col);
        self.head[col] = NIL;
        for k in 0..self.order.len() {
            let i = self.order[k];
            let factor = entry(self.row(i), col);
            if i == row || factor.abs() <= EPS {
                self.link(col, i);
                continue;
            }
            self.b[i] -= factor * self.b[row];
            self.merged.clear();
            let (at, len, _) = self.span[i];
            let (mut r, mut q) = (&self.entries[at..at + len], &self.pivot_row[..]);
            loop {
                match (r.first(), q.first()) {
                    (Some(&(j, v)), Some(&(jq, pv))) if j == jq => {
                        if j != col {
                            self.merged.push((j, v - factor * pv));
                        }
                        (r, q) = (&r[1..], &q[1..]);
                    }
                    (next, Some(&(jq, pv))) if next.is_none_or(|&(j, _)| jq < j) => {
                        // Fill-in: the dense update of the zero held here.
                        self.merged.push((jq, 0.0 - factor * pv));
                        self.links.push((i, self.head[jq]));
                        self.head[jq] = self.links.len() - 1;
                        q = &q[1..];
                    }
                    (Some(&e), _) => {
                        self.merged.push(e);
                        r = &r[1..];
                    }
                    (None, _) => break,
                }
            }
            let (mut at, len, mut cap) = (at, self.merged.len(), self.span[i].2);
            if len > cap {
                (at, cap) = (self.entries.len(), 2 * len);
                self.entries.resize(at + cap, (0, 0.0));
            }
            self.entries[at..at + len].copy_from_slice(&self.merged);
            self.span[i] = (at, len, cap);
        }
        // Row m: its entry in `col`, the entering column's reduced cost, is
        // below −EPS, so it always takes the update.
        let factor = self.objective[col];
        for &(j, pv) in &self.pivot_row {
            self.objective[j] -= factor * pv;
        }
        let m = self.span.len();
        self.b[m] -= factor * self.b[row];
    }

    fn rhs(&self, i: usize) -> f64 {
        self.b[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stargemm_core::steady::{federated_lp, generalized_lp};
    use stargemm_core::Job;
    use stargemm_netmodel::NetModelSpec;
    use stargemm_platform::{DynPlatform, FedPlatform, FedStar, Platform, WorkerSpec};
    use stargemm_stream::allocator::maxmin_lp;
    use stargemm_stream::JobDemand;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-8, "{a} != {b}");
    }

    /// An LP written out dense: the objective, then `(row, rhs)` pairs.
    fn lp(objective: &[f64], rows: &[(&[f64], f64)]) -> LpProblem {
        let mut lp = LpProblem::maximize(objective.to_vec());
        for &(row, rhs) in rows {
            lp.le(row.iter().copied().enumerate(), rhs);
        }
        lp
    }

    /// The dense solver both storages reproduce, kept as their oracle:
    /// one `Vec` per tableau row, the pivot row cloned at every pivot.
    fn dense_reference(lp: &LpProblem) -> Result<LpSolution, LpError> {
        let (n, m) = lp.validate()?;
        let cols = n + m + 1; // structural + slack + rhs
                              // Tableau rows 0..m: constraints; row m: objective (negated).
        let mut t = vec![vec![0.0f64; cols]; m + 1];
        for i in 0..m {
            t[i][..n].copy_from_slice(&lp.dense_row(i));
            t[i][n + i] = 1.0;
            t[i][cols - 1] = lp.rhs[i].max(0.0);
        }
        for (j, &obj) in lp.objective.iter().enumerate() {
            t[m][j] = -obj;
        }
        // basis[i] = variable index basic in row i.
        let mut basis: Vec<usize> = (n..n + m).collect();
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

    fn flat(lp: &LpProblem) -> Result<LpSolution, LpError> {
        let (n, m) = lp.validate()?;
        bland(Flat::new(lp), n, m)
    }

    fn sparse(lp: &LpProblem) -> Result<LpSolution, LpError> {
        let (n, m) = lp.validate()?;
        bland(Sparse::new(lp), n, m)
    }

    /// Equal bits, `+0.0` and `−0.0` counted equal.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    /// Both storages, forced, return the reference's variant, and on
    /// `Ok` its objective and every `x_j` to the bit.
    fn storages_agree(lp: &LpProblem) -> Result<(), TestCaseError> {
        let want = dense_reference(lp);
        for (storage, got) in [("flat", flat(lp)), ("sparse", sparse(lp))] {
            match (&want, &got) {
                (Ok(w), Ok(g)) => prop_assert!(
                    same_bits(w.objective, g.objective)
                        && w.x.len() == g.x.len()
                        && w.x.iter().zip(&g.x).all(|(&a, &b)| same_bits(a, b)),
                    "{storage}: {g:?}, reference {w:?}, on {lp:?}"
                ),
                _ => prop_assert_eq!(&got, &want, "{storage} on {lp:?}"),
            }
        }
        Ok(())
    }

    /// The same LP rebuilt in this crate's type: the workspace's
    /// formulations come from `stargemm-core` and `stargemm-stream`,
    /// which link the library build of this crate.
    macro_rules! local {
        ($lp:expr) => {{
            let built = $lp;
            let mut lp = LpProblem::maximize(built.objective().to_vec());
            for (i, &rhs) in built.rhs().iter().enumerate() {
                lp.le(built.row(i).iter().copied(), rhs);
            }
            lp
        }};
    }

    /// Half-integers for ties and degenerate pivots, or an arbitrary
    /// value, of either sign or zero.
    fn arb_coef() -> impl Strategy<Value = f64> {
        (-6i32..7, -1.5f64..3.0, 0usize..3).prop_map(|(k, x, kind)| match kind {
            0 => x,
            _ => f64::from(k) / 2.0,
        })
    }

    /// Up to 16 variables and 16 rows of up to 6 terms: repeated
    /// variables, empty rows, zero right-hand sides, right-hand sides
    /// `6e-11` apart (ratios tied within EPS, where the ratio test's
    /// row order decides), and (with negative coefficients) unbounded
    /// directions.
    fn arb_lp() -> impl Strategy<Value = LpProblem> {
        let row = (
            prop::collection::vec((0usize..64, arb_coef()), 0..7),
            (0usize..5, 0.0f64..5.0, 0i32..3),
        );
        (
            prop::collection::vec(arb_coef(), 1..17),
            prop::collection::vec(row, 0..17),
        )
            .prop_map(|(objective, rows)| {
                let n = objective.len();
                let mut lp = LpProblem::maximize(objective);
                for (terms, (kind, b, k)) in rows {
                    let rhs = [0.0, 1.0, b, b, 1.0 + f64::from(k) * 6e-11][kind];
                    lp.le(terms.into_iter().map(|(v, c)| (v % n, c)), rhs);
                }
                lp
            })
    }

    fn arb_platform(max_workers: usize) -> impl Strategy<Value = Platform> {
        prop::collection::vec(
            (0.05f64..2.0, 0.05f64..2.0, 3usize..200)
                .prop_map(|(c, w, m)| WorkerSpec::new(c, w, m)),
            1..max_workers + 1,
        )
        .prop_map(|specs| Platform::new("lp-oracle", specs))
    }

    /// One-port, bounded multi-port with and without a backbone, fair
    /// share.
    fn model_specs(platform: &Platform) -> [NetModelSpec; 4] {
        let fastest = platform.iter().map(|(_, s)| 1.0 / s.c).fold(0.0, f64::max);
        [
            NetModelSpec::OnePort,
            NetModelSpec::BoundedMultiPort {
                k: 2,
                backbone: None,
            },
            NetModelSpec::BoundedMultiPort {
                k: 3,
                backbone: Some(1.5 * fastest),
            },
            NetModelSpec::FairShare {
                backbone: 0.75 * fastest,
            },
        ]
    }

    fn arb_job() -> impl Strategy<Value = Job> {
        (2usize..8, 2usize..8, 1usize..10).prop_map(|(r, t, s)| Job::new(r, t, s, 4))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn both_storages_match_the_dense_solver_on_random_lps(lp in arb_lp()) {
            storages_agree(&lp)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn both_storages_match_the_dense_solver_on_star_lps(
            platform in arb_platform(24),
            job in arb_job(),
        ) {
            for spec in model_specs(&platform) {
                storages_agree(&local!(generalized_lp(&platform, job.r, &spec)))?;
            }
        }

        #[test]
        fn both_storages_match_the_dense_solver_on_federated_lps(
            stars in prop::collection::vec((arb_platform(6), 0usize..4, 0.05f64..2.0), 1..4),
            uplink in 0usize..4,
            job in arb_job(),
        ) {
            let fed = FedPlatform::new(
                "lp-oracle",
                stars
                    .iter()
                    .map(|(p, kind, c_up)| {
                        let star = DynPlatform::constant(p.clone())
                            .with_netmodel(model_specs(p)[*kind]);
                        FedStar::new(star, *c_up)
                    })
                    .collect(),
                model_specs(&stars[0].0)[uplink],
            );
            storages_agree(&local!(federated_lp(&fed, &job)))?;
        }

        #[test]
        fn both_storages_match_the_dense_solver_on_maxmin_lps(
            platform in arb_platform(6),
            demands in prop::collection::vec(
                (prop::collection::vec(0usize..6, 6..7), 0.25f64..4.0),
                1..5,
            ),
        ) {
            let demands: Vec<JobDemand> = demands
                .into_iter()
                .map(|(sides, weight)| JobDemand {
                    sides: sides[..platform.len()].to_vec(),
                    weight,
                })
                .collect();
            let built = maxmin_lp(&platform, &demands);
            prop_assume!(built.is_some());
            let (_, built) = built.expect("assumed");
            storages_agree(&local!(built))?;
        }
    }

    #[test]
    fn ratios_tied_within_eps_are_resolved_in_row_order() {
        // Visited top-down, row 2's ratio beats row 0's by more than EPS
        // and wins; visited bottom-up, each row ties the next within EPS
        // and the smaller basic index, row 0, wins.
        let lp = lp(
            &[1.0],
            &[
                (&[1.0], 1.0 + 1.2e-10),
                (&[1.0], 1.0 + 0.6e-10),
                (&[1.0], 1.0),
            ],
        );
        assert_eq!(dense_reference(&lp).map(|s| s.x), Ok(vec![1.0]));
        storages_agree(&lp).expect("both storages visit rows top-down");
    }

    #[test]
    fn the_workspace_solves_on_both_storages() {
        // The stream allocator's LPs are small: two demands on two
        // workers is 4 variables and 5 rows.
        let two = Platform::new(
            "alloc",
            vec![WorkerSpec::new(0.2, 0.1, 60), WorkerSpec::new(0.4, 0.2, 40)],
        );
        let demands = [
            JobDemand {
                sides: vec![4, 3],
                weight: 1.0,
            },
            JobDemand {
                sides: vec![0, 5],
                weight: 3.0,
            },
        ];
        let (_, maxmin) = maxmin_lp(&two, &demands).expect("both demands are usable");
        assert!(flat_fits(maxmin.objective().len(), maxmin.rhs().len()));
        // The steady-state bound of a 512-worker multi-port star is not.
        let wide = Platform::homogeneous("wide", 512, WorkerSpec::new(1e-5, 1e-6, 64));
        let model = NetModelSpec::BoundedMultiPort {
            k: 16,
            backbone: Some(8e5),
        };
        let star = generalized_lp(&wide, 4, &model);
        assert!(!flat_fits(star.objective().len(), star.rhs().len()));
        storages_agree(&local!(star)).expect("the storages agree on the wide star");
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        // Optimum at (2, 6) with value 36.
        let lp = lp(
            &[3.0, 5.0],
            &[(&[1.0, 0.0], 4.0), (&[0.0, 2.0], 12.0), (&[3.0, 2.0], 18.0)],
        );
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn single_variable_bound() {
        // max x s.t. 2x <= 10 → x = 5.
        let sol = lp(&[1.0], &[(&[2.0], 10.0)]).solve().unwrap();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn detects_unbounded() {
        // max x with no binding constraint on x.
        let lp = lp(&[1.0, 0.0], &[(&[0.0, 1.0], 1.0)]);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_rhs_degenerate_instance_terminates() {
        // Degenerate: several zero RHS rows. Bland's rule must not cycle.
        let lp = lp(
            &[1.0, 1.0],
            &[(&[1.0, -1.0], 0.0), (&[-1.0, 1.0], 0.0), (&[1.0, 1.0], 2.0)],
        );
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 1.0);
    }

    #[test]
    fn zero_constraint_row_is_vacuous() {
        // A 0·x ≤ b row can never bind (and must never be pivoted on).
        let lp = lp(
            &[1.0, 1.0],
            &[(&[0.0, 0.0], 3.0), (&[1.0, 0.0], 1.0), (&[0.0, 1.0], 2.0)],
        );
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn le_stores_rows_sorted_by_variable_with_repeats_summed() {
        let mut lp = LpProblem::maximize(vec![3.0, 5.0]);
        lp.le([(0, 1.0)], 4.0);
        lp.le([(1, 2.0)], 12.0);
        // Any iterator, any order; a variable named twice sums.
        lp.le([(1, 2.0), (0, 1.0), (0, 2.0)].into_iter().rev(), 18.0);
        // No terms at all: the vacuous row of the test above.
        lp.le([], 7.0);
        assert_eq!(lp.objective(), [3.0, 5.0]);
        assert_eq!(lp.row(2), [(0, 3.0), (1, 2.0)]);
        assert_eq!(lp.row(3), []);
        let dense: Vec<Vec<f64>> = (0..4).map(|i| lp.dense_row(i)).collect();
        assert_eq!(dense, [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0], [0.0, 0.0]]);
        assert_eq!(lp.rhs(), [4.0, 12.0, 18.0, 7.0]);
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
        let lp = lp(
            &[2.0, 1.0],
            &[(&[0.0, 0.0], 0.0), (&[0.0, 0.0], 0.0), (&[1.0, 1.0], 4.0)],
        );
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 8.0);
        assert_close(sol.x[0], 4.0);
    }

    #[test]
    fn no_constraints_is_unbounded() {
        // An empty constraint set leaves max x unbounded — the solver
        // must say so rather than return garbage.
        assert_eq!(lp(&[1.0], &[]).solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_objective_is_trivially_optimal_at_the_origin() {
        let sol = lp(&[0.0, 0.0], &[(&[1.0, 1.0], 5.0)]).solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert!(sol.x.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn negative_objective_coefficients_stay_at_zero() {
        // max -x - y: the origin (all slack) is already optimal; no pivot
        // may be taken on a column with non-negative reduced cost.
        let lp = lp(&[-1.0, -2.0], &[(&[1.0, 0.0], 3.0), (&[0.0, 1.0], 3.0)]);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.x[0], 0.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn empty_objective_is_malformed() {
        assert!(matches!(lp(&[], &[]).solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn infeasible_encoding_is_rejected_as_malformed() {
        // In the `Ax ≤ b, x ≥ 0, b ≥ 0` normal form the origin is always
        // feasible, so true infeasibility can only be smuggled in through
        // a negative RHS — which must be rejected up front, not solved.
        // x + y ≤ 4 and x + y ≥ 5: empty region.
        let lp = lp(&[1.0, 1.0], &[(&[1.0, 1.0], 4.0), (&[-1.0, -1.0], -5.0)]);
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    #[test]
    fn rejects_negative_rhs() {
        let lp = lp(&[1.0], &[(&[1.0], -1.0)]);
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }

    fn malformed(msg: &str) -> Result<LpSolution, LpError> {
        Err(LpError::Malformed(msg.into()))
    }

    #[test]
    fn a_nan_objective_coefficient_is_malformed() {
        // Was dropped silently: max NaN·x0 + x1 read Ok(1.0).
        let lp = lp(&[f64::NAN, 1.0], &[(&[1.0, 1.0], 1.0)]);
        assert_eq!(
            lp.solve(),
            malformed("objective coefficient NaN of x0 is not finite")
        );
    }

    #[test]
    fn an_infinite_coefficient_is_malformed() {
        // Was an infeasible "optimum", x = [0, 2].
        let lp = lp(
            &[1.0, 1.0],
            &[(&[f64::INFINITY, 1.0], 1.0), (&[1.0, 1.0], 2.0)],
        );
        assert_eq!(
            lp.solve(),
            malformed("constraint 0: coefficient inf of x0 is not finite")
        );
    }

    #[test]
    fn a_nan_coefficient_is_malformed() {
        // Was read as Unbounded.
        let lp = lp(&[1.0, 1.0], &[(&[1.0, 1.0], 1.0), (&[0.0, f64::NAN], 1.0)]);
        assert_eq!(
            lp.solve(),
            malformed("constraint 1: coefficient NaN of x1 is not finite")
        );
    }

    #[test]
    fn a_negative_infinite_coefficient_is_malformed() {
        // Was read as Unbounded.
        let lp = lp(&[1.0], &[(&[f64::NEG_INFINITY], 1.0)]);
        assert_eq!(
            lp.solve(),
            malformed("constraint 0: coefficient -inf of x0 is not finite")
        );
    }

    #[test]
    fn inactive_constraints_do_not_bind() {
        // max x + y s.t. x <= 1, y <= 1, x + y <= 10 (slack).
        let lp = lp(
            &[1.0, 1.0],
            &[(&[1.0, 0.0], 1.0), (&[0.0, 1.0], 1.0), (&[1.0, 1.0], 10.0)],
        );
        assert_close(lp.solve().unwrap().objective, 2.0);
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
            let objective = [rng.random_range(0.1..2.0), rng.random_range(0.1..2.0)];
            let constraints: Vec<[f64; 2]> = (0..m)
                .map(|_| [rng.random_range(0.1..2.0), rng.random_range(0.1..2.0)])
                .collect();
            let rhs: Vec<f64> = (0..m).map(|_| rng.random_range(0.5..5.0)).collect();
            let rows: Vec<(&[f64], f64)> = constraints
                .iter()
                .zip(&rhs)
                .map(|(row, &b)| (&row[..], b))
                .collect();
            let sol = lp(&objective, &rows).solve().unwrap();
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
