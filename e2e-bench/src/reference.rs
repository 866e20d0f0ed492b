//! The COO reference every reply is checked against. Products are taken
//! in `f64` from the generated triplets, independently of every kernel in
//! the program under test.

use crate::workload::SOLVE_ITERATIONS;
use chason::sparse::CooMatrix;
use std::collections::BTreeMap;

/// Relative tolerance of an SpMV row, against `Σ|a_ij·x_j|` of the row.
/// `f32` accumulation over the heaviest generated rows (under a thousand
/// terms) stays an order of magnitude inside it.
const SPMV_RTOL: f64 = 1e-4;
/// Absolute floor of the SpMV tolerance, for rows whose terms cancel.
const SPMV_ATOL: f64 = 1e-6;
/// Slack allowed between a solve's reported relative residual and the one
/// recomputed here from its solution.
const RESIDUAL_RTOL: f64 = 0.05;
const RESIDUAL_ATOL: f64 = 1e-5;

/// Diagonal values a connection has written, keyed by `(matrix, row)`, in
/// the order sent. A row absent here holds only its loaded value.
pub type Held = BTreeMap<(usize, usize), Vec<f32>>;

/// One matrix: its off-diagonal part in CSR, its loaded diagonal, and its
/// off-diagonal products with every pool vector.
#[derive(Debug, Clone)]
struct MatrixRef {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Loaded diagonal (0 where the matrix has none).
    diag: Vec<f32>,
    /// Per pool vector: `(Σ_{j≠i} a_ij·x_j, Σ_{j≠i} |a_ij·x_j|)` per row.
    products: Vec<Vec<(f64, f64)>>,
}

impl MatrixRef {
    fn new(matrix: &CooMatrix, xs: &[Vec<f32>]) -> MatrixRef {
        let n = matrix.rows();
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(matrix.nnz());
        let mut vals = Vec::with_capacity(matrix.nnz());
        let mut diag = vec![0.0f32; n];
        // COO triplets are sorted by (row, col).
        for &(r, c, v) in matrix.iter() {
            if r == c {
                diag[r] = v;
            } else {
                cols.push(c);
                vals.push(f64::from(v));
                row_ptr[r + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut m = MatrixRef {
            row_ptr,
            cols,
            vals,
            diag,
            products: Vec::new(),
        };
        m.products = xs
            .iter()
            .map(|x| {
                (0..n)
                    .map(|i| {
                        let (lo, hi) = (m.row_ptr[i], m.row_ptr[i + 1]);
                        m.cols[lo..hi].iter().zip(&m.vals[lo..hi]).fold(
                            (0.0, 0.0),
                            |(s, a), (&j, &v)| {
                                let t = v * f64::from(x[j]);
                                (s + t, a + t.abs())
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        m
    }

    fn off_row(&self, i: usize, x: &[f32]) -> f64 {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.cols[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&j, &v)| v * f64::from(x[j]))
            .sum()
    }
}

/// References for every matrix of one workload.
#[derive(Debug, Clone)]
pub struct Reference {
    matrices: Vec<MatrixRef>,
}

impl Reference {
    /// Builds references for `matrices` against the pool `xs`.
    pub fn new(matrices: &[CooMatrix], xs: &[Vec<f32>]) -> Reference {
        Reference {
            matrices: matrices.iter().map(|m| MatrixRef::new(m, xs)).collect(),
        }
    }

    /// The loaded diagonal value of `row`.
    pub fn diag(&self, matrix: usize, row: usize) -> f32 {
        self.matrices[matrix].diag[row]
    }

    /// Checks `y` against `A·xs[x]`. A row whose diagonal was revalued may
    /// match any value that row has held: pipelined requests can execute
    /// concurrently with the update that changed it.
    ///
    /// # Errors
    ///
    /// The first row outside tolerance.
    pub fn check_spmv(
        &self,
        matrix: usize,
        x: usize,
        xs: &[f32],
        y: &[f32],
        held: &Held,
    ) -> Result<(), String> {
        let m = &self.matrices[matrix];
        let products = &m.products[x];
        if y.len() != products.len() {
            return Err(format!(
                "spmv returned {} rows, expected {}",
                y.len(),
                products.len()
            ));
        }
        for (i, (&(off, mag), &got)) in products.iter().zip(y).enumerate() {
            let fits = |d: f32| {
                let dx = f64::from(d) * f64::from(xs[i]);
                (f64::from(got) - (off + dx)).abs() <= SPMV_RTOL * (mag + dx.abs()) + SPMV_ATOL
            };
            let ok = fits(m.diag[i])
                || held
                    .get(&(matrix, i))
                    .is_some_and(|values| values.iter().any(|&d| fits(d)));
            if !ok {
                return Err(format!(
                    "spmv row {i}: got {got}, reference {}",
                    off + f64::from(m.diag[i]) * f64::from(xs[i])
                ));
            }
        }
        Ok(())
    }

    /// Recomputes the relative residual `‖b − A·s‖ / ‖b‖` of a solve's
    /// solution `s` (each row under whichever diagonal it has held that
    /// fits best) and checks it against the reported one.
    ///
    /// # Errors
    ///
    /// A wrong iteration count, a residual that did not fall, or a reported
    /// residual the solution does not achieve.
    pub fn check_solve(
        &self,
        matrix: usize,
        b: &[f32],
        solution: &[f32],
        reported: f64,
        iterations: u64,
        held: &Held,
    ) -> Result<(), String> {
        let expected_iterations = u64::from(SOLVE_ITERATIONS);
        let m = &self.matrices[matrix];
        if solution.len() != b.len() {
            return Err(format!(
                "solve returned {} entries, expected {}",
                solution.len(),
                b.len()
            ));
        }
        if iterations != expected_iterations {
            return Err(format!(
                "solve ran {iterations} iterations, expected {expected_iterations}"
            ));
        }
        if !reported.is_finite() || reported >= 1.0 {
            return Err(format!(
                "solve residual {reported} did not fall below the initial 1.0"
            ));
        }
        let mut rr = 0.0f64;
        let mut bb = 0.0f64;
        for (i, (&bi, &si)) in b.iter().zip(solution).enumerate() {
            let r0 = f64::from(bi) - m.off_row(i, solution);
            let residual = |d: f32| (r0 - f64::from(d) * f64::from(si)).abs();
            let best = held
                .get(&(matrix, i))
                .into_iter()
                .flatten()
                .map(|&d| residual(d))
                .fold(residual(m.diag[i]), f64::min);
            rr += best * best;
            bb += f64::from(bi) * f64::from(bi);
        }
        let recomputed = (rr / bb.max(f64::MIN_POSITIVE)).sqrt();
        if recomputed > reported * (1.0 + RESIDUAL_RTOL) + RESIDUAL_ATOL {
            return Err(format!(
                "solve reported residual {reported:.3e} but its solution leaves {recomputed:.3e}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spd_matrix;

    #[test]
    fn spmv_check_accepts_exact_and_held_diagonals_only() {
        let m = spd_matrix(64, 200, 3, 3);
        let xs = vec![(0..64)
            .map(|i| (i as f32 * 0.3).cos())
            .collect::<Vec<f32>>()];
        let reference = Reference::new(std::slice::from_ref(&m), &xs);
        let y = m.spmv(&xs[0]);
        let mut held = Held::new();
        reference
            .check_spmv(0, 0, &xs[0], &y, &held)
            .expect("exact product passes");

        // The same product after row 5's diagonal grew by 2.
        let mut bumped = y.clone();
        bumped[5] += 2.0 * xs[0][5];
        assert!(reference.check_spmv(0, 0, &xs[0], &bumped, &held).is_err());
        held.insert((0, 5), vec![reference.diag(0, 5) + 2.0]);
        reference
            .check_spmv(0, 0, &xs[0], &bumped, &held)
            .expect("held value passes");

        let mut wrong = y;
        wrong[9] *= 1.01;
        assert!(reference.check_spmv(0, 0, &xs[0], &wrong, &held).is_err());
    }

    #[test]
    fn solve_check_recomputes_the_residual() {
        use chason::solvers::{conjugate_gradient, jacobi, CgOptions, CpuBackend};
        let m = spd_matrix(64, 200, 4, 4);
        let reference = Reference::new(std::slice::from_ref(&m), &[]);
        let b: Vec<f32> = (0..64).map(|i| 1.0 + (i % 5) as f32 * 0.25).collect();
        let held = Held::new();
        let options = CgOptions {
            max_iterations: SOLVE_ITERATIONS as usize,
            tolerance: 0.0,
        };
        for solve in [conjugate_gradient, jacobi] {
            let result = solve(&mut CpuBackend::default(), &m, &b, options).expect("solves");
            let iterations = result.iterations as u64;
            reference
                .check_solve(0, &b, &result.solution, result.residual, iterations, &held)
                .expect("an honest solve passes");
            // Claiming a residual the solution does not reach fails, as do a
            // wrong iteration count and a solution that never moved.
            let claimed = result.residual / 100.0;
            assert!(reference
                .check_solve(0, &b, &result.solution, claimed, iterations, &held)
                .is_err());
            assert!(reference
                .check_solve(0, &b, &result.solution, result.residual, 7, &held)
                .is_err());
            assert!(reference
                .check_solve(0, &b, &[0.0; 64], 0.5, iterations, &held)
                .is_err());
        }
    }
}
