//! Serial CSR SpMV — the functional ground truth.

use chason_sparse::{CooMatrix, CsrMatrix};

/// Computes `y = A·x` with a serial CSR kernel.
///
/// This is the oracle every accelerator engine is checked against.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()`.
///
/// # Example
///
/// ```
/// use chason_baselines::reference::spmv;
/// use chason_sparse::CooMatrix;
///
/// # fn main() -> Result<(), chason_sparse::SparseError> {
/// let m = CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)])?;
/// assert_eq!(spmv(&m, &[1.0, 10.0]), vec![2.0, 30.0]);
/// # Ok(())
/// # }
/// ```
pub fn spmv(matrix: &CooMatrix, x: &[f32]) -> Vec<f32> {
    CsrMatrix::from(matrix).spmv(x)
}

/// Computes `y = A·x` directly from a CSR matrix.
///
/// # Panics
///
/// Panics if `x.len() != matrix.cols()`.
pub fn spmv_csr(matrix: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    matrix.spmv(x)
}

/// Maximum relative row-wise difference between two result vectors, used to
/// compare FP32 results under reassociation.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn max_relative_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "result vectors must be the same length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let scale = x.abs().max(y.abs()).max(1.0) as f64;
            (x as f64 - y as f64).abs() / scale
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sparse::generators::uniform_random;

    #[test]
    fn matches_coo_spmv() {
        let m = uniform_random(100, 80, 500, 9);
        let x: Vec<f32> = (0..80).map(|i| i as f32 * 0.1).collect();
        assert_eq!(spmv(&m, &x), m.spmv(&x));
    }

    #[test]
    fn csr_entry_point_agrees() {
        let m = uniform_random(50, 50, 200, 1);
        let csr = CsrMatrix::from(&m);
        let x = vec![1.5f32; 50];
        assert_eq!(spmv(&m, &x), spmv_csr(&csr, &x));
    }

    #[test]
    fn relative_error_of_identical_vectors_is_zero() {
        assert_eq!(max_relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn relative_error_scales_by_magnitude() {
        // 1001 vs 1000: relative error 1e-3.
        let e = max_relative_error(&[1001.0], &[1000.0]);
        assert!((e - 1e-3).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn relative_error_rejects_length_mismatch() {
        let _ = max_relative_error(&[1.0], &[1.0, 2.0]);
    }
}
