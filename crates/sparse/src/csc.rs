use crate::{CooMatrix, CsrMatrix, SparseError, Triplet};
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse column (CSC) form.
///
/// CSC is the column-major dual of [`CsrMatrix`]. The window partitioner in
/// `chason-core` uses it to slice matrices into `W = 8192`-column segments
/// (§4.1 of the paper) without re-scanning all entries per window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Builds a CSC matrix from its raw parts.
    ///
    /// # Errors
    ///
    /// Mirrors [`CsrMatrix::from_parts`]: malformed pointer arrays, length
    /// mismatches, out-of-range row indices, or non-increasing row indices
    /// within a column are rejected.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != cols + 1 {
            return Err(SparseError::MalformedStructure(format!(
                "col_ptr length {} must be cols + 1 = {}",
                col_ptr.len(),
                cols + 1
            )));
        }
        if col_ptr.first() != Some(&0) {
            return Err(SparseError::MalformedStructure(
                "col_ptr must start at 0".to_string(),
            ));
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::MalformedStructure(format!(
                "row_idx length {} must equal values length {}",
                row_idx.len(),
                values.len()
            )));
        }
        #[allow(clippy::expect_used)] // col_ptr length was checked to be cols + 1 above
        let col_ptr_end = *col_ptr.last().expect("col_ptr is non-empty");
        if col_ptr_end != row_idx.len() {
            return Err(SparseError::MalformedStructure(format!(
                "col_ptr must end at nnz = {}",
                row_idx.len()
            )));
        }
        for w in col_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::MalformedStructure(
                    "col_ptr must be non-decreasing".to_string(),
                ));
            }
        }
        for c in 0..cols {
            let slice = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for (i, &r) in slice.iter().enumerate() {
                if r >= rows {
                    return Err(SparseError::RowOutOfBounds { row: r, rows });
                }
                if i > 0 && slice[i - 1] >= r {
                    return Err(SparseError::MalformedStructure(format!(
                        "row indices in column {c} must be strictly increasing"
                    )));
                }
            }
        }
        Ok(CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicit entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column-pointer array (`cols + 1` entries, starting at 0).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row indices and values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> (&[usize], &[f32]) {
        let span = self.col_ptr[c]..self.col_ptr[c + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Iterates over all entries as `(row, col, value)` triplets in
    /// column-major order.
    pub fn iter(&self) -> impl Iterator<Item = Triplet> + '_ {
        (0..self.cols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// Computes `y = A·x` (column-major accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols,
            "dense vector length must equal matrix columns"
        );
        let mut y = vec![0.0f32; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r] += v * xc;
            }
        }
        y
    }
}

impl From<&CooMatrix> for CscMatrix {
    fn from(coo: &CooMatrix) -> Self {
        let cols = coo.cols();
        let mut col_ptr = vec![0usize; cols + 1];
        for &(_, c, _) in coo.iter() {
            col_ptr[c + 1] += 1;
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0usize; coo.nnz()];
        let mut values = vec![0.0f32; coo.nnz()];
        // COO iterates by (row, col); filling per-column cursors yields rows
        // in increasing order within each column.
        for &(r, c, v) in coo.iter() {
            let slot = cursor[c];
            row_idx[slot] = r;
            values[slot] = v;
            cursor[c] += 1;
        }
        CscMatrix {
            rows: coo.rows(),
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

impl From<&CsrMatrix> for CscMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        CscMatrix::from(&CooMatrix::from(csr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        // [1 0 2]
        // [0 0 0]
        // [0 3 4]
        CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn conversion_from_coo_is_column_sorted() {
        let csc = CscMatrix::from(&sample_coo());
        let t: Vec<_> = csc.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.0), (2, 1, 3.0), (0, 2, 2.0), (2, 2, 4.0)]);
    }

    #[test]
    fn spmv_matches_csr() {
        let coo = sample_coo();
        let csr = CsrMatrix::from(&coo);
        let csc = CscMatrix::from(&coo);
        let x = [0.5, -2.0, 1.5];
        assert_eq!(csc.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn from_parts_validates_row_bounds() {
        let err = CscMatrix::from_parts(2, 1, vec![0, 1], vec![7], vec![1.0]).unwrap_err();
        assert_eq!(err, SparseError::RowOutOfBounds { row: 7, rows: 2 });
    }

    #[test]
    fn from_parts_validates_sorted_rows() {
        let err = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedStructure(_)));
    }

    #[test]
    fn csr_to_csc_preserves_entries() {
        let coo = sample_coo();
        let csr = CsrMatrix::from(&coo);
        let csc = CscMatrix::from(&csr);
        let mut a: Vec<_> = csc.iter().collect();
        a.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(a, coo.triplets());
    }
}
