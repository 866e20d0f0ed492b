use crate::{SparseError, Triplet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A sparse matrix in coordinate (triplet) form.
///
/// `CooMatrix` is the construction-friendly format: entries can be supplied
/// in any order and the container validates bounds and duplicates. It is the
/// canonical input to both the schedulers and the format conversions.
///
/// Entries are stored sorted by `(row, col)` so that iteration order is
/// deterministic regardless of insertion order.
///
/// # Example
///
/// ```
/// use chason_sparse::CooMatrix;
///
/// # fn main() -> Result<(), chason_sparse::SparseError> {
/// let m = CooMatrix::from_triplets(2, 2, vec![(1, 1, 4.0), (0, 0, 1.0)])?;
/// assert_eq!(m.nnz(), 2);
/// // Entries come back sorted by (row, col):
/// assert_eq!(m.triplets()[0], (0, 0, 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Creates an empty matrix of the given shape with no explicit entries.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Builds a matrix from a list of `(row, col, value)` triplets.
    ///
    /// Entries may be given in any order; they are sorted internally.
    /// Input already strictly increasing in `(row, col)` and in bounds is
    /// accepted in one linear pass, without hashing or sorting.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::RowOutOfBounds`] / [`SparseError::ColOutOfBounds`]
    /// for out-of-range coordinates and [`SparseError::DuplicateEntry`] when
    /// two triplets share a coordinate, always for the first offending
    /// triplet in input order.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        let in_bounds = |&(r, c, _): &Triplet| r < rows && c < cols;
        let increasing = |w: &[Triplet]| (w[0].0, w[0].1) < (w[1].0, w[1].1);
        if triplets.iter().all(in_bounds) && triplets.windows(2).all(increasing) {
            return Ok(CooMatrix {
                rows,
                cols,
                entries: triplets,
            });
        }
        let mut seen = HashSet::with_capacity(triplets.len());
        for &(r, c, _) in &triplets {
            if r >= rows {
                return Err(SparseError::RowOutOfBounds { row: r, rows });
            }
            if c >= cols {
                return Err(SparseError::ColOutOfBounds { col: c, cols });
            }
            if !seen.insert((r, c)) {
                return Err(SparseError::DuplicateEntry { row: r, col: c });
            }
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        Ok(CooMatrix {
            rows,
            cols,
            entries: triplets,
        })
    }

    /// Builds a matrix from triplets, summing values of duplicate coordinates
    /// instead of rejecting them (the MatrixMarket "general" convention).
    ///
    /// # Errors
    ///
    /// Returns an error only for out-of-bounds coordinates.
    pub fn from_triplets_summing(
        rows: usize,
        cols: usize,
        mut triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &triplets {
            if r >= rows {
                return Err(SparseError::RowOutOfBounds { row: r, rows });
            }
            if c >= cols {
                return Err(SparseError::ColOutOfBounds { col: c, cols });
            }
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<Triplet> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match merged.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            entries: merged,
        })
    }

    /// Inserts a single entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CooMatrix::from_triplets`].
    pub fn insert(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        if row >= self.rows {
            return Err(SparseError::RowOutOfBounds {
                row,
                rows: self.rows,
            });
        }
        if col >= self.cols {
            return Err(SparseError::ColOutOfBounds {
                col,
                cols: self.cols,
            });
        }
        match self
            .entries
            .binary_search_by_key(&(row, col), |&(r, c, _)| (r, c))
        {
            Ok(_) => Err(SparseError::DuplicateEntry { row, col }),
            Err(pos) => {
                self.entries.insert(pos, (row, col, value));
                Ok(())
            }
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicit entries (non-zeros).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Fraction of cells that hold an explicit entry, in `[0, 1]`.
    ///
    /// Returns `0.0` for degenerate (zero-dimension) shapes.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.entries.len() as f64 / cells
        }
    }

    /// The explicit entries, sorted by `(row, col)`.
    pub fn triplets(&self) -> &[Triplet] {
        &self.entries
    }

    /// Iterates over the explicit entries in `(row, col)` order.
    pub fn iter(&self) -> std::slice::Iter<'_, Triplet> {
        self.entries.iter()
    }

    /// Returns the transpose (entries mirrored across the diagonal).
    pub fn transpose(&self) -> CooMatrix {
        let mut t: Vec<Triplet> = self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect();
        t.sort_unstable_by_key(|&(r, c, _)| (r, c));
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            entries: t,
        }
    }

    /// Computes `y = A·x` directly on the triplet representation.
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
        for &(r, c, v) in &self.entries {
            y[r] += v * x[c];
        }
        y
    }
}

impl Default for CooMatrix {
    fn default() -> Self {
        CooMatrix::new(0, 0)
    }
}

impl<'a> IntoIterator for &'a CooMatrix {
    type Item = &'a Triplet;
    type IntoIter = std::slice::Iter<'a, Triplet>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_has_zero_nnz_and_density() {
        let m = CooMatrix::new(10, 10);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn degenerate_shape_density_is_zero() {
        let m = CooMatrix::new(0, 5);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn from_triplets_sorts_entries() {
        let m =
            CooMatrix::from_triplets(3, 3, vec![(2, 0, 1.0), (0, 1, 2.0), (0, 0, 3.0)]).unwrap();
        let coords: Vec<_> = m.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_row() {
        let err = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert_eq!(err, SparseError::RowOutOfBounds { row: 2, rows: 2 });
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_col() {
        let err = CooMatrix::from_triplets(2, 2, vec![(0, 5, 1.0)]).unwrap_err();
        assert_eq!(err, SparseError::ColOutOfBounds { col: 5, cols: 2 });
    }

    #[test]
    fn from_triplets_rejects_duplicates() {
        let err = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap_err();
        assert_eq!(err, SparseError::DuplicateEntry { row: 0, col: 0 });
    }

    #[test]
    fn from_triplets_summing_merges_duplicates() {
        let m = CooMatrix::from_triplets_summing(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)])
            .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.triplets()[0], (0, 0, 3.0));
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut m = CooMatrix::new(3, 3);
        m.insert(2, 2, 1.0).unwrap();
        m.insert(0, 0, 2.0).unwrap();
        m.insert(1, 1, 3.0).unwrap();
        let coords: Vec<_> = m.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn insert_rejects_duplicate() {
        let mut m = CooMatrix::new(2, 2);
        m.insert(0, 1, 1.0).unwrap();
        assert!(m.insert(0, 1, 9.0).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let m = CooMatrix::from_triplets(2, 3, vec![(0, 2, 1.0), (1, 0, 2.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmv_matches_dense_computation() {
        // [1 0 2]   [1]   [7]
        // [0 3 0] * [2] = [6]
        let m =
            CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.spmv(&[1.0, 2.0, 3.0]), vec![7.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dense vector length")]
    fn spmv_panics_on_wrong_vector_length() {
        let m = CooMatrix::new(2, 3);
        let _ = m.spmv(&[1.0, 2.0]);
    }

    #[test]
    fn density_of_full_matrix_is_one() {
        let mut t = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                t.push((r, c, 1.0));
            }
        }
        let m = CooMatrix::from_triplets(4, 4, t).unwrap();
        assert!((m.density() - 1.0).abs() < 1e-12);
    }
}
