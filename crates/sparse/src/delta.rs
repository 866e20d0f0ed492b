//! Sparse-matrix deltas: batched structural updates for dynamic matrices.
//!
//! Streaming graph analytics, time-evolving meshes and online solver
//! restarts all mutate their matrices between SpMV invocations. This module
//! provides the update currency for that scenario family:
//!
//! * [`MatrixDelta`] — a validated batch of entry insertions, deletions and
//!   revaluations against a fixed matrix shape,
//! * [`CowCsr`] — a CSR-shaped container with per-row structural sharing,
//!   so applying a delta touching `k` rows clones only those `k` rows and
//!   shares every other row's storage with the predecessor version.
//!
//! Deltas never change the matrix shape: the accelerator's plans partition
//! rows and columns purely from the dimensions, which is what makes
//! incremental re-planning (splicing only dirty windows) sound.
//!
//! # Example
//!
//! ```
//! use chason_sparse::{CooMatrix, MatrixDelta};
//!
//! # fn main() -> Result<(), chason_sparse::SparseError> {
//! let base = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)])?;
//! let mut delta = MatrixDelta::new(2, 2);
//! delta.push_insert(0, 1, 3.0)?;
//! delta.push_revalue(1, 1, -2.0)?;
//! let updated = delta.apply(&base)?;
//! assert_eq!(
//!     updated.triplets(),
//!     &[(0, 0, 1.0), (0, 1, 3.0), (1, 1, -2.0)]
//! );
//! # Ok(())
//! # }
//! ```

use crate::{CooMatrix, SparseError, Triplet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One update operation of a [`MatrixDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum DeltaOp {
    /// Add a new explicit entry (the coordinate must be absent).
    Insert(f32),
    /// Replace the value of an existing explicit entry.
    Revalue(f32),
    /// Remove an existing explicit entry.
    Delete,
}

/// A validated batch of entry updates against a fixed matrix shape.
///
/// A delta holds at most one operation per coordinate; pushing a second
/// operation for a coordinate already in the batch is rejected. Bounds are
/// checked at push time, existence/absence of the targeted entries is
/// checked against the base matrix when the delta is [applied](Self::apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixDelta {
    rows: usize,
    cols: usize,
    ops: BTreeMap<(usize, usize), DeltaOp>,
}

impl MatrixDelta {
    /// Creates an empty delta for matrices of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        MatrixDelta {
            rows,
            cols,
            ops: BTreeMap::new(),
        }
    }

    /// Creates an empty delta shaped like `matrix`.
    pub fn for_matrix(matrix: &CooMatrix) -> Self {
        MatrixDelta::new(matrix.rows(), matrix.cols())
    }

    fn check_coord(&self, row: usize, col: usize) -> Result<(), SparseError> {
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
        Ok(())
    }

    fn push(&mut self, row: usize, col: usize, op: DeltaOp) -> Result<(), SparseError> {
        self.check_coord(row, col)?;
        if self.ops.contains_key(&(row, col)) {
            return Err(SparseError::DuplicateEntry { row, col });
        }
        self.ops.insert((row, col), op);
        Ok(())
    }

    /// Queues the insertion of a new explicit entry.
    ///
    /// # Errors
    ///
    /// Out-of-range coordinates and coordinates already targeted by this
    /// delta are rejected (the entry's absence in the base matrix is checked
    /// at [`apply`](Self::apply) time).
    pub fn push_insert(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        self.push(row, col, DeltaOp::Insert(value))
    }

    /// Queues the revaluation of an existing explicit entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push_insert`](Self::push_insert).
    pub fn push_revalue(&mut self, row: usize, col: usize, value: f32) -> Result<(), SparseError> {
        self.push(row, col, DeltaOp::Revalue(value))
    }

    /// Queues the deletion of an existing explicit entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push_insert`](Self::push_insert).
    pub fn push_delete(&mut self, row: usize, col: usize) -> Result<(), SparseError> {
        self.push(row, col, DeltaOp::Delete)
    }

    /// Row count of the shape this delta targets.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the shape this delta targets.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued insertions as `(row, col, value)` triplets, coordinate
    /// order.
    pub fn inserts(&self) -> Vec<Triplet> {
        self.ops
            .iter()
            .filter_map(|(&(r, c), op)| match op {
                DeltaOp::Insert(v) => Some((r, c, *v)),
                _ => None,
            })
            .collect()
    }

    /// The queued revaluations as `(row, col, value)` triplets, coordinate
    /// order.
    pub fn revalues(&self) -> Vec<Triplet> {
        self.ops
            .iter()
            .filter_map(|(&(r, c), op)| match op {
                DeltaOp::Revalue(v) => Some((r, c, *v)),
                _ => None,
            })
            .collect()
    }

    /// The queued deletions as `(row, col)` coordinates, coordinate order.
    pub fn deletes(&self) -> Vec<(usize, usize)> {
        self.ops
            .iter()
            .filter_map(|(&(r, c), op)| match op {
                DeltaOp::Delete => Some((r, c)),
                _ => None,
            })
            .collect()
    }

    /// Iterates over every coordinate the delta touches, in `(row, col)`
    /// order. This is the footprint incremental re-planning derives its
    /// dirty-window set from.
    pub fn coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ops.keys().copied()
    }

    /// Net change in explicit-entry count once applied: insertions minus
    /// deletions.
    pub fn nnz_change(&self) -> isize {
        self.ops
            .values()
            .map(|op| match op {
                DeltaOp::Insert(_) => 1isize,
                DeltaOp::Revalue(_) => 0,
                DeltaOp::Delete => -1,
            })
            .sum()
    }

    /// All values the delta would write (insertions and revaluations).
    ///
    /// Useful for schedulability screening: the accelerator's wire format
    /// reserves the all-zero word for stalls, so serving layers reject
    /// non-finite and zero values before applying a delta.
    pub fn written_values(&self) -> impl Iterator<Item = f32> + '_ {
        self.ops.values().filter_map(|op| match op {
            DeltaOp::Insert(v) | DeltaOp::Revalue(v) => Some(*v),
            DeltaOp::Delete => None,
        })
    }

    /// Applies the delta to `base`, producing the updated matrix.
    ///
    /// `base` is untouched; the result is a fresh matrix sharing no storage
    /// (see [`CowCsr`] for the sharing layer built on top). Entries stay
    /// sorted by `(row, col)`.
    ///
    /// # Errors
    ///
    /// * [`SparseError::MalformedStructure`] when `base`'s shape differs
    ///   from the delta's;
    /// * [`SparseError::DuplicateEntry`] when an insertion targets a
    ///   coordinate that already holds an entry;
    /// * [`SparseError::AbsentEntry`] when a revaluation or deletion targets
    ///   a coordinate with no entry.
    pub fn apply(&self, base: &CooMatrix) -> Result<CooMatrix, SparseError> {
        if base.rows() != self.rows || base.cols() != self.cols {
            return Err(SparseError::MalformedStructure(format!(
                "delta targets a {}x{} matrix but was applied to {}x{}",
                self.rows,
                self.cols,
                base.rows(),
                base.cols()
            )));
        }
        let mut merged: Vec<Triplet> =
            Vec::with_capacity((base.nnz() as isize + self.nnz_change()).max(0) as usize);
        let mut ops = self.ops.iter().peekable();
        for &(r, c, v) in base.iter() {
            // Emit queued insertions at coordinates strictly before (r, c).
            while let Some((&(or, oc), op)) = ops.peek() {
                if (or, oc) >= (r, c) {
                    break;
                }
                match op {
                    DeltaOp::Insert(nv) => merged.push((or, oc, *nv)),
                    DeltaOp::Revalue(_) | DeltaOp::Delete => {
                        return Err(SparseError::AbsentEntry { row: or, col: oc })
                    }
                }
                ops.next();
            }
            match ops.peek() {
                Some((&(or, oc), op)) if (or, oc) == (r, c) => {
                    match op {
                        DeltaOp::Insert(_) => {
                            return Err(SparseError::DuplicateEntry { row: r, col: c })
                        }
                        DeltaOp::Revalue(nv) => merged.push((r, c, *nv)),
                        DeltaOp::Delete => {}
                    }
                    ops.next();
                }
                _ => merged.push((r, c, v)),
            }
        }
        for (&(or, oc), op) in ops {
            match op {
                DeltaOp::Insert(nv) => merged.push((or, oc, *nv)),
                DeltaOp::Revalue(_) | DeltaOp::Delete => {
                    return Err(SparseError::AbsentEntry { row: or, col: oc })
                }
            }
        }
        // The merge walk keeps (row, col) order and rejects duplicates, so
        // the triplets satisfy every `from_triplets` invariant already.
        #[allow(clippy::expect_used)] // xtask: invariant documented above
        Ok(CooMatrix::from_triplets(self.rows, self.cols, merged)
            .expect("merged triplets are sorted, unique and in range by construction"))
    }
}

/// CSR-shaped storage with per-row structural sharing.
///
/// Each row's `(column, value)` pairs live behind their own [`Arc`];
/// [`apply_delta`](Self::apply_delta) rebuilds only the rows a delta
/// touches and shares every other row's allocation with the source, so a
/// `k`-row delta against an `n`-row matrix costs `O(k · row_nnz + n)`
/// pointer copies instead of an `O(nnz)` rebuild.
#[derive(Debug, Clone)]
pub struct CowCsr {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_data: Vec<Arc<Vec<(usize, f32)>>>,
}

impl CowCsr {
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
        self.nnz
    }

    /// The `(column, value)` pairs of row `r`, column-sorted.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[(usize, f32)] {
        &self.row_data[r]
    }

    /// Whether row `r` shares its storage with the same row of `other`
    /// (i.e. neither version rebuilt it since they diverged).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range for either matrix.
    pub fn shares_row(&self, other: &CowCsr, r: usize) -> bool {
        Arc::ptr_eq(&self.row_data[r], &other.row_data[r])
    }

    /// Applies `delta`, rebuilding only the touched rows; every other row's
    /// storage is shared with `self`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MatrixDelta::apply`].
    pub fn apply_delta(&self, delta: &MatrixDelta) -> Result<CowCsr, SparseError> {
        if self.rows != delta.rows() || self.cols != delta.cols() {
            return Err(SparseError::MalformedStructure(format!(
                "delta targets a {}x{} matrix but was applied to {}x{}",
                delta.rows(),
                delta.cols(),
                self.rows,
                self.cols
            )));
        }
        let mut out = self.clone();
        let mut coords = delta.coords().peekable();
        while let Some(&(row, _)) = coords.peek() {
            // Collect this row's ops and rebuild the row once.
            let mut rebuilt: Vec<(usize, f32)> = self.row_data[row].as_ref().clone();
            while let Some(&(r, col)) = coords.peek() {
                if r != row {
                    break;
                }
                coords.next();
                let pos = rebuilt.binary_search_by_key(&col, |&(c, _)| c);
                let entry = delta.ops.get(&(row, col));
                #[allow(clippy::expect_used)] // coords() only yields delta-held coordinates
                let op = *entry.expect("coords() yields only coordinates present in the delta");
                match (op, pos) {
                    (DeltaOp::Insert(v), Err(i)) => {
                        rebuilt.insert(i, (col, v));
                        out.nnz += 1;
                    }
                    (DeltaOp::Insert(_), Ok(_)) => {
                        return Err(SparseError::DuplicateEntry { row, col })
                    }
                    (DeltaOp::Revalue(v), Ok(i)) => rebuilt[i] = (col, v),
                    (DeltaOp::Delete, Ok(i)) => {
                        rebuilt.remove(i);
                        out.nnz -= 1;
                    }
                    (DeltaOp::Revalue(_) | DeltaOp::Delete, Err(_)) => {
                        return Err(SparseError::AbsentEntry { row, col })
                    }
                }
            }
            out.row_data[row] = Arc::new(rebuilt);
        }
        Ok(out)
    }

    /// Computes `y = A·x` with the same per-row accumulation order as
    /// [`CsrMatrix::spmv`](crate::CsrMatrix::spmv), so results are
    /// bit-identical across the two containers.
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
        self.row_data
            .iter()
            .map(|row| {
                let mut acc = 0.0f32;
                for &(c, v) in row.iter() {
                    acc += v * x[c];
                }
                acc
            })
            .collect()
    }

    /// Iterates over all entries as `(row, col, value)` triplets in
    /// row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Triplet> + '_ {
        self.row_data
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c, v)))
    }
}

impl From<&CooMatrix> for CowCsr {
    fn from(coo: &CooMatrix) -> Self {
        let mut row_data: Vec<Vec<(usize, f32)>> = vec![Vec::new(); coo.rows()];
        // COO entries are already sorted by (row, col).
        for &(r, c, v) in coo.iter() {
            row_data[r].push((c, v));
        }
        CowCsr {
            rows: coo.rows(),
            cols: coo.cols(),
            nnz: coo.nnz(),
            row_data: row_data.into_iter().map(Arc::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn base() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn apply_merges_all_three_op_kinds() {
        let mut d = MatrixDelta::new(3, 4);
        d.push_insert(1, 3, 7.0).unwrap();
        d.push_revalue(0, 0, -1.0).unwrap();
        d.push_delete(2, 2).unwrap();
        let updated = d.apply(&base()).unwrap();
        assert_eq!(
            updated.triplets(),
            &[
                (0, 0, -1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (1, 3, 7.0),
                (2, 0, 4.0)
            ]
        );
        assert_eq!(d.nnz_change(), 0);
        assert_eq!(updated.nnz(), base().nnz());
    }

    #[test]
    fn insert_before_first_and_after_last_entry() {
        let m = CooMatrix::from_triplets(3, 3, vec![(1, 1, 1.0)]).unwrap();
        let mut d = MatrixDelta::for_matrix(&m);
        d.push_insert(0, 0, 2.0).unwrap();
        d.push_insert(2, 2, 3.0).unwrap();
        let updated = d.apply(&m).unwrap();
        assert_eq!(updated.triplets(), &[(0, 0, 2.0), (1, 1, 1.0), (2, 2, 3.0)]);
    }

    #[test]
    fn empty_delta_is_identity() {
        let d = MatrixDelta::new(3, 4);
        assert!(d.is_empty());
        assert_eq!(d.apply(&base()).unwrap(), base());
    }

    #[test]
    fn push_rejects_out_of_bounds_and_duplicates() {
        let mut d = MatrixDelta::new(2, 2);
        assert_eq!(
            d.push_insert(2, 0, 1.0).unwrap_err(),
            SparseError::RowOutOfBounds { row: 2, rows: 2 }
        );
        assert_eq!(
            d.push_delete(0, 5).unwrap_err(),
            SparseError::ColOutOfBounds { col: 5, cols: 2 }
        );
        d.push_insert(0, 0, 1.0).unwrap();
        assert_eq!(
            d.push_delete(0, 0).unwrap_err(),
            SparseError::DuplicateEntry { row: 0, col: 0 }
        );
    }

    #[test]
    fn apply_rejects_insert_over_existing_entry() {
        let mut d = MatrixDelta::new(3, 4);
        d.push_insert(1, 1, 9.0).unwrap();
        assert_eq!(
            d.apply(&base()).unwrap_err(),
            SparseError::DuplicateEntry { row: 1, col: 1 }
        );
    }

    #[test]
    fn apply_rejects_ops_on_absent_entries() {
        let mut d = MatrixDelta::new(3, 4);
        d.push_delete(0, 1).unwrap();
        assert_eq!(
            d.apply(&base()).unwrap_err(),
            SparseError::AbsentEntry { row: 0, col: 1 }
        );
        let mut d = MatrixDelta::new(3, 4);
        d.push_revalue(2, 3, 1.0).unwrap();
        assert_eq!(
            d.apply(&base()).unwrap_err(),
            SparseError::AbsentEntry { row: 2, col: 3 }
        );
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let d = MatrixDelta::new(4, 4);
        assert!(matches!(
            d.apply(&base()).unwrap_err(),
            SparseError::MalformedStructure(_)
        ));
    }

    #[test]
    fn accessors_split_ops_by_kind() {
        let mut d = MatrixDelta::new(3, 4);
        d.push_delete(2, 2).unwrap();
        d.push_insert(1, 3, 7.0).unwrap();
        d.push_revalue(0, 0, -1.0).unwrap();
        assert_eq!(d.inserts(), vec![(1, 3, 7.0)]);
        assert_eq!(d.revalues(), vec![(0, 0, -1.0)]);
        assert_eq!(d.deletes(), vec![(2, 2)]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.coords().collect::<Vec<_>>(), vec![(0, 0), (1, 3), (2, 2)]);
        let written: Vec<f32> = d.written_values().collect();
        assert_eq!(written, vec![-1.0, 7.0]);
    }

    #[test]
    fn cow_csr_matches_coo_and_shares_untouched_rows() {
        let m = base();
        let csr = CowCsr::from(&m);
        assert_eq!(csr.nnz(), m.nnz());
        let mut d = MatrixDelta::for_matrix(&m);
        d.push_insert(0, 1, 6.0).unwrap();
        d.push_delete(0, 3).unwrap();
        let next = csr.apply_delta(&d).unwrap();
        let expected = d.apply(&m).unwrap();
        assert_eq!(next.iter().collect::<Vec<_>>(), expected.triplets());
        assert_eq!(next.nnz(), expected.nnz());
        assert!(!next.shares_row(&csr, 0)); // rebuilt
        assert!(next.shares_row(&csr, 1)); // shared
        assert!(next.shares_row(&csr, 2)); // shared
    }

    #[test]
    fn cow_csr_spmv_is_bit_identical_to_csr_spmv() {
        let m = base();
        let x = [1.5, -2.0, 0.25, 3.0];
        let dense = CsrMatrix::from(&m).spmv(&x);
        let cow = CowCsr::from(&m).spmv(&x);
        assert_eq!(dense, cow);
    }

    #[test]
    fn cow_csr_apply_rejects_bad_ops() {
        let csr = CowCsr::from(&base());
        let mut d = MatrixDelta::new(3, 4);
        d.push_insert(1, 1, 2.0).unwrap();
        assert_eq!(
            csr.apply_delta(&d).unwrap_err(),
            SparseError::DuplicateEntry { row: 1, col: 1 }
        );
        let mut d = MatrixDelta::new(3, 4);
        d.push_revalue(1, 0, 2.0).unwrap();
        assert_eq!(
            csr.apply_delta(&d).unwrap_err(),
            SparseError::AbsentEntry { row: 1, col: 0 }
        );
        let wrong_shape = MatrixDelta::new(2, 2);
        assert!(csr.apply_delta(&wrong_shape).is_err());
    }

    #[test]
    fn delta_chain_through_versions_tracks_scratch_rebuild() {
        let mut coo = base();
        let mut csr = CowCsr::from(&coo);
        for step in 0..4u32 {
            let mut d = MatrixDelta::new(3, 4);
            let v = step as f32 + 1.5;
            match step % 2 {
                0 => d.push_revalue(2, 0, v).unwrap(),
                _ => {
                    d.push_delete(2, 0).unwrap();
                    d.push_insert(2, 0, v).unwrap_err(); // same coord twice
                    d = MatrixDelta::new(3, 4);
                    d.push_revalue(1, 1, v).unwrap();
                }
            }
            csr = csr.apply_delta(&d).unwrap();
            coo = d.apply(&coo).unwrap();
            assert_eq!(
                csr.iter().collect::<Vec<_>>(),
                coo.triplets(),
                "CowCsr chain diverged from COO chain at step {step}"
            );
        }
    }
}
