use crate::{SparseError, Triplet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

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
#[derive(Clone, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
    /// [`CooMatrix::fingerprint`], computed on first use. Every edit
    /// clears it; equality and `Debug` ignore it.
    #[serde(skip)]
    fingerprint: OnceLock<u64>,
}

impl PartialEq for CooMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.entries == other.entries
    }
}

impl fmt::Debug for CooMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CooMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("entries", &self.entries)
            .finish()
    }
}

impl CooMatrix {
    /// Creates an empty matrix of the given shape with no explicit entries.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix::sorted(rows, cols, Vec::new())
    }

    /// Wraps entries already sorted, unique and in bounds.
    pub(crate) fn sorted(rows: usize, cols: usize, entries: Vec<Triplet>) -> Self {
        CooMatrix {
            rows,
            cols,
            entries,
            fingerprint: OnceLock::new(),
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
        triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        let mut triplets = match CooMatrix::try_from_sorted(rows, cols, triplets, |_| true) {
            Ok(matrix) => return Ok(matrix),
            Err(triplets) => triplets,
        };
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
        Ok(CooMatrix::sorted(rows, cols, triplets))
    }

    /// Wraps `triplets` as the matrix's entries, without copying them,
    /// when they are strictly increasing in `(row, col)`, in bounds, and
    /// each passes `accept`; otherwise hands them back unchanged. One pass
    /// checks all three, so a caller with a rule of its own (a daemon's
    /// value rule, say) reads its input once on the common path and keeps
    /// its own error order for the rare one.
    pub fn try_from_sorted(
        rows: usize,
        cols: usize,
        triplets: Vec<Triplet>,
        accept: impl Fn(&Triplet) -> bool,
    ) -> Result<Self, Vec<Triplet>> {
        let mut prev = None;
        for t @ &(r, c, _) in &triplets {
            if r >= rows || c >= cols || prev >= Some((r, c)) || !accept(t) {
                return Err(triplets);
            }
            prev = Some((r, c));
        }
        Ok(CooMatrix::sorted(rows, cols, triplets))
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
        Ok(CooMatrix::sorted(rows, cols, merged))
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
                self.fingerprint = OnceLock::new();
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
        CooMatrix::sorted(self.cols, self.rows, t)
    }

    /// A 64-bit hash of the dimensions and the `(row, col, value)`
    /// triplets: the matrix's content identity (serve's handle, the plan
    /// key, the CHPL fingerprint).
    ///
    /// Entry `i` is mixed into lane `i % 4` of four independent
    /// multiply-fold chains, so the hash runs near memory speed instead of
    /// at the latency of one chain. Every index enters at its full 64 bits
    /// and every value as its `f32` bits; the constants are fixed, so the
    /// value is the same on every platform, thread count and process. It
    /// is not a cryptographic hash: collisions can be constructed, but
    /// distinct real matrices do not meet one by accident.
    ///
    /// It is computed once per content: the first call hashes and every
    /// later call — on this matrix or on a clone — returns the memo, until
    /// [`insert`](Self::insert) changes the entries.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.compute_fingerprint())
    }

    /// The hash behind [`fingerprint`](Self::fingerprint), computed afresh:
    /// it neither reads nor fills the memo, so it costs a full pass over
    /// the entries on every call.
    pub fn compute_fingerprint(&self) -> u64 {
        let mut lanes: [u64; 4] =
            std::array::from_fn(|l| fold(self.rows as u64 ^ MIX[l], self.cols as u64 ^ MIX[l + 2]));
        let mut quads = self.entries.chunks_exact(4);
        for quad in &mut quads {
            for (l, entry) in quad.iter().enumerate() {
                lanes[l] = mix_entry(lanes[l], l, entry);
            }
        }
        for (l, entry) in quads.remainder().iter().enumerate() {
            lanes[l] = mix_entry(lanes[l], l, entry);
        }
        lanes
            .iter()
            .fold(self.entries.len() as u64 ^ MIX[5], |h, &lane| {
                fold(h ^ lane, MIX[5])
            })
    }

    /// Computes `y = A·x` directly on the triplet representation.
    ///
    /// Each row is summed in column order from 0.0, the order a CSR
    /// product uses, so the result is bit-identical to one.
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
        let Some(&(first, _, _)) = self.entries.first() else {
            return y;
        };
        // One pass, the current row's sum kept in a register.
        let (mut row, mut acc) = (first, 0.0f32);
        for &(r, c, v) in &self.entries {
            if r != row {
                y[row] = acc;
                (row, acc) = (r, 0.0);
            }
            acc += v * x[c];
        }
        y[row] = acc;
        y
    }
}

/// The fixed constants of [`CooMatrix::fingerprint`]: odd, with about
/// half their bits set.
const MIX: [u64; 6] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x1d8e_4e27_c47d_124f,
    0x9e37_79b9_7f4a_7c15,
];

/// The full 128-bit product of `a` and `b`, its two halves XORed.
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Mixes one entry into lane `l` (`0..4`) of the fingerprint.
#[inline(always)]
fn mix_entry(lane: u64, l: usize, &(r, c, v): &Triplet) -> u64 {
    let x = fold(r as u64 ^ MIX[l], c as u64 ^ MIX[l + 1]) ^ u64::from(v.to_bits());
    fold(lane ^ x, MIX[l + 2])
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
    use crate::generators::uniform_random;
    use proptest::prelude::*;

    /// The fingerprint one entry at a time, written out apart from the
    /// production loop: entry `i` goes to lane `i % 4`.
    fn reference_fingerprint(m: &CooMatrix) -> u64 {
        let fold = |a: u64, b: u64| {
            let p = u128::from(a) * u128::from(b);
            (p as u64) ^ ((p >> 64) as u64)
        };
        let (rows, cols) = (m.rows() as u64, m.cols() as u64);
        let mut lanes = [0u64; 4];
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = fold(rows ^ MIX[l], cols ^ MIX[l + 2]);
        }
        for (i, &(r, c, v)) in m.triplets().iter().enumerate() {
            let l = i % 4;
            let x = fold(r as u64 ^ MIX[l], c as u64 ^ MIX[l + 1]) ^ u64::from(v.to_bits());
            lanes[l] = fold(lanes[l] ^ x, MIX[l + 2]);
        }
        let mut h = m.nnz() as u64 ^ MIX[5];
        for lane in lanes {
            h = fold(h ^ lane, MIX[5]);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fingerprint_matches_one_entry_at_a_time(
            rows in 1usize..100_000,
            cols in 1usize..100_000,
            seed in 0u64..1000,
            nnz in 0usize..40,
            high in 0u32..2,
        ) {
            let m = uniform_random(rows, cols, nnz.min(rows * cols), seed);
            // Optionally lift every index past 2^32, so the high words of
            // the indices take part.
            let lift = (high as usize) << 33;
            let m = CooMatrix::sorted(
                rows + lift,
                cols + lift,
                m.iter().map(|&(r, c, v)| (r + lift, c + lift, v)).collect(),
            );
            prop_assert_eq!(m.compute_fingerprint(), reference_fingerprint(&m));
            prop_assert_eq!(m.fingerprint(), reference_fingerprint(&m));
            // The memoized second answer is the same hash.
            prop_assert_eq!(m.fingerprint(), reference_fingerprint(&m));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Serve multiplies its one resident copy, the row-sorted COO,
        /// where it used to keep a CSR mirror: the products must agree bit
        /// for bit, empty rows and cancelling sums included.
        #[test]
        fn coo_spmv_is_bit_identical_to_csr(
            (rows, cols) in (1usize..80, 1usize..80),
            nnz in 0usize..600,
            seed in 0u64..1000,
            scales in proptest::collection::vec(-4000i32..4000, 80),
        ) {
            let base = uniform_random(rows, cols, nnz, seed);
            let triplets = base
                .iter()
                .enumerate()
                .map(|(i, &(r, c, v))| (r, c, v * scales[i % 80] as f32 / 7.0))
                .collect();
            let m = CooMatrix::from_triplets(rows, cols, triplets).unwrap();
            let x: Vec<f32> = (0..cols).map(|j| scales[j % 80] as f32 / 13.0 + 0.1).collect();
            let bits = |y: Vec<f32>| y.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            let coo = bits(m.spmv(&x));
            prop_assert_eq!(&coo, &bits(crate::CsrMatrix::from(&m).spmv(&x)));
            prop_assert_eq!(&coo, &bits(crate::CowCsr::from(&m).spmv(&x)));
        }
    }

    #[test]
    fn empty_matrix_fingerprint_matches_reference() {
        for (rows, cols) in [(0, 0), (0, 7), (1 << 40, 3)] {
            let m = CooMatrix::new(rows, cols);
            assert_eq!(m.fingerprint(), reference_fingerprint(&m));
        }
    }

    /// Each edit a content hash must see changes the fingerprint, and no
    /// two of the edited matrices share one.
    #[test]
    fn fingerprint_sees_every_word() {
        let entries = vec![
            (0, 1, 1.5),
            (1, 0, 0.5),
            (2, 3, -0.25),
            (3, 3, 4.0),
            (5, 7, 2.0),
        ];
        let with = |rows: usize, cols: usize, edit: &dyn Fn(&mut Vec<Triplet>)| {
            let mut t = entries.clone();
            edit(&mut t);
            CooMatrix::from_triplets(rows, cols, t).unwrap()
        };
        let big = 1usize << 33;
        let high_row = |r: usize| CooMatrix::from_triplets(big, 4, vec![(r, 2, 1.0)]).unwrap();
        let high_col = |c: usize| CooMatrix::from_triplets(4, big, vec![(2, c, 1.0)]).unwrap();
        let variants = [
            ("base", with(6, 8, &|_| {})),
            (
                "one-ulp revalue",
                with(6, 8, &|t| t[2].2 = f32::from_bits(t[2].2.to_bits() + 1)),
            ),
            ("moved one column", with(6, 8, &|t| t[2].1 += 1)),
            (
                "swapped values",
                with(6, 8, &|t| (t[0].2, t[3].2) = (t[3].2, t[0].2)),
            ),
            ("one more row", with(7, 8, &|_| {})),
            ("one more column", with(6, 9, &|_| {})),
            ("row 0", high_row(0)),
            ("row 2^32", high_row(1 << 32)),
            ("row 2^32 + 5", high_row((1 << 32) + 5)),
            ("row 5", high_row(5)),
            ("col 3", high_col(3)),
            ("col 2^32 + 3", high_col((1 << 32) + 3)),
        ];
        for (i, (a, ma)) in variants.iter().enumerate() {
            for (b, mb) in &variants[i + 1..] {
                assert_ne!(ma.fingerprint(), mb.fingerprint(), "{a} vs {b}");
            }
        }
    }

    /// Over 2,000 distinct small matrices (shapes, single and paired
    /// entries one cell or one ulp apart, random fills), no two share a
    /// fingerprint.
    #[test]
    fn distinct_matrices_do_not_collide() {
        let mut matrices: Vec<CooMatrix> = Vec::new();
        for rows in 0..20 {
            for cols in 0..20 {
                matrices.push(CooMatrix::new(rows, cols));
            }
        }
        let one_ulp_up = f32::from_bits(1.0f32.to_bits() + 1);
        for (r, c) in (0..12).flat_map(|r| (0..12).map(move |c| (r, c))) {
            for v in [1.0, -1.0, 2.0, one_ulp_up] {
                matrices.push(CooMatrix::from_triplets(12, 12, vec![(r, c, v)]).unwrap());
            }
        }
        let cells: Vec<(usize, usize)> = (0..6).flat_map(|r| (0..6).map(move |c| (r, c))).collect();
        for (k, &(r0, c0)) in cells.iter().enumerate() {
            for &(r1, c1) in &cells[k + 1..] {
                for (v0, v1) in [(1.0, 2.0), (2.0, 1.0)] {
                    let t = vec![(r0, c0, v0), (r1, c1, v1)];
                    matrices.push(CooMatrix::from_triplets(6, 6, t).unwrap());
                }
            }
        }
        for seed in 0..200 {
            matrices.push(uniform_random(40, 40, 1 + seed as usize % 60, seed));
        }
        // `Debug` prints the shape and every entry, each value in its
        // shortest round-tripping form, so equal text means equal content.
        let contents: HashSet<String> = matrices.iter().map(|m| format!("{m:?}")).collect();
        assert_eq!(contents.len(), matrices.len(), "the sweep repeats a matrix");
        assert!(matrices.len() >= 2000, "{} matrices", matrices.len());
        let fingerprints: HashSet<u64> = matrices.iter().map(CooMatrix::fingerprint).collect();
        assert_eq!(fingerprints.len(), matrices.len());
    }

    #[test]
    fn fingerprint_memo_survives_clone_and_is_cleared_by_insert() {
        let mut m = uniform_random(40, 40, 90, 3);
        let hashed = m.fingerprint();
        assert_eq!(m.fingerprint.get(), Some(&hashed));
        let copy = m.clone();
        assert_eq!(
            copy.fingerprint.get(),
            Some(&hashed),
            "clone keeps the memo"
        );
        let (r, c) = (0..40)
            .flat_map(|r| (0..40).map(move |c| (r, c)))
            .find(|&(r, c)| !m.iter().any(|&(tr, tc, _)| (tr, tc) == (r, c)))
            .unwrap();
        m.insert(r, c, 5.0).unwrap();
        assert_eq!(m.fingerprint.get(), None, "insert clears the memo");
        assert_eq!(m.fingerprint(), reference_fingerprint(&m));
        assert_ne!(m.fingerprint(), hashed);
        // A rejected insert changes nothing and keeps the memo.
        let again = m.fingerprint();
        assert!(m.insert(r, c, 6.0).is_err());
        assert_eq!(m.fingerprint.get(), Some(&again));
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let hashed = uniform_random(30, 30, 60, 8);
        let _ = hashed.fingerprint();
        let fresh = uniform_random(30, 30, 60, 8);
        assert_eq!(fresh.fingerprint.get(), None);
        assert_eq!(hashed, fresh);
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
        assert!(!format!("{hashed:?}").contains("fingerprint"));
    }

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
