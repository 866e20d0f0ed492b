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
    fn sorted(rows: usize, cols: usize, entries: Vec<Triplet>) -> Self {
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
        mut triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        let in_bounds = |&(r, c, _): &Triplet| r < rows && c < cols;
        let increasing = |w: &[Triplet]| (w[0].0, w[0].1) < (w[1].0, w[1].1);
        if triplets.iter().all(in_bounds) && triplets.windows(2).all(increasing) {
            return Ok(CooMatrix::sorted(rows, cols, triplets));
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

    /// FNV-1a fingerprint of the dimensions and the `(row, col, value)`
    /// triplets, each fed as little-endian 64-bit words (values as their
    /// `f32` bits).
    ///
    /// It is computed once per content: the first call hashes and every
    /// later call — on this matrix or on a clone — returns the memo, until
    /// [`insert`](Self::insert) changes the entries.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = fnv1a_word(FNV_OFFSET, self.rows as u64);
            h = fnv1a_word(h, self.cols as u64);
            for &(r, c, v) in &self.entries {
                h = fnv1a_word(h, r as u64);
                h = fnv1a_word(h, c as u64);
                h = fnv1a_word(h, u64::from(v.to_bits()));
            }
            h
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k = 0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Feeds the eight little-endian bytes of `word` to FNV-1a. Since
/// `h ^ 0 = h`, the word's run of high zero bytes — six of eight for a
/// small index, four for every `f32` — is one multiply by `PRIME^k`, and
/// the result is bit-identical to hashing a byte at a time.
fn fnv1a_word(mut h: u64, word: u64) -> u64 {
    let zero_bytes = (word.leading_zeros() / 8) as usize;
    let mut rest = word;
    for _ in zero_bytes..8 {
        h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POWERS[zero_bytes])
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

    /// Byte-at-a-time FNV-1a over little-endian words.
    fn reference(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(FNV_OFFSET, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
            })
    }

    fn reference_fingerprint(m: &CooMatrix) -> u64 {
        let mut words = vec![m.rows() as u64, m.cols() as u64];
        for &(r, c, v) in m.triplets() {
            words.extend([r as u64, c as u64, u64::from(v.to_bits())]);
        }
        reference(&words)
    }

    /// A word with exactly `zeros` leading zero bytes; `holes` clears
    /// lower bytes too, so zero bytes inside the word occur as well.
    fn word_with_leading_zero_bytes(bits: u64, zeros: u32, holes: u8) -> u64 {
        if zeros == 8 {
            return 0;
        }
        let mut word = bits >> (8 * zeros);
        for byte in 0..8 - zeros {
            if holes & (1 << byte) != 0 {
                word &= !(0xff << (8 * byte));
            }
        }
        word | 1 << (8 * (7 - zeros) + 7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_hash_matches_byte_at_a_time(
            drawn in proptest::collection::vec((any::<u64>(), 0u32..9, any::<u8>()), 0..12),
        ) {
            let words: Vec<u64> = drawn
                .iter()
                .map(|&(bits, zeros, holes)| word_with_leading_zero_bytes(bits, zeros, holes))
                .collect();
            for (&(_, zeros, _), &w) in drawn.iter().zip(&words) {
                prop_assert_eq!(w.leading_zeros() / 8, zeros);
            }
            let fast = words.iter().fold(FNV_OFFSET, |h, &w| fnv1a_word(h, w));
            prop_assert_eq!(fast, reference(&words));
        }

        #[test]
        fn fingerprint_matches_byte_at_a_time(
            rows in 1usize..100_000,
            cols in 1usize..100_000,
            seed in 0u64..1000,
            nnz in 0usize..40,
        ) {
            let m = uniform_random(rows, cols, nnz.min(rows * cols), seed);
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
    fn empty_matrix_fingerprint_matches_byte_at_a_time() {
        for (rows, cols) in [(0, 0), (0, 7), (1 << 40, 3)] {
            let m = CooMatrix::new(rows, cols);
            assert_eq!(m.fingerprint(), reference_fingerprint(&m));
        }
    }

    #[test]
    fn fingerprint_sees_dimensions_and_values() {
        let base = CooMatrix::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let taller = CooMatrix::from_triplets(5, 4, vec![(0, 0, 1.0)]).unwrap();
        let other_value = CooMatrix::from_triplets(4, 4, vec![(0, 0, 2.0)]).unwrap();
        assert_ne!(base.fingerprint(), taller.fingerprint());
        assert_ne!(base.fingerprint(), other_value.fingerprint());
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
