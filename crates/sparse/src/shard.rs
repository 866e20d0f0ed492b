//! Row-block sharding of sparse matrices across backend instances.
//!
//! A [`ShardSpec`] partitions the row space `0..rows` of a matrix into
//! contiguous half-open ranges, one per shard. This is the software
//! analogue of the paper's cross-channel data placement: each shard owns a
//! row block (like an HBM channel group owns a row stripe in
//! Serpens/Sextans), computes the partial product for its rows, and a
//! reduction step reassembles the full output vector from the partials.
//!
//! The partitioner of record is [`ShardSpec::nnz_balanced`], which places
//! the cut points so every shard carries a near-equal share of the
//! non-zeros — row counts may be wildly uneven, but work (nnz) is what the
//! backends actually stream.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Triplet;

/// A contiguous row-block partition of a matrix's row space.
///
/// Invariants (enforced by every constructor):
/// * at least one shard,
/// * ranges are non-empty, contiguous and in ascending order,
/// * the ranges exactly tile `0..rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    rows: usize,
    /// Half-open `[start, end)` row ranges, ascending and contiguous.
    ranges: Vec<(usize, usize)>,
}

impl ShardSpec {
    /// Builds a spec from explicit `[start, end)` ranges.
    ///
    /// The ranges must be non-empty, contiguous (each range starts where
    /// the previous one ended), start at row 0 and end at `rows`.
    pub fn from_ranges(rows: usize, ranges: Vec<(usize, usize)>) -> Result<Self, SparseError> {
        if ranges.is_empty() {
            return Err(SparseError::InvalidShardSpec(
                "at least one shard range is required".to_string(),
            ));
        }
        let mut expected_start = 0usize;
        for (i, &(start, end)) in ranges.iter().enumerate() {
            if start != expected_start {
                return Err(SparseError::InvalidShardSpec(format!(
                    "shard {i} starts at row {start}, expected {expected_start}"
                )));
            }
            if end <= start {
                return Err(SparseError::InvalidShardSpec(format!(
                    "shard {i} range [{start}, {end}) is empty"
                )));
            }
            expected_start = end;
        }
        if expected_start != rows {
            return Err(SparseError::InvalidShardSpec(format!(
                "ranges cover rows 0..{expected_start} but the matrix has {rows} rows"
            )));
        }
        Ok(ShardSpec { rows, ranges })
    }

    /// Splits `0..rows` into `shards` blocks of near-equal row counts.
    pub fn uniform(rows: usize, shards: usize) -> Result<Self, SparseError> {
        if shards == 0 {
            return Err(SparseError::InvalidShardSpec(
                "shard count must be at least 1".to_string(),
            ));
        }
        if shards > rows {
            return Err(SparseError::InvalidShardSpec(format!(
                "cannot split {rows} rows into {shards} non-empty shards"
            )));
        }
        let base = rows / shards;
        let extra = rows % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for k in 0..shards {
            let len = base + usize::from(k < extra);
            ranges.push((start, start + len));
            start += len;
        }
        ShardSpec::from_ranges(rows, ranges)
    }

    /// Partitions the matrix's rows so each shard carries a near-equal
    /// share of the non-zeros.
    ///
    /// Greedy prefix walk: shard `k` absorbs rows until it holds at least
    /// `ceil(remaining_nnz / remaining_shards)` non-zeros, while always
    /// leaving at least one row for each of the remaining shards. With
    /// pathological distributions (for example all non-zeros in one row)
    /// trailing shards can end up empty of non-zeros; they still own their
    /// row range and contribute zero partials.
    ///
    /// The entries are sorted by row, so the walk needs no histogram: the
    /// shard starting at `start` with `consumed` entries before it reaches
    /// its `target` exactly when it takes the row of entry
    /// `consumed + target - 1`, and the next shard's `consumed` is a binary
    /// search. The split costs `O(shards · log nnz)`.
    pub fn nnz_balanced(matrix: &CooMatrix, shards: usize) -> Result<Self, SparseError> {
        let rows = matrix.rows();
        if shards == 0 {
            return Err(SparseError::InvalidShardSpec(
                "shard count must be at least 1".to_string(),
            ));
        }
        if shards > rows {
            return Err(SparseError::InvalidShardSpec(format!(
                "cannot split {rows} rows into {shards} non-empty shards"
            )));
        }
        let entries = matrix.triplets();
        let mut consumed = 0usize;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for k in 0..shards {
            let shards_left = shards - k;
            if shards_left == 1 {
                ranges.push((start, rows));
                break;
            }
            let target = (entries.len() - consumed).div_ceil(shards_left);
            // Every shard owns at least one row, and never eats into the
            // rows the remaining shards need.
            let hard_end = rows - (shards_left - 1);
            let end = if target == 0 {
                start + 1
            } else {
                entries
                    .get(consumed + target - 1)
                    .map_or(hard_end, |&(row, _, _)| {
                        (row + 1).clamp(start + 1, hard_end)
                    })
            };
            ranges.push((start, end));
            start = end;
            consumed += entries[consumed..].partition_point(|&(r, _, _)| r < end);
        }
        ShardSpec::from_ranges(rows, ranges)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Total rows covered by the spec.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The `[start, end)` row range owned by shard `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn range(&self, k: usize) -> (usize, usize) {
        self.ranges[k]
    }

    /// All ranges in shard order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// The shard owning global row `row`, or `None` if out of bounds.
    pub fn shard_of_row(&self, row: usize) -> Option<usize> {
        if row >= self.rows {
            return None;
        }
        // Ranges are sorted and contiguous: binary search on start.
        let idx = self.ranges.partition_point(|&(start, _)| start <= row);
        Some(idx - 1)
    }

    /// Shard `k`'s entries: one contiguous run of the matrix's entries,
    /// since they are sorted by row. Rows stay global.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn entries<'m>(
        &self,
        matrix: &'m CooMatrix,
        k: usize,
    ) -> Result<&'m [Triplet], SparseError> {
        self.check_rows(matrix)?;
        let (start, end) = self.range(k);
        let all = matrix.triplets();
        let first = all.partition_point(|&(r, _, _)| r < start);
        let len = all[first..].partition_point(|&(r, _, _)| r < end);
        Ok(&all[first..first + len])
    }

    /// Extracts shard `k`'s row block as a standalone matrix: its
    /// [`ShardSpec::entries`] run, copied once with rows remapped to the
    /// local space `0..(end - start)`. The column space is kept at full
    /// width so the slice consumes the same dense input vector as the
    /// original matrix.
    pub fn slice(&self, matrix: &CooMatrix, k: usize) -> Result<CooMatrix, SparseError> {
        let run = self.entries(matrix, k)?;
        let (start, end) = self.range(k);
        let triplets = run.iter().map(|&(r, c, v)| (r - start, c, v)).collect();
        // A rebased run of a valid matrix is sorted, unique and in bounds.
        Ok(CooMatrix::sorted(end - start, matrix.cols(), triplets))
    }

    /// Non-zero count owned by each shard: the length of each
    /// [`ShardSpec::entries`] run.
    pub fn nnz_per_shard(&self, matrix: &CooMatrix) -> Result<Vec<usize>, SparseError> {
        (0..self.shards())
            .map(|k| self.entries(matrix, k).map(<[Triplet]>::len))
            .collect()
    }

    /// `max / mean` non-zero load across shards (1.0 = perfectly
    /// balanced). Returns 1.0 for an empty matrix.
    pub fn nnz_imbalance(&self, matrix: &CooMatrix) -> Result<f64, SparseError> {
        let counts = self.nnz_per_shard(matrix)?;
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Ok(1.0);
        }
        let mean = total as f64 / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        Ok(max / mean)
    }

    /// Fails unless the matrix has the rows this spec tiles.
    fn check_rows(&self, matrix: &CooMatrix) -> Result<(), SparseError> {
        if matrix.rows() != self.rows {
            return Err(SparseError::InvalidShardSpec(format!(
                "spec covers {} rows but the matrix has {}",
                self.rows,
                matrix.rows()
            )));
        }
        Ok(())
    }

    /// Reassembles a full output vector from per-shard partial products.
    ///
    /// This is the software Reduction Unit: shard `k`'s partial must have
    /// exactly `end - start` entries, and the partials are placed into the
    /// output at their owning row ranges. Row-block partitioning makes the
    /// reduction a pure gather — each output row is produced by exactly one
    /// shard, so no floating-point additions happen here and the result is
    /// bit-identical to computing each row in isolation.
    pub fn gather(&self, partials: &[Vec<f32>]) -> Result<Vec<f32>, SparseError> {
        if partials.len() != self.ranges.len() {
            return Err(SparseError::InvalidShardSpec(format!(
                "expected {} partials, got {}",
                self.ranges.len(),
                partials.len()
            )));
        }
        let mut out = vec![0.0f32; self.rows];
        for (k, partial) in partials.iter().enumerate() {
            let (start, end) = self.ranges[k];
            if partial.len() != end - start {
                return Err(SparseError::InvalidShardSpec(format!(
                    "shard {k} partial has {} entries, expected {}",
                    partial.len(),
                    end - start
                )));
            }
            out[start..end].copy_from_slice(partial);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{power_law, uniform_random};
    use proptest::prelude::*;

    /// The greedy walk over a row histogram, written out apart from the
    /// binary-search split: shard `k` takes rows one at a time until it
    /// reaches `ceil(remaining / shards_left)` non-zeros or must leave
    /// the remaining shards one row each.
    fn histogram_walk(matrix: &CooMatrix, shards: usize) -> Vec<(usize, usize)> {
        let rows = matrix.rows();
        let mut row_nnz = vec![0usize; rows];
        for &(r, _, _) in matrix.iter() {
            row_nnz[r] += 1;
        }
        let mut remaining = matrix.nnz();
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for k in 0..shards {
            let shards_left = shards - k;
            if shards_left == 1 {
                ranges.push((start, rows));
                break;
            }
            let target = remaining.div_ceil(shards_left);
            let hard_end = rows - (shards_left - 1);
            let mut end = start + 1;
            let mut acc = row_nnz[start];
            while end < hard_end && acc < target {
                acc += row_nnz[end];
                end += 1;
            }
            ranges.push((start, end));
            start = end;
            remaining -= acc;
        }
        ranges
    }

    /// A matrix of one of four shapes: uniform, power-law, every entry in
    /// one row, or empty.
    fn shaped(shape: u8, rows: usize, cols: usize, nnz: usize, seed: u64) -> CooMatrix {
        let nnz = nnz.min(rows * cols);
        match shape {
            0 => uniform_random(rows, cols, nnz, seed),
            1 => power_law(rows, cols, nnz, 1.7, seed),
            2 => {
                let row = seed as usize % rows;
                let triplets = (0..nnz.min(cols)).map(|c| (row, c, 1.0)).collect();
                CooMatrix::from_triplets(rows, cols, triplets).unwrap()
            }
            _ => CooMatrix::new(rows, cols),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The binary-search split cuts exactly where the histogram walk
        /// does, and its runs tile the entries in shard order.
        #[test]
        fn nnz_balanced_equals_the_histogram_walk(
            shape in 0u8..4,
            rows in 1usize..200,
            cols in 1usize..60,
            nnz in 0usize..800,
            seed in 0u64..1000,
            shards in 1usize..10,
        ) {
            let m = shaped(shape, rows, cols, nnz, seed);
            for shards in 1..=shards.min(rows) {
                let spec = ShardSpec::nnz_balanced(&m, shards).unwrap();
                prop_assert_eq!(spec.ranges(), histogram_walk(&m, shards).as_slice());
                let runs: Vec<Triplet> = (0..shards)
                    .flat_map(|k| spec.entries(&m, k).unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(runs.as_slice(), m.triplets());
                for k in 0..shards {
                    let (start, end) = spec.range(k);
                    let run = spec.entries(&m, k).unwrap();
                    prop_assert!(run.iter().all(|&(r, _, _)| r >= start && r < end));
                    let rebased = m
                        .iter()
                        .filter(|&&(r, _, _)| r >= start && r < end)
                        .map(|&(r, c, v)| (r - start, c, v))
                        .collect();
                    let want = CooMatrix::from_triplets(end - start, m.cols(), rebased).unwrap();
                    prop_assert_eq!(spec.slice(&m, k).unwrap(), want);
                }
            }
        }
    }

    #[test]
    fn uniform_tiles_exactly() {
        let spec = ShardSpec::uniform(10, 3).unwrap();
        assert_eq!(spec.ranges(), &[(0, 4), (4, 7), (7, 10)]);
        assert_eq!(spec.shards(), 3);
        assert_eq!(spec.rows(), 10);
    }

    #[test]
    fn from_ranges_rejects_gaps_overlaps_and_short_covers() {
        assert!(ShardSpec::from_ranges(10, vec![(0, 4), (5, 10)]).is_err());
        assert!(ShardSpec::from_ranges(10, vec![(0, 6), (5, 10)]).is_err());
        assert!(ShardSpec::from_ranges(10, vec![(0, 4), (4, 9)]).is_err());
        assert!(ShardSpec::from_ranges(10, vec![(0, 4), (4, 4), (4, 10)]).is_err());
        assert!(ShardSpec::from_ranges(10, vec![]).is_err());
    }

    #[test]
    fn shard_of_row_matches_ranges() {
        let spec = ShardSpec::uniform(10, 3).unwrap();
        for row in 0..10 {
            let k = spec.shard_of_row(row).unwrap();
            let (start, end) = spec.range(k);
            assert!(row >= start && row < end, "row {row} -> shard {k}");
        }
        assert_eq!(spec.shard_of_row(10), None);
    }

    #[test]
    fn nnz_balanced_beats_uniform_on_skew() {
        // Heavy head: rows 0..4 carry 40 nnz, rows 4..64 carry ~1 each.
        let mut m = CooMatrix::new(64, 64);
        for r in 0..4 {
            for c in 0..10 {
                m.insert(r, c, 1.0).unwrap();
            }
        }
        for r in 4..64 {
            m.insert(r, r, 1.0).unwrap();
        }
        let balanced = ShardSpec::nnz_balanced(&m, 4).unwrap();
        let uniform = ShardSpec::uniform(64, 4).unwrap();
        assert!(
            balanced.nnz_imbalance(&m).unwrap() < uniform.nnz_imbalance(&m).unwrap(),
            "balanced {} should beat uniform {}",
            balanced.nnz_imbalance(&m).unwrap(),
            uniform.nnz_imbalance(&m).unwrap()
        );
    }

    #[test]
    fn nnz_balanced_handles_pathological_head() {
        // All non-zeros in row 0; trailing shards own rows but no nnz.
        let mut m = CooMatrix::new(8, 8);
        for c in 0..8 {
            m.insert(0, c, 1.0).unwrap();
        }
        let spec = ShardSpec::nnz_balanced(&m, 3).unwrap();
        assert_eq!(spec.shards(), 3);
        let counts = spec.nnz_per_shard(&m).unwrap();
        assert_eq!(counts, vec![8, 0, 0]);
    }

    #[test]
    fn nnz_balanced_rejects_more_shards_than_rows() {
        let m = CooMatrix::new(2, 2);
        assert!(ShardSpec::nnz_balanced(&m, 3).is_err());
        assert!(ShardSpec::nnz_balanced(&m, 0).is_err());
    }

    #[test]
    fn slices_partition_the_nnz_and_keep_full_width() {
        let m = uniform_random(40, 24, 200, 11);
        let spec = ShardSpec::nnz_balanced(&m, 4).unwrap();
        let mut total = 0usize;
        for k in 0..spec.shards() {
            let slice = spec.slice(&m, k).unwrap();
            let (start, end) = spec.range(k);
            assert_eq!(slice.rows(), end - start);
            assert_eq!(slice.cols(), m.cols());
            total += slice.nnz();
        }
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn sharded_spmv_equals_full_spmv() {
        let m = uniform_random(48, 48, 300, 5);
        let x: Vec<f32> = (0..48).map(|i| 0.25 + i as f32 * 0.125).collect();
        let want = m.spmv(&x);
        for shards in [1, 2, 3, 5] {
            let spec = ShardSpec::nnz_balanced(&m, shards).unwrap();
            let partials: Vec<Vec<f32>> = (0..shards)
                .map(|k| spec.slice(&m, k).unwrap().spmv(&x))
                .collect();
            let got = spec.gather(&partials).unwrap();
            // Row-block slicing preserves per-row accumulation order, so
            // the gather is bit-identical, not merely close.
            assert_eq!(want, got, "shards={shards}");
        }
    }

    #[test]
    fn gather_validates_partial_lengths() {
        let spec = ShardSpec::uniform(6, 2).unwrap();
        assert!(spec.gather(&[vec![0.0; 3], vec![0.0; 2]]).is_err());
        assert!(spec.gather(&[vec![0.0; 3]]).is_err());
        let ok = spec.gather(&[vec![1.0; 3], vec![2.0; 3]]).unwrap();
        assert_eq!(ok, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn slice_rejects_row_count_mismatch() {
        let spec = ShardSpec::uniform(6, 2).unwrap();
        let m = CooMatrix::new(5, 5);
        assert!(spec.slice(&m, 0).is_err());
        assert!(spec.entries(&m, 0).is_err());
        assert!(spec.nnz_per_shard(&m).is_err());
    }
}
