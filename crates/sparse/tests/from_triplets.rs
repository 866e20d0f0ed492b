//! `CooMatrix::from_triplets` accepts strictly `(row, col)`-increasing,
//! in-bounds input in one linear pass. This property pins that the fast
//! path is invisible: on shuffled, sorted, duplicated and out-of-bounds
//! inputs it returns exactly what the general hashing path returns — the
//! same matrix, or the same error naming the first offending triplet in
//! input order.

use chason_sparse::{CooMatrix, SparseError, Triplet};
use proptest::prelude::*;
use std::collections::HashSet;

/// The general path on its own: validate every triplet in input order
/// against the bounds and a set of seen coordinates, then sort.
fn hashing_path(
    rows: usize,
    cols: usize,
    triplets: &[Triplet],
) -> Result<Vec<Triplet>, SparseError> {
    let mut seen = HashSet::new();
    for &(r, c, _) in triplets {
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
    let mut sorted = triplets.to_vec();
    sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
    Ok(sorted)
}

/// Reshapes a draw by `shape`:
///
/// * 0 — as drawn (unordered, duplicates and out-of-bounds possible);
/// * 1 — in bounds, sorted, duplicates removed: the linear path accepts it;
/// * 2 — in bounds and sorted, duplicates kept;
/// * 3 — sorted, duplicates removed, out-of-bounds coordinates kept;
/// * 4 — as 1, then reversed;
/// * 5 — as 1, then rotated by `turn`.
fn arrange(mut t: Vec<Triplet>, rows: usize, cols: usize, shape: u8, turn: usize) -> Vec<Triplet> {
    if shape == 0 {
        return t;
    }
    if shape != 3 {
        t.retain(|&(r, c, _)| r < rows && c < cols);
    }
    t.sort_by_key(|&(r, c, _)| (r, c));
    if shape != 2 {
        t.dedup_by_key(|&mut (r, c, _)| (r, c));
    }
    match shape {
        4 => t.reverse(),
        5 if !t.is_empty() => {
            let by = turn % t.len();
            t.rotate_left(by);
        }
        _ => {}
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coordinates are drawn one past each bound, so out-of-bounds rows and
    /// columns, duplicates and already-sorted runs all occur.
    #[test]
    fn from_triplets_matches_the_hashing_path(
        (rows, cols, drawn) in (1usize..7, 1usize..7).prop_flat_map(|(rows, cols)| {
            let triplet = (0..rows + 1, 0..cols + 1, -4.0f32..4.0);
            (Just(rows), Just(cols), proptest::collection::vec(triplet, 0..24))
        }),
        shape in 0u8..6,
        turn in 0usize..64,
    ) {
        let triplets = arrange(drawn, rows, cols, shape, turn);
        let got = CooMatrix::from_triplets(rows, cols, triplets.clone());
        match hashing_path(rows, cols, &triplets) {
            Ok(sorted) => {
                let m = got.expect("the hashing path accepted this input");
                prop_assert_eq!((m.rows(), m.cols()), (rows, cols));
                prop_assert_eq!(m.triplets(), &sorted[..]);
            }
            Err(expected) => prop_assert_eq!(got.unwrap_err(), expected),
        }
    }
}

#[test]
fn sorted_input_with_one_late_anomaly_reports_it() {
    let mut t: Vec<Triplet> = (0..10).map(|i| (i, i, 1.0)).collect();
    t.push((3, 3, 2.0));
    assert_eq!(
        CooMatrix::from_triplets(10, 10, t.clone()).unwrap_err(),
        SparseError::DuplicateEntry { row: 3, col: 3 }
    );
    t.pop();
    t.push((9, 10, 1.0));
    assert_eq!(
        CooMatrix::from_triplets(10, 10, t).unwrap_err(),
        SparseError::ColOutOfBounds { col: 10, cols: 10 }
    );
}
