//! Column-window partitioning (§4.1).
//!
//! The dense vector `x` does not fit on chip, and the wire format carries
//! only 13 column bits, so the accelerator processes a matrix in segments of
//! `W = 8192` columns. Each window is scheduled independently; the engine
//! streams them back-to-back, reloading the on-chip `x` buffer between
//! windows.

use crate::element::WINDOW;
use crate::schedule::{FlatLaneRows, SchedulerConfig, WindowRows};
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// One column window of a matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnWindow {
    /// Index of this window (0-based).
    pub index: usize,
    /// First source column covered (inclusive).
    pub col_start: usize,
    /// One past the last source column covered.
    pub col_end: usize,
    /// The window's entries as a matrix with columns rebased to
    /// `0..(col_end - col_start)`.
    pub matrix: CooMatrix,
}

impl ColumnWindow {
    /// Width of the window in columns.
    pub fn width(&self) -> usize {
        self.col_end - self.col_start
    }
}

/// Splits `matrix` into windows of at most `window` columns.
///
/// Rows are preserved; columns are rebased per window. Every source entry
/// appears in exactly one window.
///
/// # Panics
///
/// Panics if `window == 0`.
///
/// # Example
///
/// ```
/// use chason_core::window::partition_columns;
/// use chason_sparse::CooMatrix;
///
/// # fn main() -> Result<(), chason_sparse::SparseError> {
/// let m = CooMatrix::from_triplets(2, 10, vec![(0, 1, 1.0), (1, 9, 2.0)])?;
/// let windows = partition_columns(&m, 4);
/// assert_eq!(windows.len(), 3);
/// assert_eq!(windows[2].matrix.triplets(), &[(1, 1, 2.0)]); // col 9 -> 1
/// # Ok(())
/// # }
/// ```
pub fn partition_columns(matrix: &CooMatrix, window: usize) -> Vec<ColumnWindow> {
    assert!(window > 0, "window width must be positive");
    let cols = matrix.cols();
    if cols == 0 {
        return Vec::new();
    }
    // One pass over the (row, col)-sorted entries deals each into its
    // window; rebasing by the window start keeps every bucket sorted, so
    // `from_triplets` accepts it on its linear path.
    let mut buckets: Vec<Vec<chason_sparse::Triplet>> = vec![Vec::new(); cols.div_ceil(window)];
    for &(r, c, v) in matrix.iter() {
        let w = c / window;
        buckets[w].push((r, c - w * window, v));
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(index, triplets)| {
            let col_start = index * window;
            let col_end = (col_start + window).min(cols);
            // Columns were rebased into `0..col_end-col_start` and rows are
            // untouched, so the triplets cannot be out of range.
            #[allow(clippy::expect_used)] // xtask: invariant documented above
            let m = CooMatrix::from_triplets(matrix.rows(), col_end - col_start, triplets)
                .expect("window triplets are in range by construction");
            ColumnWindow {
                index,
                col_start,
                col_end,
                matrix: m,
            }
        })
        .collect()
}

/// Splits `matrix` into the paper's `W = 8192` column windows.
pub fn partition_paper_windows(matrix: &CooMatrix) -> Vec<ColumnWindow> {
    partition_columns(matrix, WINDOW)
}

/// Number of `W`-wide windows a matrix of `cols` columns needs.
pub fn window_count(cols: usize, window: usize) -> usize {
    if window == 0 {
        0
    } else {
        cols.div_ceil(window)
    }
}

/// One row partition of a matrix (§4.5: matrices whose per-PE row count
/// exceeds the partial-sum URAM capacity are split and fed in passes).
/// Test-only: the references that [`deal_windows`] and the plan splice are
/// checked against build these.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowPartition {
    /// Index of this partition (0-based).
    pub index: usize,
    /// First source row covered (inclusive).
    pub row_start: usize,
    /// One past the last source row covered.
    pub row_end: usize,
    /// The partition's entries with rows rebased to `0..(row_end - row_start)`.
    ///
    /// The rebase offset is a multiple of the total PE count, so every row
    /// keeps its PE assignment (`row % total_PEs` is invariant) while its
    /// per-PE URAM address shrinks to fit.
    pub matrix: CooMatrix,
}

/// Splits `matrix` into row partitions of at most `max_rows_per_pe` rows
/// per PE for a machine with `total_pes` processing elements.
///
/// Every source entry appears in exactly one partition; results can be
/// computed per partition and concatenated.
///
/// # Panics
///
/// Panics if `max_rows_per_pe == 0` or `total_pes == 0`.
#[cfg(test)]
pub(crate) fn partition_rows_capacity(
    matrix: &CooMatrix,
    max_rows_per_pe: usize,
    total_pes: usize,
) -> Vec<RowPartition> {
    assert!(max_rows_per_pe > 0, "per-PE row capacity must be positive");
    assert!(total_pes > 0, "total PE count must be positive");
    let span = max_rows_per_pe * total_pes;
    let rows = matrix.rows();
    if rows == 0 {
        return Vec::new();
    }
    let parts = rows.div_ceil(span);
    let mut buckets: Vec<Vec<chason_sparse::Triplet>> = vec![Vec::new(); parts];
    for &(r, c, v) in matrix.iter() {
        let p = r / span;
        buckets[p].push((r - p * span, c, v));
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(index, triplets)| {
            let row_start = index * span;
            let row_end = ((index + 1) * span).min(rows);
            // Rows were rebased by a multiple of the span, so every triplet
            // fits `0..row_end-row_start` by construction.
            #[allow(clippy::expect_used)] // xtask: invariant documented above
            let m = CooMatrix::from_triplets(row_end - row_start, matrix.cols(), triplets)
                .expect("partition triplets are in range by construction");
            RowPartition {
                index,
                row_start,
                row_end,
                matrix: m,
            }
        })
        .collect()
}

/// One column window of a [`DealtPass`], its entries dealt to the PE
/// lanes that own them.
#[derive(Debug, Clone, PartialEq)]
pub struct DealtWindow {
    /// Index of the window within its pass.
    pub index: usize,
    /// First source column covered (inclusive).
    pub col_start: usize,
    /// One past the last source column covered.
    pub col_end: usize,
    /// The window's entries, rebased and grouped for the schedulers.
    pub rows: WindowRows,
}

/// One row pass of a dealt matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DealtPass {
    /// First source row covered (inclusive).
    pub row_start: usize,
    /// One past the last source row covered.
    pub row_end: usize,
    /// The pass's selected windows, in column order.
    pub windows: Vec<DealtWindow>,
}

/// Splits `(row, col)`-sorted entries into runs of one row within one
/// column window: `(row, window index, entry range)`, in entry order. Only
/// the first entry of a run is divided by the window width.
fn window_runs(
    entries: &[chason_sparse::Triplet],
    window: usize,
) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> + '_ {
    let mut next = 0;
    std::iter::from_fn(move || {
        let &(row, col, _) = entries.get(next)?;
        let w = col / window;
        let window_end = (w + 1) * window;
        let start = next;
        next += 1 + entries[next + 1..]
            .iter()
            .take_while(|&&(r, c, _)| r == row && c < window_end)
            .count();
        Some((row, w, start..next))
    })
}

/// Deals the entries of `matrix` straight into the schedulers' per-lane
/// arenas for every (row pass, column window) that `keep(pass, window)`
/// selects — the same entries as splitting the matrix into row passes,
/// then each pass into column windows ([`partition_columns`]), then
/// grouping each window by owning lane, without building any intermediate
/// matrix.
///
/// Passes cover `max_rows_per_pe × total_PEs` rows each (a matrix with no
/// rows still has one, empty, pass); windows cover `window` columns each
/// (a matrix with no columns has none). Rows are rebased by their pass
/// start and columns by their window start.
///
/// The work is two linear scans of the `(row, col)`-sorted entries,
/// whatever the window count: a counting pass sizes every selected lane's
/// arena exactly, and a fill pass deals each entry into it. Entries of
/// unselected windows are skipped by both.
///
/// Lanes store rows, columns and arena offsets in 32 bits.
///
/// # Panics
///
/// Panics if `config` is invalid, if `max_rows_per_pe` or `window` is 0,
/// or if a pass's rows, a window's columns or the matrix's non-zeros
/// exceed `2^32`.
pub fn deal_windows(
    matrix: &CooMatrix,
    config: &SchedulerConfig,
    max_rows_per_pe: usize,
    window: usize,
    keep: impl Fn(usize, usize) -> bool,
) -> Vec<DealtPass> {
    assert!(config.is_valid(), "invalid scheduler configuration");
    assert!(max_rows_per_pe > 0, "per-PE row capacity must be positive");
    assert!(window > 0, "window width must be positive");
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let pes = config.total_pes();
    let span = max_rows_per_pe * pes;
    let passes = rows.div_ceil(span).max(1);
    let windows = cols.div_ceil(window);
    assert!(
        rows.min(span) <= 1 << 32
            && cols.min(window) <= 1 << 32
            && matrix.nnz() <= u32::MAX as usize,
        "matrix exceeds the dealt lanes' 32-bit rows, columns and offsets"
    );
    let kept: Vec<bool> = (0..passes * windows)
        .map(|cell| keep(cell / windows, cell % windows))
        .collect();

    // Counting pass: non-zeros and row spans per (cell, PE); each run is
    // one row's entries in one window, so it is one span.
    let entries = matrix.triplets();
    let mut nnz = vec![0usize; kept.len() * pes];
    let mut spans = vec![0usize; kept.len() * pes];
    for (r, w, run) in window_runs(entries, window) {
        let cell = r / span * windows + w;
        if kept[cell] {
            let at = cell * pes + config.pe_for_row(r);
            nnz[at] += run.len();
            spans[at] += 1;
        }
    }

    let mut lanes: Vec<FlatLaneRows> = nnz
        .iter()
        .zip(&spans)
        .map(|(&n, &s)| FlatLaneRows {
            entries: Vec::with_capacity(n),
            spans: Vec::with_capacity(s),
        })
        .collect();
    // Fill pass. Rows ascend, so each lane's rows arrive grouped and in
    // order; rebasing by a multiple of the PE count keeps every row's
    // owner, so the owner of the global row is the owner of the local one.
    for (r, w, run) in window_runs(entries, window) {
        let cell = r / span * windows + w;
        if kept[cell] {
            let lane = &mut lanes[cell * pes + config.pe_for_row(r)];
            let start = lane.entries.len() as u32;
            let col_start = w * window;
            lane.entries.extend(
                entries[run]
                    .iter()
                    .map(|&(_, c, v)| ((c - col_start) as u32, v)),
            );
            lane.spans
                .push(((r % span) as u32, start, lane.entries.len() as u32));
        }
    }

    let mut dealt: Vec<DealtPass> = (0..passes)
        .map(|p| DealtPass {
            row_start: p * span,
            row_end: ((p + 1) * span).min(rows),
            windows: Vec::new(),
        })
        .collect();
    let mut lanes = lanes.into_iter();
    for (cell, (&selected, cell_nnz)) in kept.iter().zip(nnz.chunks(pes)).enumerate() {
        let cell_lanes = lanes.by_ref().take(pes);
        if !selected {
            cell_lanes.for_each(drop);
            continue;
        }
        let pass = &mut dealt[cell / windows];
        let index = cell % windows;
        let col_start = index * window;
        let col_end = (col_start + window).min(cols);
        let rows = WindowRows::new(
            pass.row_end - pass.row_start,
            col_end - col_start,
            cell_nnz.iter().sum(),
            cell_lanes.collect(),
        );
        pass.windows.push(DealtWindow {
            index,
            col_start,
            col_end,
            rows,
        });
    }
    dealt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::tests::partition_rows;
    use chason_sparse::generators::uniform_random;
    use proptest::prelude::*;

    /// What [`deal_windows`] must equal: partition into row passes, then
    /// each pass into column windows, then group each selected window by
    /// lane.
    fn reference_deal(
        m: &CooMatrix,
        config: &SchedulerConfig,
        max_rows_per_pe: usize,
        window: usize,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<DealtPass> {
        partition_rows_capacity(m, max_rows_per_pe, config.total_pes())
            .into_iter()
            .map(|pass| DealtPass {
                row_start: pass.row_start,
                row_end: pass.row_end,
                windows: partition_columns(&pass.matrix, window)
                    .into_iter()
                    .filter(|w| keep(pass.index, w.index))
                    .map(|w| DealtWindow {
                        index: w.index,
                        col_start: w.col_start,
                        col_end: w.col_end,
                        rows: WindowRows::new(
                            w.matrix.rows(),
                            w.matrix.cols(),
                            w.matrix.nnz(),
                            partition_rows(&w.matrix, config),
                        ),
                    })
                    .collect(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dealing_equals_partitioning_then_grouping(
            (rows, cols) in (1usize..120, 0usize..90),
            nnz in 0usize..400,
            seed in 0u64..1000,
            (channels, lanes) in (1usize..5, 1usize..5),
            max_rows_per_pe in 1usize..8,
            window in 1usize..24,
            keep_mask in any::<u64>(),
        ) {
            let m = uniform_random(rows, cols, nnz, seed);
            let config = SchedulerConfig::toy(channels, lanes, 4);
            let keep = |p: usize, w: usize| keep_mask >> ((p * 13 + w) % 64) & 1 == 1;
            let dealt = deal_windows(&m, &config, max_rows_per_pe, window, keep);
            prop_assert_eq!(&dealt, &reference_deal(&m, &config, max_rows_per_pe, window, keep));
            // The counting pass sized every arena exactly.
            for lane in dealt.iter().flat_map(|p| &p.windows).flat_map(|w| &w.rows.lanes) {
                prop_assert_eq!(lane.entries.len(), lane.entries.capacity());
                prop_assert_eq!(lane.spans.len(), lane.spans.capacity());
            }
        }
    }

    #[test]
    fn dealing_covers_passes_without_rows_or_windows() {
        let config = SchedulerConfig::toy(2, 2, 4);
        // No rows: one empty pass; its windows are still dealt.
        let dealt = deal_windows(&CooMatrix::new(0, 10), &config, 3, 4, |_, _| true);
        assert_eq!(dealt.len(), 1);
        assert_eq!((dealt[0].row_start, dealt[0].row_end), (0, 0));
        assert_eq!(dealt[0].windows.len(), 3);
        assert!(dealt[0].windows.iter().all(|w| w.rows.nnz() == 0));
        // No columns: passes without windows.
        let dealt = deal_windows(&CooMatrix::new(30, 0), &config, 3, 4, |_, _| true);
        assert_eq!(dealt.len(), 3);
        assert!(dealt.iter().all(|p| p.windows.is_empty()));
        // Nothing selected: the skeleton alone.
        let m = uniform_random(30, 30, 200, 4);
        let dealt = deal_windows(&m, &config, 3, 8, |_, _| false);
        assert_eq!(dealt.len(), 3);
        assert!(dealt.iter().all(|p| p.windows.is_empty()));
    }

    #[test]
    fn windows_cover_every_entry_once() {
        let m = uniform_random(50, 100, 400, 5);
        let windows = partition_columns(&m, 16);
        let total: usize = windows.iter().map(|w| w.matrix.nnz()).sum();
        assert_eq!(total, 400);
        // Reconstituting global coordinates recovers the source.
        let mut rebuilt = Vec::new();
        for w in &windows {
            for &(r, c, v) in w.matrix.iter() {
                rebuilt.push((r, c + w.col_start, v));
            }
        }
        rebuilt.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(rebuilt, m.triplets());
    }

    #[test]
    fn window_boundaries_are_contiguous() {
        let m = uniform_random(10, 100, 50, 1);
        let windows = partition_columns(&m, 30);
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].col_start, 0);
        assert_eq!(windows[3].col_end, 100);
        for pair in windows.windows(2) {
            assert_eq!(pair[0].col_end, pair[1].col_start);
        }
        assert_eq!(windows[3].width(), 10); // trailing partial window
    }

    #[test]
    fn narrow_matrix_is_a_single_window() {
        let m = uniform_random(10, 10, 20, 2);
        let windows = partition_paper_windows(&m);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].matrix, m);
    }

    #[test]
    fn zero_column_matrix_has_no_windows() {
        let m = chason_sparse::CooMatrix::new(5, 0);
        assert!(partition_columns(&m, 8).is_empty());
    }

    #[test]
    fn window_count_math() {
        assert_eq!(window_count(8192, 8192), 1);
        assert_eq!(window_count(8193, 8192), 2);
        assert_eq!(window_count(0, 8192), 0);
        assert_eq!(window_count(10, 0), 0);
    }

    #[test]
    fn row_partitions_cover_every_entry_once() {
        let m = uniform_random(100, 20, 300, 4);
        let parts = partition_rows_capacity(&m, 3, 8); // spans of 24 rows
        assert_eq!(parts.len(), 100usize.div_ceil(24));
        let total: usize = parts.iter().map(|p| p.matrix.nnz()).sum();
        assert_eq!(total, 300);
        let mut rebuilt = Vec::new();
        for p in &parts {
            for &(r, c, v) in p.matrix.iter() {
                rebuilt.push((r + p.row_start, c, v));
            }
        }
        rebuilt.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(rebuilt, m.triplets());
    }

    #[test]
    fn row_partitions_preserve_pe_assignment() {
        let m = uniform_random(64, 8, 120, 9);
        let total_pes = 8;
        for p in partition_rows_capacity(&m, 2, total_pes) {
            for &(r, _, _) in p.matrix.iter() {
                assert_eq!(
                    (r + p.row_start) % total_pes,
                    r % total_pes,
                    "rebase must not change the PE a row maps to"
                );
            }
        }
    }

    #[test]
    fn single_partition_when_capacity_suffices() {
        let m = uniform_random(16, 16, 40, 2);
        let parts = partition_rows_capacity(&m, 8, 4);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].matrix, m);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let m = chason_sparse::CooMatrix::new(4, 4);
        let _ = partition_rows_capacity(&m, 0, 4);
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_window_width_is_rejected() {
        let m = chason_sparse::CooMatrix::new(1, 1);
        let _ = partition_columns(&m, 0);
    }
}
