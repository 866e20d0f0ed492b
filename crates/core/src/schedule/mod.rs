//! Non-zero schedulers and the shared schedule representation.
//!
//! A schedule is a per-channel grid of *slots*: slot `(cycle, pe)` holds
//! either a scheduled non-zero ([`NzSlot`]) or a stall. One cycle of a
//! channel corresponds to one 512-bit HBM beat delivering
//! `pes_per_channel` elements to the channel's PEG. Stalls are never
//! stored: a [`ChannelSchedule`] keeps only its occupied slots (see its
//! docs), and schedulers emit those directly.

mod channel;
mod crhcs;
mod pe_aware;
mod row_based;
mod row_split;

pub use channel::ChannelSchedule;
pub use crhcs::{migrate, migrated, Crhcs, MigrationReport};
pub use pe_aware::PeAware;
pub use row_based::RowBased;
pub use row_split::HybridRowSplit;

use crate::diag::{Location, RuleId, ScheduleError};
use crate::element;
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// Architectural parameters the schedulers target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// HBM channels carrying sparse-matrix data (16 in the paper).
    pub channels: usize,
    /// PEs per channel / PEG (8 in the paper — one per 64-bit lane of the
    /// 512-bit port).
    pub pes_per_channel: usize,
    /// RAW dependency distance in cycles: the FP accumulator depth
    /// (10 on the Alveo U55c, §2.2).
    pub dependency_distance: usize,
    /// How many migration candidates CrHCS examines per stall slot before
    /// giving up on it (bounds preprocessing cost; §3.3 reports the search
    /// practically never fails).
    pub migration_scan_limit: usize,
    /// How many ring neighbours CrHCS may migrate from (§3.1 and §6.1).
    ///
    /// The paper deploys 1 (the immediate next channel) because each extra
    /// hop costs another set of `URAM_sh` banks per PE; §6.1 projects that
    /// 2–3 hops would reduce the residual underutilization further on a
    /// larger FPGA. Values above 1 also require widening the wire format's
    /// metadata (the 3-bit `PE_src` tag must grow a hop field), which this
    /// model accounts for in the resource estimate, not the 64-bit codec.
    pub migration_hops: usize,
}

impl SchedulerConfig {
    /// The paper's configuration: 16 channels × 8 PEs, distance 10.
    pub fn paper() -> Self {
        SchedulerConfig {
            channels: 16,
            pes_per_channel: 8,
            dependency_distance: 10,
            migration_scan_limit: 256,
            migration_hops: 1,
        }
    }

    /// A reduced configuration handy for unit tests and worked examples
    /// (Fig. 2/4/5 use 4 PEs per channel).
    pub fn toy(channels: usize, pes_per_channel: usize, dependency_distance: usize) -> Self {
        SchedulerConfig {
            channels,
            pes_per_channel,
            dependency_distance,
            migration_scan_limit: 256,
            migration_hops: 1,
        }
    }

    /// Total PEs across all channels.
    pub fn total_pes(&self) -> usize {
        self.channels * self.pes_per_channel
    }

    /// Global PE index a row maps to (Eq. 1: `PE_id = row_id % TotalPEs`).
    pub fn pe_for_row(&self, row: usize) -> usize {
        row % self.total_pes()
    }

    /// Channel a row maps to (consecutive PEs are grouped into PEGs).
    pub fn channel_for_row(&self, row: usize) -> usize {
        self.pe_for_row(row) / self.pes_per_channel
    }

    /// PE index *within its channel* a row maps to.
    pub fn lane_for_row(&self, row: usize) -> usize {
        self.pe_for_row(row) % self.pes_per_channel
    }

    /// Per-PE URAM address of a row (the 15-bit `row` field of §3.2).
    pub fn local_row(&self, row: usize) -> usize {
        row / self.total_pes()
    }

    /// Validates the configuration against the wire format's bit budgets.
    pub fn is_valid(&self) -> bool {
        self.channels > 0
            && self.pes_per_channel > 0
            && self.pes_per_channel <= (1 << element::PE_SRC_BITS)
            && self.dependency_distance > 0
            && self.migration_hops >= 1
            && self.migration_hops < self.channels.max(2)
    }

    /// Ring distance from a migrated element's home channel to the channel
    /// that streams it (`0` for private elements).
    pub fn hop_for(&self, streaming_channel: usize, home_channel: usize) -> usize {
        (home_channel + self.channels - streaming_channel) % self.channels
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::paper()
    }
}

/// One scheduled non-zero occupying a slot of a channel's data list.
///
/// `row` and `col` are *global* matrix coordinates; the wire format's local
/// encodings are derived when packing (see [`ChannelSchedule::data_list`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NzSlot {
    /// The non-zero value.
    pub value: f32,
    /// Global row index.
    pub row: usize,
    /// Global column index.
    pub col: usize,
    /// `true` if the element is streamed by the channel that owns its row.
    pub pvt: bool,
    /// For migrated elements: the lane the element was originally scheduled
    /// for in its home channel. 0 for private elements.
    pub pe_src: u8,
}

impl NzSlot {
    /// Creates a private slot for a row owned by the streaming channel.
    pub fn private(value: f32, row: usize, col: usize) -> Self {
        NzSlot {
            value,
            row,
            col,
            pvt: true,
            pe_src: 0,
        }
    }
}

/// A complete schedule: one [`ChannelSchedule`] per channel.
///
/// Every stall is virtual. Within a channel, stall slots are the grid
/// positions no occupied slot claims; across channels, the
/// synchronized-finish rule of §3.1 — every list padded to the longest
/// channel — is applied the same way: channels are stored *trimmed*,
/// [`ScheduledMatrix::stalls`] and the underutilization metrics count the
/// implicit padding, and [`ScheduledMatrix::data_lists_padded`]
/// materializes it only for the hardware stream. PE-aware schedules are
/// mostly stalls, and a single RAW-chain-bound channel can be orders of
/// magnitude longer than its siblings, so storing stalls would dominate
/// both memory and cold-start time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledMatrix {
    /// The configuration the schedule was built for.
    pub config: SchedulerConfig,
    /// Per-channel data lists.
    pub channels: Vec<ChannelSchedule>,
    /// Rows of the source matrix.
    pub rows: usize,
    /// Columns of the source matrix.
    pub cols: usize,
    /// Non-zeros of the source matrix.
    pub nnz: usize,
}

impl ScheduledMatrix {
    /// Total stall slots across all channels, *including* the virtual
    /// padding that equalizes every list to the longest channel (§3.1):
    /// `Σ_c (stream_cycles × PEs − nonzeros_c)`.
    pub fn stalls(&self) -> usize {
        let cycles = self.stream_cycles();
        let pes = self.config.pes_per_channel;
        self.channels
            .iter()
            .map(|ch| cycles * pes - ch.nonzeros())
            .sum()
    }

    /// Total scheduled non-zeros across all channels (equals `nnz` for a
    /// conserving scheduler).
    pub fn scheduled_nonzeros(&self) -> usize {
        self.channels.iter().map(ChannelSchedule::nonzeros).sum()
    }

    /// PE underutilization per Eq. 4: `stalls / (nnz + stalls)`, in `[0, 1]`.
    pub fn underutilization(&self) -> f64 {
        let stalls = self.stalls() as f64;
        let nnz = self.scheduled_nonzeros() as f64;
        if stalls + nnz == 0.0 {
            0.0
        } else {
            stalls / (nnz + stalls)
        }
    }

    /// Underutilization of each channel's PEG, including the virtual
    /// padding to the longest channel.
    pub fn per_channel_underutilization(&self) -> Vec<f64> {
        let cycles = self.stream_cycles();
        let pes = self.config.pes_per_channel;
        self.channels
            .iter()
            .map(|ch| {
                let slots = cycles * pes;
                if slots == 0 {
                    0.0
                } else {
                    (slots - ch.nonzeros()) as f64 / slots as f64
                }
            })
            .collect()
    }

    /// Length of the (equalized) channel lists in cycles.
    pub fn stream_cycles(&self) -> usize {
        self.channels
            .iter()
            .map(ChannelSchedule::cycles)
            .max()
            .unwrap_or(0)
    }

    /// Packs every channel into its 64-bit data list, padded with stall
    /// words to the longest channel — the exact streams the hardware
    /// consumes (§3.1's synchronized finish).
    pub fn data_lists_padded(&self) -> Vec<Vec<u64>> {
        let cycles = self.stream_cycles();
        let pes = self.config.pes_per_channel;
        self.channels
            .iter()
            .map(|ch| {
                let mut words = ch.data_list(&self.config);
                words.resize(cycles * pes, crate::element::STALL_WORD);
                words
            })
            .collect()
    }

    /// Checks the structural invariants every scheduler must uphold,
    /// returning the first violation as a typed [`ScheduleError`] carrying a
    /// stable [`RuleId`]:
    ///
    /// * **S002** — every source non-zero appears exactly once (duplicates
    ///   are reported even when the two copies live in *different* channels
    ///   with identical values);
    /// * **S003** — two slots of the same row never land in the same
    ///   destination PE within the RAW dependency distance.
    ///
    /// This is the fast first-error check schedulers assert against. The
    /// `chason-verify` crate runs the full rule set (S001–S006) and collects
    /// *all* violations instead of stopping at the first.
    pub fn validate(&self, source: &CooMatrix) -> Result<(), ScheduleError> {
        use std::collections::HashMap;
        // Conservation (S002). Key on (row, col) but remember where the
        // first copy was scheduled, so a duplicate — even one carrying the
        // identical value in another channel's lane — is reported with both
        // locations instead of silently colliding in the map.
        let mut scheduled: HashMap<(usize, usize), (f32, Location)> = HashMap::new();
        for ch in &self.channels {
            for (cycle, lane, nz) in ch.occupied() {
                let here = Location::slot(ch.channel, cycle, lane);
                if let Some((prev_value, prev_loc)) =
                    scheduled.insert((nz.row, nz.col), (nz.value, here))
                {
                    let same = if prev_value == nz.value {
                        " with an identical value"
                    } else {
                        ""
                    };
                    return Err(ScheduleError::new(
                        RuleId::S002,
                        here,
                        format!(
                            "entry ({}, {}) scheduled more than once{same}: first at {prev_loc}",
                            nz.row, nz.col
                        ),
                    ));
                }
            }
        }
        if scheduled.len() != source.nnz() {
            return Err(ScheduleError::new(
                RuleId::S002,
                Location::whole_artifact(),
                format!(
                    "scheduled {} of {} source non-zeros",
                    scheduled.len(),
                    source.nnz()
                ),
            ));
        }
        for &(r, c, v) in source.iter() {
            match scheduled.get(&(r, c)) {
                Some(&(sv, _)) if sv == v => {}
                Some(&(sv, loc)) => {
                    return Err(ScheduleError::new(
                        RuleId::S002,
                        loc,
                        format!("entry ({r}, {c}) value {sv} != source {v}"),
                    ))
                }
                None => {
                    return Err(ScheduleError::new(
                        RuleId::S002,
                        Location::whole_artifact(),
                        format!("entry ({r}, {c}) missing from schedule"),
                    ))
                }
            }
        }
        // RAW distance within each destination PE (S003).
        let d = self.config.dependency_distance;
        for ch in &self.channels {
            // Last cycle per (lane, row); occupied slots arrive in cycle
            // order, so every lane sees its slots in stream order.
            let mut last: HashMap<(usize, usize), usize> = HashMap::new();
            for (cycle, lane, slot) in ch.occupied() {
                if let Some(&prev) = last.get(&(lane, slot.row)) {
                    if cycle - prev < d {
                        return Err(ScheduleError::new(
                            RuleId::S003,
                            Location::slot(ch.channel, cycle, lane),
                            format!(
                                "RAW violation: row {} at cycles {} and {} (distance {})",
                                slot.row, prev, cycle, d
                            ),
                        ));
                    }
                }
                last.insert((lane, slot.row), cycle);
            }
        }
        Ok(())
    }
}

/// A non-zero scheduling policy.
///
/// Implementations must conserve non-zeros and respect the RAW dependency
/// distance within every destination PE — see
/// [`ScheduledMatrix::validate`].
pub trait Scheduler {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Schedules one window's non-zeros, already dealt to the PE lanes
    /// that own them ([`crate::window::deal_windows`]), onto the channels
    /// of `config`. Planning calls this once per (row pass, column
    /// window) without materializing a sub-matrix per window.
    fn schedule_rows(&self, rows: &WindowRows, config: &SchedulerConfig) -> ScheduledMatrix;

    /// Schedules every non-zero of `matrix` onto the channels of `config`:
    /// the whole matrix dealt as a single window.
    fn schedule(&self, matrix: &CooMatrix, config: &SchedulerConfig) -> ScheduledMatrix {
        self.schedule_rows(&WindowRows::from_matrix(matrix, config), config)
    }
}

/// One window's non-zeros grouped by owning (channel, lane, row): the
/// shared front end of every scheduler.
///
/// Rows and columns are local to the window — rebased by its row pass and
/// column window exactly as `partition_rows_capacity` and
/// `partition_columns` rebase them. Lanes are stored flat, PE `channel ×
/// pes_per_channel + lane` at that index, each one flat arena of its rows'
/// `(col, value)` entries sized exactly by the dealing routine's counting
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRows {
    rows: usize,
    cols: usize,
    nnz: usize,
    pub(crate) lanes: Vec<FlatLaneRows>,
}

impl WindowRows {
    pub(crate) fn new(rows: usize, cols: usize, nnz: usize, lanes: Vec<FlatLaneRows>) -> Self {
        WindowRows {
            rows,
            cols,
            nnz,
            lanes,
        }
    }

    /// Deals all of `matrix` as one window: the whole-matrix case of
    /// [`crate::window::deal_windows`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn from_matrix(matrix: &CooMatrix, config: &SchedulerConfig) -> Self {
        let rows_per_pe = matrix.rows().div_ceil(config.total_pes().max(1)).max(1);
        crate::window::deal_windows(matrix, config, rows_per_pe, matrix.cols().max(1), |_, _| {
            true
        })
        .into_iter()
        .flat_map(|pass| pass.windows)
        .map(|window| window.rows)
        .next()
        // Only a column-less matrix has no window, and it has no entries.
        .unwrap_or_else(|| {
            WindowRows::new(
                matrix.rows(),
                matrix.cols(),
                0,
                vec![FlatLaneRows::default(); config.total_pes()],
            )
        })
    }

    /// Rows of the window (its row pass's height).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zeros in the window.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The lanes of each channel in channel order, checked against the
    /// geometry the window was dealt for.
    pub(crate) fn channels(
        &self,
        config: &SchedulerConfig,
    ) -> std::slice::Chunks<'_, FlatLaneRows> {
        assert_eq!(
            self.lanes.len(),
            config.total_pes(),
            "window rows were dealt for another PE geometry"
        );
        self.lanes.chunks(config.pes_per_channel)
    }

    /// The empty schedule skeleton `schedule_rows` fills: the window's
    /// dimensions and `channels` under `config`.
    pub(crate) fn scheduled(
        &self,
        config: &SchedulerConfig,
        channels: Vec<ChannelSchedule>,
    ) -> ScheduledMatrix {
        ScheduledMatrix {
            config: *config,
            channels,
            rows: self.rows,
            cols: self.cols,
            nnz: self.nnz,
        }
    }
}

/// The rows owned by one PE lane, stored flat: one shared `(col, value)`
/// arena plus `(row, start, end)` spans into it, rows ascending, each row's
/// entries in ascending column order.
///
/// The previous layout, `Vec<(row, Vec<(col, value)>)>`, paid one heap
/// allocation (plus growth reallocations) per matrix row; planning pays
/// that cost once per column window, so on window-partitioned matrices it
/// dominated the scheduling profile. The flat arena allocates twice per
/// lane regardless of row count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FlatLaneRows {
    /// `(col, value)` entries of every row of the lane, grouped by row.
    pub entries: Vec<(usize, f32)>,
    /// Per row: `(row, start, end)` half-open span into `entries`.
    pub spans: Vec<(usize, usize, usize)>,
}

impl FlatLaneRows {
    /// Appends one entry, extending the current row's span or opening a new
    /// one. Entries of a row must arrive consecutively.
    pub fn push_entry(&mut self, row: usize, col: usize, value: f32) {
        match self.spans.last_mut() {
            Some((last_row, _, end)) if *last_row == row => *end += 1,
            _ => {
                let at = self.entries.len();
                self.spans.push((row, at, at + 1));
            }
        }
        self.entries.push((col, value));
    }

    /// Entries of the row behind `spans[idx]`.
    pub fn row_entries(&self, idx: usize) -> &[(usize, f32)] {
        let (_, start, end) = self.spans[idx];
        &self.entries[start..end]
    }
}

/// Reusable per-lane scheduling scratch ([`PeAware::schedule_lane`]): the
/// row cursors, last-emission cycles and live-row ring are cleared and
/// refilled for each lane instead of reallocated, which matters when
/// planning schedules one window after another.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// Next unconsumed index into `entries` per row span.
    pub(crate) cursor: Vec<usize>,
    /// Cycle of the row's previous emission (`usize::MAX` = never).
    pub(crate) last_cycle: Vec<usize>,
    /// Ring of rows with entries left, in span order: successor per span.
    pub(crate) next: Vec<usize>,
    /// Predecessor per span in the same ring.
    pub(crate) prev: Vec<usize>,
}

impl LaneScratch {
    /// Refills the scratch for `lane`: cursors at each row's first entry,
    /// no emissions yet, every row linked into the live ring.
    pub(crate) fn reset(&mut self, lane: &FlatLaneRows) {
        let n = lane.spans.len();
        self.cursor.clear();
        self.cursor
            .extend(lane.spans.iter().map(|&(_, start, _)| start));
        self.last_cycle.clear();
        self.last_cycle.resize(n, usize::MAX);
        self.next.clear();
        self.next.extend((0..n).map(|i| (i + 1) % n));
        self.prev.clear();
        self.prev.extend((0..n).map(|i| (i + n - 1) % n));
    }

    /// Removes span `idx` from the live ring in O(1).
    pub(crate) fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.prev[idx], self.next[idx]);
        self.next[prev] = next;
        self.prev[next] = prev;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::element::SparseElement;

    /// Reference front end: groups a whole matrix's non-zeros by owning
    /// (channel, lane, row) with one push per entry, the grouping
    /// [`WindowRows`] must reproduce.
    pub(crate) fn partition_rows(
        matrix: &CooMatrix,
        config: &SchedulerConfig,
    ) -> Vec<FlatLaneRows> {
        let mut by_pe = vec![FlatLaneRows::default(); config.total_pes()];
        for &(r, c, v) in matrix.iter() {
            by_pe[config.pe_for_row(r)].push_entry(r, c, v);
        }
        by_pe
    }

    #[test]
    fn config_row_mapping_matches_eq1() {
        let cfg = SchedulerConfig::paper();
        assert_eq!(cfg.total_pes(), 128);
        assert_eq!(cfg.pe_for_row(0), 0);
        assert_eq!(cfg.pe_for_row(129), 1);
        assert_eq!(cfg.channel_for_row(0), 0);
        assert_eq!(cfg.channel_for_row(8), 1);
        assert_eq!(cfg.lane_for_row(9), 1);
        assert_eq!(cfg.local_row(128), 1);
        assert!(cfg.is_valid());
    }

    #[test]
    fn config_rejects_too_many_lanes_for_pe_src_bits() {
        let cfg = SchedulerConfig::toy(2, 9, 10);
        assert!(!cfg.is_valid(), "9 lanes cannot be tagged in 3 bits");
    }

    #[test]
    fn channel_schedule_counts() {
        let mut ch = ChannelSchedule::new(0, 2);
        ch.insert(0, 0, NzSlot::private(1.0, 0, 0));
        ch.set_cycles(2);
        assert_eq!(ch.cycles(), 2);
        assert_eq!(ch.stalls(), 3);
        assert_eq!(ch.nonzeros(), 1);
        assert_eq!(ch.slot(0, 0), Some(&NzSlot::private(1.0, 0, 0)));
        assert_eq!(ch.slot(0, 1), None);
        assert_eq!(ch.slot(5, 0), None);
    }

    #[test]
    fn trim_removes_only_trailing_stall_cycles() {
        let mut ch = ChannelSchedule::new(0, 1);
        ch.insert(1, 0, NzSlot::private(1.0, 0, 0));
        ch.set_cycles(4);
        assert_eq!(ch.cycles(), 4);
        ch.trim();
        assert_eq!(ch.cycles(), 2);
        // Leading stall cycle survives.
        assert_eq!(ch.stalls(), 1);
    }

    #[test]
    fn edits_keep_slots_in_stream_order() {
        let mut ch = ChannelSchedule::new(0, 2);
        ch.insert(3, 1, NzSlot::private(3.0, 1, 0));
        ch.insert(0, 1, NzSlot::private(1.0, 1, 1));
        ch.insert(3, 0, NzSlot::private(2.0, 0, 2));
        ch.insert(1, 0, NzSlot::private(4.0, 4, 0));
        let order: Vec<(usize, usize)> = ch.occupied().map(|(c, l, _)| (c, l)).collect();
        assert_eq!(order, vec![(0, 1), (1, 0), (3, 0), (3, 1)]);
        assert_eq!(ch.take(1, 0).map(|nz| nz.value), Some(4.0));
        assert_eq!(ch.take(1, 0), None);
        assert!(ch.take(0, 1).is_some() && ch.take(3, 1).is_some());
        let order: Vec<(usize, usize)> = ch.occupied().map(|(c, l, _)| (c, l)).collect();
        assert_eq!(order, vec![(3, 0)]);
        assert_eq!(ch.cycles(), 4, "edits keep the channel length");
        ch.set_lanes(0);
        assert_eq!(ch.lanes(), 1, "lanes never drop below an occupied lane");
    }

    #[test]
    fn a_migration_rewrites_the_channel_once_in_stream_order() {
        let mut ch = ChannelSchedule::new(2, 2);
        for (cycle, lane) in [(0, 1), (2, 0), (5, 1)] {
            ch.insert(cycle, lane, NzSlot::private(cycle as f32, lane, cycle));
        }
        ch.set_cycles(9);
        let (start, after) = ch.occupied_after(2);
        assert_eq!(start, 2);
        assert_eq!(after.map(|(c, l, _)| (c, l)).collect::<Vec<_>>(), [(5, 1)]);
        assert_eq!(ch.occupied_after(6).0, 3);
        // The last slot leaves and two migrants land, one on a stall and
        // one on the first slot's lane a cycle later.
        let migrant = |value: f32| NzSlot {
            pvt: false,
            ..NzSlot::private(value, 9, 9)
        };
        let out = ch.migrated(
            &[false, false, true],
            &[(0, 0, migrant(7.0)), (1, 1, migrant(8.0))],
        );
        let slots: Vec<(usize, usize, f32)> =
            out.occupied().map(|(c, l, nz)| (c, l, nz.value)).collect();
        assert_eq!(slots, [(0, 0, 7.0), (0, 1, 0.0), (1, 1, 8.0), (2, 0, 2.0)]);
        assert_eq!((out.channel, out.lanes(), out.cycles()), (2, 2, 3));
        assert_eq!(ch.nonzeros(), 3, "the input channel is left as it was");
        let mut in_place = ch.clone();
        in_place.migrate_in_place(
            &[false, false, true],
            &[(0, 0, migrant(7.0)), (1, 1, migrant(8.0))],
        );
        assert_eq!(in_place, out);
    }

    #[test]
    fn data_list_round_trips_through_wire_format() {
        let cfg = SchedulerConfig::toy(1, 2, 10);
        let mut ch = ChannelSchedule::new(0, 2);
        ch.insert(0, 0, NzSlot::private(2.5, 0, 3));
        let words = ch.data_list(&cfg);
        assert_eq!(words.len(), 2);
        let e = SparseElement::unpack(words[0]).unwrap();
        assert_eq!(e.value, 2.5);
        assert_eq!(e.local_col, 3);
        assert!(SparseElement::is_stall(words[1]));
    }

    #[test]
    fn underutilization_matches_eq4() {
        let cfg = SchedulerConfig::toy(1, 1, 10);
        let mut ch = ChannelSchedule::new(0, 1);
        ch.insert(0, 0, NzSlot::private(1.0, 0, 0));
        ch.set_cycles(3);
        let s = ScheduledMatrix {
            config: cfg,
            channels: vec![ch],
            rows: 1,
            cols: 1,
            nnz: 1,
        };
        assert!((s.underutilization() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_has_zero_underutilization() {
        let s = ScheduledMatrix {
            config: SchedulerConfig::paper(),
            channels: Vec::new(),
            rows: 0,
            cols: 0,
            nnz: 0,
        };
        assert_eq!(s.underutilization(), 0.0);
        assert_eq!(s.stream_cycles(), 0);
    }

    #[test]
    fn partition_rows_groups_by_owner() {
        let cfg = SchedulerConfig::toy(2, 2, 10);
        // total_pes = 4: row 0 -> (0,0), row 1 -> (0,1), row 2 -> (1,0),
        // row 5 -> (0,1).
        let m = chason_sparse::CooMatrix::from_triplets(
            6,
            6,
            vec![
                (0, 1, 1.0),
                (1, 0, 2.0),
                (2, 2, 3.0),
                (5, 5, 4.0),
                (1, 3, 5.0),
            ],
        )
        .unwrap();
        let dealt = WindowRows::from_matrix(&m, &cfg);
        assert_eq!((dealt.rows(), dealt.cols(), dealt.nnz()), (6, 6, 5));
        let parts: Vec<&[FlatLaneRows]> = dealt.channels(&cfg).collect();
        assert_eq!(parts[0][0].spans.len(), 1); // row 0
        assert_eq!(parts[0][1].spans.len(), 2); // rows 1 and 5
        assert_eq!(parts[1][0].spans.len(), 1); // row 2
        assert_eq!(parts[0][1].row_entries(0).len(), 2); // row 1 has 2 entries
        assert_eq!(parts[0][1].row_entries(0), &[(0, 2.0), (3, 5.0)]);
        assert_eq!(parts[0][1].spans[1].0, 5);
        // The counting pass sized each arena exactly.
        for lane in &dealt.lanes {
            assert_eq!(lane.entries.len(), lane.entries.capacity());
            assert_eq!(lane.spans.len(), lane.spans.capacity());
        }
        assert_eq!(dealt.lanes, partition_rows(&m, &cfg));
        let empty = WindowRows::from_matrix(&chason_sparse::CooMatrix::new(5, 0), &cfg);
        assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (5, 0, 0));
        assert_eq!(empty.lanes.len(), cfg.total_pes());
    }

    #[test]
    fn flat_lane_rows_extends_the_current_row_only() {
        let mut lane = FlatLaneRows::default();
        lane.push_entry(3, 0, 1.0);
        lane.push_entry(3, 2, 2.0);
        lane.push_entry(7, 1, 3.0);
        assert_eq!(lane.spans, vec![(3, 0, 2), (7, 2, 3)]);
        assert_eq!(lane.row_entries(0), &[(0, 1.0), (2, 2.0)]);
        assert_eq!(lane.row_entries(1), &[(1, 3.0)]);
    }

    #[test]
    fn from_lanes_interleaves_uneven_lanes_in_stream_order() {
        let mk = |len: usize, row: usize| -> Vec<(usize, NzSlot)> {
            (0..len)
                .filter(|c| c % 3 == 0)
                .map(|c| (c, NzSlot::private(c as f32, row, c)))
                .collect()
        };
        let timelines = vec![mk(600, 0), mk(10, 1), Vec::new(), mk(257, 2)];
        let ch = ChannelSchedule::from_lanes(7, &timelines, &mut Vec::new());
        assert_eq!((ch.channel, ch.lanes(), ch.cycles()), (7, 4, 598));
        for cycle in 0..600 {
            for (lane, t) in timelines.iter().enumerate() {
                let want = t.iter().find(|&&(c, _)| c == cycle).map(|(_, nz)| nz);
                assert_eq!(ch.slot(cycle, lane), want);
            }
        }
        let keys: Vec<(usize, usize)> = ch.occupied().map(|(c, l, _)| (c, l)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            ChannelSchedule::from_lanes(0, &[], &mut Vec::new()).cycles(),
            0
        );
    }

    #[test]
    fn validate_detects_missing_entry() {
        let cfg = SchedulerConfig::toy(1, 1, 2);
        let m = chason_sparse::CooMatrix::from_triplets(1, 1, vec![(0, 0, 1.0)]).unwrap();
        let s = ScheduledMatrix {
            config: cfg,
            channels: vec![ChannelSchedule::new(0, 1)],
            rows: 1,
            cols: 1,
            nnz: 1,
        };
        let err = s.validate(&m).unwrap_err();
        assert_eq!(err.rule, RuleId::S002);
    }

    #[test]
    fn validate_detects_raw_violation_with_typed_rule() {
        let cfg = SchedulerConfig::toy(1, 1, 5);
        let m =
            chason_sparse::CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let mut ch = ChannelSchedule::new(0, 1);
        ch.insert(0, 0, NzSlot::private(1.0, 0, 0));
        ch.insert(1, 0, NzSlot::private(2.0, 0, 1)); // 1 cycle apart < 5
        let s = ScheduledMatrix {
            config: cfg,
            channels: vec![ch],
            rows: 1,
            cols: 2,
            nnz: 2,
        };
        let err = s.validate(&m).unwrap_err();
        assert_eq!(err.rule, RuleId::S003, "unexpected error: {err}");
        assert_eq!(err.location, Location::slot(0, 1, 0));
    }

    /// A value duplicated into *another channel* with the identical payload
    /// must still be flagged — the old checker's `(row, col)`-keyed map is
    /// retained but the error now names both scheduled locations.
    #[test]
    fn validate_detects_identical_duplicate_across_channels() {
        let cfg = SchedulerConfig::toy(2, 1, 2);
        // Row 0 is owned by channel 0; duplicate its sole entry into
        // channel 1 as a (tag-consistent-looking) migrated copy.
        let m = chason_sparse::CooMatrix::from_triplets(1, 1, vec![(0, 0, 3.5)]).unwrap();
        let mut ch0 = ChannelSchedule::new(0, 1);
        ch0.insert(0, 0, NzSlot::private(3.5, 0, 0));
        let mut ch1 = ChannelSchedule::new(1, 1);
        ch1.insert(
            0,
            0,
            NzSlot {
                value: 3.5,
                row: 0,
                col: 0,
                pvt: false,
                pe_src: 0,
            },
        );
        let s = ScheduledMatrix {
            config: cfg,
            channels: vec![ch0, ch1],
            rows: 1,
            cols: 1,
            nnz: 1,
        };
        let err = s.validate(&m).unwrap_err();
        assert_eq!(err.rule, RuleId::S002);
        assert!(
            err.message.contains("identical value"),
            "unexpected message: {}",
            err.message
        );
        assert!(err.message.contains("channel 0"), "{}", err.message);
        assert_eq!(err.location.channel, Some(1));
    }
}
