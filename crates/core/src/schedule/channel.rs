//! The stall-implicit store behind [`ChannelSchedule`].
//!
//! PE-aware schedules are mostly stalls, so a channel keeps only its
//! *occupied* slots, in `(cycle, lane)` order, plus its lane count and its
//! length in cycles. Every other slot of the `cycles × lanes` grid is a
//! stall. The explicit length keeps leading stalls, trailing stall cycles
//! and the CrHCS destination padding representable without storing them.
//! Writers that need the physical stream ([`ChannelSchedule::data_list`],
//! the CHPL grid) put the stalls back as they write.

use super::{NzSlot, SchedulerConfig};
use crate::element::{self, SparseElement};
use serde::{Deserialize, Serialize};

/// Exclusive upper bound of a stored slot's row ([`NzSlot::row`]).
pub const STORE_ROWS: usize = 1 << 32;
/// Exclusive upper bound of a stored slot's column ([`NzSlot::col`]).
pub const STORE_COLS: usize = 1 << 16;
/// Exclusive upper bound of a stored slot's lane.
pub const STORE_LANES: usize = 1 << 8;
/// Exclusive upper bound of a stored slot's `PE_src` tag
/// ([`NzSlot::pe_src`]).
pub const STORE_PE_SRC: usize = 1 << 7;

/// One occupied slot as the store keeps it, in 16 bytes: the non-zero
/// streamed to `lane` at `cycle`, with `tags = pvt | pe_src << 1`.
///
/// Only this module reads or writes the fields; planning builds slots
/// through the constructors below and the public API hands out
/// [`NzSlot`]s. Every constructor's inputs must lie within the `STORE_*`
/// ranges and `cycle < 2^32`; the public entry points assert that, and
/// planning guarantees it by construction (see [`WindowRows`]).
///
/// [`WindowRows`]: super::WindowRows
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Placed {
    cycle: u32,
    row: u32,
    value: f32,
    col: u16,
    lane: u8,
    tags: u8,
}

impl Placed {
    /// Places `nz` at `(cycle, lane)`.
    ///
    /// # Panics
    ///
    /// Panics if the slot or the non-zero is beyond the store's range.
    fn new(cycle: usize, lane: usize, nz: NzSlot) -> Self {
        assert!(
            ChannelSchedule::fits(cycle, lane, &nz),
            "slot ({cycle}, {lane}) holding row {}, column {}, PE_src {} is beyond the \
             channel store's range",
            nz.row,
            nz.col,
            nz.pe_src
        );
        Placed {
            cycle: cycle as u32,
            row: nz.row as u32,
            value: nz.value,
            col: nz.col as u16,
            lane: lane as u8,
            tags: u8::from(nz.pvt) | nz.pe_src << 1,
        }
    }

    /// A private slot, as the lane schedulers emit it.
    pub(crate) fn private(cycle: u32, lane: usize, row: u32, col: u32, value: f32) -> Self {
        debug_assert!(lane < STORE_LANES && (col as usize) < STORE_COLS);
        Placed {
            cycle,
            row,
            value,
            col: col as u16,
            lane: lane as u8,
            tags: 1,
        }
    }

    /// This slot's value migrated to `(cycle, lane)` of another channel,
    /// tagged with the lane it leaves as its `PE_src`. Both migration
    /// writers store only slots made here.
    ///
    /// # Panics
    ///
    /// Panics if the migrant is beyond the store's range.
    pub(crate) fn migrant(self, cycle: usize, lane: usize) -> Self {
        assert!(
            cycle <= u32::MAX as usize
                && lane < STORE_LANES
                && usize::from(self.lane) < STORE_PE_SRC,
            "a migrant from lane {} to slot ({cycle}, {lane}) is beyond the channel store's range",
            self.lane
        );
        Placed {
            cycle: cycle as u32,
            lane: lane as u8,
            tags: self.lane << 1,
            ..self
        }
    }

    pub(crate) fn cycle(&self) -> usize {
        self.cycle as usize
    }

    pub(crate) fn lane(&self) -> usize {
        usize::from(self.lane)
    }

    pub(crate) fn row(&self) -> usize {
        self.row as usize
    }

    pub(crate) fn pvt(&self) -> bool {
        self.tags & 1 != 0
    }

    /// The stream-order key: `(cycle, lane)` as one integer.
    pub(crate) fn key(&self) -> u64 {
        u64::from(self.cycle) << 8 | u64::from(self.lane)
    }

    fn nz(&self) -> NzSlot {
        NzSlot {
            value: self.value,
            row: self.row as usize,
            col: usize::from(self.col),
            pvt: self.pvt(),
            pe_src: self.tags >> 1,
        }
    }
}

/// The stream-order key of `(cycle, lane)`, or `None` when no slot of the
/// store can sit there.
fn key_of(cycle: usize, lane: usize) -> Option<u64> {
    (cycle <= u32::MAX as usize && lane < STORE_LANES).then_some((cycle as u64) << 8 | lane as u64)
}

/// The scheduled data list of one HBM channel.
///
/// Conceptually a `cycles × lanes` grid whose slot `(cycle, lane)` is
/// streamed to PE `lane` at beat `cycle`; physically only the occupied
/// slots are stored (see the module docs), 16 bytes each. A stored slot's
/// cycle is below `2^32`, its lane below [`STORE_LANES`], and its
/// non-zero's row, column and `PE_src` below [`STORE_ROWS`],
/// [`STORE_COLS`] and [`STORE_PE_SRC`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSchedule {
    /// Channel index.
    pub channel: usize,
    lanes: usize,
    cycles: usize,
    slots: Vec<Placed>,
}

impl ChannelSchedule {
    /// Creates an empty (zero-cycle) schedule for a channel of `lanes` PEs.
    pub fn new(channel: usize, lanes: usize) -> Self {
        ChannelSchedule {
            channel,
            lanes,
            cycles: 0,
            slots: Vec::new(),
        }
    }

    /// Builds a channel of at most eight lanes from per-lane timelines of
    /// occupied slots, each in ascending cycle order and placed in the lane
    /// of its index. A one-byte lane mask per cycle (`masks`, reused
    /// scratch) merges the lanes into `(cycle, lane)` order: linear in the
    /// non-zeros plus the channel length, and no stall is ever written. The
    /// channel is as long as its latest slot.
    ///
    /// # Panics
    ///
    /// Panics if there are more than eight timelines.
    pub(crate) fn from_lanes(
        channel: usize,
        timelines: &[Vec<Placed>],
        masks: &mut Vec<u8>,
    ) -> Self {
        let lanes = timelines.len();
        assert!(lanes <= 8, "lane masks cover at most 8 lanes");
        let cycles = timelines
            .iter()
            .filter_map(|t| t.last().map(|p| p.cycle() + 1))
            .max()
            .unwrap_or(0);
        masks.clear();
        masks.resize(cycles, 0);
        let mut total = 0;
        for (lane, timeline) in timelines.iter().enumerate() {
            total += timeline.len();
            for p in timeline {
                debug_assert_eq!(p.lane(), lane);
                masks[p.cycle()] |= 1 << lane;
            }
        }
        let mut cursors = [0usize; 8];
        let mut slots = Vec::with_capacity(total);
        for &mask in masks.iter() {
            let mut pending = mask;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                slots.push(timelines[lane][cursors[lane]]);
                cursors[lane] += 1;
            }
        }
        ChannelSchedule {
            channel,
            lanes,
            cycles,
            slots,
        }
    }

    /// Whether `nz` at `(cycle, lane)` is within the store's range (see
    /// [`ChannelSchedule`]): what [`ChannelSchedule::insert`] asserts, for
    /// readers of untrusted bytes that must fail with a typed error
    /// instead.
    pub(crate) fn fits(cycle: usize, lane: usize, nz: &NzSlot) -> bool {
        cycle <= u32::MAX as usize
            && lane < STORE_LANES
            && nz.row < STORE_ROWS
            && nz.col < STORE_COLS
            && usize::from(nz.pe_src) < STORE_PE_SRC
    }

    /// Number of cycles (beats), stalls included.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Lanes (PEs) per cycle.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of scheduled non-zeros.
    pub fn nonzeros(&self) -> usize {
        self.slots.len()
    }

    /// Number of stall slots within the channel's own length.
    pub fn stalls(&self) -> usize {
        self.cycles * self.lanes - self.slots.len()
    }

    /// The index of the slot at `(cycle, lane)`, or `None` for a stall.
    fn find(&self, cycle: usize, lane: usize) -> Option<usize> {
        let key = key_of(cycle, lane)?;
        self.slots.binary_search_by_key(&key, Placed::key).ok()
    }

    /// The non-zero streamed to `lane` at `cycle`, or `None` for a stall
    /// (including every slot outside the channel's grid).
    pub fn slot(&self, cycle: usize, lane: usize) -> Option<NzSlot> {
        self.find(cycle, lane).map(|i| self.slots[i].nz())
    }

    /// The occupied slots as `(cycle, lane, non-zero)`, in `(cycle, lane)`
    /// order — the stream order with the stalls left out.
    pub fn occupied(
        &self,
    ) -> impl DoubleEndedIterator<Item = (usize, usize, NzSlot)> + ExactSizeIterator + '_ {
        self.slots.iter().map(|p| (p.cycle(), p.lane(), p.nz()))
    }

    /// Rewrites the non-zero at `(cycle, lane)` in place through `edit`;
    /// `false` (and nothing runs) for a stall. The slot keeps its position.
    ///
    /// # Panics
    ///
    /// Panics if the edited non-zero is beyond the store's range.
    pub fn edit(&mut self, cycle: usize, lane: usize, edit: impl FnOnce(&mut NzSlot)) -> bool {
        let Some(i) = self.find(cycle, lane) else {
            return false;
        };
        let mut nz = self.slots[i].nz();
        edit(&mut nz);
        self.slots[i] = Placed::new(cycle, lane, nz);
        true
    }

    /// Places `nz` at `(cycle, lane)`, returning the non-zero it replaced.
    /// The channel grows to cover the slot if it lies outside its grid.
    ///
    /// # Panics
    ///
    /// Panics if the slot or `nz` is beyond the store's range (see
    /// [`ChannelSchedule`]).
    pub fn insert(&mut self, cycle: usize, lane: usize, nz: NzSlot) -> Option<NzSlot> {
        let placed = Placed::new(cycle, lane, nz);
        self.cycles = self.cycles.max(cycle + 1);
        self.lanes = self.lanes.max(lane + 1);
        match self.slots.binary_search_by_key(&placed.key(), Placed::key) {
            Ok(i) => Some(std::mem::replace(&mut self.slots[i], placed).nz()),
            Err(i) => {
                self.slots.insert(i, placed);
                None
            }
        }
    }

    /// Turns `(cycle, lane)` into a stall, returning the non-zero it held.
    /// The channel keeps its length.
    pub fn take(&mut self, cycle: usize, lane: usize) -> Option<NzSlot> {
        let i = self.find(cycle, lane)?;
        Some(self.slots.remove(i).nz())
    }

    /// Sets the channel length, never below its last occupied cycle + 1:
    /// growing adds trailing stall cycles, shrinking drops only stalls.
    pub fn set_cycles(&mut self, cycles: usize) {
        let needed = self.slots.last().map_or(0, |p| p.cycle() + 1);
        self.cycles = cycles.max(needed);
    }

    /// Drops trailing all-stall cycles.
    pub fn trim(&mut self) {
        self.set_cycles(0);
    }

    /// Sets the lane count, never below the widest occupied lane + 1.
    pub fn set_lanes(&mut self, lanes: usize) {
        let needed = self.slots.iter().map(|p| p.lane() + 1).max().unwrap_or(0);
        self.lanes = lanes.max(needed);
    }

    /// The `index`-th occupied slot (in [`ChannelSchedule::occupied`]
    /// order).
    pub(crate) fn placed(&self, index: usize) -> Placed {
        self.slots[index]
    }

    /// The index of the first occupied slot after `cycle` (in
    /// [`ChannelSchedule::occupied`] order) and the slots from there on.
    pub(crate) fn occupied_after(&self, cycle: usize) -> (usize, &[Placed]) {
        let start = self.slots.partition_point(|p| p.cycle() <= cycle);
        (start, &self.slots[start..])
    }

    /// The channel a migration leaves: the occupied slots not flagged in
    /// `taken` (one flag per slot, in [`ChannelSchedule::occupied`] order)
    /// merged with `incoming`, slots in stream order that land only on
    /// stalls or taken slots. The new store is written once, in one forward
    /// pass, and the channel is trimmed.
    pub(crate) fn migrated(&self, taken: &[bool], incoming: &[Placed]) -> ChannelSchedule {
        let gone = taken.iter().filter(|&&t| t).count();
        let mut slots = Vec::with_capacity(self.slots.len() - gone + incoming.len());
        let mut kept = self
            .slots
            .iter()
            .zip(taken)
            .filter_map(|(p, &t)| (!t).then_some(*p))
            .peekable();
        for &migrant in incoming {
            let key = migrant.key();
            while let Some(p) = kept.next_if(|p| p.key() < key) {
                slots.push(p);
            }
            slots.push(migrant);
        }
        slots.extend(kept);
        debug_assert!(slots.windows(2).all(|w| w[0].key() < w[1].key()));
        let mut out = ChannelSchedule {
            slots,
            ..ChannelSchedule::new(self.channel, self.lanes)
        };
        out.trim();
        out
    }

    /// Packs the schedule into the channel's 64-bit data list (row-major:
    /// cycle 0 lanes 0..P, cycle 1 lanes 0..P, ...), the exact stream the
    /// architecture consumes, with every stall written as the stall word.
    ///
    /// # Panics
    ///
    /// Panics if a slot's local row or column overflows the wire format —
    /// callers must schedule one [`crate::window`] at a time for matrices
    /// wider than `W = 8192`.
    pub fn data_list(&self, config: &SchedulerConfig) -> Vec<u64> {
        let mut words = vec![element::STALL_WORD; self.cycles * self.lanes];
        for p in &self.slots {
            let nz = p.nz();
            let e = SparseElement {
                value: nz.value,
                local_row: config.local_row(nz.row) as u16,
                pvt: nz.pvt,
                pe_src: nz.pe_src,
                local_col: nz.col as u16,
            };
            words[p.cycle() * self.lanes + p.lane()] = e.pack();
        }
        words
    }
}
