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

/// One occupied slot: the non-zero streamed to `lane` at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Placed {
    cycle: u32,
    lane: u16,
    nz: NzSlot,
}

impl Placed {
    fn new(cycle: usize, lane: usize, nz: NzSlot) -> Self {
        Placed {
            cycle: cycle as u32,
            lane: lane as u16,
            nz,
        }
    }

    fn key(&self) -> (usize, usize) {
        (self.cycle as usize, usize::from(self.lane))
    }
}

/// The scheduled data list of one HBM channel.
///
/// Conceptually a `cycles × lanes` grid whose slot `(cycle, lane)` is
/// streamed to PE `lane` at beat `cycle`; physically only the occupied
/// slots are stored (see the module docs). Cycles are capped at `u32::MAX`
/// and lanes at `u16::MAX`.
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
    /// occupied `(cycle, slot)` pairs, each in ascending cycle order. A
    /// one-byte lane mask per cycle (`masks`, reused scratch) merges the
    /// lanes into `(cycle, lane)` order: linear in the non-zeros plus the
    /// channel length, and no stall is ever written. The channel is as long
    /// as its latest slot.
    ///
    /// # Panics
    ///
    /// Panics if a timeline runs past `u32::MAX` cycles.
    pub(crate) fn from_lanes(
        channel: usize,
        timelines: &[Vec<(usize, NzSlot)>],
        masks: &mut Vec<u8>,
    ) -> Self {
        let lanes = timelines.len();
        let cycles = timelines
            .iter()
            .filter_map(|t| t.last().map(|&(c, _)| c + 1))
            .max()
            .unwrap_or(0);
        assert!(
            cycles <= u32::MAX as usize,
            "channel exceeds u32::MAX cycles"
        );
        debug_assert!(lanes <= 8, "lane masks cover at most 8 lanes");
        masks.clear();
        masks.resize(cycles, 0);
        let mut total = 0;
        for (lane, timeline) in timelines.iter().enumerate() {
            total += timeline.len();
            for &(cycle, _) in timeline {
                masks[cycle] |= 1 << lane;
            }
        }
        let mut cursors = [0usize; 8];
        let mut slots = Vec::with_capacity(total);
        for (cycle, &mask) in masks.iter().enumerate() {
            let mut pending = mask;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let (_, nz) = timelines[lane][cursors[lane]];
                cursors[lane] += 1;
                slots.push(Placed::new(cycle, lane, nz));
            }
        }
        ChannelSchedule {
            channel,
            lanes,
            cycles,
            slots,
        }
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

    fn find(&self, cycle: usize, lane: usize) -> Result<usize, usize> {
        self.slots.binary_search_by(|p| p.key().cmp(&(cycle, lane)))
    }

    /// The non-zero streamed to `lane` at `cycle`, or `None` for a stall
    /// (including every slot outside the channel's grid).
    pub fn slot(&self, cycle: usize, lane: usize) -> Option<&NzSlot> {
        self.find(cycle, lane).ok().map(|i| &self.slots[i].nz)
    }

    /// The occupied slots as `(cycle, lane, non-zero)`, in `(cycle, lane)`
    /// order — the stream order with the stalls left out.
    pub fn occupied(
        &self,
    ) -> impl DoubleEndedIterator<Item = (usize, usize, &NzSlot)> + ExactSizeIterator {
        self.slots
            .iter()
            .map(|p| (p.cycle as usize, usize::from(p.lane), &p.nz))
    }

    /// Like [`ChannelSchedule::occupied`], with mutable non-zeros (their
    /// positions stay fixed).
    pub fn occupied_mut(&mut self) -> impl Iterator<Item = (usize, usize, &mut NzSlot)> {
        self.slots
            .iter_mut()
            .map(|p| (p.cycle as usize, usize::from(p.lane), &mut p.nz))
    }

    /// Places `nz` at `(cycle, lane)`, returning the non-zero it replaced.
    /// The channel grows to cover the slot if it lies outside its grid.
    ///
    /// # Panics
    ///
    /// Panics if `cycle > u32::MAX` or `lane > u16::MAX`.
    pub fn insert(&mut self, cycle: usize, lane: usize, nz: NzSlot) -> Option<NzSlot> {
        assert!(
            cycle <= u32::MAX as usize && lane <= usize::from(u16::MAX),
            "slot ({cycle}, {lane}) is beyond the channel store's range"
        );
        self.cycles = self.cycles.max(cycle + 1);
        self.lanes = self.lanes.max(lane + 1);
        match self.find(cycle, lane) {
            Ok(i) => Some(std::mem::replace(&mut self.slots[i].nz, nz)),
            Err(i) => {
                self.slots.insert(i, Placed::new(cycle, lane, nz));
                None
            }
        }
    }

    /// Turns `(cycle, lane)` into a stall, returning the non-zero it held.
    /// The channel keeps its length.
    pub fn take(&mut self, cycle: usize, lane: usize) -> Option<NzSlot> {
        let i = self.find(cycle, lane).ok()?;
        Some(self.slots.remove(i).nz)
    }

    /// Sets the channel length, never below its last occupied cycle + 1:
    /// growing adds trailing stall cycles, shrinking drops only stalls.
    pub fn set_cycles(&mut self, cycles: usize) {
        let needed = self.slots.last().map_or(0, |p| p.cycle as usize + 1);
        self.cycles = cycles.max(needed);
    }

    /// Drops trailing all-stall cycles.
    pub fn trim(&mut self) {
        self.set_cycles(0);
    }

    /// Sets the lane count, never below the widest occupied lane + 1.
    pub fn set_lanes(&mut self, lanes: usize) {
        let needed = self
            .slots
            .iter()
            .map(|p| usize::from(p.lane) + 1)
            .max()
            .unwrap_or(0);
        self.lanes = lanes.max(needed);
    }

    /// The non-zero of the `index`-th occupied slot (in
    /// [`ChannelSchedule::occupied`] order).
    pub(crate) fn nz_at(&self, index: usize) -> NzSlot {
        self.slots[index].nz
    }

    /// One byte per cycle with bit `l` set when lane `l` is occupied
    /// (channels of at most eight lanes).
    pub(crate) fn lane_masks(&self, masks: &mut Vec<u8>) {
        debug_assert!(self.lanes <= 8, "lane masks cover at most 8 lanes");
        masks.clear();
        masks.resize(self.cycles, 0);
        for p in &self.slots {
            masks[p.cycle as usize] |= 1 << p.lane;
        }
    }

    /// Merges `(cycle, lane, non-zero)` slots, ascending and landing only on
    /// stalls within the channel's length, into the store in one pass from
    /// the back.
    pub(crate) fn merge(&mut self, incoming: &[(usize, usize, NzSlot)]) {
        if incoming.is_empty() {
            return;
        }
        let old = self.slots.len();
        self.slots.extend(
            incoming
                .iter()
                .map(|&(cycle, lane, nz)| Placed::new(cycle, lane, nz)),
        );
        let (mut i, mut j) = (old, incoming.len());
        let mut k = self.slots.len();
        while j > 0 {
            k -= 1;
            let (cycle, lane, nz) = incoming[j - 1];
            if i > 0 && self.slots[i - 1].key() > (cycle, lane) {
                self.slots[k] = self.slots[i - 1];
                i -= 1;
            } else {
                self.slots[k] = Placed::new(cycle, lane, nz);
                j -= 1;
            }
        }
        debug_assert!(self.slots.windows(2).all(|w| w[0].key() < w[1].key()));
        debug_assert!(self
            .slots
            .last()
            .is_none_or(|p| (p.cycle as usize) < self.cycles));
    }

    /// Removes the occupied slots at `indices` (ascending, in
    /// [`ChannelSchedule::occupied`] order); the channel keeps its length.
    pub(crate) fn remove_sorted(&mut self, indices: &[usize]) {
        let mut next = indices.iter().peekable();
        let mut at = 0usize;
        self.slots.retain(|_| {
            let drop = next.next_if_eq(&&at).is_some();
            at += 1;
            !drop
        });
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
            let nz = &p.nz;
            let e = SparseElement {
                value: nz.value,
                local_row: config.local_row(nz.row) as u16,
                pvt: nz.pvt,
                pe_src: nz.pe_src,
                local_col: nz.col as u16,
            };
            words[p.cycle as usize * self.lanes + usize::from(p.lane)] = e.pack();
        }
        words
    }
}
