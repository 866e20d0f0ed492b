//! The processing element (§4.2.1): multiplier, adder, Router, `URAM_pvt`
//! and the Shared-Channel URAM Group (ScUG).

use crate::memory::Uram;
use crate::SimError;
use chason_core::schedule::{NzSlot, SchedulerConfig};

/// One PE of a PEG.
///
/// A PE multiplies incoming non-zeros by the buffered `x` value and
/// accumulates the product into on-chip memory. The Router (a mux pair in
/// hardware) steers the partial sum by the element's `(pvt, PE_src)` flags:
///
/// * `pvt = 1` → the PE's own `URAM_pvt`;
/// * `pvt = 0` → `URAM_sh[(hop − 1)·P + PE_src]` in the PE's ScUG, where
///   `hop` is the ring distance to the element's home channel — one bank
///   group per migration hop, segregating partial sums that belong to each
///   PE of each donor channel (hop 1 in the deployed design; §6.1's
///   extended scope adds groups).
///
/// Without this segregation, migrated values would corrupt the private
/// accumulators — the exact hazard §3.2 describes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pe {
    channel: usize,
    lane: usize,
    uram_pvt: Uram,
    scug: Vec<Uram>,
    mac_ops: u64,
    /// Pipeline-hazard detector: 1 + the last cycle each partial sum
    /// entered the accumulator (0 = never), one stamp vector per URAM
    /// (`URAM_pvt` first, then the ScUG banks in order), each as long as
    /// the URAM it guards.
    last_access: Vec<Vec<u64>>,
    hazards: u64,
}

impl Pe {
    /// Creates a PE with `rows_per_pe` partial-sum rows and `scug_size`
    /// shared URAMs (0 for Serpens, which has no ScUG).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RowCapacityExceeded`] if one URAM cannot hold
    /// `rows_per_pe` partial sums.
    pub fn new(
        channel: usize,
        lane: usize,
        rows_per_pe: usize,
        scug_size: usize,
    ) -> Result<Self, SimError> {
        let uram_pvt = Uram::new(rows_per_pe)?;
        let scug = (0..scug_size)
            .map(|_| Uram::new(rows_per_pe))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pe {
            channel,
            lane,
            uram_pvt,
            scug,
            mac_ops: 0,
            last_access: (0..=scug_size).map(|_| vec![0; rows_per_pe]).collect(),
            hazards: 0,
        })
    }

    /// Channel this PE belongs to.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// Lane (PE index within the PEG).
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Multiply-accumulates one scheduled non-zero.
    ///
    /// `x_value` is the dense-vector word the PEG's BRAM bank delivered for
    /// the element's column.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoutingViolation`] when
    ///
    /// * a private element's row is not owned by this PE (the scheduler
    ///   mis-routed it), or
    /// * a migrated element arrives but the PE has no ScUG (Serpens), or
    ///   its `PE_src` exceeds the ScUG size.
    pub fn process(
        &mut self,
        slot: &NzSlot,
        x_value: f32,
        sched: &SchedulerConfig,
    ) -> Result<(), SimError> {
        self.process_at(slot, x_value, sched, None)
    }

    /// Like [`Pe::process`], additionally checking the accumulator
    /// read-modify-write hazard: two values of the same row entering this
    /// PE within `dependency_distance` cycles would collide on the same
    /// URAM slot mid-pipeline (§3.2's bank conflict). Detected hazards are
    /// counted (see [`Pe::hazards`]); a correct schedule produces none.
    /// An access aimed past every bank or row is not tracked: the routing
    /// check or the URAM itself rejects it.
    pub fn process_at(
        &mut self,
        slot: &NzSlot,
        x_value: f32,
        sched: &SchedulerConfig,
        cycle: Option<u64>,
    ) -> Result<(), SimError> {
        let product = slot.value * x_value;
        let local_row = sched.local_row(slot.row);
        self.mac_ops += 1;
        if let Some(now) = cycle {
            let bank = if slot.pvt {
                0
            } else {
                let home = sched.channel_for_row(slot.row);
                let hop = sched.hop_for(self.channel, home);
                1 + hop.saturating_sub(1) * sched.pes_per_channel + slot.pe_src as usize
            };
            let stamp = self
                .last_access
                .get_mut(bank)
                .and_then(|stamps| stamps.get_mut(local_row));
            if let Some(stamp) = stamp {
                if *stamp != 0 && now.saturating_sub(*stamp - 1) < sched.dependency_distance as u64
                {
                    self.hazards += 1;
                }
                *stamp = now.saturating_add(1);
            }
        }
        if slot.pvt {
            if sched.channel_for_row(slot.row) != self.channel
                || sched.lane_for_row(slot.row) != self.lane
            {
                return Err(SimError::RoutingViolation(format!(
                    "private element of row {} reached PE ({}, {})",
                    slot.row, self.channel, self.lane
                )));
            }
            self.uram_pvt.accumulate(local_row, product);
        } else {
            let home = sched.channel_for_row(slot.row);
            let hop = sched.hop_for(self.channel, home);
            if hop == 0 {
                return Err(SimError::RoutingViolation(format!(
                    "element of row {} tagged as migrated inside its home channel {}",
                    slot.row, self.channel
                )));
            }
            let bank = (hop - 1) * sched.pes_per_channel + slot.pe_src as usize;
            let scug_len = self.scug.len();
            match self.scug.get_mut(bank) {
                Some(uram) => uram.accumulate(local_row, product),
                None => {
                    return Err(SimError::RoutingViolation(format!(
                    "migrated element (hop {}, PE_src {}) reached PE ({}, {}) with ScUG size {}",
                    hop, slot.pe_src, self.channel, self.lane, scug_len
                )))
                }
            }
        }
        Ok(())
    }

    /// The private partial sums (`URAM_pvt` contents).
    pub fn private_partials(&self) -> &[f32] {
        self.uram_pvt.contents()
    }

    /// The shared partial sums for source lane `k` (`URAM_sh[k]` contents).
    ///
    /// # Panics
    ///
    /// Panics if `k >= scug_size`.
    pub fn shared_partials(&self, k: usize) -> &[f32] {
        self.scug[k].contents()
    }

    /// ScUG size (number of `URAM_sh` banks).
    pub fn scug_size(&self) -> usize {
        self.scug.len()
    }

    /// Multiply-accumulate operations performed so far.
    pub fn mac_ops(&self) -> u64 {
        self.mac_ops
    }

    /// Accumulator read-modify-write hazards observed (same row re-entering
    /// this PE within the dependency distance). A valid schedule keeps this
    /// at zero; a non-zero count means the offline scheduler emitted a
    /// stream the 10-stage accumulator could not execute at II = 1.
    pub fn hazards(&self) -> u64 {
        self.hazards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> SchedulerConfig {
        SchedulerConfig::toy(2, 2, 4) // 4 total PEs
    }

    #[test]
    fn private_element_lands_in_uram_pvt() {
        let cfg = sched();
        // Row 1 maps to channel 0, lane 1; local row of row 5 is 1.
        let mut pe = Pe::new(0, 1, 4, 2).unwrap();
        pe.process(&NzSlot::private(2.0, 1, 0), 3.0, &cfg).unwrap();
        pe.process(&NzSlot::private(1.0, 5, 0), 10.0, &cfg).unwrap();
        assert_eq!(pe.private_partials(), &[6.0, 10.0, 0.0, 0.0]);
        assert_eq!(pe.mac_ops(), 2);
    }

    #[test]
    fn migrated_element_lands_in_scug_by_pe_src() {
        let cfg = sched();
        // Row 2 belongs to channel 1 lane 0; it migrates into channel 0.
        let mut pe = Pe::new(0, 1, 4, 2).unwrap();
        let slot = NzSlot {
            value: 2.0,
            row: 2,
            col: 0,
            pvt: false,
            pe_src: 0,
        };
        pe.process(&slot, 5.0, &cfg).unwrap();
        assert_eq!(pe.shared_partials(0)[0], 10.0);
        assert_eq!(pe.shared_partials(1)[0], 0.0);
        assert_eq!(pe.private_partials()[0], 0.0);
    }

    #[test]
    fn misrouted_private_element_is_rejected() {
        let cfg = sched();
        let mut pe = Pe::new(0, 0, 4, 2).unwrap();
        // Row 1 belongs to lane 1, not lane 0.
        let err = pe
            .process(&NzSlot::private(1.0, 1, 0), 1.0, &cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::RoutingViolation(_)));
    }

    #[test]
    fn migrated_element_without_scug_is_rejected() {
        let cfg = sched();
        let mut pe = Pe::new(0, 0, 4, 0).unwrap(); // Serpens-style PE
        let slot = NzSlot {
            value: 1.0,
            row: 2,
            col: 0,
            pvt: false,
            pe_src: 0,
        };
        let err = pe.process(&slot, 1.0, &cfg).unwrap_err();
        assert!(matches!(err, SimError::RoutingViolation(_)));
    }

    fn migrant(row: usize, pe_src: u8) -> NzSlot {
        NzSlot {
            value: 1.0,
            row,
            col: 0,
            pvt: false,
            pe_src,
        }
    }

    #[test]
    fn same_row_within_the_distance_is_one_hazard() {
        let cfg = sched(); // D = 4
        let mut pe = Pe::new(0, 1, 4, 2).unwrap();
        let row1 = NzSlot::private(1.0, 1, 0);
        pe.process_at(&row1, 1.0, &cfg, Some(0)).unwrap();
        pe.process_at(&row1, 1.0, &cfg, Some(3)).unwrap();
        assert_eq!(pe.hazards(), 1);
        // The same holds inside one shared bank.
        pe.process_at(&migrant(2, 0), 1.0, &cfg, Some(5)).unwrap();
        pe.process_at(&migrant(2, 0), 1.0, &cfg, Some(6)).unwrap();
        assert_eq!(pe.hazards(), 2);
    }

    #[test]
    fn exactly_the_distance_apart_is_no_hazard() {
        let cfg = sched();
        let mut pe = Pe::new(0, 1, 4, 2).unwrap();
        let row1 = NzSlot::private(1.0, 1, 0);
        pe.process_at(&row1, 1.0, &cfg, Some(0)).unwrap();
        pe.process_at(&row1, 1.0, &cfg, Some(4)).unwrap();
        pe.process_at(&row1, 1.0, &cfg, Some(8)).unwrap();
        assert_eq!(pe.hazards(), 0);
    }

    #[test]
    fn private_and_shared_banks_do_not_collide() {
        let cfg = sched();
        let mut pe = Pe::new(0, 1, 4, 2).unwrap();
        // Row 1 (private) and row 2 (channel 1, lane 0) share local row 0.
        pe.process_at(&NzSlot::private(1.0, 1, 0), 1.0, &cfg, Some(0))
            .unwrap();
        pe.process_at(&migrant(2, 0), 1.0, &cfg, Some(1)).unwrap();
        pe.process_at(&NzSlot::private(1.0, 1, 0), 1.0, &cfg, Some(4))
            .unwrap();
        assert_eq!(pe.hazards(), 0);
    }

    #[test]
    fn distinct_pe_src_banks_do_not_collide() {
        let cfg = sched();
        let mut pe = Pe::new(0, 0, 4, 2).unwrap();
        // Rows 2 and 3 are lanes 0 and 1 of channel 1, both local row 0.
        pe.process_at(&migrant(2, 0), 1.0, &cfg, Some(0)).unwrap();
        pe.process_at(&migrant(3, 1), 1.0, &cfg, Some(1)).unwrap();
        pe.process_at(&migrant(2, 0), 1.0, &cfg, Some(4)).unwrap();
        pe.process_at(&migrant(3, 1), 1.0, &cfg, Some(5)).unwrap();
        assert_eq!(pe.hazards(), 0);
    }

    #[test]
    fn capacity_error_propagates() {
        let err = Pe::new(0, 0, crate::memory::URAM_PARTIALS + 1, 0).unwrap_err();
        assert!(matches!(err, SimError::RowCapacityExceeded { .. }));
    }
}
