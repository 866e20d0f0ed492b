//! The processing element group (§4.2): eight PEs, the dense-vector BRAM
//! banks, and the Reduction Unit.

use crate::memory::{Bram, BRAM18K_WORDS};
use crate::pe::Pe;
use crate::SimError;
use chason_core::schedule::{NzSlot, SchedulerConfig};

/// Final partial sums a PEG delivers to the Rearrange Unit.
#[derive(Debug, Clone, PartialEq)]
pub struct PegOutputs {
    /// `pvt[lane][local_row]`: each PE's private partial sums.
    pub pvt: Vec<Vec<f32>>,
    /// `shared[k][local_row]`: the Reduction Unit's consolidated partial
    /// sums for PE `k` of the *neighbouring* channel (empty for Serpens).
    pub shared: Vec<Vec<f32>>,
}

/// One PE group: the compute side of one HBM channel.
///
/// The PEG buffers the current `x` window in dual-port BRAM banks, feeds one
/// 64-bit lane of the channel's 512-bit beat to each PE, and (in Chasoň)
/// hosts the Reduction Unit — an adder tree that sweeps the `k`-th `URAM_sh`
/// of all eight ScUGs and consolidates them into a single URAM per source PE
/// (§4.2.2, Fig. 7c).
#[derive(Debug, Clone, PartialEq)]
pub struct Peg {
    channel: usize,
    pes: Vec<Pe>,
    x_banks: Vec<Bram>,
    x_len: usize,
}

impl Peg {
    /// Creates a PEG for `channel` with `lanes` PEs.
    ///
    /// `window` is the x-buffer capacity in words; `rows_per_pe` sizes the
    /// partial-sum URAMs; `scug_size` is 0 for Serpens and
    /// `lanes × migration_hops` for Chasoň (one bank group per hop).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::RowCapacityExceeded`] from PE construction.
    pub fn new(
        channel: usize,
        lanes: usize,
        window: usize,
        rows_per_pe: usize,
        scug_size: usize,
    ) -> Result<Self, SimError> {
        let pes = (0..lanes)
            .map(|lane| Pe::new(channel, lane, rows_per_pe, scug_size))
            .collect::<Result<Vec<_>, _>>()?;
        let banks = window.div_ceil(BRAM18K_WORDS).max(1);
        let x_banks = (0..banks)
            .map(|b| {
                let remaining = window.saturating_sub(b * BRAM18K_WORDS);
                Bram::new(remaining.min(BRAM18K_WORDS))
            })
            .collect();
        Ok(Peg {
            channel,
            pes,
            x_banks,
            x_len: 0,
        })
    }

    /// Channel this PEG serves.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The PEs of this group.
    pub fn pes(&self) -> &[Pe] {
        &self.pes
    }

    /// Number of BRAM banks buffering `x`.
    pub fn x_bank_count(&self) -> usize {
        self.x_banks.len()
    }

    /// Loads a new `x` window into the BRAM banks (the inter-window reload
    /// of §4.1).
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the buffer.
    pub fn load_x(&mut self, x_window: &[f32]) {
        let capacity: usize = self.x_banks.iter().map(Bram::len).sum();
        assert!(x_window.len() <= capacity, "x window exceeds BRAM capacity");
        for (addr, &v) in x_window.iter().enumerate() {
            self.x_banks[addr / BRAM18K_WORDS].write(addr % BRAM18K_WORDS, v);
        }
        self.x_len = x_window.len();
    }

    fn read_x(&self, addr: usize) -> f32 {
        debug_assert!(addr < self.x_len, "x read past loaded window");
        self.x_banks[addr / BRAM18K_WORDS].read(addr % BRAM18K_WORDS)
    }

    /// Consumes one occupied slot of a beat: `nz` goes to PE `lane`.
    /// Stalls are never delivered — the PE suppresses the multiply and
    /// accumulate for them (§2.2) — so replay walks only the occupied
    /// slots. A cycle stamp enables the PE's pipeline-hazard detector (see
    /// [`crate::Pe::hazards`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoutingViolation`] for a lane the group does not
    /// have, and propagates routing violations from the PE.
    pub fn consume_slot(
        &mut self,
        lane: usize,
        nz: &NzSlot,
        sched: &SchedulerConfig,
        cycle: Option<u64>,
    ) -> Result<(), SimError> {
        let x_value = self.read_x(nz.col);
        let lanes = self.pes.len();
        let Some(pe) = self.pes.get_mut(lane) else {
            return Err(SimError::RoutingViolation(format!(
                "slot for lane {lane} reached PEG {} of {lanes} PEs",
                self.channel
            )));
        };
        pe.process_at(nz, x_value, sched, cycle)
    }

    /// Total pipeline hazards observed by the group's PEs.
    pub fn hazards(&self) -> u64 {
        self.pes.iter().map(Pe::hazards).sum()
    }

    /// Runs the Reduction Unit and gathers the PEG's final partial sums.
    ///
    /// For each source lane `k`, the adder tree sums `URAM_sh[k]` across all
    /// PEs (Fig. 7c); private URAMs are passed through unchanged.
    pub fn reduce(&self) -> PegOutputs {
        let pvt: Vec<Vec<f32>> = self
            .pes
            .iter()
            .map(|pe| pe.private_partials().to_vec())
            .collect();
        let scug_size = self.pes.first().map_or(0, Pe::scug_size);
        let rows = pvt.first().map_or(0, Vec::len);
        let mut shared = Vec::with_capacity(scug_size);
        for k in 0..scug_size {
            let mut consolidated = vec![0.0f32; rows];
            for pe in &self.pes {
                for (row, &v) in pe.shared_partials(k).iter().enumerate() {
                    consolidated[row] += v;
                }
            }
            shared.push(consolidated);
        }
        PegOutputs { pvt, shared }
    }

    /// Total MAC operations performed by the group's PEs.
    pub fn mac_ops(&self) -> u64 {
        self.pes.iter().map(Pe::mac_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> SchedulerConfig {
        SchedulerConfig::toy(2, 2, 4)
    }

    #[test]
    fn bram_bank_count_covers_the_window() {
        let peg = Peg::new(0, 8, 8192, 64, 8).unwrap();
        assert_eq!(peg.x_bank_count(), 8192usize.div_ceil(BRAM18K_WORDS));
    }

    #[test]
    fn consume_slot_multiplies_by_buffered_x() {
        let cfg = sched();
        let mut peg = Peg::new(0, 2, 16, 4, 2).unwrap();
        peg.load_x(&[0.0, 10.0, 20.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Row 0 -> (ch 0, lane 0); row 1 -> (ch 0, lane 1).
        peg.consume_slot(0, &NzSlot::private(2.0, 0, 1), &cfg, None)
            .unwrap();
        peg.consume_slot(1, &NzSlot::private(3.0, 1, 2), &cfg, None)
            .unwrap();
        let out = peg.reduce();
        assert_eq!(out.pvt[0][0], 20.0);
        assert_eq!(out.pvt[1][0], 60.0);
        assert_eq!(peg.mac_ops(), 2);
    }

    #[test]
    fn a_lane_beyond_the_group_is_a_routing_violation() {
        let cfg = sched();
        let mut peg = Peg::new(0, 2, 8, 4, 2).unwrap();
        peg.load_x(&[1.0; 8]);
        let err = peg
            .consume_slot(2, &NzSlot::private(1.0, 0, 0), &cfg, None)
            .unwrap_err();
        assert!(matches!(err, SimError::RoutingViolation(_)), "{err}");
        assert_eq!(peg.mac_ops(), 0);
    }

    #[test]
    fn reduction_unit_consolidates_scugs_across_pes() {
        let cfg = sched();
        let mut peg = Peg::new(0, 2, 8, 4, 2).unwrap();
        peg.load_x(&[1.0; 8]);
        // Two migrated values of the same source row (row 2 of channel 1,
        // lane 0, local row 0) processed by *different* PEs of channel 0.
        let m0 = NzSlot {
            value: 5.0,
            row: 2,
            col: 0,
            pvt: false,
            pe_src: 0,
        };
        let m1 = NzSlot {
            value: 7.0,
            row: 2,
            col: 0,
            pvt: false,
            pe_src: 0,
        };
        peg.consume_slot(0, &m0, &cfg, None).unwrap();
        peg.consume_slot(1, &m1, &cfg, None).unwrap();
        let out = peg.reduce();
        // The adder tree must merge both PEs' URAM_sh[0] banks.
        assert_eq!(out.shared[0][0], 12.0);
        assert_eq!(out.shared[1][0], 0.0);
    }

    #[test]
    fn serpens_peg_has_no_shared_outputs() {
        let peg = Peg::new(0, 2, 8, 4, 0).unwrap();
        assert!(peg.reduce().shared.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds BRAM capacity")]
    fn oversize_x_window_is_rejected() {
        let mut peg = Peg::new(0, 2, 8, 4, 0).unwrap();
        peg.load_x(&[0.0; 1024]);
    }
}
