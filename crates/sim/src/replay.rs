//! The replay kernel: the functional half of both datapaths (§4.2–§4.3),
//! as one walk over a pass's occupied slots.
//!
//! Each PEG (one per channel) keeps every partial sum its `P` PEs hold in
//! one flat `Vec<f32>` laid out `[lane][bank][local_row]`. Bank 0 is the
//! PE's `URAM_pvt`; banks `1 + (hop − 1)·P + PE_src` are its Shared-Channel
//! URAM Group (ScUG), one group of `P` banks per migration hop (Serpens PEs
//! have no ScUG). The Router steers each occupied slot by its
//! `(pvt, PE_src)` tags and the PE multiply-accumulates it in stream order:
//!
//! * `pvt = 1` → the `URAM_pvt` of the PE the row is dealt to (Eq. 1);
//! * `pvt = 0` → ScUG bank `(hop − 1)·P + PE_src` of the PE that streamed
//!   it, where `hop` is the ring distance back to the row's home channel.
//!
//! Without that segregation migrated values would corrupt the private
//! accumulators, the hazard §3.2 describes; a slot the hardware could not
//! route is a [`SimError::RoutingViolation`]. Stalls never reach a PE
//! (§2.2), so the walk visits occupied slots only.
//!
//! After the stream, the Reduction Unit (§4.2.2, Fig. 7c) sums each ScUG
//! bank across the group's PEs `0..P` in order, starting from `0.0`, and
//! the Rearrange Unit's Merger (§4.3, Fig. 8) completes the row owned by
//! lane `l` of channel `c` at local row `r`, hop by hop from 1:
//!
//! ```text
//! y[row] = 0.0 + pvt[c][l][r] + Σ_hop consolidated[(c + C − hop) % C][(hop − 1)·P + l][r]
//! ```
//!
//! Channel `d`'s hop-`h` banks hold partial sums of channel `(d + h) % C`,
//! so a row's shared sums live in its ring predecessors, up to
//! `min(hops, C − 1)` of them.

use crate::{Design, SimError};
use chason_core::schedule::{ChannelSchedule, RowMap, ScheduledMatrix, SchedulerConfig};
use std::ops::Range;

/// Capacity of one URAM in FP32 partial sums: 4096 slots × 72 bits, two
/// FP32 values per slot (§4.2.1). A pass whose PEs need more partial-sum
/// rows is row-partitioned (§4.5).
pub const URAM_PARTIALS: usize = 4096 * 2;

/// Partial-sum rows each PE owns in a pass of `rows` rows (Eq. 1 deals
/// rows to PEs round-robin), which sizes every URAM.
pub(crate) fn rows_per_pe(sched: &SchedulerConfig, rows: usize) -> usize {
    rows.div_ceil(sched.total_pes().max(1))
}

/// The functional result of replaying one pass against one dense vector.
pub(crate) struct Replay {
    pub(crate) y: Vec<f32>,
    /// Multiply-accumulates performed: the occupied slots replayed.
    pub(crate) mac_ops: u64,
}

/// One column window as the kernel replays it: the columns of `x` the PEGs'
/// x buffers hold, and the schedule streamed against them.
pub(crate) type Window<'a> = (Range<usize>, &'a ScheduledMatrix);

/// The partial-sum geometry of one pass's PEGs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Datapath {
    sched: SchedulerConfig,
    /// Splits a row of the pass into its PE and URAM address (Eq. 1).
    row_map: RowMap,
    /// `URAM_sh` banks per PE: `P × hops` for Chasoň, 0 for Serpens.
    scug_size: usize,
    /// Rows of the pass, the length of `y`.
    rows: usize,
    /// Partial-sum rows per URAM.
    rows_per_pe: usize,
}

impl Datapath {
    /// The PEGs of `sched` with `scug_size` shared banks per PE, holding a
    /// pass of `rows` rows.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an invalid scheduler configuration
    /// or a pass whose rows exceed 32-bit indices, and
    /// [`SimError::RowCapacityExceeded`] if one URAM cannot hold every
    /// partial sum a PE owns.
    pub(crate) fn new(
        sched: SchedulerConfig,
        scug_size: usize,
        rows: usize,
    ) -> Result<Self, SimError> {
        if !sched.is_valid() {
            return Err(SimError::InvalidConfig(
                "scheduler configuration failed validation".to_string(),
            ));
        }
        let rows_per_pe = rows_per_pe(&sched, rows);
        if rows_per_pe > URAM_PARTIALS {
            return Err(SimError::RowCapacityExceeded {
                rows_per_pe,
                capacity: URAM_PARTIALS,
            });
        }
        if rows > u32::MAX as usize || sched.total_pes() > u32::MAX as usize {
            return Err(SimError::InvalidConfig(format!(
                "a pass of {rows} rows over {} PEs exceeds 32-bit row indices",
                sched.total_pes()
            )));
        }
        Ok(Datapath {
            sched,
            row_map: RowMap::new(&sched),
            scug_size,
            rows,
            rows_per_pe,
        })
    }

    /// Flat index of `lane`'s `bank` at `local_row` in its PEG's sums.
    fn at(&self, lane: usize, bank: usize, local_row: usize) -> usize {
        (lane * (1 + self.scug_size) + bank) * self.rows_per_pe + local_row
    }

    /// Replays `windows` against `x` and merges the partial sums into `y`.
    ///
    /// A window whose columns do not fit `x` or an `x_capacity`-word x
    /// buffer, or that streams more channels than there are PEGs, is
    /// rejected before any slot runs. A PEG sees only its own channel's
    /// slots until the merge, so the PEGs are split into contiguous groups,
    /// one per thread (at most `threads`, never more than there are
    /// channels), each replaying every window for its channels. The merge
    /// is serial, so the result, and the first routing error in serial
    /// (window, channel) order, are the same for every thread count.
    pub(crate) fn replay(
        &self,
        windows: &[Window<'_>],
        x: &[f32],
        x_capacity: usize,
        threads: usize,
    ) -> Result<Replay, SimError> {
        let channels = self.sched.channels;
        for (cols, schedule) in windows {
            if schedule.channels.len() > channels {
                return Err(SimError::RoutingViolation(format!(
                    "window at column {} streams {} channels to {channels} PEGs",
                    cols.start,
                    schedule.channels.len()
                )));
            }
            if cols.len() > x_capacity || x.get(cols.clone()).is_none() {
                return Err(SimError::RoutingViolation(format!(
                    "window at columns {}..{} does not fit a {x_capacity}-word x buffer \
                     over {} columns",
                    cols.start,
                    cols.end,
                    x.len()
                )));
            }
        }

        // Replays every window on the PEGs of channels `first..`; a failure
        // is tagged with its (window, channel) so the serial order's first
        // error can be picked across groups.
        let replay_group = |first: usize, group: &mut [Vec<f32>]| {
            for (w, (cols, schedule)) in windows.iter().enumerate() {
                let xs = &x[cols.clone()];
                for (c, sums) in (first..).zip(group.iter_mut()) {
                    if let Some(channel) = schedule.channels.get(c) {
                        self.accumulate(c, channel, xs, sums)
                            .map_err(|err| (w, c, err))?;
                    }
                }
            }
            Ok::<_, (usize, usize, SimError)>(())
        };
        let replay_group = &replay_group;
        let channel_len = self.sched.pes_per_channel * (1 + self.scug_size) * self.rows_per_pe;
        let mut sums = vec![vec![0.0f32; channel_len]; channels];
        let per_group = channels.div_ceil(threads.clamp(1, channels));
        let groups = std::thread::scope(|scope| {
            let mut chunks = sums.chunks_mut(per_group).enumerate();
            let head = chunks.next();
            let spawned: Vec<_> = chunks
                .map(|(g, group)| scope.spawn(move || replay_group(g * per_group, group)))
                .collect();
            let mut groups = vec![head.map_or(Ok(()), |(_, group)| replay_group(0, group))];
            groups.extend(spawned.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            groups
        });
        let first_failure = groups
            .into_iter()
            .filter_map(Result::err)
            .min_by_key(|&(w, c, _)| (w, c));
        if let Some((_, _, err)) = first_failure {
            return Err(err);
        }
        Ok(Replay {
            y: self.merge(&sums),
            mac_ops: windows
                .iter()
                .map(|(_, schedule)| schedule.scheduled_nonzeros() as u64)
                .sum(),
        })
    }

    /// Routes and multiply-accumulates channel `c`'s occupied slots of one
    /// window into its PEG's `sums`, reading `x` from the window's slice
    /// `xs`.
    ///
    /// # Errors
    ///
    /// [`SimError::RoutingViolation`] for a slot the PEG cannot route: a
    /// lane beyond the group, a column outside the x window, a row outside
    /// the pass, a private element of another PE's row, or a migrated
    /// element inside its home channel or addressing a ScUG bank the PE
    /// does not have.
    fn accumulate(
        &self,
        c: usize,
        channel: &ChannelSchedule,
        xs: &[f32],
        sums: &mut [f32],
    ) -> Result<(), SimError> {
        let sched = &self.sched;
        let (channels, pes) = (sched.channels, sched.pes_per_channel);
        let violation = |msg: String| Err(SimError::RoutingViolation(msg));
        for (_, lane, nz) in channel.occupied() {
            if lane >= pes {
                return violation(format!("slot for lane {lane} reached PEG {c} of {pes} PEs"));
            }
            let Some(&x) = xs.get(nz.col) else {
                return violation(format!(
                    "element of column {} reached PEG {c}, whose x window holds {} words",
                    nz.col,
                    xs.len()
                ));
            };
            if nz.row >= self.rows {
                return violation(format!(
                    "element of row {} reached PE ({c}, {lane}) in a pass of {} rows",
                    nz.row, self.rows
                ));
            }
            // The row is below the pass's rows, which `new` keeps 32-bit.
            let (local_row, home, home_lane) = self.row_map.split(nz.row as u32);
            let bank = if nz.pvt {
                if home != c || home_lane != lane {
                    return violation(format!(
                        "private element of row {} reached PE ({c}, {lane})",
                        nz.row
                    ));
                }
                0
            } else {
                // `SchedulerConfig::hop_for` without the modulo: both
                // channels are below `channels`.
                let hop = if home >= c {
                    home - c
                } else {
                    home + channels - c
                };
                if hop == 0 {
                    return violation(format!(
                        "element of row {} tagged as migrated inside its home channel {c}",
                        nz.row
                    ));
                }
                let k = (hop - 1) * pes + usize::from(nz.pe_src);
                if usize::from(nz.pe_src) >= pes || k >= self.scug_size {
                    return violation(format!(
                        "migrated element (hop {hop}, PE_src {}) reached PE ({c}, {lane}) \
                         with ScUG size {}",
                        nz.pe_src, self.scug_size
                    ));
                }
                1 + k
            };
            sums[self.at(lane, bank, local_row)] += nz.value * x;
        }
        Ok(())
    }

    /// The Reduction Unit and the Merger over every PEG's `sums`, in the
    /// order the module docs give. Rows are visited in PE order — local
    /// row, then channel, then lane — which is ascending row order, so no
    /// row is ever divided.
    fn merge(&self, sums: &[Vec<f32>]) -> Vec<f32> {
        let sched = &self.sched;
        let (channels, pes) = (sched.channels, sched.pes_per_channel);
        let hops = sched.migration_hops.min(channels - 1);
        let mut y = Vec::with_capacity(self.rows);
        'rows: for r in 0..self.rows_per_pe {
            for c in 0..channels {
                for l in 0..pes {
                    if y.len() == self.rows {
                        break 'rows;
                    }
                    let mut acc = 0.0f32;
                    acc += sums[c][self.at(l, 0, r)];
                    for hop in 1..=hops {
                        let k = (hop - 1) * pes + l;
                        if k < self.scug_size {
                            let holder = &sums[if c >= hop {
                                c - hop
                            } else {
                                c + channels - hop
                            }];
                            let mut consolidated = 0.0f32;
                            for lane in 0..pes {
                                consolidated += holder[self.at(lane, 1 + k, r)];
                            }
                            acc += consolidated;
                        }
                    }
                    y.push(acc);
                }
            }
        }
        y
    }
}

/// Replays `schedule` against `x` on a Chasoň datapath sized for the
/// schedule's configuration (`P × hops` ScUG banks per PE), with every
/// column in one x window, and returns `y`.
///
/// The accelerator runs the `chason-verify` static checker on a pass before
/// replaying it in debug and `strict-verify` builds; this entry point does
/// not, so a corrupted schedule reaches the datapath model itself. The
/// conformance fuzzer uses it as its dynamic oracle.
///
/// # Errors
///
/// * [`SimError::VectorLengthMismatch`] if `x.len() != schedule.cols`;
/// * [`SimError::InvalidConfig`] for an invalid scheduler configuration;
/// * [`SimError::RowCapacityExceeded`] if a PE owns more rows than a URAM
///   holds;
/// * [`SimError::RoutingViolation`] for a slot the datapath cannot route.
pub fn replay_schedule(schedule: &ScheduledMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
    if x.len() != schedule.cols {
        return Err(SimError::VectorLengthMismatch {
            got: x.len(),
            expected: schedule.cols,
        });
    }
    let sched = schedule.config;
    let datapath = Datapath::new(sched, Design::Chason.scug_size(&sched), schedule.rows)?;
    Ok(datapath.replay(&[(0..x.len(), schedule)], x, x.len(), 1)?.y)
}
