//! Cycle-attribution profiler: breaks a simulated execution down per
//! unit and per PE, in the paper's Fig. 8/9 taxonomy.
//!
//! Two attributions are produced from a plan and the execution it drove:
//!
//! * **unit cycles** — the six [`CycleBreakdown`] categories mapped to the
//!   architecture units they model (router/stream, pipeline fill/drain,
//!   x-buffer fill, Reduction Unit, Rearrange/Arbiter-Merger, invocation
//!   overhead). They sum *exactly* to the execution's total cycle count —
//!   [`Attribution::verify_exact`] enforces it, and [`attribute`] refuses
//!   to return an attribution that fails it;
//! * **stream slots** — every slot of every channel's (equalized) data
//!   list classified as a private fill (`URAM_pvt` access), a migrated
//!   fill (ScUG access — a stall slot CrHCS reclaimed), or a residual
//!   stall, per `(channel, lane)`. `pvt + migrated = nnz` and
//!   `stalls` matches [`Execution::stalls`], so Chasoň's reclaimed-stall
//!   benefit over Serpens is read directly off `migrated_slots`.
//!
//! Attribution is computed from the *plan* (its schedules), not by
//! instrumenting the execution hot loop, so profiling costs nothing when
//! unused. Window spans ([`window_spans`]) carry simulated-cycle
//! timestamps spaced by each window's stream, drain and x-reload beats —
//! integers derived only from the plan, hence byte-identical across runs,
//! machines, and planning thread counts.

use crate::config::{AcceleratorConfig, CycleBreakdown, Execution};
use crate::{Accelerator, SimError};
use chason_core::plan::SpmvPlan;
use chason_core::schedule::ChannelSchedule;
use chason_sparse::CooMatrix;
use chason_telemetry::trace::SpanEvent;

/// Stream-slot classification of one PE (one lane of one channel's PEG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneSlots {
    /// Channel the lane belongs to.
    pub channel: usize,
    /// Lane index within the channel's PEG.
    pub lane: usize,
    /// Slots carrying a private element (`URAM_pvt` access).
    pub pvt: u64,
    /// Slots carrying a migrated element (ScUG access; a reclaimed stall).
    pub migrated: u64,
    /// Residual stall slots, including the virtual padding that equalizes
    /// every channel list to the longest (§3.1's synchronized finish).
    pub stall: u64,
}

/// Per-unit and per-PE attribution of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Engine that produced the execution (`"chason"` or `"serpens"`).
    pub engine: String,
    /// The six-way unit cycle breakdown (sums exactly to
    /// [`Attribution::total_cycles`]).
    pub cycles: CycleBreakdown,
    /// Total cycles of the execution.
    pub total_cycles: u64,
    /// Stream slots filled with private elements across all windows.
    pub pvt_slots: u64,
    /// Stream slots filled with migrated elements (stalls CrHCS
    /// reclaimed; always 0 for Serpens).
    pub migrated_slots: u64,
    /// Residual stall slots (matches [`Execution::stalls`]).
    pub stall_slots: u64,
    /// Slot classification per `(channel, lane)`, sorted by channel then
    /// lane; sums to the three aggregates above.
    pub per_lane: Vec<LaneSlots>,
    /// Column windows the attribution covers.
    pub windows: usize,
}

impl Attribution {
    /// Unit rows in paper terminology, in render order. The cycle counts
    /// sum exactly to [`Attribution::total_cycles`].
    pub fn unit_rows(&self) -> [(&'static str, u64); 6] {
        [
            ("router/stream", self.cycles.stream),
            ("pipeline fill/drain", self.cycles.fill_drain),
            ("x-buffer fill", self.cycles.x_reload),
            ("Reduction Unit", self.cycles.reduction),
            ("Rearrange/Merge", self.cycles.merge),
            ("invocation", self.cycles.invocation),
        ]
    }

    /// Total stream slots (`pvt + migrated + stall`).
    pub fn slots_total(&self) -> u64 {
        self.pvt_slots + self.migrated_slots + self.stall_slots
    }

    /// PE slots doing useful work, as a fraction of all stream slots.
    pub fn occupancy(&self) -> f64 {
        let total = self.slots_total();
        if total == 0 {
            0.0
        } else {
            (self.pvt_slots + self.migrated_slots) as f64 / total as f64
        }
    }

    /// Checks the exactness invariants: unit cycles sum to the total, and
    /// the per-lane classification sums to the aggregate slot counts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn verify_exact(&self) -> Result<(), String> {
        let unit_sum: u64 = self.unit_rows().iter().map(|(_, c)| c).sum();
        if unit_sum != self.total_cycles {
            return Err(format!(
                "unit cycles sum to {unit_sum}, execution total is {}",
                self.total_cycles
            ));
        }
        let (mut pvt, mut migrated, mut stall) = (0u64, 0u64, 0u64);
        for lane in &self.per_lane {
            pvt += lane.pvt;
            migrated += lane.migrated;
            stall += lane.stall;
        }
        if (pvt, migrated, stall) != (self.pvt_slots, self.migrated_slots, self.stall_slots) {
            return Err(format!(
                "per-lane slots ({pvt}, {migrated}, {stall}) disagree with aggregates ({}, {}, {})",
                self.pvt_slots, self.migrated_slots, self.stall_slots
            ));
        }
        Ok(())
    }
}

/// A planned execution paired with its attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledExecution {
    /// The execution itself.
    pub execution: Execution,
    /// Where its cycles and stream slots went.
    pub attribution: Attribution,
}

/// Classifies every stream slot of `plan` and pairs the result with
/// `execution`'s cycle breakdown.
///
/// # Errors
///
/// [`SimError::PlanMismatch`] when the plan and execution disagree (they
/// must come from the same `plan`/`run_planned` pair): engine name,
/// non-zero count, stall count, or an internal exactness violation.
pub fn attribute(plan: &SpmvPlan, execution: &Execution) -> Result<Attribution, SimError> {
    if plan.engine != execution.engine {
        return Err(SimError::PlanMismatch(format!(
            "attributing a {} execution against a {} plan",
            execution.engine, plan.engine
        )));
    }
    let sched = &plan.key.config;
    let pes = sched.pes_per_channel;
    let mut per_lane: Vec<LaneSlots> = (0..sched.channels)
        .flat_map(|c| {
            (0..pes).map(move |l| LaneSlots {
                channel: c,
                lane: l,
                ..LaneSlots::default()
            })
        })
        .collect();
    let mut windows = 0usize;
    for pass in &plan.passes {
        for window in &pass.windows {
            windows += 1;
            let schedule = &window.schedule;
            // The equalized list length: every channel streams this many
            // beats, trailing all-stall beats stored only virtually.
            let stream_cycles = schedule.stream_cycles() as u64;
            for channel in &schedule.channels {
                let mut filled = vec![0u64; pes];
                for (_, lane, nz) in channel.occupied().filter(|&(_, lane, _)| lane < pes) {
                    let entry = &mut per_lane[channel.channel * pes + lane];
                    if nz.pvt {
                        entry.pvt += 1;
                    } else {
                        entry.migrated += 1;
                    }
                    filled[lane] += 1;
                }
                for (lane, &busy) in filled.iter().enumerate() {
                    per_lane[channel.channel * pes + lane].stall += stream_cycles - busy;
                }
            }
        }
    }
    let pvt_slots: u64 = per_lane.iter().map(|l| l.pvt).sum();
    let migrated_slots: u64 = per_lane.iter().map(|l| l.migrated).sum();
    let stall_slots: u64 = per_lane.iter().map(|l| l.stall).sum();
    if pvt_slots + migrated_slots != execution.nnz as u64 {
        return Err(SimError::PlanMismatch(format!(
            "plan schedules {} non-zeros, execution computed {}",
            pvt_slots + migrated_slots,
            execution.nnz
        )));
    }
    if stall_slots != execution.stalls as u64 {
        return Err(SimError::PlanMismatch(format!(
            "plan carries {stall_slots} stall slots, execution charged {}",
            execution.stalls
        )));
    }
    let attribution = Attribution {
        engine: execution.engine.to_string(),
        cycles: execution.cycles,
        total_cycles: execution.cycles.total(),
        pvt_slots,
        migrated_slots,
        stall_slots,
        per_lane,
        windows,
    };
    attribution.verify_exact().map_err(SimError::PlanMismatch)?;
    Ok(attribution)
}

/// Plans, runs, and attributes one SpMV on `engine`.
///
/// # Errors
///
/// Any planning or execution error of the engine, plus
/// [`SimError::PlanMismatch`] if attribution invariants fail (a simulator
/// bug, not a caller error).
pub fn profile_run(
    engine: &Accelerator,
    matrix: &CooMatrix,
    x: &[f32],
) -> Result<ProfiledExecution, SimError> {
    let plan = engine.plan(matrix)?;
    profile_planned(engine, &plan, x)
}

/// Runs a previously built plan and attributes the execution.
///
/// # Errors
///
/// See [`profile_run`].
pub fn profile_planned(
    engine: &Accelerator,
    plan: &SpmvPlan,
    x: &[f32],
) -> Result<ProfiledExecution, SimError> {
    let execution = engine.run_planned(plan, x)?;
    let attribution = attribute(plan, &execution)?;
    Ok(ProfiledExecution {
        execution,
        attribution,
    })
}

/// Busy PEs across all channels in each stream beat of `plan`, windows
/// concatenated in (pass, window) order: the time-resolved view behind
/// Eq. 4's underutilization scalar. Each window contributes its
/// equalized stream length, so a beat with no busy PE counts 0.
pub fn busy_pes_per_beat(plan: &SpmvPlan) -> Vec<u16> {
    let mut busy = Vec::new();
    for window in plan.passes.iter().flat_map(|p| &p.windows) {
        let base = busy.len();
        busy.resize(base + window.schedule.stream_cycles(), 0u16);
        for (cycle, _, _) in window
            .schedule
            .channels
            .iter()
            .flat_map(ChannelSchedule::occupied)
        {
            busy[base + cycle] += 1;
        }
    }
    busy
}

/// Simulated beats from the start of one window's stream to the start of
/// the next: the stream itself, the pipeline drain, and the x reload gap.
fn window_stamp_gap(config: &AcceleratorConfig, stream_cycles: usize) -> u64 {
    (stream_cycles
        + config.sched.dependency_distance
        + config.window.div_ceil(crate::X_RELOAD_LANES)) as u64
}

/// One deterministic span per column window, timestamped in simulated
/// stream beats.
///
/// Timestamps use an inter-window gap of stream, drain and x-reload beats:
/// window `w` starts where window `w-1`'s stream, drain and x-reload gap
/// ended, and
/// passes follow each other. `config` is the configuration the plan was
/// built under. Every field derives from the plan alone —
/// no wall clock — so the rendered JSONL is byte-identical across runs
/// and planning thread counts, which is what lets golden traces be
/// committed.
pub fn window_spans(plan: &SpmvPlan, config: &AcceleratorConfig) -> Vec<SpanEvent> {
    let mut spans = Vec::new();
    let mut stamp_base = 0u64;
    for (p, pass) in plan.passes.iter().enumerate() {
        for (w, window) in pass.windows.iter().enumerate() {
            let schedule = &window.schedule;
            let stream_cycles = schedule.stream_cycles();
            let migrated = schedule
                .channels
                .iter()
                .flat_map(ChannelSchedule::occupied)
                .filter(|(_, _, nz)| !nz.pvt)
                .count() as u64;
            spans.push(
                SpanEvent::new("sim.window", stamp_base, stamp_base + stream_cycles as u64)
                    .attr("engine", plan.engine.as_str())
                    .attr("pass", p)
                    .attr("window", w)
                    .attr("col_start", window.col_start)
                    .attr("col_end", window.col_end)
                    .attr("nnz", window.nnz)
                    .attr("migrated", migrated)
                    .attr("stalls", window.stalls),
            );
            stamp_base += window_stamp_gap(config, stream_cycles);
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorConfig;
    use chason_core::schedule::SchedulerConfig;
    use chason_sparse::generators::{power_law, uniform_random};
    use chason_telemetry::trace::to_jsonl;

    fn engines() -> (Accelerator, Accelerator) {
        let sched = SchedulerConfig::toy(4, 4, 6);
        (
            Accelerator::new(AcceleratorConfig {
                sched,
                ..AcceleratorConfig::chason()
            }),
            Accelerator::new(AcceleratorConfig {
                sched,
                ..AcceleratorConfig::serpens()
            }),
        )
    }

    #[test]
    fn attribution_sums_exactly_and_matches_the_execution() {
        let (chason, serpens) = engines();
        let m = power_law(96, 96, 700, 1.7, 31);
        let x: Vec<f32> = (0..96).map(|i| (i as f32 * 0.37).sin()).collect();
        for profiled in [
            profile_run(&chason, &m, &x).expect("chason profiles"),
            profile_run(&serpens, &m, &x).expect("serpens profiles"),
        ] {
            let a = &profiled.attribution;
            a.verify_exact().expect("exactness invariants");
            let unit_sum: u64 = a.unit_rows().iter().map(|(_, c)| c).sum();
            assert_eq!(unit_sum, profiled.execution.cycles.total());
            assert_eq!(
                a.pvt_slots + a.migrated_slots,
                profiled.execution.nnz as u64
            );
            assert_eq!(a.stall_slots, profiled.execution.stalls as u64);
            assert_eq!(a.windows, profiled.execution.windows);
            assert!(a.occupancy() > 0.0 && a.occupancy() <= 1.0);
        }
    }

    #[test]
    fn serpens_never_migrates_and_chason_reclaims_stalls_on_skewed() {
        let (chason, serpens) = engines();
        // A skewed (power-law) matrix leaves channels imbalanced — the
        // regime CrHCS exists for (§2.3, §6.1).
        let m = power_law(256, 256, 2200, 2.2, 11);
        let x = vec![1.0f32; 256];
        let c = profile_run(&chason, &m, &x).expect("chason").attribution;
        let s = profile_run(&serpens, &m, &x).expect("serpens").attribution;
        assert_eq!(s.migrated_slots, 0, "Serpens has no migration path");
        assert!(
            c.migrated_slots > 0,
            "CrHCS must migrate on a banded matrix"
        );
        assert!(
            c.stall_slots < s.stall_slots,
            "chason stalls {} must undercut serpens {}",
            c.stall_slots,
            s.stall_slots
        );
        // Every migrated slot is a reclaimed stall: totals are conserved.
        assert_eq!(
            c.pvt_slots + c.migrated_slots,
            s.pvt_slots + s.migrated_slots
        );
    }

    #[test]
    fn multi_pass_plans_attribute_across_all_passes() {
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            ..AcceleratorConfig::chason()
        });
        let m = uniform_random(70_000, 128, 30_000, 5);
        let x: Vec<f32> = (0..128).map(|i| 0.25 + (i % 3) as f32).collect();
        let plan = engine.plan(&m).expect("plan");
        assert!(plan.passes.len() > 1, "test needs a row-partitioned plan");
        let profiled = profile_planned(&engine, &plan, &x).expect("profiled");
        let a = &profiled.attribution;
        assert_eq!(a.pvt_slots + a.migrated_slots, 30_000);
        assert_eq!(a.stall_slots, profiled.execution.stalls as u64);
        assert_eq!(a.windows, profiled.execution.windows);
    }

    #[test]
    fn busy_pes_cover_every_beat_of_every_pass() {
        let engine = Accelerator::new(AcceleratorConfig {
            sched: SchedulerConfig::toy(2, 2, 4),
            window: 64,
            ..AcceleratorConfig::chason()
        });
        let m = uniform_random(70_000, 128, 30_000, 5);
        let plan = engine.plan(&m).expect("plan");
        assert!(plan.passes.len() > 1 && plan.passes[0].windows.len() == 2);
        let busy = busy_pes_per_beat(&plan);
        assert_eq!(busy.len(), plan.stream_cycles());
        assert_eq!(busy.iter().map(|&b| b as usize).sum::<usize>(), 30_000);
        assert!(busy.iter().all(|&b| b <= 4));
        // Stalls are the beats' idle PEs.
        let idle: usize = busy.iter().map(|&b| 4 - b as usize).sum();
        assert_eq!(idle, plan.stalls());
    }

    #[test]
    fn mismatched_plan_and_execution_are_refused() {
        let (chason, serpens) = engines();
        let m = uniform_random(64, 64, 300, 1);
        let x = vec![1.0f32; 64];
        let plan = chason.plan(&m).expect("plan");
        let foreign = serpens.run(&m, &x).expect("serpens run");
        assert!(matches!(
            attribute(&plan, &foreign),
            Err(SimError::PlanMismatch(_))
        ));
    }

    #[test]
    fn window_spans_are_identical_across_planning_thread_counts() {
        let (chason, _) = engines();
        let m = uniform_random(64, 40_000, 12_000, 3); // several windows
        let config = *chason.config();
        let serial = chason.plan_with_threads(&m, 1).expect("serial plan");
        let baseline = to_jsonl(&window_spans(&serial, &config));
        assert!(!baseline.is_empty());
        for threads in [2, 4, 8] {
            let plan = chason.plan_with_threads(&m, threads).expect("plan");
            assert_eq!(
                to_jsonl(&window_spans(&plan, &config)),
                baseline,
                "trace must be byte-stable at {threads} threads"
            );
        }
        // Spans are ordered and non-overlapping per the stamp arithmetic.
        let spans = window_spans(&serial, &config);
        for pair in spans.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }
}
