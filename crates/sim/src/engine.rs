//! Shared execution core of the two accelerator engines, split into a
//! *planning* half (schedule every column window — vector-independent,
//! parallelizable) and an *execution* half (replay a plan against a dense
//! vector). `run` composes the two, so planned and unplanned execution are
//! bit-identical by construction.

use crate::config::{AcceleratorConfig, CycleBreakdown, Execution};
use crate::peg::Peg;
use crate::rearrange::merge_outputs;
use crate::SimError;
use chason_core::plan::{PassPlan, PlanWindow};
use chason_core::schedule::Scheduler;
use chason_core::window::partition_columns;
use chason_sparse::CooMatrix;

/// Schedules every column window of `matrix`, producing the windows of a
/// [`PassPlan`] covering rows `row_start..row_start + matrix.rows()`.
///
/// Windows are independent — each is scheduled from its own sub-matrix — so
/// with `threads > 1` they are scheduled concurrently. Workers own disjoint
/// contiguous chunks of the window list and results are reassembled in
/// window order, so the plan is identical for every thread count.
pub(crate) fn plan_pass<S: Scheduler + Sync>(
    scheduler: &S,
    config: &AcceleratorConfig,
    matrix: &CooMatrix,
    row_start: usize,
    threads: usize,
) -> Result<PassPlan, SimError> {
    if !config.is_valid() {
        return Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ));
    }
    let sched = &config.sched;
    let windows = partition_columns(matrix, config.window);

    let plan_one = |window: &chason_core::window::ColumnWindow| {
        let schedule = scheduler.schedule(&window.matrix, sched);
        PlanWindow {
            col_start: window.col_start,
            col_end: window.col_end,
            nnz: window.matrix.nnz(),
            stalls: schedule.stalls(),
            stream_cycles: schedule.stream_cycles(),
            schedule,
        }
    };

    let threads = threads.clamp(1, windows.len().max(1));
    let planned: Vec<PlanWindow> = if threads <= 1 {
        windows.iter().map(plan_one).collect()
    } else {
        let chunk = windows.len().div_ceil(threads);
        let chunks = crossbeam::scope(|scope| {
            let handles: Vec<_> = windows
                .chunks(chunk)
                .map(|ws| scope.spawn(move |_| ws.iter().map(plan_one).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    // A panic in a worker can only come from a scheduler bug;
                    // propagating it (rather than discarding the plan) is the
                    // correct surface for that failure.
                    #[allow(clippy::expect_used)] // xtask: propagates worker panics
                    h.join().expect("window planner threads do not panic")
                })
                .collect()
        });
        #[allow(clippy::expect_used)] // xtask: scope only errs if a child panicked
        let chunks: Vec<Vec<PlanWindow>> = chunks.expect("window planner scope does not panic");
        chunks.into_iter().flatten().collect()
    };

    Ok(PassPlan {
        row_start,
        row_end: row_start + matrix.rows(),
        nnz: matrix.nnz(),
        windows: planned,
    })
}

/// Executes one planned pass against `x`, replaying each window's stored
/// schedule on the PEG models and charging the cycle/traffic accounting.
///
/// In debug builds (and under the `strict-verify` feature) the pass is
/// first run through the `chason-verify` static checker; a pass with rule
/// violations is rejected with [`SimError::InvalidSchedule`] instead of
/// executing and producing silently wrong numbers.
pub(crate) fn execute_pass(
    engine: &'static str,
    config: &AcceleratorConfig,
    scug_size: usize,
    has_reduction: bool,
    pass: &PassPlan,
    cols: usize,
    x: &[f32],
) -> Result<Execution, SimError> {
    if !config.is_valid() {
        return Err(SimError::InvalidConfig(
            "accelerator configuration failed validation".to_string(),
        ));
    }
    if x.len() != cols {
        return Err(SimError::VectorLengthMismatch {
            got: x.len(),
            expected: cols,
        });
    }
    #[cfg(any(debug_assertions, feature = "strict-verify"))]
    {
        let report = chason_verify::verify_pass(pass, &config.sched, config.window);
        if report.has_errors() {
            return Err(SimError::InvalidSchedule(report.to_string()));
        }
    }
    let sched = &config.sched;
    let rows = pass.rows();
    let rows_per_pe = rows.div_ceil(sched.total_pes().max(1));

    // Build one PEG per channel.
    let mut pegs = (0..sched.channels)
        .map(|c| {
            Peg::new(
                c,
                sched.pes_per_channel,
                config.window,
                rows_per_pe,
                scug_size,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut cycles = CycleBreakdown::default();
    let mut stalls = 0usize;
    let mut bytes_streamed = 0u64;
    let mut stamp_base = 0u64;
    let mut bytes_auxiliary = 0u64;
    let mut occupancy: Vec<u16> = Vec::new();

    for window in &pass.windows {
        let schedule = &window.schedule;
        // Reload every PEG's x buffer with this window's slice; the reload
        // is broadcast from one HBM channel at `x_reload_lanes` words/cycle.
        let x_slice = &x[window.col_start..window.col_end];
        for peg in &mut pegs {
            peg.load_x(x_slice);
        }
        cycles.x_reload +=
            (x_slice.len().div_ceil(config.x_reload_lanes) as f64 * config.stream_ii).ceil() as u64;

        // Stream: all channels advance in lockstep, one beat per cycle,
        // derated by the calibrated initiation-interval inflation.
        let stream_cycles = schedule.stream_cycles();
        cycles.stream += (stream_cycles as f64 * config.stream_ii).ceil() as u64;
        cycles.fill_drain += sched.dependency_distance as u64;
        stalls += schedule.stalls();
        // Every channel streams its (equalized) list: one 64-bit word per
        // lane per cycle.
        bytes_streamed += (stream_cycles * sched.channels * sched.pes_per_channel * 8) as u64;
        bytes_auxiliary += (x_slice.len() * 4) as u64; // x reload

        let occupancy_base = occupancy.len();
        if config.record_occupancy {
            occupancy.resize(occupancy_base + stream_cycles, 0);
        }
        for (c, channel) in schedule.channels.iter().enumerate() {
            let peg = &mut pegs[c];
            for (cycle, lane, nz) in channel.occupied() {
                // Stamp the global cycle so the PEs' hazard detectors can
                // verify the schedule is executable at II = 1; the base
                // advances across windows (the reload gap separates them).
                peg.consume_slot(lane, nz, sched, Some(stamp_base + cycle as u64))?;
                if config.record_occupancy {
                    occupancy[occupancy_base + cycle] += 1;
                }
            }
        }
        stamp_base += (stream_cycles
            + sched.dependency_distance
            + config.window.div_ceil(config.x_reload_lanes)) as u64;
    }

    // Reduction Unit sweep (Chasoň only): the adder tree visits every
    // partial-sum address once per source lane's consolidated URAM, plus the
    // tree's own depth (§4.2.2).
    if has_reduction && scug_size > 0 {
        let tree_depth = (sched.pes_per_channel as f64).log2().ceil() as u64;
        cycles.reduction +=
            ((rows_per_pe as u64 + tree_depth) as f64 * config.stream_ii).ceil() as u64;
    }
    // Arbiter/Merger drain: 16 FP32 output values per cycle (§4.3).
    cycles.merge += (rows.div_ceil(config.merge_width) as f64 * config.stream_ii).ceil() as u64;
    cycles.invocation += config.invocation_overhead_cycles;

    let outputs: Vec<_> = pegs.iter().map(Peg::reduce).collect();
    let y = merge_outputs(&outputs, sched, rows);
    let mac_ops: u64 = pegs.iter().map(Peg::mac_ops).sum();
    let hazards: u64 = pegs.iter().map(Peg::hazards).sum();
    debug_assert_eq!(hazards, 0, "scheduler emitted a stream with RAW hazards");

    let nnz = pass.nnz;
    let underutilization = if nnz + stalls == 0 {
        0.0
    } else {
        stalls as f64 / (nnz + stalls) as f64
    };

    bytes_auxiliary += (rows * 4) as u64; // y writeback
    Ok(Execution {
        engine,
        y,
        cycles,
        clock_mhz: config.clock_mhz,
        nnz,
        rows,
        cols,
        stalls,
        underutilization,
        bytes_streamed,
        bytes_auxiliary,
        windows: pass.windows.len(),
        mac_ops,
        occupancy,
    })
}

/// Runs one SpMV on the architecture described by `config`, scheduling each
/// column window with `scheduler` and executing immediately.
///
/// `scug_size` selects the architecture family: `pes_per_channel` for
/// Chasoň (one `URAM_sh` per neighbour PE), 0 for Serpens. When
/// `has_reduction` is set the Reduction Unit sweep is charged to the cycle
/// budget (§4.2.2); Serpens has no such unit.
pub(crate) fn execute<S: Scheduler + Sync>(
    engine: &'static str,
    scheduler: &S,
    config: &AcceleratorConfig,
    scug_size: usize,
    has_reduction: bool,
    matrix: &CooMatrix,
    x: &[f32],
) -> Result<Execution, SimError> {
    if x.len() != matrix.cols() {
        return Err(SimError::VectorLengthMismatch {
            got: x.len(),
            expected: matrix.cols(),
        });
    }
    let pass = plan_pass(scheduler, config, matrix, 0, 1)?;
    execute_pass(
        engine,
        config,
        scug_size,
        has_reduction,
        &pass,
        matrix.cols(),
        x,
    )
}
