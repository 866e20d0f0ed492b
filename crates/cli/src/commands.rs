//! Subcommand implementations.

use crate::args::Args;
use chason::solvers::{
    conjugate_gradient, jacobi, CgOptions, CpuBackend, EngineBackend, SpmvBackend,
};
use chason_core::metrics::{schedule_insights, windowed_metrics, WindowedMetrics};
use chason_core::schedule::{Crhcs, PeAware, RowBased, Scheduler, SchedulerConfig};
use chason_sim::power::MeasuredPower;
use chason_sim::report::PerformanceReport;
use chason_sim::{hbm_bandwidth_gbps, Accelerator, AcceleratorConfig, Execution};
use chason_sparse::generators::{arrow_with_nnz, banded_with_nnz, power_law, uniform_random};
use chason_sparse::market::{read_matrix_market, write_matrix_market};
use chason_sparse::stats::row_stats;
use chason_sparse::CooMatrix;
use chason_verify::mutate::Corruption;
use std::fs::File;
use std::io::BufWriter;

fn load_matrix(args: &Args) -> Result<CooMatrix, String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| "expected a MatrixMarket file path".to_string())?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_matrix_market(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

pub(crate) fn scheduler_config(args: &Args) -> Result<SchedulerConfig, String> {
    let config = SchedulerConfig {
        channels: args.get_or("channels", 16usize)?,
        pes_per_channel: args.get_or("pes", 8usize)?,
        dependency_distance: args.get_or("distance", 10usize)?,
        migration_scan_limit: args.get_or("scan-limit", 256usize)?,
        migration_hops: args.get_or("hops", 1usize)?,
    };
    if !config.is_valid() {
        return Err(format!(
            "invalid scheduling configuration: {} channels x {} PEs, D = {}, hops = {}",
            config.channels,
            config.pes_per_channel,
            config.dependency_distance,
            config.migration_hops
        ));
    }
    Ok(config)
}

fn describe_metrics(m: &WindowedMetrics) {
    println!("scheduler        : {}", m.scheduler);
    println!("non-zeros        : {}", m.nnz);
    println!("stall slots      : {}", m.stalls);
    println!("stream cycles    : {}", m.stream_cycles);
    println!("column windows   : {}", m.windows);
    println!("underutilization : {:.2}%", m.underutilization_pct());
    let per_peg = m.per_peg_underutilization_pct();
    let min = per_peg.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = per_peg.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("per-PEG range    : {min:.1}% .. {max:.1}%");
}

/// `chason schedule <matrix.mtx>` — offline scheduling metrics.
pub fn schedule(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    let config = scheduler_config(args)?;
    let stats = row_stats(&matrix);
    println!(
        "matrix: {} x {}, {} nnz (max row {} nnz, gini {:.2})\n",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        stats.max_row_nnz,
        stats.gini
    );
    let window = chason_core::element::WINDOW;
    let name = args.get("scheduler").unwrap_or("crhcs").to_string();
    let metrics = match name.as_str() {
        "crhcs" => windowed_metrics(&Crhcs::new(), &matrix, &config, window),
        "pe-aware" => windowed_metrics(&PeAware::new(), &matrix, &config, window),
        "row-based" => windowed_metrics(&RowBased::new(), &matrix, &config, window),
        other => return Err(format!("unknown scheduler '{other}'")),
    };
    describe_metrics(&metrics);
    if args.has_flag("insights") && matrix.cols() <= chason_core::element::WINDOW {
        let schedule = match name.as_str() {
            "crhcs" => Crhcs::new().schedule(&matrix, &config),
            "pe-aware" => PeAware::new().schedule(&matrix, &config),
            _ => RowBased::new().schedule(&matrix, &config),
        };
        let insights = schedule_insights(&schedule);
        println!("longest idle run : {} cycles", insights.longest_stall_run);
        println!(
            "migrated values  : {} ({:?} per hop)",
            insights.migrated, insights.migrated_per_hop
        );
        println!(
            "mean fill point  : {:.2} of the stream",
            insights.mean_fill_position
        );
    }
    Ok(())
}

fn print_execution(exec: &Execution) {
    let bandwidth = hbm_bandwidth_gbps(16);
    let power = match exec.engine {
        "chason" => MeasuredPower::chason(),
        _ => MeasuredPower::serpens(),
    };
    let report = PerformanceReport::from_execution(exec, bandwidth, power);
    println!("engine               : {}", exec.engine);
    println!("latency              : {:.4} ms", report.latency_ms);
    println!(
        "throughput           : {:.3} GFLOPS",
        report.throughput_gflops
    );
    println!(
        "bandwidth efficiency : {:.4} GFLOPS/(GB/s)",
        report.bandwidth_efficiency
    );
    println!(
        "energy efficiency    : {:.4} GFLOPS/W",
        report.energy_efficiency
    );
    println!("PE underutilization  : {:.2}%", report.underutilization_pct);
    println!("cycles               : {} total", exec.cycles.total());
    println!(
        "                       stream {} | drain {} | x-reload {} | reduce {} | merge {} | invoke {}",
        exec.cycles.stream,
        exec.cycles.fill_drain,
        exec.cycles.x_reload,
        exec.cycles.reduction,
        exec.cycles.merge,
        exec.cycles.invocation
    );
    println!(
        "data streamed        : {:.3} MB",
        exec.bytes_streamed as f64 / 1e6
    );
}

/// The accelerator named `name` (`chason` or `serpens`) under `sched`.
fn accelerator(name: &str, sched: SchedulerConfig) -> Result<Accelerator, String> {
    let preset = match name {
        "chason" => AcceleratorConfig::chason(),
        "serpens" => AcceleratorConfig::serpens(),
        other => return Err(format!("unknown engine '{other}'")),
    };
    Ok(Accelerator::new(AcceleratorConfig { sched, ..preset }))
}

fn execute(args: &Args, matrix: &CooMatrix, engine_name: &str) -> Result<Execution, String> {
    let engine = accelerator(engine_name, scheduler_config(args)?)?;
    let x = vec![1.0f32; matrix.cols()];
    // Plan first (windows scheduled in parallel), then execute the plan —
    // the same artifact a solver would cache across iterations.
    let plan = engine.plan(matrix).map_err(|e| e.to_string())?;
    engine.run_planned(&plan, &x).map_err(|e| e.to_string())
}

/// `chason run <matrix.mtx>` — simulated execution.
pub fn run(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    let engine = args.get("engine").unwrap_or("chason").to_string();
    let exec = execute(args, &matrix, &engine)?;
    print_execution(&exec);
    Ok(())
}

/// `chason compare <matrix.mtx>` — both engines side by side.
pub fn compare(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    let chason = execute(args, &matrix, "chason")?;
    let serpens = execute(args, &matrix, "serpens")?;
    print_execution(&serpens);
    println!();
    print_execution(&chason);
    println!();
    println!(
        "speedup: {:.2}x | transfer reduction: {:.2}x",
        serpens.latency_seconds() / chason.latency_seconds(),
        serpens.bytes_streamed as f64 / chason.bytes_streamed.max(1) as f64
    );
    Ok(())
}

/// `chason generate <recipe> <out.mtx>` — synthetic matrix generation.
pub fn generate(args: &Args) -> Result<(), String> {
    let recipe = args
        .positional
        .first()
        .ok_or_else(|| "expected a recipe (uniform|powerlaw|banded|arrow)".to_string())?
        .clone();
    let out = args
        .positional
        .get(1)
        .ok_or_else(|| "expected an output path".to_string())?;
    let n: usize = args.get_or("n", 0)?;
    let nnz: usize = args.get_or("nnz", 0)?;
    if n == 0 || nnz == 0 {
        return Err("--n and --nnz are required".to_string());
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let matrix = match recipe.as_str() {
        "uniform" => uniform_random(n, n, nnz, seed),
        "powerlaw" => power_law(n, n, nnz, args.get_or("alpha", 1.7f64)?, seed),
        "banded" => banded_with_nnz(n, args.get_or("bandwidth", 8usize)?, nnz, seed),
        "arrow" => arrow_with_nnz(
            n,
            args.get_or("bandwidth", 8usize)?,
            args.get_or("dense-rows", 4usize)?,
            nnz,
            seed,
        ),
        other => return Err(format!("unknown recipe '{other}'")),
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_matrix_market(BufWriter::new(file), &matrix).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} x {}, {} nnz, density {:.4}%)",
        out,
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        matrix.density() * 100.0
    );
    Ok(())
}

/// `chason solve <matrix.mtx>` — iterative solve with an accelerator (or
/// CPU) backend; the right-hand side is `A·1` so the exact solution is the
/// all-ones vector, giving a built-in correctness check.
pub fn solve(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    if matrix.rows() != matrix.cols() {
        return Err("solve requires a square system".to_string());
    }
    let ones = vec![1.0f32; matrix.cols()];
    let b = matrix.spmv(&ones);
    let options = CgOptions {
        max_iterations: args.get_or("max-iterations", 500usize)?,
        tolerance: args.get_or("tolerance", 1e-6f64)?,
    };
    let solver = args.get("solver").unwrap_or("jacobi").to_string();
    let sched = scheduler_config(args)?;
    let mut backend: Box<dyn SpmvBackend> = match args.get("engine").unwrap_or("chason") {
        "cpu" => Box::new(CpuBackend::default()),
        name => Box::new(EngineBackend::new(accelerator(name, sched)?)),
    };
    let result = match solver.as_str() {
        "cg" => conjugate_gradient(backend.as_mut(), &matrix, &b, options),
        "jacobi" => jacobi(backend.as_mut(), &matrix, &b, options),
        other => return Err(format!("unknown solver '{other}' (cg|jacobi)")),
    }
    .map_err(|e| e.to_string())?;
    let max_err = result
        .solution
        .iter()
        .map(|&v| (v - 1.0).abs())
        .fold(0.0f32, f32::max);
    println!("solver            : {solver} on {}", backend.name());
    println!("iterations        : {}", result.iterations);
    println!("relative residual : {:.3e}", result.residual);
    println!("converged         : {}", result.converged);
    println!("max |x - 1|       : {max_err:.3e}");
    println!(
        "SpMV time         : {:.4} ms (simulated for engines)",
        result.spmv_seconds * 1e3
    );
    Ok(())
}

/// `chason export <matrix.mtx> <out.chsn>` — run CrHCS offline and write
/// the binary schedule artifact(s) the accelerator host would consume.
/// Matrices wider than one `W = 8192` window produce one artifact per
/// window, suffixed `.w<N>`.
pub fn export(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    let out = args
        .positional
        .get(1)
        .ok_or_else(|| "expected an output path".to_string())?;
    let config = scheduler_config(args)?;
    let windows = chason_core::window::partition_paper_windows(&matrix);
    let multi = windows.len() > 1;
    for w in &windows {
        let schedule = Crhcs::new().schedule(&w.matrix, &config);
        let path = if multi {
            format!("{out}.w{}", w.index)
        } else {
            out.clone()
        };
        let file = File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        chason_core::export::write_schedule(BufWriter::new(file), &schedule)
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {path}: window {} (cols {}..{}), {} cycles, {:.1}% underutilization",
            w.index,
            w.col_start,
            w.col_end,
            schedule.stream_cycles(),
            schedule.underutilization() * 100.0
        );
    }
    Ok(())
}

/// `chason inspect <file.chsn>` — print a schedule artifact's header and
/// stall statistics.
pub fn inspect(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| "expected an artifact path".to_string())?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let artifact = chason_core::export::read_schedule(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    println!("artifact          : {path}");
    println!(
        "geometry          : {} channels x {} PEs, D = {}, hops = {}",
        artifact.config.channels,
        artifact.config.pes_per_channel,
        artifact.config.dependency_distance,
        artifact.config.migration_hops
    );
    println!(
        "matrix            : {} x {}, {} nnz",
        artifact.rows, artifact.cols, artifact.nnz
    );
    println!("stream length     : {} cycles per channel", artifact.cycles);
    println!("stall words       : {}", artifact.stalls());
    println!(
        "underutilization  : {:.2}%",
        artifact.underutilization() * 100.0
    );
    Ok(())
}

/// `chason verify <matrix.mtx>` — schedule every column window and run the
/// `chason-verify` static checker over each, printing a `rustc`-style
/// report of **all** rule violations (S001–S006, P001, R001).
///
/// `--corrupt KIND` applies one targeted corruption from the mutation
/// library to window 0 before checking — a self-demonstration that the
/// analyzer catches that class of bug. Exits non-zero when any
/// error-severity diagnostic is found.
pub fn verify(args: &Args) -> Result<(), String> {
    let matrix = load_matrix(args)?;
    let config = scheduler_config(args)?;
    let name = args.get("scheduler").unwrap_or("crhcs").to_string();
    let scheduler: Box<dyn Scheduler> = match name.as_str() {
        "crhcs" => Box::new(Crhcs::new()),
        "pe-aware" => Box::new(PeAware::new()),
        "row-based" => Box::new(RowBased::new()),
        other => return Err(format!("unknown scheduler '{other}'")),
    };
    let corruption = match args.get("corrupt") {
        None => None,
        Some(kind) => Some(Corruption::from_name(kind).ok_or_else(|| {
            let known: Vec<&str> = Corruption::ALL.iter().map(|c| c.name()).collect();
            format!("unknown corruption '{kind}' (one of: {})", known.join(", "))
        })?),
    };
    let windows = chason_core::window::partition_paper_windows(&matrix);
    let mut combined = chason_verify::Report::new();
    for w in &windows {
        let mut schedule = scheduler.schedule(&w.matrix, &config);
        if w.index == 0 {
            if let Some(c) = corruption {
                if !c.apply(&mut schedule) {
                    return Err(format!(
                        "corruption '{}' found no site in window 0",
                        c.name()
                    ));
                }
                println!(
                    "applied corruption '{}' to window 0 (targets rule {})\n",
                    c.name(),
                    c.expected_rule()
                );
            }
        }
        combined.merge_window(
            chason_verify::verify_schedule(&schedule, Some(&w.matrix)),
            w.index,
        );
    }
    combined.sort();
    println!(
        "verified {} window(s) of {} under {} ({} channels x {} PEs)\n",
        windows.len(),
        args.positional.first().map_or("<matrix>", String::as_str),
        name,
        config.channels,
        config.pes_per_channel
    );
    println!("{combined}");
    if combined.has_errors() {
        Err(combined.summary())
    } else {
        Ok(())
    }
}

/// Writes `matrix` as a MatrixMarket artifact under `dir`.
fn write_artifact(dir: &std::path::Path, name: &str, matrix: &CooMatrix) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let path = dir.join(name);
    let file = File::create(&path).map_err(|err| format!("cannot write {path:?}: {err}"))?;
    write_matrix_market(BufWriter::new(file), matrix)
        .map_err(|err| format!("cannot write {path:?}: {err}"))?;
    println!("artifact: {path:?}");
    Ok(())
}

/// `chason conformance` — the differential cross-engine harness, the
/// deterministic schedule fuzzer, and the delta-splice oracles.
pub fn conformance(args: &Args) -> Result<(), String> {
    use chason_conformance::{fuzz, CorpusSize, DeltaOptions, HarnessOptions};

    let corpus_name = args.get("corpus").unwrap_or("small");
    let size = CorpusSize::from_name(corpus_name)
        .ok_or_else(|| format!("unknown corpus '{corpus_name}' (small or extended)"))?;
    let mut cases = chason_conformance::corpus(size);
    if let Some(dir) = args.get("fixtures") {
        let extra = chason_conformance::load_fixtures(std::path::Path::new(dir))
            .map_err(|e| format!("cannot load fixtures from {dir}: {e}"))?;
        println!("loaded {} fixture(s) from {dir}", extra.len());
        cases.extend(extra);
    }
    let artifacts = args.get("artifacts").map(std::path::Path::new);

    let options = HarnessOptions::default();
    let report = chason_conformance::run_cases(&cases, &options);
    for v in &report.violations {
        println!("VIOLATION {v}");
    }
    println!("{}", report.summary());

    let iterations = args.get_or("fuzz", 40u64)?;
    let seed = args.get_or("seed", 1u64)?;
    let outcome = fuzz(seed, iterations);
    println!(
        "\nfuzz: {} iteration(s), seed {seed}, {} skipped (no site)\n",
        outcome.iterations, outcome.skipped
    );
    println!("{}", outcome.detection_table());
    if !outcome.escapes.is_empty() {
        for e in &outcome.escapes {
            println!(
                "escape: iteration {} ({} on {}, {} channels x {} PEs)",
                e.iteration,
                e.corruption.name(),
                e.matrix,
                e.config.channels,
                e.config.pes_per_channel
            );
            if let Some(dir) = artifacts {
                let name = format!("escape-{}-{}.mtx", e.iteration, e.corruption.name());
                write_artifact(dir, &name, &e.source)?;
            }
        }
        return Err(format!(
            "{} fuzz escape(s): corruptions evaded both the static checker and every dynamic oracle",
            outcome.escapes.len()
        ));
    }
    if iterations >= 10 && !outcome.covered_all_corruptions() {
        return Err("fuzz run did not apply every corruption at least once".to_string());
    }

    // Delta-splice oracles: every spliced plan must be bit-identical to a
    // from-scratch plan of the updated matrix and replay to the reference.
    // `--deltas N` rounds per case, each under its own drawn geometry.
    let delta_options = DeltaOptions {
        deltas_per_case: args.get_or("deltas", DeltaOptions::default().deltas_per_case)?,
        seed,
        ..DeltaOptions::default()
    };
    let delta_report = chason_conformance::run_delta_cases(&cases, &delta_options);
    for v in &delta_report.violations {
        println!("VIOLATION {v}");
    }
    println!("\n{}", delta_report.summary());
    if !delta_report.is_clean() {
        if let Some(dir) = artifacts {
            for case in &cases {
                if delta_report.violations.iter().any(|v| v.case == case.name) {
                    let name = format!("delta-{}.mtx", case.name.replace('/', "-"));
                    write_artifact(dir, &name, &case.matrix)?;
                }
            }
        }
        return Err(delta_report.summary());
    }
    if !report.is_clean() {
        return Err(report.summary());
    }
    Ok(())
}

/// `chason profile <matrix.mtx>` — cycle-attribution profiler: per-unit
/// cycle table and stream-slot classification, Chasoň and Serpens side by
/// side.
///
/// `--trace FILE` writes both engines' deterministic window spans as
/// JSONL. `--assert-reclaim` exits non-zero unless Chasoň's residual
/// stall slots are at most Serpens's (the CrHCS reclaim guarantee CI
/// checks on migration-friendly matrices).
pub fn profile(args: &Args) -> Result<(), String> {
    use chason_sim::profile::{profile_planned, window_spans};
    use chason_telemetry::trace::to_jsonl;

    let matrix = load_matrix(args)?;
    let sched = scheduler_config(args)?;
    let x = vec![1.0f32; matrix.cols()];

    let chason_engine = accelerator("chason", sched)?;
    let serpens_engine = accelerator("serpens", sched)?;
    let chason_plan = chason_engine.plan(&matrix).map_err(|e| e.to_string())?;
    let serpens_plan = serpens_engine.plan(&matrix).map_err(|e| e.to_string())?;
    let chason = profile_planned(&chason_engine, &chason_plan, &x).map_err(|e| e.to_string())?;
    let serpens = profile_planned(&serpens_engine, &serpens_plan, &x).map_err(|e| e.to_string())?;
    let (c, s) = (&chason.attribution, &serpens.attribution);

    println!(
        "matrix: {} x {}, {} nnz, {} column window(s)\n",
        matrix.rows(),
        matrix.cols(),
        matrix.nnz(),
        c.windows
    );
    println!("{:<22} {:>14} {:>14}", "unit", "serpens", "chason");
    for ((unit, chason_cycles), (_, serpens_cycles)) in c.unit_rows().iter().zip(s.unit_rows()) {
        println!("{unit:<22} {serpens_cycles:>14} {chason_cycles:>14}");
    }
    println!(
        "{:<22} {:>14} {:>14}",
        "total cycles", s.total_cycles, c.total_cycles
    );
    println!();
    println!("{:<22} {:>14} {:>14}", "stream slots", "serpens", "chason");
    println!(
        "{:<22} {:>14} {:>14}",
        "URAM_pvt fill", s.pvt_slots, c.pvt_slots
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "ScUG (migrated) fill", s.migrated_slots, c.migrated_slots
    );
    println!(
        "{:<22} {:>14} {:>14}",
        "stall", s.stall_slots, c.stall_slots
    );
    println!(
        "{:<22} {:>13.1}% {:>13.1}%",
        "PE occupancy",
        s.occupancy() * 100.0,
        c.occupancy() * 100.0
    );
    let reclaimed = s.stall_slots.saturating_sub(c.stall_slots);
    println!(
        "\nCrHCS reclaimed {reclaimed} of {} Serpens stall slots ({:.1}%)",
        s.stall_slots,
        if s.stall_slots == 0 {
            0.0
        } else {
            reclaimed as f64 / s.stall_slots as f64 * 100.0
        }
    );

    if let Some(path) = args.get("trace") {
        let mut jsonl = to_jsonl(&window_spans(&serpens_plan, serpens_engine.config()));
        jsonl.push_str(&to_jsonl(&window_spans(
            &chason_plan,
            chason_engine.config(),
        )));
        std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if args.has_flag("assert-reclaim") && c.stall_slots > s.stall_slots {
        return Err(format!(
            "reclaim assertion failed: chason has {} stall slots, serpens {}",
            c.stall_slots, s.stall_slots
        ));
    }
    Ok(())
}

/// `chason catalog` — the Table 2 evaluation matrices.
pub fn catalog() -> Result<(), String> {
    println!(
        "{:<4} {:<26} {:<12} {:>9} {:>9}",
        "ID", "name", "collection", "NNZ", "dens%"
    );
    for spec in chason_sparse::datasets::table2() {
        println!(
            "{:<4} {:<26} {:<12} {:>9} {:>9.4}",
            spec.id, spec.name, spec.collection, spec.nnz, spec.density_pct
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    fn write_temp_matrix() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("chason-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m{}.mtx", std::process::id()));
        let m = uniform_random(64, 64, 200, 3);
        let file = File::create(&path).unwrap();
        write_matrix_market(BufWriter::new(file), &m).unwrap();
        path
    }

    #[test]
    fn schedule_and_run_round_trip_a_real_file() {
        let path = write_temp_matrix();
        let line = format!("schedule {} --scheduler crhcs", path.display());
        schedule(&args(&line)).unwrap();
        let line = format!("run {} --engine serpens", path.display());
        run(&args(&line)).unwrap();
        let line = format!("compare {}", path.display());
        compare(&args(&line)).unwrap();
    }

    #[test]
    fn profile_runs_writes_a_trace_and_asserts_reclaim_on_skewed_input() {
        let dir = std::env::temp_dir().join("chason-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("profile{}.mtx", std::process::id()));
        // Skewed power-law input: the regime where CrHCS reclaims stalls.
        let m = power_law(256, 256, 2200, 2.2, 11);
        let file = File::create(&path).unwrap();
        write_matrix_market(BufWriter::new(file), &m).unwrap();
        let trace = dir.join(format!("profile{}.jsonl", std::process::id()));
        profile(&args(&format!(
            "profile {} --channels 4 --pes 4 --distance 6 --trace {} --assert-reclaim",
            path.display(),
            trace.display()
        )))
        .unwrap();
        // The trace is valid span JSONL covering both engines.
        let text = std::fs::read_to_string(&trace).unwrap();
        let spans = chason_telemetry::trace::parse_jsonl(&text).unwrap();
        assert!(!spans.is_empty());
        for engine in ["chason", "serpens"] {
            assert!(
                text.contains(&format!("\"engine\":\"{engine}\"")),
                "trace must carry {engine} spans"
            );
        }
    }

    #[test]
    fn generate_writes_a_readable_file() {
        let dir = std::env::temp_dir().join("chason-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("gen{}.mtx", std::process::id()));
        let line = format!(
            "generate arrow {} --n 500 --nnz 4000 --dense-rows 3 --seed 9",
            out.display()
        );
        generate(&args(&line)).unwrap();
        let m = read_matrix_market(File::open(&out).unwrap()).unwrap();
        assert_eq!(m.nnz(), 4000);
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(schedule(&args("schedule /nonexistent.mtx")).is_err());
        assert!(generate(&args("generate bogus /tmp/x.mtx --n 10 --nnz 5")).is_err());
        assert!(generate(&args("generate uniform /tmp/x.mtx")).is_err());
        let path = write_temp_matrix();
        assert!(run(&args(&format!("run {} --engine gpu", path.display()))).is_err());
        assert!(schedule(&args(&format!(
            "schedule {} --scheduler foo",
            path.display()
        )))
        .is_err());
        assert!(schedule(&args(&format!("schedule {} --pes 9", path.display()))).is_err());
    }

    #[test]
    fn catalog_prints() {
        catalog().unwrap();
    }

    #[test]
    fn verify_passes_on_honest_schedules() {
        let path = write_temp_matrix();
        verify(&args(&format!("verify {}", path.display()))).unwrap();
        verify(&args(&format!(
            "verify {} --scheduler pe-aware --channels 4 --pes 4",
            path.display()
        )))
        .unwrap();
    }

    #[test]
    fn verify_reports_injected_corruptions() {
        let path = write_temp_matrix();
        let err = verify(&args(&format!("verify {} --corrupt drop", path.display()))).unwrap_err();
        assert!(err.contains("S002"), "{err}");
        let err = verify(&args(&format!(
            "verify {} --corrupt tag-flip --scheduler pe-aware",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("S005"), "{err}");
    }

    #[test]
    fn verify_rejects_bad_flags() {
        let path = write_temp_matrix();
        let err = verify(&args(&format!("verify {} --corrupt bogus", path.display()))).unwrap_err();
        assert!(err.contains("unknown corruption"), "{err}");
        assert!(err.contains("zero-value"), "{err}");
        assert!(verify(&args(&format!("verify {} --scheduler foo", path.display()))).is_err());
    }

    #[test]
    fn conformance_subcommand_is_clean_on_the_small_corpus() {
        conformance(&args("conformance --corpus small --fuzz 40 --seed 3")).unwrap();
    }

    #[test]
    fn conformance_rejects_unknown_corpus_names() {
        let err = conformance(&args("conformance --corpus bogus")).unwrap_err();
        assert!(err.contains("unknown corpus"), "{err}");
    }

    #[test]
    fn export_and_inspect_round_trip() {
        let path = write_temp_matrix();
        let dir = std::env::temp_dir().join("chason-cli-tests");
        let out = dir.join(format!("sched{}.chsn", std::process::id()));
        export(&args(&format!(
            "export {} {}",
            path.display(),
            out.display()
        )))
        .unwrap();
        inspect(&args(&format!("inspect {}", out.display()))).unwrap();
        assert!(inspect(&args(&format!("inspect {}", path.display()))).is_err());
    }

    #[test]
    fn solve_subcommand_runs_both_solvers() {
        // A diagonally dominant square system round-trips through the CLI.
        let dir = std::env::temp_dir().join("chason-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("solve{}.mtx", std::process::id()));
        let base = chason_sparse::generators::banded_with_nnz(96, 2, 300, 4);
        let mut t: Vec<(usize, usize, f32)> =
            base.iter().filter(|&&(r, c, _)| r != c).copied().collect();
        let mut row_sum = vec![0.0f32; 96];
        for &(r, _, v) in &t {
            row_sum[r] += v.abs();
        }
        for (i, s) in row_sum.iter().enumerate() {
            t.push((i, i, s + 1.0));
        }
        let m = CooMatrix::from_triplets(96, 96, t).unwrap();
        let file = File::create(&path).unwrap();
        write_matrix_market(BufWriter::new(file), &m).unwrap();
        solve(&args(&format!(
            "solve {} --solver jacobi --engine chason",
            path.display()
        )))
        .unwrap();
        solve(&args(&format!(
            "solve {} --solver cg --engine cpu",
            path.display()
        )))
        .unwrap();
        assert!(solve(&args(&format!("solve {} --solver qr", path.display()))).is_err());
    }
}
