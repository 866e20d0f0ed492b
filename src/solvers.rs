//! Iterative solvers over a pluggable SpMV backend.
//!
//! SpMV is rarely the end product: the paper's motivating applications
//! (§1 — scientific computing, optimization, graph problems) wrap it in an
//! iterative loop. This module provides that loop layer: a [`SpmvBackend`]
//! abstraction implemented by the CPU reference and by both simulated
//! accelerators, and three classic solvers built on it. Backends report
//! simulated time, so a whole solve can be costed on accelerator terms.
//!
//! # Example
//!
//! ```
//! use chason::solvers::{conjugate_gradient, CgOptions, CpuBackend};
//! use chason::sparse::CooMatrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny SPD system: A = [[4,1],[1,3]], b = [1, 2].
//! let a = CooMatrix::from_triplets(2, 2, vec![(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])?;
//! let mut backend = CpuBackend::default();
//! let result = conjugate_gradient(&mut backend, &a, &[1.0, 2.0], CgOptions::default())?;
//! assert!(result.converged);
//! assert!((result.solution[0] - 0.0909).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

use chason_core::plan::SpmvPlan;
use chason_sim::{Accelerator, SimError};
use chason_sparse::CooMatrix;
use chason_telemetry::trace::SpanEvent;

/// Timestamp for the next solver-iteration span (0 when telemetry is
/// compiled out, so disabled builds never touch the clock).
fn iteration_start() -> u64 {
    if chason_telemetry::enabled() {
        chason_telemetry::global().clock().now()
    } else {
        0
    }
}

/// Emits one `solver.iteration` span (DESIGN.md §10) into the
/// process-global flight recorder and bumps `solver_iterations_total`.
fn record_iteration(solver: &'static str, iteration: usize, residual: f64, start: u64) {
    if !chason_telemetry::enabled() {
        return;
    }
    let telemetry = chason_telemetry::global();
    telemetry
        .registry()
        .counter("solver_iterations_total")
        .add(1);
    telemetry.recorder().record(
        SpanEvent::new("solver.iteration", start, telemetry.clock().now())
            .attr("solver", solver)
            .attr("iteration", iteration)
            .attr("residual", residual),
    );
}

/// Anything that can compute `y = A·x` and account for the time it took.
///
/// The matrix is passed per call so one backend instance can serve many
/// systems; engine backends keep the schedule plan of the last system, so
/// preprocessing is paid once per solve no matter how many iterations
/// consume it — the hardware analogue is streaming the same preprocessed
/// data lists from HBM every iteration.
pub trait SpmvBackend {
    /// Computes `y = A·x`.
    ///
    /// # Errors
    ///
    /// Backend-specific failures (dimension mismatches, capacity limits).
    fn spmv(&mut self, matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError>;

    /// Simulated (or measured) time accumulated across all `spmv` calls,
    /// in seconds.
    fn elapsed_seconds(&self) -> f64;

    /// Backend name for reports.
    fn name(&self) -> &'static str;
}

/// CPU reference backend (serial CSR); wall-clock timed.
#[derive(Debug, Default)]
pub struct CpuBackend {
    elapsed: f64,
}

impl SpmvBackend for CpuBackend {
    fn spmv(&mut self, matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        let start = std::time::Instant::now();
        // Row-sorted COO accumulates each row in CSR order from 0.0, so
        // this is bit-identical to a CSR product without building one.
        let y = matrix.spmv(x);
        self.elapsed += start.elapsed().as_secs_f64();
        Ok(y)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    fn name(&self) -> &'static str {
        "cpu-reference"
    }
}

/// Simulated-accelerator backend; accumulates the engine's modeled latency.
///
/// The backend keeps the [`SpmvPlan`] of the last matrix it multiplied and
/// replays it while each call's matrix has that plan's
/// [`PlanKey`](chason_core::plan::PlanKey), so an iterative solve pays one
/// scheduling pass regardless of iteration count; a call with another
/// matrix schedules that one and drops the old plan.
/// [`schedules_built`](Self::schedules_built) exposes the pass counter.
#[derive(Debug)]
pub struct EngineBackend {
    engine: Accelerator,
    elapsed: f64,
    plan: Option<SpmvPlan>,
    schedules_built: u64,
}

impl EngineBackend {
    /// Wraps an accelerator; the backend is named by its design.
    pub fn new(engine: Accelerator) -> Self {
        EngineBackend {
            engine,
            elapsed: 0.0,
            plan: None,
            schedules_built: 0,
        }
    }

    /// Former name of [`new`](Self::new), kept only because the
    /// `e2e-bench` benchmark still builds with it.
    #[deprecated(note = "use `EngineBackend::new`")]
    pub fn chason(engine: Accelerator) -> Self {
        EngineBackend::new(engine)
    }

    /// How many scheduling passes the backend has run: one each time it is
    /// asked to multiply with a matrix other than the last one.
    pub fn schedules_built(&self) -> u64 {
        self.schedules_built
    }
}

impl SpmvBackend for EngineBackend {
    fn spmv(&mut self, matrix: &CooMatrix, x: &[f32]) -> Result<Vec<f32>, SimError> {
        let key = self.engine.plan_key(matrix);
        let plan = match &mut self.plan {
            Some(plan) if plan.key == key => plan,
            slot => {
                let plan = self.engine.plan(matrix)?;
                self.schedules_built += 1;
                slot.insert(plan)
            }
        };
        let exec = self.engine.run_planned(plan, x)?;
        self.elapsed += exec.latency_seconds();
        Ok(exec.y)
    }

    fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    fn name(&self) -> &'static str {
        self.engine.config().design.name()
    }
}

/// Options for [`conjugate_gradient`].
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Maximum iterations before giving up.
    pub max_iterations: usize,
    /// Relative residual (‖r‖/‖b‖) considered converged.
    pub tolerance: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iterations: 500,
            tolerance: 1e-6,
        }
    }
}

/// Result of an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The final iterate.
    pub solution: Vec<f32>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Simulated/measured SpMV time accumulated by the backend, in seconds.
    pub spmv_seconds: f64,
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn norm(v: &[f32]) -> f64 {
    dot(v, v).sqrt()
}

/// Conjugate gradient for symmetric positive-definite `A`, with every
/// `A·p` product routed through `backend`.
///
/// # Errors
///
/// Propagates backend failures. The caller is responsible for `A` being
/// square and SPD; `b.len()` must equal the system size.
///
/// # Panics
///
/// Panics if `matrix` is not square or `b` has the wrong length.
pub fn conjugate_gradient(
    backend: &mut (impl SpmvBackend + ?Sized),
    matrix: &CooMatrix,
    b: &[f32],
    options: CgOptions,
) -> Result<SolveResult, SimError> {
    assert_eq!(matrix.rows(), matrix.cols(), "CG requires a square system");
    assert_eq!(b.len(), matrix.rows(), "right-hand side length mismatch");
    let n = b.len();
    let b_norm = norm(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rs_old = dot(&r, &r);
    let mut iterations = 0usize;
    let mut residual = rs_old.sqrt() / b_norm;
    while iterations < options.max_iterations && residual > options.tolerance {
        let span_start = iteration_start();
        let ap = backend.spmv(matrix, &p)?;
        let denom = dot(&p, &ap);
        if denom.abs() < f64::MIN_POSITIVE {
            break; // breakdown (A not SPD or p exhausted)
        }
        let alpha = rs_old / denom;
        for i in 0..n {
            x[i] += (alpha * p[i] as f64) as f32;
            r[i] -= (alpha * ap[i] as f64) as f32;
        }
        let rs_new = dot(&r, &r);
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + (beta * p[i] as f64) as f32;
        }
        rs_old = rs_new;
        residual = rs_new.sqrt() / b_norm;
        iterations += 1;
        record_iteration("cg", iterations, residual, span_start);
    }
    Ok(SolveResult {
        solution: x,
        iterations,
        residual,
        converged: residual <= options.tolerance,
        spmv_seconds: backend.elapsed_seconds(),
    })
}

/// Jacobi iteration for diagonally dominant `A`, with `A·x` routed through
/// `backend`.
///
/// # Errors
///
/// Propagates backend failures.
///
/// # Panics
///
/// Panics if `matrix` is not square, `b` has the wrong length, or any
/// diagonal entry is missing/zero.
pub fn jacobi(
    backend: &mut (impl SpmvBackend + ?Sized),
    matrix: &CooMatrix,
    b: &[f32],
    options: CgOptions,
) -> Result<SolveResult, SimError> {
    assert_eq!(
        matrix.rows(),
        matrix.cols(),
        "Jacobi requires a square system"
    );
    assert_eq!(b.len(), matrix.rows(), "right-hand side length mismatch");
    let n = b.len();
    let mut diag = vec![0.0f32; n];
    for &(r, c, v) in matrix.iter() {
        if r == c {
            diag[r] = v;
        }
    }
    assert!(
        diag.iter().all(|&d| d != 0.0),
        "Jacobi requires a non-zero diagonal"
    );
    let b_norm = norm(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0f32; n];
    let mut iterations = 0usize;
    let mut residual = 1.0f64;
    while iterations < options.max_iterations && residual > options.tolerance {
        let span_start = iteration_start();
        let ax = backend.spmv(matrix, &x)?;
        let mut rr = 0.0f64;
        for i in 0..n {
            let r = b[i] - ax[i];
            rr += r as f64 * r as f64;
            x[i] += r / diag[i];
        }
        residual = rr.sqrt() / b_norm;
        iterations += 1;
        record_iteration("jacobi", iterations, residual, span_start);
    }
    Ok(SolveResult {
        solution: x,
        iterations,
        residual,
        converged: residual <= options.tolerance,
        spmv_seconds: backend.elapsed_seconds(),
    })
}

/// Power iteration: the dominant eigenvalue/eigenvector of `A`, with `A·v`
/// routed through `backend`. Returns `(eigenvalue, SolveResult)` where the
/// result's `solution` is the unit eigenvector and `residual` is the
/// iterate delta at termination.
///
/// # Errors
///
/// Propagates backend failures.
///
/// # Panics
///
/// Panics if `matrix` is not square or has zero size.
pub fn power_iteration(
    backend: &mut (impl SpmvBackend + ?Sized),
    matrix: &CooMatrix,
    options: CgOptions,
) -> Result<(f64, SolveResult), SimError> {
    assert_eq!(
        matrix.rows(),
        matrix.cols(),
        "power iteration requires a square matrix"
    );
    assert!(matrix.rows() > 0, "empty matrix");
    let n = matrix.rows();
    let mut v = vec![1.0f32 / (n as f32).sqrt(); n];
    let mut eigenvalue = 0.0f64;
    let mut iterations = 0usize;
    let mut delta = 1.0f64;
    while iterations < options.max_iterations && delta > options.tolerance {
        let span_start = iteration_start();
        let av = backend.spmv(matrix, &v)?;
        let norm_av = norm(&av);
        if norm_av < f64::MIN_POSITIVE {
            break; // v is in the null space
        }
        let next: Vec<f32> = av.iter().map(|&y| (y as f64 / norm_av) as f32).collect();
        eigenvalue = dot(&next, &backend.spmv(matrix, &next)?);
        delta = v
            .iter()
            .zip(&next)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .fold(0.0, f64::max);
        v = next;
        iterations += 1;
        record_iteration("power", iterations, delta, span_start);
    }
    Ok((
        eigenvalue,
        SolveResult {
            solution: v,
            iterations,
            residual: delta,
            converged: delta <= options.tolerance,
            spmv_seconds: backend.elapsed_seconds(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sim::AcceleratorConfig;
    use chason_testutil::spd_system;

    fn check_solution(a: &CooMatrix, x: &[f32], b: &[f32], tol: f64) {
        let ax = a.spmv(x);
        let rel = ax
            .iter()
            .zip(b)
            .map(|(&p, &q)| (p as f64 - q as f64).abs())
            .fold(0.0, f64::max)
            / norm(b).max(1.0);
        assert!(rel < tol, "solution residual {rel}");
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn solver_iterations_land_in_the_global_recorder() {
        let before = chason_telemetry::global()
            .registry()
            .counter("solver_iterations_total")
            .get();
        let (a, b) = spd_system(64, 9);
        let mut backend = CpuBackend::default();
        let r = conjugate_gradient(&mut backend, &a, &b, CgOptions::default()).unwrap();
        assert!(r.iterations > 0);
        let telemetry = chason_telemetry::global();
        let after = telemetry
            .registry()
            .counter("solver_iterations_total")
            .get();
        assert!(
            after >= before + r.iterations as u64,
            "counter moved {before} -> {after} for {} iterations",
            r.iterations
        );
        // The recorder is process-global and shared with parallel tests;
        // only assert our spans are present and well-formed.
        let spans = telemetry.recorder().snapshot();
        assert!(spans
            .iter()
            .any(|s| s.name == "solver.iteration" && s.end >= s.start));
    }

    #[test]
    fn cg_solves_on_cpu_backend() {
        let (a, b) = spd_system(200, 3);
        let mut backend = CpuBackend::default();
        let r = conjugate_gradient(&mut backend, &a, &b, CgOptions::default()).unwrap();
        assert!(r.converged, "residual {}", r.residual);
        check_solution(&a, &r.solution, &b, 1e-3);
        assert!(r.spmv_seconds > 0.0);
        assert_eq!(backend.name(), "cpu-reference");
    }

    #[test]
    fn cg_on_chason_matches_cpu() {
        let (a, b) = spd_system(256, 5);
        let mut cpu = CpuBackend::default();
        let mut acc = EngineBackend::new(Accelerator::new(AcceleratorConfig::chason()));
        let r_cpu = conjugate_gradient(&mut cpu, &a, &b, CgOptions::default()).unwrap();
        let r_acc = conjugate_gradient(&mut acc, &a, &b, CgOptions::default()).unwrap();
        assert!(r_acc.converged);
        // Same math, FP reassociation tolerance.
        for (x, y) in r_cpu.solution.iter().zip(&r_acc.solution) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
        assert!(
            r_acc.spmv_seconds > 0.0,
            "engine must report simulated time"
        );
    }

    #[test]
    fn jacobi_converges_and_serpens_costs_more_time() {
        let (a, b) = spd_system(256, 9);
        let mut chason = EngineBackend::new(Accelerator::new(AcceleratorConfig::chason()));
        let mut serpens = EngineBackend::new(Accelerator::new(AcceleratorConfig::serpens()));
        let rc = jacobi(&mut chason, &a, &b, CgOptions::default()).unwrap();
        let rs = jacobi(&mut serpens, &a, &b, CgOptions::default()).unwrap();
        assert!(rc.converged && rs.converged);
        assert_eq!(rc.iterations, rs.iterations, "same math, same trajectory");
        assert!(
            rc.spmv_seconds < rs.spmv_seconds,
            "chason {} vs serpens {}",
            rc.spmv_seconds,
            rs.spmv_seconds
        );
    }

    #[test]
    fn power_iteration_finds_the_dominant_eigenvalue() {
        // Diagonal matrix: dominant eigenvalue is the largest entry.
        let t = vec![(0, 0, 3.0), (1, 1, 7.0), (2, 2, 1.0)];
        let a = CooMatrix::from_triplets(3, 3, t).unwrap();
        let mut backend = CpuBackend::default();
        let opts = CgOptions {
            max_iterations: 200,
            tolerance: 1e-9,
        };
        let (lambda, r) = power_iteration(&mut backend, &a, opts).unwrap();
        assert!((lambda - 7.0).abs() < 1e-3, "lambda {lambda}");
        assert!(r.solution[1].abs() > 0.99);
    }

    #[test]
    fn solver_backends_schedule_each_matrix_exactly_once() {
        let (a, b) = spd_system(256, 13);
        let mut acc = EngineBackend::new(Accelerator::new(AcceleratorConfig::chason()));
        let opts = CgOptions {
            max_iterations: 50,
            tolerance: 0.0,
        }; // run until the residual is *exactly* zero or 50 iterations pass
        let r = conjugate_gradient(&mut acc, &a, &b, opts).unwrap();
        assert!(r.iterations > 10, "CG took {} iterations", r.iterations);
        assert_eq!(
            acc.schedules_built(),
            1,
            "every CG iteration must share one scheduling pass"
        );

        // 50 further SpMVs on the same matrix — still a single pass.
        for _ in 0..50 {
            acc.spmv(&a, &b).unwrap();
        }
        assert_eq!(acc.schedules_built(), 1);

        // A second, distinct system costs exactly one more pass, however
        // many iterations consume it; the backend keeps only the last
        // system's plan, so switching back schedules the first again.
        let (a2, b2) = spd_system(200, 14);
        let r2 = conjugate_gradient(&mut acc, &a2, &b2, CgOptions::default()).unwrap();
        assert!(r2.iterations > 1, "CG took {} iterations", r2.iterations);
        assert_eq!(acc.schedules_built(), 2);
        conjugate_gradient(&mut acc, &a, &b, CgOptions::default()).unwrap();
        assert_eq!(acc.schedules_built(), 3);
    }

    #[test]
    fn plan_cache_does_not_change_solver_results() {
        let (a, b) = spd_system(256, 21);
        let mut cached = EngineBackend::new(Accelerator::new(AcceleratorConfig::chason()));
        let r_cached = conjugate_gradient(&mut cached, &a, &b, CgOptions::default()).unwrap();
        // Fresh backend per iteration count comparison: direct engine runs.
        let engine = Accelerator::new(AcceleratorConfig::chason());
        let direct = engine.run_partitioned(&a, &r_cached.solution).unwrap();
        let replayed = engine
            .run_planned(&engine.plan(&a).unwrap(), &r_cached.solution)
            .unwrap();
        assert_eq!(direct, replayed);
        assert!(r_cached.converged);
    }

    #[test]
    #[should_panic(expected = "square system")]
    fn cg_rejects_rectangular_systems() {
        let a = CooMatrix::new(3, 4);
        let _ = conjugate_gradient(
            &mut CpuBackend::default(),
            &a,
            &[0.0; 3],
            CgOptions::default(),
        );
    }
}
