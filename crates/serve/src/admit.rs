//! CHSP request admission, shared by `chason serve` and `chason route`.
//!
//! Every rule a request must pass before a daemon acts on it lives here
//! once, so a router rejects exactly what a single server rejects, with
//! the same code and message. A rule returns the rejection reply as its
//! error, boxed so the `Result` stays small.
//!
//! Reply precedence is part of the contract: a daemon checks `Update`
//! values with [`update_values`] *before* it looks the handle up, so a
//! request with both faults gets `BadRequest`, not `UnknownHandle`.

use crate::proto::{ErrorCode, Reply, SolverKind};
use chason_sparse::{CooMatrix, MatrixDelta, SparseError};

/// What a daemon's executor answers: the reply, or the rejection sent
/// instead.
pub type Outcome = Result<Reply, Box<Reply>>;

/// Largest accepted matrix dimension.
const MAX_DIM: u64 = 1 << 32;

/// A `BadRequest` rejection.
pub fn bad_request(message: impl Into<String>) -> Box<Reply> {
    Box::new(Reply::Error {
        code: ErrorCode::BadRequest,
        message: message.into(),
    })
}

/// The rejection for a handle the daemon holds no matrix for.
pub fn unknown_handle(handle: u64) -> Box<Reply> {
    Box::new(Reply::Error {
        code: ErrorCode::UnknownHandle,
        message: format!("no resident matrix with handle {handle:#018x}; send LoadMatrix first"),
    })
}

fn sparse_error(err: SparseError) -> Box<Reply> {
    bad_request(err.to_string())
}

/// §3.2 reserves the all-zero word for stalls, so an explicit zero (or a
/// non-finite) value is unschedulable. Deleting is the way to write a
/// zero.
fn check_values<'a>(
    triplets: impl IntoIterator<Item = &'a (u64, u64, f32)>,
) -> Result<(), Box<Reply>> {
    for &(r, c, v) in triplets {
        if !v.is_finite() || v == 0.0 {
            return Err(bad_request(format!(
                "unschedulable value {v} at ({r}, {c}): values must be finite and non-zero"
            )));
        }
    }
    Ok(())
}

/// Admission for a `LoadMatrix`: dimensions in range, every value schedulable,
/// every coordinate in bounds and unique. Rejects with `BadRequest`
/// naming the first violated rule.
pub fn load_matrix(
    rows: u64,
    cols: u64,
    triplets: &[(u64, u64, f32)],
) -> Result<CooMatrix, Box<Reply>> {
    if rows == 0 || cols == 0 || rows > MAX_DIM || cols > MAX_DIM {
        return Err(bad_request(format!(
            "matrix dimensions {rows}x{cols} out of range"
        )));
    }
    check_values(triplets)?;
    let converted = triplets
        .iter()
        .map(|&(r, c, v)| (r as usize, c as usize, v))
        .collect();
    CooMatrix::from_triplets(rows as usize, cols as usize, converted).map_err(sparse_error)
}

/// Admission for an `Spmv` input vector: one entry per matrix column.
pub fn spmv(matrix: &CooMatrix, x: &[f32]) -> Result<(), Box<Reply>> {
    if x.len() != matrix.cols() {
        return Err(bad_request(format!(
            "x has {} entries, matrix has {} columns",
            x.len(),
            matrix.cols()
        )));
    }
    Ok(())
}

/// Admission for a `Solve`: a square system, one `b` entry per row, a finite
/// non-negative tolerance, and for Jacobi a non-zero diagonal in every
/// row. The solvers assert on these, so checking ahead keeps a bad
/// request from panicking a worker.
pub fn solve(
    matrix: &CooMatrix,
    solver: SolverKind,
    tolerance: f64,
    b: &[f32],
) -> Result<(), Box<Reply>> {
    if matrix.rows() != matrix.cols() {
        return Err(bad_request(format!(
            "solver requires a square system, matrix is {}x{}",
            matrix.rows(),
            matrix.cols()
        )));
    }
    if b.len() != matrix.rows() {
        return Err(bad_request(format!(
            "b has {} entries, system has {} rows",
            b.len(),
            matrix.rows()
        )));
    }
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(bad_request(format!(
            "tolerance {tolerance} must be finite and non-negative"
        )));
    }
    if solver == SolverKind::Jacobi {
        let mut diag = vec![false; matrix.rows()];
        for &(r, c, v) in matrix.iter() {
            if r == c && v != 0.0 {
                diag[r] = true;
            }
        }
        if let Some(row) = diag.iter().position(|&set| !set) {
            return Err(bad_request(format!(
                "Jacobi requires a non-zero diagonal; row {row} has none"
            )));
        }
    }
    Ok(())
}

/// The value rule of an `Update`'s inserts and revalues, checked before
/// the handle lookup.
pub fn update_values(
    inserts: &[(u64, u64, f32)],
    revalues: &[(u64, u64, f32)],
) -> Result<(), Box<Reply>> {
    check_values(inserts.iter().chain(revalues))
}

/// Builds the delta of an `Update` against the resident matrix and
/// applies it, so every op is validated before any of it takes effect:
/// coordinates in bounds and touched once, inserts at vacant coordinates,
/// revalues and deletes at occupied ones. Returns the delta and the
/// updated matrix.
pub fn update(
    matrix: &CooMatrix,
    inserts: &[(u64, u64, f32)],
    revalues: &[(u64, u64, f32)],
    deletes: &[(u64, u64)],
) -> Result<(MatrixDelta, CooMatrix), Box<Reply>> {
    let mut delta = MatrixDelta::for_matrix(matrix);
    for &(r, c, v) in inserts {
        delta
            .push_insert(r as usize, c as usize, v)
            .map_err(sparse_error)?;
    }
    for &(r, c, v) in revalues {
        delta
            .push_revalue(r as usize, c as usize, v)
            .map_err(sparse_error)?;
    }
    for &(r, c) in deletes {
        delta
            .push_delete(r as usize, c as usize)
            .map_err(sparse_error)?;
    }
    let updated = delta.apply(matrix).map_err(sparse_error)?;
    Ok((delta, updated))
}
