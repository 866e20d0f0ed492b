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

use crate::proto::{max_vector_len, ErrorCode, Reply, SolverKind};
use chason_sparse::{CooMatrix, MatrixDelta, SparseError};

/// What a daemon's executor answers: the reply, or the rejection sent
/// instead.
pub type Outcome = Result<Reply, Box<Reply>>;

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
fn schedulable(v: f32) -> bool {
    v.is_finite() && v != 0.0
}

/// The first unschedulable value's rejection.
fn check_values(triplets: impl IntoIterator<Item = (u64, u64, f32)>) -> Result<(), Box<Reply>> {
    for (r, c, v) in triplets {
        if !schedulable(v) {
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
///
/// A dimension is in range when it is at least 1 and its `f32` vector fits
/// in one frame of the daemon's `max_frame_len` ([`max_vector_len`]): a
/// longer one could never receive its `x` or return its `y`, and checking
/// it here keeps a tiny upload from making the daemon allocate for it.
///
/// The decoded triplets become the matrix's entries: `(u64, u64, f32)` and
/// `(usize, usize, f32)` have one layout on the 64-bit targets CHSP
/// serves from, so the conversion reuses the request's buffer rather than
/// copying it. An upload already in `(row, col)` order with every value
/// schedulable, the common case, is checked in one pass
/// ([`CooMatrix::try_from_sorted`]); any other runs the value rule over
/// all of it and then [`CooMatrix::from_triplets`], so the first violated
/// rule names the rejection either way.
pub fn load_matrix(
    rows: u64,
    cols: u64,
    triplets: Vec<(u64, u64, f32)>,
    max_frame_len: usize,
) -> Result<CooMatrix, Box<Reply>> {
    let max_dim = max_vector_len(max_frame_len) as u64;
    if rows == 0 || cols == 0 || rows > max_dim || cols > max_dim {
        return Err(bad_request(format!(
            "matrix dimensions {rows}x{cols} out of range: each must be 1 to {max_dim}, \
             the longest f32 vector a {max_frame_len}-byte frame carries"
        )));
    }
    let converted = triplets
        .into_iter()
        .map(|(r, c, v)| (r as usize, c as usize, v))
        .collect();
    let (rows, cols) = (rows as usize, cols as usize);
    let converted =
        match CooMatrix::try_from_sorted(rows, cols, converted, |&(_, _, v)| schedulable(v)) {
            Ok(matrix) => return Ok(matrix),
            Err(converted) => converted,
        };
    check_values(converted.iter().map(|&(r, c, v)| (r as u64, c as u64, v)))?;
    CooMatrix::from_triplets(rows, cols, converted).map_err(sparse_error)
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
    check_values(inserts.iter().chain(revalues).copied())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DEFAULT_MAX_FRAME;

    fn rejected(outcome: Result<CooMatrix, Box<Reply>>) -> String {
        match outcome.map(|_| ()).unwrap_err().as_ref() {
            Reply::Error {
                code: ErrorCode::BadRequest,
                message,
            } => message.clone(),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }

    /// A 2^32-row matrix of one triplet is about 40 bytes on the wire, yet
    /// a `y` for it could never be sent back; admission refuses it before
    /// anything is sized by its dimensions.
    #[test]
    fn load_matrix_rejects_dimensions_no_frame_can_carry_a_vector_of() {
        let hostile = 1u64 << 32;
        for (rows, cols) in [(hostile, 1), (1, hostile), (0, 1), (1, 0)] {
            let message = rejected(load_matrix(
                rows,
                cols,
                vec![(0, 0, 1.0)],
                DEFAULT_MAX_FRAME,
            ));
            assert!(message.contains("out of range"), "{message}");
            assert!(message.contains("longest f32 vector"), "{message}");
        }
        let max = max_vector_len(1000) as u64;
        assert!(load_matrix(max, max, vec![(0, 0, 1.0)], 1000).is_ok());
        rejected(load_matrix(max + 1, 1, vec![(0, 0, 1.0)], 1000));
        rejected(load_matrix(1, max + 1, vec![(0, 0, 1.0)], 1000));
    }

    /// The one-pass check admits what the two-pass sequence admits, and on
    /// any violation the value rule still runs over the whole upload
    /// first: a bad value anywhere outranks an earlier bad coordinate.
    #[test]
    fn load_matrix_keeps_the_first_violated_rule() {
        let load = |triplets: Vec<(u64, u64, f32)>| load_matrix(3, 3, triplets, DEFAULT_MAX_FRAME);
        let sorted = vec![(0, 1, 1.0), (1, 0, 2.0), (2, 2, 3.0)];
        let want = CooMatrix::from_triplets(
            3,
            3,
            sorted
                .iter()
                .map(|&(r, c, v)| (r as usize, c as usize, v))
                .collect(),
        )
        .unwrap();
        assert_eq!(load(sorted.clone()).unwrap(), want);
        assert_eq!(load(sorted.into_iter().rev().collect()).unwrap(), want);

        let value = "unschedulable value 0 at (1, 0)";
        let cases = [
            (vec![(0, 0, 1.0), (1, 0, 0.0)], value),
            (vec![(0, 0, 1.0), (5, 0, 1.0), (1, 0, 0.0)], value),
            (vec![(2, 0, 1.0), (0, 0, 1.0), (1, 0, 0.0)], value),
            (
                vec![(0, 0, 1.0), (0, 0, 2.0)],
                "duplicate explicit entry at (0, 0)",
            ),
            (
                vec![(1, 1, 1.0), (0, 7, 2.0)],
                "column index 7 out of bounds for matrix with 3 columns",
            ),
        ];
        for (triplets, needle) in cases {
            let message = rejected(load(triplets));
            assert!(message.starts_with(needle), "{message} is not {needle}");
        }
    }
}
