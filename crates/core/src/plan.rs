//! Reusable SpMV schedule plans.
//!
//! Scheduling dominates preprocessing cost, yet it depends only on the
//! matrix structure and the [`SchedulerConfig`] — not on the dense vector.
//! Iterative solvers therefore re-pay it on every iteration for nothing.
//! This module defines the *plan artifact* produced once per matrix: the
//! full per-window [`ScheduledMatrix`] list (grouped into row-partition
//! passes for matrices that exceed the partial-sum URAM capacity), the
//! window partition bounds, per-window stats, and a cache key combining a
//! fingerprint of the matrix with the scheduler configuration. Engines
//! consume a plan with `run_planned`, which executes without rescheduling
//! and reproduces the unplanned run bit for bit.

use crate::schedule::{ScheduledMatrix, SchedulerConfig};
use chason_sparse::CooMatrix;
use serde::{Deserialize, Serialize};

/// FNV-1a fingerprint of a matrix's dimensions and triplets.
///
/// Collisions are astronomically unlikely for distinct real matrices, and a
/// collision can at worst serve a stale schedule for a *different* matrix of
/// identical dimensions — detectable because plans carry their nnz — so a
/// 64-bit structural hash is an adequate cache identity.
pub fn matrix_fingerprint(matrix: &CooMatrix) -> u64 {
    let mut h = fnv1a_word(FNV_OFFSET, matrix.rows() as u64);
    h = fnv1a_word(h, matrix.cols() as u64);
    for &(r, c, v) in matrix.triplets() {
        h = fnv1a_word(h, r as u64);
        h = fnv1a_word(h, c as u64);
        h = fnv1a_word(h, u64::from(v.to_bits()));
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k = 0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Feeds the eight little-endian bytes of `word` to FNV-1a. Since
/// `h ^ 0 = h`, the word's run of high zero bytes — six of eight for a
/// small index, four for every `f32` — is one multiply by `PRIME^k`, and
/// the result is bit-identical to hashing a byte at a time.
fn fnv1a_word(mut h: u64, word: u64) -> u64 {
    let zero_bytes = (word.leading_zeros() / 8) as usize;
    let mut rest = word;
    for _ in zero_bytes..8 {
        h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    h.wrapping_mul(FNV_PRIME_POWERS[zero_bytes])
}

/// Identity of a plan in a cache: *which matrix* (by structural
/// fingerprint) scheduled under *which architecture*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// [`matrix_fingerprint`] of the source matrix.
    pub fingerprint: u64,
    /// Scheduler configuration the plan targets.
    pub config: SchedulerConfig,
}

impl PlanKey {
    /// Computes the key for `matrix` under `config`.
    pub fn new(matrix: &CooMatrix, config: SchedulerConfig) -> Self {
        PlanKey {
            fingerprint: matrix_fingerprint(matrix),
            config,
        }
    }
}

/// One scheduled column window of a pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanWindow {
    /// First source column covered (inclusive).
    pub col_start: usize,
    /// One past the last source column covered.
    pub col_end: usize,
    /// Non-zeros in this window.
    pub nnz: usize,
    /// Stall slots left after scheduling (virtual padding included).
    pub stalls: usize,
    /// Cycles the window occupies the stream (longest equalized channel).
    pub stream_cycles: usize,
    /// The window's schedule, ready to execute.
    pub schedule: ScheduledMatrix,
}

/// One row-partition pass of a plan (§4.5). Single-pass plans have one
/// entry covering every row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassPlan {
    /// First source row covered (inclusive).
    pub row_start: usize,
    /// One past the last source row covered.
    pub row_end: usize,
    /// Non-zeros in this pass.
    pub nnz: usize,
    /// The pass's column windows in stream order.
    pub windows: Vec<PlanWindow>,
}

impl PassPlan {
    /// Rows this pass covers.
    pub fn rows(&self) -> usize {
        self.row_end - self.row_start
    }
}

/// A complete reusable SpMV schedule plan for one (matrix, configuration)
/// pair: execute it any number of times against different dense vectors
/// without rescheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmvPlan {
    /// Cache identity: matrix fingerprint + scheduler configuration.
    pub key: PlanKey,
    /// Engine family that produced (and may execute) the plan.
    pub engine: String,
    /// Column window width the plan was partitioned with.
    pub window: usize,
    /// Source matrix row count.
    pub rows: usize,
    /// Source matrix column count.
    pub cols: usize,
    /// Source matrix non-zero count.
    pub nnz: usize,
    /// Row-partition passes in row order.
    pub passes: Vec<PassPlan>,
}

impl SpmvPlan {
    /// Total column windows across all passes.
    pub fn window_count(&self) -> usize {
        self.passes.iter().map(|p| p.windows.len()).sum()
    }

    /// Total stall slots across all windows.
    pub fn stalls(&self) -> usize {
        self.passes
            .iter()
            .flat_map(|p| &p.windows)
            .map(|w| w.stalls)
            .sum()
    }

    /// Total stream cycles across all windows (before initiation-interval
    /// derating).
    pub fn stream_cycles(&self) -> usize {
        self.passes
            .iter()
            .flat_map(|p| &p.windows)
            .map(|w| w.stream_cycles)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sparse::generators::uniform_random;
    use proptest::prelude::*;

    /// Byte-at-a-time FNV-1a over little-endian words.
    fn reference(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(FNV_OFFSET, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
            })
    }

    fn reference_fingerprint(m: &CooMatrix) -> u64 {
        let mut words = vec![m.rows() as u64, m.cols() as u64];
        for &(r, c, v) in m.triplets() {
            words.extend([r as u64, c as u64, u64::from(v.to_bits())]);
        }
        reference(&words)
    }

    /// A word with exactly `zeros` leading zero bytes; `holes` clears
    /// lower bytes too, so zero bytes inside the word occur as well.
    fn word_with_leading_zero_bytes(bits: u64, zeros: u32, holes: u8) -> u64 {
        if zeros == 8 {
            return 0;
        }
        let mut word = bits >> (8 * zeros);
        for byte in 0..8 - zeros {
            if holes & (1 << byte) != 0 {
                word &= !(0xff << (8 * byte));
            }
        }
        word | 1 << (8 * (7 - zeros) + 7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn word_hash_matches_byte_at_a_time(
            drawn in proptest::collection::vec((any::<u64>(), 0u32..9, any::<u8>()), 0..12),
        ) {
            let words: Vec<u64> = drawn
                .iter()
                .map(|&(bits, zeros, holes)| word_with_leading_zero_bytes(bits, zeros, holes))
                .collect();
            for (&(_, zeros, _), &w) in drawn.iter().zip(&words) {
                prop_assert_eq!(w.leading_zeros() / 8, zeros);
            }
            let fast = words.iter().fold(FNV_OFFSET, |h, &w| fnv1a_word(h, w));
            prop_assert_eq!(fast, reference(&words));
        }

        #[test]
        fn fingerprint_matches_byte_at_a_time(
            rows in 1usize..100_000,
            cols in 1usize..100_000,
            seed in 0u64..1000,
            nnz in 0usize..40,
        ) {
            let m = uniform_random(rows, cols, nnz.min(rows * cols), seed);
            prop_assert_eq!(matrix_fingerprint(&m), reference_fingerprint(&m));
        }
    }

    #[test]
    fn empty_matrix_fingerprint_matches_byte_at_a_time() {
        for (rows, cols) in [(0, 0), (0, 7), (1 << 40, 3)] {
            let m = CooMatrix::new(rows, cols);
            assert_eq!(matrix_fingerprint(&m), reference_fingerprint(&m));
        }
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = uniform_random(64, 64, 300, 9);
        let b = uniform_random(64, 64, 300, 9);
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b));
        let c = uniform_random(64, 64, 300, 10);
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&c));
    }

    #[test]
    fn fingerprint_sees_dimensions_and_values() {
        let base = CooMatrix::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let taller = CooMatrix::from_triplets(5, 4, vec![(0, 0, 1.0)]).unwrap();
        let other_value = CooMatrix::from_triplets(4, 4, vec![(0, 0, 2.0)]).unwrap();
        assert_ne!(matrix_fingerprint(&base), matrix_fingerprint(&taller));
        assert_ne!(matrix_fingerprint(&base), matrix_fingerprint(&other_value));
    }

    #[test]
    fn plan_key_distinguishes_configs() {
        let m = uniform_random(32, 32, 100, 1);
        let paper = PlanKey::new(&m, SchedulerConfig::paper());
        let toy = PlanKey::new(&m, SchedulerConfig::toy(2, 2, 4));
        assert_eq!(paper.fingerprint, toy.fingerprint);
        assert_ne!(paper, toy);
    }
}
