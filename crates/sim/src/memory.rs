//! On-chip memory models: BRAM (dense-vector buffers) and URAM (partial-sum
//! stores).
//!
//! The models are functional: they hold the actual values the datapath
//! reads and writes. Capacities mirror the Alveo U55c blocks
//! the paper uses: 18 Kb dual-port BRAMs for the `x` buffer and 36 KB
//! (288 Kb) URAMs whose 72-bit slots hold two FP32 partial sums (§4.2.1).

use crate::SimError;

/// Capacity of one 18 Kb BRAM in FP32 words (18 432 bits / 32).
pub const BRAM18K_WORDS: usize = 576;
/// Capacity of one URAM in FP32 partial sums: 4096 slots × 72 bits, two
/// FP32 values per slot (§4.2.1).
pub const URAM_PARTIALS: usize = 8192;

/// A dual-port 18 Kb block RAM buffering a slice of the dense vector `x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bram {
    words: Vec<f32>,
}

impl Bram {
    /// Creates a zeroed buffer of `words` FP32 entries.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`BRAM18K_WORDS`] — compose multiple BRAMs
    /// (see [`Peg`](crate::Peg)) for larger buffers.
    pub fn new(words: usize) -> Self {
        assert!(
            words <= BRAM18K_WORDS,
            "one BRAM18K holds at most {BRAM18K_WORDS} words"
        );
        Bram {
            words: vec![0.0; words],
        }
    }

    /// Number of FP32 words the buffer holds.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&self, addr: usize) -> f32 {
        self.words[addr]
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: f32) {
        self.words[addr] = value;
    }
}

/// A URAM bank holding FP32 partial sums, addressed by local row.
#[derive(Debug, Clone, PartialEq)]
pub struct Uram {
    partials: Vec<f32>,
}

impl Uram {
    /// Creates a zeroed partial-sum store of `rows` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RowCapacityExceeded`] if `rows` exceeds one
    /// URAM's capacity ([`URAM_PARTIALS`]).
    pub fn new(rows: usize) -> Result<Self, SimError> {
        if rows > URAM_PARTIALS {
            return Err(SimError::RowCapacityExceeded {
                rows_per_pe: rows,
                capacity: URAM_PARTIALS,
            });
        }
        Ok(Uram {
            partials: vec![0.0; rows],
        })
    }

    /// Number of partial-sum rows.
    pub fn len(&self) -> usize {
        self.partials.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// Read-modify-write accumulate: `partials[row] += delta` (the paper's
    /// fetch → add → write-back sequence, §4.2.1).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn accumulate(&mut self, row: usize, delta: f32) {
        self.partials[row] += delta;
    }

    /// Reads a partial sum.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn read(&self, row: usize) -> f32 {
        self.partials[row]
    }

    /// Overwrites a partial sum.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn write(&mut self, row: usize, value: f32) {
        self.partials[row] = value;
    }

    /// Borrows the raw contents (used by the Reduction Unit sweep, whose
    /// cycles are charged separately).
    pub fn contents(&self) -> &[f32] {
        &self.partials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bram_read_write_roundtrip() {
        let mut b = Bram::new(16);
        b.write(3, 2.5);
        assert_eq!(b.read(3), 2.5);
        assert_eq!(b.len(), 16);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn bram_rejects_oversize() {
        let _ = Bram::new(BRAM18K_WORDS + 1);
    }

    #[test]
    fn uram_accumulates() {
        let mut u = Uram::new(8).unwrap();
        u.accumulate(2, 1.5);
        u.accumulate(2, 2.5);
        assert_eq!(u.contents()[2], 4.0);
    }

    #[test]
    fn uram_capacity_is_enforced() {
        assert!(Uram::new(URAM_PARTIALS).is_ok());
        let err = Uram::new(URAM_PARTIALS + 1).unwrap_err();
        assert!(matches!(err, SimError::RowCapacityExceeded { .. }));
    }

    #[test]
    fn uram_capacity_matches_paper_geometry() {
        // 4096 slots × two FP32 per 72-bit slot.
        assert_eq!(URAM_PARTIALS, 4096 * 2);
    }

    #[test]
    fn uram_read_write_roundtrip() {
        let mut u = Uram::new(4).unwrap();
        u.write(0, 7.0);
        assert_eq!(u.read(0), 7.0);
    }
}
