//! Binary export/import of scheduled data lists — the offline
//! preprocessing artifact.
//!
//! The real toolchain runs CrHCS offline and ships the per-channel 64-bit
//! data lists to the FPGA host program. This module defines that artifact:
//! a small self-describing container holding the scheduler configuration,
//! the matrix shape, and every channel's padded data list. The format is
//! little-endian throughout.
//!
//! ```text
//! magic   "CHSN"            4 B
//! version u32               (currently 1)
//! channels, pes, distance, hops          4 × u32
//! rows, cols, nnz                        3 × u64
//! cycles  u64               equalized list length (beats per channel)
//! then per channel: cycles × pes × u64 data words
//! ```

//!
//! A second container, `CHPL`, serializes a full reusable [`SpmvPlan`]
//! (every pass, window, and scheduled slot) so iterative solvers can ship
//! the plan artifact across processes; see [`write_plan`] / [`read_plan`].

use crate::element::STALL_WORD;
use crate::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use crate::schedule::{ChannelSchedule, NzSlot, ScheduledMatrix, SchedulerConfig};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CHSN";
const VERSION: u32 = 1;
const PLAN_MAGIC: &[u8; 4] = b"CHPL";
const PLAN_VERSION: u32 = 1;

/// Pre-allocation ceiling for length-prefixed collections: a corrupt or
/// adversarial count can at most reserve this many elements up front; the
/// rest of the capacity is grown only as bytes actually arrive, so a huge
/// declared count fails with a clean truncation error instead of an
/// allocation abort.
const PREALLOC_LIMIT: usize = 4096;

/// Typed failure of the binary readers ([`read_schedule`], [`read_plan`]).
///
/// The readers consume untrusted bytes — the `chason-serve` daemon feeds
/// them network payloads — so every malformed input must surface here
/// rather than as a panic or an unbounded allocation.
#[derive(Debug)]
pub enum ExportError {
    /// The underlying reader failed; truncated streams surface as
    /// [`io::ErrorKind::UnexpectedEof`].
    Io(io::Error),
    /// The stream does not start with the expected container magic.
    BadMagic {
        /// The container that was expected (`"CHSN"` or `"CHPL"`).
        expected: &'static str,
    },
    /// The container version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the header.
        got: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A structurally invalid encoding (bad tag, bad flag, non-UTF-8
    /// name, implausible geometry).
    Malformed(String),
    /// The cycles of one channel disagree on their lane count.
    RaggedChannel {
        /// Channel index as recorded in the artifact.
        channel: usize,
        /// First cycle whose lane count differs from cycle 0's.
        cycle: usize,
        /// That cycle's lane count.
        lanes: usize,
        /// Cycle 0's lane count.
        expected: usize,
    },
    /// A count or length field exceeds the format's plausibility cap.
    Oversized {
        /// Which field overflowed.
        what: &'static str,
        /// The declared value.
        got: u64,
        /// The cap it violated.
        cap: u64,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(e) => write!(f, "artifact I/O failed: {e}"),
            ExportError::BadMagic { expected } => {
                write!(f, "not a {expected} artifact (bad magic)")
            }
            ExportError::UnsupportedVersion { got, expected } => {
                write!(
                    f,
                    "unsupported artifact version {got} (expected {expected})"
                )
            }
            ExportError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ExportError::RaggedChannel {
                channel,
                cycle,
                lanes,
                expected,
            } => write!(
                f,
                "channel {channel} cycle {cycle} carries {lanes} lanes; cycle 0 carries {expected}"
            ),
            ExportError::Oversized { what, got, cap } => {
                write!(f, "implausible {what} count {got} (cap {cap})")
            }
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ExportError {
    fn from(e: io::Error) -> Self {
        ExportError::Io(e)
    }
}

impl From<ExportError> for io::Error {
    fn from(e: ExportError) -> Self {
        match e {
            ExportError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A deserialized schedule artifact: configuration, shape, and the padded
/// per-channel data lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleArtifact {
    /// Scheduler configuration the lists were built for.
    pub config: SchedulerConfig,
    /// Source-matrix rows.
    pub rows: u64,
    /// Source-matrix columns.
    pub cols: u64,
    /// Source-matrix non-zeros.
    pub nnz: u64,
    /// Equalized list length in beats (cycles).
    pub cycles: u64,
    /// One padded data list per channel (`cycles × pes` words each).
    pub lists: Vec<Vec<u64>>,
}

impl ScheduleArtifact {
    /// Total stall words across all lists (Eq. 4's numerator).
    pub fn stalls(&self) -> u64 {
        self.lists
            .iter()
            .flatten()
            .filter(|&&w| w == STALL_WORD)
            .count() as u64
    }

    /// PE underutilization of the artifact per Eq. 4.
    pub fn underutilization(&self) -> f64 {
        let total: u64 = self.lists.iter().map(|l| l.len() as u64).sum();
        if total == 0 {
            0.0
        } else {
            self.stalls() as f64 / total as f64
        }
    }
}

/// Serializes a schedule (single window; columns must fit the wire format).
///
/// A `&mut` reference may be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Panics
///
/// Panics if a slot overflows the 64-bit wire format (schedule one
/// [`crate::window`] at a time for wide matrices).
pub fn write_schedule<W: Write>(mut writer: W, schedule: &ScheduledMatrix) -> io::Result<()> {
    let cfg = &schedule.config;
    writer.write_all(MAGIC)?;
    for v in [
        VERSION,
        cfg.channels as u32,
        cfg.pes_per_channel as u32,
        cfg.dependency_distance as u32,
        cfg.migration_hops as u32,
    ] {
        writer.write_all(&v.to_le_bytes())?;
    }
    let cycles = schedule.stream_cycles() as u64;
    for v in [
        schedule.rows as u64,
        schedule.cols as u64,
        schedule.nnz as u64,
        cycles,
    ] {
        writer.write_all(&v.to_le_bytes())?;
    }
    for list in schedule.data_lists_padded() {
        for word in list {
            writer.write_all(&word.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_u32<R: Read>(reader: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Deserializes a schedule artifact.
///
/// A `&mut` reference may be passed for `reader`.
///
/// # Errors
///
/// [`ExportError::BadMagic`] / [`ExportError::UnsupportedVersion`] for the
/// wrong container, [`ExportError::Malformed`] / [`ExportError::Oversized`]
/// for implausible geometry or counts, and [`ExportError::Io`] for I/O
/// failures (truncation included). Allocation is proportional to the bytes
/// actually read, never to a declared count alone.
pub fn read_schedule<R: Read>(mut reader: R) -> Result<ScheduleArtifact, ExportError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ExportError::BadMagic { expected: "CHSN" });
    }
    let version = read_u32(&mut reader)?;
    if version != VERSION {
        return Err(ExportError::UnsupportedVersion {
            got: version,
            expected: VERSION,
        });
    }
    let channels = read_u32(&mut reader)? as usize;
    let pes = read_u32(&mut reader)? as usize;
    let distance = read_u32(&mut reader)? as usize;
    let hops = read_u32(&mut reader)? as usize;
    let config = SchedulerConfig {
        channels,
        pes_per_channel: pes,
        dependency_distance: distance,
        migration_scan_limit: 256,
        migration_hops: hops.max(1),
    };
    if !config.is_valid() || channels > 1024 || pes > 64 {
        return Err(ExportError::Malformed(
            "implausible scheduler geometry in artifact header".to_string(),
        ));
    }
    let rows = read_u64(&mut reader)?;
    let cols = read_u64(&mut reader)?;
    let nnz = read_u64(&mut reader)?;
    let cycles = read_u64(&mut reader)?;
    let words_per_channel = cycles
        .checked_mul(pes as u64)
        .filter(|&w| w <= (1 << 34))
        .ok_or(ExportError::Oversized {
            what: "channel list word",
            got: cycles,
            cap: 1 << 34,
        })?;
    let mut lists = Vec::with_capacity(channels.min(PREALLOC_LIMIT));
    for _ in 0..channels {
        let mut list = Vec::with_capacity((words_per_channel as usize).min(PREALLOC_LIMIT));
        for _ in 0..words_per_channel {
            list.push(read_u64(&mut reader)?);
        }
        lists.push(list);
    }
    Ok(ScheduleArtifact {
        config,
        rows,
        cols,
        nnz,
        cycles,
        lists,
    })
}

fn invalid(msg: impl Into<String>) -> ExportError {
    ExportError::Malformed(msg.into())
}

fn write_config<W: Write>(writer: &mut W, cfg: &SchedulerConfig) -> io::Result<()> {
    for v in [
        cfg.channels as u32,
        cfg.pes_per_channel as u32,
        cfg.dependency_distance as u32,
        cfg.migration_scan_limit as u32,
        cfg.migration_hops as u32,
    ] {
        writer.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_config<R: Read>(reader: &mut R) -> Result<SchedulerConfig, ExportError> {
    let config = SchedulerConfig {
        channels: read_u32(reader)? as usize,
        pes_per_channel: read_u32(reader)? as usize,
        dependency_distance: read_u32(reader)? as usize,
        migration_scan_limit: read_u32(reader)? as usize,
        migration_hops: read_u32(reader)? as usize,
    };
    if !config.is_valid() || config.channels > 1024 || config.pes_per_channel > 64 {
        return Err(invalid("implausible scheduler geometry in plan"));
    }
    Ok(config)
}

/// Reads a count field and rejects implausibly large values, so a corrupt
/// or adversarial stream cannot request a huge allocation up front.
fn read_count<R: Read>(reader: &mut R, what: &'static str, cap: u64) -> Result<usize, ExportError> {
    let v = read_u64(reader)?;
    if v > cap {
        return Err(ExportError::Oversized { what, got: v, cap });
    }
    Ok(v as usize)
}

fn write_schedule_grid<W: Write>(writer: &mut W, s: &ScheduledMatrix) -> io::Result<()> {
    write_config(writer, &s.config)?;
    for v in [
        s.rows as u64,
        s.cols as u64,
        s.nnz as u64,
        s.channels.len() as u64,
    ] {
        writer.write_all(&v.to_le_bytes())?;
    }
    // The store keeps only occupied slots; the grid encoding spells out
    // every slot, so the stalls are put back here, one tag byte each.
    let mut record = Vec::new();
    for ch in &s.channels {
        writer.write_all(&(ch.channel as u64).to_le_bytes())?;
        writer.write_all(&(ch.cycles() as u64).to_le_bytes())?;
        let lanes = ch.lanes();
        let mut occupied = ch.occupied().peekable();
        for cycle in 0..ch.cycles() {
            record.clear();
            record.extend_from_slice(&(lanes as u64).to_le_bytes());
            for lane in 0..lanes {
                match occupied.next_if(|&(c, l, _)| (c, l) == (cycle, lane)) {
                    None => record.push(0),
                    Some((_, _, nz)) => {
                        record.push(1);
                        record.extend_from_slice(&nz.value.to_bits().to_le_bytes());
                        record.extend_from_slice(&(nz.row as u64).to_le_bytes());
                        record.extend_from_slice(&(nz.col as u64).to_le_bytes());
                        record.extend_from_slice(&[u8::from(nz.pvt), nz.pe_src]);
                    }
                }
            }
            writer.write_all(&record)?;
        }
    }
    Ok(())
}

fn read_schedule_grid<R: Read>(reader: &mut R) -> Result<ScheduledMatrix, ExportError> {
    let config = read_config(reader)?;
    let rows = read_u64(reader)? as usize;
    let cols = read_u64(reader)? as usize;
    let nnz = read_u64(reader)? as usize;
    let channel_count = read_count(reader, "channel", 1024)?;
    let mut channels = Vec::with_capacity(channel_count.min(PREALLOC_LIMIT));
    for _ in 0..channel_count {
        let channel = read_u64(reader)? as usize;
        let cycles = read_count(reader, "cycle", u64::from(u32::MAX))?;
        // A channel with no cycles records no lane count; it gets the PEG's.
        let mut ch = ChannelSchedule::new(channel, config.pes_per_channel);
        for cycle in 0..cycles {
            let lanes = read_count(reader, "lane", 4096)?;
            if cycle == 0 {
                ch.set_lanes(lanes);
            } else if lanes != ch.lanes() {
                return Err(ExportError::RaggedChannel {
                    channel,
                    cycle,
                    lanes,
                    expected: ch.lanes(),
                });
            }
            for lane in 0..lanes {
                let mut tag = [0u8; 1];
                reader.read_exact(&mut tag)?;
                match tag[0] {
                    0 => {}
                    1 => {
                        let value = f32::from_bits(read_u32(reader)?);
                        let nz_row = read_u64(reader)? as usize;
                        let nz_col = read_u64(reader)? as usize;
                        let mut flags = [0u8; 2];
                        reader.read_exact(&mut flags)?;
                        if flags[0] > 1 {
                            return Err(invalid(format!("bad pvt flag {}", flags[0])));
                        }
                        let nz = NzSlot {
                            value,
                            row: nz_row,
                            col: nz_col,
                            pvt: flags[0] == 1,
                            pe_src: flags[1],
                        };
                        if !ChannelSchedule::fits(cycle, lane, &nz) {
                            return Err(invalid(format!(
                                "channel {channel} slot ({cycle}, {lane}) holding row {nz_row}, \
                                 column {nz_col}, PE_src {} is beyond the channel store's range",
                                nz.pe_src
                            )));
                        }
                        ch.insert(cycle, lane, nz);
                    }
                    t => return Err(invalid(format!("bad slot tag {t}"))),
                }
            }
        }
        ch.set_cycles(cycles);
        channels.push(ch);
    }
    Ok(ScheduledMatrix {
        config,
        channels,
        rows,
        cols,
        nnz,
    })
}

/// Serializes a full [`SpmvPlan`] — the `CHPL` artifact. Unlike the `CHSN`
/// data-list artifact, the plan keeps the structured per-slot grids, so
/// `read_plan(write_plan(p)) == p` exactly and engines can `run_planned`
/// the artifact without rescheduling.
///
/// A `&mut` reference may be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_plan<W: Write>(mut writer: W, plan: &SpmvPlan) -> io::Result<()> {
    writer.write_all(PLAN_MAGIC)?;
    writer.write_all(&PLAN_VERSION.to_le_bytes())?;
    writer.write_all(&plan.key.fingerprint.to_le_bytes())?;
    write_config(&mut writer, &plan.key.config)?;
    let engine = plan.engine.as_bytes();
    writer.write_all(&(engine.len() as u32).to_le_bytes())?;
    writer.write_all(engine)?;
    for v in [
        plan.window as u64,
        plan.rows as u64,
        plan.cols as u64,
        plan.nnz as u64,
        plan.passes.len() as u64,
    ] {
        writer.write_all(&v.to_le_bytes())?;
    }
    for pass in &plan.passes {
        for v in [
            pass.row_start as u64,
            pass.row_end as u64,
            pass.nnz as u64,
            pass.windows.len() as u64,
        ] {
            writer.write_all(&v.to_le_bytes())?;
        }
        for w in &pass.windows {
            for v in [
                w.col_start as u64,
                w.col_end as u64,
                w.nnz as u64,
                w.stalls as u64,
                w.stream_cycles as u64,
            ] {
                writer.write_all(&v.to_le_bytes())?;
            }
            write_schedule_grid(&mut writer, &w.schedule)?;
        }
    }
    Ok(())
}

/// Deserializes a `CHPL` plan artifact written by [`write_plan`].
///
/// A `&mut` reference may be passed for `reader`.
///
/// # Errors
///
/// [`ExportError::BadMagic`] / [`ExportError::UnsupportedVersion`] for the
/// wrong container, [`ExportError::Malformed`] / [`ExportError::Oversized`]
/// for implausible geometry, counts, or slot encodings, and
/// [`ExportError::Io`] for I/O failures (truncation included). The reader
/// is safe on untrusted bytes: no input can trigger a panic, and
/// allocation is proportional to the bytes actually read, never to a
/// declared count alone.
pub fn read_plan<R: Read>(mut reader: R) -> Result<SpmvPlan, ExportError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != PLAN_MAGIC {
        return Err(ExportError::BadMagic { expected: "CHPL" });
    }
    let version = read_u32(&mut reader)?;
    if version != PLAN_VERSION {
        return Err(ExportError::UnsupportedVersion {
            got: version,
            expected: PLAN_VERSION,
        });
    }
    let fingerprint = read_u64(&mut reader)?;
    let config = read_config(&mut reader)?;
    let engine_len = read_u32(&mut reader)? as usize;
    if engine_len > 64 {
        return Err(invalid(format!(
            "implausible engine name length {engine_len}"
        )));
    }
    let mut engine = vec![0u8; engine_len];
    reader.read_exact(&mut engine)?;
    let engine = String::from_utf8(engine).map_err(|_| invalid("engine name is not UTF-8"))?;
    let window = read_u64(&mut reader)? as usize;
    let rows = read_u64(&mut reader)? as usize;
    let cols = read_u64(&mut reader)? as usize;
    let nnz = read_u64(&mut reader)? as usize;
    let pass_count = read_count(&mut reader, "pass", 1 << 20)?;
    let mut passes = Vec::with_capacity(pass_count.min(PREALLOC_LIMIT));
    for _ in 0..pass_count {
        let row_start = read_u64(&mut reader)? as usize;
        let row_end = read_u64(&mut reader)? as usize;
        let pass_nnz = read_u64(&mut reader)? as usize;
        let window_count = read_count(&mut reader, "window", 1 << 20)?;
        let mut windows = Vec::with_capacity(window_count.min(PREALLOC_LIMIT));
        for _ in 0..window_count {
            let col_start = read_u64(&mut reader)? as usize;
            let col_end = read_u64(&mut reader)? as usize;
            let w_nnz = read_u64(&mut reader)? as usize;
            let stalls = read_u64(&mut reader)? as usize;
            let stream_cycles = read_u64(&mut reader)? as usize;
            windows.push(PlanWindow {
                col_start,
                col_end,
                nnz: w_nnz,
                stalls,
                stream_cycles,
                schedule: read_schedule_grid(&mut reader)?,
            });
        }
        passes.push(PassPlan {
            row_start,
            row_end,
            nnz: pass_nnz,
            windows,
        });
    }
    Ok(SpmvPlan {
        key: PlanKey {
            fingerprint,
            config,
        },
        engine,
        window,
        rows,
        cols,
        nnz,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::SparseElement;
    use crate::schedule::{Crhcs, Scheduler};
    use chason_sparse::generators::power_law;

    fn sample() -> ScheduledMatrix {
        let m = power_law(256, 256, 1500, 1.7, 4);
        Crhcs::new().schedule(&m, &SchedulerConfig::paper())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let schedule = sample();
        let mut buf = Vec::new();
        write_schedule(&mut buf, &schedule).unwrap();
        let artifact = read_schedule(buf.as_slice()).unwrap();
        assert_eq!(artifact.config.channels, 16);
        assert_eq!(artifact.rows, 256);
        assert_eq!(artifact.nnz, 1500);
        assert_eq!(artifact.cycles as usize, schedule.stream_cycles());
        assert_eq!(artifact.lists, schedule.data_lists_padded());
        // Eq. 4 computed on the artifact matches the schedule's metric.
        assert!((artifact.underutilization() - schedule.underutilization()).abs() < 1e-12);
    }

    #[test]
    fn artifact_words_decode_to_elements() {
        let schedule = sample();
        let mut buf = Vec::new();
        write_schedule(&mut buf, &schedule).unwrap();
        let artifact = read_schedule(buf.as_slice()).unwrap();
        let decoded: usize = artifact
            .lists
            .iter()
            .flatten()
            .filter_map(|&w| SparseElement::unpack(w))
            .count();
        assert_eq!(decoded as u64, artifact.nnz);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_schedule(&b"NOPE1234"[..]).unwrap_err();
        assert!(matches!(err, ExportError::BadMagic { expected: "CHSN" }));
        // The io::Error conversion keeps it an InvalidData failure.
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let schedule = sample();
        let mut buf = Vec::new();
        write_schedule(&mut buf, &schedule).unwrap();
        buf.truncate(buf.len() - 9);
        let err = read_schedule(buf.as_slice()).unwrap_err();
        assert!(matches!(err, ExportError::Io(_)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let schedule = sample();
        let mut buf = Vec::new();
        write_schedule(&mut buf, &schedule).unwrap();
        buf[4] = 99;
        let err = read_schedule(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    fn sample_plan() -> SpmvPlan {
        let m = power_law(96, 96, 500, 1.7, 8);
        let config = SchedulerConfig::toy(4, 4, 6);
        let schedule = Crhcs::new().schedule(&m, &config);
        let stalls = schedule.stalls();
        let stream_cycles = schedule.stream_cycles();
        SpmvPlan {
            key: PlanKey::new(&m, config),
            engine: "chason".to_string(),
            window: 8192,
            rows: 96,
            cols: 96,
            nnz: 500,
            passes: vec![PassPlan {
                row_start: 0,
                row_end: 96,
                nnz: 500,
                windows: vec![PlanWindow {
                    col_start: 0,
                    col_end: 96,
                    nnz: 500,
                    stalls,
                    stream_cycles,
                    schedule,
                }],
            }],
        }
    }

    #[test]
    fn plan_round_trip_is_exact() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        write_plan(&mut buf, &plan).unwrap();
        let parsed = read_plan(buf.as_slice()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn plan_rejects_wrong_magic_and_version() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        write_plan(&mut buf, &plan).unwrap();
        let mut wrong_magic = buf.clone();
        wrong_magic[..4].copy_from_slice(b"CHSN");
        assert!(read_plan(wrong_magic.as_slice()).is_err());
        let mut wrong_version = buf;
        wrong_version[4] = 99;
        let err = read_plan(wrong_version.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_plan_is_rejected() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        write_plan(&mut buf, &plan).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_plan(buf.as_slice()).is_err());
    }

    #[test]
    fn plan_with_implausible_counts_is_rejected() {
        let plan = sample_plan();
        let mut buf = Vec::new();
        write_plan(&mut buf, &plan).unwrap();
        // The engine-name length sits at a fixed offset: magic (4) +
        // version (4) + fingerprint (8) + config (5 × 4).
        buf[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_plan(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("engine name"), "{err}");
    }

    #[test]
    fn implausible_geometry_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CHSN");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&5000u32.to_le_bytes()); // channels
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        assert!(read_schedule(buf.as_slice()).is_err());
    }
}
