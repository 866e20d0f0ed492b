//! Evaluation metrics (Eqs. 5–7) bundled per execution — the columns of
//! Table 3.

use crate::config::Execution;
use crate::power::MeasuredPower;
use serde::{Deserialize, Serialize};

/// One row of a Table 3-style report: the derived metrics of a single
/// accelerator execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceReport {
    /// Engine that produced the execution.
    pub engine: String,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in GFLOPS (Eq. 5).
    pub throughput_gflops: f64,
    /// Bandwidth efficiency in GFLOPS per GB/s (Eq. 7).
    pub bandwidth_efficiency: f64,
    /// Energy efficiency in GFLOPS/W (Eq. 6).
    pub energy_efficiency: f64,
    /// Total cycles.
    pub cycles: u64,
    /// PE underutilization in percent (Eq. 4).
    pub underutilization_pct: f64,
    /// Bytes streamed from the sparse-matrix channels.
    pub bytes_streamed: u64,
}

impl PerformanceReport {
    /// Builds a report from an execution, the aggregate sparse-matrix
    /// bandwidth in GB/s (Eq. 7's denominator), and the measured power
    /// (Eq. 6's denominator).
    pub fn from_execution(exec: &Execution, bandwidth_gbps: f64, power: MeasuredPower) -> Self {
        let gflops = exec.throughput_gflops();
        PerformanceReport {
            engine: exec.engine.to_string(),
            latency_ms: exec.latency_ms(),
            throughput_gflops: gflops,
            bandwidth_efficiency: if bandwidth_gbps > 0.0 {
                gflops / bandwidth_gbps
            } else {
                0.0
            },
            energy_efficiency: power.energy_efficiency(gflops),
            cycles: exec.cycles.total(),
            underutilization_pct: exec.underutilization * 100.0,
            bytes_streamed: exec.bytes_streamed,
        }
    }

    /// Energy-efficiency gain of `self` over `other`.
    pub fn energy_gain_over(&self, other: &PerformanceReport) -> f64 {
        if other.energy_efficiency == 0.0 {
            return if self.energy_efficiency == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.energy_efficiency / other.energy_efficiency
    }
}

/// An integer-only snapshot of one execution's cycle accounting.
///
/// Every field is a counter the simulator computes exactly — no floats, no
/// wall-clock — so the rendered line is byte-identical across runs, thread
/// counts, and machines. The conformance harness commits these lines as
/// golden traces under `tests/golden/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleTrace {
    /// Engine name.
    pub engine: String,
    /// Source-matrix rows.
    pub rows: usize,
    /// Source-matrix columns.
    pub cols: usize,
    /// Source-matrix non-zeros.
    pub nnz: usize,
    /// Column windows processed.
    pub windows: usize,
    /// Stall slots across all windows.
    pub stalls: usize,
    /// Multiply-accumulate operations performed.
    pub mac_ops: u64,
    /// Bytes streamed from the sparse-matrix channels.
    pub bytes_streamed: u64,
    /// Bytes moved on the auxiliary (`x`/`y`) channels.
    pub bytes_auxiliary: u64,
    /// The six-way cycle breakdown.
    pub cycles: crate::config::CycleBreakdown,
}

impl CycleTrace {
    /// Extracts the integer counters of an execution.
    pub fn from_execution(exec: &Execution) -> Self {
        CycleTrace {
            engine: exec.engine.to_string(),
            rows: exec.rows,
            cols: exec.cols,
            nnz: exec.nnz,
            windows: exec.windows,
            stalls: exec.stalls,
            mac_ops: exec.mac_ops,
            bytes_streamed: exec.bytes_streamed,
            bytes_auxiliary: exec.bytes_auxiliary,
            cycles: exec.cycles,
        }
    }
}

impl std::fmt::Display for CycleTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.cycles;
        write!(
            f,
            "{} {}x{} nnz={} windows={} stalls={} macs={} stream={} fill={} xrel={} red={} mrg={} inv={} total={} bytes={}+{}",
            self.engine, self.rows, self.cols, self.nnz, self.windows, self.stalls,
            self.mac_ops, c.stream, c.fill_drain, c.x_reload, c.reduction, c.merge,
            c.invocation, c.total(), self.bytes_streamed, self.bytes_auxiliary,
        )
    }
}

impl std::str::FromStr for CycleTrace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut tokens = s.split_whitespace();
        let engine = tokens.next().ok_or("empty trace line")?.to_string();
        let dims = tokens.next().ok_or("missing dimensions")?;
        let (rows, cols) = dims
            .split_once('x')
            .ok_or_else(|| format!("bad dimensions {dims:?}"))?;
        let parse = |v: &str| v.parse::<u64>().map_err(|e| format!("{v:?}: {e}"));
        let mut fields = std::collections::BTreeMap::new();
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad field {token:?}"))?;
            if key == "bytes" {
                let (a, b) = value
                    .split_once('+')
                    .ok_or_else(|| format!("bad bytes {value:?}"))?;
                fields.insert("bytes_streamed", parse(a)?);
                fields.insert("bytes_auxiliary", parse(b)?);
            } else {
                fields.insert(
                    match key {
                        "nnz" => "nnz",
                        "windows" => "windows",
                        "stalls" => "stalls",
                        "macs" => "macs",
                        "stream" => "stream",
                        "fill" => "fill",
                        "xrel" => "xrel",
                        "red" => "red",
                        "mrg" => "mrg",
                        "inv" => "inv",
                        "total" => "total",
                        other => return Err(format!("unknown field {other:?}")),
                    },
                    parse(value)?,
                );
            }
        }
        let get = |k: &str| fields.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let trace = CycleTrace {
            engine,
            rows: rows.parse().map_err(|e| format!("rows: {e}"))?,
            cols: cols.parse().map_err(|e| format!("cols: {e}"))?,
            nnz: get("nnz")? as usize,
            windows: get("windows")? as usize,
            stalls: get("stalls")? as usize,
            mac_ops: get("macs")?,
            bytes_streamed: get("bytes_streamed")?,
            bytes_auxiliary: get("bytes_auxiliary")?,
            cycles: crate::config::CycleBreakdown {
                stream: get("stream")?,
                fill_drain: get("fill")?,
                x_reload: get("xrel")?,
                reduction: get("red")?,
                merge: get("mrg")?,
                invocation: get("inv")?,
            },
        };
        if trace.cycles.total() != get("total")? {
            return Err(format!(
                "total={} does not match the breakdown sum {}",
                get("total")?,
                trace.cycles.total()
            ));
        }
        Ok(trace)
    }
}

impl PerformanceReport {
    /// Renders the report as one `key=value` record line. Floating-point
    /// fields are written as IEEE-754 bit patterns in hex, so
    /// [`PerformanceReport::from_record`] round-trips *bit-exactly* — the
    /// basis of the committed format-compatibility fixtures.
    pub fn to_record(&self) -> String {
        format!(
            "engine={} latency_ms={:#018x} gflops={:#018x} bw_eff={:#018x} energy_eff={:#018x} \
             cycles={} underutil_pct={:#018x} bytes={}",
            self.engine,
            self.latency_ms.to_bits(),
            self.throughput_gflops.to_bits(),
            self.bandwidth_efficiency.to_bits(),
            self.energy_efficiency.to_bits(),
            self.cycles,
            self.underutilization_pct.to_bits(),
            self.bytes_streamed,
        )
    }

    /// Parses a [`PerformanceReport::to_record`] line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_record(line: &str) -> Result<Self, String> {
        let mut fields = std::collections::BTreeMap::new();
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("bad field {token:?}"))?;
            fields.insert(key, value);
        }
        let get = |k: &str| fields.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let bits = |k: &str| -> Result<f64, String> {
            let v = get(k)?;
            let hex = v
                .strip_prefix("0x")
                .ok_or_else(|| format!("{k}: expected hex bits, got {v:?}"))?;
            u64::from_str_radix(hex, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("{k}: {e}"))
        };
        Ok(PerformanceReport {
            engine: get("engine")?.to_string(),
            latency_ms: bits("latency_ms")?,
            throughput_gflops: bits("gflops")?,
            bandwidth_efficiency: bits("bw_eff")?,
            energy_efficiency: bits("energy_eff")?,
            cycles: get("cycles")?.parse().map_err(|e| format!("cycles: {e}"))?,
            underutilization_pct: bits("underutil_pct")?,
            bytes_streamed: get("bytes")?.parse().map_err(|e| format!("bytes: {e}"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CycleBreakdown;

    fn exec(engine: &'static str, cycles: u64, mhz: f64, bytes: u64) -> Execution {
        Execution {
            engine,
            y: vec![],
            cycles: CycleBreakdown {
                stream: cycles,
                ..Default::default()
            },
            clock_mhz: mhz,
            nnz: 100_000,
            rows: 1000,
            cols: 1000,
            stalls: 100_000,
            underutilization: 0.5,
            bytes_streamed: bytes,
            bytes_auxiliary: 0,
            windows: 1,
            mac_ops: 100_000,
        }
    }

    #[test]
    fn report_derives_all_metrics() {
        let e = exec("chason", 301_000, 301.0, 4096); // exactly 1 ms
        let r = PerformanceReport::from_execution(&e, 273.0, MeasuredPower::chason());
        assert!((r.latency_ms - 1.0).abs() < 1e-9);
        // Eq. 5: 2 * 101_000 / 1e6 ns = 0.202 GFLOPS.
        assert!((r.throughput_gflops - 0.202).abs() < 1e-9);
        assert!((r.bandwidth_efficiency - 0.202 / 273.0).abs() < 1e-12);
        assert!((r.energy_efficiency - 0.202 / 39.0).abs() < 1e-12);
        assert!((r.underutilization_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn energy_gain_compares_correctly() {
        let fast = PerformanceReport::from_execution(
            &exec("chason", 301_000, 301.0, 1000),
            273.0,
            MeasuredPower::chason(),
        );
        let slow = PerformanceReport::from_execution(
            &exec("serpens", 892_000, 223.0, 7000), // 4 ms
            273.0,
            MeasuredPower::serpens(),
        );
        assert!(fast.energy_gain_over(&slow) > 1.0);
    }

    #[test]
    fn zero_denominators_are_graceful() {
        let r = PerformanceReport::from_execution(
            &exec("chason", 0, 301.0, 0),
            0.0,
            MeasuredPower { watts: 0.0 },
        );
        assert_eq!(r.bandwidth_efficiency, 0.0);
        assert_eq!(r.energy_efficiency, 0.0);
        assert_eq!(r.energy_gain_over(&r), 1.0);
    }

    #[test]
    fn cycle_trace_round_trips_through_display() {
        let mut e = exec("chason", 301_000, 301.0, 4096);
        e.cycles = CycleBreakdown {
            stream: 88,
            fill_drain: 6,
            x_reload: 3,
            reduction: 12,
            merge: 17,
            invocation: 500,
        };
        e.bytes_auxiliary = 128;
        let trace = CycleTrace::from_execution(&e);
        let line = trace.to_string();
        let parsed: CycleTrace = line.parse().unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_string(), line);
    }

    #[test]
    fn cycle_trace_rejects_inconsistent_totals() {
        let line = "chason 10x10 nnz=5 windows=1 stalls=0 macs=5 stream=1 fill=1 \
                    xrel=0 red=0 mrg=0 inv=0 total=99 bytes=64+0";
        let err = line.parse::<CycleTrace>().unwrap_err();
        assert!(err.contains("total"), "{err}");
    }

    #[test]
    fn report_record_round_trips_bit_exactly() {
        let r = PerformanceReport::from_execution(
            &exec("chason", 301_000, 301.0, 4096),
            273.0,
            MeasuredPower::chason(),
        );
        let parsed = PerformanceReport::from_record(&r.to_record()).unwrap();
        assert_eq!(parsed, r);
        // Bit-exactness, not mere closeness.
        assert_eq!(
            parsed.throughput_gflops.to_bits(),
            r.throughput_gflops.to_bits()
        );
        assert_eq!(parsed.to_record(), r.to_record());
    }

    #[test]
    fn report_record_names_missing_fields() {
        let err = PerformanceReport::from_record("engine=chason cycles=5").unwrap_err();
        assert!(err.contains("latency_ms"), "{err}");
    }
}
