//! The `BENCH_<name>.json` schema: emission and strict parsing.
//!
//! Reports are hand-emitted and hand-parsed (the workspace is offline;
//! there is no serde_json) through `chason_telemetry::json`'s byte
//! cursor and escaper, as span JSONL is. The emitter writes one result
//! object per line inside the `results` array so committed baselines diff
//! cleanly, and the parser accepts exactly that layout. Floats use Rust's
//! shortest round-trip formatting, so `parse(to_json(r)) == r` holds
//! bit-exactly for finite values.

use chason_telemetry::json::{escape_into, Cursor};

/// Version stamped into every report; bump when the schema changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Machine identity recorded alongside the numbers, so a baseline from a
/// different host class is recognizable in review.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS` at run time.
    pub os: String,
    /// `std::env::consts::ARCH` at run time.
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: u64,
}

impl HostInfo {
    /// Samples the current host.
    pub fn current() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        }
    }
}

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable benchmark identifier, `group/case` (e.g. `plan/chason-t4`).
    pub id: String,
    /// Input fingerprint of the benchmark (of the matrix or of the payload
    /// bytes), so a baseline measured on different data cannot be
    /// compared silently.
    pub fingerprint: u64,
    /// Untimed iterations executed before sampling started.
    pub warmup_iters: u64,
    /// Timed samples taken.
    pub samples: u64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration across the samples.
    pub median_ns_per_iter: f64,
    /// Median absolute deviation of ns/iter across the samples — the
    /// noise scale the regression comparator guards with.
    pub mad_ns_per_iter: f64,
    /// Bytes moved per iteration; `0` when throughput is not meaningful
    /// for this benchmark (e.g. planning).
    pub bytes_per_iter: u64,
}

impl BenchResult {
    /// Throughput in GB/s, when `bytes_per_iter` is meaningful.
    pub fn throughput_gbps(&self) -> Option<f64> {
        if self.bytes_per_iter == 0 || self.median_ns_per_iter <= 0.0 {
            None
        } else {
            Some(self.bytes_per_iter as f64 / self.median_ns_per_iter)
        }
    }
}

/// A full `BENCH_<name>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for reports this build writes).
    pub schema_version: u64,
    /// Report name: the `<name>` in `BENCH_<name>.json`.
    pub name: String,
    /// Measurement profile the run used (`smoke` or `full`).
    pub profile: String,
    /// Host the numbers were measured on.
    pub host: HostInfo,
    /// One entry per benchmark, in registry order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// The file name this report is committed under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Looks a result up by its stable id.
    pub fn get(&self, id: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Serializes the report; see the module docs for the layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema_version\":{},\"name\":\"{}\",\"profile\":\"{}\",",
            self.schema_version,
            escape(&self.name),
            escape(&self.profile)
        ));
        out.push_str(&format!(
            "\"host\":{{\"os\":\"{}\",\"arch\":\"{}\",\"cpus\":{}}},\"results\":[\n",
            escape(&self.host.os),
            escape(&self.host.arch),
            self.host.cpus
        ));
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                concat!(
                    "{{\"id\":\"{}\",\"fingerprint\":{},\"warmup_iters\":{},",
                    "\"samples\":{},\"iters_per_sample\":{},\"median_ns_per_iter\":{},",
                    "\"mad_ns_per_iter\":{},\"bytes_per_iter\":{}}}"
                ),
                escape(&r.id),
                r.fingerprint,
                r.warmup_iters,
                r.samples,
                r.iters_per_sample,
                fmt_f64(r.median_ns_per_iter),
                fmt_f64(r.mad_ns_per_iter),
                r.bytes_per_iter
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parses a document produced by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first deviation from
    /// the emitted schema, and rejects schema versions newer than this
    /// build understands.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut p = Cursor::new(text);
        p.expect_str("{\"schema_version\":")?;
        let schema_version = parse_u64(&mut p)?;
        if schema_version > SCHEMA_VERSION {
            return Err(format!(
                "report schema v{schema_version} is newer than this build (v{SCHEMA_VERSION})"
            ));
        }
        p.expect_str(",\"name\":")?;
        let name = p.parse_string()?;
        p.expect_str(",\"profile\":")?;
        let profile = p.parse_string()?;
        p.expect_str(",\"host\":{\"os\":")?;
        let os = p.parse_string()?;
        p.expect_str(",\"arch\":")?;
        let arch = p.parse_string()?;
        p.expect_str(",\"cpus\":")?;
        let cpus = parse_u64(&mut p)?;
        p.expect_str("},\"results\":[")?;
        skip_newlines(&mut p);
        let mut results = Vec::new();
        if p.peek() != Some(b']') {
            loop {
                results.push(parse_result(&mut p)?);
                skip_newlines(&mut p);
                match p.peek() {
                    Some(b',') => {
                        p.bump();
                        skip_newlines(&mut p);
                    }
                    _ => break,
                }
            }
        }
        p.expect_str("]}")?;
        skip_newlines(&mut p);
        if !p.at_end() {
            return p.fail("trailing bytes after report object");
        }
        Ok(BenchReport {
            schema_version,
            name,
            profile,
            host: HostInfo { os, arch, cpus },
            results,
        })
    }
}

/// Formats a float with Rust's shortest round-trip representation;
/// non-finite values (which valid measurements never produce) are clamped
/// to 0 so the output stays parseable JSON.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn skip_newlines(p: &mut Cursor<'_>) {
    while matches!(p.peek(), Some(b'\n') | Some(b'\r')) {
        p.bump();
    }
}

fn parse_u64(p: &mut Cursor<'_>) -> Result<u64, String> {
    let text = p.number_text()?;
    text.parse::<u64>().map_err(|e| format!("{text:?}: {e}"))
}

fn parse_f64(p: &mut Cursor<'_>) -> Result<f64, String> {
    let text = p.number_text()?;
    text.parse::<f64>().map_err(|e| format!("{text:?}: {e}"))
}

fn parse_result(p: &mut Cursor<'_>) -> Result<BenchResult, String> {
    p.expect_str("{\"id\":")?;
    let id = p.parse_string()?;
    p.expect_str(",\"fingerprint\":")?;
    let fingerprint = parse_u64(p)?;
    p.expect_str(",\"warmup_iters\":")?;
    let warmup_iters = parse_u64(p)?;
    p.expect_str(",\"samples\":")?;
    let samples = parse_u64(p)?;
    p.expect_str(",\"iters_per_sample\":")?;
    let iters_per_sample = parse_u64(p)?;
    p.expect_str(",\"median_ns_per_iter\":")?;
    let median_ns_per_iter = parse_f64(p)?;
    p.expect_str(",\"mad_ns_per_iter\":")?;
    let mad_ns_per_iter = parse_f64(p)?;
    p.expect_str(",\"bytes_per_iter\":")?;
    let bytes_per_iter = parse_u64(p)?;
    p.expect_str("}")?;
    Ok(BenchResult {
        id,
        fingerprint,
        warmup_iters,
        samples,
        iters_per_sample,
        median_ns_per_iter,
        mad_ns_per_iter,
        bytes_per_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            name: "smoke".to_string(),
            profile: "smoke".to_string(),
            host: HostInfo {
                os: "linux".to_string(),
                arch: "x86_64".to_string(),
                cpus: 8,
            },
            results: vec![
                BenchResult {
                    id: "spmv/static-t4".to_string(),
                    fingerprint: 0xDEAD_BEEF,
                    warmup_iters: 3,
                    samples: 10,
                    iters_per_sample: 17,
                    median_ns_per_iter: 10_431.25,
                    mad_ns_per_iter: 12.5,
                    bytes_per_iter: 480_000,
                },
                BenchResult {
                    id: "plan/chason-t1".to_string(),
                    fingerprint: 7,
                    warmup_iters: 1,
                    samples: 5,
                    iters_per_sample: 1,
                    median_ns_per_iter: 2.25e6,
                    mad_ns_per_iter: 0.0,
                    bytes_per_iter: 0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        assert_eq!(BenchReport::parse(&json).unwrap(), report);
    }

    #[test]
    fn empty_results_round_trip() {
        let mut report = sample_report();
        report.results.clear();
        assert_eq!(BenchReport::parse(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn throughput_is_none_when_not_meaningful() {
        let report = sample_report();
        assert!(report
            .get("plan/chason-t1")
            .unwrap()
            .throughput_gbps()
            .is_none());
        let gbps = report
            .get("spmv/static-t4")
            .unwrap()
            .throughput_gbps()
            .unwrap();
        assert!((gbps - 480_000.0 / 10_431.25).abs() < 1e-9);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let json =
            sample_report()
                .to_json()
                .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let err = BenchReport::parse(&json).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn garbage_is_rejected_with_offset() {
        assert!(BenchReport::parse("not json").is_err());
        let mut json = sample_report().to_json();
        json.push('x');
        let err = BenchReport::parse(&json).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
