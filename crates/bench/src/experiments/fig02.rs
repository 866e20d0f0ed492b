//! Fig. 2 — PE0 timelines under the three scheduling schemes.
//!
//! The paper's worked example: a small matrix whose PE0 (channel 0) owns a
//! multi-entry row, scheduled row-based (Fig. 2a), PE-aware (Fig. 2b) and
//! with CrHCS (Fig. 2c). The paper quotes asymptotic figures of 0.10 / 0.60
//! / 1.0 non-zeros per cycle and 90% / 40% / 0% PE underutilization; the
//! reproduction must preserve the ordering and rough magnitudes.

use chason_core::metrics::ScheduleMetrics;
use chason_core::schedule::{
    Crhcs, PeAware, RowBased, ScheduledMatrix, Scheduler, SchedulerConfig,
};
use chason_sparse::CooMatrix;
use chason_verify::verify_scheduler_contract;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 2 experiment: one entry per scheduling scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig02Result {
    /// Metrics per scheduler, in paper order (2a, 2b, 2c).
    pub schemes: Vec<SchemeResult>,
}

/// Per-scheme metrics plus the PE0 timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeResult {
    /// Scheduler name.
    pub name: String,
    /// Global schedule metrics.
    pub metrics: ScheduleMetrics,
    /// PE0-of-channel-0 timeline, one token per cycle (`r<row>` or `.`).
    pub pe0_timeline: Vec<String>,
    /// Non-zeros per cycle on PE0.
    pub pe0_nz_per_cycle: f64,
    /// PE0 underutilization in percent.
    pub pe0_underutilization_pct: f64,
}

/// The worked-example matrix: 2 channels × 4 PEs (8 total). PE0 of channel
/// 0 owns a RAW-chained row plus a few singleton rows; channel 1 is rich in
/// migratable values.
pub fn example_matrix() -> CooMatrix {
    let mut t: Vec<(usize, usize, f32)> = vec![
        // PE0 of channel 0 owns rows ≡ 0 (mod 8).
        // Row 0 carries a 3-deep RAW chain (the paper's r0_op1..op3).
        (0, 0, 1.0),
        (0, 1, 2.0),
        (0, 2, 3.0),
        // Rows 8 and 16 add two more single values (r8, r16 in the figure).
        (8, 0, 11.0),
        (16, 1, 21.0),
        // The other PEs of channel 0 (rows 1, 2, 3) hold one value each.
        (1, 0, 5.0),
        (2, 0, 6.0),
        (3, 0, 7.0),
    ];
    // Channel 1 (rows ≡ 4..7 mod 8) is densely populated: 16 singleton
    // rows, four per PE — the migration donor pool.
    for k in 0..16usize {
        let row = 4 + (k % 4) + 8 * (k / 4);
        t.push((row, k % 3, 100.0 + k as f32));
    }
    #[allow(clippy::expect_used)] // literal in-range triplets
    CooMatrix::from_triplets(32, 3, t).expect("example triplets are valid")
}

fn pe0_timeline(s: &ScheduledMatrix) -> (Vec<String>, f64, f64) {
    let cycles = s.stream_cycles();
    let channel = &s.channels[0];
    let mut tokens = Vec::with_capacity(cycles);
    let mut busy = 0usize;
    for c in 0..cycles {
        match channel.slot(c, 0) {
            Some(nz) => {
                busy += 1;
                tokens.push(format!("r{}", nz.row));
            }
            None => tokens.push(".".to_string()),
        }
    }
    let nz_per_cycle = if cycles == 0 {
        0.0
    } else {
        busy as f64 / cycles as f64
    };
    let under = if cycles == 0 {
        0.0
    } else {
        100.0 * (1.0 - nz_per_cycle)
    };
    (tokens, nz_per_cycle, under)
}

/// Runs all three schedulers on the worked example.
pub fn run() -> Fig02Result {
    let config = SchedulerConfig::toy(2, 4, 10);
    let matrix = example_matrix();
    let mut schemes = Vec::new();
    type ScheduleFn<'a> = Box<dyn Fn() -> ScheduledMatrix + 'a>;
    let schedulers: Vec<(&str, ScheduleFn)> = vec![
        (
            "row-based (fig 2a)",
            Box::new(|| RowBased::new().schedule(&matrix, &config)),
        ),
        (
            "pe-aware (fig 2b)",
            Box::new(|| PeAware::new().schedule(&matrix, &config)),
        ),
        (
            "crhcs (fig 2c)",
            Box::new(|| Crhcs::new().schedule(&matrix, &config)),
        ),
    ];
    for (name, schedule) in schedulers {
        let s = schedule();
        let report = verify_scheduler_contract(&s, &matrix);
        assert!(report.is_clean(), "{name}: {report}");
        let (pe0_timeline, pe0_nz_per_cycle, pe0_underutilization_pct) = pe0_timeline(&s);
        schemes.push(SchemeResult {
            name: name.to_string(),
            metrics: ScheduleMetrics::from_schedule(name, &s),
            pe0_timeline,
            pe0_nz_per_cycle,
            pe0_underutilization_pct,
        });
    }
    Fig02Result { schemes }
}

/// Renders the paper-style summary.
pub fn report(result: &Fig02Result) -> String {
    let mut out = String::new();
    out.push_str("Fig. 2 — PE0 timelines under the three scheduling schemes\n");
    out.push_str(
        "(paper asymptotes: 0.10 / 0.60 / 1.0 nz/cycle; 90% / 40% / 0% underutilization)\n\n",
    );
    for s in &result.schemes {
        out.push_str(&format!(
            "{:22}  stream {:3} cycles | global underutil {:5.1}% | PE0: {:.2} nz/cycle, {:5.1}% idle\n",
            s.name,
            s.metrics.cycles,
            s.metrics.underutilization_pct,
            s.pe0_nz_per_cycle,
            s.pe0_underutilization_pct,
        ));
        out.push_str(&format!("    PE0 timeline: {}\n", s.pe0_timeline.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_the_paper() {
        let r = run();
        let [a, b, c] = &r.schemes[..] else {
            panic!("expected 3 schemes")
        };
        // Row-based is the slowest; CrHCS the fastest.
        assert!(a.metrics.cycles >= b.metrics.cycles);
        assert!(b.metrics.cycles >= c.metrics.cycles);
        assert!(a.pe0_nz_per_cycle < b.pe0_nz_per_cycle || a.metrics.cycles > b.metrics.cycles);
        assert!(
            c.metrics.underutilization_pct <= b.metrics.underutilization_pct,
            "crhcs {} vs pe-aware {}",
            c.metrics.underutilization_pct,
            b.metrics.underutilization_pct
        );
    }

    #[test]
    fn row_based_pe0_is_raw_bound() {
        let r = run();
        // Row 0's 3-value chain: values at cycles 0, 10, 20.
        let a = &r.schemes[0];
        assert_eq!(a.pe0_timeline[0], "r0");
        assert_eq!(a.pe0_timeline[10], "r0");
        assert_eq!(a.pe0_timeline[20], "r0");
        assert!(a.pe0_nz_per_cycle < 0.3);
    }

    #[test]
    fn crhcs_shortens_the_stream() {
        let r = run();
        assert!(
            r.schemes[2].metrics.cycles < r.schemes[1].metrics.cycles,
            "crhcs {} vs pe-aware {}",
            r.schemes[2].metrics.cycles,
            r.schemes[1].metrics.cycles
        );
    }

    #[test]
    fn report_mentions_every_scheme() {
        let s = report(&run());
        assert!(s.contains("row-based"));
        assert!(s.contains("pe-aware"));
        assert!(s.contains("crhcs"));
    }
}
