use chason_core::schedule::SchedulerConfig;
use serde::{Deserialize, Serialize};

/// Which of the paper's two accelerators a configuration describes. Both
/// share one streaming datapath (§4); they differ in what the PEGs carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Design {
    /// The Chasoň accelerator (§4). It schedules each column window like
    /// Serpens, then runs CrHCS's cross-channel migration pass
    /// ([`chason_core::schedule::migrated`]) over it, because its ScUG can
    /// hold migrated partial sums. Its PEs carry a full ScUG (one `URAM_sh`
    /// per neighbour-channel PE), its PEGs a Reduction Unit and the
    /// extended Rearrange/Arbiter/Merger path. Runs at 301 MHz post-route
    /// on the Alveo U55c.
    Chason,
    /// The Serpens accelerator (Song et al., DAC 2022), the paper's primary
    /// baseline (§4.4). It schedules each window with the intra-channel
    /// PE-aware OoO scheme and its PEs have only a private partial-sum
    /// URAM: no ScUGs, no Reduction Unit, and an Arbiter/Merger that merely
    /// concatenates private streams. Its U55c implementation closes timing
    /// at 223 MHz (§5.2). Running a CrHCS schedule on it is a routing
    /// violation: the hardware cannot segregate migrated partial sums.
    Serpens,
}

impl Design {
    /// The design's tag, `"chason"` or `"serpens"`, as plans, CHPL files
    /// and [`Execution::engine`] carry it.
    pub fn name(self) -> &'static str {
        match self {
            Design::Chason => "chason",
            Design::Serpens => "serpens",
        }
    }

    /// Deployed ScUG size under `sched`: `URAM_sh` banks per PE.
    ///
    /// Serpens PEs carry no ScUG, so its size is 0. Chasoň's scales
    /// *linearly* with the migration-hop count: accepting elements from `h`
    /// ring neighbours requires segregated partial-sum storage for each
    /// neighbour channel's `pes_per_channel` source PEs, i.e.
    /// `h × pes_per_channel` banks. This is exactly the cost §6.1 cites for
    /// deploying only one hop on the U55c ("each extra hop costs another
    /// set of `URAM_sh` banks per PE"); no sharing across hops is modelled
    /// because partial sums from different home channels can never merge
    /// before the Reduction Unit.
    pub fn scug_size(self, sched: &SchedulerConfig) -> usize {
        match self {
            Design::Chason => sched.pes_per_channel * sched.migration_hops,
            Design::Serpens => 0,
        }
    }
}

/// Configuration of a simulated accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Which accelerator this is: Chasoň or the Serpens baseline.
    pub design: Design,
    /// Scheduling parameters (channels, PEs, dependency distance).
    pub sched: SchedulerConfig,
    /// Implemented clock frequency in MHz (301 for Chasoň, 223 for Serpens
    /// — both post-place-and-route on the Alveo U55c, §4.5/§5.2).
    pub clock_mhz: f64,
    /// Column-window width (`W = 8192`, §4.1).
    pub window: usize,
}

impl AcceleratorConfig {
    /// The Chasoň implementation point: paper scheduling config at 301 MHz.
    pub fn chason() -> Self {
        AcceleratorConfig {
            design: Design::Chason,
            sched: SchedulerConfig::paper(),
            clock_mhz: 301.0,
            window: chason_core::element::WINDOW,
        }
    }

    /// The Serpens baseline point: same parallelism at 223 MHz (§5.2).
    pub fn serpens() -> Self {
        AcceleratorConfig {
            design: Design::Serpens,
            clock_mhz: 223.0,
            ..AcceleratorConfig::chason()
        }
    }

    /// Seconds per clock cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.clock_mhz * 1e6)
    }

    /// Validates the configuration.
    pub fn is_valid(&self) -> bool {
        self.sched.is_valid()
            && self.clock_mhz > 0.0
            && self.window > 0
            && self.window <= chason_core::element::WINDOW
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig::chason()
    }
}

/// Aggregate bandwidth of `channels` Alveo U55c HBM2 channels at 14.37 GB/s
/// each, in GB/s. Both designs stream `A` over 16 channels, so Eq. 7's
/// denominator is `hbm_bandwidth_gbps(16)`; all 32 give the 460 GB/s peak.
pub fn hbm_bandwidth_gbps(channels: usize) -> f64 {
    14.37 * channels as f64
}

/// FP32 values the final merged output stream carries per cycle (16, §4.3).
pub const MERGE_WIDTH: usize = 16;

/// FP32 words per cycle when reloading the on-chip `x` buffers between
/// windows (one 512-bit HBM channel feeds the broadcast).
pub const X_RELOAD_LANES: usize = 16;

/// Effective initiation-interval inflation of the memory-path loops
/// (matrix stream, x reload, reduction sweep, output merge).
///
/// The schedule model assumes one beat per clock; the real U55c pipeline
/// loses throughput to DRAM burst boundaries, refresh, AXI handshaking and
/// HLS II hiccups. This factor is calibrated so the simulated absolute
/// latencies land on Table 3's measurements (both engines show the same
/// ≈2.8× inflation over the ideal stream, so speedup ratios are
/// unaffected). [`StreamTiming::u55c`] derives the value from beat-level
/// DRAM timing.
pub const STREAM_II: f64 = 2.8;

/// Fixed per-invocation cycles (kernel control, FIFO flush, XRT kick) —
/// the latency floor visible in the paper's smallest measurements
/// (CollegeMsg: 3 µs ≈ 900 cycles end to end).
pub const INVOCATION_OVERHEAD_CYCLES: u64 = 500;

/// Beat-level timing of one streamed HBM channel: where [`STREAM_II`]'s
/// ≈2.8× inflation comes from.
///
/// The schedule model assumes one 512-bit beat per clock. A real HBM2
/// pseudo-channel cannot sustain that against a 300 MHz consumer: reads are
/// issued in bursts, row activations insert gaps between bursts, and
/// periodic refresh steals whole windows. [`StreamTiming::effective_ii`]
/// composes those effects into cycles per beat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamTiming {
    /// Beats delivered per burst (BL4 on HBM2 = 2 × 512-bit beats at the
    /// kernel clock).
    pub beats_per_burst: u64,
    /// Dead cycles between consecutive bursts of the same row
    /// (tCCD + AXI handshake).
    pub inter_burst_gap: u64,
    /// Additional dead cycles when a burst crosses a DRAM row boundary
    /// (tRP + tRCD).
    pub row_miss_penalty: u64,
    /// Beats per DRAM row (1 KB row / 64 B beat = 16).
    pub beats_per_row: u64,
    /// Cycles between refresh windows (tREFI at the kernel clock).
    pub refresh_interval: u64,
    /// Cycles a refresh window blocks the channel (tRFC).
    pub refresh_penalty: u64,
}

impl StreamTiming {
    /// The Alveo U55c operating point at a 301 MHz kernel clock; its
    /// [`effective_ii`](Self::effective_ii) is the calibrated
    /// [`STREAM_II`].
    pub fn u55c() -> Self {
        StreamTiming {
            beats_per_burst: 2,
            inter_burst_gap: 2,
            row_miss_penalty: 10,
            beats_per_row: 16,
            refresh_interval: 1170, // 3.9 us at 301 MHz (per-bank tREFI)
            refresh_penalty: 78,    // 260 ns tRFC
        }
    }

    /// Cycles to stream `beats` sequentially through one channel. A burst
    /// length, row length or refresh interval of 0, or one longer than the
    /// stream, disables that effect.
    pub fn stream_cycles(&self, beats: u64) -> u64 {
        let mut cycles = beats; // one transfer cycle per beat
        if self.beats_per_burst > 0 {
            let bursts = beats.div_ceil(self.beats_per_burst);
            cycles += bursts.saturating_sub(1) * self.inter_burst_gap;
        }
        if self.beats_per_row > 0 {
            let row_crossings = beats.div_ceil(self.beats_per_row).saturating_sub(1);
            cycles += row_crossings * self.row_miss_penalty;
        }
        if let Some(refreshes) = cycles.checked_div(self.refresh_interval) {
            cycles += refreshes * self.refresh_penalty;
        }
        cycles
    }

    /// Effective cycles per beat of a long stream (the [`STREAM_II`] this
    /// timing implies).
    pub fn effective_ii(&self) -> f64 {
        let beats = 1_000_000u64;
        self.stream_cycles(beats) as f64 / beats as f64
    }
}

/// Cycle accounting of one SpMV execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycles spent streaming the scheduled data lists (one beat per cycle
    /// per channel, channels in lockstep).
    pub stream: u64,
    /// Pipeline fill/drain cycles (the accumulator depth, once per window).
    pub fill_drain: u64,
    /// Cycles reloading the dense-vector BRAMs between column windows.
    pub x_reload: u64,
    /// Reduction Unit sweep cycles (Chasoň only: adder tree over the ScUGs,
    /// §4.2.2).
    pub reduction: u64,
    /// Arbiter/Merger output cycles (§4.3).
    pub merge: u64,
    /// Fixed kernel-invocation overhead cycles.
    pub invocation: u64,
}

impl CycleBreakdown {
    /// Total cycles of the execution.
    pub fn total(&self) -> u64 {
        self.stream
            + self.fill_drain
            + self.x_reload
            + self.reduction
            + self.merge
            + self.invocation
    }
}

/// The result of one simulated SpMV execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// The design that ran, as [`Design::name`] tags it.
    pub engine: &'static str,
    /// The computed output vector `y = A·x`.
    pub y: Vec<f32>,
    /// Cycle accounting.
    pub cycles: CycleBreakdown,
    /// Clock frequency the cycles run at (MHz).
    pub clock_mhz: f64,
    /// Source-matrix non-zeros.
    pub nnz: usize,
    /// Source-matrix rows.
    pub rows: usize,
    /// Source-matrix columns.
    pub cols: usize,
    /// Stall slots across all windows' schedules.
    pub stalls: usize,
    /// PE underutilization over the whole run (Eq. 4), in `[0, 1]`.
    pub underutilization: f64,
    /// Bytes streamed from the sparse-matrix HBM channels.
    pub bytes_streamed: u64,
    /// Bytes moved on the auxiliary channels: dense-vector `x` reloads and
    /// the `y` writeback (the paper's 17th-19th channels).
    pub bytes_auxiliary: u64,
    /// Column windows processed.
    pub windows: usize,
    /// Multiply-accumulate operations performed (sanity: equals `nnz`).
    pub mac_ops: u64,
}

impl Execution {
    /// Wall-clock latency in seconds.
    pub fn latency_seconds(&self) -> f64 {
        self.cycles.total() as f64 / (self.clock_mhz * 1e6)
    }

    /// Wall-clock latency in milliseconds (the unit of Table 3).
    pub fn latency_ms(&self) -> f64 {
        self.latency_seconds() * 1e3
    }

    /// Throughput in GFLOPS per Eq. 5: `2 (NNZ + K) / latency_ns`, where
    /// `K` is the dense-vector length.
    pub fn throughput_gflops(&self) -> f64 {
        let latency_ns = self.latency_seconds() * 1e9;
        if latency_ns == 0.0 {
            0.0
        } else {
            2.0 * (self.nnz + self.cols) as f64 / latency_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_clocks() {
        assert_eq!(AcceleratorConfig::chason().clock_mhz, 301.0);
        assert_eq!(AcceleratorConfig::serpens().clock_mhz, 223.0);
        assert!(AcceleratorConfig::chason().is_valid());
        assert!(AcceleratorConfig::serpens().is_valid());
        assert_eq!(AcceleratorConfig::default(), AcceleratorConfig::chason());
    }

    #[test]
    fn u55c_timing_is_the_calibrated_stream_ii() {
        let ii = StreamTiming::u55c().effective_ii();
        assert!(
            (ii - STREAM_II).abs() < 1e-4,
            "u55c timing implies II {ii:.6}, calibration uses {STREAM_II}"
        );
    }

    /// Hand-computed cycle counts for a short stream, each effect isolated.
    #[test]
    fn burst_and_row_accounting_is_exact() {
        let t = StreamTiming {
            beats_per_burst: 2,
            inter_burst_gap: 3,
            row_miss_penalty: 10,
            beats_per_row: 4,
            refresh_interval: u64::MAX,
            refresh_penalty: 0,
        };
        assert_eq!(t.stream_cycles(0), 0);
        // 8 beats = 4 bursts -> 3 gaps; 2 rows -> 1 row crossing.
        assert_eq!(t.stream_cycles(8), 8 + 3 * 3 + 10);
        // 1 beat: a single burst, no gaps, no crossings.
        assert_eq!(t.stream_cycles(1), 1);
        // 2 beats: still one burst and one row.
        assert_eq!(t.stream_cycles(2), 2);
        // 3 beats: second burst opens -> one gap.
        assert_eq!(t.stream_cycles(3), 3 + 3);
        // 5 beats: 3 bursts (2 gaps), second row (1 crossing).
        assert_eq!(t.stream_cycles(5), 5 + 2 * 3 + 10);
    }

    /// Refresh windows tax exactly the cycles that cross a tREFI boundary.
    #[test]
    fn refresh_accounting_is_exact() {
        let t = StreamTiming {
            beats_per_burst: u64::MAX,
            inter_burst_gap: 0,
            row_miss_penalty: 0,
            beats_per_row: u64::MAX,
            refresh_interval: 100,
            refresh_penalty: 7,
        };
        assert_eq!(t.stream_cycles(99), 99);
        assert_eq!(t.stream_cycles(100), 100 + 7);
        assert_eq!(t.stream_cycles(250), 250 + 2 * 7);
        // A u55c stream shorter than tREFI sees no refresh tax.
        let u55c = StreamTiming::u55c();
        let no_refresh = StreamTiming {
            refresh_interval: u64::MAX,
            ..u55c
        };
        assert_eq!(u55c.stream_cycles(64), no_refresh.stream_cycles(64));
    }

    #[test]
    fn hbm_bandwidth_is_channels_times_14_37() {
        assert!((hbm_bandwidth_gbps(16) - 229.92).abs() < 1e-9);
        assert!((hbm_bandwidth_gbps(32) - 460.0).abs() < 0.2);
    }

    #[test]
    fn cycle_seconds_inverts_frequency() {
        let cfg = AcceleratorConfig::chason();
        assert!((cfg.cycle_seconds() * 301e6 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_wider_than_wire_format_is_invalid() {
        let cfg = AcceleratorConfig {
            window: 8193,
            ..AcceleratorConfig::chason()
        };
        assert!(!cfg.is_valid());
    }

    #[test]
    fn breakdown_totals() {
        let b = CycleBreakdown {
            stream: 10,
            fill_drain: 2,
            x_reload: 3,
            reduction: 4,
            merge: 5,
            invocation: 6,
        };
        assert_eq!(b.total(), 30);
        assert_eq!(CycleBreakdown::default().total(), 0);
    }

    #[test]
    fn execution_metrics() {
        let e = Execution {
            engine: "test",
            y: vec![],
            cycles: CycleBreakdown {
                stream: 1000,
                ..Default::default()
            },
            clock_mhz: 100.0,
            nnz: 4000,
            rows: 10,
            cols: 1000,
            stalls: 0,
            underutilization: 0.0,
            bytes_streamed: 0,
            bytes_auxiliary: 0,
            windows: 1,
            mac_ops: 4000,
        };
        // 1000 cycles at 100 MHz = 10 us = 10_000 ns.
        assert!((e.latency_seconds() - 1e-5).abs() < 1e-15);
        // Eq. 5: 2 * (4000 + 1000) / 10_000 ns = 1 GFLOPS.
        assert!((e.throughput_gflops() - 1.0).abs() < 1e-12);
        assert!((e.latency_ms() - 0.01).abs() < 1e-12);
    }
}
