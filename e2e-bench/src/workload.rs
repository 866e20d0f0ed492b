//! The four traffic shapes, the seeded inputs they send, and the request
//! streams each connection draws from. The program under test only ever
//! sees what these functions generate from `--seed`.

use chason::sparse::generators::power_law;
use chason::sparse::CooMatrix;
use chason_serve::proto::{Engine, SolverKind};

/// Connections (and generator threads) every workload drives.
pub const CONNECTIONS: usize = 2;
/// Distinct `x` vectors per workload; requests pick one, so replies can be
/// checked against references computed before the clock starts.
pub const X_POOL: usize = 8;
/// Open-loop arrival rate of `update-mix-open`, over both connections.
pub const OPEN_LOOP_RPS: f64 = 35.0;
/// Iterations of every solve (tolerance 0, so none stops early).
pub const SOLVE_ITERATIONS: u32 = 8;
/// Row-degree skew of every generated pattern (a mid SNAP exponent).
const ALPHA: f64 = 1.6;
/// Where every matrix pattern is drawn from. Patterns do not follow
/// `--seed`: the modeled latency depends on the pattern alone, and drawing
/// `sim-spmv`'s pattern from the seed moved it by 3–6 % (IQR ÷ median over
/// ten seeds), which no tight bound survives. The seed still sets each
/// pattern's non-zero count (see [`jittered`]), the SPD matrices' values,
/// the `x` vectors and every request stream.
const PATTERN_SEED: u64 = 0x00c4_a50e;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, depth 1, one large SPD matrix, Chasoň and Serpens
    /// alternating: the simulator's replay dominates each request.
    SimSpmv,
    /// Closed loop, 16 in flight per connection, eight small matrices on
    /// the CPU engine: the connection layer and dispatch dominate.
    PipelinedCpu,
    /// Open loop at a fixed Poisson rate: SpMV, solves and diagonal
    /// updates against four SPD matrices.
    UpdateMixOpen,
    /// `sim-spmv`'s traffic through a router over three shards.
    ShardedSpmv,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SimSpmv,
        Workload::PipelinedCpu,
        Workload::UpdateMixOpen,
        Workload::ShardedSpmv,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSpmv => "sim-spmv",
            Workload::PipelinedCpu => "pipelined-cpu",
            Workload::UpdateMixOpen => "update-mix-open",
            Workload::ShardedSpmv => "sharded-spmv",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Most requests one connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::SimSpmv | Workload::ShardedSpmv => 1,
            Workload::PipelinedCpu => 16,
            Workload::UpdateMixOpen => 32,
        }
    }

    /// Whether requests follow an arrival schedule instead of replies.
    pub fn open_loop(self) -> bool {
        self == Workload::UpdateMixOpen
    }

    /// Whether the deployment is a router over shards.
    pub fn sharded(self) -> bool {
        self == Workload::ShardedSpmv
    }

    /// The engines this workload's SpMV traffic uses; set-up ends once
    /// each has answered for every matrix.
    pub fn engines(self) -> &'static [Engine] {
        match self {
            Workload::SimSpmv | Workload::ShardedSpmv => &[Engine::Chason, Engine::Serpens],
            Workload::PipelinedCpu => &[Engine::Cpu],
            Workload::UpdateMixOpen => &[Engine::Chason],
        }
    }
}

/// Input sizes: the benchmark's, or a reduced set for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small inputs that exercise every path in about a second.
    Small,
}

/// SplitMix64: the benchmark's only random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// An independent stream for `(seed, a, b)`.
pub fn stream(seed: u64, a: u64, b: u64) -> u64 {
    let mut s =
        seed ^ a.wrapping_mul(0xa076_1d64_78bd_642f) ^ b.wrapping_mul(0xe703_7ed1_a0b4_28db);
    splitmix64(&mut s)
}

/// `nnz` less a seeded draw below 0.4 % of it: enough that no two seeds
/// model exactly the same latency, little enough to keep it steady.
pub fn jittered(nnz: usize, rng: &mut u64) -> usize {
    nnz - (splitmix64(rng) % (nnz as u64 / 250).max(1)) as usize
}

/// A symmetric matrix with a power-law pattern and a strictly dominant
/// positive diagonal, hence SPD. `pattern_nnz` entries are drawn from
/// `pattern_seed` and mirrored, so the off-diagonal count is about twice
/// that; the values are drawn from `value_seed`.
pub fn spd_matrix(n: usize, pattern_nnz: usize, pattern_seed: u64, value_seed: u64) -> CooMatrix {
    let pattern = power_law(n, n, pattern_nnz, ALPHA, pattern_seed);
    let mut rng = value_seed;
    let mut triplets = Vec::with_capacity(2 * pattern.nnz() + n);
    let mut row_sum = vec![0.0f32; n];
    for &(i, j, _) in pattern.iter() {
        if i == j {
            continue;
        }
        let v = 0.05 + (splitmix64(&mut rng) % 400) as f32 / 1000.0;
        triplets.push((i, j, v));
        triplets.push((j, i, v));
        row_sum[i] += v;
        row_sum[j] += v;
    }
    for (i, &sum) in row_sum.iter().enumerate() {
        triplets.push((i, i, sum + 1.0));
    }
    #[allow(clippy::expect_used)] // every coordinate is below n by construction
    let matrix =
        CooMatrix::from_triplets_summing(n, n, triplets).expect("coordinates are in range");
    matrix
}

/// Cumulative Zipf(1) weights over `k` ranks: rank `r` has weight
/// `1 / (r + 1)`.
pub fn zipf_cdf(k: usize) -> Vec<f64> {
    let total: f64 = (1..=k).map(|r| 1.0 / r as f64).sum();
    let mut acc = 0.0;
    (1..=k)
        .map(|r| {
            acc += 1.0 / r as f64 / total;
            acc
        })
        .collect()
}

/// Draws a rank from a [`zipf_cdf`] table.
pub fn zipf_draw(cdf: &[f64], rng: &mut u64) -> usize {
    let u = unit(rng);
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Poisson arrivals conditioned on their count: `count` instants drawn
/// uniformly over `[0, span)` and sorted. Fixing the count keeps the
/// offered load of every round equal across seeds.
pub fn arrivals(count: usize, span: f64, rng: &mut u64) -> Vec<f64> {
    let mut times: Vec<f64> = (0..count).map(|_| unit(rng) * span).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Everything a workload sends, generated from the seed before any
/// deployment starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The matrices, in load order. All are square with one size.
    pub matrices: Vec<CooMatrix>,
    /// The `x` pool SpMV requests draw from.
    pub xs: Vec<Vec<f32>>,
    /// The right-hand side every solve uses.
    pub b: Vec<f32>,
}

/// Generates `workload`'s inputs for `seed`.
pub fn inputs(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let small = scale == Scale::Small;
    // Matrix `k` of a workload with tag `tag`: its pattern seed, and its
    // non-zero count and value seed drawn from `--seed`.
    let drawn = |tag: u64, k: u64, nnz: usize| {
        let mut rng = stream(seed, tag, k);
        (stream(PATTERN_SEED, tag, k), jittered(nnz, &mut rng), rng)
    };
    let matrices: Vec<CooMatrix> = match workload {
        Workload::SimSpmv | Workload::ShardedSpmv => {
            let (n, nnz) = if small {
                (2048, 12_000)
            } else {
                (16_384, 120_000)
            };
            let (pattern, nnz, values) = drawn(2, 0, nnz);
            vec![spd_matrix(n, nnz, pattern, values)]
        }
        Workload::PipelinedCpu => {
            let (n, nnz) = if small { (512, 4_000) } else { (2048, 16_000) };
            (0..8)
                .map(|k| {
                    let (pattern, nnz, _) = drawn(3, k, nnz);
                    power_law(n, n, nnz, ALPHA, pattern)
                })
                .collect()
        }
        Workload::UpdateMixOpen => {
            let (n, nnz) = if small {
                (1024, 6_000)
            } else {
                (10_240, 8_000)
            };
            (0..4)
                .map(|k| {
                    let (pattern, nnz, values) = drawn(4, k, nnz);
                    spd_matrix(n, nnz, pattern, values)
                })
                .collect()
        }
    };
    let n = matrices[0].rows();
    let mut rng = stream(seed, 5, 0);
    let xs = (0..X_POOL)
        .map(|_| {
            let phase = unit(&mut rng) as f32 * std::f32::consts::TAU;
            (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
        })
        .collect();
    let b = (0..n).map(|i| 1.0 + (i % 5) as f32 * 0.25).collect();
    Inputs { matrices, xs, b }
}

/// One request a connection will send, before encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `y = A·x` with pool vector `x`.
    Spmv {
        /// Matrix index.
        matrix: usize,
        /// Engine.
        engine: Engine,
        /// Index into the `x` pool.
        x: usize,
    },
    /// An 8-iteration solve on the Chasoň engine.
    Solve {
        /// Matrix index.
        matrix: usize,
        /// CG or Jacobi.
        solver: SolverKind,
    },
    /// Revalues 1-3 distinct diagonal entries upward.
    Update {
        /// Matrix index.
        matrix: usize,
        /// `(row, new value)` pairs.
        revalues: Vec<(usize, f32)>,
    },
}

/// The seeded request sequence of one connection.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    conn: usize,
    rng: u64,
    drawn: u64,
    zipf: Vec<f64>,
    rows: usize,
}

impl OpStream {
    /// The stream of connection `conn` over matrices of `rows` rows.
    pub fn new(workload: Workload, conn: usize, seed: u64, rows: usize) -> OpStream {
        OpStream {
            workload,
            conn,
            rng: stream(seed, 6, conn as u64),
            drawn: 0,
            zipf: zipf_cdf(8),
            rows,
        }
    }

    /// The matrices this connection may update (`update-mix-open` splits
    /// its four matrices two per connection, so no two connections write
    /// the same matrix).
    fn owned(&self) -> [usize; 2] {
        [2 * self.conn, 2 * self.conn + 1]
    }

    /// Draws the next request. `current` gives the diagonal value a row
    /// holds now as far as this connection knows, so updates only grow it.
    pub fn next(&mut self, current: impl Fn(usize, usize) -> f32) -> Op {
        let owned = self.owned();
        let rng = &mut self.rng;
        let drawn = self.drawn;
        self.drawn += 1;
        let x = (splitmix64(rng) % X_POOL as u64) as usize;
        match self.workload {
            Workload::SimSpmv | Workload::ShardedSpmv => {
                // Alternate engines; the two connections start opposite.
                let engine = if (drawn + self.conn as u64).is_multiple_of(2) {
                    Engine::Chason
                } else {
                    Engine::Serpens
                };
                Op::Spmv {
                    matrix: 0,
                    engine,
                    x,
                }
            }
            Workload::PipelinedCpu => Op::Spmv {
                matrix: zipf_draw(&self.zipf, rng),
                engine: Engine::Cpu,
                x,
            },
            Workload::UpdateMixOpen => {
                let matrix = owned[(splitmix64(rng) % 2) as usize];
                let roll = splitmix64(rng) % 100;
                if roll < 55 {
                    Op::Spmv {
                        matrix,
                        engine: Engine::Chason,
                        x,
                    }
                } else if roll < 85 {
                    let solver = if splitmix64(rng).is_multiple_of(2) {
                        SolverKind::Cg
                    } else {
                        SolverKind::Jacobi
                    };
                    Op::Solve { matrix, solver }
                } else {
                    let count = 1 + (splitmix64(rng) % 3) as usize;
                    let mut revalues: Vec<(usize, f32)> = Vec::with_capacity(count);
                    while revalues.len() < count {
                        let row = (splitmix64(rng) % self.rows as u64) as usize;
                        if revalues.iter().any(|&(r, _)| r == row) {
                            continue;
                        }
                        let bump = 0.5 + (splitmix64(rng) % 1000) as f32 / 1000.0;
                        revalues.push((row, current(matrix, row) + bump));
                    }
                    Op::Update { matrix, revalues }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_generator_is_symmetric_and_strictly_diagonally_dominant() {
        let m = spd_matrix(300, 1500, 9, 10);
        let mut diag = vec![0.0f32; 300];
        let mut off = vec![0.0f32; 300];
        let mut entries = std::collections::BTreeMap::new();
        for &(r, c, v) in m.iter() {
            entries.insert((r, c), v);
            if r == c {
                diag[r] = v;
            } else {
                off[r] += v.abs();
            }
        }
        for (&(r, c), &v) in &entries {
            assert_eq!(entries.get(&(c, r)), Some(&v), "asymmetric at ({r}, {c})");
        }
        for i in 0..300 {
            assert!(diag[i] > off[i], "row {i}: {} <= {}", diag[i], off[i]);
        }
        assert!(m.nnz() > 2000, "pattern was mirrored: {}", m.nnz());
        assert_eq!(m, spd_matrix(300, 1500, 9, 10));
    }

    #[test]
    fn zipf_draws_follow_inverse_rank_weights() {
        let cdf = zipf_cdf(8);
        assert!((cdf[7] - 1.0).abs() < 1e-12);
        let mut rng = 42;
        let mut counts = [0usize; 8];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf_draw(&cdf, &mut rng)] += 1;
        }
        let total: f64 = (1..=8).map(|r| 1.0 / r as f64).sum();
        for (r, &count) in counts.iter().enumerate() {
            let expected = draws as f64 / (r + 1) as f64 / total;
            let err = (count as f64 - expected).abs() / expected;
            assert!(err < 0.05, "rank {r}: {count} vs {expected:.0}");
        }
        // Rank 0 is drawn about twice as often as rank 1.
        assert!(counts[0] > counts[1] * 18 / 10);
    }

    #[test]
    fn schedules_and_streams_are_deterministic_per_seed() {
        let a = arrivals(100, 4.0, &mut stream(7, 1, 2));
        assert_eq!(a, arrivals(100, 4.0, &mut stream(7, 1, 2)));
        assert_ne!(a, arrivals(100, 4.0, &mut stream(8, 1, 2)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));

        let draw = |seed: u64| {
            let mut s = OpStream::new(Workload::UpdateMixOpen, 1, seed, 1024);
            (0..200).map(|_| s.next(|_, _| 10.0)).collect::<Vec<_>>()
        };
        let ops = draw(3);
        assert_eq!(ops, draw(3));
        assert_ne!(ops, draw(4));
        // Connection 1 touches only matrices 2 and 3, and every update
        // grows the diagonal it revalues.
        for op in &ops {
            match op {
                Op::Spmv { matrix, .. } | Op::Solve { matrix, .. } => {
                    assert!([2, 3].contains(matrix));
                }
                Op::Update { matrix, revalues } => {
                    assert!([2, 3].contains(matrix));
                    assert!((1..=3).contains(&revalues.len()));
                    assert!(revalues.iter().all(|&(_, v)| v > 10.0));
                }
            }
        }
        let inputs_a = inputs(Workload::PipelinedCpu, Scale::Small, 5);
        let inputs_b = inputs(Workload::PipelinedCpu, Scale::Small, 5);
        assert_eq!(inputs_a.matrices, inputs_b.matrices);
        assert_eq!(inputs_a.xs, inputs_b.xs);
        // Another seed moves the non-zero counts, each by under 0.4 %.
        let inputs_c = inputs(Workload::PipelinedCpu, Scale::Small, 6);
        let counts = |i: &Inputs| i.matrices.iter().map(CooMatrix::nnz).collect::<Vec<_>>();
        assert_ne!(counts(&inputs_a), counts(&inputs_c));
        for (a, c) in counts(&inputs_a).into_iter().zip(counts(&inputs_c)) {
            assert!(a.abs_diff(c) * 250 <= a, "{a} vs {c}");
        }
    }
}
