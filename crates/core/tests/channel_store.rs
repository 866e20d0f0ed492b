//! The stall-implicit channel store against a dense reference.
//!
//! `ChannelSchedule` keeps only occupied slots; every stall is implied.
//! This property builds random channels slot by slot — empty channels,
//! leading and trailing all-stall cycles, lane counts 1–8 — alongside a
//! dense `grid[cycle][lane]` of `Option<NzSlot>` that exists only here, and
//! checks every accessor, the packed data lists, and the CHSN and CHPL
//! bytes against what the dense grid implies.

use chason_core::element::{SparseElement, STALL_WORD};
use chason_core::export::{read_plan, write_plan, write_schedule};
use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use chason_core::schedule::{ChannelSchedule, NzSlot, ScheduledMatrix, SchedulerConfig};
use proptest::prelude::*;

type Dense = Vec<Vec<Option<NzSlot>>>;

/// Packs one dense channel row-major, stalls as the stall word.
fn dense_words(grid: &Dense, config: &SchedulerConfig) -> Vec<u64> {
    grid.iter()
        .flatten()
        .map(|slot| match slot {
            None => STALL_WORD,
            Some(nz) => SparseElement {
                value: nz.value,
                local_row: config.local_row(nz.row) as u16,
                pvt: nz.pvt,
                pe_src: nz.pe_src,
                local_col: nz.col as u16,
            }
            .pack(),
        })
        .collect()
}

fn u32s(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// The CHSN container written from dense grids padded to the longest.
fn dense_chsn(grids: &[Dense], s: &ScheduledMatrix) -> Vec<u8> {
    let cfg = &s.config;
    let cycles = grids.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = b"CHSN".to_vec();
    u32s(
        &mut out,
        &[
            1,
            cfg.channels as u32,
            cfg.pes_per_channel as u32,
            cfg.dependency_distance as u32,
            cfg.migration_hops as u32,
        ],
    );
    u64s(
        &mut out,
        &[s.rows as u64, s.cols as u64, s.nnz as u64, cycles as u64],
    );
    for grid in grids {
        let mut words = dense_words(grid, cfg);
        words.resize(cycles * cfg.pes_per_channel, STALL_WORD);
        u64s(&mut out, &words);
    }
    out
}

/// The CHPL container of a one-window plan, its grid written slot by slot
/// from the dense reference.
fn dense_chpl(grids: &[Dense], plan: &SpmvPlan) -> Vec<u8> {
    let w = &plan.passes[0].windows[0];
    let s = &w.schedule;
    let cfg = &s.config;
    let config_words = [
        cfg.channels as u32,
        cfg.pes_per_channel as u32,
        cfg.dependency_distance as u32,
        cfg.migration_scan_limit as u32,
        cfg.migration_hops as u32,
    ];
    let mut out = b"CHPL".to_vec();
    u32s(&mut out, &[1]);
    u64s(&mut out, &[plan.key.fingerprint]);
    u32s(&mut out, &config_words);
    u32s(&mut out, &[plan.engine.len() as u32]);
    out.extend_from_slice(plan.engine.as_bytes());
    u64s(
        &mut out,
        &[
            plan.window as u64,
            plan.rows as u64,
            plan.cols as u64,
            plan.nnz as u64,
            1,
        ],
    );
    let pass = &plan.passes[0];
    u64s(
        &mut out,
        &[
            pass.row_start as u64,
            pass.row_end as u64,
            pass.nnz as u64,
            1,
        ],
    );
    u64s(
        &mut out,
        &[
            w.col_start as u64,
            w.col_end as u64,
            w.nnz as u64,
            w.stalls as u64,
            w.stream_cycles as u64,
        ],
    );
    u32s(&mut out, &config_words);
    u64s(
        &mut out,
        &[
            s.rows as u64,
            s.cols as u64,
            s.nnz as u64,
            grids.len() as u64,
        ],
    );
    for (c, grid) in grids.iter().enumerate() {
        u64s(&mut out, &[c as u64, grid.len() as u64]);
        for cycle in grid {
            u64s(&mut out, &[cycle.len() as u64]);
            for slot in cycle {
                match slot {
                    None => out.push(0),
                    Some(nz) => {
                        out.push(1);
                        out.extend_from_slice(&nz.value.to_bits().to_le_bytes());
                        u64s(&mut out, &[nz.row as u64, nz.col as u64]);
                        out.extend_from_slice(&[u8::from(nz.pvt), nz.pe_src]);
                    }
                }
            }
        }
    }
    out
}

/// One drawn slot: `(cycle, lane, row, col, migrated)`.
type Drawn = (usize, usize, usize, usize, bool);

/// Builds a channel and its dense twin from drawn slots (later draws of a
/// position overwrite earlier ones) and a drawn minimum length, which adds
/// trailing all-stall cycles; unoccupied low cycles are leading stalls.
fn build(
    channel: usize,
    lanes: usize,
    min_cycles: usize,
    drawn: &[Drawn],
) -> (ChannelSchedule, Dense) {
    let mut ch = ChannelSchedule::new(channel, lanes);
    let mut grid: Dense = Vec::new();
    for (k, &(cycle, lane, row, col, migrated)) in drawn.iter().enumerate() {
        let lane = lane % lanes;
        let nz = NzSlot {
            value: 1.0 + k as f32,
            row,
            col,
            pvt: !migrated,
            pe_src: if migrated { (row % 8) as u8 } else { 0 },
        };
        let before = grid.get(cycle).and_then(|slots| slots[lane]);
        if grid.len() <= cycle {
            grid.resize(cycle + 1, vec![None; lanes]);
        }
        grid[cycle][lane] = Some(nz);
        assert_eq!(ch.insert(cycle, lane, nz), before);
    }
    ch.set_cycles(min_cycles);
    if grid.len() < min_cycles {
        grid.resize(min_cycles, vec![None; lanes]);
    }
    (ch, grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn store_matches_the_dense_grid(
        channels in 1usize..5,
        lanes in 1usize..9,
        lengths in proptest::collection::vec(0usize..14, 4),
        drawn in proptest::collection::vec(
            proptest::collection::vec((2usize..12, 0usize..8, 0usize..600, 0usize..8192, any::<bool>()), 0..20),
            4,
        ),
        empty_mask in 0u8..16,
    ) {
        let config = SchedulerConfig::toy(channels, lanes, 4);
        let mut store = Vec::new();
        let mut grids = Vec::new();
        for c in 0..channels {
            // Masked channels stay empty; the rest never fill cycles 0 and 1.
            let slots: &[Drawn] = if empty_mask & (1 << c) != 0 { &[] } else { &drawn[c] };
            let (ch, grid) = build(c, lanes, lengths[c], slots);
            store.push(ch);
            grids.push(grid);
        }
        let nnz: usize = grids.iter().flatten().flatten().flatten().count();
        for (ch, grid) in store.iter().zip(&grids) {
            prop_assert_eq!(ch.cycles(), grid.len());
            prop_assert_eq!(ch.lanes(), lanes);
            let occupied: Vec<(usize, usize, NzSlot)> = grid
                .iter()
                .enumerate()
                .flat_map(|(c, slots)| {
                    slots.iter().enumerate().filter_map(move |(l, s)| s.map(|nz| (c, l, nz)))
                })
                .collect();
            prop_assert_eq!(ch.nonzeros(), occupied.len());
            prop_assert_eq!(ch.stalls(), grid.len() * lanes - occupied.len());
            let got: Vec<(usize, usize, NzSlot)> =
                ch.occupied().map(|(c, l, nz)| (c, l, *nz)).collect();
            prop_assert_eq!(&got, &occupied);
            prop_assert_eq!(ch.occupied().next_back().map(|(c, l, nz)| (c, l, *nz)), occupied.last().copied());
            for cycle in 0..grid.len() + 2 {
                for lane in 0..lanes + 1 {
                    let want = grid.get(cycle).and_then(|s| s.get(lane).copied().flatten());
                    prop_assert_eq!(ch.slot(cycle, lane).copied(), want);
                }
            }
            prop_assert_eq!(ch.data_list(&config), dense_words(grid, &config));
            let mut trimmed = ch.clone();
            trimmed.trim();
            prop_assert_eq!(trimmed.cycles(), occupied.last().map_or(0, |&(c, _, _)| c + 1));
        }

        let schedule = ScheduledMatrix {
            config,
            channels: store,
            rows: 600,
            cols: 8192,
            nnz,
        };
        let longest = grids.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(schedule.stream_cycles(), longest);
        prop_assert_eq!(schedule.scheduled_nonzeros(), nnz);
        prop_assert_eq!(schedule.stalls(), longest * lanes * channels - nnz);

        let mut chsn = Vec::new();
        write_schedule(&mut chsn, &schedule).unwrap();
        prop_assert_eq!(chsn, dense_chsn(&grids, &schedule));

        let plan = SpmvPlan {
            key: PlanKey { fingerprint: 0x5eed, config },
            engine: "chason".to_string(),
            window: 8192,
            rows: 600,
            cols: 8192,
            nnz,
            passes: vec![PassPlan {
                row_start: 0,
                row_end: 600,
                nnz,
                windows: vec![PlanWindow {
                    col_start: 0,
                    col_end: 8192,
                    nnz,
                    stalls: schedule.stalls(),
                    stream_cycles: schedule.stream_cycles(),
                    schedule,
                }],
            }],
        };
        let mut chpl = Vec::new();
        write_plan(&mut chpl, &plan).unwrap();
        prop_assert_eq!(&chpl, &dense_chpl(&grids, &plan));
        prop_assert_eq!(read_plan(&chpl[..]).unwrap(), plan);
    }
}
