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
use chason_core::schedule::{
    ChannelSchedule, NzSlot, ScheduledMatrix, SchedulerConfig, STORE_COLS, STORE_LANES,
    STORE_PE_SRC, STORE_ROWS,
};
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
    u32s(&mut out, &[2]);
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

/// A one-window plan around `schedule`.
fn one_window_plan(schedule: ScheduledMatrix) -> SpmvPlan {
    let (rows, cols, nnz) = (schedule.rows, schedule.cols, schedule.nnz);
    SpmvPlan {
        key: PlanKey {
            fingerprint: 0x5eed,
            config: schedule.config,
        },
        engine: "chason".to_string(),
        window: 8192,
        rows,
        cols,
        nnz,
        passes: vec![PassPlan {
            row_start: 0,
            row_end: rows,
            nnz,
            windows: vec![PlanWindow {
                col_start: 0,
                col_end: cols,
                nnz,
                stalls: schedule.stalls(),
                stream_cycles: schedule.stream_cycles(),
                schedule,
            }],
        }],
    }
}

/// Slots at each edge of the store's range — its last row, column, lane
/// and `PE_src`, and its last cycle — come back unchanged from `insert`
/// through `slot`/`occupied`, and the first four through CHPL. (A slot at
/// the last cycle cannot go through CHPL: the grid spells out every stall
/// before it.) One step past any edge is refused.
#[test]
fn slots_at_the_range_limits_round_trip() {
    let edge = NzSlot {
        value: -0.375,
        row: STORE_ROWS - 1,
        col: STORE_COLS - 1,
        pvt: false,
        pe_src: (STORE_PE_SRC - 1) as u8,
    };
    let lane = STORE_LANES - 1;
    let mut ch = ChannelSchedule::new(0, 1);
    assert_eq!(ch.insert(1, lane, edge), None);
    assert_eq!(ch.insert(0, 0, NzSlot::private(2.0, 7, 0)), None);
    assert_eq!((ch.cycles(), ch.lanes()), (2, STORE_LANES));
    assert_eq!(ch.slot(1, lane), Some(edge));
    let want = vec![(0, 0, NzSlot::private(2.0, 7, 0)), (1, lane, edge)];
    assert_eq!(ch.occupied().collect::<Vec<_>>(), want);

    let schedule = ScheduledMatrix {
        config: SchedulerConfig::toy(1, 8, 4),
        channels: vec![ch.clone()],
        rows: STORE_ROWS,
        cols: STORE_COLS,
        nnz: 2,
    };
    let plan = one_window_plan(schedule);
    let mut chpl = Vec::new();
    write_plan(&mut chpl, &plan).unwrap();
    let back = read_plan(&chpl[..]).unwrap();
    assert_eq!(back, plan);
    assert_eq!(
        back.passes[0].windows[0].schedule.channels[0]
            .occupied()
            .collect::<Vec<_>>(),
        want
    );

    let last = u32::MAX as usize;
    let mut long = ChannelSchedule::new(3, 2);
    long.insert(last, 1, edge);
    assert_eq!(long.cycles(), last + 1);
    assert_eq!(long.slot(last, 1), Some(edge));
    assert_eq!(long.occupied().next(), Some((last, 1, edge)));
    assert_eq!(long.take(last, 1), Some(edge));

    let beyond = [
        (last + 1, 0, NzSlot::private(1.0, 0, 0)),
        (0, STORE_LANES, NzSlot::private(1.0, 0, 0)),
        (0, 0, NzSlot::private(1.0, STORE_ROWS, 0)),
        (0, 0, NzSlot::private(1.0, 0, STORE_COLS)),
        (
            0,
            0,
            NzSlot {
                pe_src: STORE_PE_SRC as u8,
                ..edge
            },
        ),
    ];
    for (cycle, lane, nz) in beyond {
        let refused = std::panic::catch_unwind(|| {
            ChannelSchedule::new(0, 1).insert(cycle, lane, nz);
        });
        assert!(refused.is_err(), "({cycle}, {lane}, {nz:?}) was stored");
    }
    // Positions outside the range hold nothing and cannot be taken.
    assert_eq!(ch.slot(last + 1, 0), None);
    assert_eq!(ch.slot(1, STORE_LANES), None);
    assert_eq!(ch.take(1, lane + 1), None);
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
                ch.occupied().collect();
            prop_assert_eq!(&got, &occupied);
            prop_assert_eq!(ch.occupied().next_back(), occupied.last().copied());
            for cycle in 0..grid.len() + 2 {
                for lane in 0..lanes + 1 {
                    let want = grid.get(cycle).and_then(|s| s.get(lane).copied().flatten());
                    prop_assert_eq!(ch.slot(cycle, lane), want);
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

        let plan = one_window_plan(schedule);
        let mut chpl = Vec::new();
        write_plan(&mut chpl, &plan).unwrap();
        prop_assert_eq!(&chpl, &dense_chpl(&grids, &plan));
        prop_assert_eq!(read_plan(&chpl[..]).unwrap(), plan);
    }
}
