use super::{
    ChannelSchedule, PeAware, Placed, RowMap, ScheduledMatrix, Scheduler, SchedulerConfig,
    WindowRows,
};
use serde::{Deserialize, Serialize};

/// Cross-HBM-channel out-of-order scheduling (CrHCS) — §3, the paper's
/// contribution.
///
/// CrHCS starts from the PE-aware schedule and *migrates* non-zeros across
/// channels to fill stall slots ([`migrated`]):
///
/// 1. channels are processed in ring order: channel `c`'s stalls are filled
///    with values pulled from channel `c + 1`'s data list (§3.1 limits
///    migration to the immediate next channel);
/// 2. a migrated element keeps its home identity via `pvt = 0` and a 3-bit
///    `PE_src` tag (§3.2) so the architecture can segregate its partial sum
///    into the right `URAM_sh`;
/// 3. candidates that would violate the RAW dependency distance in the
///    destination PE are skipped, not dropped — they remain available for
///    later slots (§3.3);
/// 4. the last channel may only pull values that *originally* belonged to
///    channel 0 (never re-migrating channel 1's values a second hop),
///    keeping load imbalance minimal (§3.4);
/// 5. trailing all-stall cycles are trimmed; the lists stay equalized
///    virtually (see [`ScheduledMatrix`]).
///
/// The result: shorter data lists (fewer HBM transfers) and lower PE
/// underutilization, at the cost of the extra URAM + reduction hardware the
/// `chason-sim` crate models.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crhcs {
    _private: (),
}

/// Statistics of one CrHCS migration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Non-zeros moved to a neighbouring channel.
    pub migrated: usize,
    /// Stall slots that existed before migration (PE-aware schedule).
    pub stalls_before: usize,
    /// Stall slots remaining after migration and re-equalization.
    pub stalls_after: usize,
    /// Candidates skipped at least once due to the RAW distance.
    pub raw_skips: usize,
    /// Channel-list length (cycles) before migration.
    pub cycles_before: usize,
    /// Channel-list length (cycles) after migration.
    pub cycles_after: usize,
}

impl Crhcs {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Crhcs { _private: () }
    }
}

/// CrHCS's migration pass over `schedule`, a PE-aware schedule: returns
/// it with its stall slots filled by values migrated from ring-neighbour
/// channels under the schedule's own configuration and its trailing
/// all-stall cycles trimmed, and the pass's report. `schedule` itself is
/// left untouched, so a PE-aware schedule and its migration can be kept
/// side by side without a copy.
///
/// [`Crhcs`] is [`PeAware`] followed by this pass, so migrating a PE-aware
/// schedule yields exactly the CrHCS schedule of the same rows.
///
/// # Panics
///
/// Panics if the schedule's configuration is invalid.
pub fn migrated(schedule: &ScheduledMatrix) -> (ScheduledMatrix, MigrationReport) {
    let (work, migrated, raw_skips) = migration_passes(schedule);
    let out = ScheduledMatrix {
        channels: schedule
            .channels
            .iter()
            .zip(&work)
            .map(|(ch, w)| ch.migrated(&w.taken, &w.migrants))
            .collect(),
        ..*schedule
    };
    let report = MigrationReport {
        migrated,
        stalls_before: schedule.stalls(),
        stalls_after: out.stalls(),
        raw_skips,
        cycles_before: schedule.stream_cycles(),
        cycles_after: out.stream_cycles(),
    };
    (out, report)
}

/// Runs every hop's migration passes over `input` without writing it:
/// each pass reads the input channels and records its moves in the
/// per-channel [`Working`] state, whose taken flags and (sorted) migrants
/// then say what each output channel holds. Returns that state, the values
/// migrated and the RAW skips.
fn migration_passes(input: &ScheduledMatrix) -> (Vec<Working>, usize, usize) {
    let config = input.config;
    assert!(config.is_valid(), "invalid scheduler configuration");
    // The pass state indexes slots and rows with 32 bits.
    assert!(
        input.rows <= u32::MAX as usize
            && input
                .channels
                .iter()
                .all(|ch| ch.nonzeros() < u32::MAX as usize),
        "schedule exceeds the migration pass's 32-bit indices"
    );
    let mut work: Vec<Working> = input.channels.iter().map(Working::new).collect();
    let mut migrated = 0usize;
    let mut raw_skips = 0usize;
    if config.channels >= 2 {
        let mut scratch = MigrationScratch::new(input.rows, &config);
        // Farthest sources first (§6.1's extended scheduling scope):
        // migrated values cannot hop twice, so letting the most distant
        // destination skim a donor's tail before nearer neighbours fill up
        // spreads a hub channel's surplus across the whole scope instead
        // of freezing it all in the immediate predecessor.
        for hop in (1..=config.migration_hops.min(config.channels - 1)).rev() {
            for dest in 0..config.channels {
                let src = (dest + hop) % config.channels;
                let (m, s) = migrate_channel(input, &mut work, dest, src, hop, &mut scratch);
                migrated += m;
                raw_skips += s;
            }
        }
    }
    // One pass's migrants ascend; a multi-hop channel receives several runs.
    for w in &mut work {
        w.migrants.sort_unstable_by_key(Placed::key);
    }
    (work, migrated, raw_skips)
}

/// One channel's state while the migration passes run: what its output
/// channel will hold, tracked beside the untouched input channel.
struct Working {
    /// One byte per cycle, bit `l` set when lane `l` holds a value; as
    /// long as the channel: the input's length, extended while the channel
    /// is a destination.
    masks: Vec<u8>,
    /// Per input occupied slot: its value has migrated out.
    taken: Vec<bool>,
    /// Private input values not yet migrated out.
    eligible: usize,
    /// Values migrated in, each at its destination slot.
    migrants: Vec<Placed>,
}

impl Working {
    fn new(channel: &ChannelSchedule) -> Self {
        let mut masks = vec![0u8; channel.cycles()];
        let mut eligible = 0;
        for (cycle, lane, nz) in channel.occupied() {
            masks[cycle] |= 1 << lane;
            eligible += usize::from(nz.pvt);
        }
        Working {
            masks,
            taken: vec![false; channel.nonzeros()],
            eligible,
            migrants: Vec::new(),
        }
    }
}

/// Dense per-row migration state, indexed by the channel-local row
/// `(row / total_pes) · P + lane` and shared by every [`migrate_channel`]
/// pass of one schedule, plus the per-pass bucket queue. Each pass resets
/// exactly the row entries it touched, so the work per pass stays linear in
/// its candidates and the source channel's length. Indices, cycles and
/// rows are 32-bit ([`migration_passes`] checks that they fit).
struct MigrationScratch {
    row_map: RowMap,
    pes: usize,
    /// Per local row: 1 + index into `candidates` of the row's deepest
    /// remaining position (0 = none left).
    tail: Vec<u32>,
    /// Per `local row · P + destination lane`: 1 + the last cycle a value
    /// of the row was placed into that lane (0 = never).
    last_cycle: Vec<u32>,
    /// Candidate positions, grouped by source cycle in ascending order and
    /// row-descending within a cycle.
    candidates: Vec<Candidate>,
    /// Local rows whose `tail` this pass set.
    rows: Vec<u32>,
    /// `last_cycle` indices this pass set.
    placed: Vec<u32>,
    /// Per source cycle: index of the cycle's first candidate.
    first: Vec<u32>,
    /// Per source cycle: the bucket, bit `k` set when candidate
    /// `first[cycle] + k` is its row's current tail.
    bucket: Vec<u8>,
    /// One bit per source cycle: the cycle's bucket is non-empty.
    nonempty: Vec<u64>,
    /// The source cycle's candidates while they are being sorted.
    group: Vec<Candidate>,
    /// Candidates migrated this pass.
    taken: Vec<u32>,
}

/// One still-private value of the source channel a destination may pull.
#[derive(Clone, Copy)]
pub(super) struct Candidate {
    /// Source cycle.
    cycle: u32,
    /// Row.
    row: u32,
    /// Channel-local row index.
    local: u32,
    /// The row's previous (shallower) candidate, in the `tail` encoding.
    link: u32,
    /// Index of the slot in the source's occupied order.
    slot: u32,
    /// Source lane (the migrant's `PE_src`).
    lane: u8,
}

impl MigrationScratch {
    fn new(rows: usize, config: &SchedulerConfig) -> Self {
        let local_rows = rows.div_ceil(config.total_pes()) * config.pes_per_channel;
        MigrationScratch {
            row_map: RowMap::new(config),
            pes: config.pes_per_channel,
            tail: vec![0; local_rows],
            last_cycle: vec![0; local_rows * config.pes_per_channel],
            candidates: Vec::new(),
            rows: Vec::new(),
            placed: Vec::new(),
            first: Vec::new(),
            bucket: Vec::new(),
            nonempty: Vec::new(),
            group: Vec::new(),
            taken: Vec::new(),
        }
    }

    /// Channel-local index of a row.
    fn local(&self, row: u32) -> u32 {
        let (local_row, _, lane) = self.row_map.split(row);
        (local_row * self.pes + lane) as u32
    }

    /// Clears everything the finished pass wrote and sizes the bucket
    /// queue for a source of `cycles` cycles.
    fn reset(&mut self, cycles: usize) {
        for &r in &self.rows {
            self.tail[r as usize] = 0;
        }
        for &i in &self.placed {
            self.last_cycle[i as usize] = 0;
        }
        self.candidates.clear();
        self.rows.clear();
        self.placed.clear();
        self.taken.clear();
        self.first.resize(cycles, 0);
        self.bucket.clear();
        self.bucket.resize(cycles, 0);
        self.nonempty.clear();
        self.nonempty.resize(cycles.div_ceil(64), 0);
    }

    /// Appends the sorted `group` of one source cycle to `candidates`,
    /// threading each row's stack through its previous candidate.
    fn flush_group(&mut self) {
        let Some(cycle) = self.group.first().map(|c| c.cycle as usize) else {
            return;
        };
        self.first[cycle] = self.candidates.len() as u32;
        self.group
            .sort_unstable_by_key(|c| std::cmp::Reverse(c.row));
        for k in 0..self.group.len() {
            let mut cand = self.group[k];
            let r = cand.local as usize;
            if self.tail[r] == 0 {
                self.rows.push(cand.local);
            }
            cand.link = self.tail[r];
            self.candidates.push(cand);
            self.tail[r] = self.candidates.len() as u32;
        }
        self.group.clear();
    }

    /// Queues candidate `index` (its row's new tail) in its cycle's bucket.
    fn enqueue(&mut self, index: usize) {
        let cycle = self.candidates[index].cycle as usize;
        self.bucket[cycle] |= 1 << (index - self.first[cycle] as usize);
        self.nonempty[cycle / 64] |= 1 << (cycle % 64);
    }

    /// Removes candidate `index` from its cycle's bucket.
    fn dequeue(&mut self, index: usize) {
        let cycle = self.candidates[index].cycle as usize;
        self.bucket[cycle] &= !(1 << (index - self.first[cycle] as usize));
        if self.bucket[cycle] == 0 {
            self.nonempty[cycle / 64] &= !(1 << (cycle % 64));
        }
    }

    /// The highest source cycle below `cycle` with a non-empty bucket.
    fn nonempty_below(&self, cycle: usize) -> Option<usize> {
        let below = cycle.checked_sub(1)?;
        let mut word = below / 64;
        let mut bits = self.nonempty[word] & (u64::MAX >> (63 - below % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + 63 - bits.leading_zeros() as usize);
            }
            word = word.checked_sub(1)?;
            bits = self.nonempty[word];
        }
    }
}

/// Fills `dest`'s stall slots with still-private values from `src`, the
/// channel `hop` ring steps downstream, reading the values from `input`
/// and recording the moves in `work`.
///
/// A migration is only performed when it moves a value to a *strictly
/// earlier* cycle than it occupied in its home channel (`src_cycle >
/// dest_cycle`): channels run in lockstep, so relocating a value sideways or
/// later can never shorten the stream — it would merely relabel which PEG is
/// idle (the pathology would be migrating an entire channel into another,
/// leaving the stream length unchanged). So a source value at or above the
/// destination's first free cycle can never move, and is never offered.
/// Candidates are consumed from the source's **tail** first, which is what
/// lets the source list trim after its late values leave and produces the
/// even load balance of Fig. 13.
///
/// Rows are offered in (tail cycle desc, row desc) order from a bucket
/// queue: one bucket per source cycle holding the rows whose deepest
/// remaining value sits there — at most one per source lane, so at most P,
/// kept row-descending — a bitset of non-empty buckets, and a top cursor.
/// A taken row's tail moves to a shallower cycle and a RAW-blocked row
/// keeps its place, so the deepest tail never grows and the cursor only
/// moves down; blocked rows are stepped over in place instead of popped
/// and re-pushed.
///
/// Returns `(migrated, raw_skips)`.
fn migrate_channel(
    input: &ScheduledMatrix,
    work: &mut [Working],
    dest: usize,
    src: usize,
    hop: usize,
    scratch: &mut MigrationScratch,
) -> (usize, usize) {
    if dest == src {
        return (0, 0);
    }
    let config = &input.config;
    // Split each donor's surplus evenly across its destinations: when this
    // pass runs, `hop` passes (including this one) will still pull from
    // `src`, so this destination may take at most a 1/hop share of every
    // private value left there, movable or not. With a single hop the quota
    // is the whole surplus and behaviour is identical to the deployed
    // design.
    let quota = work[src].eligible.div_ceil(hop);
    if quota == 0 {
        return (0, 0);
    }
    let src_len = work[src].masks.len();
    // The destination may be shorter than the source (virtual
    // equalization): its implicit padding is eligible stall space, so
    // extend it to the source's length before filling.
    let target = &mut work[dest];
    if target.masks.len() < src_len {
        target.masks.resize(src_len, 0);
    }
    let pes = config.pes_per_channel;
    let all_lanes = u8::MAX >> (8 - pes);
    let first_free = target
        .masks
        .iter()
        .position(|&mask| !mask & all_lanes != 0)
        .unwrap_or(target.masks.len());

    // Group candidate positions by source row, in stream order. Only
    // private values are eligible: a value that already migrated into `src`
    // from its own neighbour must not hop a second channel (§3.4). The
    // per-row grouping matters for performance: a RAW-chained heavy row can
    // contribute thousands of candidates that are all blocked for the same
    // reason, and they must be skipped in O(1), not re-scanned per slot.
    scratch.reset(src_len);
    let source = &input.channels[src];
    let taken = &work[src].taken;
    let (start, slots) = source.occupied_after(first_free);
    for (slot, placed) in (start..).zip(slots) {
        if !placed.pvt() || taken[slot] {
            continue;
        }
        let cycle = placed.cycle() as u32;
        if scratch.group.first().is_some_and(|c| c.cycle != cycle) {
            scratch.flush_group();
        }
        let row = placed.row() as u32;
        scratch.group.push(Candidate {
            cycle,
            row,
            local: scratch.local(row),
            link: 0,
            slot: slot as u32,
            lane: placed.lane() as u8,
        });
    }
    scratch.flush_group();
    for i in 0..scratch.rows.len() {
        let r = scratch.rows[i] as usize;
        scratch.enqueue(scratch.tail[r] as usize - 1);
    }
    let mut top = scratch.nonempty_below(src_len);

    let d = config.dependency_distance;
    let scan_limit = config.migration_scan_limit.max(1);
    // RAW tracking per (dest lane, row) lives in `scratch.last_cycle`: the
    // last cycle a value of `row` was scheduled into that PE. Private rows
    // of `dest` are disjoint from the source's rows, so only migrated
    // values need tracking; placements happen in ascending cycle order, so
    // tracking the last cycle suffices.
    let mut migrated = 0usize;
    let mut raw_skips = 0usize;
    let target = &mut work[dest];
    'slots: for cycle in first_free..target.masks.len() {
        let mut free = !target.masks[cycle] & all_lanes;
        while free != 0 {
            let lane = free.trailing_zeros() as usize;
            free &= free - 1;
            // Once even the deepest remaining candidate is no later than
            // the destination cycle, no further slot (cycles only grow)
            // can move work earlier.
            let Some(deepest) = top.filter(|&t| t > cycle && migrated < quota) else {
                break 'slots;
            };
            // Offer rows deepest-tail-first until one passes the RAW check
            // for this destination PE; rows blocked here stay queued for
            // other lanes and later cycles.
            let mut blocked = 0usize;
            let mut at = deepest;
            let mut pending = scratch.bucket[at];
            loop {
                if pending == 0 {
                    match scratch.nonempty_below(at) {
                        Some(next) if next > cycle => {
                            at = next;
                            pending = scratch.bucket[at];
                        }
                        // Every remaining row is no deeper than this slot.
                        _ => break,
                    }
                }
                let k = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let index = scratch.first[at] as usize + k;
                let cand = scratch.candidates[index];
                let r = cand.local as usize;
                let raw_slot = r * pes + lane;
                let prev = scratch.last_cycle[raw_slot] as usize;
                if prev != 0 && cycle < prev - 1 + d {
                    raw_skips += 1;
                    blocked += 1;
                    if blocked >= scan_limit {
                        break;
                    }
                    continue;
                }
                // Migrate: tag with the source lane; the source slot is
                // freed when the pass ends.
                let moved = source.placed(cand.slot as usize).migrant(cycle, lane);
                target.migrants.push(moved);
                target.masks[cycle] |= 1 << lane;
                scratch.taken.push(index as u32);
                if prev == 0 {
                    scratch.placed.push(raw_slot as u32);
                }
                scratch.last_cycle[raw_slot] = cycle as u32 + 1;
                migrated += 1;
                scratch.dequeue(index);
                scratch.tail[r] = cand.link;
                if cand.link != 0 {
                    scratch.enqueue(cand.link as usize - 1);
                }
                if scratch.bucket[deepest] == 0 {
                    top = scratch.nonempty_below(deepest);
                }
                break;
            }
        }
    }
    let donor = &mut work[src];
    donor.eligible -= migrated;
    for &index in &scratch.taken {
        let cand = scratch.candidates[index as usize];
        donor.taken[cand.slot as usize] = true;
        donor.masks[cand.cycle as usize] &= !(1 << cand.lane);
    }
    (migrated, raw_skips)
}

impl Scheduler for Crhcs {
    fn name(&self) -> &'static str {
        "crhcs (chason)"
    }

    fn schedule_rows(&self, rows: &WindowRows, config: &SchedulerConfig) -> ScheduledMatrix {
        migrated(&PeAware::new().schedule_rows(rows, config)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chason_sparse::generators::{power_law, uniform_random};
    use chason_sparse::CooMatrix;

    #[test]
    fn single_channel_config_is_a_noop_over_pe_aware() {
        let config = SchedulerConfig::toy(1, 4, 10);
        let m = uniform_random(64, 64, 200, 4);
        let serpens = PeAware::new().schedule(&m, &config);
        let chason = Crhcs::new().schedule(&m, &config);
        assert_eq!(serpens.stalls(), chason.stalls());
        assert_eq!(serpens.stream_cycles(), chason.stream_cycles());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let config = SchedulerConfig::paper();
        let (s, report) = migrated(&PeAware::new().schedule(&CooMatrix::new(64, 64), &config));
        assert_eq!(s.stream_cycles(), 0);
        assert_eq!(report.migrated, 0);
    }

    #[test]
    fn migration_leaves_its_input_and_returns_its_report() {
        for hops in 1..=3 {
            let config = SchedulerConfig {
                migration_hops: hops,
                ..SchedulerConfig::toy(4, 4, 6)
            };
            let m = power_law(512, 512, 6000, 1.6, hops as u64);
            let serpens = PeAware::new().schedule(&m, &config);
            let (chason, report) = migrated(&serpens);
            assert_eq!(serpens, PeAware::new().schedule(&m, &config));
            assert!(report.migrated > 0, "{report:?}");
            assert_eq!(
                (report.stalls_before, report.cycles_before),
                (serpens.stalls(), serpens.stream_cycles())
            );
            assert_eq!(
                (report.stalls_after, report.cycles_after),
                (chason.stalls(), chason.stream_cycles())
            );
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Crhcs::new().name(), "crhcs (chason)");
    }
}
