//! The schedule fuzzer: clean schedules across the generator corpus must
//! verify silently; targeted corruptions must each trip their rule.

use chason_core::plan::{PassPlan, PlanKey, PlanWindow, SpmvPlan};
use chason_core::schedule::{
    ChannelSchedule, Crhcs, NzSlot, ScheduledMatrix, Scheduler, SchedulerConfig,
};
use chason_core::window::partition_columns;
use chason_sparse::generators::{power_law, uniform_random};
use chason_sparse::CooMatrix;
use chason_testutil::{archetype_corpus as corpus, config_grid as configs, schedulers};
use chason_verify::mutate::Corruption;
use chason_verify::{verify_config, verify_pass, verify_plan, verify_schedule, Location, RuleId};
use proptest::prelude::*;

/// Every clean schedule across the corpus verifies with zero diagnostics —
/// the analyzer does not cry wolf on either the Serpens baseline or CrHCS.
#[test]
fn clean_schedules_verify_silently() {
    for (name, m) in corpus() {
        for cfg in configs() {
            for sched in schedulers() {
                let s = sched.schedule(&m, &cfg);
                let report = verify_schedule(&s, Some(&m));
                assert!(
                    report.is_clean(),
                    "{} on {name} under {cfg:?} is not clean:\n{report}",
                    sched.name()
                );
            }
        }
    }
}

/// Every corruption fires its targeted rule on every schedule that offers a
/// site for it, across the whole corpus; at least six distinct rules fire.
#[test]
fn targeted_corruptions_fire_their_rules() {
    let mut fired = std::collections::BTreeSet::new();
    let mut applications = 0usize;
    for (name, m) in corpus() {
        for cfg in configs() {
            for sched in schedulers() {
                for corruption in Corruption::ALL {
                    let mut s = sched.schedule(&m, &cfg);
                    if !corruption.apply(&mut s) {
                        continue;
                    }
                    applications += 1;
                    let report = verify_schedule(&s, Some(&m));
                    let rule = corruption.expected_rule();
                    assert!(
                        report.has_rule(rule),
                        "{corruption:?} on {} × {name} under {cfg:?} should fire {rule}; \
                         got:\n{report}",
                        sched.name()
                    );
                    assert!(report.has_errors());
                    fired.insert(rule);
                }
            }
        }
    }
    assert!(
        applications > 50,
        "corpus too thin: {applications} applications"
    );
    assert!(
        fired.len() >= 6,
        "only {} distinct rules fired: {fired:?}",
        fired.len()
    );
}

/// A fixture carrying several independent corruptions reports *all* of them
/// in one run — the analyzer never bails at the first finding.
#[test]
fn multiply_corrupted_fixture_reports_every_violation() {
    let m = power_law(120, 120, 900, 1.8, 11);
    let cfg = SchedulerConfig::toy(4, 4, 6);
    let mut s = Crhcs::new().schedule(&m, &cfg);
    // Drop first: both it and ZeroValue target the first non-zero, and
    // dropping second would delete the zeroed slot again.
    let stack = [
        Corruption::DropElement,
        Corruption::ZeroValue,
        Corruption::TagFlip,
        Corruption::DuplicateAcrossChannels,
        Corruption::PhantomPadding,
    ];
    for c in stack {
        assert!(c.apply(&mut s), "{c:?} found no site");
    }
    let report = verify_schedule(&s, Some(&m));
    for c in stack {
        assert!(
            report.has_rule(c.expected_rule()),
            "missing {} after {c:?}:\n{report}",
            c.expected_rule()
        );
    }
    assert!(report.error_count() >= stack.len());
    let rendered = report.render();
    for code in ["S001", "S002", "S005", "S006"] {
        assert!(rendered.contains(&format!("[{code}]")), "{rendered}");
    }
    assert!(rendered.contains("-->"), "{rendered}");
    assert!(rendered.contains("verification failed"), "{rendered}");
    // The dropped entry is missing; the duplicate is bit-identical to its
    // original, in another channel, and still counted twice.
    assert!(
        rendered.contains("is missing from the schedule"),
        "{rendered}"
    );
    assert!(rendered.contains("with an identical value"), "{rendered}");
}

/// R001 at the configuration level: hop counts whose ScUG banks exceed the
/// Alveo U55c's URAM budget are errors; affordable multi-hop configs warn
/// about the missing wire-format hop field.
#[test]
fn config_uram_budget_is_enforced() {
    let ok = verify_config(&SchedulerConfig::paper());
    assert!(ok.is_clean(), "{ok}");

    let mut two_hops = SchedulerConfig::paper();
    two_hops.migration_hops = 2; // 16 × 8 × (3·2 + 1) = 896 ≤ 960
    let r = verify_config(&two_hops);
    assert!(!r.has_errors(), "{r}");
    assert!(r.has_rule(RuleId::R001), "{r}");

    let mut three_hops = SchedulerConfig::paper();
    three_hops.migration_hops = 3; // 16 × 8 × 10 = 1280 > 960
    let r = verify_config(&three_hops);
    assert!(r.has_errors(), "{r}");
    assert!(r.has_rule(RuleId::R001), "{r}");
}

/// R001 at the slot level: a migrated element whose `PE_src` tag addresses
/// a ScUG bank the channel does not have.
#[test]
fn scug_bank_overflow_is_flagged() {
    let m = power_law(120, 120, 900, 1.8, 11);
    let cfg = SchedulerConfig::toy(4, 4, 6); // 4 lanes -> banks 0..4
    let mut s = Crhcs::new().schedule(&m, &cfg);
    let (c, cycle, lane) = s
        .channels
        .iter()
        .enumerate()
        .find_map(|(c, ch)| {
            ch.occupied()
                .find(|(_, _, nz)| !nz.pvt)
                .map(|(cycle, lane, _)| (c, cycle, lane))
        })
        .expect("CrHCS migrates on a skewed matrix");
    // Valid for the 3-bit tag, beyond the 4-lane ScUG.
    assert!(s.channels[c].edit(cycle, lane, |nz| nz.pe_src = 7));
    let report = verify_schedule(&s, Some(&m));
    assert!(report.has_rule(RuleId::R001), "{report}");
    assert!(
        report.has_rule(RuleId::S005),
        "wrong-lane tag too: {report}"
    );
}

/// S003 at its boundaries, on hand-built schedules under `toy(2, 2, 4)`
/// whose lane 0 of channel 0 streams two slots `gap` cycles apart: a row
/// may re-enter its PE after exactly `D = 4` cycles, not sooner, and
/// distinct rows never conflict, whether they share a local row across
/// `URAM_pvt` and a ScUG bank or sit in two ScUG banks.
#[test]
fn raw_distance_boundaries() {
    // Rows 0 and 4 belong to channel 0, lane 0; rows 2 and 3 to channel 1.
    let pvt = |row| NzSlot::private(1.0, row, 0);
    let mig = |row| NzSlot {
        pe_src: (row % 2) as u8,
        pvt: false,
        ..pvt(row)
    };
    let cases = [
        ("same row 1 apart", pvt(0), 1, pvt(0), true),
        ("same row D - 1 apart", pvt(0), 3, pvt(0), true),
        ("same row exactly D apart", pvt(0), 4, pvt(0), false),
        ("same migrated row D - 1 apart", mig(2), 3, mig(2), true),
        ("different rows within D", pvt(0), 1, pvt(4), false),
        ("private and shared bank within D", pvt(0), 1, mig(2), false),
        ("two shared banks within D", mig(2), 1, mig(3), false),
    ];
    for (name, first, gap, second, flagged) in cases {
        let mut channels = vec![ChannelSchedule::new(0, 2), ChannelSchedule::new(1, 2)];
        channels[0].insert(0, 0, first);
        channels[0].insert(gap, 0, second);
        let s = ScheduledMatrix {
            config: SchedulerConfig::toy(2, 2, 4),
            channels,
            rows: 8,
            cols: 1,
            nnz: 2,
        };
        let report = verify_schedule(&s, None);
        assert_eq!(report.has_rule(RuleId::S003), flagged, "{name}:\n{report}");
        if flagged {
            // The finding points at the slot that came back too soon.
            let at = report.diagnostics().iter().find(|d| d.rule == RuleId::S003);
            assert_eq!(
                at.map(|d| d.location),
                Some(Location::slot(0, gap, 0)),
                "{name}"
            );
        } else {
            assert!(report.is_clean(), "{name}:\n{report}");
        }
    }
}

/// Builds a coherent single-pass plan by hand (windowed CrHCS schedules with
/// accurate stored stats), the baseline for the P001 corruption tests.
fn hand_plan(m: &CooMatrix, cfg: SchedulerConfig, width: usize) -> SpmvPlan {
    let windows = partition_columns(m, width)
        .into_iter()
        .map(|w| {
            let schedule = Crhcs::new().schedule(&w.matrix, &cfg);
            PlanWindow {
                col_start: w.col_start,
                col_end: w.col_end,
                nnz: w.matrix.nnz(),
                stalls: schedule.stalls(),
                stream_cycles: schedule.stream_cycles(),
                schedule,
            }
        })
        .collect::<Vec<_>>();
    SpmvPlan {
        key: PlanKey::new(m, cfg),
        engine: "chason".to_string(),
        window: width,
        rows: m.rows(),
        cols: m.cols(),
        nnz: m.nnz(),
        passes: vec![PassPlan {
            row_start: 0,
            row_end: m.rows(),
            nnz: m.nnz(),
            windows,
        }],
    }
}

#[test]
fn coherent_plan_verifies_silently() {
    let m = uniform_random(80, 300, 1200, 21);
    let plan = hand_plan(&m, SchedulerConfig::toy(4, 4, 6), 100);
    let report = verify_plan(&plan, Some(&m));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn plan_incoherences_all_fire_p001() {
    let m = uniform_random(80, 300, 1200, 21);
    let cfg = SchedulerConfig::toy(4, 4, 6);
    let base = hand_plan(&m, cfg, 100);

    // Stale window stats, located at the offending window.
    let mut stale = base.clone();
    stale.passes[0].windows[1].nnz += 1;
    let r = verify_plan(&stale, Some(&m));
    assert!(r.has_rule(RuleId::P001), "{r}");
    assert!(
        r.diagnostics()
            .iter()
            .any(|d| d.rule == RuleId::P001 && d.location.window == Some(1)),
        "{r}"
    );

    // Fingerprint drift: the plan no longer matches the supplied matrix.
    let mut drifted = base.clone();
    drifted.key.fingerprint ^= 1;
    assert!(verify_plan(&drifted, Some(&m)).has_rule(RuleId::P001));
    // Without the source the fingerprint cannot be checked; still coherent.
    assert!(verify_plan(&drifted, None).is_clean());

    // A hole in the window coverage.
    let mut gappy = base.clone();
    gappy.passes[0].windows.remove(1);
    gappy.passes[0].nnz = gappy.passes[0].windows.iter().map(|w| w.nnz).sum();
    gappy.nnz = gappy.passes[0].nnz;
    let r = verify_plan(&gappy, None);
    assert!(r.has_rule(RuleId::P001), "{r}");

    // Window wider than the declared partition width.
    let mut wide = base.clone();
    wide.window = 50;
    assert!(verify_plan(&wide, None).has_rule(RuleId::P001));

    // Unknown engine family is a warning, not an error.
    let mut odd = base;
    odd.engine = "abacus".to_string();
    let r = verify_plan(&odd, Some(&m));
    assert!(!r.has_errors(), "{r}");
    assert!(r.has_rule(RuleId::P001), "{r}");
}

#[test]
fn pass_verifier_checks_window_stats() {
    let m = uniform_random(80, 300, 1200, 21);
    let cfg = SchedulerConfig::toy(4, 4, 6);
    let plan = hand_plan(&m, cfg, 100);
    let clean = verify_pass(&plan.passes[0], &cfg, 100);
    assert!(clean.is_clean(), "{clean}");

    let mut pass = plan.passes[0].clone();
    pass.windows[2].stream_cycles += 5;
    pass.windows[0].stalls += 3;
    let r = verify_pass(&pass, &cfg, 100);
    assert_eq!(r.error_count(), 2, "{r}");
    assert!(r.has_rule(RuleId::P001));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary clean schedules stay silent under the full rule set.
    #[test]
    fn random_clean_schedules_verify_silently(
        m in chason_testutil::sparse_matrix_nonempty(40, 120),
        channels in 1usize..=4,
        pes in 1usize..=8,
        d in 2usize..=10,
    ) {
        let cfg = SchedulerConfig::toy(channels, pes, d);
        for sched in schedulers() {
            let s = sched.schedule(&m, &cfg);
            let report = verify_schedule(&s, Some(&m));
            prop_assert!(report.is_clean(), "{}:\n{report}", sched.name());
        }
    }

    /// Random corruption draws always trip their targeted rule.
    #[test]
    fn random_corruptions_are_caught(
        m in chason_testutil::sparse_matrix_nonempty(40, 120),
        which in 0usize..10,
        channels in 2usize..=4,
        pes in 2usize..=4,
    ) {
        let cfg = SchedulerConfig::toy(channels, pes, 4);
        let corruption = Corruption::ALL[which];
        let mut s = Crhcs::new().schedule(&m, &cfg);
        prop_assume!(corruption.apply(&mut s));
        let report = verify_schedule(&s, Some(&m));
        prop_assert!(
            report.has_rule(corruption.expected_rule()),
            "{corruption:?} missed:\n{report}"
        );
    }
}
