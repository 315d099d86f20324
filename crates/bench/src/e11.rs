//! E11 — three-agent gathering under crash faults, exhaustively
//! certified.
//!
//! E10 ends on a reassuring note: crashing one of the two agents
//! mid-run *rescues* rendezvous, because the survivor's Euler tour
//! covers the tree and walks over the parked crash site — the crash
//! column meets on every feasible pair. E11 asks whether that rescue is
//! an artifact of the pair setting, by rerunning the same adversary
//! against *gathering*: `k = 3` identical basic-walk copies
//! ([`crate::sweep::SweepSpec::agents`]) that must all stand on one
//! node **in the same round**. For each size `n ≤ 7` it takes all free
//! trees ([`crate::sweep::Family::EnumFree`]), all ordered feasible
//! start triples ([`crate::instances::exhaustive_feasible_tuples`]),
//! and decides three schedule columns: simultaneous start, `θ = 1` on
//! the last lane, and a crash of the last lane after `⌈n/2⌉` rounds.
//!
//! Under the decide executor (the default) every verdict comes from the
//! k-lane product construction
//! ([`rvz_lowerbounds::decide::decide_ensemble`]), so `met == false` is
//! always a certified never-gathers with a verified ensemble lasso,
//! never a budget timeout — and the headline is the inversion of e10's:
//! the crashed copy parks, the two survivors' tours sweep over it at
//! *different* rounds, and for most triples there is **no** round where
//! both survivors sit on the crash site together. The crash rescue does
//! not survive gathering.

use crate::sweep::SweepReport;
use crate::table::Table;
use serde::Serialize;

/// Per-(size, schedule) aggregate of an E11 report — the gathering
/// sibling of [`crate::e10::ScheduleSummary`], counting ordered start
/// triples instead of pairs.
#[derive(Debug, Clone, Serialize)]
pub struct GatheringSummary {
    /// Instance size `n`.
    pub n: usize,
    /// Schedule label (legacy start scenarios reconstructed from the
    /// `delay` field: `"simultaneous"` / `"start-delay(θ)"`).
    pub schedule: String,
    /// Ordered feasible start triples decided under this schedule.
    pub triples: u64,
    /// Triples whose three copies gather (co-locate in one round).
    pub gathered: u64,
    /// Triples certified never-gathers (carrying a verified ensemble
    /// lasso under the decide executor).
    pub never: u64,
    /// Worst gathering round over the gathering triples.
    pub worst_round: u64,
    /// Cells exactly decided (all of them under the decide executor).
    pub certified: u64,
}

/// Aggregates an E11 sweep report into its per-(size, schedule) table.
/// Rows are grouped in grid order (sizes ascending, schedules in the
/// spec's column order), so the table reads like the schedule axis.
/// Quarantined rows keep their group in the table but count in no verdict
/// column; one table note gives their number.
pub fn summarize(report: &SweepReport) -> (Vec<GatheringSummary>, Table) {
    let t = Table::new(
        "E11",
        "3-agent gathering: all free trees, all ordered feasible triples, basic walk",
        &["n", "schedule", "triples", "gathered", "never", "worst-round", "certified"],
    );
    let (groups, t) =
        crate::e10::fold_schedules(report, t, "never-gathers", "k-lane scheduled stepping");
    let out = groups
        .into_iter()
        .map(|s| GatheringSummary {
            n: s.n,
            schedule: s.schedule,
            triples: s.pairs,
            gathered: s.met,
            never: s.never,
            worst_round: s.worst_round,
            certified: s.certified,
        })
        .collect();
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, poisoned_row, timed_out_row, Executor, Quarantine};

    /// Every verdict column of a summary, keyed by its group.
    fn verdicts(summary: &[GatheringSummary]) -> Vec<(usize, String, [u64; 5])> {
        summary
            .iter()
            .map(|s| {
                (
                    s.n,
                    s.schedule.clone(),
                    [s.triples, s.gathered, s.never, s.worst_round, s.certified],
                )
            })
            .collect()
    }

    #[test]
    fn quarantined_rows_count_in_no_verdict_column() {
        let mut spec = sweep::preset("e11", &[4, 5], 1, 3).expect("e11 preset");
        spec.executor = Executor::ExactDecide;
        // Every third cell poisoned and every third timed out, in every
        // schedule column: the summary must equal the one of the report
        // without those cells.
        let quarantine: [Option<Quarantine>; 3] = [None, Some(poisoned_row), Some(timed_out_row)];
        let (mixed, omitted) = sweep::quarantined_report(&spec, |i| quarantine[i % 3]);
        let quarantined = mixed.rows.len() - omitted.rows.len();
        let (summary, table) = summarize(&mixed);
        let (expected, _) = summarize(&omitted);
        assert!(expected.iter().any(|s| s.never > 0));
        assert_eq!(verdicts(&summary), verdicts(&expected));
        let rendered = table.render();
        assert!(rendered.contains(&format!("{quarantined} cells quarantined")), "{rendered}");
        assert!(!rendered.contains("bounded simulation"), "{rendered}");
        // An all-poisoned run decided nothing: zero in every verdict column.
        let (poisoned, _) = sweep::quarantined_report(&spec, |_| Some(poisoned_row));
        let (summary, _) = summarize(&poisoned);
        assert_eq!(summary.len(), expected.len());
        assert!(verdicts(&summary).iter().all(|(_, _, v)| *v == [0; 5]), "{summary:?}");
    }

    #[test]
    fn e11_certifies_that_the_crash_rescue_fails_for_gathering() {
        let mut spec = sweep::preset("e11", &[4, 5, 6], 1, 3).expect("e11 preset");
        spec.executor = Executor::ExactDecide;
        let report = sweep::run(&spec);
        let (summary, table) = summarize(&report);
        // 3 sizes × 3 schedule columns.
        assert_eq!(summary.len(), 9);
        let mut per_size: std::collections::BTreeMap<usize, Vec<&GatheringSummary>> =
            Default::default();
        for s in &summary {
            assert_eq!(s.gathered + s.never, s.triples, "n={} {}", s.n, s.schedule);
            assert_eq!(s.certified, s.triples, "decide certifies everything");
            per_size.entry(s.n).or_default().push(s);
        }
        for (n, rows) in &per_size {
            // Every schedule column covers the same triple axis.
            assert!(rows.windows(2).all(|w| w[0].triples == w[1].triples), "n={n}");
            // The headline inversion of e10: there, the crash column met
            // on EVERY pair (the survivor's Euler tour walks over the
            // parked crash site). For gathering the two survivors must
            // sit on the crash site in the SAME round, and for some
            // triples no such round exists.
            let crash = rows
                .iter()
                .find(|s| s.schedule == format!("crash-after({})", n.div_ceil(2)))
                .expect("crash column");
            assert!(
                crash.never > 0,
                "n={n}: some triple must be certified never-gathers under the crash"
            );
        }
        // Every never-gathers verdict carries a re-verified lasso.
        assert!(report.certificates.iter().all(|c| c.verified == Some(true)));
        assert!(report.certificates.iter().all(|c| c.agents == Some(3)));
        // Ensemble rows are schema v7: every row carries its width and
        // the starts beyond the leading pair.
        assert!(report.rows.iter().all(|r| r.agents == Some(3)));
        assert!(report.rows.iter().all(|r| r.start_rest.as_ref().is_some_and(|s| s.len() == 1)));
        assert!(table.render().contains("3-agent gathering"));
    }
}
