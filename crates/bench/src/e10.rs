//! E10 — adversarial activation schedules, exhaustively certified.
//!
//! Where E9 quantifies over start delays, E10 quantifies over *when the
//! agents run at all*: for each size `n` it takes all free trees
//! ([`crate::sweep::Family::EnumFree`]), all ordered feasible start
//! pairs, and runs the §2.2 basic-walk automaton under the e10 schedule
//! column — the legacy scenarios (simultaneous start, θ = 1) beside
//! genuine per-round delay faults (`intermittent(2)`, `intermittent(3)`
//! duty cycles and a crash after ⌈n/2⌉ rounds). Under the decide executor
//! (the default) every genuine schedule cell is answered by the
//! cycle-position product construction over two lanes
//! ([`rvz_lowerbounds::decide::decide_ensemble`]), so `met == false` is
//! always a certified never-meets with a verified lasso, never a timeout.
//!
//! The read-out extends the e9 story: θ = 1 already defeats the
//! memoryless walk on every feasible pair, and the schedule columns show
//! *which* of the adversary's finer-grained powers (slowing one agent,
//! crashing it) preserve or break that defeat — e.g. intermittence breaks
//! the parity argument behind the shuttle lassos, so some pairs that
//! never meet simultaneously *do* meet at half speed.

use crate::sweep::{SweepReport, SweepRow};
use crate::table::Table;
use serde::Serialize;

/// Per-(size, schedule) aggregate of an E10 report.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleSummary {
    /// Instance size `n`.
    pub n: usize,
    /// Schedule label (legacy start scenarios reconstructed from the
    /// `delay` field: `"simultaneous"` / `"start-delay(θ)"`).
    pub schedule: String,
    /// Ordered feasible pairs decided under this schedule.
    pub pairs: u64,
    /// Pairs meeting under this schedule.
    pub met: u64,
    /// Pairs certified never-meets (carrying a verified lasso under the
    /// decide executor).
    pub never: u64,
    /// Worst meeting round over the meeting pairs.
    pub worst_round: u64,
    /// Cells exactly decided (all of them under the decide executor).
    pub certified: u64,
}

/// The schedule label of a row: the `schedule` field when present, else
/// the legacy start scenario the `delay` field encodes.
pub fn row_schedule(row: &SweepRow) -> String {
    row.schedule.clone().unwrap_or_else(|| {
        if row.delay == 0 {
            "simultaneous".into()
        } else {
            format!("start-delay({})", row.delay)
        }
    })
}

/// Aggregates an E10 sweep report into its per-(size, schedule) table.
/// Rows are grouped in grid order (sizes ascending, schedules in the
/// spec's column order), so the table reads like the delay axis.
/// Quarantined rows keep their group in the table but count in no verdict
/// column; one table note gives their number.
pub fn summarize(report: &SweepReport) -> (Vec<ScheduleSummary>, Table) {
    let t = Table::new(
        "E10",
        "activation schedules: all free trees, all ordered feasible pairs, basic walk",
        &["n", "schedule", "pairs", "met", "never", "worst-round", "certified"],
    );
    fold_schedules(report, t, "never-meets", "scheduled stepping")
}

/// The per-(size, schedule) fold E10 and E11 share: groups `report`'s rows
/// as [`summarize`] describes, counts each group's cells (start pairs or
/// tuples), meetings (gatherings at `k > 2`), never-meets, worst round and
/// certified cells, and renders one row per group into `t`. The note
/// names the certificates `verdict` and the independent `checker` that
/// re-verified them.
pub(crate) fn fold_schedules(
    report: &SweepReport,
    mut t: Table,
    verdict: &str,
    checker: &str,
) -> (Vec<ScheduleSummary>, Table) {
    let mut out: Vec<ScheduleSummary> = Vec::new();
    for row in &report.rows {
        let label = row_schedule(row);
        let entry = match out.iter_mut().find(|s| s.n == row.size && s.schedule == label) {
            Some(entry) => entry,
            None => {
                out.push(ScheduleSummary {
                    n: row.size,
                    schedule: label,
                    pairs: 0,
                    met: 0,
                    never: 0,
                    worst_round: 0,
                    certified: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        if row.quarantined() {
            continue;
        }
        entry.pairs += 1;
        if row.met {
            entry.met += 1;
            entry.worst_round = entry.worst_round.max(row.rounds.unwrap_or(0));
        } else {
            entry.never += 1;
        }
        if row.certified {
            entry.certified += 1;
        }
    }
    out.sort_by_key(|s| s.n);
    for s in &out {
        t.row(vec![
            s.n.to_string(),
            s.schedule.clone(),
            s.pairs.to_string(),
            s.met.to_string(),
            s.never.to_string(),
            s.worst_round.to_string(),
            s.certified.to_string(),
        ]);
    }
    let lassos = report.certificates.iter().filter(|c| c.lasso_stem.is_some()).count();
    let bogus = report.certificates.iter().filter(|c| c.verified == Some(false)).count();
    t.note(&format!(
        "{} {verdict} certificates ({lassos} lassos, every one re-verified by independent \
         {checker}{})",
        report.certificates.len(),
        if bogus > 0 { " — VERIFICATION FAILURES PRESENT" } else { "" }
    ));
    crate::sweep::note_unverified_cells(&mut t, &report.rows);
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, poisoned_row, timed_out_row, Executor, Quarantine};

    /// Every verdict column of a summary, keyed by its group.
    fn verdicts(summary: &[ScheduleSummary]) -> Vec<(usize, String, [u64; 5])> {
        summary
            .iter()
            .map(|s| {
                (s.n, s.schedule.clone(), [s.pairs, s.met, s.never, s.worst_round, s.certified])
            })
            .collect()
    }

    #[test]
    fn quarantined_rows_count_in_no_verdict_column() {
        let mut spec = sweep::preset("e10", &[4, 5], 1, 3).expect("e10 preset");
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
    fn e10_summary_accounts_for_every_pair_and_schedule() {
        let mut spec = sweep::preset("e10", &[4, 5, 6], 1, 3).expect("e10 preset");
        spec.executor = Executor::ExactDecide;
        let report = sweep::run(&spec);
        let (summary, table) = summarize(&report);
        // 3 sizes × 5 schedule columns.
        assert_eq!(summary.len(), 15);
        let mut per_size: std::collections::BTreeMap<usize, Vec<&ScheduleSummary>> =
            Default::default();
        for s in &summary {
            assert_eq!(s.met + s.never, s.pairs, "n={} {}", s.n, s.schedule);
            assert_eq!(s.certified, s.pairs, "decide certifies everything");
            per_size.entry(s.n).or_default().push(s);
        }
        for (n, rows) in &per_size {
            // Every schedule column covers the same pair axis.
            assert!(rows.windows(2).all(|w| w[0].pairs == w[1].pairs), "n={n}");
            let sim = rows.iter().find(|s| s.schedule == "simultaneous").expect("sim column");
            let start_delay_1 =
                rows.iter().find(|s| s.schedule == "start-delay(1)").expect("θ=1 column");
            // The e9 certified result (θ* ≤ 1 defeats every pair): every
            // pair is defeated at θ=0 or at θ=1, so the two columns'
            // never-meets sets cover the pair axis.
            assert!(sim.never + start_delay_1.never >= sim.pairs, "n={n}");
            assert!(start_delay_1.never > 0, "n={n}: some pair is defeated by θ=1");
            // A crashed agent is met where it stopped: A's Euler tour
            // covers the tree, so the crash column always meets.
            let crash = rows
                .iter()
                .find(|s| s.schedule == format!("crash-after({})", n.div_ceil(2)))
                .expect("crash column");
            assert_eq!(crash.met, crash.pairs, "n={n}");
        }
        // Intermittence differs from the simultaneous column somewhere:
        // the duty cycle breaks parity arguments both ways.
        let differs = per_size.values().any(|rows| {
            let sim = rows.iter().find(|s| s.schedule == "simultaneous").unwrap();
            rows.iter().filter(|s| s.schedule.starts_with("intermittent")).any(|s| s.met != sim.met)
        });
        assert!(differs, "schedules must change outcomes somewhere");
        // The summary counts must not depend on the executor (bounded
        // budgets are decision horizons on bw cells).
        let mut replay_spec = spec.clone();
        replay_spec.executor = Executor::TraceReplay;
        let (replay_summary, replay_table) = summarize(&sweep::run(&replay_spec));
        assert_eq!(
            replay_summary
                .iter()
                .map(|s| (s.n, s.schedule.clone(), s.pairs, s.met, s.never, s.worst_round))
                .collect::<Vec<_>>(),
            summary
                .iter()
                .map(|s| (s.n, s.schedule.clone(), s.pairs, s.met, s.never, s.worst_round))
                .collect::<Vec<_>>(),
            "summary counts must not depend on the executor"
        );
        assert!(replay_table.render().contains("not certified"));
        assert!(table.render().contains("activation schedules"));
    }
}
