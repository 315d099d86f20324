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

use crate::sweep::{Certificate, Checks, Lanes, SweepReport, SweepRow};
use crate::table::Table;
use serde::Serialize;
use std::io::Write;

/// Per-(size, schedule) aggregate of an E10 report.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleSummary {
    /// Instance size `n`.
    pub n: usize,
    /// Schedule label (legacy start scenarios reconstructed from the
    /// `delay` field: `"simultaneous"` / `"start-delay(θ)"`).
    pub schedule: String,
    /// Ordered feasible pairs decided under this schedule (start tuples
    /// at `--agents k > 2`).
    pub pairs: u64,
    /// Pairs meeting under this schedule (tuples gathering at `k > 2`).
    pub met: u64,
    /// Pairs certified never-meets (carrying a verified lasso under the
    /// decide executor).
    pub never: u64,
    /// Worst meeting round over the meeting pairs.
    pub worst_round: u64,
    /// Cells exactly decided (all of them under the decide executor).
    pub certified: u64,
}

/// Room for the longest legacy label, `start-delay(` and `)` around the
/// 20 digits of `u64::MAX`.
const LEGACY_LABEL_BYTES: usize = 33;

/// The schedule label of a row: the `schedule` field when present, else
/// the legacy start scenario the `delay` field encodes, written into
/// `buf` for a nonzero delay. Borrowed, so reading a row's label allocates
/// nothing.
fn row_schedule<'a>(row: &'a SweepRow, buf: &'a mut [u8; LEGACY_LABEL_BYTES]) -> &'a str {
    match &row.schedule {
        Some(label) => label,
        None if row.delay == 0 => "simultaneous",
        None => {
            let mut rest = &mut buf[..];
            write!(rest, "start-delay({})", row.delay).expect("a u64 label fits its buffer");
            let len = LEGACY_LABEL_BYTES - rest.len();
            std::str::from_utf8(&buf[..len]).expect("an ASCII label")
        }
    }
}

/// Aggregates an E10 sweep report into its per-(size, schedule) table, the
/// fold of the whole report as one block.
/// Rows are grouped in grid order (sizes ascending, schedules in the
/// spec's column order), so the table reads like the delay axis.
/// Quarantined rows keep their group in the table but count in no verdict
/// column; one table note gives their number. The table names its cells
/// after the rows' width: pairs that meet at two agents, tuples that
/// gather at `--agents k > 2`.
pub fn summarize(report: &SweepReport) -> (Vec<ScheduleSummary>, Table) {
    let mut fold = Fold::default();
    fold.add(&report.rows, &report.certificates);
    fold.finish()
}

/// The per-(size, schedule) fold E10 and E11 share, one block at a time
/// (the CLI folds each block on the worker that computed it and merges
/// the folds in grid order, [`crate::sweep::run_into`]): groups rows as
/// [`summarize`] describes and counts each group's cells (start pairs or
/// tuples), meetings (gatherings at `k > 2`), never-meets, worst round
/// and certified cells.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    /// The groups, in the order their first rows arrived.
    groups: Vec<ScheduleSummary>,
    checks: Checks,
}

impl Fold {
    /// Folds in the next block's rows and certificates. A row's label is
    /// copied only when it opens a group.
    pub(crate) fn add(&mut self, rows: &[SweepRow], certificates: &[Certificate]) {
        self.checks.add(rows, certificates);
        let mut buf = [0; LEGACY_LABEL_BYTES];
        for row in rows {
            let entry = self.group(row.size, row_schedule(row, &mut buf));
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
    }

    /// Folds in `other`, the fold of the blocks after these: its groups
    /// join theirs, or follow them in the order they first arrived.
    pub(crate) fn merge(&mut self, other: Fold) {
        self.checks.merge(other.checks);
        for group in other.groups {
            let Some(i) = self.position(group.n, &group.schedule) else {
                self.groups.push(group);
                continue;
            };
            let entry = &mut self.groups[i];
            entry.pairs += group.pairs;
            entry.met += group.met;
            entry.never += group.never;
            entry.worst_round = entry.worst_round.max(group.worst_round);
            entry.certified += group.certified;
        }
    }

    /// Where the group of size `n` under `schedule` is, if there is one.
    fn position(&self, n: usize, schedule: &str) -> Option<usize> {
        self.groups.iter().position(|s| s.n == n && s.schedule == schedule)
    }

    /// The group of size `n` under `schedule`; a new one, counting
    /// nothing yet and holding its own copy of the label, follows the
    /// groups already there.
    fn group(&mut self, n: usize, schedule: &str) -> &mut ScheduleSummary {
        let i = self.position(n, schedule).unwrap_or_else(|| {
            self.groups.push(ScheduleSummary {
                n,
                schedule: schedule.to_string(),
                pairs: 0,
                met: 0,
                never: 0,
                worst_round: 0,
                certified: 0,
            });
            self.groups.len() - 1
        });
        &mut self.groups[i]
    }

    /// The E10 summary rows and the rendered table.
    pub(crate) fn finish(self) -> (Vec<ScheduleSummary>, Table) {
        self.finish_as("E10", |lanes| {
            format!(
                "activation schedules: all free trees, all ordered feasible {}, basic walk",
                lanes.tuples
            )
        })
    }

    /// The summary rows, sorted by size, and the table `id` rendering one
    /// row per group under the title `title` gives for the rows' width;
    /// its columns and certificate note use the words of that width.
    pub(crate) fn finish_as(
        self,
        id: &str,
        title: impl FnOnce(&Lanes) -> String,
    ) -> (Vec<ScheduleSummary>, Table) {
        let lanes = self.checks.lanes(&id.to_lowercase());
        let mut t = Table::new(
            id,
            &title(&lanes),
            &["n", "schedule", &lanes.tuples, lanes.met, "never", "worst-round", "certified"],
        );
        let mut out = self.groups;
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
        let checks = &self.checks;
        t.note(&format!(
            "{} {} certificates ({} lassos, every one re-verified by independent \
             {}scheduled stepping{})",
            checks.certificates,
            lanes.never,
            checks.lassos,
            if lanes.agents > 2 { "k-lane " } else { "" },
            if checks.failed > 0 { " — VERIFICATION FAILURES PRESENT" } else { "" }
        ));
        checks.note_unverified_cells(&mut t);
        (out, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, Executor, QuarantineKind};

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
    fn borrowed_row_labels_are_the_formatted_ones() {
        // The fold reads labels without allocating; each must be the
        // string a formatted label would be, up to the widest delay.
        let spec = sweep::preset("e10", &[4], 1, 3).expect("e10 preset");
        let mut row = sweep::run(&spec).rows.swap_remove(0);
        let mut buf = [0; LEGACY_LABEL_BYTES];
        let cases = [
            (None, 0, "simultaneous".to_string()),
            (None, 1, "start-delay(1)".to_string()),
            (None, u64::MAX, format!("start-delay({})", u64::MAX)),
            (Some("crash-after(3)"), 7, "crash-after(3)".to_string()),
        ];
        for (schedule, delay, label) in cases {
            (row.schedule, row.delay) = (schedule.map(String::from), delay);
            assert_eq!(row_schedule(&row, &mut buf), label);
        }
    }

    #[test]
    fn a_gathering_grid_is_labelled_by_its_width() {
        // At --agents 3 the rows are start triples that gather or never
        // gather, and their certificates say so.
        let mut spec = sweep::preset("e10", &[4, 5], 1, 3).expect("e10 preset");
        spec.executor = Executor::ExactDecide;
        spec.agents = 3;
        let report = sweep::run(&spec);
        assert!(report.certificates.iter().all(|c| c.verdict == "never-gathers"));
        let rendered = summarize(&report).1.render();
        let header: Vec<&str> =
            rendered.lines().nth(1).expect("header").split_whitespace().collect();
        assert_eq!(
            header,
            ["n", "schedule", "triples", "gathered", "never", "worst-round", "certified"],
            "{rendered}"
        );
        assert!(rendered.contains("all ordered feasible triples"), "{rendered}");
        assert!(rendered.contains("never-gathers certificates"), "{rendered}");
        assert!(!rendered.contains("never-meets"), "{rendered}");
    }

    #[test]
    fn quarantined_rows_count_in_no_verdict_column() {
        let mut spec = sweep::preset("e10", &[4, 5], 1, 3).expect("e10 preset");
        spec.executor = Executor::ExactDecide;
        // Every third cell poisoned and every third timed out, in every
        // schedule column: the summary must equal the one of the report
        // without those cells.
        let quarantine = [None, Some(QuarantineKind::Poisoned), Some(QuarantineKind::TimedOut)];
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
        let (poisoned, _) = sweep::quarantined_report(&spec, |_| Some(QuarantineKind::Poisoned));
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
