//! E9 — exhaustive certification of the delay gap on *every* small tree.
//!
//! Where E1–E8 sample tree families, E9 quantifies: for each size `n` it
//! takes **all** free trees ([`rvz_trees::enumerate`],
//! [`crate::sweep::Family::EnumFree`]),
//! **all** ordered feasible start pairs, and decides the §2.2 basic-walk
//! automaton *exactly* — delay 0 as a fixed-delay decision, and the
//! universal "every finite delay" question through the quantifier layer
//! ([`rvz_lowerbounds::decide::worst_case_delay`]). No cell can time out:
//! the exact decider has no budget, so every `met == false` is a certified
//! never-meets with a lasso in [`SweepReport::certificates`] — except on a
//! quarantined row (`timed_out` or `poisoned`), which records no run and
//! which the summary counts in no verdict column.
//!
//! The interesting read-out is the split this certifies on every single
//! instance: pairs the memoryless walk handles at simultaneous start
//! versus pairs some start delay defeats — the paper's reason delay-robust
//! rendezvous needs more memory, here as a theorem about all trees `≤ n`
//! rather than an observation about sampled ones.

use crate::sweep::{Certificate, Checks, SweepReport, SweepRow};
use crate::table::Table;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Per-size aggregate of an E9 report (one row of the exhaustive table).
#[derive(Debug, Clone, Serialize)]
pub struct SizeSummary {
    /// Instance size `n`.
    pub n: usize,
    /// Free trees enumerated at this size (A000055).
    pub trees: u64,
    /// Trees with at least one feasible (non-symmetrizable) ordered pair.
    pub feasible_trees: u64,
    /// Ordered feasible pairs — the cells certified per delay mode.
    pub pairs: u64,
    /// Pairs meeting at simultaneous start (delay 0).
    pub zero_meets: u64,
    /// Pairs certified never-meets at delay 0.
    pub zero_never: u64,
    /// Pairs meeting under *every* finite delay.
    pub forall_meet: u64,
    /// Pairs some delay defeats (each carries a verified lasso).
    pub forall_defeated: u64,
    /// Worst meeting round over all all-delays-meet pairs.
    pub worst_round: u64,
    /// Largest "smallest defeating delay" over the defeated pairs.
    pub max_defeat_delay: u64,
}

/// Aggregates an E9 sweep report into its per-size exhaustive table, the
/// fold of the whole report as one block.
/// Defined for reports over the enumerated family with the e9 delay axes
/// (a report from another grid is summarized best-effort: its rows are
/// counted as fixed-delay cells and its universal columns stay zero).
/// Sizes whose every tree lacked a feasible pair (`n = 2`) contribute no
/// rows and are omitted. Quarantined rows name their tree but count in no
/// verdict column; one table note gives their number. The table names its
/// start tuples after the rows' width, and a note says when no ∀-delay
/// verdict exists: that axis delays one of two lanes, so an `--agents
/// k > 2` grid drops it.
pub fn summarize(report: &SweepReport) -> (Vec<SizeSummary>, Table) {
    let mut fold = Fold::default();
    fold.add(&report.rows, &report.certificates);
    fold.finish()
}

/// The E9 summary folded one block at a time: the CLI folds each block on
/// the worker that computed it and merges the folds in grid order
/// ([`crate::sweep::run_into`]); [`summarize`] is the fold of a whole
/// report.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    /// Per requested size, in ascending order.
    sizes: BTreeMap<usize, SizeFold>,
    checks: Checks,
}

/// What [`Fold`] counts at one size.
#[derive(Debug, Default)]
struct SizeFold {
    /// The trees any row names (quarantined rows included); empty when
    /// the size has no row.
    trees: BTreeSet<u64>,
    /// Rows with a verdict (not quarantined).
    decided: u64,
    /// Of those, the rows that did not meet.
    unmet: u64,
    forall_meet: u64,
    forall_defeated: u64,
    worst_round: u64,
    max_defeat_delay: u64,
}

impl Fold {
    /// Folds in the next block's rows and certificates.
    pub(crate) fn add(&mut self, rows: &[SweepRow], certificates: &[Certificate]) {
        self.checks.add(rows, certificates);
        for r in rows {
            let size = self.sizes.entry(r.size).or_default();
            size.trees.insert(r.tree_seed);
            if !r.quarantined() {
                size.decided += 1;
                size.unmet += u64::from(!r.met);
            }
        }
        for c in certificates {
            let size = self.sizes.entry(c.size).or_default();
            match c.verdict {
                "all-delays-meet" => {
                    size.forall_meet += 1;
                    size.worst_round = size.worst_round.max(c.round.unwrap_or(0));
                }
                "delay-defeats" => {
                    size.forall_defeated += 1;
                    size.max_defeat_delay = size.max_defeat_delay.max(c.delay);
                }
                _ => {}
            }
        }
    }

    /// Folds in `other`, the fold of the blocks after these.
    pub(crate) fn merge(&mut self, other: Fold) {
        self.checks.merge(other.checks);
        for (n, s) in other.sizes {
            let size = self.sizes.entry(n).or_default();
            size.trees.extend(s.trees);
            size.decided += s.decided;
            size.unmet += s.unmet;
            size.forall_meet += s.forall_meet;
            size.forall_defeated += s.forall_defeated;
            size.worst_round = size.worst_round.max(s.worst_round);
            size.max_defeat_delay = size.max_defeat_delay.max(s.max_defeat_delay);
        }
    }

    /// The per-size summary rows and the rendered table.
    pub(crate) fn finish(self) -> (Vec<SizeSummary>, Table) {
        let lanes = self.checks.lanes("e9");
        let mut out = Vec::new();
        for (n, s) in self.sizes.into_iter().filter(|(_, s)| !s.trees.is_empty()) {
            let universal = s.forall_meet + s.forall_defeated;
            // The fixed-delay axis is counted from the *rows*: universal
            // cells carry a certificate under every executor (run() routes
            // them through the certified path), so the remaining rows are
            // the fixed-delay cells, and among the non-meeting rows exactly
            // `forall_defeated` are universal verdicts. This stays correct
            // for bounded executors (whose θ=0 cells are unverified but
            // exact — the bw budget is a decision horizon) and for
            // single-axis specs.
            let zero_cells = s.decided - universal;
            let zero_never = s.unmet - s.forall_defeated;
            out.push(SizeSummary {
                n,
                trees: rvz_trees::enumerate::free_tree_count(n),
                feasible_trees: s.trees.len() as u64,
                pairs: if universal > 0 { universal } else { zero_cells },
                zero_meets: zero_cells - zero_never,
                zero_never,
                forall_meet: s.forall_meet,
                forall_defeated: s.forall_defeated,
                worst_round: s.worst_round,
                max_defeat_delay: s.max_defeat_delay,
            });
        }
        let mut t = Table::new(
            "E9",
            &format!(
                "exhaustive certification: all free trees, all ordered feasible {}, basic walk",
                lanes.tuples
            ),
            &[
                "n",
                "trees",
                "feasible",
                &lanes.tuples,
                &format!("{}@0", lanes.met),
                "never@0",
                "∀-meet",
                "∀-defeated",
                "worst-round",
                "max-θ*",
            ],
        );
        for s in &out {
            t.row(vec![
                s.n.to_string(),
                s.trees.to_string(),
                s.feasible_trees.to_string(),
                s.pairs.to_string(),
                s.zero_meets.to_string(),
                s.zero_never.to_string(),
                s.forall_meet.to_string(),
                s.forall_defeated.to_string(),
                s.worst_round.to_string(),
                s.max_defeat_delay.to_string(),
            ]);
        }
        let checks = &self.checks;
        t.note(&format!(
            "{} certificates ({} lassos, every one re-verified by independent stepping{})",
            checks.certificates,
            checks.lassos,
            if checks.failed > 0 { " — VERIFICATION FAILURES PRESENT" } else { "" }
        ));
        if !out.is_empty() && out.iter().all(|s| s.forall_meet + s.forall_defeated == 0) {
            let why = match lanes.agents {
                2 => String::new(),
                k => format!(" (a pair axis, which --agents {k} drops)"),
            };
            t.note(&format!(
                "the ∀-delay axis did not run{why}: ∀-meet, ∀-defeated, worst-round and max-θ* \
                 count nothing"
            ));
        }
        checks.note_unverified_cells(&mut t);
        (out, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{self, Executor, QuarantineKind};

    #[test]
    fn quarantined_rows_count_in_no_verdict_column() {
        let mut spec = sweep::preset("e9", &[4, 5], 1, 77).expect("e9 preset");
        spec.executor = Executor::ExactDecide;
        let verdicts = |summary: &[SizeSummary]| -> Vec<[u64; 7]> {
            summary
                .iter()
                .map(|s| {
                    [
                        s.pairs,
                        s.zero_meets,
                        s.zero_never,
                        s.forall_meet,
                        s.forall_defeated,
                        s.worst_round,
                        s.max_defeat_delay,
                    ]
                })
                .collect()
        };
        // Every third cell poisoned and every third timed out, θ = 0 and
        // ∀θ cells alike: the summary must equal the one of the report
        // without those cells.
        let quarantine = [None, Some(QuarantineKind::Poisoned), Some(QuarantineKind::TimedOut)];
        let (mixed, omitted) = sweep::quarantined_report(&spec, |i| quarantine[i % 3]);
        let quarantined = mixed.rows.len() - omitted.rows.len();
        let (summary, table) = summarize(&mixed);
        let (expected, _) = summarize(&omitted);
        assert!(expected.iter().any(|s| s.zero_never > 0 && s.forall_defeated > 0));
        assert_eq!(verdicts(&summary), verdicts(&expected));
        let rendered = table.render();
        assert!(rendered.contains(&format!("{quarantined} cells quarantined")), "{rendered}");
        assert!(!rendered.contains("bounded simulation"), "{rendered}");
        // An all-poisoned run decided nothing: zero in every verdict column.
        let (poisoned, _) = sweep::quarantined_report(&spec, |_| Some(QuarantineKind::Poisoned));
        let (summary, _) = summarize(&poisoned);
        assert_eq!(summary.len(), 2);
        assert!(verdicts(&summary).iter().all(|v| *v == [0; 7]), "{summary:?}");
    }

    #[test]
    fn a_gathering_grid_is_labelled_by_its_width() {
        // At --agents 3 the start axis holds triples, and the grid drops
        // the ∀-delay axis, which delays one of two lanes: the table must
        // say both instead of counting zero ∀ verdicts over "pairs".
        let mut spec = sweep::preset("e9", &[4, 5], 1, 77).expect("e9 preset");
        spec.executor = Executor::ExactDecide;
        spec.agents = 3;
        let (summary, table) = summarize(&sweep::run(&spec));
        assert!(summary.iter().all(|s| s.pairs > 0 && s.forall_meet + s.forall_defeated == 0));
        let rendered = table.render();
        let header: Vec<&str> =
            rendered.lines().nth(1).expect("header").split_whitespace().collect();
        assert_eq!(header[..5], ["n", "trees", "feasible", "triples", "gathered@0"], "{rendered}");
        assert!(rendered.contains("all ordered feasible triples"), "{rendered}");
        assert!(
            rendered.contains("the ∀-delay axis did not run (a pair axis, which --agents 3 drops)"),
            "{rendered}"
        );
    }

    #[test]
    fn e9_summary_accounts_for_every_pair() {
        let mut spec = sweep::preset("e9", &[4, 5, 6, 7], 1, 77).expect("e9 preset");
        spec.executor = Executor::ExactDecide;
        let report = sweep::run(&spec);
        let (summary, table) = summarize(&report);
        assert_eq!(summary.len(), 4);
        for s in &summary {
            assert_eq!(s.zero_meets + s.zero_never, s.pairs, "n = {}", s.n);
            assert_eq!(s.forall_meet + s.forall_defeated, s.pairs, "n = {}", s.n);
            // Certified monotonicity: a pair defeated at delay 0 is also
            // defeated under the universal quantifier.
            assert!(s.forall_defeated >= s.zero_never, "n = {}", s.n);
            assert_eq!(s.trees, rvz_trees::enumerate::free_tree_count(s.n));
        }
        // Every lasso certificate must have passed re-verification.
        assert!(report.certificates.iter().all(|c| c.verified != Some(false)));
        // Regression: the bounded executors must yield the *same* summary
        // counts — universal cells route through the certified path under
        // every executor, and the bw fixed-delay budgets are decision
        // horizons, so only the `certified` flags (and the uncertified
        // note) may differ.
        let mut replay_spec = spec.clone();
        replay_spec.executor = Executor::TraceReplay;
        let replay_report = sweep::run(&replay_spec);
        let (replay_summary, replay_table) = summarize(&replay_report);
        assert_eq!(
            serde_json::to_string(&replay_summary).unwrap(),
            serde_json::to_string(&summary).unwrap(),
            "summary counts must not depend on the executor"
        );
        assert!(replay_table.render().contains("not certified"), "bounded cells must be flagged");
        assert!(
            !replay_report.certificates.is_empty(),
            "universal verdicts keep their certificates under bounded executors"
        );

        // Regression: a report swept with only the fixed-delay axis (no
        // universal cells, hence no universal certificates) must still
        // summarize instead of underflowing on `pairs - zero_never`.
        let mut zero_only = spec.clone();
        zero_only.delays = vec![sweep::Delay::Zero];
        let (zero_summary, _) = summarize(&sweep::run(&zero_only));
        for s in &zero_summary {
            assert_eq!(s.zero_meets + s.zero_never, s.pairs, "n = {}", s.n);
            assert_eq!(s.forall_meet + s.forall_defeated, 0, "n = {}", s.n);
            assert!(s.pairs > 0, "n = {}", s.n);
        }
        // The gap shows up exhaustively: some pair is defeated by delay.
        assert!(summary.iter().any(|s| s.forall_defeated > 0));
        // And the memoryless walk does meet somewhere at delay 0.
        assert!(summary.iter().any(|s| s.zero_meets > 0));
        assert!(table.render().contains("exhaustive certification"));
    }
}
