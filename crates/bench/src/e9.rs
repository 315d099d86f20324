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

use crate::sweep::SweepReport;
use crate::table::Table;
use serde::Serialize;

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

/// Aggregates an E9 sweep report into its per-size exhaustive table.
/// Defined for reports over the enumerated family with the e9 delay axes
/// (a report from another grid is summarized best-effort: its rows are
/// counted as fixed-delay cells and its universal columns stay zero).
/// Sizes whose every tree lacked a feasible pair (`n = 2`) contribute no
/// rows and are omitted. Quarantined rows name their tree but count in no
/// verdict column; one table note gives their number.
pub fn summarize(report: &SweepReport) -> (Vec<SizeSummary>, Table) {
    // BTreeSet iteration is already size-ascending.
    let sizes: Vec<usize> = report
        .rows
        .iter()
        .map(|r| r.size)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut out = Vec::new();
    for &n in &sizes {
        let rows: Vec<_> = report.rows.iter().filter(|r| r.size == n).collect();
        let certs: Vec<_> = report.certificates.iter().filter(|c| c.size == n).collect();
        let trees = rvz_trees::enumerate::free_tree_count(n);
        let feasible_trees =
            rows.iter().map(|r| r.tree_seed).collect::<std::collections::BTreeSet<_>>().len()
                as u64;
        let rows: Vec<_> = rows.into_iter().filter(|r| !r.quarantined()).collect();
        let forall_meet = certs.iter().filter(|c| c.verdict == "all-delays-meet").count() as u64;
        let forall_defeated = certs.iter().filter(|c| c.verdict == "delay-defeats").count() as u64;
        let universal = forall_meet + forall_defeated;
        // The fixed-delay axis is counted from the *rows*: universal cells
        // carry a certificate under every executor (run() routes them
        // through the certified path), so the remaining rows are the
        // fixed-delay cells, and among the non-meeting rows exactly
        // `forall_defeated` are universal verdicts. This stays correct for
        // bounded executors (whose θ=0 cells are unverified but exact —
        // the bw budget is a decision horizon) and for single-axis specs.
        let zero_cells = rows.len() as u64 - universal;
        let met_false = rows.iter().filter(|r| !r.met).count() as u64;
        let zero_never = met_false - forall_defeated;
        let zero_meets = zero_cells - zero_never;
        let pairs = if universal > 0 { universal } else { zero_cells };
        let worst_round = certs
            .iter()
            .filter(|c| c.verdict == "all-delays-meet")
            .filter_map(|c| c.round)
            .max()
            .unwrap_or(0);
        let max_defeat_delay = certs
            .iter()
            .filter(|c| c.verdict == "delay-defeats")
            .map(|c| c.delay)
            .max()
            .unwrap_or(0);
        out.push(SizeSummary {
            n,
            trees,
            feasible_trees,
            pairs,
            zero_meets,
            zero_never,
            forall_meet,
            forall_defeated,
            worst_round,
            max_defeat_delay,
        });
    }
    let mut t = Table::new(
        "E9",
        "exhaustive certification: all free trees, all ordered feasible pairs, basic walk",
        &[
            "n",
            "trees",
            "feasible",
            "pairs",
            "met@0",
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
    let verified = report.certificates.iter().filter(|c| c.lasso_stem.is_some()).count();
    let bogus = report.certificates.iter().filter(|c| c.verified == Some(false)).count();
    t.note(&format!(
        "{} certificates ({verified} lassos, every one re-verified by independent stepping{})",
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
        let quarantine: [Option<Quarantine>; 3] = [None, Some(poisoned_row), Some(timed_out_row)];
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
        let (poisoned, _) = sweep::quarantined_report(&spec, |_| Some(poisoned_row));
        let (summary, _) = summarize(&poisoned);
        assert_eq!(summary.len(), 2);
        assert!(verdicts(&summary).iter().all(|v| *v == [0; 7]), "{summary:?}");
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
