//! **E6 — the title claim (§1.1)**: the exponential memory gap.
//!
//! The paper's headline figure-in-words: for trees with few leaves, memory
//! for *simultaneous-start* rendezvous is `O(log ℓ + log log n)` while
//! *arbitrary-delay* rendezvous needs `Θ(log n)`. This experiment produces
//! the two series side by side, on lines (ℓ = 2) and 3-leg spiders (ℓ = 3),
//! as `n` grows geometrically:
//!
//! * `delay-0 bits` — measured charged memory of the Theorem 4.1 agent;
//! * `any-delay bits` — measured charged memory of the `O(log n)` baseline
//!   (whose necessity is Theorem 3.1, regenerated as E1);
//! * the yardsticks `log ℓ + log log n` and `log n`.

use crate::instances::feasible_tuples;
use crate::table::{f, Table};
use rvz_core::{DelayRobustAgent, TreeRendezvousAgent};
use rvz_sim::{run_pair, PairConfig};
use rvz_trees::generators::{line, spider};
use rvz_trees::Tree;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct E6Row {
    pub family: String,
    pub n: usize,
    pub leaves: usize,
    /// Provisioned automaton size for the delay-0 algorithm at this (n, ℓ).
    pub delay0_bits: u64,
    pub delay0_met: bool,
    /// Provisioned automaton size for the arbitrary-delay baseline at n.
    pub anydelay_bits: u64,
    pub anydelay_met: bool,
    pub yard_small: f64,
    pub yard_log_n: f64,
}

pub fn run(sizes: &[usize], seed: u64) -> (Vec<E6Row>, Table) {
    let mut rows = Vec::new();
    for &n in sizes {
        for (family, tree) in [("line", line(n)), ("spider3", spider(3, (n / 3).max(1)))] {
            rows.push(measure(family, &tree, seed));
        }
    }
    let table = to_table(&rows);
    (rows, table)
}

fn measure(family: &str, tree: &Tree, seed: u64) -> E6Row {
    let n = tree.num_nodes();
    let leaves = tree.num_leaves();
    let pair = &feasible_tuples(tree, 2, 1, seed ^ 0xE6)[0];
    let (a, b) = (pair[0], pair[1]);
    let budget = crate::sweep::budget_for(n);

    let mut x = TreeRendezvousAgent::new();
    let mut y = TreeRendezvousAgent::new();
    let run0 = run_pair(tree, a, b, &mut x, &mut y, PairConfig::simultaneous(budget));
    let delay0_bits = TreeRendezvousAgent::provisioned_bits(n as u64, leaves as u64);

    // The arbitrary-delay scenario: an adversarial delay of n rounds.
    let mut p = DelayRobustAgent::new();
    let mut q = DelayRobustAgent::new();
    let rund = run_pair(tree, a, b, &mut p, &mut q, PairConfig::delayed(n as u64, budget));
    let anydelay_bits = DelayRobustAgent::provisioned_bits(n as u64);

    E6Row {
        family: family.to_string(),
        n,
        leaves,
        delay0_bits,
        delay0_met: run0.outcome.met(),
        anydelay_bits,
        anydelay_met: rund.outcome.met(),
        yard_small: (leaves as f64).log2() + (n as f64).log2().log2(),
        yard_log_n: (n as f64).log2(),
    }
}

fn to_table(rows: &[E6Row]) -> Table {
    let mut t = Table::new(
        "E6",
        "Title claim: exponential memory gap on few-leaf trees (delay 0 vs arbitrary delay)",
        &[
            "family",
            "n",
            "ℓ",
            "delay-0 bits",
            "met",
            "any-delay bits",
            "met ",
            "log ℓ+loglog n",
            "log n",
        ],
    );
    // Fitted bits-per-doubling slopes, per family (the quantitative shape).
    for family in ["line", "spider3"] {
        let pts0: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.family == family)
            .map(|r| (r.n as f64, r.delay0_bits as f64))
            .collect();
        let ptsd: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.family == family)
            .map(|r| (r.n as f64, r.anydelay_bits as f64))
            .collect();
        if pts0.len() >= 2 {
            t.note(&format!(
                "{family}: fitted bits/doubling — delay-0: {:.2}, any-delay: {:.2} (paper: ~0 vs ~Θ(1)·log)",
                crate::stats::bits_per_doubling(&pts0),
                crate::stats::bits_per_doubling(&ptsd),
            ));
        }
    }
    for r in rows {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.leaves.to_string(),
            r.delay0_bits.to_string(),
            if r.delay0_met { "y" } else { "N" }.to_string(),
            r.anydelay_bits.to_string(),
            if r.anydelay_met { "y" } else { "N" }.to_string(),
            f(r.yard_small),
            f(r.yard_log_n),
        ]);
    }
    t.note("paper: delay-0 memory tracks log ℓ + log log n; arbitrary-delay memory tracks log n (Thm 3.1 makes log n necessary)");
    t.note("shape check: as n doubles repeatedly, the any-delay column climbs steadily, the delay-0 column crawls");
    t
}
