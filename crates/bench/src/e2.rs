//! **E2 — Theorem 4.1**: the simultaneous-start upper bound.
//!
//! Runs the full `O(log ℓ + log log n)` agent over the evaluation families
//! with adversarial labelings and sampled feasible start pairs. The paper
//! predicts: success on *every* feasible instance, with charged memory
//! bounded by `c₁·log ℓ + c₂·log log n + c₃`.

use crate::instances::{families, feasible_tuples};
use crate::table::{f, Table};
use rvz_agent::bits_for;
use rvz_core::TreeRendezvousAgent;
use rvz_sim::{run_pair, PairConfig};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct E2Row {
    pub family: String,
    pub n: usize,
    pub leaves: usize,
    pub pairs: usize,
    pub met: usize,
    pub rounds_mean: f64,
    pub rounds_max: u64,
    pub bits_charged_max: u64,
    pub bits_measured_max: u64,
    /// The claim's yardstick: `log2 ℓ + log2 log2 n`.
    pub yardstick: f64,
}

pub fn run(scale: usize, pairs_per_tree: usize, seed: u64) -> (Vec<E2Row>, Table) {
    let mut rows = Vec::new();
    for inst in families(scale, seed) {
        let n = inst.tree.num_nodes();
        let leaves = inst.tree.num_leaves();
        let budget = (n as u64).pow(2) * 40_000 + 1_000_000;
        let mut met = 0;
        let mut rounds = Vec::new();
        let mut bits_charged: u64 = 0;
        let mut bits_measured: u64 = 0;
        let pairs = feasible_tuples(&inst.tree, 2, pairs_per_tree, seed ^ 0xE2);
        for pair in &pairs {
            let (a, b) = (pair[0], pair[1]);
            let mut x = TreeRendezvousAgent::new();
            let mut y = TreeRendezvousAgent::new();
            let run = run_pair(&inst.tree, a, b, &mut x, &mut y, PairConfig::simultaneous(budget));
            if let Some(r) = run.outcome.round() {
                met += 1;
                rounds.push(r);
            }
            bits_charged = bits_charged.max(x.memory_bits_charged()).max(y.memory_bits_charged());
            bits_measured =
                bits_measured.max(x.memory_bits_measured()).max(y.memory_bits_measured());
        }
        let yardstick = (leaves as f64).log2() + (n as f64).log2().max(1.0).log2().max(0.0);
        rows.push(E2Row {
            family: inst.family.to_string(),
            n,
            leaves,
            pairs: pairs.len(),
            met,
            rounds_mean: if rounds.is_empty() {
                0.0
            } else {
                rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
            },
            rounds_max: rounds.iter().copied().max().unwrap_or(0),
            bits_charged_max: bits_charged,
            bits_measured_max: bits_measured,
            yardstick,
        });
    }
    let table = to_table(&rows);
    (rows, table)
}

fn to_table(rows: &[E2Row]) -> Table {
    let mut t = Table::new(
        "E2",
        "Thm 4.1: simultaneous-start rendezvous — success and memory vs log ℓ + log log n",
        &[
            "family",
            "n",
            "ℓ",
            "met",
            "rounds mean",
            "rounds max",
            "bits (charged)",
            "bits (measured)",
            "log ℓ + loglog n",
        ],
    );
    for r in rows {
        t.row(vec![
            r.family.clone(),
            r.n.to_string(),
            r.leaves.to_string(),
            format!("{}/{}", r.met, r.pairs),
            f(r.rounds_mean),
            r.rounds_max.to_string(),
            r.bits_charged_max.to_string(),
            r.bits_measured_max.to_string(),
            f(r.yardstick),
        ]);
    }
    t.note("paper: 100% success on feasible (non-perfectly-symmetrizable) instances");
    t.note("shape check: charged bits track the yardstick with a modest constant, independent of n for fixed ℓ");
    t.note(&format!(
        "sanity: bits_for(1024) = {} (what Ω(log n) would cost at n=1024)",
        bits_for(1024)
    ));
    t
}
