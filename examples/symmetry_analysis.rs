//! Feasibility analysis: when can two agents meet at all?
//!
//! ```text
//! cargo run --release --example symmetry_analysis
//! ```
//!
//! Walks through the paper's Definition 1.2 / Fact 1.1 on the classical
//! examples: odd and even lines, complete binary trees — including an
//! explicit *symmetrization witness* (a port labeling plus the
//! port-preserving involution) for a perfectly symmetrizable pair.
//!
//! Claim demonstrated: **Definition 1.2 / Fact 1.1** — the feasibility
//! predicate every sweep grid's start-pair pool is filtered by.

use tree_rendezvous::trees::generators::{complete_binary, line};
use tree_rendezvous::trees::symmetry::{
    perfectly_symmetrizable, symmetrization_witness, topologically_symmetric,
};

fn main() {
    // Odd line: the two leaves are topologically symmetric, yet NOT
    // perfectly symmetrizable (the central node blocks every labeling).
    let odd = line(7);
    println!("line(7):  leaves (0, 6)");
    println!("  topologically symmetric:  {}", topologically_symmetric(&odd, 0, 6));
    println!("  perfectly symmetrizable:  {}", perfectly_symmetrizable(&odd, 0, 6));
    println!("  ⇒ rendezvous is FEASIBLE for every port labeling (Fact 1.1)");
    println!();

    // Even line: mirror pairs ARE perfectly symmetrizable.
    let even = line(8);
    println!("line(8):  leaves (0, 7)");
    println!("  perfectly symmetrizable:  {}", perfectly_symmetrizable(&even, 0, 7));
    let (relabeled, f) = symmetrization_witness(&even, 0, 7).expect("witness exists");
    println!("  witness: a labeling of the line plus the involution");
    println!("           f = {:?}", f);
    println!("           (f preserves relabeled ports: the adversary labeling");
    println!("            under which NO deterministic identical agents can meet)");
    let _ = relabeled;
    println!(
        "  non-mirror pair (0, 5): perfectly symmetrizable = {}",
        perfectly_symmetrizable(&even, 0, 5)
    );
    println!();

    // Complete binary tree: all leaves topologically symmetric, none
    // perfectly symmetrizable (central node again).
    let cb = complete_binary(3);
    let leaves = cb.leaves();
    println!(
        "complete_binary(3): {} nodes, leaves {:?}…",
        cb.num_nodes(),
        &leaves[..3.min(leaves.len())]
    );
    println!(
        "  leaves ({}, {}): topologically symmetric = {}, perfectly symmetrizable = {}",
        leaves[0],
        leaves[1],
        topologically_symmetric(&cb, leaves[0], leaves[1]),
        perfectly_symmetrizable(&cb, leaves[0], leaves[1])
    );
    println!("  ⇒ the paper's §1 examples, reproduced by the decision procedure");
}
