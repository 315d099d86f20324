//! # rvz-lowerbounds
//!
//! Constructive lower-bound adversaries for Fraigniaud & Pelc (SPAA 2010).
//! Each theorem's proof is, operationally, an algorithm mapping an arbitrary
//! automaton to an instance it fails on; this crate implements those
//! algorithms and *verifies the failure by simulation* (plus verifies that
//! the instance is feasible, i.e. not perfectly symmetrizable — so the
//! failure is the automaton's fault, not the instance's):
//!
//! * [`mod@delay_attack`] — Theorem 3.1 / Fig. 1: an arbitrary-delay adversary
//!   defeating any `K`-state agent on a line of length `O(K)`
//!   ⇒ `Ω(log n)` bits with arbitrary delay;
//! * [`mod@sync_attack`] — Theorem 4.2: a *simultaneous-start* adversary on
//!   lines of length `O(K^K)` ⇒ `Ω(log log n)` bits with delay zero;
//! * [`side_trees`] — Theorem 4.3: the behavior-function pigeonhole on
//!   two-sided trees with `ℓ = 2i` leaves ⇒ `Ω(log ℓ)` bits, max degree 3;
//! * [`infinite_line`] — the shared infinite-colored-line analysis
//!   (boundedness vs drift classification, trajectory envelopes);
//! * [`mod@decide`] — the exact rendezvous decider over the joint
//!   configuration graph: budget-free `Meets`/`NeverMeets` verdicts with
//!   lasso certificates, the ∀-delay quantifier
//!   [`decide::worst_case_delay`], and the activation-schedule extension
//!   over `k` lanes ([`decide::decide_ensemble`] — the product
//!   configuration grows the schedule's cycle position; a pair is
//!   [`decide::decide_pair_scheduled`]).
//!
//! Combined with [`rvz_agent::compile`], the Theorem 3.1 adversary can be
//! pointed at *our own* (capped) upper-bound agents — the end-to-end
//! demonstration of the title's exponential gap.
//!
//! ```
//! use rvz_agent::Fsa;
//! use rvz_lowerbounds::{decide_pair, verify_lasso};
//! use rvz_trees::generators::line;
//!
//! // The 0-bit basic walk meets the leaf pair of an odd line at delay 0,
//! // but a single round of delay flips the distance parity for good — and
//! // the decider *proves* it with a checkable lasso, no round budget.
//! let t = line(5);
//! let fsa = Fsa::basic_walk(2);
//! assert!(decide_pair(&t, &fsa, 0, 4, 0).met());
//! let defeated = decide_pair(&t, &fsa, 0, 4, 1);
//! let lasso = defeated.lasso().expect("certified never-meets");
//! assert!(verify_lasso(&t, &fsa, 0, 4, 1, lasso));
//! ```

pub mod decide;
pub mod delay_attack;
pub mod exhaustive;
pub mod infinite_line;
pub mod side_trees;
pub mod sync_attack;

pub use decide::{
    decide_ensemble, decide_ensemble_from_lassos, decide_pair, decide_pair_scheduled,
    verify_delayed_ensemble_lasso, verify_ensemble_lasso, verify_lasso, verify_schedule_lasso,
    worst_case_delay, Decision, EnsembleDecision, EnsembleLasso, EnsembleVerdict, Lasso, Verdict,
    WorstCase,
};
pub use delay_attack::{delay_attack, Attack, AttackError, AttackKind};
pub use side_trees::{side_tree_attack, SideTreeAttack, SideTreeError};
pub use sync_attack::{analyze_pi_prime, sync_attack, SyncAttack, SyncAttackError};
