//! # rvz-bench
//!
//! The experiment harness: one module per paper artifact (see README.md
//! for the run guide), each producing typed rows plus a rendered table.
//! The `experiments` binary drives them; the criterion benches under
//! `benches/` time the heavy kernels.
//!
//! | module | regenerates |
//! |---|---|
//! | [`e1`] | Theorem 3.1 / Fig. 1 — arbitrary-delay adversary |
//! | [`e2`] | Theorem 4.1 — simultaneous-start upper bound |
//! | [`e3`] | Lemma 4.1 — `prime` on paths |
//! | [`e4`] | Theorem 4.2 — simultaneous-start adversary |
//! | [`e5`] | Theorem 4.3 — side-tree pigeonhole |
//! | [`e6`] | §1.1 title claim — the exponential gap series |
//! | [`e7`] | Figure 2 machinery — Claims 4.2/4.3, Lemma 4.2 |
//! | [`e8`] | ablation study — which Stage-2 pieces are load-bearing |
//! | [`e9`] | exhaustive certification — all free trees ≤ n, exact decider |
//! | [`e10`] | activation schedules — per-round delay faults, certified |
//! | [`e11`] | 3-agent gathering — the crash rescue inverted, certified |
//!
//! [`sweep`] is the parallel batch engine: it grids any of E1–E11 over
//! family × size × delay/schedule × variant and fans the cells across
//! threads with deterministic per-cell seeding
//! (`experiments --experiment <id>`, `--agents k` for k-agent
//! gathering). Three executors share the grid:
//! trace replay (default), dyn stepping, and the exact decider
//! (`--executor decide`, budget-free verdicts with lasso certificates).
//! See `docs/executors.md` for the executor guide and `docs/schemas.md`
//! for the JSON row/certificate schemas.
//!
//! ```
//! use rvz_bench::sweep::{preset, run, Executor};
//!
//! // A tiny e9 slice: every free tree on ≤ 5 nodes, every ordered
//! // feasible pair, exactly decided — zero budget-timeout cells by
//! // construction, every verdict carried by a re-verified certificate.
//! let mut spec = preset("e9", &[3, 4, 5], 1, 9).expect("e9 preset");
//! spec.executor = Executor::ExactDecide;
//! let report = run(&spec);
//! assert!(!report.rows.is_empty());
//! assert!(report.rows.iter().all(|row| row.certified));
//! ```

pub mod checkpoint;
pub mod cli;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod faults;
pub mod instances;
mod memo;
pub mod stats;
pub mod stores;
pub mod supervisor;
pub mod sweep;
pub mod table;
pub mod wire;

pub use sweep::{Executor, SweepRow, SweepSpec};
pub use table::Table;
