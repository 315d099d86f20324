//! # rvz-trees
//!
//! The anonymous, port-labeled tree substrate for the rendezvous
//! reproduction of Fraigniaud & Pelc, *Delays induce an exponential memory
//! gap for rendezvous in trees* (SPAA 2010).
//!
//! Provides:
//! * [`tree::Tree`] — validated port-labeled trees (§2.1 model);
//! * [`generators`] — the tree families used by the paper and its
//!   experiments (lines, 2-edge-colored lines, stars, spiders, caterpillars,
//!   complete binary trees, binomial trees, brooms, random trees) and
//!   adversarial relabelings;
//! * [`mod@center`] — central node / central edge (§2.2);
//! * [`contraction`] — the contraction `T'` (§4.1);
//! * [`canon`] — AHU canonical forms (structural / port-labeled / marked)
//!   and canonical node ranks;
//! * [`symmetry`] — automorphisms, symmetry w.r.t. a labeling, topological
//!   symmetry, and the **perfect symmetrizability** decision procedure
//!   (Definition 1.2 / Fact 1.1).
//!
//! ```
//! use rvz_trees::generators::line;
//! use rvz_trees::perfectly_symmetrizable;
//!
//! // Fact 1.1: an even line can be labeled so its two halves mirror each
//! // other — identical deterministic agents starting on its leaves can
//! // never break the symmetry…
//! assert!(perfectly_symmetrizable(&line(6), 0, 5));
//! // …while an odd line's central *node* blocks every such labeling, so
//! // the leaf pair is feasible and rendezvous is the agents' problem.
//! assert!(!perfectly_symmetrizable(&line(7), 0, 6));
//! ```

pub mod canon;
pub mod center;
pub mod contraction;
pub mod dot;
pub mod enumerate;
pub mod generators;
pub mod symmetry;
pub mod tree;

pub use center::{center, Center};
pub use contraction::{contract, Contraction};
pub use symmetry::{
    perfectly_symmetrizable, perfectly_symmetrizable_matrix, symmetric_wrt_labeling,
    topologically_symmetric,
};
pub use tree::{Edge, NodeId, Port, Tree, TreeError};
