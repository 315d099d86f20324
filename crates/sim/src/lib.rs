//! # rvz-sim
//!
//! The synchronous-round simulator of the paper's §2.1 model: one, two,
//! or `k` identical agents walk an anonymous port-labeled tree; the
//! adversary chooses the port labeling, the initial positions and *when
//! the agents run* — the start delay θ of the arbitrary-delay scenario,
//! or a full eventually-periodic activation [`EnsembleSchedule`]
//! (per-round delay faults à la Chalopin et al.) with one lane per agent.
//! Rendezvous is *being at the same node at the end of the same round* —
//! crossing inside an edge does not count (Lemma 4.8 depends on this),
//! though crossings are detected and reported for the lower-bound
//! instrumentation. Gathering (all `k` co-located at a round boundary,
//! [`run_ensemble`]) is the k-agent generalization; rendezvous is its
//! `k = 2` case, and [`run_pair`] is the classic two-agent API over the
//! same round loop. The [`trace`] module answers the same runs from solo
//! recordings: [`replay_ensemble`] for any schedule at any `k ≥ 2`, and
//! [`replay_pair`] for the start-delayed pair, by constant shift.
//!
//! ```
//! use rvz_sim::EnsembleSchedule;
//!
//! // The arbitrary-delay scenario is the two-lane schedule that stalls
//! // agent B for θ rounds: round 3 is the first in which both agents act.
//! let theta = EnsembleSchedule::start_delays(&[0, 2]);
//! assert_eq!(theta.active(2), &[true, false]);
//! assert_eq!(theta.active(3), &[true, true]);
//! // θ = 0 is the simultaneous start: both agents act from round 1.
//! assert_eq!(EnsembleSchedule::simultaneous(2).active(1), &[true, true]);
//! ```

pub mod cancel;
pub mod runner;
pub mod schedule;
pub mod trace;

pub use runner::{
    pair_index, run_ensemble, run_ensemble_fsa, run_ensemble_with, run_pair, run_single, Cursor,
    EnsembleRun, Outcome, PairConfig, PairRun, SingleRun,
};
pub use schedule::{ActivationIndex, EnsembleSchedule};
pub use trace::{replay_ensemble, replay_pair, EnsembleReplay, Replay, TraceRecorder, Trajectory};
