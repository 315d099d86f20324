//! Eventually-periodic activation schedules — the adversary's full power
//! over *when* agents run.
//!
//! The paper's arbitrary-delay scenario gives the adversary one knob: a
//! start delay θ that holds agent B at home for the first θ rounds. The
//! delay-fault literature (Chalopin et al., *Rendezvous in Networks in
//! Spite of Delay Faults*) generalizes the knob to per-round faults: in
//! every round the adversary decides, per agent, whether that agent is
//! *activated* (observes and acts) or *frozen* (its cursor — node and
//! entry port — is untouched and it perceives nothing). An
//! [`EnsembleSchedule`] captures the eventually-periodic fragment of that
//! power over `k` lanes: explicit per-round flags for a finite prefix,
//! then a cycle repeated forever. A pair is the two-lane case. Eventual
//! periodicity is what keeps every downstream question decidable — the
//! exact decider extends its product construction by the cycle position
//! (`rvz_lowerbounds::decide::decide_ensemble`), and the trace-replay
//! engine answers schedule cells against unchanged solo recordings
//! ([`crate::trace::replay_ensemble`]).
//!
//! The frozen semantics is chosen so that an agent's trajectory *as a
//! function of its activation count* is schedule-independent: the k-th
//! activation of a deterministic agent sees exactly the observation it
//! would see in an uninterrupted solo run. That invariant is what lets
//! one [`crate::trace::Trajectory`] recording serve every schedule
//! ([`ActivationIndex`] maps global rounds to activation counts and
//! back), and it makes [`EnsembleSchedule::start_delays`]`(&[0, θ])`
//! literally the legacy scenario: a prefix of `[true, false]` rounds, then
//! both agents forever.
//!
//! Round indices are 1-based throughout, matching the simulator: round 0
//! is the initial placement (before any activation), and
//! [`EnsembleSchedule::active`]`(r)` answers for rounds `r ≥ 1`.

/// An eventually-periodic activation schedule over `k` lanes. Each round
/// is a row of `k` flags; lane `i` of the row says whether agent `i` is
/// activated that round. A frozen lane keeps its cursor (node *and* entry
/// port) and perceives nothing, so each lane's trajectory as a function
/// of its activation count is schedule-independent — one solo recording
/// per agent serves every schedule. Two-agent runs use two lanes; the
/// lane-asymmetric constructors fault the *last* lane, agent B of a pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnsembleSchedule {
    /// Lane count `k ≥ 1`; every row below has exactly `k` flags.
    lanes: usize,
    /// Rows for rounds `1..=prefix.len()`.
    pub prefix: Vec<Vec<bool>>,
    /// Rows repeated forever after the prefix; never empty.
    pub cycle: Vec<Vec<bool>>,
}

impl EnsembleSchedule {
    /// Materialization cap for the constructors that unroll a round count
    /// into explicit prefix rows ([`EnsembleSchedule::start_delays`],
    /// [`EnsembleSchedule::crash_last_after`]) or per-round counts
    /// ([`ActivationIndex::start_delay`]). Delays beyond it have no
    /// schedule form — the simulator and the decider take θ as an integer
    /// instead (`PairConfig::delayed`, `run_ensemble_with`'s activation
    /// rule, `decide_ensemble_from_lassos`).
    pub const MAX_MATERIALIZED_PREFIX: u64 = 1 << 22;

    /// A schedule from explicit rows. The cycle must be non-empty and
    /// every row must have exactly `lanes` flags.
    pub fn new(lanes: usize, prefix: Vec<Vec<bool>>, cycle: Vec<Vec<bool>>) -> Self {
        assert!(lanes >= 1, "an ensemble schedule needs at least one lane");
        assert!(!cycle.is_empty(), "schedule cycle must be non-empty");
        for row in prefix.iter().chain(&cycle) {
            assert_eq!(row.len(), lanes, "every schedule row must cover all {lanes} lanes");
        }
        EnsembleSchedule { lanes, prefix, cycle }
    }

    /// All `k` agents every round — the simultaneous-start scenario.
    pub fn simultaneous(lanes: usize) -> Self {
        EnsembleSchedule::new(lanes, Vec::new(), vec![vec![true; lanes]])
    }

    /// Per-lane start delays: lane `i` is frozen through round
    /// `delays[i]` and active from round `delays[i] + 1` forever. The
    /// two-lane form with `delays = [0, θ]` is the paper's start delay θ.
    pub fn start_delays(delays: &[u64]) -> Self {
        let lanes = delays.len();
        let max = delays.iter().copied().max().unwrap_or(0);
        assert!(
            max <= Self::MAX_MATERIALIZED_PREFIX,
            "start_delays would materialize a {max}-entry prefix"
        );
        let prefix = (1..=max).map(|r| delays.iter().map(|&d| r > d).collect()).collect();
        EnsembleSchedule::new(lanes, prefix, vec![vec![true; lanes]])
    }

    /// All lanes for `rounds` rounds, then the last lane crashes (is
    /// never activated again) while the rest keep running — the
    /// crash-fault scenario.
    pub fn crash_last_after(lanes: usize, rounds: u64) -> Self {
        assert!(
            rounds <= Self::MAX_MATERIALIZED_PREFIX,
            "crash_last_after({rounds}) would materialize a {rounds}-entry prefix"
        );
        let mut survivor_row = vec![true; lanes];
        survivor_row[lanes - 1] = false;
        EnsembleSchedule::new(lanes, vec![vec![true; lanes]; rounds as usize], vec![survivor_row])
    }

    /// Lanes `0..k-1` every round; the last lane only in rounds `r` with
    /// `(r - 1) mod period == phase` — the adversary slows one agent to a
    /// `1/period` duty cycle. `intermittent_last(k, 1, 0)` is
    /// [`EnsembleSchedule::simultaneous`].
    pub fn intermittent_last(lanes: usize, period: u64, phase: u64) -> Self {
        assert!(period >= 1, "intermittent period must be at least 1");
        assert!(phase < period, "intermittent phase must be below the period");
        let cycle = (0..period)
            .map(|i| {
                let mut row = vec![true; lanes];
                row[lanes - 1] = i == phase;
                row
            })
            .collect();
        EnsembleSchedule::new(lanes, Vec::new(), cycle)
    }

    /// A seeded adversarial two-lane sample: uniformly random flags over
    /// a prefix of length `≤ max_prefix` and a cycle of length
    /// `1..=max_cycle`, deterministic in `seed`. A cycle that activates
    /// nobody is patched to both lanes in its first slot so the sampled run
    /// cannot freeze forever (the all-frozen tail is a legal but trivial
    /// adversary — every pair with distinct starts never meets).
    pub fn adversarial(seed: u64, max_prefix: usize, max_cycle: usize) -> Self {
        assert!(max_cycle >= 1, "cycle needs at least one slot to sample");
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the same deterministic stream the sweep's
            // per-cell seeding uses; no RNG dependency.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let row = |bits: u64| vec![bits & 1 != 0, bits & 2 != 0];
        let p = (next() % (max_prefix as u64 + 1)) as usize;
        let c = (1 + next() % max_cycle as u64) as usize;
        let prefix = (0..p).map(|_| row(next())).collect();
        let mut cycle: Vec<Vec<bool>> = (0..c).map(|_| row(next())).collect();
        if cycle.iter().all(|r| r == &[false, false]) {
            cycle[0] = vec![true, true];
        }
        EnsembleSchedule::new(2, prefix, cycle)
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    pub fn prefix_len(&self) -> u64 {
        self.prefix.len() as u64
    }

    pub fn cycle_len(&self) -> u64 {
        self.cycle.len() as u64
    }

    /// Activation flags for round `round ≥ 1`, one per lane.
    #[inline]
    pub fn active(&self, round: u64) -> &[bool] {
        debug_assert!(round >= 1, "round 0 is the initial placement, nobody acts");
        let p = self.prefix.len() as u64;
        if round <= p {
            &self.prefix[(round - 1) as usize]
        } else {
            &self.cycle[((round - 1 - p) % self.cycle.len() as u64) as usize]
        }
    }

    /// `true` when every lane sees identical flags every round — the
    /// class on which permuting the agents merely relabels lanes, so the
    /// sweep's orbit quotient may permute start tuples soundly.
    pub fn lane_symmetric(&self) -> bool {
        self.prefix.iter().chain(&self.cycle).all(|row| row.iter().all(|&f| f == row[0]))
    }

    /// Activation arithmetic for lane `lane`.
    pub fn index(&self, lane: usize) -> ActivationIndex {
        assert!(lane < self.lanes, "lane {lane} out of range for {} lanes", self.lanes);
        ActivationIndex::from_flags(
            self.prefix.iter().map(|row| row[lane]),
            self.cycle.iter().map(|row| row[lane]),
        )
    }

    /// Activation arithmetic for every lane, in lane order — what
    /// [`crate::trace::replay_ensemble`] merges on.
    pub fn indices(&self) -> Vec<ActivationIndex> {
        (0..self.lanes).map(|lane| self.index(lane)).collect()
    }
}

/// One lane's activation arithmetic under an [`EnsembleSchedule`]: cumulative
/// activation counts over the prefix and one cycle, answering both
/// directions of the round ↔ activation-count correspondence in
/// O(log(prefix + cycle)). This is the "schedule-aware cursor
/// advancement" the trace-replay merge runs on: a solo
/// [`crate::trace::Trajectory`] is indexed by activation count, and the
/// merge's global clock is rounds.
#[derive(Debug, Clone)]
pub struct ActivationIndex {
    /// `prefix_cum[i]` = activations in rounds `1..=i`; length `p + 1`.
    prefix_cum: Vec<u64>,
    /// `cycle_cum[i]` = activations in the first `i` cycle slots; length
    /// `c + 1`.
    cycle_cum: Vec<u64>,
}

impl ActivationIndex {
    /// Activation arithmetic of a lane frozen through round `theta` and
    /// active every round after: lane `i` of
    /// [`EnsembleSchedule::start_delays`] with `delays[i] = theta`, built
    /// without materializing any schedule row. Capped like the schedule
    /// (one count per frozen round).
    pub fn start_delay(theta: u64) -> Self {
        assert!(
            theta <= EnsembleSchedule::MAX_MATERIALIZED_PREFIX,
            "start_delay would materialize a {theta}-entry prefix"
        );
        ActivationIndex { prefix_cum: vec![0; theta as usize + 1], cycle_cum: vec![0, 1] }
    }

    /// Activation arithmetic from one lane's raw flag streams.
    fn from_flags(prefix: impl Iterator<Item = bool>, cycle: impl Iterator<Item = bool>) -> Self {
        fn cum(flags: impl Iterator<Item = bool>) -> Vec<u64> {
            let mut v = vec![0u64];
            for f in flags {
                let last = *v.last().expect("seeded");
                v.push(last + u64::from(f));
            }
            v
        }
        ActivationIndex { prefix_cum: cum(prefix), cycle_cum: cum(cycle) }
    }

    /// Activations per full cycle.
    pub fn per_cycle(&self) -> u64 {
        *self.cycle_cum.last().expect("cycle_cum seeded")
    }

    /// Number of activations in rounds `1..=round` (0 at round 0).
    pub fn acts_at(&self, round: u64) -> u64 {
        let p = (self.prefix_cum.len() - 1) as u64;
        if round <= p {
            return self.prefix_cum[round as usize];
        }
        let c = (self.cycle_cum.len() - 1) as u64;
        let past = round - p;
        self.prefix_cum[p as usize]
            .saturating_add((past / c).saturating_mul(self.per_cycle()))
            .saturating_add(self.cycle_cum[(past % c) as usize])
    }

    /// Global round of the `k`-th activation (`k ≥ 1`), or `None` when
    /// the agent is activated fewer than `k` times ever (it crashed, or
    /// the cycle never activates it).
    pub fn round_of_act(&self, k: u64) -> Option<u64> {
        debug_assert!(k >= 1, "activation counts are 1-based");
        let p = (self.prefix_cum.len() - 1) as u64;
        let in_prefix = self.prefix_cum[p as usize];
        if k <= in_prefix {
            return Some(self.prefix_cum.partition_point(|&v| v < k) as u64);
        }
        let per = self.per_cycle();
        if per == 0 {
            return None;
        }
        let c = (self.cycle_cum.len() - 1) as u64;
        let rem = k - in_prefix; // ≥ 1
        let full = (rem - 1) / per;
        let within = rem - full * per; // 1..=per
        let slot = self.cycle_cum.partition_point(|&v| v < within) as u64;
        Some(p.saturating_add(full.saturating_mul(c)).saturating_add(slot))
    }

    /// Last global round at which the activation count is still below
    /// `k + 1` — i.e. through which an agent frozen after its `k`-th
    /// activation provably keeps its cursor. `u64::MAX` when activation
    /// `k + 1` never happens.
    pub fn frozen_through(&self, k: u64) -> u64 {
        match self.round_of_act(k.saturating_add(1)) {
            Some(r) => r - 1,
            None => u64::MAX,
        }
    }

    /// `Some(θ)` when this lane is a pure start delay — frozen through
    /// round `θ`, active every round after — so `acts_at(r) = r − θ`
    /// (saturating) and the merge can run on constant-shift arithmetic
    /// instead of the cycle div/mod and binary searches. This covers the
    /// simultaneous and start-delay lanes of every ensemble schedule (the
    /// bulk of the sweep grids); crashed and intermittent lanes return
    /// `None` and keep the general index.
    pub(crate) fn as_pure_shift(&self) -> Option<u64> {
        if self.cycle_cum.as_slice() != [0, 1] {
            return None;
        }
        let p = self.prefix_cum.len() as u64 - 1;
        let shift = p - self.prefix_cum[p as usize];
        for (i, &v) in self.prefix_cum.iter().enumerate() {
            if v != (i as u64).saturating_sub(shift) {
                return None;
            }
        }
        Some(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-lane rows from `"ab"` bit strings (`a` = lane 0, `b` = lane 1).
    fn rows(bits: &[&str]) -> Vec<Vec<bool>> {
        bits.iter().map(|r| r.bytes().map(|b| b == b'1').collect()).collect()
    }

    #[test]
    fn lane_symmetry_matches_the_flag_pattern() {
        assert!(EnsembleSchedule::simultaneous(2).lane_symmetric());
        assert!(EnsembleSchedule::new(2, Vec::new(), rows(&["11", "00"])).lane_symmetric());
        assert!(!EnsembleSchedule::start_delays(&[0, 1]).lane_symmetric());
        assert!(!EnsembleSchedule::intermittent_last(2, 2, 0).lane_symmetric());
        assert!(!EnsembleSchedule::crash_last_after(2, 3).lane_symmetric());
        assert!(!EnsembleSchedule::crash_last_after(3, 4).lane_symmetric());
        assert!(EnsembleSchedule::simultaneous(3).lane_symmetric());
        // θ = 0 start delay has an empty prefix and an all-on cycle.
        assert!(EnsembleSchedule::start_delays(&[0, 0]).lane_symmetric());
    }

    /// Brute-force activation count straight off `EnsembleSchedule::active`.
    fn brute_acts(s: &EnsembleSchedule, lane: usize, round: u64) -> u64 {
        (1..=round).filter(|&r| s.active(r)[lane]).count() as u64
    }

    #[test]
    fn constructors_have_the_advertised_shapes() {
        let sim = EnsembleSchedule::simultaneous(2);
        assert_eq!(EnsembleSchedule::start_delays(&[0, 0]), sim);
        assert_eq!(EnsembleSchedule::intermittent_last(2, 1, 0), sim);
        // The start delay θ freezes lane 1 for θ rounds, then runs both.
        let s = EnsembleSchedule::start_delays(&[0, 2]);
        assert_eq!(s.prefix.len(), 2);
        assert_eq!(s.active(2), &[true, false]);
        assert_eq!(s.active(3), &[true, true]);
        assert_eq!(s.active(1_000), &[true, true]);
        // intermittent activates the last lane exactly once per period, at
        // the phase.
        let s = EnsembleSchedule::intermittent_last(2, 3, 1);
        for r in 1..=12u64 {
            assert_eq!(s.active(r), &[true, (r - 1) % 3 == 1], "round {r}");
        }
        // crash_last_after freezes the last lane from round rounds+1 on.
        let s = EnsembleSchedule::crash_last_after(2, 2);
        assert_eq!(s.active(2), &[true, true]);
        assert_eq!(s.active(3), &[true, false]);
        assert_eq!(s.active(1_000_000), &[true, false]);
        // Three lanes with staggered delays: lane i first acts at round
        // delays[i] + 1.
        let e = EnsembleSchedule::start_delays(&[0, 2, 5]);
        for (lane, delay) in [(0usize, 0u64), (1, 2), (2, 5)] {
            let idx = e.index(lane);
            assert_eq!(idx.acts_at(delay), 0, "lane {lane} frozen through its delay");
            assert_eq!(idx.round_of_act(1), Some(delay + 1), "lane {lane} first activation");
        }
        // Crash: the last lane plateaus, the others run forever.
        let e = EnsembleSchedule::crash_last_after(3, 4);
        assert_eq!(e.index(2).acts_at(1 << 30), 4);
        assert_eq!(e.index(0).acts_at(100), 100);
    }

    #[test]
    fn active_is_periodic_past_the_prefix() {
        let s = EnsembleSchedule::new(2, rows(&["01", "10"]), rows(&["11", "00", "10"]));
        for r in 3..=40u64 {
            assert_eq!(s.active(r), s.active(r + 3), "round {r}");
        }
        assert_eq!(s.active(1), &[false, true]);
        assert_eq!(s.active(2), &[true, false]);
    }

    #[test]
    fn activation_index_matches_brute_force_counting() {
        let schedules = [
            EnsembleSchedule::simultaneous(2),
            EnsembleSchedule::start_delays(&[0, 5]),
            EnsembleSchedule::intermittent_last(2, 3, 2),
            EnsembleSchedule::crash_last_after(2, 4),
            EnsembleSchedule::new(2, rows(&["00"; 3]), rows(&["10", "01"])),
            EnsembleSchedule::adversarial(0xFEED, 6, 5),
            EnsembleSchedule::start_delays(&[1, 0, 4]),
        ];
        for s in &schedules {
            for lane in 0..s.lanes() {
                let idx = s.index(lane);
                for round in 0..=50u64 {
                    assert_eq!(
                        idx.acts_at(round),
                        brute_acts(s, lane, round),
                        "{s:?} lane={lane} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn start_delay_index_matches_the_schedule_lane() {
        for delays in [[0, 0, 0], [0, 3, 0], [4, 0, 9], [1, 2, 3]] {
            let s = EnsembleSchedule::start_delays(&delays);
            for (lane, &theta) in delays.iter().enumerate() {
                let (direct, via_rows) = (ActivationIndex::start_delay(theta), s.index(lane));
                assert_eq!(direct.as_pure_shift(), Some(theta));
                for r in 0..=20u64 {
                    assert_eq!(direct.acts_at(r), via_rows.acts_at(r), "{delays:?} lane {lane}");
                }
                for k in 1..=12u64 {
                    assert_eq!(direct.round_of_act(k), via_rows.round_of_act(k));
                    assert_eq!(direct.frozen_through(k - 1), via_rows.frozen_through(k - 1));
                }
            }
        }
    }

    #[test]
    fn round_of_act_inverts_acts_at() {
        let schedules = [
            EnsembleSchedule::start_delays(&[0, 4]),
            EnsembleSchedule::intermittent_last(2, 4, 1),
            EnsembleSchedule::crash_last_after(2, 3),
            EnsembleSchedule::adversarial(7, 5, 4),
        ];
        for s in &schedules {
            for idx in [s.index(0), s.index(1)] {
                for k in 1..=30u64 {
                    match idx.round_of_act(k) {
                        Some(r) => {
                            assert_eq!(idx.acts_at(r), k, "{s:?} k={k}: round {r}");
                            assert_eq!(idx.acts_at(r - 1), k - 1, "{s:?} k={k}: activation round");
                        }
                        None => {
                            // Bounded activations: the count plateaus.
                            assert!(idx.acts_at(1 << 20) < k, "{s:?} k={k}");
                        }
                    }
                }
                // frozen_through is the round before the next activation.
                for k in 0..=10u64 {
                    let end = idx.frozen_through(k);
                    if end != u64::MAX {
                        assert_eq!(idx.acts_at(end), k);
                        assert_eq!(idx.acts_at(end + 1), k + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn crashed_agent_has_finitely_many_activations() {
        let idx = EnsembleSchedule::crash_last_after(2, 3).index(1);
        assert_eq!(idx.round_of_act(3), Some(3));
        assert_eq!(idx.round_of_act(4), None);
        assert_eq!(idx.frozen_through(3), u64::MAX);
        assert_eq!(idx.acts_at(1 << 40), 3);
    }

    #[test]
    fn adversarial_sampler_is_deterministic_and_live() {
        let a = EnsembleSchedule::adversarial(42, 8, 6);
        let b = EnsembleSchedule::adversarial(42, 8, 6);
        assert_eq!(a, b, "same seed, same schedule");
        for seed in 0..64u64 {
            let s = EnsembleSchedule::adversarial(seed, 8, 6);
            assert_eq!(s.lanes(), 2);
            assert!(
                s.cycle.iter().any(|row| row.contains(&true)),
                "sampled cycle must activate someone (seed {seed})"
            );
            assert!(s.prefix.len() <= 8 && s.cycle.len() <= 6);
        }
    }

    #[test]
    fn adversarial_sampler_replays_its_pinned_stream() {
        // Draws recorded from the sampler before it moved onto two-lane
        // rows: the splitmix stream and the all-off patch are part of
        // every adversarial cell's identity.
        let pinned: [(u64, usize, usize, &[&str], &[&str]); 6] = [
            (42, 8, 6, &["01"], &["00", "01"]),
            (0xE10, 8, 6, &["01", "00", "01"], &["01", "10", "10", "01", "11", "00"]),
            (7, 5, 4, &["01", "11", "01"], &["10"]),
            (0, 8, 6, &["11", "00", "11", "01", "10", "00", "11"], &["01"]),
            (3, 0, 1, &[], &["10"]),
            // The drawn cycle is `["00"]`: patched to both lanes.
            (18, 8, 6, &["01"], &["11"]),
        ];
        for (seed, max_prefix, max_cycle, prefix, cycle) in pinned {
            assert_eq!(
                EnsembleSchedule::adversarial(seed, max_prefix, max_cycle),
                EnsembleSchedule::new(2, rows(prefix), rows(cycle)),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cycle must be non-empty")]
    fn empty_cycles_are_rejected() {
        let _ = EnsembleSchedule::new(2, rows(&["11"]), Vec::new());
    }

    #[test]
    #[should_panic(expected = "must cover all 3 lanes")]
    fn ragged_ensemble_rows_are_rejected() {
        let _ = EnsembleSchedule::new(3, Vec::new(), vec![vec![true, true]]);
    }
}
