//! Integration smoke tests for the sweep engine (ISSUE 1 satellite):
//!
//! * a 2×2 grid (lines of size 4/8 × delay 0/3) whose rendezvous rounds
//!   must match direct `run_pair` calls replayed from the rows;
//! * byte-identical JSON across thread counts;
//! * a JSON round-trip for the result-row schema.

use rvz_bench::sweep::{self, Delay, Executor, Family, SweepSpec, Variant};
use rvz_core::DelayRobustAgent;
use rvz_sim::{run_pair, PairConfig};

fn grid_2x2(threads: usize) -> SweepSpec {
    SweepSpec {
        experiment: "smoke",
        families: vec![Family::Line],
        sizes: vec![4, 8],
        delays: vec![Delay::Fixed(0), Delay::Fixed(3)],
        variants: vec![Variant::DelayRobust],
        pairs_per_cell: 1,
        seed: 42,
        threads,
        executor: Executor::default(),
        agents: 2,
    }
}

#[test]
fn sweep_rounds_match_direct_run_pair() {
    let report = sweep::run(&grid_2x2(1));
    let rows = report.rows;
    assert_eq!(report.dropped_cells, 0);
    assert_eq!(rows.len(), 4, "2 sizes x 2 delays x 1 pair");

    for row in &rows {
        assert_eq!(row.family, "line");
        assert_eq!(row.variant, "delay-robust");
        // Replay the cell via the README recipe: rebuild the family from
        // the row's recorded tree_seed, rerun run_pair from the row.
        let tree = Family::Line.build(row.size, row.tree_seed);
        assert_eq!(tree.num_nodes(), row.n);
        let mut x = DelayRobustAgent::new();
        let mut y = DelayRobustAgent::new();
        let direct = run_pair(
            &tree,
            row.start_a,
            row.start_b,
            &mut x,
            &mut y,
            PairConfig::delayed(row.delay, row.budget),
        );
        assert_eq!(direct.outcome.met(), row.met, "met mismatch for n={}", row.n);
        assert_eq!(
            direct.outcome.round(),
            row.rounds,
            "rounds mismatch for n={} delay={} starts=({},{})",
            row.n,
            row.delay,
            row.start_a,
            row.start_b
        );
        assert!(row.met, "delay-robust must meet on feasible line instances");
    }

    // Both delays and both sizes actually appear in the grid.
    for delay in [0u64, 3] {
        assert!(rows.iter().any(|r| r.delay == delay), "delay {delay} missing");
    }
    for n in [4usize, 8] {
        assert!(rows.iter().any(|r| r.n == n), "size {n} missing");
    }
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let json1 = serde_json::to_string_pretty(&sweep::run(&grid_2x2(1)).rows).unwrap();
    for threads in [2usize, 4, 8] {
        let json = serde_json::to_string_pretty(&sweep::run(&grid_2x2(threads)).rows).unwrap();
        assert_eq!(json1, json, "--threads {threads} diverged");
    }
}

#[test]
fn replay_and_stepping_executors_are_byte_identical() {
    // The trace-replay executor is an optimization only: its JSON must
    // match the dyn-stepping executor byte for byte, at every thread count.
    let mut replay_spec = grid_2x2(1);
    replay_spec.executor = Executor::TraceReplay;
    let replay = serde_json::to_string_pretty(&sweep::run(&replay_spec).rows).unwrap();
    for threads in [1usize, 2, 8] {
        let mut spec = grid_2x2(threads);
        spec.executor = Executor::DynStepping;
        let stepping = serde_json::to_string_pretty(&sweep::run(&spec).rows).unwrap();
        assert_eq!(replay, stepping, "executors diverged at --threads {threads}");
    }
}

#[test]
fn sweep_row_schema_round_trips_through_json() {
    let rows = sweep::run(&grid_2x2(2)).rows;
    let value = serde_json::to_value(&rows);
    let text = serde_json::to_string_pretty(&rows).unwrap();
    let parsed = serde_json::from_str(&text).expect("sweep rows must serialize to valid JSON");
    assert_eq!(parsed, value, "JSON round-trip must preserve every field");

    // Spot-check the schema fields the README documents.
    let first = &parsed[0];
    for key in [
        "experiment",
        "family",
        "size",
        "n",
        "leaves",
        "variant",
        "delay",
        "start_a",
        "start_b",
        "met",
        "rounds",
        "crossings",
        "budget",
        "provisioned_bits",
        "measured_bits",
        "tree_seed",
        "pairs_seed",
        "cell_seed",
    ] {
        assert!(!first[key].is_null() || key == "rounds", "field `{key}` missing from row");
    }
    assert_eq!(first["family"].as_str(), Some("line"));
    assert_eq!(first["met"].as_bool(), Some(true));
}
