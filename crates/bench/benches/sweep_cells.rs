//! Criterion bench for the sweep executor at n ≈ 200: the trace-replay
//! executor (record each deterministic trajectory once in the process-wide
//! store, decide every cell by timeline merge) versus the PR-2 stepping
//! executor (shared instance, both agents stepped per cell) versus
//! rebuilding the world for every cell (the pre-instance-cache shape).
//!
//! Two grids, both defined once in the library so `just bench-baseline`
//! (which records them into `BENCH_sweep.json`) measures exactly the same
//! workloads:
//!
//! * [`sweep::perf_grid_fsa_scan`] — the bounded-horizon basic-walk
//!   automaton scan over a delay grid (`Variant::BasicWalkFsa`), the
//!   Chalopin-style delay-fault workload: cells decide in `θ + 2` Euler
//!   periods, so executor overhead is the dominant per-cell cost.
//! * [`sweep::perf_grid_variants`] — the E6/E8-shaped grid over the paper's
//!   procedural agents, where long rendezvous runs dominate: the grid the
//!   trace-replay executor targets (a delay column shares two recordings;
//!   criterion's warm iterations measure the steady state, merge-only).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rvz_bench::sweep::{self, Executor, SweepSpec};
use std::hint::black_box;

fn bench_grid(c: &mut Criterion, name: &str, spec: &SweepSpec) {
    let grid = sweep::cells(spec);
    let mut group = c.benchmark_group(name);
    group.throughput(Throughput::Elements(grid.len() as u64));
    // The trace-replay executor (`--executor replay`).
    let mut replay = spec.clone();
    replay.executor = Executor::TraceReplay;
    group.bench_function("replay", |b| b.iter(|| black_box(sweep::run(&replay).rows.len())));
    // The PR-2 stepping executor: shared instances, agents stepped per cell.
    let mut stepping = spec.clone();
    stepping.executor = Executor::DynStepping;
    group.bench_function("stepping", |b| b.iter(|| black_box(sweep::run(&stepping).rows.len())));
    // The exact decider: budget-free verdicts over the joint configuration
    // graph (meaningful on the automaton grid; procedural-agent cells fall
    // back to replay).
    let mut decide = spec.clone();
    decide.executor = Executor::ExactDecide;
    group.bench_function("decide", |b| b.iter(|| black_box(sweep::run(&decide).rows.len())));
    // The pre-instance-cache executor shape: every cell rebuilds its world.
    group.bench_function("rebuild_per_cell", |b| {
        b.iter(|| black_box(grid.iter().filter_map(sweep::run_cell).count()))
    });
    group.finish();
}

fn bench_sweep_cells(c: &mut Criterion) {
    bench_grid(c, "sweep_cells/fsa_delay_scan", &sweep::perf_grid_fsa_scan());
    bench_grid(c, "sweep_cells/variant_agents", &sweep::perf_grid_variants());
}

criterion_group!(benches, bench_sweep_cells);
criterion_main!(benches);
