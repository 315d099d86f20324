//! Criterion bench for the flattened simulation hot path: CSR tree
//! lookups + dense FSA transition tables driving the round loop, zero-cost
//! runner spawning (borrow, not clone), and static vs dyn pair dispatch.
//!
//! `pair_rounds/static` vs `pair_rounds/dyn` isolates a monomorphic
//! two-lane [`run_ensemble_fsa`] instantiation against the dyn-dispatched
//! [`run_pair`] on the identical workload: two basic-walk automata
//! launched at odd distance on a line cross forever and never meet, so
//! every run costs exactly the full round budget. The sweep executor's
//! dispatch choice (dyn for every lane count) is guided by this number;
//! rerun it when changing targets or toolchains.
//!
//! `trace_replay/{record,replay_pair,run_pair}` prices the trace kernel on
//! the same shuttle workload: the one-time tabulation, the per-question
//! timeline merge, and the live stepping it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rvz_agent::fsa::Fsa;
use rvz_agent::model::Agent;
use rvz_sim::trace::Replay;
use rvz_sim::{
    replay_pair, run_ensemble_fsa, run_pair, run_single, EnsembleSchedule, PairConfig,
    TraceRecorder,
};
use rvz_trees::generators::{line, random_bounded_degree_tree};
use std::hint::black_box;

fn bench_runner_spawn(c: &mut Criterion) {
    // Pre-PR, `Fsa::runner()` deep-copied the whole transition table per
    // call; now it borrows. The delta grows with the state count.
    let mut group = c.benchmark_group("runner_spawn");
    let mut rng = StdRng::seed_from_u64(17);
    for k in [4usize, 64, 1024] {
        let fsa = Fsa::random(k, 3, 0.25, &mut rng);
        group.bench_with_input(BenchmarkId::new("fsa", k), &fsa, |b, fsa| {
            b.iter(|| black_box(fsa.runner()))
        });
    }
    group.finish();
}

fn bench_pair_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_rounds");
    for n in [200usize, 2_000] {
        let t = line(n);
        let fsa = Fsa::basic_walk(2);
        let rounds = 8 * n as u64;
        let cfg = PairConfig::simultaneous(rounds);
        let both = EnsembleSchedule::simultaneous(2);
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("static", n), &t, |b, t| {
            b.iter(|| {
                let mut agents = [fsa.runner(), fsa.runner()];
                black_box(run_ensemble_fsa(t, &[0, 1], &mut agents, &both, rounds, false).crossings)
            })
        });
        group.bench_with_input(BenchmarkId::new("dyn", n), &t, |b, t| {
            b.iter(|| {
                let mut a = fsa.runner();
                let mut bb = fsa.runner();
                black_box(run_pair(t, 0, 1, &mut a, &mut bb, cfg).crossings)
            })
        });
    }
    group.finish();
}

fn bench_csr_walk(c: &mut Criterion) {
    // A degree-3 automaton walking a bounded-degree random tree: the round
    // loop is pure CSR lookup + dense table read.
    let mut group = c.benchmark_group("csr_walk");
    let mut rng = StdRng::seed_from_u64(23);
    for n in [1_000usize, 10_000] {
        let t = random_bounded_degree_tree(n, 3, &mut rng);
        let fsa = Fsa::basic_walk(3);
        let rounds = 4 * (n as u64 - 1);
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("fsa_rounds", n), &t, |b, t| {
            b.iter(|| {
                let mut r = fsa.runner();
                black_box(run_single(t, 0, &mut r, rounds, false).cursor)
            })
        });
    }
    group.finish();
}

fn bench_trace_replay(c: &mut Criterion) {
    // The trace kernel against live stepping on the identical workload:
    // two basic-walk automata at odd distance shuttle for the full budget
    // (the worst case for the merge — every round is a move, so no
    // joint-stay span can be jumped). `record` prices the one-time
    // tabulation; `replay_pair` is what every later (delay, pair) question
    // costs; `run_pair` is what it used to cost.
    let mut group = c.benchmark_group("trace_replay");
    for n in [200usize, 2_000] {
        let t = line(n);
        let fsa = Fsa::basic_walk(2);
        let rounds = 8 * n as u64;
        let cfg = PairConfig::simultaneous(rounds);
        let record = |start: u32| {
            let mut rec = TraceRecorder::new(start, fsa.runner_owned(), |a| a.memory_bits());
            rec.record_to(&t, rounds);
            rec.trajectory().clone()
        };
        let (ta, tb) = (record(0), record(1));
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("record", n), &t, |b, t| {
            b.iter(|| {
                let mut rec = TraceRecorder::new(0, fsa.runner_owned(), |a| a.memory_bits());
                rec.record_to(t, rounds);
                black_box(rec.trajectory().num_runs())
            })
        });
        group.bench_with_input(BenchmarkId::new("replay_pair", n), &t, |b, t| {
            b.iter(|| match replay_pair(t, &ta, &tb, cfg) {
                Replay::Decided(run) => black_box(run.crossings),
                Replay::NeedMore { .. } => unreachable!("recorded to the budget"),
            })
        });
        group.bench_with_input(BenchmarkId::new("run_pair", n), &t, |b, t| {
            b.iter(|| {
                let mut a = fsa.runner();
                let mut bb = fsa.runner();
                black_box(run_pair(t, 0, 1, &mut a, &mut bb, cfg).crossings)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_runner_spawn,
    bench_pair_dispatch,
    bench_csr_walk,
    bench_trace_replay
);
criterion_main!(benches);
