# Local targets mirroring .github/workflows/ci.yml — keep the two in
# lockstep so "works on my machine" and CI mean the same thing.

# Full CI-equivalent pass.
ci: build test fmt-check clippy docs doctest docs-check ci-parity-check differential crash-test bench-json-check bench-smoke

# CI/justfile drift gate: every CI job maps to the just targets that
# reproduce it (and back), and every mapped target sits in `ci:` above.
ci-parity-check:
    scripts/check_ci_parity.sh

build:
    cargo build --release --workspace

test:
    cargo test --workspace -q

fmt:
    cargo fmt --all

fmt-check:
    cargo fmt --all --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# CI's rustdoc gate: the API docs must build without warnings.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Every crate root carries a runnable doctest; run them all.
doctest:
    cargo test --doc --workspace -q

# Offline doc health: intra-repo markdown links resolve, and the README
# flag table matches `experiments --help` (drift fails the build).
docs-check:
    scripts/check_docs.sh

# CI's differential job: three-executor agreement on e8 (replay ==
# stepping to the byte; decide == replay modulo the `certified` flag),
# the e9 exhaustive certification with thread-invariance and certificate
# re-verification gates, the e9 n ≤ 11 lasso store flushed byte-identically
# at --threads 1 and 2 with all 4391 lassos, the e10 activation-schedule
# smoke (same three-executor + thread gates on the schedule grid), the e11
# 3-agent ensemble leg (same gates on rvz-sweep/v7 triple rows for the
# decider and the replayer, zero uncertified cells), the e10 grid at
# --agents 3 (intermittent schedules at k = 3), the e1–e8 sweep grids on
# the stepping executor, the classic e1–e8 tables and a one-thread e10
# journal (golden bytes only), then the golden SHA-256 sums of every raw
# output the legs wrote (the e10, e11 and e10k3 decide legs also write
# their certificates).
differential:
    mkdir -p differential
    for ex in replay stepping decide; do \
      cargo run --release --bin experiments -- \
        --experiment e8 --sizes 8,12 --pairs 2 --threads 2 \
        --executor "$ex" --json "differential/e8-$ex.json"; \
    done
    cmp differential/e8-replay.json differential/e8-stepping.json
    jq 'del(.rows[].certified)' differential/e8-replay.json > differential/e8-replay-stripped.json
    jq 'del(.rows[].certified)' differential/e8-decide.json > differential/e8-decide-stripped.json
    cmp differential/e8-replay-stripped.json differential/e8-decide-stripped.json
    for t in 1 2 8; do \
      cargo run --release --bin experiments -- \
        --experiment e9 --executor decide --threads "$t" \
        --json "differential/e9-t$t.json" --certificates "differential/e9-certificates-t$t.json"; \
    done
    cmp differential/e9-t1.json differential/e9-t2.json
    cmp differential/e9-t1.json differential/e9-t8.json
    cmp differential/e9-certificates-t1.json differential/e9-certificates-t2.json
    cmp differential/e9-certificates-t1.json differential/e9-certificates-t8.json
    cp differential/e9-t1.json differential/e9.json
    cp differential/e9-certificates-t1.json differential/e9-certificates.json
    jq -e '[.rows[] | select(.certified | not)] | length == 0' differential/e9.json > /dev/null
    jq -e '[.certificates[] | select(.verified == false)] | length == 0' differential/e9-certificates.json > /dev/null
    for t in 1 2; do \
      rm -rf "differential/e9-store-t$t"; \
      cargo run --release --bin experiments -- \
        --experiment e9 --executor decide --sizes 2,3,4,5,6,7,8,9,10,11 --threads "$t" \
        --store "differential/e9-store-t$t" > /dev/null 2> "differential/e9-store-t$t.log"; \
    done
    cmp differential/e9-store-t1/solo.store differential/e9-store-t2/solo.store
    grep -q ' 4391 lassos flushed' differential/e9-store-t1.log
    grep -q ' 4391 lassos flushed' differential/e9-store-t2.log
    for ex in replay stepping decide; do \
      cargo run --release --bin experiments -- \
        --experiment e10 --sizes 5,6,7 --threads 2 \
        --executor "$ex" --json "differential/e10-$ex.json" \
        $(if [ "$ex" = decide ]; then echo --certificates differential/e10-certificates.json; fi); \
    done
    cmp differential/e10-replay.json differential/e10-stepping.json
    jq 'del(.rows[].certified)' differential/e10-replay.json > differential/e10-replay-stripped.json
    jq 'del(.rows[].certified)' differential/e10-decide.json > differential/e10-decide-stripped.json
    cmp differential/e10-replay-stripped.json differential/e10-decide-stripped.json
    cargo run --release --bin experiments -- \
      --experiment e10 --sizes 5,6,7 --threads 1 \
      --executor decide --json differential/e10-t1.json
    cmp differential/e10-decide.json differential/e10-t1.json
    jq -e '[.rows[] | select(.certified | not)] | length == 0' differential/e10-decide.json > /dev/null
    for ex in replay stepping decide; do \
      cargo run --release --bin experiments -- \
        --experiment e11 --sizes 5,6,7 --threads 2 \
        --executor "$ex" --json "differential/e11-$ex.json" \
        $(if [ "$ex" = decide ]; then echo --certificates differential/e11-certificates.json; fi); \
    done
    cmp differential/e11-replay.json differential/e11-stepping.json
    jq 'del(.rows[].certified)' differential/e11-replay.json > differential/e11-replay-stripped.json
    jq 'del(.rows[].certified)' differential/e11-decide.json > differential/e11-decide-stripped.json
    cmp differential/e11-replay-stripped.json differential/e11-decide-stripped.json
    for t in 1 8; do \
      cargo run --release --bin experiments -- \
        --experiment e11 --sizes 5,6,7 --threads "$t" \
        --executor decide --json "differential/e11-t$t.json"; \
    done
    cmp differential/e11-decide.json differential/e11-t1.json
    cmp differential/e11-decide.json differential/e11-t8.json
    for t in 1 8; do \
      cargo run --release --bin experiments -- \
        --experiment e11 --sizes 5,6,7 --threads "$t" \
        --executor replay --json "differential/e11-replay-t$t.json"; \
    done
    cmp differential/e11-replay.json differential/e11-replay-t1.json
    cmp differential/e11-replay.json differential/e11-replay-t8.json
    jq -e '.schema == "rvz-sweep/v7"' differential/e11-decide.json > /dev/null
    jq -e '[.rows[] | select(.agents != 3)] | length == 0' differential/e11-decide.json > /dev/null
    jq -e '[.rows[] | select(.certified | not)] | length == 0' differential/e11-decide.json > /dev/null
    for ex in replay stepping decide; do \
      cargo run --release --bin experiments -- \
        --experiment e10 --sizes 5,6 --agents 3 --threads 2 \
        --executor "$ex" --json "differential/e10k3-$ex.json" \
        $(if [ "$ex" = decide ]; then echo --certificates differential/e10k3-certificates.json; fi); \
    done
    cmp differential/e10k3-replay.json differential/e10k3-stepping.json
    jq 'del(.rows[].certified)' differential/e10k3-replay.json > differential/e10k3-replay-stripped.json
    jq 'del(.rows[].certified)' differential/e10k3-decide.json > differential/e10k3-decide-stripped.json
    cmp differential/e10k3-replay-stripped.json differential/e10k3-decide-stripped.json
    jq -e '.schema == "rvz-sweep/v7"' differential/e10k3-decide.json > /dev/null
    jq -e '[.rows[] | select(.certified | not)] | length == 0' differential/e10k3-decide.json > /dev/null
    cargo run --release --bin experiments -- \
      --experiment e1,e2,e3,e4,e5,e6,e7,e8 --executor stepping --threads 2 \
      --json differential/e1-e8-stepping.json
    cargo run --release --bin experiments -- all --json differential/classic
    cargo run --release --bin experiments -- \
      --experiment e10 --sizes 5,6 --threads 1 \
      --checkpoint differential/e10-journal-t1.ckpt
    sha256sum -c scripts/differential.sha256

# CI's crash-resume job: fault-injected + kill -9 legs on a journaled e9,
# resume at --threads 1/8 byte-compared against an uninterrupted
# reference, store corruption legs, then the self-spawning kill-resume
# integration test (needs the rvz-faults feature).
crash-test:
    scripts/crash_test.sh crash-test
    cargo test -p rvz-bench --features rvz-faults --test crash_resume
    just worker-crash-test

# The worker-supervision legs on their own: the self-spawning
# supervision differential (byte-identity across --workers counts,
# worker death mid-shard, stolen lease, poisoned-shard quarantine,
# shared-journal interop) plus the watchdog thread-hygiene regression.
# See docs/distributed.md.
worker-crash-test:
    cargo test -p rvz-bench --features rvz-faults --test worker_supervision
    cargo test -p rvz-bench --test watchdog_threads

# The exhaustive certification sweep on its own (table + artifacts).
e9:
    cargo run --release --bin experiments -- \
      --experiment e9 --executor decide \
      --json e9.json --certificates e9-certificates.json

# e9 pushed one size past the CI default: every free tree with n ≤ 11
# (+235 trees over the default axis) — minutes, not CI material.
e9-full:
    cargo run --release --bin experiments -- \
      --experiment e9 --executor decide --sizes 2,3,4,5,6,7,8,9,10,11 \
      --json e9-full.json --certificates e9-full-certificates.json
    jq -e '[.rows[] | select(.certified | not)] | length == 0' e9-full.json > /dev/null

# The activation-schedule sweep on its own (table + artifacts).
e10:
    cargo run --release --bin experiments -- \
      --experiment e10 --executor decide \
      --json e10.json --certificates e10-certificates.json

bench:
    cargo bench --workspace

# Re-measure the sweep executor (stepping vs trace replay vs decide) and
# refresh BENCH_sweep.json (the perf trajectory this and future PRs carry;
# see docs/schemas.md). Fails if sweep_cells_variants speeds up < 3x or
# decide_cells falls below 0.66x.
bench-baseline:
    cargo run --release -p rvz-bench --bin bench_baseline -- BENCH_sweep.json

# CI's committed-JSON gate, runnable locally: every benchmark section
# present.
bench-json-check:
    jq -e '.sweep_cells.speedup and .sweep_cells_variants.speedup and .decide_cells.speedup and .ensemble_cells.speedup' BENCH_sweep.json > /dev/null

# Compile benches, run each once (`--test` mode), emit BENCH_sweep.json,
# plus the tiny deterministic sweep CI runs, the output-overhead gate
# (e9 writing --json and --certificates within 2x the CPU of writing
# nothing) and the thread-scaling gate (e11 replay at nproc threads no
# slower than at one).
bench-smoke:
    cargo bench --workspace --no-run
    cargo bench --workspace -- --test
    mkdir -p bench-smoke
    cargo run --release -p rvz-bench --bin bench_baseline -- bench-smoke/BENCH_sweep.json
    cargo run --release --bin experiments -- --experiment e6 --sizes 8,16 --threads 2 --json bench-smoke/e6.json
    cargo run --release --bin experiments -- --experiment e6 --sizes 8,16 --threads 1 --json bench-smoke/e6-t1.json
    cmp bench-smoke/e6.json bench-smoke/e6-t1.json
    cargo run --release --bin experiments -- --experiment e6 --sizes 8,16 --threads 2 --executor stepping --json bench-smoke/e6-stepping.json
    cmp bench-smoke/e6.json bench-smoke/e6-stepping.json
    scripts/output_overhead.sh bench-smoke
    scripts/thread_scaling.sh bench-smoke

# Full-scale parallel sweep of every experiment grid.
sweep:
    cargo run --release --bin experiments -- --experiment e1,e2,e3,e4,e5,e6,e7,e8 --json results

# Classic paper tables (the seed driver's mode).
tables:
    cargo run --release --bin experiments -- all
