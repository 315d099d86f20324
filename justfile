# Local recipes for .github/workflows/ci.yml. Each CI job but build-test
# is one script under scripts/, which CI and the recipe of the same name
# both run, so every check is written once; without `just`, run the
# script itself.

# Every CI job, in CI's order.
ci: build test lint differential crash-test bench-smoke

build:
    cargo build --release --workspace

test:
    cargo test --workspace -q

lint:
    scripts/lint.sh

differential:
    scripts/differential.sh

crash-test:
    scripts/crash_test.sh

bench-smoke:
    scripts/bench_smoke.sh

fmt:
    cargo fmt --all

# The exhaustive certification sweep on its own (table + artifacts).
e9:
    cargo run --release --bin experiments -- \
      --experiment e9 --executor decide \
      --json e9.json --certificates e9-certificates.json

# e9 pushed one size past its default sizes: every free tree with n ≤ 11
# (+235 trees over the default axis). CI's differential job certifies
# the same grid in its lasso store leg.
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

# Full-scale parallel sweep of every experiment grid.
sweep:
    cargo run --release --bin experiments -- --experiment e1,e2,e3,e4,e5,e6,e7,e8 --json results

# Classic paper tables (the seed driver's mode).
tables:
    cargo run --release --bin experiments -- all
