#!/usr/bin/env bash
# CI <-> justfile parity gate — CI's lint leg and `just ci-parity-check`.
#
# The justfile's header promises that local targets mirror
# .github/workflows/ci.yml. This script makes that promise a build gate:
#
#  1. Every CI job maps (via the explicit table below) to the just
#     targets that reproduce it locally, and the table names no CI job
#     that does not exist — adding or renaming a job without updating
#     the mapping fails the build.
#  2. Every mapped just target exists in the justfile.
#  3. Every mapped just target is reachable from the `ci:` aggregate, so
#     `just ci` really is the full CI-equivalent pass.
#  4. Every helper script ci.yml invokes exists, is executable, and is
#     also reachable from a just target (no CI-only shell logic).
#
# Usage: scripts/check_ci_parity.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

workflow=.github/workflows/ci.yml
status=0

# ---- the one source of truth: CI job -> just targets -------------------
declare -A JOB_TARGETS=(
    [build-test]="build test"
    [lint]="fmt-check clippy docs doctest docs-check ci-parity-check"
    [differential]="differential"
    [crash-resume]="crash-test worker-crash-test"
    [bench-smoke]="bench-json-check bench-smoke"
)

# CI job ids: two-space-indented `name:` keys inside the workflow's
# `jobs:` block (steps and `with:` maps sit deeper).
ci_jobs=$(awk '/^jobs:/{injobs=1; next} injobs && /^  [a-z0-9-]+:/{sub(/^  /,""); sub(/:.*/,""); print}' "$workflow")

# Just targets: unindented `name:` definition lines (skip comments and
# the aggregate's dependency list is still a definition line).
just_targets=$(grep -oE '^[a-z0-9-]+:' justfile | tr -d ':')
ci_aggregate=$(grep -E '^ci:' justfile)

echo "== CI jobs -> just targets =="
while read -r job; do
    if [[ ! -v JOB_TARGETS[$job] ]]; then
        echo "error: CI job '$job' has no just-target mapping in scripts/check_ci_parity.sh"
        status=1
        continue
    fi
    echo "  $job -> ${JOB_TARGETS[$job]}"
done <<<"$ci_jobs"

echo "== mapped jobs exist in CI =="
for job in "${!JOB_TARGETS[@]}"; do
    if ! grep -qxF -- "$job" <<<"$ci_jobs"; then
        echo "error: mapping names CI job '$job' but $workflow does not define it"
        status=1
    fi
done

echo "== mapped targets exist and sit in 'just ci' =="
for targets in "${JOB_TARGETS[@]}"; do
    for t in $targets; do
        if ! grep -qxF -- "$t" <<<"$just_targets"; then
            echo "error: mapping names just target '$t' but the justfile does not define it"
            status=1
            continue
        fi
        # worker-crash-test is reached through crash-test; everything
        # else must be a direct dependency of the `ci:` aggregate.
        if [[ "$t" == worker-crash-test ]]; then
            grep -qE '(^|\s)just worker-crash-test(\s|$)' justfile || {
                echo "error: crash-test no longer chains to worker-crash-test"
                status=1
            }
        elif ! grep -qE "(^|\s)$t(\s|$)" <<<"$ci_aggregate"; then
            echo "error: just target '$t' is not in the 'ci:' aggregate"
            status=1
        fi
    done
done

echo "== helper scripts used by CI are shared with just =="
ci_scripts=$(grep -oE 'scripts/[a-z_]+\.sh\b' "$workflow" | sort -u)
while read -r s; do
    [[ -f "$s" ]] || { echo "error: CI invokes $s but it does not exist"; status=1; continue; }
    [[ -x "$s" ]] || { echo "error: $s is not executable"; status=1; }
    grep -qF -- "$s" justfile || {
        echo "error: CI invokes $s but no just target references it"
        status=1
    }
done <<<"$ci_scripts"

[ "$status" -eq 0 ] && echo "ci parity checks passed"
exit "$status"
