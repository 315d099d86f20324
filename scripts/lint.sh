#!/usr/bin/env bash
# Lint job: rustfmt, clippy with and without the fault-injection build,
# rustdoc with warnings denied, the doctests (every crate root carries
# one), doc health (intra-repo links, README/--help drift) and CI/justfile
# parity.
#
# Usage: scripts/lint.sh   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features rvz-bench/rvz-faults -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test --doc --workspace -q
scripts/check_docs.sh
scripts/check_ci_parity.sh
