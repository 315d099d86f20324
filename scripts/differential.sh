#!/usr/bin/env bash
# Differential job: every executor, thread count and output file of the
# sweeps must agree, and every raw output must match its golden hash.
#
#  1. e8 carries all four variants, including the automaton the exact
#     decider answers natively: three-executor agreement.
#  2. e9 certification (every free tree n ≤ 10): zero timeout cells (every
#     row exactly decided), byte-identical across --threads 1/2/8, and
#     every lasso certificate re-verified. The n = 11 axis stays behind
#     `just e9-full`.
#  3. e9 lasso store flush: a --store flush saves every key in canonical
#     order, so the n ≤ 11 lasso store is the same file at --threads 1 and
#     2 and holds all 4391 lassos. The same runs write the n ≤ 11 rows and
#     certificates, which must not depend on the thread count either.
#  4. e10, the activation-schedule axis: three-executor agreement, thread
#     invariance and zero uncertified cells on the decide run.
#  5. e11, the k-agent axis: the ensemble replayer and the k-lane stepper
#     byte-identical, the ensemble decider identical modulo `certified`,
#     the decider and the replayer byte-identical across --threads 1/2/8,
#     every row an rvz-sweep/v7 triple row, and zero uncertified cells.
#  6. e10 at --agents 3, the only gate on intermittent schedules at k = 3:
#     three-executor agreement, rvz-sweep/v7 rows, zero uncertified cells.
#  7. e9 and e11 in one report pair: the second experiment's rows and
#     certificates decide both files' schema tags (rvz-sweep/v7,
#     rvz-certificates/v3), and both summaries precede the certificates
#     (golden bytes only).
#  8. e1–e8 on the stepping executor (golden bytes), and replayed,
#     byte-compared with stepping. Replay is the e1–e8 default; one e7
#     cell outgrows the recording cap and takes the replay loop's
#     fall-back to stepping.
#  9. The classic e1–e8 tables, the only outputs with raw f64 fields, and
#     a one-thread e10 journal, which pins the compact record encoding: at
#     one thread its records land in grid order, so its bytes repeat.
# 10. The SHA-256 of every raw --json/--certificates/--checkpoint file the
#     legs wrote, recorded from an earlier binary: a change that alters any
#     output byte fails here, not only one that breaks agreement between
#     executors or thread counts.
#
# Usage: scripts/differential.sh   (from the repo root; writes differential/)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --bin experiments
exp=target/release/experiments
mkdir -p differential

# Fails with the message $3 unless the jq filter $1 holds on the file $2.
require() {
  jq -e "$1" "$2" > /dev/null || { echo "$3" >&2; exit 1; }
}

# Fails unless every row of the report $1 was exactly decided; $2 names it.
all_certified() {
  require '[.rows[] | select(.certified | not)] | length == 0' "$1" \
    "$2 produced a cell that is not exactly decided"
}

# Three-executor agreement: runs `experiments ARGS...` ($3...) under replay,
# stepping and decide into differential/$1-EXECUTOR.json, the decide run
# also writing the certificates file $2 unless it is empty. Replay and
# stepping must agree to the byte, and the decider on every field except
# its `certified` flag.
agree() {
  local name=differential/$1 certs=$2
  shift 2
  "$exp" "$@" --executor replay --json "$name-replay.json"
  "$exp" "$@" --executor stepping --json "$name-stepping.json"
  "$exp" "$@" --executor decide --json "$name-decide.json" ${certs:+--certificates "$certs"}
  cmp "$name-replay.json" "$name-stepping.json"
  jq 'del(.rows[].certified)' "$name-replay.json" > "$name-replay-stripped.json"
  jq 'del(.rows[].certified)' "$name-decide.json" > "$name-decide-stripped.json"
  cmp "$name-replay-stripped.json" "$name-decide-stripped.json"
}

echo "== e8: three executors =="
agree e8 "" --experiment e8 --sizes 8,12 --pairs 2 --threads 2

echo "== e9: certification at --threads 1/2/8 =="
for t in 1 2 8; do
  "$exp" --experiment e9 --executor decide --threads "$t" \
    --json "differential/e9-t$t.json" --certificates "differential/e9-certificates-t$t.json"
done
for t in 2 8; do
  cmp differential/e9-t1.json "differential/e9-t$t.json"
  cmp differential/e9-certificates-t1.json "differential/e9-certificates-t$t.json"
done
cp differential/e9-t1.json differential/e9.json
cp differential/e9-certificates-t1.json differential/e9-certificates.json
all_certified differential/e9.json e9
require '[.certificates[] | select(.verified == false)] | length == 0' \
  differential/e9-certificates.json "a lasso certificate failed re-verification"

echo "== e9: n ≤ 11 lasso store flush at --threads 1/2 =="
for t in 1 2; do
  rm -rf "differential/e9-store-t$t"
  "$exp" --experiment e9 --executor decide --sizes 2,3,4,5,6,7,8,9,10,11 --threads "$t" \
    --store "differential/e9-store-t$t" \
    --json "differential/e9-store-t$t.json" \
    --certificates "differential/e9-store-certificates-t$t.json" \
    > /dev/null 2> "differential/e9-store-t$t.log"
done
cmp differential/e9-store-t1/solo.store differential/e9-store-t2/solo.store
cmp differential/e9-store-t1.json differential/e9-store-t2.json
cmp differential/e9-store-certificates-t1.json differential/e9-store-certificates-t2.json
for t in 1 2; do
  grep -q ' 4391 lassos flushed' "differential/e9-store-t$t.log" \
    || { echo "the --threads $t flush did not save all 4391 lassos" >&2; exit 1; }
done

echo "== e10: three executors and --threads 1 =="
agree e10 differential/e10-certificates.json --experiment e10 --sizes 5,6,7 --threads 2
"$exp" --experiment e10 --sizes 5,6,7 --threads 1 --executor decide --json differential/e10-t1.json
cmp differential/e10-decide.json differential/e10-t1.json
all_certified differential/e10-decide.json e10

echo "== e11: three executors, decide and replay at --threads 1/8 =="
agree e11 differential/e11-certificates.json --experiment e11 --sizes 5,6,7 --threads 2
for t in 1 8; do
  "$exp" --experiment e11 --sizes 5,6,7 --threads "$t" \
    --executor decide --json "differential/e11-t$t.json"
  "$exp" --experiment e11 --sizes 5,6,7 --threads "$t" \
    --executor replay --json "differential/e11-replay-t$t.json"
  cmp differential/e11-decide.json "differential/e11-t$t.json"
  cmp differential/e11-replay.json "differential/e11-replay-t$t.json"
done
require '.schema == "rvz-sweep/v7"' differential/e11-decide.json \
  "e11 did not report the rvz-sweep/v7 ensemble schema"
require '[.rows[] | select(.agents != 3)] | length == 0' differential/e11-decide.json \
  "an e11 row is not a 3-agent ensemble row"
all_certified differential/e11-decide.json e11

echo "== e10 at --agents 3: three executors =="
agree e10k3 differential/e10k3-certificates.json \
  --experiment e10 --sizes 5,6 --agents 3 --threads 2
require '.schema == "rvz-sweep/v7"' differential/e10k3-decide.json \
  "the --agents 3 run did not report the rvz-sweep/v7 schema"
all_certified differential/e10k3-decide.json "e10 --agents 3"

echo "== e9 and e11 in one report =="
"$exp" --experiment e9,e11 --sizes 4,5,6 --threads 2 \
  --json differential/e9-e11.json --certificates differential/e9-e11-certificates.json

echo "== e1–e8: stepping and replay =="
"$exp" --experiment e1,e2,e3,e4,e5,e6,e7,e8 --executor stepping --threads 2 \
  --json differential/e1-e8-stepping.json
"$exp" --experiment e1,e2,e3,e4,e5,e6,e7,e8 --executor replay --threads 2 \
  --json differential/e1-e8-replay.json
cmp differential/e1-e8-replay.json differential/e1-e8-stepping.json

echo "== classic tables and a one-thread journal =="
"$exp" all --json differential/classic
"$exp" --experiment e10 --sizes 5,6 --threads 1 --checkpoint differential/e10-journal-t1.ckpt

echo "== golden output hashes =="
sha256sum -c scripts/differential.sha256
