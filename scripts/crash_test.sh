#!/usr/bin/env bash
# Crash-resume job: the kill–resume differential on a journaled e9, then
# the self-spawning integration tests.
#
#  1. Uninterrupted reference run (no journal, no store).
#  2. Fault-injected run (`rvz-faults` build, RVZ_FAULTS hard abort at the
#     40th journal append) — must die without publishing JSON.
#  3. kill -9 mid-sweep while resuming leg 2's journal.
#  4. Torn-append leg (short write + abort; tolerated if too few cells
#     remain for the fault to fire).
#  5. Resume to completion at --threads 1 and 8: rows *and* certificates
#     must be byte-identical to the reference.
#  6. Store legs: a warmed --store round-trips; a truncated store and a
#     bit-flipped cache load both degrade (drop + recompute), never lie.
#  7. Worker legs (`--workers`, see docs/distributed.md): kill -9 a worker
#     mid-shard and kill -9 the supervisor (then resume) — both must end
#     byte-identical to the reference, and no worker may outlive its
#     killed supervisor by more than 2 s; a beat-less (wedged-heartbeat)
#     run stays identical; and when *every* worker dies on its first cell
#     (the worker-kill fault + a low attempt cap) the run must terminate
#     with explicit poisoned rows, never fabricated data.
#  8. The self-spawning integration tests: kill–resume and worker
#     supervision (byte-identity across --workers 1/2/4, a worker killed
#     mid-shard, a silent worker timed out, the poisoned-shard quarantine,
#     shared-journal interop), both on the rvz-faults build, and the
#     watchdog regression: many --cell-timeout quarantines must not
#     accumulate live threads.
#
# Usage: scripts/crash_test.sh [OUTDIR]   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-crash-test}
mkdir -p "$out"

echo "== build (release, rvz-faults) =="
cargo build --release --features rvz-faults
exp=target/release/experiments

echo "== uninterrupted reference =="
"$exp" --experiment e9 --executor decide --threads 2 \
  --json "$out/ref.json" --certificates "$out/ref-certs.json"

ckpt="$out/e9.ckpt"
rm -f "$ckpt"

echo "== leg 1: hard abort at the 40th journal append =="
if RVZ_FAULTS=journal-append=abort@40 "$exp" --experiment e9 --executor decide \
    --threads 2 --checkpoint "$ckpt" --json "$out/aborted.json"; then
  echo "error: fault-injected run should have aborted" >&2
  exit 1
fi
if [ -e "$out/aborted.json" ]; then
  echo "error: aborted run must not publish JSON (atomic writes)" >&2
  exit 1
fi

echo "== leg 2: kill -9 mid-sweep (resuming leg 1's journal) =="
"$exp" --experiment e9 --executor decide --threads 2 \
  --checkpoint "$ckpt" --resume --json "$out/killed.json" &
pid=$!
sleep 0.3
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

echo "== leg 3: torn journal append (short write + abort) =="
# May complete cleanly if fewer than 10 cells remained after leg 2.
RVZ_FAULTS=journal-append=short-write@10 "$exp" --experiment e9 --executor decide \
  --threads 2 --checkpoint "$ckpt" --resume --json "$out/torn.json" || true

echo "== resume to completion; byte-compare against the reference =="
for t in 1 8; do
  "$exp" --experiment e9 --executor decide --threads "$t" \
    --checkpoint "$ckpt" --resume \
    --json "$out/resumed-t$t.json" --certificates "$out/resumed-certs-t$t.json"
  cmp "$out/ref.json" "$out/resumed-t$t.json"
  cmp "$out/ref-certs.json" "$out/resumed-certs-t$t.json"
done

echo "== store legs: persistence round-trip, truncation, bit-flipped load =="
store="$out/store"
rm -rf "$store"
"$exp" --experiment e9 --executor decide --threads 2 \
  --store "$store" --json "$out/warm.json"
cmp "$out/ref.json" "$out/warm.json"
for f in "$store"/*.store; do
  truncate -s -13 "$f"
done
"$exp" --experiment e9 --executor decide --threads 2 \
  --store "$store" --json "$out/truncated-store.json"
cmp "$out/ref.json" "$out/truncated-store.json"
RVZ_FAULTS=cache-load=bit-flip@1 "$exp" --experiment e9 --executor decide --threads 2 \
  --store "$store" --json "$out/flipped-store.json"
cmp "$out/ref.json" "$out/flipped-store.json"

echo "== worker leg 1: kill -9 a worker subprocess mid-shard =="
RVZ_HEARTBEAT_TIMEOUT_MS=1500 RVZ_WORKER_BACKOFF_MS=100 \
  "$exp" --experiment e9 --executor decide --threads 2 --workers 2 \
  --json "$out/workers-killed.json" --certificates "$out/workers-killed-certs.json" &
pid=$!
sleep 0.4
pkill -9 -f -- '--worker /' 2>/dev/null || true
wait "$pid"
cmp "$out/ref.json" "$out/workers-killed.json"
cmp "$out/ref-certs.json" "$out/workers-killed-certs.json"

echo "== worker leg 2: kill -9 the supervisor, then --resume its journal =="
wckpt="$out/workers.ckpt"
rm -f "$wckpt"
rm -rf "$out/workers.ckpt.work"
"$exp" --experiment e9 --executor decide --threads 2 --workers 2 \
  --checkpoint "$wckpt" --json "$out/workers-resumed.json" &
pid=$!
sleep 0.4
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
# Workers die with their supervisor: their stdin ends, or their next
# write to stdout fails.
orphans="--worker $out/workers.ckpt.work"
for _ in $(seq 20); do
  pgrep -f -- "$orphans" >/dev/null || break
  sleep 0.1
done
if pgrep -f -- "$orphans" >/dev/null; then
  echo "error: workers outlived their killed supervisor by 2 s:" >&2
  pgrep -a -f -- "$orphans" >&2 || true
  pkill -9 -f -- "$orphans" 2>/dev/null || true
  exit 1
fi
"$exp" --experiment e9 --executor decide --threads 2 --workers 2 \
  --checkpoint "$wckpt" --resume \
  --json "$out/workers-resumed.json" --certificates "$out/workers-resumed-certs.json"
cmp "$out/ref.json" "$out/workers-resumed.json"
cmp "$out/ref-certs.json" "$out/workers-resumed-certs.json"

echo "== worker leg 3: beat-less workers (heartbeat-drop) stay byte-identical =="
RVZ_FAULTS=heartbeat-drop=abort@1 RVZ_HEARTBEAT_TIMEOUT_MS=10000 \
  "$exp" --experiment e9 --executor decide --threads 2 --workers 2 \
  --json "$out/workers-nobeat.json" --certificates "$out/workers-nobeat-certs.json"
cmp "$out/ref.json" "$out/workers-nobeat.json"
cmp "$out/ref-certs.json" "$out/workers-nobeat-certs.json"

echo "== worker leg 4: every worker dies — attempt cap quarantines poisoned rows =="
for fault in worker-kill; do
  if ! RVZ_FAULTS="$fault=abort@1" RVZ_SHARD_ATTEMPTS=2 RVZ_WORKER_BACKOFF_MS=50 \
      RVZ_HEARTBEAT_TIMEOUT_MS=1000 \
      timeout 300 "$exp" --experiment e9 --executor decide --threads 2 --workers 2 \
      --json "$out/workers-$fault.json"; then
    echo "error: $fault run must terminate by quarantining, not hang or crash" >&2
    exit 1
  fi
  grep -q '"schema": "rvz-sweep/v5"' "$out/workers-$fault.json"
  grep -q '"poisoned": true' "$out/workers-$fault.json"
  if grep -q '"met": true' "$out/workers-$fault.json"; then
    echo "error: $fault run must not fabricate measurements" >&2
    exit 1
  fi
done

echo "== integration tests: kill-resume, worker supervision, watchdog threads =="
cargo test -p rvz-bench --features rvz-faults --test crash_resume
cargo test -p rvz-bench --features rvz-faults --test worker_supervision
cargo test -p rvz-bench --test watchdog_threads

echo "crash-test passed: resumed, store-restored and worker-merged outputs are byte-identical"
