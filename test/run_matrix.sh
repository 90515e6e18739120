#!/usr/bin/env bash
# Sweep smoke tests: kill-and-resume of a serial sweep, a 2-worker
# sweep with one worker SIGKILLed, and an uninterrupted 4-worker sweep.
# Each must reproduce the uninterrupted serial run's CSVs byte for byte.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

# same_csvs LABEL DIR: DIR must hold exactly the serial run's CSVs, byte
# for byte.  Only CSVs are compared: sidecars record timestamps and the
# exact command line, which legitimately differ between runs.
same_csvs() {
  local label=$1 dir=$2 ref_csv
  if [ "$(cd "$smoke/ref" && ls -- *.csv)" != "$(cd "$dir" && ls -- *.csv)" ]; then
    echo "FAIL: $label CSV set differs from the serial run" >&2
    status=1
  fi
  for ref_csv in "$smoke"/ref/*.csv; do
    if ! cmp -s "$ref_csv" "$dir/$(basename "$ref_csv")"; then
      echo "FAIL: $label $(basename "$ref_csv") differs from the serial run" >&2
      status=1
    fi
  done
}

# -- kill-and-resume smoke test ----------------------------------------------
# Run the small sweep-smoke grid against a checkpoint store, SIGKILL it
# partway through, resume it to completion, and require the resumed
# tables to be byte-identical to an uninterrupted run's.  A third run
# must skip every unit (nothing left to compute).
echo "== sweep kill-and-resume smoke =="
dune build bin/ckpt.exe
ckpt=_build/default/bin/ckpt.exe
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
export CKPT_TRACES=48 CKPT_SWEEP_STRIPE=4

echo "-- reference (uninterrupted) run"
CKPT_RESULTS_DIR="$smoke/ref" \
  "$ckpt" sweep --resume "$smoke/ref_store" sweep-smoke > "$smoke/ref.log"

echo "-- interrupted run (SIGKILL mid-sweep)"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/killed.log" 2>&1 &
victim=$!
sleep 1.5
kill -KILL "$victim" 2>/dev/null || true  # may have already finished
wait "$victim" 2>/dev/null || true

echo "-- resumed run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/resumed.log"

same_csvs resumed "$smoke/out"

echo "-- all-skip run"
CKPT_RESULTS_DIR="$smoke/out" \
  "$ckpt" sweep --resume "$smoke/out_store" sweep-smoke > "$smoke/skip.log"
if ! grep -q ", 0 computed" "$smoke/skip.log"; then
  echo "FAIL: third sweep run recomputed units it should have skipped" >&2
  tail -3 "$smoke/skip.log" >&2
  status=1
fi
# A complete store computes no stripe, so it needs no PeriodLB period.
if ! grep -q "^period units: [0-9]* loaded, 0 searched," "$smoke/skip.log"; then
  echo "FAIL: third sweep run searched a PeriodLB period it never uses" >&2
  tail -3 "$smoke/skip.log" >&2
  status=1
fi

# -- multi-process worker smoke ------------------------------------------------
# Worker sweeps must produce byte-identical CSVs at every worker count; a
# SIGKILLed worker must neither wedge the sweep (its claims are reaped)
# nor corrupt the store (partial writes fail the checksum and are
# recomputed).
echo "== sweep worker-mode smoke =="

echo "-- 2-worker run, one worker SIGKILLed mid-sweep"
CKPT_RESULTS_DIR="$smoke/w2" \
  "$ckpt" sweep --resume "$smoke/w2_store" --workers 2 sweep-smoke \
  > "$smoke/w2.log" 2>&1 &
parent=$!
sleep 1.0
# The workers are re-exec'd children of the sweep parent; kill one.
worker=$(pgrep -P "$parent" | head -1 || true)
if [ -n "$worker" ]; then
  kill -KILL "$worker" 2>/dev/null || true
fi
wait "$parent" 2>/dev/null || true

echo "-- resume with 2 workers"
CKPT_RESULTS_DIR="$smoke/w2" \
  "$ckpt" sweep --resume "$smoke/w2_store" --workers 2 sweep-smoke \
  > "$smoke/w2_resume.log"

leftover=$(find "$smoke/w2_store" -name '*.claim' | wc -l)
if [ "$leftover" -ne 0 ]; then
  echo "FAIL: $leftover stale claim(s) left after the resumed worker sweep" >&2
  status=1
fi

same_csvs 2-worker "$smoke/w2"

echo "-- uninterrupted 4-worker run"
CKPT_RESULTS_DIR="$smoke/w4" \
  "$ckpt" sweep --resume "$smoke/w4_store" --workers 4 sweep-smoke > "$smoke/w4.log"
same_csvs 4-worker "$smoke/w4"

# Each of sweep-smoke's 2 scenarios is searched exactly once, summed over
# the workers (worker-NN.stats.json) and the parent's "period units:" line:
# the period unit is claimed like any other unit.
worker_searches=$(sed -n 's/.*"period_searched": *\([0-9]*\).*/\1/p' \
  "$smoke"/w4_store/worker-*.stats.json | awk '{ s += $1 } END { print s + 0 }')
parent_searches=$(sed -n 's/^period units: [0-9]* loaded, \([0-9]*\) searched.*/\1/p' \
  "$smoke/w4.log")
if [ -z "$parent_searches" ] || [ $((worker_searches + parent_searches)) -ne 2 ]; then
  echo "FAIL: 4-worker run searched periods $worker_searches (workers) + ${parent_searches:-missing} (parent) times, not 2" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "sweep smoke: resumed tables byte-identical; completed units skipped"
  echo "worker smoke: 2-worker sweep survived SIGKILL; 2- and 4-worker sweeps match serial bytes"
  echo "period smoke: no search over a complete store; one search per scenario across 4 workers"
fi
exit "$status"
