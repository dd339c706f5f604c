#!/usr/bin/env bash
# Regenerate every paper artefact (figures, claims, ablations).
# Criterion cost benches are separate: `cargo bench --workspace`.
#
# Each experiment bin decides whether its claim holds and exits
# non-zero when it does not: the bin's exit status is its gate. This
# script only runs the bins, replays their logs and collects the exit
# statuses, then captures the sweep into the run store and checks the
# committed exact-domain baselines.
#
# Independent experiment bins run concurrently, bounded by LIP_JOBS
# (default: nproc). Timing-gated bins (the ones asserting wall-clock
# speedups) run serially afterwards so the concurrent batch cannot
# distort their measurements. Per-bin output is captured to a log file
# and replayed in a stable order, so the summary is byte-comparable no
# matter how the concurrent phase interleaved.
set -uo pipefail
cd "$(dirname "$0")" || exit 1

# Bins that assert wall-clock gates: must own the machine.
# exp_delta rides here too — its regression sentinel builds noise bands
# from wall-clock history committed during the run, so concurrent load
# would widen (or bust) the bands it is asserting against.
TIMED_BINS=(
  exp_batch_sweep
  exp_runtime_obs
  exp_incremental
  exp_delta
)

# Every other bin under crates/bench/src/bin runs concurrently, so a
# new experiment bin cannot go ungated. lip_top is a viewer, not an
# experiment.
CONCURRENT_BINS=()
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  case " ${TIMED_BINS[*]} lip_top " in
    *" $bin "*) ;;
    *) CONCURRENT_BINS+=("$bin") ;;
  esac
done

REPORT_DIR="${LIP_REPORT_DIR:-target/reports}"
LOG_DIR="$REPORT_DIR/logs"
TARGET_DIR="${CARGO_TARGET_DIR:-target}"
DIFF_BIN="$TARGET_DIR/release/lip_diff"
JOBS="${LIP_JOBS:-$(nproc 2>/dev/null || echo 1)}"
case "$JOBS" in
  ''|*[!0-9]*|0) echo "!! LIP_JOBS must be a positive integer, got '$JOBS'" >&2; exit 1 ;;
esac

mkdir -p "$LOG_DIR"
cargo build --release -p lip-bench -p lip-delta --bins || exit 1

# Run one bin (pre-built, invoked directly so concurrent runs do not
# contend on cargo's target-dir lock), capturing output and exit status.
run_bin() {
  local bin="$1"
  "$TARGET_DIR/release/$bin" >"$LOG_DIR/$bin.log" 2>&1
  echo $? >"$LOG_DIR/$bin.status"
}

# ---- Phase 1: concurrent batch, bounded by $JOBS in-flight jobs. ----
echo "running ${#CONCURRENT_BINS[@]} experiments with up to $JOBS concurrent job(s)..."
active=0
for bin in "${CONCURRENT_BINS[@]}"; do
  run_bin "$bin" &
  active=$((active + 1))
  if [ "$active" -ge "$JOBS" ]; then
    wait -n
    active=$((active - 1))
  fi
done
wait

# ---- Phase 2: timing-gated bins, serial on a quiet machine. ----
for bin in "${TIMED_BINS[@]}"; do
  echo "running $bin (serial: wall-clock gated)..."
  run_bin "$bin"
done

# ---- Phase 3: replay logs in stable order; a non-zero exit fails. ----
FAILED=()
for bin in "${CONCURRENT_BINS[@]}" "${TIMED_BINS[@]}"; do
  echo
  echo "################################################################"
  echo "## $bin"
  echo "################################################################"
  cat "$LOG_DIR/$bin.log"
  status=$(cat "$LOG_DIR/$bin.status" 2>/dev/null || echo missing)
  if [ "$status" != 0 ]; then
    echo "!! $bin exited with status $status" >&2
    FAILED+=("$bin")
  fi
done

# ---- Phase 4: differential observability over the whole sweep. ----
# Commit this sweep's artefacts to the run store, diff against the
# previous stored sweep (informational: exact diffs are *expected*
# after code changes), and gate on the committed exact-domain
# baselines (divergence means either a bug or a deliberate change that
# must be re-accepted and committed).
SWEEP_ARTIFACTS=(BENCH_skeleton.json BENCH_runtime.json BENCH_incremental.json
                 BENCH_check.json BENCH_delta.json "$REPORT_DIR/BLAME_fig1.json")
if RUN_ID=$("$DIFF_BIN" capture --label "run_experiments" "${SWEEP_ARTIFACTS[@]}"); then
  echo ">> run store: captured ${#SWEEP_ARTIFACTS[@]} artefact(s) as run $RUN_ID"
  mapfile -t RUN_IDS < <("$DIFF_BIN" list | awk '{print $1}')
  if [ "${#RUN_IDS[@]}" -ge 2 ]; then
    PREV="${RUN_IDS[-2]}"
    if "$DIFF_BIN" compare "$PREV" "$RUN_ID" >"$LOG_DIR/diff.log" 2>&1; then
      echo ">> differential: clean against previous sweep $PREV"
    else
      echo ">> differential: DIVERGED against previous sweep $PREV (expected after code changes):"
      sed 's/^/>>   /' "$LOG_DIR/diff.log"
    fi
  fi
else
  FAILED+=("run store (capture)")
fi
if "$DIFF_BIN" baseline check; then
  echo ">> baselines: exact-domain snapshots hold"
else
  echo "!! committed baselines diverged — run '$DIFF_BIN baseline accept' and commit if intentional" >&2
  FAILED+=("baselines (check)")
fi

echo
if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "################################################################" >&2
  echo "## FAILED experiments: ${FAILED[*]}" >&2
  echo "################################################################" >&2
  exit 1
fi
echo "All $((${#CONCURRENT_BINS[@]} + ${#TIMED_BINS[@]})) experiments completed successfully."
