#!/usr/bin/env bash
# Regenerate every paper artefact (figures, claims, ablations).
# Criterion cost benches are separate: `cargo bench --workspace`.
#
# Independent experiment bins run concurrently, bounded by LIP_JOBS
# (default: nproc). Timing-gated bins (the ones asserting wall-clock
# speedups) run serially afterwards so the concurrent batch cannot
# distort their measurements. Per-bin output is captured to a log file
# and replayed in declaration order, so the summary is stable and
# byte-comparable no matter how the concurrent phase interleaved.
set -uo pipefail

# Bins safe to run concurrently: pure result-correctness checks.
CONCURRENT_BINS=(
  fig1_feedforward
  fig2_feedback
  exp_tree
  exp_reconvergent
  exp_feedback
  exp_composition
  exp_variant_speedup
  exp_equalization
  exp_transient
  exp_verify_safety
  exp_deadlock
  exp_ablation_equalizer
  exp_ablation_memory
  exp_queue_sizing
  exp_clock_gating
  exp_static_analysis
  exp_model_check
  exp_profile
)

# Bins that assert wall-clock gates: must own the machine.
# exp_delta rides here too — its regression sentinel builds noise bands
# from wall-clock history committed during the run, so concurrent load
# would widen (or bust) the bands it is asserting against.
TIMED_BINS=(
  exp_batch_sweep
  exp_parallel_sweep
  exp_runtime_obs
  exp_incremental
  exp_delta
)

REPORT_DIR="${LIP_REPORT_DIR:-target/reports}"
LOG_DIR="$REPORT_DIR/logs"
TARGET_DIR="${CARGO_TARGET_DIR:-target}"
JOBS="${LIP_JOBS:-$(nproc 2>/dev/null || echo 1)}"
case "$JOBS" in
  ''|*[!0-9]*|0) echo "!! LIP_JOBS must be a positive integer, got '$JOBS'" >&2; exit 1 ;;
esac

mkdir -p "$LOG_DIR"
cargo build --release -p lip-bench -p lip-delta --bins || exit 1

# Artefact schema versions come from the single source of truth
# (lip_obs::schema, surfaced by `lip_diff schema`) instead of being
# hardcoded here and drifting from the emitters.
DIFF_BIN="$TARGET_DIR/release/lip_diff"
EXPECTED_SCHEMA=$("$DIFF_BIN" schema report) || exit 1
EXPECTED_BLAME_SCHEMA=$("$DIFF_BIN" schema blame) || exit 1
EXPECTED_DELTA_SCHEMA=$("$DIFF_BIN" schema delta) || exit 1

# Validate one report JSON: present, and carrying the expected
# schema_version (second arg overrides, for the independently-versioned
# blame artefacts). Uses jq when available, grep otherwise.
check_report() {
  local file="$1"
  local expected="${2:-$EXPECTED_SCHEMA}"
  if [ ! -f "$file" ]; then
    echo "!! missing report: $file" >&2
    return 1
  fi
  if command -v jq >/dev/null 2>&1; then
    local v
    v=$(jq -r '.schema_version' "$file") || return 1
    [ "$v" = "$expected" ] || {
      echo "!! $file: schema_version $v != $expected" >&2
      return 1
    }
  else
    grep -Eq "\"schema_version\": ?$expected[,}]" "$file" || {
      echo "!! $file: schema_version $expected not found" >&2
      return 1
    }
  fi
}

# Run one bin (pre-built, invoked directly so concurrent runs do not
# contend on cargo's target-dir lock), capturing output and exit status.
run_bin() {
  local bin="$1"
  if "$TARGET_DIR/release/$bin" >"$LOG_DIR/$bin.log" 2>&1; then
    echo ok >"$LOG_DIR/$bin.status"
  else
    echo fail >"$LOG_DIR/$bin.status"
  fi
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

# ---- Phase 3: replay logs and validate, in stable declaration order. ----
FAILED=()
for bin in "${CONCURRENT_BINS[@]}" "${TIMED_BINS[@]}"; do
  echo
  echo "################################################################"
  echo "## $bin"
  echo "################################################################"
  cat "$LOG_DIR/$bin.log"
  status=$(cat "$LOG_DIR/$bin.status" 2>/dev/null || echo missing)
  if [ "$status" != ok ]; then
    echo "!! $bin exited non-zero" >&2
    FAILED+=("$bin")
  elif ! check_report "$REPORT_DIR/$bin.json"; then
    FAILED+=("$bin (report)")
  fi
done

# The perf-trajectory artefacts carry the same schema version.
check_report BENCH_skeleton.json || FAILED+=("BENCH_skeleton.json (schema)")
check_report BENCH_parallel.json || FAILED+=("BENCH_parallel.json (schema)")

# Surface a skipped parallel-speedup gate (low-core machines record the
# reason instead of silently passing) in the replayed summary.
if [ -f BENCH_parallel.json ]; then
  if command -v jq >/dev/null 2>&1; then
    skipped=$(jq -r '.gate_skipped // empty' BENCH_parallel.json 2>/dev/null)
    [ "$skipped" = null ] && skipped=""
  else
    skipped=$(sed -n 's/.*"gate_skipped": "\([a-z_]*\)".*/\1/p' BENCH_parallel.json)
  fi
  if [ -n "$skipped" ]; then
    echo ">> BENCH_parallel: parallel speedup gate SKIPPED ($skipped) — recorded in the artefact, not silently passed"
  fi
fi

# The many-lane engine artefact must carry the per-width table with a
# passing widest-width gate; replay the per-width summary so the sweep's
# scaling curve is visible without opening the JSON.
if [ -f BENCH_skeleton.json ] && command -v jq >/dev/null 2>&1; then
  if ! jq -e '.lane_widths | type == "array" and length >= 2' BENCH_skeleton.json >/dev/null; then
    echo "!! BENCH_skeleton.json: lane_widths array missing" >&2
    FAILED+=("BENCH_skeleton.json (lane_widths)")
  elif ! jq -e '.lane_widths | max_by(.lanes) | .ok' BENCH_skeleton.json >/dev/null; then
    echo "!! BENCH_skeleton.json: widest lane-width gate failed" >&2
    FAILED+=("BENCH_skeleton.json (widest gate)")
  fi
  echo ">> BENCH_skeleton per-width lane summary (min speedup vs scalar):"
  jq -r '.lane_widths[] |
         ">>   \(.lanes) lanes (\(.words)w): \(.min_speedup)x" +
         (if .claimed_speedup > 0
          then " (gate \(.claimed_speedup)x: \(if .ok then "ok" else "FAIL" end))"
          else "" end)' BENCH_skeleton.json
fi

# The flight-recorder artefact: versioned, overhead-gated (< 3% with the
# recorder shipped but disabled), span tree explaining >= 95% of the
# sweep, and per-opcode kernel counters that reconcile exactly.
check_report BENCH_runtime.json || FAILED+=("BENCH_runtime.json (schema)")
if [ -f BENCH_runtime.json ] && command -v jq >/dev/null 2>&1; then
  if ! jq -e '.overhead_pct < 3
              and .overhead_enabled_pct < 15
              and .span_coverage >= 0.95
              and (.kernel.by_opcode | length) == 6
              and (.kernel.by_stratum | length) == 5
              and .kernel.reconciled' BENCH_runtime.json >/dev/null; then
    echo "!! BENCH_runtime.json: flight-recorder gates failed" >&2
    FAILED+=("BENCH_runtime.json (gates)")
  fi
  jq -r '">> BENCH_runtime: overhead \(.overhead_pct)% disabled / \(.overhead_enabled_pct)% enabled, " +
         "span coverage \(.span_coverage), " +
         "\(.kernel.ops_total) kernel ops over \(.kernel.settles) settles " +
         "(occupancy \(.kernel.occupancy), reconciled: \(.kernel.reconciled))"' \
    BENCH_runtime.json
fi

# The incremental-compilation artefact: versioned, patch-vs-recompile
# speedup gate (>= 20x), per-edit byte-equivalence flag, and the
# end-to-end cold-cache sizing comparison.
check_report BENCH_incremental.json || FAILED+=("BENCH_incremental.json (schema)")
if [ -f BENCH_incremental.json ] && command -v jq >/dev/null 2>&1; then
  if ! jq -e '.min_patch_speedup >= 20
              and .equivalent
              and .sizing.ok
              and .ok' BENCH_incremental.json >/dev/null; then
    echo "!! BENCH_incremental.json: incremental-compilation gates failed" >&2
    FAILED+=("BENCH_incremental.json (gates)")
  fi
  jq -r '">> BENCH_incremental: capacity patch \(.min_patch_speedup)x vs full recompile " +
         "(gate \(.claimed_speedup)x), \(.edits_checked) edits byte-equal: \(.equivalent), " +
         "cold-cache sizing \(.sizing.speedup)x"' \
    BENCH_incremental.json
fi

# The model-checking artefact: versioned, the six-way agreement matrix
# all-true, and a gate_skipped marker when a corpus entry blew the
# state budget (recorded, never silently dropped).
check_report BENCH_check.json || FAILED+=("BENCH_check.json (schema)")
if [ -f BENCH_check.json ] && command -v jq >/dev/null 2>&1; then
  if ! jq -e '(.agreement | all(.[]; . == true)) and .ok' BENCH_check.json >/dev/null; then
    echo "!! BENCH_check.json: proof-vs-simulation agreement matrix failed" >&2
    FAILED+=("BENCH_check.json (agreement)")
  fi
  skipped=$(jq -r '.gate_skipped // empty' BENCH_check.json 2>/dev/null)
  [ "$skipped" = null ] && skipped=""
  if [ -n "$skipped" ]; then
    echo ">> BENCH_check: a corpus entry was SKIPPED ($skipped) — recorded in the artefact, not silently passed"
  fi
  jq -r '">> BENCH_check: \(.systems_proved) systems proved, \(.states_total) states at " +
         "\(.states_per_sec) states/sec, \(.deadlocks_proved) deadlocks with replayed " +
         "counterexamples, peak arena \(.peak_arena_bytes) bytes"' \
    BENCH_check.json
fi

# The causal-profiling artefacts (written by exp_profile) version
# independently: blame schema is still 1.
check_report "$REPORT_DIR/BLAME_fig1.json" "$EXPECTED_BLAME_SCHEMA" || FAILED+=("BLAME_fig1.json (schema)")
if [ ! -s "$REPORT_DIR/TRACE_fig1.json" ]; then
  echo "!! missing or empty trace: $REPORT_DIR/TRACE_fig1.json" >&2
  FAILED+=("TRACE_fig1.json")
fi

# The differential-observability artefact: the exp_delta self-test must
# have caught its injected regressions (capacity downgrade attributed
# via blame shift, timing spike via the sentinel) and diffed its
# identical re-run clean.
check_report BENCH_delta.json "$EXPECTED_DELTA_SCHEMA" || FAILED+=("BENCH_delta.json (schema)")
if [ -f BENCH_delta.json ] && command -v jq >/dev/null 2>&1; then
  if ! jq -e '.ok and .rerun_clean and .regression_flagged
              and .attribution_ok and .mc_agrees
              and .timing_regression_flagged' BENCH_delta.json >/dev/null; then
    echo "!! BENCH_delta.json: differential-observability gates failed" >&2
    FAILED+=("BENCH_delta.json (gates)")
  fi
  jq -r '">> BENCH_delta: throughput \(.ratio_before.num)/\(.ratio_before.den) -> " +
         "\(.ratio_after.num)/\(.ratio_after.den) attributed to \(.attributed_channel), " +
         "re-run clean: \(.rerun_clean), sentinel tripped: \(.timing_regression_flagged)"' \
    BENCH_delta.json
fi

# ---- Phase 4: differential observability over the whole sweep. ----
# Commit this sweep's artefacts to the run store, diff against the
# previous stored sweep (informational: exact diffs are *expected*
# after code changes), and gate on the committed exact-domain
# baselines (a hard failure: divergence means either a bug or a
# deliberate change that must be re-accepted and committed).
if [ -x "$DIFF_BIN" ]; then
  SWEEP_ARTIFACTS=(BENCH_skeleton.json BENCH_parallel.json BENCH_runtime.json
                   BENCH_incremental.json BENCH_check.json BENCH_delta.json
                   "$REPORT_DIR/BLAME_fig1.json")
  PRESENT=()
  for f in "${SWEEP_ARTIFACTS[@]}"; do
    [ -f "$f" ] && PRESENT+=("$f")
  done
  if [ "${#PRESENT[@]}" -gt 0 ]; then
    if RUN_ID=$("$DIFF_BIN" capture --label "run_experiments" "${PRESENT[@]}"); then
      echo ">> run store: captured ${#PRESENT[@]} artefact(s) as run $RUN_ID"
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
      echo "!! run store capture failed" >&2
      FAILED+=("run store (capture)")
    fi
  fi
  if [ -d baselines ]; then
    if "$DIFF_BIN" baseline check; then
      echo ">> baselines: exact-domain snapshots hold"
    else
      echo "!! committed baselines diverged — run '$DIFF_BIN baseline accept' and commit if intentional" >&2
      FAILED+=("baselines (check)")
    fi
  fi
fi

echo
if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "################################################################" >&2
  echo "## FAILED experiments: ${FAILED[*]}" >&2
  echo "################################################################" >&2
  exit 1
fi
echo "All $((${#CONCURRENT_BINS[@]} + ${#TIMED_BINS[@]})) experiments completed successfully."
