#!/usr/bin/env bash
# Local CI gate: formatting, a denying lint wall, and the full test suite.
# Run from anywhere; operates on the repository that contains it.
#
# Every step runs even when an earlier one fails, so one failing gate
# never hides the state of the gates after it. Failed steps are listed at
# the end, and the script then exits non-zero.
set -uo pipefail
cd "$(dirname "$0")/.."

FAILED=()
# run <label> <command...>: one gate step; a failure is recorded, not fatal.
run() {
  local label="$1"
  shift
  if ! "$@"; then
    echo "!! FAILED: $label" >&2
    FAILED+=("$label")
  fi
}
# quiet <command...>: the command with its standard output discarded.
quiet() { "$@" >/dev/null; }
# experiments <args...>: the experiment driver.
experiments() { cargo run -q -p crr-bench --bin experiments -- "$@"; }

echo "==> cargo fmt --check"
run "cargo fmt --check" cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Denying: any warning (including the workspace unwrap/expect lints) fails
# the gate. Harness code opts out per file with a justified #![allow].
run "clippy -D warnings" cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
run "cargo test --workspace" cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (broken intra-doc links are errors)"
# Every crate (shims included) must document cleanly; a renamed item that
# orphans a [`link`] fails the build here instead of rotting silently.
run "rustdoc intra-doc links" env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --workspace --no-deps --quiet

echo "==> rustdoc missing-docs wall (every library crate but crr-bench)"
# The library crates additionally deny undocumented public items: a new
# pub fn or enum-variant field without a doc comment fails the build
# here. (Workspace-wide this would punish the harness crate and the
# shims, so the wall names its crates.)
run "rustdoc missing-docs wall" env RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D missing-docs" \
  cargo doc -p crr-core -p crr-discovery -p crr-stream -p crr-serve -p crr-data -p crr-analyze -p crr-obs \
  -p crr-linalg -p crr-models -p crr-datasets -p crr-impute -p crr-baselines -p crr \
  --no-deps --quiet

echo "==> criterion smoke (perf_fit_engine + perf_scan_kernels compile and run)"
# The shimmed criterion takes a fast bounded pass (small sample budgets);
# this catches bit-rot in the tracked benchmark harness without paying
# for a full statistical measurement.
run "criterion smoke perf_fit_engine" quiet cargo bench -p crr-bench --bench perf_fit_engine
run "criterion smoke perf_scan_kernels" quiet cargo bench -p crr-bench --bench perf_scan_kernels

echo "==> tracked benchmark emits and validates"
# Tiny-scale end-to-end run of the bench experiment — with metrics
# instrumentation on, including the sharded cells (1-shard baseline vs
# 4-shard equal-width and quantile plans through the cross-shard pool) —
# then the validator gates: the build fails if BENCH_discovery.json or
# metrics.json output ever loses a key, breaks a counter invariant (e.g.
# cross-shard pool hits + misses != probes, per-shard row counts not
# summing to the table rows, no sharded run at all), or contains a
# non-finite number. `--check` dispatches on the file's own schema tag.
# On the committed full-scale BENCH_discovery.json it also applies the
# adaptive shard-planning gates: on the skewed tax salary key the quantile
# plan's shard balance must beat equal-width's, and the lower quartile of
# its paired-round speedup over one shard must clear 1.6x (smoke-scale
# cells take one round and are not gated).
BENCH_TMP="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
METRICS_TMP="$(mktemp /tmp/metrics_smoke.XXXXXX.json)"
ANALYSIS_TMP="$(mktemp /tmp/analysis_smoke.XXXXXX.json)"
SERVING_TMP="$(mktemp /tmp/serving_smoke.XXXXXX.json)"
STREAM_TMP="$(mktemp /tmp/stream_smoke.XXXXXX.json)"
ARTIFACT_TMP="$(mktemp /tmp/repaired_smoke.XXXXXX.crr)"
STREAM_ARTIFACT_TMP="$(mktemp /tmp/stream_repaired_smoke.XXXXXX.crr)"
trap 'rm -f "$BENCH_TMP" "$METRICS_TMP" "$ANALYSIS_TMP" "$SERVING_TMP" "$STREAM_TMP" "$ARTIFACT_TMP" "$STREAM_ARTIFACT_TMP"' EXIT
run "bench smoke emit" quiet experiments \
  --scale 0.05 --bench-json "$BENCH_TMP" --metrics-out "$METRICS_TMP" bench
run "--check bench smoke" experiments --check "$BENCH_TMP"
run "--check metrics smoke" experiments --check "$METRICS_TMP"
# The committed artifacts must satisfy the same gates.
if [ -f BENCH_discovery.json ]; then
  run "--check BENCH_discovery.json" experiments --check BENCH_discovery.json
fi
if [ -f metrics.json ]; then
  run "--check metrics.json" experiments --check metrics.json
fi

echo "==> static analysis verifies the discovered artifacts"
# Tiny-scale analyze run: discovery on both datasets (unsharded and
# sharded) plus one stream-repaired electricity cell, then crr-analyze's
# seven checks (A1–A7) over each exported artifact — the sharded ones
# against their emitted proof obligations, the repaired one against its
# bundled repair obligations. Any `unsound` finding (dead rule condition,
# unguarded shard merge, malformed inference artifact, compiled-kernel
# divergence, over-/under-claiming splice) aborts the run;
# --check re-applies the same gate to the file, and to the
# committed full-scale artifact.
run "analyze smoke emit" quiet experiments \
  --scale 0.05 --analysis-json "$ANALYSIS_TMP" --artifact-out "$ARTIFACT_TMP" analyze
run "--check analysis smoke" experiments --check "$ANALYSIS_TMP"
if [ -f analysis.json ]; then
  run "--check analysis.json" experiments --check analysis.json
fi

echo "==> repair-obligation mutation smoke (the A7 gate bites)"
# The exported stream-repaired artifact must (a) re-verify from its text
# form under the full A1–A7 battery, and (b) be *refused* once its repair
# guards are stripped — a verifier that admits the mutant has lost the
# proof-carrying repair property, and the build fails.
run "repaired artifact re-verifies" quiet experiments --analyze-artifact "$ARTIFACT_TMP"
run "A7 refuses the stripped-guard mutant" experiments --mutate-repair-guard "$ARTIFACT_TMP"

echo "==> serving smoke: live server under closed-loop load"
# Tiny-scale end-to-end serving run: discovery, artifact export, a live
# crr-serve server driven by the closed-loop load generator. The emitter
# asserts in-process that smoke cells are loss-free (zero sheds, zero
# deadline timeouts, every request 200), that the overload cell sheds
# well-formed 503s, and that hot-swap churn never changes an in-flight
# answer; --check re-applies the same gates to the file, and to
# the committed full-scale artifact.
run "serving smoke emit" quiet experiments \
  --scale 0.05 --serving-json "$SERVING_TMP" serving
run "--check serving smoke" experiments --check "$SERVING_TMP"
if [ -f BENCH_serving.json ]; then
  run "--check BENCH_serving.json" experiments --check BENCH_serving.json
fi

echo "==> streaming maintenance smoke: incremental vs full rediscovery"
# Tiny-scale maintenance race: append a tail through a crr-stream
# maintainer (route + delta + monitor + repair), verify the repaired
# artifact is sound and hot-swaps into a live server byte-identically,
# and race it against full rediscovery. The emitter asserts in-process
# that repair leaves no residual violations; --check re-applies
# the shape/consistency gates to the file, and to the committed
# full-scale artifact — where the electricity cell at gate scale must
# also clear the 5x incremental-speedup floor. The repaired artifact is
# exported and re-verified from its text form (stream → analyze), closing
# the maintenance → verification loop on a second, independent fixture.
run "stream smoke emit" quiet experiments \
  --scale 0.05 --stream-json "$STREAM_TMP" --artifact-out "$STREAM_ARTIFACT_TMP" stream
run "--check stream smoke" experiments --check "$STREAM_TMP"
run "stream-repaired artifact re-verifies" quiet experiments --analyze-artifact "$STREAM_ARTIFACT_TMP"
if [ -f BENCH_stream.json ]; then
  run "--check BENCH_stream.json" experiments --check BENCH_stream.json
fi

echo "==> lifecycle benchmark smoke (every perfbench workload, 1 s each)"
# Builds the benchmark (a cargo workspace of its own, into .bench_build)
# and runs all four workloads with every output check, so a broken build
# or a failed lifecycle check fails here rather than in a benchmark run.
run "perfbench smoke" python3 perfbench/run.py --workload all --seconds 1 --trace 0
# The traced half's check: with a metrics sink on every op, each draw must
# repeat the artifact text (rules and ρ bits) and RMSE bits of its untraced
# ops, so the discovery phase timers never change what is found.
run "perfbench traced discover-electricity smoke" \
  python3 perfbench/run.py --workload discover-electricity --seconds 1 --trace 1
# The same check on the only sharded workload: rules, ρ bits and RMSE bits
# must repeat with the sink off and on, across 3 shards on 2 threads.
run "perfbench traced discover-tax-sharded smoke" \
  python3 perfbench/run.py --workload discover-tax-sharded --seconds 1 --trace 1
# The traced half's check: with the metrics sink on, every pass must still
# repeat the repaired artifacts, RMSE and rule count of the untraced ones.
run "perfbench traced maintain-window smoke" \
  python3 perfbench/run.py --workload maintain-window --seconds 1 --trace 1
# Only the traced half runs the server with its metrics sink on; the same
# run replays the predict requests offline through the rule index.
run "perfbench traced serve-mixed smoke" \
  python3 perfbench/run.py --workload serve-mixed --seconds 1 --trace 1

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "CI FAILED: ${#FAILED[@]} step(s) failed:" >&2
  printf '  - %s\n' "${FAILED[@]}" >&2
  exit 1
fi
echo "CI OK"
