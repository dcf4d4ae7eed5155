#!/usr/bin/env bash
# tools/perf_smoke.sh — CI's engine perf gates.
#
# Seven gates, all comparing speedup *ratios* (never absolute seconds, so
# the gate holds across machines) against checked-in baselines, failing on
# a >25% regression of the geometric-mean ratio:
#
#   1. merge engines — bench_fig5_scalability at a small scale with
#      --compare-engines (every (n, θ) cell under the parallel engine and
#      the hashed oracle, whose MergeRecords are differentially pinned to
#      each other in tests/diag_differential_test.cc); gates on the
#      parallel/hashed stage.merge speedup vs
#      bench/baselines/BENCH_rock_smoke.json.
#   2. neighbor engines — bench_neighbors_ablation --compare-engines
#      (packed bit-plane engine vs the scalar per-pair oracle, graphs
#      verified identical); gates on the packed/scalar stage.neighbors
#      speedup vs bench/baselines/BENCH_neighbors_smoke.json.
#   3. link engines — bench_links_ablation --compare-engines (bit-plane
#      popcount engine vs the Fig. 4 hashed-scatter oracle, frozen CSR
#      rows verified byte-identical); gates on the packed/hashed
#      stage.links speedup vs bench/baselines/BENCH_links_smoke.json.
#   4. serve loopback — bench_serve (label server vs direct Assign loop,
#      assignments verified identical); gates on the direct/serve
#      stage.label_query ratio vs bench/baselines/BENCH_serve_smoke.json,
#      plus an absolute ≥ 10k QPS floor on the served answers.
#   5. graph scale — bench_graph_scale at n = 20k, θ = 0.73 (LSH-candidate
#      neighbors + kAuto links vs the all-pairs single-thread baseline,
#      LSH edges verified an exact subgraph); gates on the lsh/baseline
#      stage.graph ratio vs bench/baselines/BENCH_graph_smoke.json AND
#      floors the LSH candidate recall at 0.999.
#   6. streaming appends — bench_stream (StreamingSession::Append vs the
#      direct Assign loop over the same held-out rows, assignments
#      verified identical); gates on the direct/stream stage.append_label
#      ratio vs bench/baselines/BENCH_stream_smoke.json, plus an absolute
#      ≥ 10k rows/s floor on appended-row labeling throughput.
#   7. label kernel — bench_table6_misclassification at scale 0.25 (the
#      §4.6 label scan of the whole store, 2000-row sample, by the
#      AssignUnpruned oracle and by LabelStore's packed sweep on one
#      thread, assignments verified identical, best of 5); gates on the
#      unpruned/packed stage.label_scan speedup vs the baseline cell of the
#      same sweep ISA in bench/baselines/BENCH_label_smoke.json. The ratio
#      depends on the popcount kernel the CPU dispatches to, so each cell
#      is recorded on a CPU that runs that kernel; on a CPU whose kernel
#      has no cell yet the gate warns, skips, and leaves the cell to add in
#      build/BENCH_label_smoke.merged.json. Runs right after gate 3.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)
#
# To refresh the baselines after an intentional perf change:
#   tools/perf_smoke.sh && \
#     cp build/BENCH_rock_smoke.json bench/baselines/BENCH_rock_smoke.json && \
#     cp build/BENCH_neighbors_smoke.json \
#         bench/baselines/BENCH_neighbors_smoke.json && \
#     cp build/BENCH_links_smoke.json bench/baselines/BENCH_links_smoke.json && \
#     cp build/BENCH_serve_smoke.json bench/baselines/BENCH_serve_smoke.json && \
#     cp build/BENCH_graph_smoke.json bench/baselines/BENCH_graph_smoke.json && \
#     cp build/BENCH_stream_smoke.json \
#         bench/baselines/BENCH_stream_smoke.json && \
#     cp build/BENCH_label_smoke.merged.json \
#         bench/baselines/BENCH_label_smoke.json
# (the merged label report keeps the baseline's cells for other sweep ISAs
# and replaces only this CPU's).

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SCALE=0.02  # DB ≈ 2300 tx -> sample sizes 1000 and 2000 only
BASELINE=bench/baselines/BENCH_rock_smoke.json
REPORT="$BUILD_DIR/BENCH_rock_smoke.json"
NBR_BASELINE=bench/baselines/BENCH_neighbors_smoke.json
NBR_REPORT="$BUILD_DIR/BENCH_neighbors_smoke.json"
LNK_BASELINE=bench/baselines/BENCH_links_smoke.json
LNK_REPORT="$BUILD_DIR/BENCH_links_smoke.json"
SRV_BASELINE=bench/baselines/BENCH_serve_smoke.json
SRV_REPORT="$BUILD_DIR/BENCH_serve_smoke.json"
GRF_BASELINE=bench/baselines/BENCH_graph_smoke.json
GRF_REPORT="$BUILD_DIR/BENCH_graph_smoke.json"
STRM_BASELINE=bench/baselines/BENCH_stream_smoke.json
STRM_REPORT="$BUILD_DIR/BENCH_stream_smoke.json"
LBL_BASELINE=bench/baselines/BENCH_label_smoke.json
LBL_REPORT="$BUILD_DIR/BENCH_label_smoke.json"

cmake --build "$BUILD_DIR" -j --target bench_fig5_scalability \
    bench_neighbors_ablation bench_links_ablation bench_serve \
    bench_graph_scale bench_stream bench_table6_misclassification

echo "=== perf-smoke: bench_fig5_scalability $SCALE --compare-engines ==="
ROCK_BENCH_JSON="$REPORT" \
    "$BUILD_DIR/bench/bench_fig5_scalability" "$SCALE" --compare-engines

echo "=== perf-smoke: gate vs $BASELINE (parallel vs hashed) ==="
python3 tools/check_perf_regression.py "$REPORT" "$BASELINE" \
    --engines=parallel,hashed --stage=stage.merge

# Best-of-3 timing per cell: the neighbor stage is fast at smoke scale, so
# a single rep is noisy enough to trip a ratio gate on a busy CI box.
echo "=== perf-smoke: bench_neighbors_ablation --compare-engines ==="
ROCK_BENCH_JSON="$NBR_REPORT" \
    "$BUILD_DIR/bench/bench_neighbors_ablation" --compare-engines \
    --scale=$SCALE --max-n=2000 --reps=3

echo "=== perf-smoke: gate vs $NBR_BASELINE ==="
python3 tools/check_perf_regression.py "$NBR_REPORT" "$NBR_BASELINE" \
    --engines=packed,scalar --stage=stage.neighbors

# Same best-of-3 discipline: the packed link stage finishes in single-digit
# milliseconds at smoke scale.
echo "=== perf-smoke: bench_links_ablation --compare-engines ==="
ROCK_BENCH_JSON="$LNK_REPORT" \
    "$BUILD_DIR/bench/bench_links_ablation" --compare-engines \
    --scale=$SCALE --max-n=2000 --reps=3

echo "=== perf-smoke: gate vs $LNK_BASELINE ==="
python3 tools/check_perf_regression.py "$LNK_REPORT" "$LNK_BASELINE" \
    --engines=packed,hashed --stage=stage.links

# Label kernel (gate 7): the packed sweep against the brute-force oracle
# over the same store rows (identical assignments checked inside the
# bench), best of 5 per engine. Runs before gates 4 and 6, whose
# direct-Assign numerators shrink with this kernel. The report names the
# sweep ISA; the baseline holds one cell per ISA, each measured on a CPU
# that dispatches to it.
echo "=== perf-smoke: bench_table6_misclassification 0.25 --reps=5 ==="
(cd "$BUILD_DIR" && ROCK_BENCH_JSON=BENCH_label_smoke.json \
    ./bench/bench_table6_misclassification 0.25 --reps=5)

LBL_ISA=$(python3 - "$LBL_REPORT" "$LBL_BASELINE" \
    "$BUILD_DIR/BENCH_label_smoke.merged.json" <<'PY'
import json, sys
report, baseline, merged = sys.argv[1:4]
cur = json.load(open(report))
base = json.load(open(baseline))
isas = {e["params"].get("isa") for e in cur["entries"]}
known = any(e["params"].get("isa") in isas for e in base["entries"])
base["entries"] = [e for e in base["entries"]
                   if e["params"].get("isa") not in isas] + cur["entries"]
json.dump(base, open(merged, "w"), indent=2, ensure_ascii=False)
print(",".join(sorted(isas)) + ("" if known else " (no baseline cell)"))
PY
)
if [[ "$LBL_ISA" == *"(no baseline cell)"* ]]; then
  echo "::warning::perf-smoke gate 7 skipped: sweep ISA $LBL_ISA in" \
       "$LBL_BASELINE; add this CPU's cell from" \
       "$BUILD_DIR/BENCH_label_smoke.merged.json"
else
  echo "=== perf-smoke: gate vs $LBL_BASELINE ($LBL_ISA) ==="
  python3 tools/check_perf_regression.py "$LBL_REPORT" "$LBL_BASELINE" \
      --engines=packed,unpruned --stage=stage.label_scan
fi

# Serve loopback: best-of-3 like the other sub-second stages, with an
# absolute QPS floor on top of the machine-independent ratio gate.
echo "=== perf-smoke: bench_serve --min-qps=10000 ==="
(cd "$BUILD_DIR" && ROCK_BENCH_JSON=BENCH_serve_smoke.json \
    ./bench/bench_serve "$SCALE" --min-qps=10000 --reps=3)

echo "=== perf-smoke: gate vs $SRV_BASELINE ==="
python3 tools/check_perf_regression.py "$SRV_REPORT" "$SRV_BASELINE" \
    --engines=serve,direct --stage=stage.label_query

# Graph-scale gate: LSH-candidate generation vs the all-pairs packed
# baseline at n = 20k (the bench differentially verifies every engine
# against the exact graph before timing counts), plus the 0.999 candidate
# recall floor at θ = 0.73 with tuned banding.
echo "=== perf-smoke: bench_graph_scale --ns=20000 ==="
ROCK_BENCH_JSON="$GRF_REPORT" \
    "$BUILD_DIR/bench/bench_graph_scale" --ns=20000 --threads=8

echo "=== perf-smoke: gate vs $GRF_BASELINE ==="
python3 tools/check_perf_regression.py "$GRF_REPORT" "$GRF_BASELINE" \
    --engines=lsh,baseline --stage=stage.graph --min-recall=0.999

# Streaming appends: the session labels every appended row through the
# same §4.6 Assign path as the direct loop (differentially verified inside
# the bench); gate on the direct/stream ratio plus an absolute
# appended-row labeling throughput floor.
echo "=== perf-smoke: bench_stream --reps=3 ==="
(cd "$BUILD_DIR" && ROCK_BENCH_JSON=BENCH_stream_smoke.json \
    ./bench/bench_stream "$SCALE" --reps=3)

echo "=== perf-smoke: gate vs $STRM_BASELINE ==="
python3 tools/check_perf_regression.py "$STRM_REPORT" "$STRM_BASELINE" \
    --engines=stream,direct --stage=stage.append_label \
    --min-counter=stream.rows_per_sec:10000
