#!/usr/bin/env bash
# Harness benchmark run. Two parts:
#
# 1. The bench tables, each written by the shared reporter
#    (bench/common/report.hh: correct/attempted/failed, dotted metrics,
#    schema and host/build meta): perf_suite (serial vs parallel suite
#    runs), tab_concurrency (cooperative scaling and worker-scaling
#    counts), tab_transport (the SPSC ring's drop accounting under
#    sustained load and per capacity, drop-free identity), tab_kiter
#    (k-BLPP windows) and tab_fusion (fused template streams and the
#    engine x fusion identity gate). Each exits nonzero when one of its
#    deterministic gates fails.
# 2. The wall-clock gates, judged on perfbench's interleaved ablation
#    ladder (perfbench/README.md) over the replay suite, seeds 1 and 2,
#    20 s each. Each gate takes the lower of the two seeds' medians:
#      vm.threaded_speedup    >= 1.30  (threaded over switch engine)
#      vm.fuse_traces_speedup >= 1.20  (fusion pairs,traces over the
#                                       plain threaded engine)
#
# Every step runs; the script then exits 1 and names each failure.
# The committed BENCH_PR*.json files are historical records; this
# script writes its own results under build/bench-results by default.
#
# Usage: scripts/bench.sh [perf.json] [concurrency.json]
#                         [transport.json] [kiter.json] [fusion.json]
# Environment: PEP_BENCH_SCALE, PEP_BENCH_ONLY, PEP_BENCH_THREADS
# (the bench tables only; perfbench pins its own configuration).
set -uo pipefail

cd "$(dirname "$0")/.."

RESULTS=build/bench-results
mkdir -p "$RESULTS"
OUT_PERF=${1:-$RESULTS/perf_suite.json}
OUT_CONCURRENCY=${2:-$RESULTS/tab_concurrency.json}
OUT_TRANSPORT=${3:-$RESULTS/tab_transport.json}
OUT_KITER=${4:-$RESULTS/tab_kiter.json}
OUT_FUSION=${5:-$RESULTS/tab_fusion.json}

failures=()

cmake -B build -S . >/dev/null &&
    cmake --build build -j "$(nproc)" --target perf_suite \
        tab_concurrency tab_transport tab_kiter tab_fusion ||
    { echo "bench.sh: build failed" >&2; exit 1; }

run_table() {
    local name=$1 out=$2
    ./build/bench/"$name" "$out" || failures+=("$name (gates in $out)")
}
run_table perf_suite "$OUT_PERF"
run_table tab_concurrency "$OUT_CONCURRENCY"
run_table tab_transport "$OUT_TRANSPORT"
run_table tab_kiter "$OUT_KITER"
run_table tab_fusion "$OUT_FUSION"

# The perfbench result line is the last line of run.py's output.
ladders=()
for seed in 1 2; do
    log="$RESULTS/perfbench-replay-suite-seed$seed.log"
    if ! python3 perfbench/run.py --workload replay-suite --seed "$seed" \
        --seconds 20 --trace 1 | tee "$log"; then
        failures+=("perfbench replay-suite seed $seed (see $log)")
    fi
    ladders+=("$(tail -n 1 "$log")")
done

gate_failures=$(python3 - "${ladders[@]}" <<'EOF'
import json
import sys

GATES = [("vm.threaded_speedup", 1.30), ("vm.fuse_traces_speedup", 1.20)]
results = []
for line in sys.argv[1:]:
    try:
        results.append(json.loads(line)["metrics"])
    except (ValueError, KeyError, TypeError):
        print("no perfbench result line to judge the speed gates on")
        sys.exit(0)
for name, floor in GATES:
    medians = [metrics[name]["value"] for metrics in results]
    low = min(medians)
    verdict = "pass" if low >= floor else "FAIL"
    sys.stderr.write("bench.sh: %s seed medians %s, lower %.3fx, "
                     "gate %.2fx: %s\n"
                     % (name, ", ".join("%.3fx" % m for m in medians),
                        low, floor, verdict))
    if low < floor:
        print("%s %.3fx below %.2fx" % (name, low, floor))
EOF
)
while IFS= read -r line; do
    [[ -n $line ]] && failures+=("$line")
done <<<"$gate_failures"

echo "bench.sh: tables in $OUT_PERF, $OUT_CONCURRENCY, $OUT_TRANSPORT," \
    "$OUT_KITER and $OUT_FUSION; ladders in $RESULTS"
if ((${#failures[@]})); then
    printf 'bench.sh: FAILED: %s\n' "${failures[@]}" >&2
    exit 1
fi
echo "bench.sh: every gate passed"
