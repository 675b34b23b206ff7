#!/usr/bin/env bash
#===- tools/bench_ab.sh - Interleaved A/B micro-benchmark compare --------===#
#
# Compares the micro_perf suite between two build trees, interleaving the
# runs (A B A B ...) so CPU frequency drift and cache warmth bias neither
# side, then reports per-benchmark medians and speedups. Every run of both
# sides is pinned with taskset to one fixed CPU, the last of the script's
# affinity mask (the CPU suitebench/run.py pins to): unpinned, the rows
# that fork processes measure where the scheduler put them, not the code.
# The report records the CPU as "pinned_cpu".
#
#   tools/bench_ab.sh <buildA> <buildB> [rounds] [out.json]
#
#   buildA    baseline build tree (e.g. a checkout of the previous HEAD)
#   buildB    candidate build tree
#   rounds    interleaved rounds per side (default 5)
#   out.json  report path (default $TMPDIR/bench_ab.json, outside the
#             repository, so a run never overwrites a committed
#             BENCH_*.json record; name one explicitly to keep it)
#
# Measured: BM_PointerAnalysis (the solver with a Local-mode string
# analysis inside solve(), unguarded), BM_SolverAsRun (the solve the
# pipeline runs: preset options and string facts, under a RunGuard, for
# hybrid-unbounded and hybrid-optimized), BM_SdgConstruction (its
# biggest query-surface consumer), BM_ServerWarmRequest (the warm restore
# path), BM_ColdVsWarmAnalysis (whole runs on Roller, cold and warm, for
# hybrid-unbounded and hybrid-optimized), BM_RestoreSolver and
# BM_RestoreSdg (the points-to and SDG restores alone, same two configs),
# BM_CacheLoad (a disk hit up to the restore: the read, header checks
# and checksum of Roller's hybrid-optimized pts and sdg records),
# the slicer rows BM_HybridSlicing and BM_CiSlicing, whose largest size
# class is Roller; BM_ConstStrings (string-constant propagation, ipa
# mode) and BM_ClassHierarchy (the class hierarchy's constructor on
# Roller, which every run pays). Each row keeps
# the time unit its benchmark reports in (ns, us or ms), and medians print
# to three decimals. The speedup column is medianA / medianB, so values
# above 1 mean the candidate is faster. Because A and B alternate, each
# round is also a pair: paired_speedup is the median over rounds of that
# round's A/B ratio, and wins counts the rounds B was faster in. A slow
# spell of the host that covers more runs of one side than of the other
# skews the per-side medians, but only the ratios of the rounds it
# touched.
#
#===----------------------------------------------------------------------===#
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <buildA> <buildB> [rounds] [out.json]" >&2
  exit 2
fi

BUILD_A=$1
BUILD_B=$2
ROUNDS=${3:-5}
OUT=${4:-${TMPDIR:-/tmp}/bench_ab.json}
FILTER='BM_PointerAnalysis|BM_SolverAsRun|BM_SdgConstruction|BM_ServerWarmRequest|BM_ColdVsWarmAnalysis|BM_RestoreSolver|BM_RestoreSdg|BM_CacheLoad|BM_HybridSlicing|BM_CiSlicing|BM_ConstStrings|BM_ClassHierarchy'

for D in "$BUILD_A" "$BUILD_B"; do
  if [ ! -x "$D/bench/micro_perf" ]; then
    echo "error: $D/bench/micro_perf not found (build the tree first)" >&2
    exit 2
  fi
done

CPU=$(python3 -c 'import os; print(sorted(os.sched_getaffinity(0))[-1])')

WORK=$(mktemp -d /tmp/taj-bench-ab-XXXXXX)
trap 'rm -rf "$WORK"' EXIT

for R in $(seq 1 "$ROUNDS"); do
  for SIDE in A B; do
    if [ "$SIDE" = A ]; then D=$BUILD_A; else D=$BUILD_B; fi
    echo "round $R/$ROUNDS side $SIDE ($D) on CPU $CPU" >&2
    taskset -c "$CPU" "$D/bench/micro_perf" \
      --benchmark_filter="$FILTER" \
      --benchmark_format=json \
      --benchmark_out="$WORK/$SIDE.$R.json" \
      --benchmark_out_format=json > /dev/null
  done
done

python3 - "$WORK" "$ROUNDS" "$BUILD_A" "$BUILD_B" "$OUT" "$CPU" <<'PY'
import json, statistics, sys

work, rounds, build_a, build_b, out, cpu = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5],
    int(sys.argv[6]))

def collect(side):
    times, units = {}, {}
    for r in range(1, rounds + 1):
        with open(f"{work}/{side}.{r}.json") as f:
            doc = json.load(f)
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            times.setdefault(b["name"], []).append(b["real_time"])
            units[b["name"]] = b["time_unit"]
    return times, units

(a, units_a), (b, units_b) = collect("A"), collect("B")
report = {
    "baseline": build_a,
    "candidate": build_b,
    "rounds": rounds,
    "pinned_cpu": cpu,
    "benchmarks": [],
}
for name in sorted(set(a) & set(b)):
    unit = units_a[name]
    if units_b[name] != unit:
        print(f"note: {name} reports {unit} in A and {units_b[name]} in B; "
              "skipped", file=sys.stderr)
        continue
    ma, mb = statistics.median(a[name]), statistics.median(b[name])
    pairs = list(zip(a[name], b[name]))
    paired = statistics.median(ta / tb for ta, tb in pairs if tb)
    wins = sum(tb < ta for ta, tb in pairs)
    report["benchmarks"].append({
        "name": name,
        "time_unit": unit,
        "median_a": ma,
        "median_b": mb,
        "speedup": ma / mb if mb else None,
        "paired_speedup": paired,
        "wins": wins,
    })
    print(f"{name:45s} A={ma:14.3f} {unit:2s}  B={mb:14.3f} {unit:2s}  "
          f"speedup={ma / mb:5.2f}x  paired={paired:5.2f}x  "
          f"wins={wins}/{len(pairs)}")
missing = sorted(set(a) ^ set(b))
if missing:
    print(f"note: only one side ran: {', '.join(missing)}", file=sys.stderr)
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
PY
