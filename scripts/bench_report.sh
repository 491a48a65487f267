#!/usr/bin/env bash
# bench_report.sh — measure the figure benches and write a JSON
# performance report.
#
# Runs the main figure reproductions (the paper's three figures
# plus the five axis studies) at --quick scale, records
# the end-to-end wall time of each bench and, per design point, the
# wall time and simulated-cycles-per-second (from the sweep result
# store's `cycles` and `wallMs` fields), and writes everything to a
# JSON report.
#
# To produce a before/after comparison, run the script once at the
# old commit, then pass that report back in at the new one:
#
#   git checkout <before>; scripts/bench_report.sh --out=/tmp/before.json
#   git checkout <after>;  scripts/bench_report.sh --baseline=/tmp/before.json
#
# The baseline's measurements are embedded under "baseline" with
# per-bench speedups. BENCH_PR3.json in the repo root is a committed
# snapshot from the PR-3 hot-path overhaul.
#
# Usage: scripts/bench_report.sh [--out=FILE] [--baseline=FILE]
#                                [--build=DIR] [--runs=N]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_REPORT.json
BASELINE=""
BUILD=build
RUNS=3
for arg in "$@"; do
    case $arg in
      --out=*) OUT=${arg#*=} ;;
      --baseline=*) BASELINE=${arg#*=} ;;
      --build=*) BUILD=${arg#*=} ;;
      --runs=*) RUNS=${arg#*=} ;;
      *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

BENCHES="fig2_barnes fig3_mp3d fig4_cholesky fig_net_scaling fig_mem_scaling fig_consistency fig_tm fig_sec"

# Fail fast with a real explanation instead of a cmake stack trace
# when pointed at a missing or bench-less build directory.
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    echo "error: '$BUILD' is not a configured build directory" >&2
    echo "  (no $BUILD/CMakeCache.txt — run: cmake -B $BUILD -S .)" >&2
    exit 1
fi
if ! grep -q "^CMAKE_PROJECT_NAME:STATIC=scmp$" \
        "$BUILD/CMakeCache.txt"; then
    echo "error: '$BUILD' was not configured from this project" >&2
    echo "  (point --build=DIR at a build of this repo)" >&2
    exit 1
fi

cmake --build "$BUILD" --target $BENCHES >/dev/null

for bench in $BENCHES; do
    if [ ! -x "$BUILD/bench/$bench" ]; then
        echo "error: bench executable '$BUILD/bench/$bench' missing after build" >&2
        exit 1
    fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for bench in $BENCHES; do
    echo "== $bench --quick (best of $RUNS) =="
    best=""
    for run in $(seq "$RUNS"); do
        # The container has no /usr/bin/time; date arithmetic via
        # awk is portable enough for wall seconds.
        rm -f "$TMP/$bench.jsonl"
        start=$(date +%s.%N)
        "$BUILD/bench/$bench" --quick \
            --results="$TMP/$bench.jsonl" >/dev/null
        end=$(date +%s.%N)
        wall=$(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.3f", b-a}')
        echo "   run $run: ${wall}s"
        if [ -z "$best" ] || \
           awk -v w="$wall" -v b="$best" 'BEGIN{exit !(w < b)}'; then
            best=$wall
        fi
    done
    echo "$best" > "$TMP/$bench.wall"
done

python3 - "$TMP" "$OUT" "$BASELINE" <<'EOF'
import json
import subprocess
import sys

tmp, out, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]
benches = ["fig2_barnes", "fig3_mp3d", "fig4_cholesky",
           "fig_mem_scaling", "fig_consistency", "fig_tm",
           "fig_sec"]

report = {
    "schema": 1,
    "scale": "quick",
    "commit": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True).stdout.strip() or None,
    "host": {
        "cpus": int(subprocess.run(
            ["nproc"], capture_output=True, text=True).stdout or 1),
        "uname": subprocess.run(
            ["uname", "-srm"],
            capture_output=True, text=True).stdout.strip(),
    },
    "benches": {},
}

for bench in benches:
    with open(f"{tmp}/{bench}.wall") as f:
        wall = float(f.read().strip())
    points = []
    total_cycles = 0
    with open(f"{tmp}/{bench}.jsonl") as f:
        for line in f:
            rec = json.loads(line)
            cycles = rec["result"]["cycles"]
            ms = rec["wallMs"]
            total_cycles += cycles
            points.append({
                "workload": rec["workload"],
                # Evaluation model that produced the record; an
                # analytic screen row must never be compared (or
                # deduplicated) against a cycle-accurate row of the
                # same coordinates.
                "model": rec.get("model", "cycle"),
                "procsPerCluster": rec["procs"],
                "sccBytes": rec["scc"],
                "wallSeconds": round(ms / 1000.0, 6),
                "simCycles": cycles,
                "simCyclesPerSec":
                    round(cycles / (ms / 1000.0)) if ms > 0 else None,
            })
    report["benches"][bench] = {
        "wallSeconds": wall,
        "totalSimCycles": total_cycles,
        "simCyclesPerSec": round(total_cycles / wall),
        "points": points,
    }

if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)
    report["baseline"] = {
        "commit": base.get("commit"),
        "benches": {
            name: {"wallSeconds": b["wallSeconds"]}
            for name, b in base.get("benches", {}).items()
        },
    }
    for name, b in report["baseline"]["benches"].items():
        if name in report["benches"] and b["wallSeconds"] > 0:
            report["benches"][name]["speedupVsBaseline"] = round(
                b["wallSeconds"] /
                report["benches"][name]["wallSeconds"], 2)

with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out}")
for name, b in report["benches"].items():
    speed = b.get("speedupVsBaseline")
    extra = f"  ({speed}x vs baseline)" if speed else ""
    print(f"  {name}: {b['wallSeconds']}s, "
          f"{b['simCyclesPerSec']:,} sim cycles/sec{extra}")
EOF
