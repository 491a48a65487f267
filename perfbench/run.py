#!/usr/bin/env python3
"""Host-time benchmark of the scmp simulator.

Run from the root of a source tree:

    python3 perfbench/run.py --workload barnes-grid --seed 1 --seconds 20 --trace 0

builds perfbench/ (the simulator libraries from src/ plus the driver
perfbench/scmp_bench.cpp) into $CARGO_TARGET_DIR or .bench_build,
runs the workload for --seconds, checks every simulated result and
prints the metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.
BENCHMARK.json names the workloads and metrics; perfbench/README.md
says why each was chosen and what the benchmark leaves out.

Other commands:

    run.py reference --workload W --seeds 1-20   record reference results
    run.py baseline HISTORY.jsonl...              summarize runs (JSON)
    run.py compare OLD.jsonl NEW.jsonl            A/B two sets of runs

Every run appends a record, stamped with the source digest, host and
build, to .bench_out/history.jsonl. compare refuses records whose
host or build differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("barnes-grid", "cholesky-point", "mp3d-weak-split")
# A run must end within 180 s; the first one in a tree also builds.
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 700.0
# Reference results exist for input seeds 1..REFERENCE_SEEDS; every
# --seed maps onto one of them.
REFERENCE_SEEDS = 20
# Simulated results compared against the reference, in this order.
RESULT_FIELDS = ("procs", "scc", "cycles", "references", "instructions",
                 "readMissRate", "missRate", "busTransactions",
                 "invalidations", "verified")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configure and build the driver; return the binary's path."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "scmp_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=log,
                                    timeout=BUILD_LIMIT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (step[:2], err), 3)
            if rc != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(build_dir, "scmp_bench")


def source_digest(root):
    """sha256 of the simulator and driver sources: the tree's identity
    (the benchmark also runs outside git checkouts)."""
    paths = [os.path.join(d, n)
             for d, _, names in os.walk(os.path.join(root, "src"))
             for n in names]
    paths += [os.path.join(HERE, n) for n in ("CMakeLists.txt",
                                              "scmp_bench.cpp", "run.py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def run_driver(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining < 5:
        fail("no time left to run after the build", 4)
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % remaining, 4)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("driver exited with %d" % proc.returncode, 4)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    kinds = {}
    for line in lines:
        kinds.setdefault(line["kind"], []).append(line)
    return kinds


def input_seed(seed):
    """The recorded input a --seed runs: seeds cycle through 1..20."""
    return 1 + (seed - 1) % REFERENCE_SEEDS


def point_tuple(point):
    return tuple(point[field] for field in RESULT_FIELDS)


def load_reference(workload, seed):
    path = os.path.join(HERE, "reference", workload + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        seeds = json.load(f)["seeds"]
    points = seeds.get(str(seed))
    return None if points is None else [tuple(p) for p in points]


def check_points(sweeps, reference):
    """Count point evaluations and those that fail the gate.

    A point fails when verify() failed or its simulated results differ
    from the reference for its input seed. Without a reference every
    point fails.
    """
    expected = reference or []
    attempted = failed = 0
    for points in sweeps:
        got = [point_tuple(p) for p in points]
        for i, point in enumerate(got):
            attempted += 1
            if not point[-1] or i >= len(expected) or point != expected[i]:
                failed += 1
        failed += max(0, len(expected) - len(got))
    return attempted, failed


def load_bench_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(opts):
    start = time.monotonic()
    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s not found: run from the root of an scmp source tree"
                 % needed)
    spec = load_bench_spec(root)
    binary = build(root)
    # A run that had to build gets the time its measurement needs.
    deadline = max(start + RUN_LIMIT_S, time.monotonic() + 120)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    args = ["--workload=" + opts.workload,
            "--seed=%d" % input_seed(opts.seed), "--out=" + out_dir]
    if opts.trace:
        args.append("--mode=trace")
    else:
        args += ["--mode=run", "--seconds=%g" % opts.seconds]
    kinds = run_driver(binary, args, deadline)

    build_stamp = dict(kinds["build"][0])
    del build_stamp["kind"]
    stamp = {"source": source_digest(root), "host": host_stamp(),
             "build": build_stamp}

    # Cholesky runs its one input whatever the seed.
    ran_seed = kinds["input"][0]["seed"]
    reference = load_reference(opts.workload, ran_seed)

    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    extra = {}
    if opts.trace:
        layers = kinds["layers"][0]
        sweeps = [layers["points"]]
        metrics = dict(layers["metrics"])
        names = [m["name"] for m in spec["per_layer"]]
        extra = {k: v for k, v in layers.items()
                 if k not in ("kind", "metrics", "points")}
    else:
        repeats = kinds["repeat"]
        sweeps = [r["points"] for r in repeats]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in repeats),
            "refs_per_s": statistics.median(r["refs"] / r["wall_s"]
                                            for r in repeats),
            "setup_s": statistics.median(kinds["setup"][0]["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"]
                                             for r in repeats) / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
        extra = {"repeats": len(repeats),
                 "wall_s_each": [r["wall_s"] for r in repeats],
                 "peak_rss_kb_each": [r["peak_rss_kb"] for r in repeats],
                 "setup_s_each": kinds["setup"][0]["setup_s"]}
    attempted, failed = check_points(sweeps, reference)
    correct = failed == 0
    if opts.trace and metrics["core.replay_mismatches"] != 0:
        correct = False

    record = {"workload": opts.workload, "seed": opts.seed,
              "input_seed": ran_seed,
              "trace": opts.trace, "seconds": opts.seconds,
              "stamp": stamp, "reference": reference is not None,
              "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "extra": extra}
    with open(os.path.join(out_dir, "history.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("points %d attempted, %d failed (input seed %d, reference %s)"
          % (attempted, failed, ran_seed,
             "recorded" if reference is not None else "MISSING"))
    for key in sorted(extra):
        print("%s %s" % (key, json.dumps(extra[key])))
    for name in names:
        print("%-28s %-14.6g %s" % (name, metrics[name], units[name]))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": units[name]} for name in names}}
    print(json.dumps(result))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record_reference(opts):
    """Record the simulated results of each seed (one sweep each)."""
    root = os.getcwd()
    binary = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(HERE, "reference", opts.workload + ".json")
    data = {"workload": opts.workload, "fields": list(RESULT_FIELDS),
            "held_out_seeds": parse_seeds(opts.held_out)
            if opts.held_out else [], "seeds": {}}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    for seed in parse_seeds(opts.seeds):
        kinds = run_driver(binary, ["--workload=" + opts.workload,
                                    "--seed=%d" % seed, "--mode=run",
                                    "--repeats=1", "--out=" + out_dir],
                           time.monotonic() + 600)
        ran_seed = kinds["input"][0]["seed"]
        points = [list(point_tuple(p))
                  for p in kinds["repeat"][0]["points"]]
        if not all(p[-1] for p in points):
            fail("seed %d: a point failed verify()" % seed)
        data["seeds"][str(ran_seed)] = points
        print("%s input seed %d: %d points"
              % (opts.workload, ran_seed, len(points)))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")


def read_history(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(records):
    """Per (workload, metric): n, median, quartiles, spread."""
    table = {}
    for r in records:
        for name, value in r["metrics"].items():
            table.setdefault((r["workload"], r["trace"], name),
                             []).append(value)
    out = {}
    for (workload, trace, name), values in sorted(table.items()):
        q1, q2, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
        med = statistics.median(values)
        out.setdefault(workload, {}).setdefault(
            "per_layer" if trace else "end_to_end", {})[name] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None}
    return out


def stamps_of(records):
    return {json.dumps({"host": r["stamp"]["host"],
                        "build": r["stamp"]["build"]}, sort_keys=True)
            for r in records}


def baseline(opts):
    records = [r for path in opts.history for r in read_history(path)]
    stamps = stamps_of(records)
    if len(stamps) != 1:
        fail("history mixes hosts or builds: %s" % sorted(stamps), 1)
    sources = sorted({r["stamp"]["source"] for r in records})
    print(json.dumps({"stamp": json.loads(stamps.pop()),
                      "source": sources,
                      "seeds": sorted({r["seed"] for r in records}),
                      "all_correct": all(r["correct"] for r in records),
                      "workloads": summarize(records)},
                     indent=1, sort_keys=True))


def compare(opts):
    """A/B two histories of the same host and build."""
    old, new = read_history(opts.old), read_history(opts.new)
    stamps = stamps_of(old) | stamps_of(new)
    if len(stamps) != 1:
        fail("refusing to compare runs from different hosts or builds:\n"
             + "\n".join(sorted(stamps)), 1)
    for side, records in (("OLD", old), ("NEW", new)):
        wrong = sum(not r["correct"] for r in records)
        if wrong:
            fail("FAILED: %d %s runs are not correct" % (wrong, side), 1)
    spec = load_bench_spec(os.getcwd())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = summarize(old), summarize(new)
    worse = False
    for workload in sorted(set(a) & set(b)):
        for name, m in sorted(bounds.items()):
            try:
                x = a[workload]["end_to_end"][name]
                y = b[workload]["end_to_end"][name]
            except KeyError:
                continue
            change = (y["median"] - x["median"]) / x["median"]
            regress = change if m["better"] == "lower" else -change
            verdict = "ok"
            if regress > m["bound"]:
                verdict, worse = "WORSE", True
            elif max(x["spread"], y["spread"]) > m["bound"]:
                verdict = "unresolved"
            print("%-16s %-12s %12.6g -> %12.6g  %+7.2f%%  %s"
                  % (workload, name, x["median"], y["median"],
                     100 * change, verdict))
    sys.exit(1 if worse else 0)


def main(argv):
    if argv and argv[0] == "reference":
        p = argparse.ArgumentParser(prog="run.py reference")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seeds", required=True)
        p.add_argument("--held-out", default="")
        record_reference(p.parse_args(argv[1:]))
    elif argv and argv[0] == "baseline":
        p = argparse.ArgumentParser(prog="run.py baseline")
        p.add_argument("history", nargs="+")
        baseline(p.parse_args(argv[1:]))
    elif argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(argv[1:]))
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=40)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        measure(p.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
