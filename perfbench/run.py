#!/usr/bin/env python3
"""Repository benchmark: builds the harness, runs one workload, prints metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_t5 --seed 1 --seconds 25 --trace 0

It builds librock and the harness from source into .bench_build/ (the first
run takes minutes), runs the workload in a fresh process with its own
directory under .bench_tmp/ (removed afterwards), checks every answer, and
prints human-readable lines starting with "# " followed by one JSON result
line. --trace 1 makes the separate traced run that reports the per-layer
metrics and writes a Chrome trace-event file under .bench_results/.
--smoke shrinks every workload to 20% of the Table 5 size so a run takes
seconds. Each run's full report, stamped with the host core count, the
thread counts, the seed, the commit and the build type, is kept in
.bench_results/. The metric names and units are those of BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_tmp")
RESULTS = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.2


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds the harness; the build log goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("librock sources (src/) not found beside perfbench/", 2)
    cores = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    cmd = ["cmake", "--build", BUILD, "--target", "rock_perfbench",
           "-j", cores]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)
    return os.path.join(BUILD, "rock_perfbench")


def source_digest():
    """SHA-256 over the library sources and build files the harness uses."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def complete_metrics(raw, spec, trace):
    """Orders the metrics as BENCHMARK.json lists them. The traced run
    reports 0 for a layer its workload does not call; a timed run must
    report every end-to-end metric."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(raw) - set(units))
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        if name in raw:
            if raw[name]["unit"] != unit:
                fail(f"metric {name} has unit {raw[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
            metrics[name] = raw[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at 20%% of the Table 5 size")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    scale = SMOKE_SCALE if args.smoke else 1.0
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(TMP, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    trace_out = os.path.join(RESULTS, f"{tag}.trace.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={scale}", f"--dir={workdir}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_out}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    for line in lines[:-1] if raw is not None else lines:
        print(line)
    if raw is None:
        fail(f"workload exited with code {proc.returncode} and no result",
             proc.returncode or 1)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "host_nproc": os.cpu_count(),
        "threads": raw.pop("threads", {}),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
    }
    raw["metrics"] = complete_metrics(raw["metrics"], spec, args.trace)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as f:
        json.dump({"stamp": stamp, "result": raw}, f, indent=1)
    print("# stamp " + json.dumps(stamp))
    print(json.dumps(raw))
    sys.stdout.flush()
    if proc.returncode != 0 or not raw["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
