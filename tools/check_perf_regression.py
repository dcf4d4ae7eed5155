#!/usr/bin/env python3
"""Gate on an engine-pair speedup ratio in a BENCH_rock.json report.

Usage: check_perf_regression.py CURRENT.json BASELINE.json
           [--tolerance=0.25] [--engines=NEW,OLD] [--stage=STAGE]
           [--min-recall=R [--recall-counter=NAME]]
           [--min-counter=NAME:FLOOR ...]

Both files follow the BENCH_rock.json schema (docs/OBSERVABILITY.md §2b) and
must come from a --compare-engines bench run, which emits one entry per
(n, theta, engine) cell. For every (n, theta) cell present in both reports,
the per-cell metric is the ratio

    speedup = OLD-engine STAGE seconds / NEW-engine STAGE seconds

and the gate compares the geometric mean of those ratios: current must not
fall below baseline * (1 - tolerance). Ratios — not absolute seconds — keep
the gate independent of the machine the baseline was recorded on; the
geometric mean keeps one noisy cell from dominating. An entry whose params
carry an `isa` (the label-kernel gate, bench_table6_misclassification) only
meets the baseline cell recorded with the same kernel ISA, since its ratio
depends on which popcount kernel the CPU dispatches to.

Defaults match the merge-engine gate (bench_fig5_scalability):
--engines=parallel,hashed --stage=stage.merge. The neighbor-engine gate
(bench_neighbors_ablation) uses --engines=packed,scalar
--stage=stage.neighbors.

--min-recall=R additionally floors an accuracy counter in the CURRENT
report: every NEW-engine entry carrying --recall-counter (default
neighbors.lsh_recall_ppm, parts per million) must report at least
R * 1e6. The graph-scale gate (bench_graph_scale) uses it to pin the LSH
candidate recall at >= 0.999 alongside the lsh/baseline time ratio.

--min-counter=NAME:FLOOR floors a raw counter the same way (repeatable).
The streaming gate (bench_stream) uses it to pin an absolute
stream.rows_per_sec floor on the appended-row labeling throughput
alongside the direct/stream time ratio.

Exit status: 0 pass, 1 regression, 2 bad input.
"""

import json
import math
import sys


def load_cells(path, engines, stage):
    """Maps (n, theta, isa) -> {engine: stage seconds}; isa is None unless
    the entry names the kernel ISA it ran (bench_table6_misclassification),
    so a report only meets baseline cells of its own ISA."""
    with open(path) as f:
        report = json.load(f)
    if report.get("version") != 1:
        raise ValueError(f"{path}: unsupported schema version "
                         f"{report.get('version')!r}")
    cells = {}
    for entry in report.get("entries", []):
        params = entry.get("params", {})
        engine = params.get("engine")
        seconds = entry.get("timers", {}).get(stage)
        if engine not in engines or seconds is None:
            continue
        key = (params.get("n"), params.get("theta"), params.get("isa"))
        cells.setdefault(key, {})[engine] = seconds
    return cells


def speedups(cells, new_engine, old_engine):
    """Maps (n, theta) -> old/new stage-seconds ratio, where both ran."""
    out = {}
    for key, engines in cells.items():
        new = engines.get(new_engine)
        old = engines.get(old_engine)
        if new and old and new > 0:
            out[key] = old / new
    return out


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_counter_floor(path, engine, counter, floor, what="COUNTER"):
    """Floors a raw counter on every entry of `engine`; returns pass."""
    with open(path) as f:
        report = json.load(f)
    checked = 0
    ok = True
    for entry in report.get("entries", []):
        if entry.get("params", {}).get("engine") != engine:
            continue
        value = entry.get("counters", {}).get(counter)
        if value is None:
            continue
        checked += 1
        verdict = "OK" if value >= floor else f"{what} REGRESSION"
        print(f"{entry.get('label', '?')}: {counter} {value} "
              f"(floor {floor:.0f}) -> {verdict}")
        ok = ok and value >= floor
    if checked == 0:
        print(f"perf-smoke: no {engine} entries with {counter} in {path}",
              file=sys.stderr)
        return False
    return ok


def check_recall(path, engine, counter, min_recall):
    """Floors counter (ppm) on every entry of `engine`; returns pass."""
    return check_counter_floor(path, engine, counter, min_recall * 1e6,
                               what="RECALL")


def main(argv):
    tolerance = 0.25
    new_engine, old_engine = "parallel", "hashed"
    stage = "stage.merge"
    min_recall = None
    recall_counter = "neighbors.lsh_recall_ppm"
    counter_floors = []
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--engines="):
            pair = arg.split("=", 1)[1].split(",")
            if len(pair) != 2:
                print("perf-smoke: --engines wants NEW,OLD", file=sys.stderr)
                return 2
            new_engine, old_engine = pair
        elif arg.startswith("--stage="):
            stage = arg.split("=", 1)[1]
        elif arg.startswith("--min-recall="):
            min_recall = float(arg.split("=", 1)[1])
        elif arg.startswith("--recall-counter="):
            recall_counter = arg.split("=", 1)[1]
        elif arg.startswith("--min-counter="):
            spec = arg.split("=", 1)[1]
            name, _, floor = spec.rpartition(":")
            if not name:
                print("perf-smoke: --min-counter wants NAME:FLOOR",
                      file=sys.stderr)
                return 2
            try:
                counter_floors.append((name, float(floor)))
            except ValueError:
                print(f"perf-smoke: bad --min-counter floor {floor!r}",
                      file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    engines = (new_engine, old_engine)
    try:
        current = speedups(load_cells(paths[0], engines, stage),
                           new_engine, old_engine)
        baseline = speedups(load_cells(paths[1], engines, stage),
                            new_engine, old_engine)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"perf-smoke: {e}", file=sys.stderr)
        return 2

    shared = sorted(set(current) & set(baseline))
    if not shared:
        print("perf-smoke: no comparable (n, theta, isa) cells between "
              f"{paths[0]} and {paths[1]}", file=sys.stderr)
        return 2

    print(f"{stage} {old_engine}/{new_engine} speedup")
    print(f"{'cell':<16} {'current':>9} {'baseline':>9}")
    for key in shared:
        n, theta, isa = key
        cell = f"n={n} θ={theta}" + (f" {isa}" if isa else "")
        print(f"{cell:<16} {current[key]:8.2f}x {baseline[key]:8.2f}x")

    cur = geomean([current[k] for k in shared])
    base = geomean([baseline[k] for k in shared])
    floor = base * (1.0 - tolerance)
    verdict = "OK" if cur >= floor else "REGRESSION"
    print(f"geometric mean: current {cur:.2f}x, baseline {base:.2f}x, "
          f"floor {floor:.2f}x ({tolerance:.0%} tolerance) -> {verdict}")

    recall_ok = True
    if min_recall is not None:
        try:
            recall_ok = check_recall(paths[0], new_engine, recall_counter,
                                     min_recall)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"perf-smoke: {e}", file=sys.stderr)
            return 2
    floors_ok = True
    for name, counter_floor in counter_floors:
        try:
            floors_ok = check_counter_floor(
                paths[0], new_engine, name, counter_floor) and floors_ok
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"perf-smoke: {e}", file=sys.stderr)
            return 2
    return 0 if cur >= floor and recall_ok and floors_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
