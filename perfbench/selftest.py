"""Reduced-size self-test of the benchmark harness.

Runs ``run.py --small`` (inputs shrunk to seconds) on every workload, with
and without tracing, and checks that:

* each run is correct and prints the result line last;
* every metric ``BENCHMARK.json`` names is emitted, with its unit, in the
  result line and in the report, whose line also states the metric's
  better-direction;
* ``catalog.py`` documents exactly the metrics and workloads
  ``BENCHMARK.json`` names, and maps each layer metric onto end-to-end
  metrics and workloads that exist;
* the traced run writes a Chrome trace file;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files the command fails without printing a result.

Run from the root of a checkout; exits non-zero on the first failure::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402


def _fail(message: str) -> None:
    print(f"selftest: FAILED: {message}")
    sys.exit(1)


def _run(cwd: str, workload: str, trace: int):
    command = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
               "--workload", workload, "--seconds", "1", "--trace",
               str(trace), "--small"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_catalog(bench: dict) -> None:
    end_to_end = {metric["name"] for metric in bench["end_to_end"]}
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    workloads = {workload["name"] for workload in bench["workloads"]}
    if set(catalog.END_TO_END) != end_to_end:
        _fail(f"catalog.END_TO_END != BENCHMARK.json end_to_end: "
              f"{sorted(set(catalog.END_TO_END) ^ end_to_end)}")
    if set(catalog.PER_LAYER) != per_layer:
        _fail(f"catalog.PER_LAYER != BENCHMARK.json per_layer: "
              f"{sorted(set(catalog.PER_LAYER) ^ per_layer)}")
    if set(catalog.WORKLOADS) != workloads:
        _fail("catalog.WORKLOADS != BENCHMARK.json workloads")
    for name, (moves, mostly, flat, source, _) in catalog.PER_LAYER.items():
        if not set(moves) <= end_to_end:
            _fail(f"{name} moves unknown metrics {set(moves) - end_to_end}")
        if not (set(mostly) | set(flat)) <= workloads:
            _fail(f"{name} names unknown workloads")
        if source not in (catalog.TRACED, catalog.OUTPUTS):
            _fail(f"{name} has no source")
    for metric in bench["end_to_end"] + bench["per_layer"]:
        if metric["better"] not in ("higher", "lower"):
            _fail(f"{metric['name']} has no better-direction")
    bounds = {metric["name"]: metric["bound"]
              for metric in bench["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        _fail("setup_s must carry the largest bound")


def check_run(workload: str, trace: int, bench: dict) -> None:
    code, lines, stderr = _run(os.getcwd(), workload, trace)
    if code != 0 or not lines:
        _fail(f"{workload} trace={trace} exited {code}: {stderr[-800:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        _fail(f"{workload} trace={trace}: {lines[-1][:300]}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {metric["name"] for metric in wanted}:
        _fail(f"{workload} trace={trace}: metrics "
              f"{sorted(set(result['metrics']))}")
    report = lines[:-1]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        if emitted["unit"] != metric["unit"] or not isinstance(
                emitted["value"], (int, float)):
            _fail(f"{metric['name']}: emitted {emitted}")
        words = [line.split() for line in report]
        row = next((w for w in words if w and w[0] == metric["name"]), None)
        if row is None or metric["unit"] not in row \
                or f"({metric['better']}" not in " ".join(row):
            _fail(f"{metric['name']}: report line {row} lacks its unit "
                  f"{metric['unit']!r} or '({metric['better']} is "
                  f"better)'")
    if trace:
        path = os.path.join(".perfbench", "traces",
                            f"{workload}-seed{_seed(workload)}.trace.json")
        with open(path, encoding="utf-8") as handle:
            if not json.load(handle)["traceEvents"]:
                _fail(f"{path} holds no spans")
    print(f"selftest: {workload} trace={trace}: ok "
          f"({len(result['metrics'])} metrics)")


def _seed(workload: str) -> int:
    import workloads

    return workloads.DEFAULT_SEEDS[workload]


def check_bare_directory() -> None:
    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = _run(bare, "cluster_scale", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        _fail("the benchmark ran without the program's sources")
    print(f"selftest: bare directory: exits {code} without a result: ok")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    check_catalog(bench)
    print("selftest: catalog matches BENCHMARK.json: ok")
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, bench)
    check_bare_directory()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
