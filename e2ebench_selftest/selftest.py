#!/usr/bin/env python3
"""Smoke-size self-test of the repository benchmark (``e2ebench/``).

Run from the repository root::

    python3 e2ebench_selftest/selftest.py

It checks that ``BENCHMARK.json`` agrees with the benchmark's metric
catalog and workloads, runs every workload at smoke size with and
without tracing and validates the result line, and checks that the
benchmark fails without a result where the simulator sources are
missing.  Exits non-zero on the first failed check; takes ~1 min.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "e2ebench"))

import catalog  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
          "workload names differ from run.py")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and "\n" not in w["why"]
              and len(w["why"]) <= 200, f"workload {w['name']}")
    for key, table in (("end_to_end", catalog.END_TO_END),
                       ("per_layer", catalog.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        check(listed == catalog.units(table), f"{key} differs from catalog.py")
        for m in spec[key]:
            check(NAME.match(m["name"]) and UNIT.match(m["unit"]),
                  f"name or unit of {m['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(m["bound"]
                                             for m in spec["end_to_end"]),
          "setup_s must carry the largest bound")
    check(1 <= spec["run_seconds"] <= 60
          and isinstance(spec["run_seconds"], int), "run_seconds")
    return spec


def run(cwd: str, workload: str, trace: int):
    command = [sys.executable, os.path.join("e2ebench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    check(done.returncode == 0, f"{workload} exited {done.returncode}: "
                                f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    label = f"{workload} --trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    check(result["correct"] is True and result["failed"] == 0,
          f"{label} not correct:\n{done.stdout}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label} attempted")
    expected = spec["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in expected],
          f"{label} metric names")
    for m in expected:
        value = result["metrics"][m["name"]]
        check(value["unit"] == m["unit"]
              and isinstance(value["value"], (int, float))
              and math.isfinite(value["value"]), f"{label} {m['name']}")
        if not trace:
            check(value["value"] > 0, f"{label} {m['name']} is zero")
    print(f"ok  {label}: attempted={result['attempted']}")


def check_bare(spec: dict) -> None:
    """Without ``src/`` the benchmark fails fast and prints no result."""
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, WORKLOAD_NAMES[0], 0)
        check(done.returncode != 0 and "{" not in done.stdout,
              "benchmark without src/ must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without src/")


def main() -> None:
    spec = check_spec()
    print("ok  BENCHMARK.json matches catalog.py and run.py")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
