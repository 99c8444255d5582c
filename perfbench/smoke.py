"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload of ``run.py`` at the tiny ``--smoke`` size, traced
and untraced, and checks the result line: its keys, that all outputs passed
their checks, and that every metric BENCHMARK.json names is printed with its
unit and a finite value. Takes about a minute. Exit code 1 on any
problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_run(spec, workload: str, trace: int) -> list:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: outputs failed their checks: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {m.get('unit')!r}, want {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has value {value!r}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for p in problems:
        print(p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
